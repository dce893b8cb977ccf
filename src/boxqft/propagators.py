"""Scalar two-point kernels as exact discrete mode sums.

Convention table (normative for the whole package; the README repeats it).
All sums run over the lattice's negation-closed momentum grid, with
omega_n = sqrt(m^2 + k_n^2):

    WightmanPlus   D+(t,x)  = (1/L) sum_n exp(-i(w_n t - k_n x)) / (2 w_n)
    WightmanMinus  D-(t,x)  = -(1/L) sum_n exp(+i(w_n t + k_n x)) / (2 w_n)
    Commutator     D        = D+ + D-
    Hadamard       D1       = (D+ - D-) / 2
    Retarded                = step(t) * D
    Advanced                = -step(-t) * D
    TimeSymmetric  Dbar     = (Retarded + Advanced) / 2
    Feynman        DF       = step(t) * D+ - step(-t) * D-

Notes on the conventions:

* D- is written with the same +i k_n x spatial phase as D+.  On a
  negation-closed grid this equals the relabelled form
  -(1/L) sum exp(+i(w t - k x))/(2 w) term for term under k -> -k, and
  that form is D-(t,x) = -conj(D+(t,x)): the negative-frequency kernel
  is the conjugate of the positive-frequency one, Feynman's reading of
  negative-energy solutions as antiparticles ("The theory of positrons",
  Phys. Rev. 76, 749 (1949)).  It also makes the equal-time
  cancellation D+(0,x) + D-(0,x) = 0 hold termwise.  On a grid that is
  *not* closed under negation the forms differ, which is exactly why
  kernel_values rejects such grids.
* The factor i customary in front of the Feynman momentum-space kernel is
  absorbed into the kernels themselves: per mode,
  DF = (1/2pi) int dnu exp(-i nu t) * i/(nu^2 - w^2 + i eps) -> exp(-i w |t|)/(2 w),
  which is what boxqft.frequency evaluates.  Under these conventions the
  Commutator kernel is purely imaginary and the Hadamard kernel is purely
  real, and DF equals the time-ordered vacuum two-point function computed
  in the Fock module with no extra prefactor.
* Every kind is continuous at t = 0 (see ``_COEFFICIENTS``); the step
  kinds reject t = 0 unless that value is requested (``step_at_zero``).

Evaluation path.  Every kind is one entry of a coefficient table
(``_COEFFICIENTS``): the weights of D+ and D- for t >= 0 and for t < 0,
e.g. Feynman is (1, 0), (0, -1).
kernel_values takes one kind or a tuple of kinds, sums D+ once per call
at every point of the broadcast (t, x) shape, reads D- there as
-conj(D+) and combines the two region by region with each kind's
weights.  So D- = -conj(D+) holds bit for bit within a call, and every
kind of a tuple reads the bits a call of its own would (a point's D+
does not depend on the other points).  Check 02 takes its four kinds,
and check 10g all eight, from one such call.  The trade: Retarded and
Advanced sum D+ also where they read +0.0, and no kind pays to find the
points some kind weights.  The D+ sum needs a mirror-ordered grid
(momenta == -momenta[::-1], frequencies mirrored, as build_lattice
makes them), and kernel_values rejects any other grid, as it rejects
any kind that is not a KernelKind.  There each plane wave factors as
exp(-i w t) exp(i k x), and a +-k pair folds to exp(-i w t) cos(k x) / w,
so the sum reads two tables, on the entries of t and x before
broadcasting: exp(-i w t) per entry of t and cos(k x) per entry of x,
about (n_t + n_x) n/2 sines and cosines for an n_t by n_x product grid
of n modes instead of one complex exp per point and mode.  Each point's
value is the product of its two table rows summed along the columns, in
blocks of ``_BLOCK_TERMS`` (16,384) terms, 512 points at the default 63
modes, so the temporaries stay small whatever the grid size.  A point's
sum reads only its own rows, so its bits do not depend on the shape of
the grid, the other points or the blocking.  It rounds differently from
a per-term phase fl(w t - k x), and agrees with that route (the tests'
oracle and the direct D- sum of check 01b) to a few 1e-16.
Kernels are functions of the point difference (t, x) = (t_a - t_b,
x_a - x_b), given as plain float arrays of times and positions; there is
no point type.  eval_kernel_grid is the one validating entry for
points (finite times whose phases do not overflow, reduction of x into
[0, L)); eval_kernel (one difference), the verify_* routines
(arrays of differences) and the CLI go through it.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from boxqft.lattice import Lattice, ValidationError


class KernelKind(enum.Enum):
    WIGHTMAN_PLUS = "dplus"
    WIGHTMAN_MINUS = "dminus"
    COMMUTATOR = "commutator"
    HADAMARD = "hadamard"
    RETARDED = "retarded"
    ADVANCED = "advanced"
    TIME_SYMMETRIC = "dbar"
    FEYNMAN = "feynman"


def canonical_x(x, box_length: float):
    """Reduce x (a scalar or an array) into [0, L).  Uses fmod-based modulo
    so that the reduced values of x and -x sum to exactly L (needed for
    exact antisymmetry)."""
    r = np.mod(x, box_length)
    # np.mod returns L itself when x is a tiny negative number
    return r - box_length * (r >= box_length)


# Folded mode terms (points x table columns) per block of _dplus's sum:
# the bound on its gathered table rows and their products.
_BLOCK_TERMS = 1 << 14


def _dplus(momenta, frequencies, box_length, t, x):
    """D+ at every point of the broadcast shape of the arrays t and x:
    (1/L) sum exp(-i(w t - k x)) / (2 w) on a mirror-ordered grid.

    Mode i and its partner n-1-i (k -> -k, the same w) fold to column i,
    exp(-i w t) cos(k x) / w; an odd middle mode (k = 0) is the last
    column, exp(-i w t) / (2 w).  The tables have one row per entry of t
    and of x, before broadcasting, so a product grid computes each axis
    value once.  Each point sums the product of its two rows along the
    columns, a block of about _BLOCK_TERMS terms at a time."""
    n = frequencies.size
    columns = (n + 1) // 2
    weight = np.where(np.arange(columns) < n // 2, 1.0, 0.5) / frequencies[:columns]
    phase = np.multiply.outer(-t.ravel(), frequencies[:columns])
    # Row j is (Re, Im) of exp(-i w t_j) times the column weight.
    time_table = np.stack([np.cos(phase), np.sin(phase)], axis=1) * weight
    cosines = np.cos(np.multiply.outer(x.ravel(), momenta[:columns]))
    shape = np.broadcast_shapes(t.shape, x.shape)
    t_row, x_row = (np.broadcast_to(np.arange(a.size).reshape(a.shape), shape).ravel()
                    for a in (t, x))
    sums = np.empty(shape, dtype=complex)
    parts = sums.reshape(-1).view(float).reshape(-1, 2)
    step = max(1, _BLOCK_TERMS // columns)
    for start in range(0, sums.size, step):
        block = slice(start, start + step)
        products = time_table[t_row[block]] * cosines[x_row[block], None, :]
        parts[block] = np.sum(products, axis=-1)
    return np.divide(sums, box_length, out=sums)


# Per kind, the (D+, D-) weights for t >= 0 and for t < 0.  D+(0, x) is
# real, so D- = -conj(D+) is -D+ there and the Commutator vanishes: both
# pairs of a kind read the same bits at t = +-0.0 (Retarded, Advanced and
# TimeSymmetric 0, Feynman the Hadamard value), and t = 0 joins t > 0.
_COEFFICIENTS = {
    KernelKind.WIGHTMAN_PLUS: ((1.0, 0.0),) * 2,
    KernelKind.WIGHTMAN_MINUS: ((0.0, 1.0),) * 2,
    KernelKind.COMMUTATOR: ((1.0, 1.0),) * 2,
    KernelKind.HADAMARD: ((0.5, -0.5),) * 2,
    KernelKind.RETARDED: ((1.0, 1.0), (0.0, 0.0)),
    KernelKind.ADVANCED: ((0.0, 0.0), (-1.0, -1.0)),
    KernelKind.TIME_SYMMETRIC: ((0.5, 0.5), (-0.5, -0.5)),
    KernelKind.FEYNMAN: ((1.0, 0.0), (0.0, -1.0)),
}

#: The kinds with a step factor: their two weight pairs differ, so they
#: reject t = 0 unless its continuous value is requested.
STEP_FUNCTION_KINDS = frozenset(
    kind for kind, (later, earlier) in _COEFFICIENTS.items() if later != earlier
)


def wightman_weights(kind: KernelKind):
    """The kind's (D+, D-) weights for t >= 0 and for t < 0, as
    kernel_values combines them."""
    return _COEFFICIENTS[kind]


def kernel_values(
    momenta: np.ndarray,
    frequencies: np.ndarray,
    box_length: float,
    kind: KernelKind | tuple[KernelKind, ...],
    t: np.ndarray,
    x: np.ndarray,
    step_at_zero: bool = False,
) -> np.ndarray | tuple[np.ndarray, ...]:
    """Evaluate one kernel, or each kernel of a tuple of kinds, on
    broadcastable arrays of (t, x), without validation of the points or
    reduction of x (eval_kernel_grid does both).

    One pass for any number of kinds: D+ is summed once, at every point
    of the broadcast shape, and D- is read there as -conj(D+).  Each kind
    adds its two (D+, D-) weight pairs, one per region t >= 0 and t < 0,
    to a zero start, so a region whose weights vanish reads +0.0 in both
    parts, and each kind of a tuple reads the bits of a call of its own.
    A single kind returns its array; a tuple of kinds returns one array
    per kind, in order.  D- = -conj(D+) and the folding of +-k partner
    modes need a mirror-ordered grid (momenta == -momenta[::-1],
    frequencies == frequencies[::-1]), which is checked here, as is
    every kind.  With ``step_at_zero`` the step-function kinds take their
    continuous t = 0 value, as the absorber double sums do on their
    equal-time pairs; without it they reject t = 0.
    """
    kinds = kind if isinstance(kind, tuple) else (kind,)
    for each in kinds:
        if not isinstance(each, KernelKind):
            raise ValidationError(f"kind must be a KernelKind member, got {each!r}")
    if not (
        np.array_equal(momenta, -momenta[::-1]) and np.array_equal(frequencies, frequencies[::-1])
    ):
        raise ValidationError(
            "lattice momenta must be negation-closed and mirror-ordered "
            "(momenta == -momenta[::-1], with mirrored frequencies)"
        )
    t, x = np.asarray(t, dtype=float), np.asarray(x, dtype=float)
    shape = np.broadcast_shapes(t.shape, x.shape)
    regions = [np.broadcast_to(mask, shape) for mask in (t >= 0.0, t < 0.0)]
    steps = [each for each in kinds if each in STEP_FUNCTION_KINDS]
    if steps and not step_at_zero and np.any(np.broadcast_to(t == 0.0, shape)):
        raise ValidationError(f"t must be nonzero for step-function kernel kind {steps[0].value!r}")
    dplus = _dplus(momenta, frequencies, box_length, t, x)
    dminus = -np.conj(dplus)
    values = []
    for each in kinds:
        out = np.zeros(shape, dtype=complex)
        for mask, (w_plus, w_minus) in zip(regions, _COEFFICIENTS[each]):
            # The zero start turns every signed zero of the sum into +0.0.
            out[mask] = (0.0 + w_plus * dplus[mask]) + w_minus * dminus[mask]
        values.append(out)
    return tuple(values) if isinstance(kind, tuple) else values[0]


def eval_kernel_grid(
    lattice: Lattice, kind: KernelKind | tuple[KernelKind, ...], ts, xs, step_at_zero: bool = False
) -> np.ndarray | tuple[np.ndarray, ...]:
    """Evaluate a kernel, or each kernel of a tuple of kinds on one D+
    sum (see kernel_values), at broadcastable arrays of times and
    positions.

    The validating entry to the kernel core: rejects non-finite times or
    positions (nan would fall into neither of the t >= 0 and t < 0
    weight regions and read 0), times whose phase |t| * max w overflows
    (the sums would read nan) and, through kernel_values, a kind that is
    not a KernelKind, momentum grids that are not mirror-ordered and, for
    the step-function kinds, t = 0 unless ``step_at_zero``.  Positions
    are reduced into [0, L) first.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    # |t| * max w as a Python float product is inf or nan, with no warning,
    # for a nan or inf t and for a finite t whose phase overflows, so one
    # reduction screens every t.
    top = float(lattice.frequencies.max())
    if not math.isfinite(float(np.abs(ts).max(initial=0.0)) * top):
        bad = ~np.isfinite(ts)
        if bad.any():
            raise ValidationError(f"t must be finite, got {ts[bad][0]}")
        raise ValidationError(
            f"t={float(ts.flat[np.argmax(np.abs(ts))])!r} overflows the mode phases: "
            f"|t| * max frequency {top!r} is not finite"
        )
    bad = ~np.isfinite(xs)
    if bad.any():
        raise ValidationError(f"x must be finite, got {xs[bad][0]}")
    L = lattice.spec.box_length
    xs = canonical_x(xs, L)
    return kernel_values(lattice.momenta, lattice.frequencies, L, kind, ts, xs, step_at_zero)


def eval_kernel(lattice: Lattice, kind: KernelKind, t: float, x: float) -> complex:
    """Evaluate one kernel at one point difference (t, x) (see eval_kernel_grid)."""
    return complex(eval_kernel_grid(lattice, kind, t, x)[0])


def verify_decomposition(lattice: Lattice, t, x) -> float:
    """Max residual of  Feynman = TimeSymmetric + (D+ - D-)/2  over the
    point differences (t, x).

    All four kinds are combinations of the same D+ and D- sums (see
    ``_COEFFICIENTS``) and come from one eval_kernel_grid call, one D+
    sum, so the residual tests the coefficient table and the step masks
    (it reads 0.0 at the defaults); it is not an independent route to the
    kernels.  Check 03 (the Fock-space vacuum expectation) and the
    50-digit D+ oracle are.  At t = 0 the step-function kinds read their
    continuous value, where Feynman is the Hadamard value and
    TimeSymmetric vanishes.
    """
    f, dbar, dp, dm = eval_kernel_grid(
        lattice,
        (KernelKind.FEYNMAN, KernelKind.TIME_SYMMETRIC,
         KernelKind.WIGHTMAN_PLUS, KernelKind.WIGHTMAN_MINUS),
        t,
        x,
        step_at_zero=True,
    )
    return float(np.max(np.abs(f - dbar - 0.5 * (dp - dm)), initial=0.0))


def verify_antisymmetry(lattice: Lattice, t, x) -> float:
    """Max over the point differences (t, x) of |D+(t, x) + D-(-t, -x)|.

    The two sums cancel mode against negated partner mode, so the grid
    must be negation-closed; kernel_values enforces that.  It reads D- as
    -conj(D+), so the residual tests D+(t, x) = conj(D+(-t, -x)) with x
    and -x reduced into [0, L) apart; check 01b tests the D- read
    itself against a direct sum.
    """
    t, x = np.asarray(t, dtype=float), np.asarray(x, dtype=float)
    dp = eval_kernel_grid(lattice, KernelKind.WIGHTMAN_PLUS, t, x)
    dm = eval_kernel_grid(lattice, KernelKind.WIGHTMAN_MINUS, -t, -x)
    return float(np.max(np.abs(dp + dm), initial=0.0))


# The benchmark's per-layer tracer (perfbench/tracer.py) looks these two
# frequency-plane integrals up on this module.  They live in
# boxqft.frequency, which the lookup loads on first use, not at start-up.
_MOVED_TO_FREQUENCY = frozenset({"frequency_integral_feynman", "verify_frequency_split"})


def __getattr__(name: str):
    if name in _MOVED_TO_FREQUENCY:
        from boxqft import frequency

        return getattr(frequency, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
