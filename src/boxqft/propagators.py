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

* D- is evaluated with the same +i k_n x spatial phase as D+.  On a
  negation-closed grid this equals the relabelled form
  -(1/L) sum exp(+i(w t - k x))/(2 w) term for term under k -> -k, and it
  makes the equal-time cancellation D+(0,x) + D-(0,x) = 0 hold termwise.
  On a grid that is *not* closed under negation the two forms differ,
  which is exactly why eval_kernel_grid rejects such grids.
* The factor i customary in front of the Feynman momentum-space kernel is
  absorbed into the kernels themselves: per mode,
  DF = (1/2pi) int dnu exp(-i nu t) * i/(nu^2 - w^2 + i eps) -> exp(-i w |t|)/(2 w),
  which is what boxqft.frequency evaluates.  Under these conventions the
  Commutator kernel is purely imaginary and the Hadamard kernel is purely
  real, and DF equals the time-ordered vacuum two-point function computed
  in the Fock module with no extra prefactor.
* Step-function kinds are undefined at t = 0 and are rejected there
  unless the continuous extension is requested (``step_at_zero``).

Evaluation path.  Every kind is one entry of a coefficient table
(``_COEFFICIENTS``): the weights of D+ and D- for t > 0, for t < 0 and
for the t = 0 extension, e.g. Feynman is (1, 0), (0, -1), (1/2, -1/2).
kernel_values sums D+ and D- at most once per call, each only at the
points where its weight is nonzero, and combines them by the table.
Kernels are functions of the point difference (t, x) = (t_a - t_b,
x_a - x_b), given as plain float arrays of times and positions; there is
no point type.  eval_kernel_grid is the one validating entry (kind,
negation closure, finite times whose phases do not overflow, reduction
of x into [0, L)); eval_kernel (one difference), the verify_* routines
(arrays of differences) and the CLI go through it.  Mode sums are
accumulated pairwise over +-k partner modes (ends-inward pairing of the
sorted grid) to keep cancellation error near machine precision.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from boxqft.lattice import Lattice, ValidationError, is_negation_closed


class KernelKind(enum.Enum):
    WIGHTMAN_PLUS = "dplus"
    WIGHTMAN_MINUS = "dminus"
    COMMUTATOR = "commutator"
    HADAMARD = "hadamard"
    RETARDED = "retarded"
    ADVANCED = "advanced"
    TIME_SYMMETRIC = "dbar"
    FEYNMAN = "feynman"


STEP_FUNCTION_KINDS = frozenset(
    {KernelKind.RETARDED, KernelKind.ADVANCED, KernelKind.TIME_SYMMETRIC, KernelKind.FEYNMAN}
)


def canonical_x(x, box_length: float):
    """Reduce x (a scalar or an array) into [0, L).  Uses fmod-based modulo
    so that the reduced values of x and -x sum to exactly L (needed for
    exact antisymmetry)."""
    r = np.mod(x, box_length)
    # np.mod returns L itself when x is a tiny negative number
    return r - box_length * (r >= box_length)


def _paired_sum(terms: np.ndarray) -> np.ndarray:
    """Sum the last axis by adding ends-inward pairs first.

    On a sorted negation-closed grid, terms[..., i] and terms[..., -1-i]
    belong to partner modes +-k, so their near-cancelling or reinforcing
    combinations are formed before the running sum.
    """
    n = terms.shape[-1]
    h = n // 2
    if h == 0:
        return terms[..., 0]
    paired = terms[..., :h] + terms[..., : n - h - 1 : -1]
    total = np.sum(paired, axis=-1)
    if n % 2:
        total = total + terms[..., h]
    return total


def _wightman(momenta, frequencies, box_length, sign, t, x):
    """D+ for sign +1 and D- for sign -1 at the paired 1-D points (t, x):
    sign (1/L) sum exp(-i sign (w t - sign k x)) / (2 w)."""
    phases = np.exp(
        (-1j * sign) * (np.multiply.outer(t, frequencies) - np.multiply.outer(sign * x, momenta))
    )
    return _paired_sum(phases / (2.0 * frequencies)) / (sign * box_length)


# Per kind, the (D+, D-) weights for t > 0, for t < 0 and for the
# continuous t = 0 extension, which a step kind takes only on request
# (step_at_zero): the equal-time Commutator vanishes, so Retarded,
# Advanced and TimeSymmetric go to 0, and Feynman goes to the Hadamard
# value.
_COEFFICIENTS = {
    KernelKind.WIGHTMAN_PLUS: ((1.0, 0.0),) * 3,
    KernelKind.WIGHTMAN_MINUS: ((0.0, 1.0),) * 3,
    KernelKind.COMMUTATOR: ((1.0, 1.0),) * 3,
    KernelKind.HADAMARD: ((0.5, -0.5),) * 3,
    KernelKind.RETARDED: ((1.0, 1.0), (0.0, 0.0), (0.0, 0.0)),
    KernelKind.ADVANCED: ((0.0, 0.0), (-1.0, -1.0), (0.0, 0.0)),
    KernelKind.TIME_SYMMETRIC: ((0.5, 0.5), (-0.5, -0.5), (0.0, 0.0)),
    KernelKind.FEYNMAN: ((1.0, 0.0), (0.0, -1.0), (0.5, -0.5)),
}


def wightman_weights(kind: KernelKind):
    """The kind's (D+, D-) weights for t > 0, for t < 0 and for the
    continuous t = 0 extension, as kernel_values combines them."""
    return _COEFFICIENTS[kind]


def kernel_values(
    momenta: np.ndarray,
    frequencies: np.ndarray,
    box_length: float,
    kind: KernelKind,
    t: np.ndarray,
    x: np.ndarray,
    step_at_zero: bool = False,
) -> np.ndarray:
    """Evaluate a kernel on broadcastable arrays of (t, x), without grid
    validation or reduction of x (eval_kernel_grid does both).

    One pass: D+ and D- are each summed at most once, and only at the
    points where the kind's coefficient table gives them a nonzero
    weight.  With ``step_at_zero`` the step-function kinds take their
    continuous t = 0 extension (see ``_COEFFICIENTS``), which the
    absorber double sums use on their equal-time pairs; without it they
    reject t = 0.
    """
    t, x = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(x, dtype=float))
    regions = (t > 0.0, t < 0.0, t == 0.0)
    if kind in STEP_FUNCTION_KINDS and not step_at_zero and np.any(regions[2]):
        raise ValidationError(f"t must be nonzero for step-function kernel kind {kind.value!r}")
    rows = _COEFFICIENTS[kind]
    out = np.zeros(t.shape, dtype=complex)
    for column, sign in enumerate((1.0, -1.0)):
        weights = np.zeros(t.shape)
        for mask, row in zip(regions, rows):
            weights[mask] = row[column]
        need = weights != 0.0
        if need.any():
            out[need] += weights[need] * _wightman(
                momenta, frequencies, box_length, sign, t[need], x[need]
            )
    return out


def eval_kernel_grid(lattice: Lattice, kind: KernelKind, ts, xs, step_at_zero: bool = False) -> np.ndarray:
    """Evaluate a kernel at broadcastable arrays of times and positions.

    The validating entry to the kernel core: rejects a kind that is not a
    KernelKind, non-finite times or positions (nan would fall into none
    of the t > 0, t < 0, t = 0 weight regions and read 0), momentum grids
    that are not closed under k -> -k (the kernels' parity and
    antisymmetry identities rely on exact partner cancellation), times
    whose phase |t| * max w overflows (the sums would read nan) and, for
    the step-function kinds, t = 0 unless ``step_at_zero``.  Positions
    are reduced into [0, L) first.
    """
    if not isinstance(kind, KernelKind):
        raise ValidationError(f"kind must be a KernelKind member, got {kind!r}")
    if not is_negation_closed(lattice.momenta):
        raise ValidationError("lattice momenta must be negation-closed (edge mode excluded)")
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
            f"t={float(ts[np.argmax(np.abs(ts))])!r} overflows the mode phases: "
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
    ``_COEFFICIENTS``), so the residual tests the coefficient table and
    the step masks (it reads 0.0 at the defaults); it is not an
    independent route to the kernels.  Check 03 (the Fock-space vacuum
    expectation) and the 50-digit D+ oracle are.  Times must avoid
    t = 0 (step-function kinds).
    """

    def k(kind):
        return eval_kernel_grid(lattice, kind, t, x)

    f, dbar = k(KernelKind.FEYNMAN), k(KernelKind.TIME_SYMMETRIC)
    dp, dm = k(KernelKind.WIGHTMAN_PLUS), k(KernelKind.WIGHTMAN_MINUS)
    return float(np.max(np.abs(f - dbar - 0.5 * (dp - dm)), initial=0.0))


def verify_antisymmetry(lattice: Lattice, t, x) -> float:
    """Max over the point differences (t, x) of |D+(t, x) + D-(-t, -x)|.

    The two sums cancel mode against negated partner mode, so the grid
    must be negation-closed; eval_kernel_grid enforces that.
    """
    t, x = np.asarray(t, dtype=float), np.asarray(x, dtype=float)
    dp = eval_kernel_grid(lattice, KernelKind.WIGHTMAN_PLUS, t, x)
    dm = eval_kernel_grid(lattice, KernelKind.WIGHTMAN_MINUS, -t, -x)
    return float(np.max(np.abs(dp + dm), initial=0.0))


# The benchmark's per-layer tracer (perfbench/tracer.py) looks these two
# frequency-plane integrals up on this module.  They live in
# boxqft.frequency, which loads scipy, so the lookup loads it on first use.
_MOVED_TO_FREQUENCY = frozenset({"frequency_integral_feynman", "verify_frequency_split"})


def __getattr__(name: str):
    if name in _MOVED_TO_FREQUENCY:
        from boxqft import frequency

        return getattr(frequency, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
