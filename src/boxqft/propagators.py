"""Scalar two-point kernels as exact discrete mode sums, plus their
frequency-plane representation.

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
  which is what frequency_integral_feynman evaluates.  Under these
  conventions the Commutator kernel is purely imaginary and the Hadamard
  kernel is purely real, and DF equals the time-ordered vacuum two-point
  function computed in the Fock module with no extra prefactor.
* Step-function kinds are undefined at t = 0 and are rejected there
  unless the continuous extension is requested (``step_at_zero``).

Evaluation path.  Every kind is one entry of a coefficient table
(``_COEFFICIENTS``): the weights of D+ and D- for t > 0, for t < 0 and
for the t = 0 extension, e.g. Feynman is (1, 0), (0, -1), (1/2, -1/2).
kernel_values sums D+ and D- at most once per call, each only at the
points where its weight is nonzero, and combines them by the table.
eval_kernel_grid is the one validating entry (kind, negation closure,
reduction of x into [0, L)); eval_kernel, the verify_* routines and the
CLI go through it.  Mode sums are accumulated pairwise over +-k partner
modes (ends-inward pairing of the sorted grid) to keep cancellation
error near machine precision.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.special import sici

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


@dataclass(frozen=True)
class SpacetimePoint:
    """A time plus a spatial coordinate stored in the canonical range [0, L).

    Construct through :func:`make_point` (or :func:`separation`) so the
    reduction happens exactly once; storing the canonical representative
    makes spatial periodicity of the kernels exact rather than approximate.
    """

    t: float
    x: float


def canonical_x(x, box_length: float):
    """Reduce x (a scalar or an array) into [0, L).  Uses fmod-based modulo
    so that the reduced values of x and -x sum to exactly L (needed for
    exact antisymmetry)."""
    r = np.mod(x, box_length)
    # np.mod returns L itself when x is a tiny negative number
    return r - box_length * (r >= box_length)


def make_point(t: float, x: float, box_length: float) -> SpacetimePoint:
    if not box_length > 0:
        raise ValidationError(f"box_length must be positive, got {box_length}")
    return SpacetimePoint(t=float(t), x=float(canonical_x(float(x), box_length)))


def separation(a: SpacetimePoint, b: SpacetimePoint, box_length: float) -> SpacetimePoint:
    """The difference a - b with the spatial part reduced into [0, L)."""
    return make_point(a.t - b.t, a.x - b.x, box_length)


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
    antisymmetry identities rely on exact partner cancellation) and, for
    the step-function kinds, t = 0 unless ``step_at_zero``.  Positions
    are reduced into [0, L) first.
    """
    if not isinstance(kind, KernelKind):
        raise ValidationError(f"kind must be a KernelKind member, got {kind!r}")
    if not is_negation_closed(lattice.momenta):
        raise ValidationError("lattice momenta must be negation-closed (edge mode excluded)")
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    for name, values in (("t", ts), ("x", xs)):
        bad = ~np.isfinite(values)
        if bad.any():
            raise ValidationError(f"{name} must be finite, got {values[bad][0]}")
    L = lattice.spec.box_length
    xs = canonical_x(xs, L)
    return kernel_values(lattice.momenta, lattice.frequencies, L, kind, ts, xs, step_at_zero)


def eval_kernel(lattice: Lattice, kind: KernelKind, point: SpacetimePoint) -> complex:
    """Evaluate one kernel at one spacetime separation (see eval_kernel_grid)."""
    return complex(eval_kernel_grid(lattice, kind, point.t, point.x)[0])


def verify_decomposition(lattice: Lattice, points: list[SpacetimePoint]) -> float:
    """Max residual of  Feynman = TimeSymmetric + (D+ - D-)/2  over points.

    All four kinds are combinations of the same D+ and D- sums (see
    ``_COEFFICIENTS``), so the residual tests the coefficient table and
    the step masks (it reads 0.0 at the defaults); it is not an
    independent route to the kernels.  Check 03 (the Fock-space vacuum
    expectation) and the 50-digit D+ oracle are.  Points must avoid
    t = 0 (step-function kinds).
    """
    ts = np.array([p.t for p in points], dtype=float)
    xs = np.array([p.x for p in points], dtype=float)

    def k(kind):
        return eval_kernel_grid(lattice, kind, ts, xs)

    f, dbar = k(KernelKind.FEYNMAN), k(KernelKind.TIME_SYMMETRIC)
    dp, dm = k(KernelKind.WIGHTMAN_PLUS), k(KernelKind.WIGHTMAN_MINUS)
    return float(np.max(np.abs(f - dbar - 0.5 * (dp - dm)), initial=0.0))


def verify_antisymmetry(
    lattice: Lattice, pairs: list[tuple[SpacetimePoint, SpacetimePoint]]
) -> float:
    """Max over pairs (a, b) of |D+(a-b) + D-(b-a)|.

    The two sums cancel mode against negated partner mode, so the grid
    must be negation-closed; eval_kernel_grid enforces that.
    """
    dt = np.array([a.t - b.t for a, b in pairs], dtype=float)
    dx = np.array([a.x - b.x for a, b in pairs], dtype=float)
    dp = eval_kernel_grid(lattice, KernelKind.WIGHTMAN_PLUS, dt, dx)
    dm = eval_kernel_grid(lattice, KernelKind.WIGHTMAN_MINUS, -dt, -dx)
    return float(np.max(np.abs(dp + dm), initial=0.0))


# ---------------------------------------------------------------------------
# Frequency-plane representation of the per-mode Feynman kernel.


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested absolute tolerance."""


@dataclass(frozen=True)
class FrequencyIntegralSpec:
    """Parameters of the regulated per-mode frequency integral.

    mode_frequency   -- omega > 0 of the mode under study
    time             -- evaluation time t (any sign)
    epsilon          -- pole displacement eps > 0
    frequency_cutoff -- window half-width Omega, required > 10 * omega
    abs_tol          -- absolute tolerance demanded of the quadrature
    """

    mode_frequency: float
    time: float
    epsilon: float = 1e-6
    frequency_cutoff: float = 200.0
    abs_tol: float = 1e-6

    def validate(self) -> None:
        if not self.mode_frequency > 0:
            raise ValidationError(f"mode_frequency must be positive, got {self.mode_frequency}")
        if not self.epsilon > 0:
            raise ValidationError(f"epsilon must be positive, got {self.epsilon}")
        if not self.frequency_cutoff > 10.0 * self.mode_frequency:
            raise ValidationError(
                "frequency_cutoff must exceed 10 * mode_frequency, got "
                f"{self.frequency_cutoff} for omega {self.mode_frequency}"
            )
        if not self.abs_tol > 0:
            raise ValidationError(f"abs_tol must be positive, got {self.abs_tol}")


def _quad_segment(fn, a: float, b: float) -> complex:
    """Adaptive quadrature of a complex integrand over [a, b], no checking.

    QUADPACK's own error estimate saturates on the eps-narrow pole kinks
    even when the returned value is converged, so callers validate by
    comparing two structurally different segmentations instead.
    """
    kw = dict(limit=800, epsabs=1e-10, epsrel=1e-9)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        re = quad(lambda v: fn(v).real, a, b, **kw)[0]
        im = quad(lambda v: fn(v).imag, a, b, **kw)[0]
    return re + 1j * im


def _dual_quad(fn, a: float, b: float, abs_tol: float, interior: list[float]) -> complex:
    """Evaluate int_a^b fn with break points (pole locations) as segment
    edges, twice: on the coarse segmentation and on its midpoint
    refinement.  Disagreement beyond abs_tol raises QuadratureError;
    returns the refined value."""
    cuts = [a] + sorted(p for p in interior if a < p < b) + [b]
    v1 = sum(_quad_segment(fn, lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:]))
    refined = sorted(set(cuts) | {0.5 * (lo + hi) for lo, hi in zip(cuts[:-1], cuts[1:])})
    v2 = sum(_quad_segment(fn, lo, hi) for lo, hi in zip(refined[:-1], refined[1:]))
    if abs(v1 - v2) > abs_tol:
        raise QuadratureError(
            f"independent quadrature evaluations disagree by {abs(v1 - v2):.3e} "
            f"(abs_tol {abs_tol:.3e})"
        )
    return v2


def _tail_completion(w: float, t: float, cutoff: float) -> complex:
    """Analytic value of (1/2pi) int_{|nu|>Omega} exp(-i nu t)/(nu^2-w^2) * i dnu.

    The pole displacement is dropped in the tail (error O(eps/Omega^3)).
    The combination reduces to (i/pi) int_Omega^inf cos(nu t)/(nu^2-w^2),
    expressed through Si/Ci; without it the plain truncated integral
    carries an irreducible -i/(pi*Omega) style bias that dominates at
    small |t|.
    """
    tau = abs(t)
    if tau == 0.0:
        c = np.log((cutoff + w) / (cutoff - w)) / (2.0 * w)
    else:
        si_p, ci_p = sici((cutoff + w) * tau)
        si_m, ci_m = sici((cutoff - w) * tau)
        c = (np.cos(w * tau) * (ci_p - ci_m) - np.sin(w * tau) * (np.pi - si_m - si_p)) / (2.0 * w)
    return 1j * c / np.pi


def frequency_integral_feynman(spec: FrequencyIntegralSpec, include_tail: bool = True) -> complex:
    """(1/2pi) int_{-Omega}^{Omega} dnu exp(-i nu t) * i/(nu^2 - omega^2 + i eps),
    completed by the analytic |nu| > Omega remainder when ``include_tail``.

    As eps -> 0 and Omega -> infinity the value converges to
    exp(-i omega |t|)/(2 omega), the per-mode Feynman kernel.  The sharp
    pole pair is handled by subtracting a linear-in-nu interpolant through
    the two on-shell points (whose integral is known in closed form) and
    integrating the remaining bounded function adaptively.
    """
    spec.validate()
    w = spec.mode_frequency
    t = spec.time
    eps = spec.epsilon
    cutoff = spec.frequency_cutoff

    pole = np.sqrt(complex(w * w, -eps))  # displaced pole, Im < 0
    sin_coeff = -1j * np.sin(w * t) / w
    cos_coeff = np.cos(w * t)

    def full(nu: float) -> complex:
        return np.exp(-1j * nu * t) * 1j / (nu * nu - w * w + 1j * eps)

    def smooth(nu: float) -> complex:
        # exp(-i nu t) minus the interpolant matching it at nu = +-omega;
        # the ratio stays bounded through both displaced poles
        num = np.exp(-1j * nu * t) - (sin_coeff * nu + cos_coeff)
        return num * 1j / (nu * nu - w * w + 1j * eps)

    # Subtract the pole interpolant only inside a central window; outside
    # it the raw integrand is smooth and the interpolant would grow.
    a = min(2.0 * w + 1.0, 0.5 * cutoff)
    body = _dual_quad(smooth, -a, a, spec.abs_tol, interior=[-w, 0.0, w])
    body += _dual_quad(full, -cutoff, -a, spec.abs_tol, interior=[-0.5 * (cutoff + a)])
    body += _dual_quad(full, a, cutoff, spec.abs_tol, interior=[0.5 * (cutoff + a)])
    # int dnu/(nu^2 - w^2 + i eps) over [-a, a]; the contour keeps a fixed
    # distance eps/(2 w) from the displaced poles so principal logs apply.
    log_part = (
        np.log(a - pole) - np.log(-a - pole) - np.log(a + pole) + np.log(-a + pole)
    ) * (1j / (2.0 * pole))
    # the nu-linear piece of the interpolant integrates to zero by symmetry
    total = (body + cos_coeff * log_part) / (2.0 * np.pi)
    if include_tail:
        total = total + _tail_completion(w, t, cutoff)
    return complex(total)


def verify_frequency_split(
    spec: FrequencyIntegralSpec, window: float = 1e-3
) -> tuple[complex, complex, float]:
    """Split the regulated integral into principal-part plus on-shell terms.

    The principal part excludes symmetric windows around nu = +-omega from
    the eps-free integrand (with the same analytic tail completion); a
    two-point Richardson step over window sizes {w, w/2} removes the
    leading linear-in-window truncation.  The on-shell term is evaluated
    from the residue prescription:  delta(nu^2 - w^2) splits into poles at
    +-omega with weight 1/(2 omega) each, giving cos(omega t)/(2 omega)
    under these conventions.  Returns (pp_part, delta_part, residual)
    where residual compares pp + delta against the full integral.
    """
    spec.validate()
    if not window > 0:
        raise ValidationError(f"window must be positive, got {window}")
    w = spec.mode_frequency
    t = spec.time
    cutoff = spec.frequency_cutoff
    if window >= w or w + window >= cutoff:
        raise ValidationError(f"window {window} incompatible with omega {w} and cutoff {cutoff}")

    def bare(nu: float) -> complex:
        return np.exp(-1j * nu * t) * 1j / (nu * nu - w * w)

    def pp_at(win: float) -> complex:
        segments = [
            (-cutoff, -w - win),
            (-w + win, w - win),
            (w + win, cutoff),
        ]
        acc = 0.0 + 0.0j
        for a, b in segments:
            acc += _dual_quad(bare, a, b, spec.abs_tol, interior=[0.5 * (a + b)])
        return acc / (2.0 * np.pi)

    pp = 2.0 * pp_at(window / 2.0) - pp_at(window) + _tail_completion(w, t, cutoff)
    delta_part = complex(np.cos(w * t) / (2.0 * w))
    full = frequency_integral_feynman(spec)
    residual = abs(pp + delta_part - full)
    return complex(pp), delta_part, residual
