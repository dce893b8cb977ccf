"""Frequency-plane representation of the per-mode Feynman kernel.

Under the conventions of :mod:`boxqft.propagators` the per-mode Feynman
kernel exp(-i w |t|)/(2 w) is the regulated frequency integral

    (1/2pi) int dnu exp(-i nu t) * i/(nu^2 - w^2 + i eps).

:func:`frequency_integral_feynman` evaluates it on a window
[-Omega, Omega] completed by the analytic |nu| > Omega remainder, and
:func:`verify_frequency_split` reassembles it from an eps-free principal
part plus the on-shell delta term (checks 08a and 08b).

Quadrature.  Each piece of either integral is an integrand over an
interval with interior cuts at its pole locations (see
:func:`quadrature_pieces`).  :func:`_dual_quad` integrates it twice, on
the cut segmentation and on its midpoint refinement, and raises
:class:`QuadratureError` when the two disagree by more than ``abs_tol``.
Every segment takes one fixed composite Gauss-Legendre rule
(:func:`_quad_segment`), evaluating the integrand once on all its nodes
as a numpy array: 16 nodes per panel on 64 uniform panels, of which the
two end panels are graded geometrically over 30 halvings toward the
segment ends, where the eps-narrow pole structure and the window edges
sit.  Uniform panels alone leave the two segmentations 0.1-0.3 apart.
QUADPACK is the rule's oracle in check 08c (:mod:`boxqft.suite`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import sici

from .lattice import QuadratureError, ValidationError

__all__ = [
    "FrequencyIntegralSpec",
    "QuadratureError",
    "frequency_integral_feynman",
    "quadrature_pieces",
    "segmentations",
    "verify_frequency_split",
]


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


def _half_segment_rule(nodes: int = 16, levels: int = 30, panels: int = 64):
    """Nodes s in (0, 1/2) and weights of the composite Gauss-Legendre rule
    for int_0^{1/2} ds: ``panels // 2`` uniform panels of width
    u = 1/panels, the first of them split at u/2, u/4, ..., u/2^levels."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    u = 1.0 / panels
    edges = np.concatenate(
        ([0.0], u * 0.5 ** np.arange(levels, 0, -1), u * np.arange(1, panels // 2 + 1))
    )
    lo, width = edges[:-1, None], np.diff(edges)[:, None]
    return (lo + 0.5 * width * (x + 1.0)).ravel(), (0.5 * width * w).ravel()


_RULE_NODES, _RULE_WEIGHTS = _half_segment_rule()


def _quad_segment(fn, a: float, b: float) -> complex:
    """Composite Gauss-Legendre quadrature of a complex integrand over
    [a, b], no checking.

    ``fn`` takes an array of nodes.  The half of the rule graded toward a
    is placed from a, the mirrored half from b, so the nodes closest to
    either end keep their full relative precision.  Warnings the integrand
    raises reach the caller.
    """
    length = b - a
    values = fn(np.concatenate((a + length * _RULE_NODES, b - length * _RULE_NODES)))
    half = _RULE_NODES.size
    return complex(length * np.sum(_RULE_WEIGHTS * (values[:half] + values[half:])))


def segmentations(a: float, b: float, interior) -> tuple[list[float], list[float]]:
    """The two segmentations _dual_quad compares: [a, b] cut at the interior
    points inside it, and that cut's midpoint refinement."""
    cuts = [a] + sorted(p for p in interior if a < p < b) + [b]
    refined = sorted(set(cuts) | {0.5 * (lo + hi) for lo, hi in zip(cuts[:-1], cuts[1:])})
    return cuts, refined


def _dual_quad(fn, a: float, b: float, abs_tol: float, interior: list[float]) -> complex:
    """Evaluate int_a^b fn with break points (pole locations) as segment
    edges, twice: on the coarse segmentation and on its midpoint
    refinement.  Disagreement beyond abs_tol raises QuadratureError;
    returns the refined value."""
    v1, v2 = (
        sum(_quad_segment(fn, lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:]))
        for cuts in segmentations(a, b, interior)
    )
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


def _feynman_pieces(spec: FrequencyIntegralSpec):
    """The quadrature pieces (integrand, a, b, interior cuts) of the
    regulated integral over [-Omega, Omega], and the closed-form integral
    of the pole interpolant subtracted from its central piece [-a, a].

    The interpolant is subtracted only inside that window: outside it the
    raw integrand is smooth and the interpolant would grow.
    """
    w = spec.mode_frequency
    t = spec.time
    eps = spec.epsilon
    cutoff = spec.frequency_cutoff

    pole = np.sqrt(complex(w * w, -eps))  # displaced pole, Im < 0
    sin_coeff = -1j * np.sin(w * t) / w
    cos_coeff = np.cos(w * t)

    def full(nu):
        return np.exp(-1j * nu * t) * 1j / (nu * nu - w * w + 1j * eps)

    def smooth(nu):
        # exp(-i nu t) minus the interpolant matching it at nu = +-omega;
        # the ratio stays bounded through both displaced poles
        num = np.exp(-1j * nu * t) - (sin_coeff * nu + cos_coeff)
        return num * 1j / (nu * nu - w * w + 1j * eps)

    a = min(2.0 * w + 1.0, 0.5 * cutoff)
    pieces = [
        (smooth, -a, a, [-w, 0.0, w]),
        (full, -cutoff, -a, [-0.5 * (cutoff + a)]),
        (full, a, cutoff, [0.5 * (cutoff + a)]),
    ]
    # int dnu/(nu^2 - w^2 + i eps) over [-a, a]; the contour keeps a fixed
    # distance eps/(2 w) from the displaced poles so principal logs apply.
    log_part = (
        np.log(a - pole) - np.log(-a - pole) - np.log(a + pole) + np.log(-a + pole)
    ) * (1j / (2.0 * pole))
    # the nu-linear piece of the interpolant integrates to zero by symmetry
    return pieces, cos_coeff * log_part


def _principal_pieces(spec: FrequencyIntegralSpec, window: float):
    """The quadrature pieces of the eps-free principal part over
    [-Omega, Omega] with windows of half-width ``window`` cut out around
    nu = +-omega."""
    w = spec.mode_frequency
    t = spec.time
    cutoff = spec.frequency_cutoff

    def bare(nu):
        return np.exp(-1j * nu * t) * 1j / (nu * nu - w * w)

    segments = [(-cutoff, -w - window), (-w + window, w - window), (w + window, cutoff)]
    return [(bare, a, b, [0.5 * (a + b)]) for a, b in segments]


def quadrature_pieces(spec: FrequencyIntegralSpec, window: float):
    """Every piece (integrand, a, b, interior cuts) that
    frequency_integral_feynman and verify_frequency_split(spec, window)
    hand to the dual quadrature: the regulated integral's, then the
    principal part's at window and at window/2."""
    return (
        _feynman_pieces(spec)[0]
        + _principal_pieces(spec, window)
        + _principal_pieces(spec, window / 2.0)
    )


def frequency_integral_feynman(spec: FrequencyIntegralSpec, include_tail: bool = True) -> complex:
    """(1/2pi) int_{-Omega}^{Omega} dnu exp(-i nu t) * i/(nu^2 - omega^2 + i eps),
    completed by the analytic |nu| > Omega remainder when ``include_tail``.

    As eps -> 0 and Omega -> infinity the value converges to
    exp(-i omega |t|)/(2 omega), the per-mode Feynman kernel.  The sharp
    pole pair is handled by subtracting a linear-in-nu interpolant through
    the two on-shell points (whose integral is known in closed form) and
    integrating the remaining bounded function (see ``_feynman_pieces``).
    """
    spec.validate()
    pieces, closed_form = _feynman_pieces(spec)
    body = sum(_dual_quad(fn, a, b, spec.abs_tol, cuts) for fn, a, b, cuts in pieces)
    total = (body + closed_form) / (2.0 * np.pi)
    if include_tail:
        total = total + _tail_completion(spec.mode_frequency, spec.time, spec.frequency_cutoff)
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

    def pp_at(win: float) -> complex:
        acc = 0.0 + 0.0j
        for fn, a, b, cuts in _principal_pieces(spec, win):
            acc += _dual_quad(fn, a, b, spec.abs_tol, cuts)
        return acc / (2.0 * np.pi)

    pp = 2.0 * pp_at(window / 2.0) - pp_at(window) + _tail_completion(w, t, cutoff)
    delta_part = complex(np.cos(w * t) / (2.0 * w))
    full = frequency_integral_feynman(spec)
    residual = abs(pp + delta_part - full)
    return complex(pp), delta_part, residual
