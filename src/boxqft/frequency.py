"""Frequency-plane representation of the per-mode Feynman kernel.

Under the conventions of :mod:`boxqft.propagators` the per-mode Feynman
kernel exp(-i w |t|)/(2 w) is the regulated frequency integral

    (1/2pi) int dnu exp(-i nu t) * i/(nu^2 - w^2 + i eps).

:func:`frequency_integral_feynman` evaluates it on a window
[-Omega, Omega] completed by the analytic |nu| > Omega remainder (check
08a).  :func:`principal_part` is its eps-free principal part, with
windows of half-width :data:`PRINCIPAL_WINDOW` cut out around the poles,
and :func:`verify_frequency_split` reassembles the integral from that
part plus the on-shell delta term (check 08b).  The remainder's Si/Ci
values come from :func:`_sici`, in numpy, so the module loads no scipy.

Quadrature.  Every denominator depends on nu only through nu^2, so the
sine half of exp(-i nu t) cancels between nu and -nu, and each piece of
either integral is 2i cos(nu t) over its denominator on an interval of
nu >= 0, cut at its pole or midpoint (see :func:`quadrature_pieces`).
:func:`_dual_quad` integrates it twice, on the cut segmentation and on
its midpoint refinement, and raises :class:`QuadratureError` when the
two disagree by more than :data:`QUAD_ABS_TOL`; both integrals sum their
pieces in :func:`_integrate`.
Every segment takes one fixed composite Gauss-Legendre rule
(:func:`_quad_segment`), evaluating the integrand once on all its nodes
as a numpy array: 16 nodes per panel on 64 uniform panels, of which the
two end panels are graded geometrically over 30 halvings toward the
segment ends, where the eps-narrow pole structure and the window edges
sit.  Uniform panels alone leave the two segmentations 0.1-0.3 apart.
An adaptive Gauss-Kronrod rule in :mod:`boxqft.suite`, on integrands
of its own, is the rule's oracle in check 08c; the two share only the
segment bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import QuadratureError, ValidationError

__all__ = [
    "FrequencyIntegralSpec",
    "QuadratureError",
    "frequency_integral_feynman",
    "principal_part",
    "quadrature_pieces",
    "segmentations",
    "verify_frequency_split",
]

#: Half-width of the windows the principal part cuts out around nu = +-omega
#: (halved once for its Richardson step); mode_frequency must exceed it.
PRINCIPAL_WINDOW = 1e-3

#: Largest disagreement _dual_quad accepts between its two segmentations.
QUAD_ABS_TOL = 1e-6


@dataclass(frozen=True)
class FrequencyIntegralSpec:
    """Parameters of the regulated per-mode frequency integral.

    mode_frequency   -- omega > 0 of the mode under study
    time             -- evaluation time t (any sign)
    epsilon          -- pole displacement eps > 0
    frequency_cutoff -- window half-width Omega, required > 10 * omega
    """

    mode_frequency: float
    time: float
    epsilon: float = 1e-6
    frequency_cutoff: float = 200.0

    def validate(self) -> None:
        for name in ("mode_frequency", "time", "epsilon", "frequency_cutoff"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value}")
        if not self.mode_frequency > 0:
            raise ValidationError(f"mode_frequency must be positive, got {self.mode_frequency}")
        if not self.epsilon > 0:
            raise ValidationError(f"epsilon must be positive, got {self.epsilon}")
        if not self.frequency_cutoff > 10.0 * self.mode_frequency:
            raise ValidationError(
                "frequency_cutoff must exceed 10 * mode_frequency, got "
                f"{self.frequency_cutoff} for omega {self.mode_frequency}"
            )


def _half_segment_rule():
    """Nodes s in (0, 1/2) and weights of the composite Gauss-Legendre rule
    for int_0^{1/2} ds: 16 nodes on each of 32 uniform panels of width
    u = 1/64, the first of them split at u/2, u/4, ..., u/2^30."""
    x, w = np.polynomial.legendre.leggauss(16)
    u = 1.0 / 64
    edges = np.concatenate(([0.0], u * 0.5 ** np.arange(30, 0, -1), u * np.arange(1, 33)))
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


def _dual_quad(fn, a: float, b: float, interior: list[float]) -> complex:
    """Evaluate int_a^b fn with break points (pole locations) as segment
    edges, twice: on the coarse segmentation and on its midpoint
    refinement.  Disagreement beyond QUAD_ABS_TOL, or a non-finite one,
    raises QuadratureError; returns the refined value."""
    v1, v2 = (
        sum(_quad_segment(fn, lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:]))
        for cuts in segmentations(a, b, interior)
    )
    if not abs(v1 - v2) <= QUAD_ABS_TOL:
        raise QuadratureError(
            f"independent quadrature evaluations disagree by {abs(v1 - v2):.3e} "
            f"(abs_tol {QUAD_ABS_TOL:.3e})"
        )
    return v2


def _integrate(pieces) -> complex:
    """The dual quadrature of every piece (integrand, a, b, interior cuts),
    summed in order."""
    return sum(_dual_quad(fn, a, b, cuts) for fn, a, b, cuts in pieces)


#: Euler's constant, the offset of Ci's power series.
_EULER_GAMMA = 0.5772156649015329

#: Terms of the Si/Ci power series, enough up to x = 2: the first term
#: left out, 2^27 / (27 * 27!), is below 1e-21.
_SICI_SERIES_TERMS = 26

#: Most steps the Si/Ci continued fraction may take: it needs 87 just
#: above x = 2 and fewer as x grows (22 at 10, 5 at 400).
_SICI_MAX_STEPS = 100


def _sici(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sine and cosine integrals Si(x) and Ci(x) of an array of x > 0.

    Up to x = 2 they are summed from their power series,
    Si = sum_{k odd} (-1)^((k-1)/2) x^k / (k k!) and
    Ci = gamma + ln x + sum_{k even} (-1)^(k/2) x^k / (k k!);
    above it they are read from the continued fraction of E1(i x),
    evaluated by Lentz's method (Numerical Recipes, section 6.9).  A
    continued fraction not converged in _SICI_MAX_STEPS steps raises
    QuadratureError.
    """
    x = np.asarray(x, dtype=float)
    si, ci = np.empty_like(x), np.empty_like(x)
    small = x <= 2.0
    t = x[small]
    k = np.arange(1, _SICI_SERIES_TERMS + 1)
    # x^k / (k k!) with the signs + - - + of k = 1, 2, 3, 4 repeating
    terms = np.cumprod(t[:, None] / k, axis=1) / k * np.where(k % 4 < 2, 1.0, -1.0)
    si[small] = terms[:, ::2].sum(axis=1)
    ci[small] = terms[:, 1::2].sum(axis=1) + np.log(t) + _EULER_GAMMA

    t = x[~small]
    b = 1.0 + 1j * t
    c = np.full(t.shape, 1e300 + 0j)  # Lentz's start, 1/tiny
    d = h = 1.0 / b
    converged = np.zeros(t.shape, dtype=bool)
    for step in range(2, _SICI_MAX_STEPS + 1):
        if converged.all():
            break
        a = -((step - 1.0) ** 2)
        b = b + 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h = np.where(converged, h, h * delta)
        converged |= np.abs(delta.real - 1.0) + np.abs(delta.imag) < np.finfo(float).eps
    if not converged.all():
        raise QuadratureError(
            f"Si/Ci continued fraction not converged in {_SICI_MAX_STEPS} steps "
            f"at x = {float(t[~converged][0])!r}"
        )
    h = (np.cos(t) - 1j * np.sin(t)) * h
    si[~small] = 0.5 * np.pi + h.imag
    ci[~small] = -h.real
    return si, ci


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
        (si_p, si_m), (ci_p, ci_m) = _sici(np.array([cutoff + w, cutoff - w]) * tau)
        c = (np.cos(w * tau) * (ci_p - ci_m) - np.sin(w * tau) * (np.pi - si_m - si_p)) / (2.0 * w)
    return 1j * c / np.pi


def _feynman_pieces(spec: FrequencyIntegralSpec):
    """The quadrature pieces (integrand, a, b, interior cuts) of the
    regulated integral folded onto [0, Omega], and the closed-form
    integral of the pole interpolant subtracted from its central piece
    [-a, a].  Outside that window the raw integrand is smooth and the
    interpolant would grow.
    """
    w, t, eps, cutoff = spec.mode_frequency, spec.time, spec.epsilon, spec.frequency_cutoff
    pole = np.sqrt(complex(w * w, -eps))  # displaced pole, Im < 0
    cos_coeff = np.cos(w * t)

    def full(nu):
        return 2j * np.cos(nu * t) / (nu * nu - w * w + 1j * eps)

    def smooth(nu):
        # cos(nu t) minus its value at nu = +-omega; the ratio stays
        # bounded through the displaced pole
        return 2j * (np.cos(nu * t) - cos_coeff) / (nu * nu - w * w + 1j * eps)

    a = min(2.0 * w + 1.0, 0.5 * cutoff)
    pieces = [(smooth, 0.0, a, [w]), (full, a, cutoff, [0.5 * (cutoff + a)])]
    # int dnu/(nu^2 - w^2 + i eps) over [-a, a]; the contour keeps a fixed
    # distance eps/(2 w) from the displaced poles so principal logs apply.
    log_part = (
        np.log(a - pole) - np.log(-a - pole) - np.log(a + pole) + np.log(-a + pole)
    ) * (1j / (2.0 * pole))
    # the nu-linear piece of the interpolant integrates to zero by symmetry
    return pieces, cos_coeff * log_part


def _principal_pieces(spec: FrequencyIntegralSpec, window: float):
    """The quadrature pieces of the eps-free principal part over
    [0, Omega], folded like the regulated integral's, with a window of
    half-width ``window`` cut out around nu = omega."""
    w, t, cutoff = spec.mode_frequency, spec.time, spec.frequency_cutoff

    def bare(nu):
        return 2j * np.cos(nu * t) / (nu * nu - w * w)

    segments = [(0.0, w - window), (w + window, cutoff)]
    return [(bare, a, b, [0.5 * (a + b)]) for a, b in segments]


def quadrature_pieces(spec: FrequencyIntegralSpec):
    """Every piece (integrand, a, b, interior cuts) that
    frequency_integral_feynman and principal_part hand to the dual
    quadrature: the regulated integral's, then the principal part's at
    PRINCIPAL_WINDOW and at half of it.  Each integrand's ``__name__``
    (``full``, ``smooth`` or ``bare``) names it to check 08c's oracle."""
    return (
        _feynman_pieces(spec)[0]
        + _principal_pieces(spec, PRINCIPAL_WINDOW)
        + _principal_pieces(spec, PRINCIPAL_WINDOW / 2.0)
    )


def frequency_integral_feynman(spec: FrequencyIntegralSpec) -> complex:
    """(1/2pi) int_{-Omega}^{Omega} dnu exp(-i nu t) * i/(nu^2 - omega^2 + i eps),
    completed by the analytic |nu| > Omega remainder (:func:`_tail_completion`).

    As eps -> 0 and Omega -> infinity the value converges to
    exp(-i omega |t|)/(2 omega), the per-mode Feynman kernel.  The sharp
    pole pair is handled by subtracting a linear-in-nu interpolant through
    the two on-shell points (whose integral is known in closed form;
    folded, it is cos(omega t)) and integrating the remaining bounded
    function (see ``_feynman_pieces``).
    """
    spec.validate()
    pieces, closed_form = _feynman_pieces(spec)
    total = (_integrate(pieces) + closed_form) / (2.0 * np.pi)
    return complex(total + _tail_completion(spec.mode_frequency, spec.time, spec.frequency_cutoff))


def principal_part(spec: FrequencyIntegralSpec) -> complex:
    """The eps-free principal part of the regulated integral.

    Symmetric windows of half-width :data:`PRINCIPAL_WINDOW` around
    nu = +-omega are cut out of the eps-free integrand, which is
    completed by the same analytic tail as
    :func:`frequency_integral_feynman`; a two-point Richardson step over
    the window sizes {window, window/2} removes the leading
    linear-in-window truncation.  The validated cutoff, above 10 omega,
    clears the windows whenever omega exceeds the window.
    """
    spec.validate()
    w = spec.mode_frequency
    t = spec.time
    cutoff = spec.frequency_cutoff
    if not w > PRINCIPAL_WINDOW:
        raise ValidationError(
            f"mode_frequency must exceed the principal-part window {PRINCIPAL_WINDOW}, got {w}"
        )

    def pp_at(win: float) -> complex:
        return _integrate(_principal_pieces(spec, win)) / (2.0 * np.pi)

    return complex(
        2.0 * pp_at(PRINCIPAL_WINDOW / 2.0) - pp_at(PRINCIPAL_WINDOW)
        + _tail_completion(w, t, cutoff)
    )


def verify_frequency_split(
    spec: FrequencyIntegralSpec, full: complex
) -> tuple[complex, complex, float]:
    """Split the regulated integral ``full``, the value of
    :func:`frequency_integral_feynman` at ``spec``, into principal-part
    plus on-shell terms (check 08b).

    The principal part is :func:`principal_part`.  The
    on-shell term is evaluated from the residue prescription:
    delta(nu^2 - w^2) splits into poles at +-omega with weight
    1/(2 omega) each, giving cos(omega t)/(2 omega) under these
    conventions.  Returns (pp_part, delta_part, residual) where residual
    compares pp + delta against ``full``.
    """
    pp = principal_part(spec)
    w = spec.mode_frequency
    delta_part = complex(np.cos(w * spec.time) / (2.0 * w))
    residual = abs(pp + delta_part - full)
    return pp, delta_part, residual
