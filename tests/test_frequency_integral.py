"""Regulated frequency-plane representation of the per-mode kernel."""
import cmath
import functools
import math
import warnings
from dataclasses import fields

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad
from scipy.special import sici

import boxqft.frequency
import boxqft.suite
from boxqft.frequency import (
    FrequencyIntegralSpec,
    QuadratureError,
    _dual_quad,
    _quad_segment,
    _sici,
    frequency_integral_feynman,
    principal_part,
    quadrature_pieces,
    segmentations,
    verify_frequency_split,
)
from boxqft.frequency import _RULE_NODES
from boxqft.lattice import ValidationError
from boxqft.suite import _kronrod_rule, _kronrod_segments, _oracle_integrands

POINTS = ((1.0, 0.0), (1.0, 2.0), (2.0, -1.0))


def _spec(w, t, **kwargs):
    defaults = dict(epsilon=1e-6, frequency_cutoff=200.0)
    defaults.update(kwargs)
    return FrequencyIntegralSpec(mode_frequency=w, time=t, **defaults)


def _segments(spec):
    """(integrand name, lo, hi) of every segment of both segmentations of
    every piece the dual quadrature integrates: 36 at each of POINTS."""
    return [
        (fn.__name__, lo, hi)
        for fn, a, b, interior in quadrature_pieces(spec)
        for cuts in segmentations(a, b, interior)
        for lo, hi in zip(cuts[:-1], cuts[1:])
    ]


def _quadpack_segment(fn, a, b, points=None):
    """QUADPACK on the real and imaginary parts of a complex scalar
    integrand over [a, b], with optional interior break ``points``.  Its
    own error estimate saturates on the eps-narrow pole kinks even when
    the value is converged, so only its IntegrationWarning is silenced."""
    kw = dict(limit=800, epsabs=1e-13, epsrel=1e-12, points=points)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        re = quad(lambda v: fn(v).real, a, b, **kw)[0]
        im = quad(lambda v: fn(v).imag, a, b, **kw)[0]
    return re + 1j * im


@functools.cache
def _quadpack_values(w, t):
    """QUADPACK's value of every segment of _segments at (w, t), keyed by
    (integrand name, lo, hi): the tier-1 oracle of both routes of check
    08c.  It integrates scalar integrands of its own, folded onto nu >= 0
    and written from the spec like the suite's numpy twins but sharing no
    code with them."""
    spec = _spec(w, t)
    eps = spec.epsilon
    onshell = math.cos(w * t)
    integrands = {
        "full": lambda nu: 2j * math.cos(nu * t) / (nu * nu - w * w + 1j * eps),
        "smooth": lambda nu: 2j * (math.cos(nu * t) - onshell) / (nu * nu - w * w + 1j * eps),
        "bare": lambda nu: 2j * math.cos(nu * t) / (nu * nu - w * w),
    }
    # Folded, smooth's imaginary part is flat but for a dip eps/(2 w) wide
    # at the pole nu = w.  QUADPACK's first pass on a segment ending there
    # samples no node inside the dip and reports the segment converged,
    # 1.4e-6 off at (1, 2), so such a segment gets break points graded
    # toward the pole.
    graded = [w + side * eps * 10.0**k for side in (-1.0, 1.0) for k in range(7)]
    return {
        (name, lo, hi): _quadpack_segment(
            integrands[name], lo, hi,
            [p for p in graded if lo < p < hi] if w in (lo, hi) else None,
        )
        for name, lo, hi in _segments(spec)
    }


@pytest.mark.parametrize(("w", "t"), POINTS)
def test_integral_reaches_closed_form(w, t):
    value = frequency_integral_feynman(_spec(w, t))
    target = np.exp(-1j * w * abs(t)) / (2.0 * w)
    assert abs(value - target) <= 1e-5  # headroom below the 1e-4 gate


def test_time_reflection_symmetry():
    plus = frequency_integral_feynman(_spec(1.5, 0.8))
    minus = frequency_integral_feynman(_spec(1.5, -0.8))
    assert abs(plus - minus) <= 2e-6


def test_tail_omission_leaves_cutoff_bias():
    """Without the analytic completion the window truncation error decays
    like 1/(pi * cutoff) -- about 1.6e-3 at cutoff 200 -- which would
    swamp the 1e-4 accuracy gate."""
    spec = _spec(1.0, 0.0)
    full = frequency_integral_feynman(spec)
    bare = full - boxqft.frequency._tail_completion(1.0, 0.0, spec.frequency_cutoff)
    target = 0.5 + 0.0j
    bare_error = abs(bare - target)
    assert 1e-3 < bare_error < 2.5e-3
    assert abs(full - target) <= 1e-5
    predicted = 1.0 / (np.pi * spec.frequency_cutoff)
    assert bare_error == pytest.approx(predicted, rel=0.05)


@pytest.mark.parametrize(("w", "t"), POINTS)
def test_principal_part_plus_onshell_reassembles(w, t):
    spec = _spec(w, t)
    full = frequency_integral_feynman(spec)
    principal, onshell, residual = verify_frequency_split(spec, full)
    assert residual <= 1e-4
    # the on-shell lump integrates to cos(w t)/(2 w) exactly
    assert onshell == pytest.approx(np.cos(w * t) / (2.0 * w), abs=0)
    assert residual == abs(principal + onshell - full)


def test_split_pieces_are_individually_sane():
    # at t=0 the full integral is 1/(2w): on-shell lump carries 1/(2w),
    # so the principal part must be small
    spec = _spec(1.0, 0.0)
    principal, onshell, _ = verify_frequency_split(spec, frequency_integral_feynman(spec))
    assert onshell == pytest.approx(0.5)
    assert abs(principal) <= 1e-3


@pytest.mark.parametrize(
    ("kwargs", "field"),
    [
        (dict(mode_frequency=0.0, time=0.0), "mode_frequency"),
        (dict(mode_frequency=-1.0, time=0.0), "mode_frequency"),
        (dict(mode_frequency=1.0, time=0.0, epsilon=0.0), "epsilon"),
        (dict(mode_frequency=1.0, time=0.0, frequency_cutoff=5.0), "frequency_cutoff"),
        (dict(mode_frequency=1.0, time=0.0, frequency_cutoff=10.0), "frequency_cutoff"),
        (dict(mode_frequency=np.inf, time=0.0, frequency_cutoff=np.inf), "mode_frequency"),
        (dict(mode_frequency=1.0, time=np.nan), "time"),
        (dict(mode_frequency=1.0, time=np.inf), "time"),
        (dict(mode_frequency=1.0, time=0.0, epsilon=np.nan), "epsilon"),
        (dict(mode_frequency=1.0, time=0.0, frequency_cutoff=np.inf), "frequency_cutoff"),
        (dict(mode_frequency=np.nan, time=0.0), "mode_frequency"),
    ],
)
def test_invalid_spec_names_offending_field(kwargs, field):
    with pytest.raises(ValidationError, match=field):
        FrequencyIntegralSpec(**kwargs).validate()


@pytest.mark.parametrize("integral", [frequency_integral_feynman, principal_part])
def test_non_finite_time_rejected_by_both_integrals(integral):
    with pytest.raises(ValidationError, match="time must be finite"):
        integral(_spec(1.0, np.nan))


def test_principal_part_needs_mode_frequency_above_window():
    with pytest.raises(ValidationError, match="mode_frequency must exceed"):
        principal_part(_spec(5e-4, 1.0))


def test_non_finite_quadrature_disagreement_raises():
    """A NaN integrand fails the dual quadrature instead of returning NaN."""
    with pytest.raises(QuadratureError, match="nan"):
        _dual_quad(lambda nu: np.full(nu.shape, np.nan, dtype=complex), 0.0, 1.0, [0.5])


def test_unmeetable_quadrature_tolerance_raises(monkeypatch):
    monkeypatch.setattr(boxqft.frequency, "QUAD_ABS_TOL", 1e-30)
    spec = FrequencyIntegralSpec(mode_frequency=1.0, time=0.5, epsilon=1e-6, frequency_cutoff=200.0)
    with pytest.raises(QuadratureError, match=r"abs_tol 1\.000e-30"):
        frequency_integral_feynman(spec)


def test_quadrature_tolerance_is_not_a_spec_field():
    """The tolerance is the module constant QUAD_ABS_TOL; the spec keeps the
    fields a study may vary."""
    assert [f.name for f in fields(FrequencyIntegralSpec)] == [
        "mode_frequency", "time", "epsilon", "frequency_cutoff"
    ]


def test_quadrature_passes_integrand_warnings_through():
    """A warning the integrand raises reaches the caller."""

    def noisy(v):
        warnings.warn("integrand overflow", RuntimeWarning)
        return v - 1j * v

    with pytest.warns(RuntimeWarning, match="integrand overflow"):
        value = _quad_segment(noisy, 0.0, 1.0)
    assert abs(value - (0.5 - 0.5j)) <= 1e-12


@pytest.mark.parametrize(("w", "t"), POINTS)
def test_segment_rule_matches_quadpack_on_every_segment(w, t):
    """On the 08a and 08b integrands, every segment of both segmentations
    the dual quadrature cuts takes the same value from the Gauss-Legendre
    rule as from QUADPACK."""
    pieces = {fn.__name__: fn for fn, *_ in quadrature_pieces(_spec(w, t))}
    quadpack = _quadpack_values(w, t)
    assert len(quadpack) == 36
    worst = max(abs(_quad_segment(pieces[name], lo, hi) - value)
                for (name, lo, hi), value in quadpack.items())
    assert worst <= 1e-12


@pytest.mark.parametrize(("w", "t"), POINTS)
def test_kronrod_oracle_matches_quadpack_on_every_segment(w, t):
    """Check 08c's oracle, the adaptive Gauss-Kronrod rule on the suite's
    twins, takes QUADPACK's value on every segment of both segmentations
    at every point (6.8e-14 at worst seen, the imaginary part of ``bare``
    over [0.4995, 0.999] at (1, 0), a 15x margin under the gate; QUADPACK
    runs at 1e-13 absolute, 1e-12 relative, and the Gauss-Legendre rule
    is at most 1.1e-13 from it on any segment)."""
    spec = _spec(w, t)
    oracles = _oracle_integrands(spec)
    quadpack = _quadpack_values(w, t)
    segments = _segments(spec)
    values = _kronrod_segments([(oracles[name], lo, hi) for name, lo, hi in segments])
    residuals = [abs(value - quadpack[seg]) for seg, value in zip(segments, values)]
    assert len(residuals) == 36
    assert max(residuals) <= 1e-12


@pytest.mark.parametrize(("w", "t"), POINTS)
def test_folded_integrals_match_quadpack_on_the_full_line(w, t):
    """frequency_integral_feynman and principal_part integrate on nu >= 0.
    QUADPACK integrates the unfolded integrands exp(-i nu t) * i/(nu^2 -
    w^2 [+ i eps]) over [-Omega, Omega], on the pieces and cuts the two
    integrals used before the fold; with the same closed-form interpolant
    integral and tail, both values agree (7.6e-14 at worst seen)."""
    spec = _spec(w, t)
    eps, cutoff = spec.epsilon, spec.frequency_cutoff
    slope, offset = -1j * math.sin(w * t) / w, math.cos(w * t)

    def full(nu):
        return cmath.exp(-1j * nu * t) * 1j / (nu * nu - w * w + 1j * eps)

    def smooth(nu):
        return (cmath.exp(-1j * nu * t) - (slope * nu + offset)) * 1j / (nu * nu - w * w + 1j * eps)

    def bare(nu):
        return cmath.exp(-1j * nu * t) * 1j / (nu * nu - w * w)

    def quadpack(fn, a, b, interior):
        cuts = [a, *interior, b]
        return sum(_quadpack_segment(fn, lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:]))

    a = min(2.0 * w + 1.0, 0.5 * cutoff)
    regulated = (
        quadpack(smooth, -a, a, [-w, 0.0, w])
        + quadpack(full, -cutoff, -a, [-0.5 * (cutoff + a)])
        + quadpack(full, a, cutoff, [0.5 * (cutoff + a)])
    )
    closed_form = boxqft.frequency._feynman_pieces(spec)[1]
    tail = boxqft.frequency._tail_completion(w, t, cutoff)

    def principal_at(win):
        segments = [(-cutoff, -w - win), (-w + win, w - win), (w + win, cutoff)]
        return sum(quadpack(bare, lo, hi, [0.5 * (lo + hi)]) for lo, hi in segments) / (2.0 * np.pi)

    window = boxqft.frequency.PRINCIPAL_WINDOW
    feynman = (regulated + closed_form) / (2.0 * np.pi) + tail
    principal = 2.0 * principal_at(window / 2.0) - principal_at(window) + tail
    assert abs(frequency_integral_feynman(spec) - feynman) <= 1e-12
    assert abs(principal_part(spec) - principal) <= 1e-12


def test_kronrod_rule_is_exact_for_monomials_to_its_degree():
    """The 21-point Kronrod rule integrates x^d over [-1, 1] exactly for
    d <= 31 and no further; its embedded 10-point Gauss rule, on the
    odd-indexed nodes, does so for d <= 19."""
    nodes, weights, gauss_weights = _kronrod_rule()
    assert np.allclose(nodes[1::2], np.polynomial.legendre.leggauss(10)[0], rtol=0, atol=1e-15)

    def error(nodes, weights, degree):
        exact = 2.0 / (degree + 1) if degree % 2 == 0 else 0.0
        return abs(np.sum(weights * nodes**degree) - exact)

    assert max(error(nodes, weights, d) for d in range(32)) <= 1e-15
    assert error(nodes, weights, 32) > 1e-13
    assert max(error(nodes[1::2], gauss_weights, d) for d in range(20)) <= 1e-15
    assert error(nodes[1::2], gauss_weights, 20) > 1e-13


def test_kronrod_oracle_integrates_each_segment():
    """One value per segment, each exact for a polynomial the rule holds."""
    def f(v):
        return v**31 + 1j * v**2

    values = _kronrod_segments([(f, 0.0, 1.0), (f, 1.0, 2.0)])
    expected = [1.0 / 32 + 1j / 3, (2.0**32 - 1.0) / 32 + 7j / 3]
    assert values == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize(
    ("cap", "value", "integrand", "message"),
    [
        # a step every 1e-4 of the segment: bisection cannot settle it
        ("_KRONROD_MAX_INTERVALS", 64, lambda v: np.sign(np.sin(3e4 * v)) + 0j,
         "more than 64 intervals"),
        # a kink takes more than two rounds of bisection toward it
        ("_KRONROD_MAX_ROUNDS", 2, lambda v: np.abs(v - 1.0 / 3.0) + 0j,
         "not converged in 2 rounds"),
        ("_KRONROD_MAX_ROUNDS", 50, lambda v: np.full(v.shape, np.nan + 0j),
         "non-finite integrand value"),
    ],
)
def test_kronrod_oracle_raises_at_its_bounds(monkeypatch, cap, value, integrand, message):
    monkeypatch.setattr(boxqft.suite, cap, value)
    with pytest.raises(QuadratureError, match=message):
        _kronrod_segments([(integrand, 0.0, 0.5), (integrand, 0.5, 1.0)])


# Ci's first root, where its relative error is unbounded.
_CI_ROOT = 0.6165054856207162


def test_sici_matches_scipy_over_its_range():
    """Si and Ci against scipy.special.sici on a log grid over 1e-8..1e4,
    with x = 2 (where the series hands over to the continued fraction),
    the next float above it and Ci's first root.  Ci changes sign there
    and at every root of its oscillating tail, so its error is held
    relative to |Ci| plus its envelope min(1, 1/x)."""
    x = np.concatenate((np.logspace(-8, 4, 2001), [2.0, np.nextafter(2.0, 3.0), _CI_ROOT]))
    si, ci = _sici(x)
    ref_si, ref_ci = sici(x)
    assert np.all(np.abs(si - ref_si) <= 2e-15 * np.abs(ref_si))
    assert np.all(np.abs(ci - ref_ci) <= 4e-15 * (np.abs(ref_ci) + np.minimum(1.0, 1.0 / x)))
    assert abs(ci[-1]) <= 2e-16


def test_sici_continued_fraction_that_does_not_converge_raises(monkeypatch):
    monkeypatch.setattr(boxqft.frequency, "_SICI_MAX_STEPS", 4)
    with pytest.raises(QuadratureError, match="not converged in 4 steps at x = 402.0"):
        _sici(np.array([1.0, 402.0]))


@pytest.mark.parametrize(("w", "t"), POINTS)
def test_oracle_integrands_match_the_rule_integrands_at_its_nodes(w, t):
    """Every integrand quadrature_pieces names has a numpy twin in the
    suite, and the two agree to 1e-15 relative (about 4 ulp; 1 ulp seen)
    at the rule's nodes on every segment of both segmentations."""
    spec = _spec(w, t)
    oracles = _oracle_integrands(spec)
    names = set()
    for fn, a, b, interior in quadrature_pieces(spec):
        names.add(fn.__name__)
        oracle = oracles[fn.__name__]
        for cuts in segmentations(a, b, interior):
            for lo, hi in zip(cuts[:-1], cuts[1:]):
                length = hi - lo
                nodes = np.concatenate((lo + length * _RULE_NODES, hi - length * _RULE_NODES))
                twin = oracle(nodes)
                assert np.all(np.abs(fn(nodes) - twin) <= 1e-15 * np.abs(twin))
    assert names == set(oracles) == {"full", "smooth", "bare"}


def test_quadrature_pieces_are_those_integrated(monkeypatch):
    """quadrature_pieces lists exactly the pieces that
    frequency_integral_feynman and verify_frequency_split integrate, so
    check 08c compares the segments 08a and 08b use."""
    seen = []
    dual_quad = boxqft.frequency._dual_quad

    def recording(fn, a, b, interior):
        seen.append((fn.__name__, a, b, list(interior)))
        return dual_quad(fn, a, b, interior)

    monkeypatch.setattr(boxqft.frequency, "_dual_quad", recording)
    spec = _spec(1.0, 2.0)
    verify_frequency_split(spec, frequency_integral_feynman(spec))
    listed = [(fn.__name__, a, b, list(cuts)) for fn, a, b, cuts in quadrature_pieces(spec)]
    assert sorted(seen) == sorted(listed)


def test_segment_rule_is_exact_for_polynomials_and_graded_at_the_ends():
    # 16 Gauss nodes per panel integrate degree 31 exactly
    assert _quad_segment(lambda v: v**31 + 0j, 0.0, 1.0) == pytest.approx(1.0 / 32.0, rel=1e-14)
    # an integrable end singularity, which uniform panels resolve poorly
    value = _quad_segment(lambda v: np.log(v) + 0j, 0.0, 1.0)
    assert abs(value + 1.0) <= 1e-12
