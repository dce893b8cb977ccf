"""Regulated frequency-plane representation of the per-mode kernel."""
import warnings
from dataclasses import fields

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning

import boxqft.frequency
from boxqft.frequency import (
    FrequencyIntegralSpec,
    QuadratureError,
    _dual_quad,
    _quad_segment,
    frequency_integral_feynman,
    principal_part,
    quadrature_pieces,
    segmentations,
    verify_frequency_split,
)
from boxqft.frequency import _RULE_NODES
from boxqft.lattice import ValidationError
from boxqft.suite import _oracle_integrands, _quadpack_segment

POINTS = ((1.0, 0.0), (1.0, 2.0), (2.0, -1.0))


def _spec(w, t, **kwargs):
    defaults = dict(epsilon=1e-6, frequency_cutoff=200.0)
    defaults.update(kwargs)
    return FrequencyIntegralSpec(mode_frequency=w, time=t, **defaults)


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
    bare = frequency_integral_feynman(spec, include_tail=False)
    full = frequency_integral_feynman(spec, include_tail=True)
    target = 0.5 + 0.0j
    bare_error = abs(bare - target)
    assert 1e-3 < bare_error < 2.5e-3
    assert abs(full - target) <= 1e-5
    predicted = 1.0 / (np.pi * spec.frequency_cutoff)
    assert bare_error == pytest.approx(predicted, rel=0.05)


@pytest.mark.parametrize(("w", "t"), POINTS)
def test_principal_part_plus_onshell_reassembles(w, t):
    spec = _spec(w, t)
    principal, onshell, residual = verify_frequency_split(spec)
    assert residual <= 1e-4
    # the on-shell lump integrates to cos(w t)/(2 w) exactly
    assert onshell == pytest.approx(np.cos(w * t) / (2.0 * w), abs=0)
    full = frequency_integral_feynman(spec)
    assert abs(principal + onshell - full) == pytest.approx(residual, abs=1e-12)


def test_split_pieces_are_individually_sane():
    # at t=0 the full integral is 1/(2w): on-shell lump carries 1/(2w),
    # so the principal part must be small
    spec = _spec(1.0, 0.0)
    principal, onshell, _ = verify_frequency_split(spec)
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


def test_quadrature_silences_integration_warning():
    """The QUADPACK route of check 08c silences only QUADPACK's own
    IntegrationWarning."""

    def wild(v):
        # sin(1/v)/v oscillates without bound near 0; QUADPACK reports it
        # with an IntegrationWarning
        return complex(np.sin(1.0 / v) / v) if v else 0j

    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        _quadpack_segment(wild, -1.0, 1.0)


@pytest.mark.parametrize(("w", "t"), POINTS)
def test_segment_rule_matches_quadpack_on_every_segment(w, t):
    """On the 08a and 08b integrands, every segment of both segmentations
    the dual quadrature cuts takes the same value from the Gauss-Legendre
    rule as QUADPACK gives on the suite's oracle twin of the integrand."""
    oracles = _oracle_integrands(_spec(w, t))
    worst, count = 0.0, 0
    for fn, a, b, interior in quadrature_pieces(_spec(w, t)):
        for cuts in segmentations(a, b, interior):
            for lo, hi in zip(cuts[:-1], cuts[1:]):
                oracle = _quadpack_segment(oracles[fn.__name__], lo, hi)
                worst, count = max(worst, abs(_quad_segment(fn, lo, hi) - oracle)), count + 1
    assert count == 60
    assert worst <= 1e-12


@pytest.mark.parametrize(("w", "t"), POINTS)
def test_oracle_integrands_match_the_rule_integrands_at_its_nodes(w, t):
    """Every integrand quadrature_pieces names has a cmath twin in the
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
                twin = np.array([oracle(nu) for nu in nodes.tolist()])
                assert np.all(np.abs(fn(nodes) - twin) <= 1e-15 * np.abs(twin))
    assert names == set(oracles) == {"full", "smooth", "bare"}


def test_quadpack_segment_evaluates_each_abscissa_once():
    """The real and imaginary QUADPACK passes share their abscissae, and
    the integrand is evaluated once per distinct one."""
    seen = []
    full = _oracle_integrands(_spec(1.0, 2.0))["full"]

    def counting(nu):
        seen.append(nu)
        return full(nu)

    value = _quadpack_segment(counting, 3.0, 101.5)
    assert len(seen) == len(set(seen)) > 21  # more than one 21-point Kronrod panel
    seen.clear()
    assert _quadpack_segment(counting, 3.0, 101.5) == value  # nothing kept across calls
    assert len(seen) == len(set(seen)) > 21


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
    verify_frequency_split(spec)  # evaluates the full integral too
    listed = [(fn.__name__, a, b, list(cuts)) for fn, a, b, cuts in quadrature_pieces(spec)]
    assert sorted(seen) == sorted(listed)


def test_segment_rule_is_exact_for_polynomials_and_graded_at_the_ends():
    # 16 Gauss nodes per panel integrate degree 31 exactly
    assert _quad_segment(lambda v: v**31 + 0j, 0.0, 1.0) == pytest.approx(1.0 / 32.0, rel=1e-14)
    # an integrable end singularity, which uniform panels resolve poorly
    value = _quad_segment(lambda v: np.log(v) + 0j, 0.0, 1.0)
    assert abs(value + 1.0) <= 1e-12
