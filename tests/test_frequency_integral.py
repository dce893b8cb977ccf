"""Regulated frequency-plane representation of the per-mode kernel."""
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning

from boxqft.lattice import ValidationError
from boxqft.propagators import (
    FrequencyIntegralSpec,
    QuadratureError,
    _quad_segment,
    frequency_integral_feynman,
    verify_frequency_split,
)

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
    principal, onshell, residual = verify_frequency_split(spec, window=1e-3)
    assert residual <= 1e-4
    # the on-shell lump integrates to cos(w t)/(2 w) exactly
    assert onshell == pytest.approx(np.cos(w * t) / (2.0 * w), abs=0)
    full = frequency_integral_feynman(spec)
    assert abs(principal + onshell - full) == pytest.approx(residual, abs=1e-12)


def test_split_pieces_are_individually_sane():
    # at t=0 the full integral is 1/(2w): on-shell lump carries 1/(2w),
    # so the principal part must be small
    spec = _spec(1.0, 0.0)
    principal, onshell, _ = verify_frequency_split(spec, window=1e-3)
    assert onshell == pytest.approx(0.5)
    assert abs(principal) <= 1e-3


@pytest.mark.parametrize(
    ("kwargs", "field"),
    [
        (dict(mode_frequency=0.0, time=0.0), "mode_frequency"),
        (dict(mode_frequency=-1.0, time=0.0), "mode_frequency"),
        (dict(mode_frequency=1.0, time=0.0, epsilon=0.0), "epsilon"),
        (dict(mode_frequency=1.0, time=0.0, frequency_cutoff=5.0), "frequency_cutoff"),
        (dict(mode_frequency=1.0, time=0.0, abs_tol=0.0), "abs_tol"),
    ],
)
def test_invalid_spec_names_offending_field(kwargs, field):
    with pytest.raises(ValidationError, match=field):
        FrequencyIntegralSpec(**kwargs).validate()


def test_unmeetable_quadrature_tolerance_raises():
    spec = FrequencyIntegralSpec(
        mode_frequency=1.0, time=0.5, epsilon=1e-6,
        frequency_cutoff=200.0, abs_tol=1e-30,
    )
    with pytest.raises(QuadratureError):
        frequency_integral_feynman(spec)


def test_quadrature_passes_integrand_warnings_through():
    """Only QUADPACK's own IntegrationWarning is silenced; a warning the
    integrand raises reaches the caller."""

    def noisy(v):
        warnings.warn("integrand overflow", RuntimeWarning)
        return complex(v, -v)

    with pytest.warns(RuntimeWarning, match="integrand overflow"):
        value = _quad_segment(noisy, 0.0, 1.0)
    assert abs(value - (0.5 - 0.5j)) <= 1e-12


def test_quadrature_silences_integration_warning():
    def wild(v):
        # sin(1/v)/v oscillates without bound near 0; QUADPACK reports it
        # with an IntegrationWarning
        return complex(np.sin(1.0 / v) / v) if v else 0j

    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        _quad_segment(wild, -1.0, 1.0)
