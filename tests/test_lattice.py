"""Lattice construction, derived grids, and input validation."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from boxqft.lattice import (
    LatticeSpec,
    ValidationError,
    build_lattice,
    omega,
    validate_spec,
)


def test_default_spec_values():
    spec = LatticeSpec()
    assert spec.n_space == 64
    assert spec.box_length == 10.0
    assert spec.mass == 1.0
    assert spec.dt == 0.1
    assert spec.n_time == 64


def test_momentum_grid_shape_and_closure(lattice64):
    assert lattice64.momenta.size == 63  # edge mode excluded
    np.testing.assert_array_equal(lattice64.momenta, -lattice64.momenta[::-1])
    assert np.all(np.diff(lattice64.momenta) > 0)
    assert 0.0 in lattice64.momenta


def test_edge_mode_excluded(lattice64):
    # largest |k| is 2*pi*(N/2 - 1)/L on both sides, not 2*pi*(N/2)/L
    expected = 2.0 * np.pi * 31 / 10.0
    assert lattice64.momenta.max() == pytest.approx(expected, abs=0)
    assert lattice64.momenta.min() == pytest.approx(-expected, abs=0)


def test_frequencies_match_dispersion(lattice64):
    expected = np.sqrt(1.0 + lattice64.momenta**2)
    np.testing.assert_array_equal(lattice64.frequencies, expected)
    zero_idx = int(np.argmin(np.abs(lattice64.momenta)))
    assert lattice64.frequencies[zero_idx] == 1.0  # omega(0) = m


def test_spatial_and_time_grids(lattice64):
    assert lattice64.dx == pytest.approx(10.0 / 64)
    positions = lattice64.positions()
    assert positions.shape == (64,)
    assert positions[0] == 0.0
    assert positions[-1] == pytest.approx(10.0 - lattice64.dx)
    times = lattice64.times()
    assert times.shape == (64,)
    np.testing.assert_allclose(np.diff(times), 0.1)


def test_grids_are_read_only(lattice64):
    with pytest.raises(ValueError):
        lattice64.momenta[0] = 0.0
    with pytest.raises(ValueError):
        lattice64.frequencies[0] = 0.0


def test_build_is_deterministic():
    a = build_lattice(LatticeSpec())
    b = build_lattice(LatticeSpec())
    np.testing.assert_array_equal(a.momenta, b.momenta)
    np.testing.assert_array_equal(a.frequencies, b.frequencies)


@pytest.mark.parametrize(
    ("kwargs", "field"),
    [
        ({"n_space": 15}, "n_space"),
        ({"n_space": 0}, "n_space"),
        ({"n_space": 2.5}, "n_space"),
        ({"box_length": 0.0}, "box_length"),
        ({"box_length": -1.0}, "box_length"),
        ({"mass": 0.0}, "mass"),
        ({"mass": -2.0}, "mass"),
        ({"dt": 0.0}, "dt"),
        ({"n_time": 0}, "n_time"),
        ({"n_time": 1.5}, "n_time"),
    ],
)
def test_invalid_spec_names_offending_field(kwargs, field):
    with pytest.raises(ValidationError, match=field):
        validate_spec(LatticeSpec(**kwargs))


@pytest.mark.parametrize("field", ["box_length", "mass", "dt"])
@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_spec_field_rejected(field, value):
    with pytest.raises(ValidationError, match=f"{field} must be finite"):
        validate_spec(LatticeSpec(**{field: value}))


def test_negation_closure_detects_asymmetry(lattice64):
    from boxqft.fock import make_mode_spec

    closed = make_mode_spec(lattice64.momenta, 1.0, 10.0)
    assert closed.negation_index() == tuple(range(62, -1, -1))
    asymmetric = np.append(lattice64.momenta, -2.0 * np.pi * 32 / 10.0)
    with pytest.raises(ValidationError, match="negation"):
        make_mode_spec(asymmetric, 1.0, 10.0).negation_index()


@given(
    k=st.floats(-100.0, 100.0, allow_nan=False),
    mass=st.floats(1e-3, 50.0, allow_nan=False),
)
def test_dispersion_bounds_and_parity(k, mass):
    w = omega(k, mass)
    assert w >= mass
    assert omega(-k, mass) == w


@pytest.mark.parametrize("mass", [0.0, -1.0, float("nan"), float("inf")])
def test_dispersion_rejects_bad_mass(mass):
    with pytest.raises(ValidationError, match="mass must be finite and positive"):
        omega(1.0, mass)


def test_dispersion_vectorized():
    ks = np.array([-1.0, 0.0, 2.0])
    np.testing.assert_allclose(omega(ks, 3.0), np.sqrt(9.0 + ks**2))
