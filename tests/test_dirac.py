"""Two-component spinor plane waves, the algebra of the matrix set, currents."""
import numpy as np
import pytest

from boxqft.dirac import (
    METRIC,
    clifford_residual,
    dirac_residual,
    gamma_matrices,
    plane_wave_solution,
    probability_current,
    rest_frame_solutions,
)
from boxqft.lattice import ValidationError


def test_clifford_algebra_exact():
    assert clifford_residual() == 0.0


def test_matrix_set_squares():
    g0, g1 = gamma_matrices()
    identity = np.eye(2)
    np.testing.assert_array_equal(g0 @ g0, identity)
    np.testing.assert_array_equal(g1 @ g1, -identity)


def test_metric_signature():
    np.testing.assert_array_equal(np.diag(METRIC), [1.0, -1.0])


@pytest.mark.parametrize("p2", [(1.3, 0.2), (2.0, 0.0), (0.5, -0.5)])
def test_slash_squares_to_invariant(p2):
    """The contraction gamma^mu p_mu = E gamma^0 - p gamma^1 squares to
    the invariant E^2 - p^2."""
    g0, g1 = gamma_matrices()
    energy, p = p2
    slash = energy * g0 - p * g1
    assert np.max(np.abs(slash @ slash - (energy**2 - p**2) * np.eye(2))) <= 1e-15


def test_rest_frame_basis():
    solutions = rest_frame_solutions(1.0)
    assert [s.energy for s in solutions] == [1.0, -1.0]
    for sol in solutions:
        assert dirac_residual(sol) == 0.0
        np.testing.assert_array_equal(probability_current(sol), [1.0, 0.0])
    # the two spinors are the orthonormal basis vectors
    np.testing.assert_array_equal(np.array([s.spinor for s in solutions]), np.eye(2))


@pytest.mark.parametrize("mass", [0.0, -1.0, float("nan"), float("inf")])
def test_bad_mass_rejected(mass):
    with pytest.raises(ValidationError, match="mass must be finite and positive"):
        rest_frame_solutions(mass)
    with pytest.raises(ValidationError, match="mass must be finite and positive"):
        plane_wave_solution(0.5, mass, 1)


def test_rest_frame_scales_with_mass():
    solutions = rest_frame_solutions(2.5)
    assert [s.energy for s in solutions] == [2.5, -2.5]


@pytest.mark.parametrize("energy_sign", [1, -1])
@pytest.mark.parametrize("mass", [1, 2])
def test_plane_wave_solution_properties(energy_sign, mass):
    sol = plane_wave_solution(0.5, mass, energy_sign)
    assert dirac_residual(sol) <= 1e-15
    assert sol.energy == pytest.approx(energy_sign * np.hypot(mass, 0.5))
    assert np.vdot(sol.spinor, sol.spinor).real == pytest.approx(1.0)
    current = probability_current(sol)
    assert current[0] == pytest.approx(1.0)  # unit density normalization
    # flux over density equals p over E, sign included
    assert current[1] / current[0] == pytest.approx(0.5 / sol.energy)


def test_negative_energy_flux_opposes_momentum_label():
    sol = plane_wave_solution(0.5, 1.0, -1)
    current = probability_current(sol)
    assert current[0] > 0.0  # density stays positive
    assert current[1] * sol.momentum < 0.0  # flux runs backwards


def test_positive_energy_flux_parallel_to_momentum():
    sol = plane_wave_solution(0.5, 1.0, 1)
    assert probability_current(sol)[1] * sol.momentum > 0.0


def test_general_momentum_direction():
    """The box's other direction, p < 0: the flux follows p on the
    positive branch and opposes it on the negative one."""
    p = -0.4
    for sign in (1, -1):
        sol = plane_wave_solution(p, 1.0, sign)
        current = probability_current(sol)
        assert current[1] * p > 0 if sign == 1 else current[1] * p < 0
        # |flux| / density = |p| / |E|
        assert abs(current[1]) / current[0] == pytest.approx(abs(p) / abs(sol.energy))


def test_plane_waves_build_across_momentum_scales():
    """Both energy signs build at 73 log-spaced |p| from 1e-6 to 1e12, of
    either sign, and at |p| = 1e150, where the closed forms' entries stay
    at most 1: the field-equation bound scales with max(1, |E|)."""
    for size in [*np.logspace(-6.0, 12.0, 73), 1e150]:
        for p in (size, -size):
            for sign in (1, -1):
                sol = plane_wave_solution(p, 1.0, sign)
                assert dirac_residual(sol) <= 1e-12 * max(1.0, abs(sol.energy))


@pytest.mark.parametrize("mass", [1e-6, 1e6, 1e10])
def test_plane_waves_build_at_extreme_masses(mass):
    for sign in (1, -1):
        sol = plane_wave_solution(0.5, mass, sign)
        assert sol.energy == pytest.approx(sign * np.hypot(mass, 0.5))


def test_momentum_to_zero_matches_rest_frame():
    rest = rest_frame_solutions(1.0)
    for sign, index in [(1, 0), (-1, 1)]:
        sol = plane_wave_solution(1e-8, 1.0, sign)
        assert np.max(np.abs(sol.spinor - rest[index].spinor)) <= 1e-7


def test_opposite_energy_solutions_are_orthogonal():
    plus = plane_wave_solution(0.5, 1.0, 1)
    minus = plane_wave_solution(0.5, 1.0, -1)
    assert abs(np.vdot(plus.spinor, minus.spinor)) <= 1e-15


def test_closed_forms_match_eigh(lattice64):
    """The oracle: ``np.linalg.eigh`` of h(p) = sigma_1 p + sigma_3 m,
    built here, against the closed-form u_-, u_+ and their energies, to
    1e-15 relative (3.0e-16 at worst), at every lattice momentum of the
    default spec and p in {-3, 1e5, 1e150}, for m from 1e-3 to 1e6."""
    momenta = [*lattice64.momenta, -3.0, 1e5, 1e150]
    worst = 0.0
    for m in np.logspace(-3.0, 6.0, 10):
        for p in momenta:
            values, vectors = np.linalg.eigh(np.array([[m, p], [p, -m]]))
            for column, sign in enumerate((-1, 1)):
                sol = plane_wave_solution(p, m, sign)
                vector = vectors[:, column]
                # eigh fixes each eigenvector only up to its sign
                vector = vector * np.sign(np.vdot(vector, sol.spinor).real)
                worst = max(worst, abs(values[column] - sol.energy) / abs(sol.energy),
                            float(np.max(np.abs(vector - sol.spinor))))
    assert worst <= 1e-15


@pytest.mark.parametrize(
    ("kwargs", "field"),
    [
        (dict(p=[0.5, 0.0], m=1.0, energy_sign=1), "p"),
        (dict(p=0.5, m=0.0, energy_sign=1), "m"),
        (dict(p=0.5, m=1.0, energy_sign=0), "energy_sign"),
        (dict(p="0.5,0", m=1.0, energy_sign=1), "p"),
        (dict(p=np.nan, m=1.0, energy_sign=1), "p and m"),
        (dict(p=-np.inf, m=1.0, energy_sign=-1), "p and m"),
        (dict(p=1e200, m=1.0, energy_sign=1), "p and m"),
    ],
)
def test_invalid_solution_request_names_field(kwargs, field):
    with pytest.raises(ValidationError, match=field):
        plane_wave_solution(**kwargs)


def test_matrices_are_read_only():
    g0, _ = gamma_matrices()
    with pytest.raises(ValueError):
        g0[0, 0] = 5.0
    with pytest.raises(ValueError):
        plane_wave_solution(0.5, 1.0, 1).spinor[0] = 5.0


def test_matrix_set_is_fresh_per_call():
    assert gamma_matrices()[0] is not gamma_matrices()[0]
