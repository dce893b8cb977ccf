"""Spinor plane-wave solutions, algebra of the matrix set, currents."""
import numpy as np
import pytest

from boxqft.dirac import (
    METRIC,
    DiracMatrixSet,
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
    g = gamma_matrices()
    identity = np.eye(4)
    np.testing.assert_array_equal(g.gamma[0] @ g.gamma[0], identity)
    for i in (1, 2, 3):
        np.testing.assert_array_equal(g.gamma[i] @ g.gamma[i], -identity)


def test_metric_signature():
    np.testing.assert_array_equal(np.diag(METRIC), [1.0, -1.0, -1.0, -1.0])


@pytest.mark.parametrize(
    "p4", [(1.3, 0.2, -0.7, 0.4), (2.0, 0.0, 0.0, 0.0), (0.5, 0.5, 0.5, 0.5)]
)
def test_slash_squares_to_invariant(p4):
    g = gamma_matrices()
    p4 = np.asarray(p4)
    slash = g.slash(p4)
    invariant = p4[0] ** 2 - p4[1] ** 2 - p4[2] ** 2 - p4[3] ** 2
    assert np.max(np.abs(slash @ slash - invariant * np.eye(4))) <= 1e-15


def test_rest_frame_basis():
    solutions = rest_frame_solutions(1.0)
    assert [s.energy for s in solutions] == [1.0, 1.0, -1.0, -1.0]
    assert [s.index for s in solutions] == [1, 2, 3, 4]
    for sol in solutions:
        assert dirac_residual(sol) == 0.0
        current = probability_current(sol)
        np.testing.assert_array_equal(current, [1.0, 0.0, 0.0, 0.0])
    # the four spinors are the orthonormal basis vectors
    mat = np.array([s.spinor for s in solutions])
    np.testing.assert_array_equal(mat, np.eye(4))


@pytest.mark.parametrize("mass", [0.0, -1.0, float("nan"), float("inf")])
def test_bad_mass_rejected(mass):
    with pytest.raises(ValidationError, match="mass must be finite and positive"):
        rest_frame_solutions(mass)
    with pytest.raises(ValidationError, match="mass must be finite and positive"):
        plane_wave_solution([0.5, 0.0, 0.0], mass, 1, 1)


def test_rest_frame_scales_with_mass():
    solutions = rest_frame_solutions(2.5)
    assert [s.energy for s in solutions] == [2.5, 2.5, -2.5, -2.5]


@pytest.mark.parametrize("energy_sign", [1, -1])
@pytest.mark.parametrize("spin", [1, 2])
def test_plane_wave_solution_properties(energy_sign, spin):
    p = [0.5, 0.0, 0.0]
    sol = plane_wave_solution(p, 1.0, energy_sign, spin)
    assert dirac_residual(sol) <= 1e-15
    assert sol.energy == pytest.approx(energy_sign * np.sqrt(1.25))
    assert np.vdot(sol.spinor, sol.spinor).real == pytest.approx(1.0)
    current = probability_current(sol)
    assert current[0] == pytest.approx(1.0)  # unit density normalization
    # flux over density equals p over E, sign included
    assert current[1] / current[0] == pytest.approx(p[0] / sol.energy)


def test_negative_energy_flux_opposes_momentum_label():
    for spin in (1, 2):
        sol = plane_wave_solution([0.5, 0.0, 0.0], 1.0, -1, spin)
        current = probability_current(sol)
        assert current[0] > 0.0  # density stays positive
        assert current[1] * sol.momentum[0] < 0.0  # flux runs backwards


def test_positive_energy_flux_parallel_to_momentum():
    for spin in (1, 2):
        sol = plane_wave_solution([0.5, 0.0, 0.0], 1.0, 1, spin)
        current = probability_current(sol)
        assert current[1] * sol.momentum[0] > 0.0


def test_general_momentum_direction():
    p = np.array([0.3, -0.4, 0.2])
    for sign in (1, -1):
        sol = plane_wave_solution(p, 1.0, sign, 1)
        current = probability_current(sol)
        flux = current[1:]
        alignment = float(flux @ p)
        assert alignment > 0 if sign == 1 else alignment < 0
        # |flux| / density = |p| / |E|
        assert np.linalg.norm(flux) == pytest.approx(
            np.linalg.norm(p) / abs(sol.energy)
        )


def test_plane_waves_build_across_momentum_scales():
    """Every energy sign and spin builds at 73 log-spaced |p| from 1e-6 to
    1e12 along four directions: the field-equation bound scales with the
    contraction matrix, whose entries grow with E (an absolute 1e-12
    rejected |p| from about 5.6e3 up)."""
    directions = [np.array(d, dtype=float) / np.linalg.norm(d)
                  for d in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 2, 3))]
    for size in np.logspace(-6.0, 12.0, 73):
        for direction in directions:
            for sign in (1, -1):
                for spin in (1, 2):
                    sol = plane_wave_solution(size * direction, 1.0, sign, spin)
                    # 2|E| is the contraction's largest singular value
                    assert dirac_residual(sol) <= 1e-12 * max(1.0, 2.0 * abs(sol.energy))


@pytest.mark.parametrize("mass", [1e-6, 1e6, 1e10])
def test_plane_waves_build_at_extreme_masses(mass):
    for sign in (1, -1):
        for spin in (1, 2):
            sol = plane_wave_solution([0.5, 0.0, 0.0], mass, sign, spin)
            assert sol.energy == pytest.approx(sign * np.hypot(mass, 0.5))


def test_momentum_to_zero_matches_rest_frame():
    rest = rest_frame_solutions(1.0)
    for sign, spin, index in [(1, 1, 0), (1, 2, 1), (-1, 1, 2), (-1, 2, 3)]:
        sol = plane_wave_solution([1e-8, 0.0, 0.0], 1.0, sign, spin)
        assert np.max(np.abs(sol.spinor - rest[index].spinor)) <= 1e-7


def test_same_energy_spins_are_orthogonal():
    p = [0.5, 0.0, 0.0]
    for sign in (1, -1):
        s1 = plane_wave_solution(p, 1.0, sign, 1)
        s2 = plane_wave_solution(p, 1.0, sign, 2)
        assert abs(np.vdot(s1.spinor, s2.spinor)) <= 1e-15


def test_opposite_energy_solutions_are_orthogonal():
    p = [0.5, 0.0, 0.0]
    for spin in (1, 2):
        plus = plane_wave_solution(p, 1.0, 1, spin)
        minus = plane_wave_solution(p, 1.0, -1, spin)
        assert abs(np.vdot(plus.spinor, minus.spinor)) <= 1e-15


def test_solution_indices_cover_both_branches():
    indices = [
        plane_wave_solution([0.5, 0.0, 0.0], 1.0, sign, spin).index
        for sign in (1, -1)
        for spin in (1, 2)
    ]
    assert indices == [1, 2, 3, 4]


@pytest.mark.parametrize(
    ("kwargs", "field"),
    [
        (dict(p=[0.5, 0.0], m=1.0, energy_sign=1, spin=1), "p"),
        (dict(p=[0.5, 0.0, 0.0], m=0.0, energy_sign=1, spin=1), "m"),
        (dict(p=[0.5, 0.0, 0.0], m=1.0, energy_sign=0, spin=1), "energy_sign"),
        (dict(p=[0.5, 0.0, 0.0], m=1.0, energy_sign=1, spin=3), "spin"),
        (dict(p=[np.nan, 0.0, 0.0], m=1.0, energy_sign=1, spin=1), "p and m"),
        (dict(p=[0.0, -np.inf, 0.0], m=1.0, energy_sign=-1, spin=1), "p and m"),
        (dict(p=[1e200, 0.0, 0.0], m=1.0, energy_sign=1, spin=2), "p and m"),
    ],
)
def test_invalid_solution_request_names_field(kwargs, field):
    with pytest.raises(ValidationError, match=field):
        plane_wave_solution(**kwargs)


def test_matrices_are_read_only():
    g = gamma_matrices()
    with pytest.raises(ValueError):
        g.gamma[0][0, 0] = 5.0


def test_matrix_set_is_fresh_per_call():
    assert gamma_matrices().gamma[0] is not gamma_matrices().gamma[0]
    g = gamma_matrices()
    assert isinstance(g, DiracMatrixSet)
