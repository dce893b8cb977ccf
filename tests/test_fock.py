"""Truncated two-species Fock space: algebra, field VEVs, named checks."""
import math

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from scipy.sparse.linalg import ArpackNoConvergence

from boxqft.fock import (
    FockState,
    ModeOperator,
    a_dag,
    a_op,
    antiparticle_energy_check,
    antiparticle_phase_check,
    apply,
    b_dag,
    b_op,
    confirmation_inner,
    field_operator,
    hamiltonian_operator,
    make_mode_spec,
    matrix_norm,
    mode_spec_from_lattice,
    momentum_operator,
    momentum_sign_check,
    operator_matrix,
    oscillator_quadratures,
    reinterpretation_check,
    time_ordered_vev,
    time_ordered_vev_detail,
    translation_generator_check,
    vacuum,
    vev_adjoint_field,
    vev_field_adjoint,
)
from boxqft.lattice import ValidationError
from boxqft.propagators import KernelKind, eval_kernel

L = 10.0
TWO_PI_OVER_L = 2.0 * math.pi / L


@pytest.fixture(scope="module")
def spec3(lattice64_module):
    return mode_spec_from_lattice(lattice64_module, max_occupation=1, half_width=1)


@pytest.fixture(scope="module")
def lattice64_module():
    from boxqft.lattice import LatticeSpec, build_lattice

    return build_lattice(LatticeSpec())


# --- mode specs -------------------------------------------------------------

def test_make_mode_spec_basic():
    spec = make_mode_spec([-TWO_PI_OVER_L, 0.0, TWO_PI_OVER_L], 1.0, L, 2)
    assert spec.n_modes == 3
    assert spec.basis_dim == 3 ** 6  # (N_max + 1)^(2 * modes)
    assert spec.is_negation_closed
    w = math.sqrt(1.0 + TWO_PI_OVER_L**2)
    assert spec.mode_coefficient(2) == pytest.approx(1.0 / math.sqrt(2.0 * w * L))


@pytest.mark.parametrize(
    ("momenta", "kwargs", "field"),
    [
        ([], {}, "momenta"),
        ([0.0, 0.0], {}, "momenta"),
        ([0.0], {"max_occupation": 0}, "max_occupation"),
        ([0.0], {"mass": 0.0}, "mass"),
        ([0.0], {"box_length": 0.0}, "box_length"),
    ],
)
def test_mode_spec_validation(momenta, kwargs, field):
    params = dict(mass=1.0, box_length=L, max_occupation=1)
    params.update(kwargs)
    with pytest.raises(ValidationError, match=field):
        make_mode_spec(momenta, params["mass"], params["box_length"],
                       params["max_occupation"])


def test_mode_spec_from_lattice_full_and_windowed(lattice64_module):
    full = mode_spec_from_lattice(lattice64_module)
    assert full.n_modes == 63
    windowed = mode_spec_from_lattice(lattice64_module, half_width=2)
    assert windowed.n_modes == 5
    np.testing.assert_allclose(
        windowed.momenta,
        TWO_PI_OVER_L * np.array([-2.0, -1.0, 0.0, 1.0, 2.0]),
        atol=1e-15,
    )


def test_negation_index_maps_partners(spec3):
    neg = spec3.negation_index()
    for i, k in enumerate(spec3.momenta):
        assert spec3.momenta[neg[i]] == pytest.approx(-k, abs=0)


def test_negation_index_requires_closure():
    spec = make_mode_spec([0.0, TWO_PI_OVER_L], 1.0, L, 1)
    assert not spec.is_negation_closed
    with pytest.raises(ValidationError, match="negation"):
        spec.negation_index()


# --- states and ladder algebra ---------------------------------------------

def test_vacuum_is_normalized(spec3):
    assert vacuum(spec3).norm() == 1.0


def test_inner_product_is_hermitian(spec3):
    vac = vacuum(spec3)
    s1 = apply(a_dag(0) + 0.5j * b_dag(1), vac)
    s2 = apply(a_dag(0) - 2.0 * b_dag(1) + a_dag(2), vac)
    assert s1.inner(s2) == pytest.approx(s2.inner(s1).conjugate())
    assert s1.inner(s1).imag == 0.0


def test_ladder_sqrt_factors():
    spec = make_mode_spec([0.0], 1.0, L, 3)
    vac = vacuum(spec)
    two = apply(a_dag(0), apply(a_dag(0), vac))
    assert two.norm() == pytest.approx(math.sqrt(2.0))
    back = apply(a_op(0), two)
    # a (a_dag)^2 |0> = 2 a_dag |0>
    assert back.norm() == pytest.approx(2.0)


def test_annihilating_vacuum_gives_zero_state(spec3):
    vac = vacuum(spec3)
    assert apply(a_op(1), vac).amplitudes == {}
    assert apply(b_op(2), vac).amplitudes == {}
    assert apply(a_op(1), vac).truncation_events == 0


def test_canonical_commutator_below_ceiling():
    spec = make_mode_spec([0.0, TWO_PI_OVER_L, -TWO_PI_OVER_L], 1.0, L, 3)
    comm = a_op(0) @ a_dag(0) - a_dag(0) @ a_op(0)
    for state in (vacuum(spec), apply(a_dag(0), vacuum(spec))):
        out = apply(comm, state)
        diff = {
            key: out.amplitudes.get(key, 0) - state.amplitudes.get(key, 0)
            for key in set(out.amplitudes) | set(state.amplitudes)
        }
        assert max(abs(v) for v in diff.values()) <= 1e-15


def test_cross_species_operators_commute(spec3):
    comm = a_op(0) @ b_dag(0) - b_dag(0) @ a_op(0)
    assert apply(comm, vacuum(spec3)).amplitudes == {}


def test_truncation_event_counted():
    spec = make_mode_spec([0.0], 1.0, L, 1)
    once = apply(a_dag(0), vacuum(spec))
    twice = apply(a_dag(0), once)
    assert twice.amplitudes == {}
    assert twice.truncation_events == 1
    thrice = apply(a_dag(0), twice)  # nothing left to truncate
    assert thrice.truncation_events == 1


def test_mode_index_out_of_range_rejected(spec3):
    with pytest.raises(ValidationError, match="mode index"):
        apply(a_dag(7), vacuum(spec3))


def test_adjoint_matches_conjugate_transpose(spec3):
    op = field_operator(spec3, 0.3, 1.2)
    mat = operator_matrix(op, spec3)
    mat_dag = operator_matrix(op.adjoint(), spec3)
    assert matrix_norm(mat_dag - mat.conj().T) <= 1e-15


def test_operator_product_matches_matrix_product():
    spec = make_mode_spec([0.0, TWO_PI_OVER_L], 1.0, L, 1)
    ab = operator_matrix(a_dag(0) @ b_dag(1), spec)
    a_mat = operator_matrix(a_dag(0), spec)
    b_mat = operator_matrix(b_dag(1), spec)
    assert matrix_norm(ab - a_mat @ b_mat) <= 1e-15


# --- field two-point functions ---------------------------------------------

def test_ordered_vevs_match_wightman_kernels(lattice16):
    spec = mode_spec_from_lattice(lattice16)
    x, y = (0.9, 1.7), (0.2, 6.1)
    d = (x[0] - y[0], x[1] - y[1])
    dp = eval_kernel(lattice16, KernelKind.WIGHTMAN_PLUS, *d)
    dm = eval_kernel(lattice16, KernelKind.WIGHTMAN_MINUS, *d)
    comm = eval_kernel(lattice16, KernelKind.COMMUTATOR, *d)
    had = eval_kernel(lattice16, KernelKind.HADAMARD, *d)

    forward = vev_field_adjoint(spec, x, y)
    reverse = vev_adjoint_field(spec, x, y)
    assert abs(forward - dp) <= 1e-14
    assert abs(reverse + dm) <= 1e-14  # <adjoint first> = -D_minus
    assert abs((forward - reverse) - comm) <= 1e-14
    assert abs(0.5 * (forward + reverse) - had) <= 1e-14


@pytest.mark.parametrize("later_first", [True, False])
def test_time_ordered_vev_equals_feynman(lattice16, later_first):
    spec = mode_spec_from_lattice(lattice16)
    t1, t2 = (1.1, 0.4) if later_first else (0.4, 1.1)
    x, y = (t1, 2.2), (t2, 8.6)
    vev, truncations = time_ordered_vev_detail(spec, x, y)
    kernel = eval_kernel(lattice16, KernelKind.FEYNMAN, t1 - t2, 2.2 - 8.6)
    assert abs(vev - kernel) <= 1e-10
    assert truncations == 0


def test_equal_times_rejected(lattice16):
    spec = mode_spec_from_lattice(lattice16, half_width=1)
    with pytest.raises(ValidationError, match="equal times"):
        time_ordered_vev(spec, (0.5, 1.0), (0.5, 2.0))


def test_confirmation_inner_probe(spec3):
    vac = vacuum(spec3)
    assert confirmation_inner(spec3, 1, vac) == 0.0
    one_b = apply(b_dag(1), vac)
    assert confirmation_inner(spec3, 1, one_b) == pytest.approx(1.0)
    # applied to the field, the probe reads off the b_dag coefficient
    t, x = 0.7, 2.9
    state = apply(field_operator(spec3, t, x), vac)
    k = spec3.momenta[1]
    w = spec3.frequencies[1]
    expected = spec3.mode_coefficient(1) * np.exp(-1j * (k * x - w * t))
    assert confirmation_inner(spec3, 1, state) == pytest.approx(expected)


# --- conserved-quantity operators ------------------------------------------

def test_energy_and_momentum_eigenvalues(spec3):
    vac = vacuum(spec3)
    h = hamiltonian_operator(spec3)
    p = momentum_operator(spec3)
    for i in range(spec3.n_modes):
        for make in (a_dag, b_dag):
            one = apply(make(i), vac)
            h_one = apply(h, one)
            p_one = apply(p, one)
            assert one.inner(h_one) == pytest.approx(spec3.frequencies[i])
            assert one.inner(p_one) == pytest.approx(spec3.momenta[i], abs=1e-15)
    assert apply(h, vac).amplitudes == {}  # normal ordering: zero-point free


def test_antiparticle_phase_and_energy_checks():
    spec = make_mode_spec([TWO_PI_OVER_L * 3], 1.0, L, 2)
    assert antiparticle_phase_check(spec, 0, 0.85) <= 1e-13
    assert antiparticle_energy_check(spec, 0) <= 1e-12


def test_oscillator_quadratures_at_time_zero():
    spec = make_mode_spec([TWO_PI_OVER_L * 2], 1.0, L, 2)
    ret = oscillator_quadratures(spec, 0, 0.0, phase="retarded")
    adv = oscillator_quadratures(spec, 0, 0.0, phase="advanced")
    q_diff = operator_matrix(ret.q_operator - adv.q_operator, spec)
    p_sum = operator_matrix(ret.p_operator + adv.p_operator, spec)
    assert matrix_norm(q_diff) == 0.0  # same position operator at t=0
    assert matrix_norm(p_sum) == 0.0  # momenta exactly opposite at t=0


def test_momentum_sign_check_residual():
    spec = make_mode_spec([TWO_PI_OVER_L * 2], 1.0, L, 2)
    for t in (0.0, 0.6, -1.3):
        assert momentum_sign_check(spec, 0, t) <= 1e-13


def test_invalid_quadrature_phase_rejected():
    spec = make_mode_spec([0.0], 1.0, L, 2)
    with pytest.raises(ValidationError, match="phase"):
        oscillator_quadratures(spec, 0, 0.0, phase="sideways")


def test_reinterpretation_check(spec3):
    for t, x in [(0.0, 0.0), (0.8, 3.3), (-1.4, 7.1)]:
        assert reinterpretation_check(spec3, t, x) <= 1e-13


def test_reinterpretation_requires_closed_modes():
    spec = make_mode_spec([0.0, TWO_PI_OVER_L], 1.0, L, 1)
    with pytest.raises(ValidationError, match="negation"):
        reinterpretation_check(spec, 0.5, 1.0)


def test_translation_check_is_second_order(spec3):
    coarse = translation_generator_check(spec3, 0.3, 1.7, 0.1)
    fine = translation_generator_check(spec3, 0.3, 1.7, 0.05)
    assert 3.6 < coarse / fine < 4.4


def test_translation_check_is_second_order_on_wide_window(lattice64_module):
    spec = mode_spec_from_lattice(lattice64_module, max_occupation=1, half_width=3)
    assert spec.basis_dim == 1 << 14
    coarse = translation_generator_check(spec, 0.3, 1.7, 0.1)
    fine = translation_generator_check(spec, 0.3, 1.7, 0.05)
    assert 3.6 < coarse / fine < 4.4


# --- matrix materialization -------------------------------------------------
#
# The column-by-column route below (occupations of each basis index, one
# symbolic ``apply``, rows read back by index) is the materialization the
# Kronecker-built ``operator_matrix`` replaced; it stays here as its oracle.

def basis_index(spec, na, nb):
    """Mixed-radix index of an occupation pair (mode 0 least significant)."""
    base = spec.max_occupation + 1
    idx = 0
    for n in reversed(tuple(na) + tuple(nb)):
        assert 0 <= n < base
        idx = idx * base + n
    return idx


def basis_occupations(spec, index):
    """Inverse of :func:`basis_index`."""
    base = spec.max_occupation + 1
    digits = []
    for _ in range(2 * spec.n_modes):
        index, d = divmod(index, base)
        digits.append(d)
    assert index == 0
    m = spec.n_modes
    return tuple(digits[:m]), tuple(digits[m:])


def column_matrix(op, spec):
    """Dense matrix of ``op`` built by applying it to every basis state."""
    mat = np.zeros((spec.basis_dim, spec.basis_dim), dtype=complex)
    for col in range(spec.basis_dim):
        na, nb = basis_occupations(spec, col)
        image = apply(op, FockState(spec, {(na, nb): 1.0 + 0.0j}))
        for (ma, mb), amp in image.amplitudes.items():
            mat[basis_index(spec, ma, mb), col] += amp
    return mat


def random_mode_operator(rng, n_modes, n_terms=4, max_factors=3):
    terms = []
    for _ in range(n_terms):
        factors = tuple(
            (str(rng.choice(["a", "b"])), int(rng.integers(n_modes)), bool(rng.integers(2)))
            for _ in range(int(rng.integers(0, max_factors + 1)))
        )
        coeff = complex(rng.standard_normal(), rng.standard_normal())
        terms.append((coeff, factors))
    return ModeOperator(tuple(terms))


def test_basis_index_round_trip():
    spec = make_mode_spec([0.0, TWO_PI_OVER_L], 1.0, L, 1)
    seen = set()
    for idx in range(spec.basis_dim):
        na, nb = basis_occupations(spec, idx)
        assert basis_index(spec, na, nb) == idx
        seen.add((na, nb))
    assert len(seen) == spec.basis_dim


SPACE_SHAPES = [(m, c) for c in (1, 2, 3) for m in (1, 2, 3) if (m, c) != (3, 3)]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize(("n_modes", "ceiling"), SPACE_SHAPES)
def test_kronecker_matrix_matches_column_apply_oracle(n_modes, ceiling, seed):
    rng = np.random.default_rng([seed, n_modes, ceiling])
    spec = make_mode_spec(TWO_PI_OVER_L * np.arange(n_modes), 1.0, L, ceiling)
    op = random_mode_operator(rng, n_modes)
    mat = operator_matrix(op, spec)
    assert isinstance(mat, scipy.sparse.csr_matrix)
    np.testing.assert_array_equal(mat.toarray(), column_matrix(op, spec))


def test_kronecker_matrix_truncates_above_ceiling():
    spec = make_mode_spec([0.0, TWO_PI_OVER_L], 1.0, L, 1)
    pushed = a_dag(1) @ a_dag(1) + b_dag(0) @ b_dag(0) @ b_op(0)
    oracle = column_matrix(pushed, spec)
    assert not oracle.any()  # every column truncates
    assert operator_matrix(pushed, spec).nnz == 0
    mixed = 0.5j * (a_dag(0) @ a_dag(0) @ a_op(0)) + a_dag(0) @ b_dag(1)
    np.testing.assert_array_equal(
        operator_matrix(mixed, spec).toarray(), column_matrix(mixed, spec)
    )


def test_operator_matrix_rejects_mode_outside_set(spec3):
    with pytest.raises(ValidationError, match="mode index"):
        operator_matrix(a_dag(0) @ b_op(5), spec3)


def test_dense_and_sparse_matrix_paths():
    # dimensions that once took separate dense and sparse paths: both CSR now
    small = make_mode_spec([0.0], 1.0, L, 1)  # dim 4
    small_mat = operator_matrix(a_dag(0), small)
    assert isinstance(small_mat, scipy.sparse.csr_matrix)
    assert matrix_norm(small_mat) == pytest.approx(1.0)

    momenta = [TWO_PI_OVER_L * n for n in range(-3, 4)]
    big = make_mode_spec(momenta, 1.0, L, 1)  # dim 2^14
    big_mat = operator_matrix(a_dag(0), big)
    assert isinstance(big_mat, scipy.sparse.csr_matrix)
    assert matrix_norm(big_mat) == pytest.approx(1.0)


def test_matrix_norm_is_reproducible_and_matches_dense():
    spec = make_mode_spec([0.0, TWO_PI_OVER_L], 1.0, L, 2)
    mat = operator_matrix(field_operator(spec, 0.4, 2.3) @ a_dag(1), spec)
    first = matrix_norm(mat)
    assert matrix_norm(mat) == first
    assert first == pytest.approx(np.linalg.norm(mat.toarray(), 2), rel=1e-13)


def test_matrix_norm_of_tiny_matrix_is_exact():
    mat = scipy.sparse.csr_matrix(np.array([[3.0, 0.0], [4.0, 0.0]]))
    assert matrix_norm(mat) == 5.0


def test_matrix_norm_nonconvergence_propagates(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise ArpackNoConvergence("ARPACK error -1: No convergence", [], [])

    monkeypatch.setattr(scipy.sparse.linalg, "svds", no_convergence)
    spec = make_mode_spec([0.0], 1.0, L, 2)
    with pytest.raises(ArpackNoConvergence):
        matrix_norm(operator_matrix(a_dag(0), spec))


def test_matrix_norm_of_zero_operator():
    spec = make_mode_spec([0.0], 1.0, L, 1)
    zero = operator_matrix(a_op(0) @ a_op(0), spec)
    assert matrix_norm(zero) == 0.0


def test_number_operator_matrix_spectrum():
    spec = make_mode_spec([0.0], 1.0, L, 3)
    n_mat = operator_matrix(a_dag(0) @ a_op(0), spec)
    eigenvalues = np.linalg.eigvalsh(n_mat.toarray())
    # occupations 0..3 in both species: eigenvalues are 0,1,2,3
    assert set(np.round(eigenvalues).astype(int)) == {0, 1, 2, 3}
    assert matrix_norm(n_mat) == pytest.approx(3.0)


def test_state_requires_matching_spec(spec3):
    other = make_mode_spec([0.0], 1.0, L, 1)
    with pytest.raises(ValidationError, match="spec"):
        vacuum(spec3).inner(vacuum(other))
