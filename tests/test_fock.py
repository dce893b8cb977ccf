"""Truncated two-species Fock space: algebra, field VEVs, named checks."""
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

from boxqft import fock
from boxqft.fock import (
    DENSE_NORM_MAX_SIDE,
    MATRIX_DIMENSION_CAP,
    FockMatrix,
    FockState,
    ModeOperator,
    a_dag,
    a_op,
    antiparticle_energy_check,
    antiparticle_phase_check,
    apply,
    b_dag,
    b_op,
    field_operator,
    hilbert_schmidt_norm,
    make_mode_spec,
    matrix_norm,
    mode_spec_from_lattice,
    momentum_sign_check,
    operator_matrix,
    oscillator_momentum,
    reinterpretation_check,
    time_ordered_vev_detail,
    translation_generator_check,
    vacuum,
)
from boxqft.lattice import NumericalFailure, ValidationError
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
    assert spec.negation_index() == (2, 1, 0)
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
        ([0.0], {"mass": math.nan}, "mass"),
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


@pytest.mark.parametrize(
    ("momenta", "frequencies", "box_length", "field"),
    [((0.0,), (1.0,), math.nan, "box_length"), ((0.0,), (math.nan,), L, "frequencies"),
     ((0.0,), (math.inf,), L, "frequencies"), ((math.nan,), (1.0,), L, "momenta")],
)
def test_mode_spec_rejects_non_finite_fields(momenta, frequencies, box_length, field):
    with pytest.raises(ValidationError, match=f"{field} must be finite"):
        fock.ModeSpec(momenta, frequencies, box_length)


def test_negation_index_requires_closure():
    spec = make_mode_spec([0.0, TWO_PI_OVER_L], 1.0, L, 1)
    with pytest.raises(ValidationError, match="negation"):
        spec.negation_index()


# --- states and ladder algebra ---------------------------------------------

def test_vacuum_is_normalized(spec3):
    assert vacuum(spec3).norm() == 1.0


def test_batch_norm_matches_one_point_norms_bitwise():
    """norm() of a batch of field states Psi(t, x)|0> is an array of the
    batch's shape whose entries carry the bits of each one-point state's
    float norm."""
    spec = make_mode_spec([-TWO_PI_OVER_L, 0.0, TWO_PI_OVER_L], 1.3, L, 2)
    t = np.array([[0.1, -1.7, 0.0], [2.0, 0.35, -0.6]])
    x = np.array([[1.0, 2.0, 9.9], [0.0, -3.5, 4.25]])
    got = apply(field_operator(spec, t, x), vacuum(spec)).norm()
    assert isinstance(got, np.ndarray) and got.shape == t.shape
    for index in np.ndindex(t.shape):
        one = apply(field_operator(spec, float(t[index]), float(x[index])), vacuum(spec))
        want = one.norm()
        assert type(want) is float
        assert float(got[index]).hex() == want.hex()


def test_batch_of_two_fields_matches_one_point_states_bitwise():
    """Psi applied twice to the vacuum on a 2 x 3 batch, five modes at
    ceiling 2: every amplitude carries the bits of the one-point state's.
    Both factors of apply's products are general complex numbers here,
    which numpy's vectorised complex multiply may round differently from
    the scalar product."""
    spec = make_mode_spec(TWO_PI_OVER_L * np.arange(-2.0, 3.0), 0.9, L, 2)
    t = np.array([[0.1, -1.7, 0.0], [2.0, 0.35, -0.6]])
    x = np.array([[1.0, 2.0, 9.9], [0.0, -3.5, 4.25]])
    field = field_operator(spec, t, x)
    got = apply(field, apply(field, vacuum(spec))).amplitudes
    for index in np.ndindex(t.shape):
        one_field = field_operator(spec, float(t[index]), float(x[index]))
        want = apply(one_field, apply(one_field, vacuum(spec))).amplitudes
        assert set(want) <= set(got)
        for key, amplitude in got.items():
            value = complex(amplitude[index])
            expected = want.get(key, 0j)
            assert (value.real.hex(), value.imag.hex()) == (
                expected.real.hex(), expected.imag.hex()), (index, key)


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


def test_mode_index_checked_before_the_state_is_read():
    """A factor no component reaches, and an empty state, still raise the
    error operator_matrix raises for the same operator."""
    spec = make_mode_spec([0.0], 1.0, L, 1)
    op = a_dag(7) @ a_op(0)  # a_op(0) empties the vacuum before a_dag(7)
    message = "mode index 7 outside mode set of size 1"
    with pytest.raises(ValidationError, match=message):
        operator_matrix(op, spec)
    for state in (vacuum(spec), FockState(spec, {})):
        with pytest.raises(ValidationError, match=message):
            apply(op, state)
    with pytest.raises(ValidationError, match=message):
        operator_matrix(0.0 * a_dag(7) + a_op(0), spec)
    with pytest.raises(ValidationError, match=message):
        apply(0.0 * a_dag(7) + a_op(0), vacuum(spec))


def test_adjoint_matches_conjugate_transpose(spec3):
    op = field_operator(spec3, 0.3, 1.2)
    mat = operator_matrix(op, spec3)
    mat_dag = operator_matrix(op.adjoint(), spec3)
    np.testing.assert_array_equal(mat_dag.toarray(), mat.toarray().conj().T)


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

    forward, _ = fock._ordered_vev(spec, x, y, adjoint_first=False)
    reverse, _ = fock._ordered_vev(spec, x, y, adjoint_first=True)
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


def _two_apply_vev(spec, x, y, adjoint_first):
    """Oracle for the ordered VEVs: build the two-quantum ket A B|0> by
    two applications and read its vacuum amplitude."""
    psi_x = field_operator(spec, *x)
    psi_dag_y = field_operator(spec, *y).adjoint()
    vac = vacuum(spec)
    first, second = (psi_dag_y, psi_x) if adjoint_first else (psi_x, psi_dag_y)
    ket = apply(first, apply(second, vac))
    return vac.inner(ket), ket.truncation_events


@pytest.mark.parametrize("ceiling", [1, 2])
def test_ordered_vevs_match_two_apply_oracle(lattice16, ceiling):
    """<0|A B|0> read as <A_dag 0|B 0> equals, bit for bit, the vacuum
    amplitude of the two-quantum ket A B|0>, in both operator orders, at
    seeded point pairs: both sum the same mode products in the same order."""
    spec = mode_spec_from_lattice(lattice16, max_occupation=ceiling)
    rng = np.random.default_rng(11)
    for _ in range(6):
        t1, t2 = rng.uniform(-2.0, 2.0, size=2)
        x1, x2 = rng.uniform(0.0, L, size=2)
        x, y = (t1, x1), (t2, x2)
        for adjoint_first in (False, True):
            want, want_truncations = _two_apply_vev(spec, x, y, adjoint_first)
            assert fock._ordered_vev(spec, x, y, adjoint_first)[0] == want
            assert want_truncations == 0
        for later, earlier in ((x, y), (y, x)):
            got, truncations = time_ordered_vev_detail(spec, later, earlier)
            want, want_truncations = _two_apply_vev(spec, later, earlier, later[0] < earlier[0])
            assert got == want
            assert truncations == want_truncations


def test_equal_times_rejected(lattice16):
    spec = mode_spec_from_lattice(lattice16, half_width=1)
    with pytest.raises(ValidationError, match="equal times"):
        time_ordered_vev_detail(spec, (0.5, 1.0), (0.5, 2.0))


def test_scalar_vev_is_a_python_complex(lattice16):
    spec = mode_spec_from_lattice(lattice16, half_width=2)
    for later, earlier in (((1.1, 2.2), (0.4, 8.6)), ((0.4, 8.6), (1.1, 2.2))):
        vev, truncations = time_ordered_vev_detail(spec, later, earlier)
        assert type(vev) is complex and type(truncations) is int
        batch, _ = time_ordered_vev_detail(
            spec, *(tuple(np.array([v]) for v in point) for point in (later, earlier)))
        assert batch.shape == (1,) and batch[0] == vev


def test_batched_equal_times_rejected_naming_the_time(lattice16):
    spec = mode_spec_from_lattice(lattice16, half_width=1)
    x = (np.array([0.1, 0.5, 0.9]), np.array([1.0, 2.0, 3.0]))
    y = (np.array([0.2, 0.5, 0.3]), np.array([4.0, 5.0, 6.0]))
    with pytest.raises(ValidationError, match=r"equal times t=0\.5;"):
        time_ordered_vev_detail(spec, x, y)


@pytest.mark.parametrize(("entry", "field", "value"), [
    (0, "t", math.nan), (1, "x", math.inf), (2, "t", -math.inf), (3, "x", math.nan),
])
def test_batched_non_finite_point_rejected_naming_field_and_value(lattice16, entry, field, value):
    """A nan or inf at any entry of the four point arrays is rejected
    naming its field and the value; field_operator does the same."""
    spec = mode_spec_from_lattice(lattice16, half_width=1)
    arrays = [np.array([0.3, 0.7, -1.2]), np.array([1.0, 2.0, 3.0]),
              np.array([0.1, 1.5, 0.4]), np.array([4.0, 5.0, 6.0])]
    arrays[entry][1] = value
    with pytest.raises(ValidationError, match=f"^{field} must be finite, got {value}$"):
        time_ordered_vev_detail(spec, tuple(arrays[:2]), tuple(arrays[2:]))
    if entry < 2:
        with pytest.raises(ValidationError, match=f"^{field} must be finite, got {value}$"):
            field_operator(spec, *arrays[:2])


def test_operator_matrix_rejects_array_coefficients(spec3):
    """A batch of operators has no one matrix: the build refuses it
    rather than letting a numpy broadcast error escape."""
    batch = field_operator(spec3, np.array([0.1, 0.2]), np.array([1.0, 2.0]))
    with pytest.raises(ValidationError, match=r"not a batch: a coefficient has shape \(2,\)"):
        operator_matrix(batch, spec3)


def test_batched_truncation_counts_once_per_entry(spec3):
    """a_dag a_dag on the vacuum at ceiling 1 truncates at every entry of
    a batch; all-zero coefficients are skipped, as a scalar zero is."""
    coefficients = np.array([1.0, 2.0, 3.0]) + 0j
    creation = ModeOperator(((coefficients, (("a", 0, True), ("a", 0, True))),))
    state = apply(creation, vacuum(spec3))
    assert state.amplitudes == {} and state.truncation_events == 3
    skipped = ModeOperator(((np.zeros(3, dtype=complex), (("a", 0, True), ("a", 0, True))),))
    assert apply(skipped, vacuum(spec3)).truncation_events == 0


def test_batched_apply_and_inner_match_scalar_entries(spec3):
    """Each entry of a batched field applied to the vacuum, and of the
    inner products of such states, equals the scalar call at that point."""
    ts, xs = np.array([-1.3, 0.0, 0.4, 1.9]), np.array([0.2, 3.3, 9.9, 5.0])
    vac = vacuum(spec3)
    bra = apply(field_operator(spec3, ts, xs).adjoint(), vac)
    ket = apply(field_operator(spec3, ts[::-1], xs).adjoint(), vac)
    products = bra.inner(ket)
    for idx, (t, x) in enumerate(zip(ts.tolist(), xs.tolist())):
        scalar_bra = apply(field_operator(spec3, t, x).adjoint(), vac)
        scalar_ket = apply(field_operator(spec3, ts[::-1][idx], x).adjoint(), vac)
        assert bra.amplitudes.keys() == scalar_bra.amplitudes.keys()
        for key, amp in scalar_bra.amplitudes.items():
            assert bra.amplitudes[key][idx] == amp
        assert products[idx] == scalar_bra.inner(scalar_ket)


# --- conserved-quantity operators ------------------------------------------

def test_energy_and_momentum_eigenvalues(spec3):
    vac = vacuum(spec3)
    h = fock._number_operator(spec3.frequencies)
    p = fock._number_operator(spec3.momenta)
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
    ret = oscillator_momentum(spec, 0, 0.0, phase="retarded")
    adv = oscillator_momentum(spec, 0, 0.0, phase="advanced")
    p_sum = operator_matrix(ret + adv, spec)
    assert matrix_norm(p_sum) == 0.0  # momenta exactly opposite at t=0


def test_momentum_sign_check_residual():
    spec = make_mode_spec([TWO_PI_OVER_L * 2], 1.0, L, 2)
    for t in (0.0, 0.6, -1.3):
        assert momentum_sign_check(spec, 0, t) <= 1e-13


@pytest.fixture()
def builds(monkeypatch):
    """The term counts of the operators fock.operator_matrix materializes."""
    seen = []
    original = fock.operator_matrix

    def counting(op, spec):
        seen.append(len(op.terms))
        return original(op, spec)

    monkeypatch.setattr(fock, "operator_matrix", counting)
    return seen


@pytest.mark.parametrize(("t", "x"), [(0.0, 0.0), (0.6, 3.3), (-1.3, 7.1), (1.97, 9.4)])
def test_one_build_sums_match_csr_arithmetic(spec3, t, x):
    """A + B and A - B materialized as one operator have the entries of A
    and B materialized apart and added or subtracted, both as Fock
    matrices and as scipy CSR matrices, when every
    entry gets at most one term from each side, as in the residuals of
    checks 05, 06 and 07.  Those residuals cancel to zero, so the sides
    here are taken at points where they do not."""
    one_mode = make_mode_spec([TWO_PI_OVER_L * 2], 1.0, L, 2)
    sides = [
        (one_mode, oscillator_momentum(one_mode, 0, t, "advanced"),
         oscillator_momentum(one_mode, 0, 0.5 - t, "retarded")),
        (spec3, field_operator(spec3, t, x + 0.1), field_operator(spec3, t + 0.3, x - 0.1)),
    ]
    for spec, a, b in sides:
        mat_a, mat_b = operator_matrix(a, spec), operator_matrix(b, spec)
        csr_a, csr_b = to_csr(mat_a), to_csr(mat_b)
        for one_build, fock_sum, csr_sum in (
            (operator_matrix(a + b, spec), mat_a + mat_b, csr_a + csr_b),
            (operator_matrix(a - b, spec), mat_a - mat_b, csr_a - csr_b),
        ):
            assert_same_entries(one_build, csr_sum)
            assert_same_entries(fock_sum, csr_sum)


def test_momentum_sign_and_relabel_checks_build_once(spec3, builds):
    momentum_sign_check(make_mode_spec([TWO_PI_OVER_L * 2], 1.0, L, 2), 0, 0.6)
    assert builds == [4]  # p_adv(t) + p_ret(-t): two terms each
    reinterpretation_check(spec3, 0.8, 3.3)
    assert builds == [4, 4 * spec3.n_modes]  # form A - form B: two terms per mode each


def test_invalid_quadrature_phase_rejected():
    spec = make_mode_spec([0.0], 1.0, L, 2)
    with pytest.raises(ValidationError, match="phase"):
        oscillator_momentum(spec, 0, 0.0, phase="sideways")


def test_reinterpretation_check(spec3):
    for t, x in [(0.0, 0.0), (0.8, 3.3), (-1.4, 7.1)]:
        assert reinterpretation_check(spec3, t, x) <= 1e-13


def test_reinterpretation_requires_closed_modes():
    spec = make_mode_spec([0.0, TWO_PI_OVER_L], 1.0, L, 1)
    with pytest.raises(ValidationError, match="negation"):
        reinterpretation_check(spec, 0.5, 1.0)


@pytest.mark.parametrize(("call", "field"), [
    (lambda spec: antiparticle_phase_check(spec, 0, math.inf), "t"),
    (lambda spec: momentum_sign_check(spec, 0, math.nan), "t"),
    (lambda spec: reinterpretation_check(spec, math.nan, 1.0), "t"),
    (lambda spec: reinterpretation_check(spec, 0.5, -math.inf), "x"),
    (lambda spec: translation_generator_check(spec, 0.3, math.nan, [0.1]), "x"),
    (lambda spec: oscillator_momentum(spec, 0, -math.inf, "retarded"), "t"),
    (lambda spec: field_operator(spec, 0.2, math.inf), "x"),
    (lambda spec: time_ordered_vev_detail(spec, (math.nan, 0.0), (0.5, 1.0)), "t"),
], ids=["phase-inf", "momentum-nan", "relabel-t-nan", "relabel-x-inf", "translation-x-nan",
        "quadratures-t-inf", "field-x-inf", "vev-t-nan"])
def test_non_finite_times_and_positions_rejected_naming_the_field(spec3, call, field):
    """A nan or inf time or position is rejected where it enters, not
    carried into a matrix whose norm LAPACK cannot take ("SVD did not
    converge")."""
    with pytest.raises(ValidationError, match=f"^{field} must be finite"):
        call(spec3)


def test_translation_check_is_second_order(spec3):
    coarse, fine = translation_generator_check(spec3, 0.3, 1.7, [0.1, 0.05])
    assert 3.6 < coarse / fine < 4.4


def test_translation_check_is_second_order_on_wide_window(lattice64_module):
    spec = mode_spec_from_lattice(lattice64_module, max_occupation=1, half_width=3)
    assert spec.basis_dim == 1 << 14
    coarse, fine = translation_generator_check(spec, 0.3, 1.7, [0.1, 0.05])
    assert 3.6 < coarse / fine < 4.4


def _single_step_residual(spec, t, x, dx):
    """One step's residual matrix, building P, Psi(t, x) and the
    commutator for that step alone, and the two shifted fields, each
    scaled by i / (2 dx), as two separate builds."""
    p_mat = operator_matrix(fock._number_operator(spec.momenta), spec)
    psi = operator_matrix(field_operator(spec, t, x), spec)
    scale = 0.5j / dx
    psi_plus = operator_matrix(field_operator(spec, t, x + dx) * scale, spec)
    psi_minus = operator_matrix(field_operator(spec, t, x - dx) * scale, spec)
    commutator = p_mat @ psi - psi @ p_mat
    return commutator - (psi_plus - psi_minus)


@pytest.mark.parametrize("half_width", [1, 2])
def test_translation_residuals_match_single_step_oracle(lattice64_module, half_width):
    """Sides 64 and 1,024: each step's residual has the bits of a call that
    builds everything for that step alone."""
    spec = mode_spec_from_lattice(lattice64_module, max_occupation=1, half_width=half_width)
    dxs = np.array([0.1, 0.05, 0.025, 0.3])
    got = translation_generator_check(spec, -0.6, 8.2, dxs)
    assert got == [hilbert_schmidt_norm(_single_step_residual(spec, -0.6, 8.2, dx))
                   for dx in dxs]
    assert translation_generator_check(spec, -0.6, 8.2, [0.05]) == got[1:2]


def test_translation_check_builds_the_commutator_once(spec3, builds):
    """P and Psi(t, x) once, then one build of Psi(x + dx) - Psi(x - dx)
    per step."""
    translation_generator_check(spec3, 0.3, 1.7, [0.1, 0.05, 0.025])
    assert len(builds) == 2 + 3
    assert builds[2:] == [4 * spec3.n_modes] * 3


@pytest.mark.parametrize("bad", [0.0, -0.1, math.nan, math.inf, -math.inf])
def test_translation_check_rejects_bad_steps_naming_dx(spec3, bad):
    """A nan or inf step used to pass ``dx <= 0`` and end in a norm
    failure; every element of the sequence is checked."""
    for dxs in ([bad], [0.1, bad], (0.05, 0.025, bad)):
        with pytest.raises(ValidationError, match="dx must be finite and positive"):
            translation_generator_check(spec3, 0.3, 1.7, dxs)


# --- matrix materialization -------------------------------------------------
#
# Three oracles for the vectorised ``operator_matrix``, each a
# materialization it replaced.  The column-by-column route (occupations of
# each basis index, one symbolic ``apply``, rows read back by index) came
# first; the sparse Kronecker-product build came next, then the same
# vectorised pass handed to scipy as a DIA matrix and converted to CSR.
# All sum the terms in term order, so all match the build bit for bit.  A
# Fock matrix meets the two CSR oracles through ``to_csr``, which reads its
# diagonals into scipy's COO format and knows nothing else of the type.

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


def kronecker_matrix(op, spec):
    """CSR matrix of ``op``: each term its coefficient times a product of
    ladder factors ``kron(I_left, block, I_right)``, rightmost factor first,
    added to the running total in term order."""
    n_slots, base, dim = 2 * spec.n_modes, spec.max_occupation + 1, spec.basis_dim
    total = scipy.sparse.csr_matrix((dim, dim), dtype=complex)
    for coeff, term in op.terms:
        if coeff == 0:
            continue
        mat = scipy.sparse.identity(dim, dtype=complex, format="csr") * coeff
        for sector, mode, dagger in reversed(term):
            slot = mode if sector == "a" else spec.n_modes + mode
            # a|n> = sqrt(n)|n-1> sits above the diagonal, a_dag below it.
            block = scipy.sparse.diags(np.sqrt(np.arange(1.0, base)), -1 if dagger else 1)
            left = scipy.sparse.identity(base ** (n_slots - 1 - slot))
            right = scipy.sparse.identity(base**slot)
            mat = scipy.sparse.kron(scipy.sparse.kron(left, block), right, format="csr") @ mat
        total = total + mat
    return total


def dia_matrix(op, spec):
    """CSR matrix of ``op`` through scipy's DIA format: each term pushes
    every basis index through its ladder factors and adds into one
    diagonal, stored by column, in term order; ``tocsr`` then drops the
    exact zeros and sorts the columns within each row."""
    n_modes, ceiling, dim = spec.n_modes, spec.max_occupation, spec.basis_dim
    base = ceiling + 1
    roots = np.sqrt(np.arange(1.0, base))
    basis = np.arange(dim, dtype=np.int64)
    diagonals = {}  # row - col -> entries by column
    for coeff, term in op.terms:
        if coeff == 0:
            continue
        rows, vals, offset = basis, np.full(dim, coeff, dtype=complex), 0
        for sector, mode, dagger in reversed(term):
            stride = base ** (mode if sector == "a" else n_modes + mode)
            n = rows // stride % base
            live = n < ceiling if dagger else n > 0
            n, rows, vals = n[live], rows[live], vals[live]
            vals = roots[n if dagger else n - 1] * vals
            step = stride if dagger else -stride
            rows, offset = rows + step, offset + step
        if rows.size:
            if offset not in diagonals:
                diagonals[offset] = np.zeros(dim, dtype=complex)
            diagonals[offset][rows - offset] += vals
    if not diagonals:
        return scipy.sparse.csr_matrix((dim, dim), dtype=complex)
    offsets = [-offset for offset in diagonals]  # scipy's offset is col - row
    stacked = np.stack(list(diagonals.values()))
    return scipy.sparse.dia_matrix((stacked, offsets), shape=(dim, dim)).tocsr()


def to_csr(mat):
    """scipy CSR copy of a Fock matrix: the nonzero entries of each
    diagonal, at (row, row - offset), through COO.  Every entry it keeps
    must lie inside the matrix."""
    rows, cols, data = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)], [np.zeros(0, complex)]
    for offset, entries in mat.diagonals.items():
        assert entries.shape == (mat.dim,) and entries.dtype == complex
        live = np.flatnonzero(entries)
        assert ((live - offset >= 0) & (live - offset < mat.dim)).all()
        rows.append(live)
        cols.append(live - offset)
        data.append(entries[live])
    coo = scipy.sparse.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(mat.dim, mat.dim),
    )
    return coo.tocsr()


def assert_same_entries(mat, oracle):
    """The Fock matrix ``mat`` holds exactly the nonzero entries of the
    scipy matrix ``oracle``, at the same places and with the same bits."""
    assert isinstance(mat, FockMatrix)
    got = to_csr(mat)
    want = scipy.sparse.csr_matrix(oracle, dtype=complex, copy=True)
    want.eliminate_zeros()
    got.sort_indices()
    want.sort_indices()
    assert got.shape == want.shape and mat.nnz == want.nnz
    for got_part, want_part in ((got.indptr, want.indptr), (got.indices, want.indices),
                                (got.data, want.data)):
        np.testing.assert_array_equal(got_part, want_part)


def random_mode_operator(rng, n_modes, n_terms=4, max_factors=3, min_factors=0):
    terms = []
    for _ in range(n_terms):
        factors = tuple(
            (str(rng.choice(["a", "b"])), int(rng.integers(n_modes)), bool(rng.integers(2)))
            for _ in range(int(rng.integers(min_factors, max_factors + 1)))
        )
        coeff = complex(rng.standard_normal(), rng.standard_normal())
        terms.append((coeff, factors))
    return ModeOperator(tuple(terms))


def random_fock_matrix(rng, side, n_diagonals=4):
    """Fock matrix with ``n_diagonals`` random diagonals (at most all
    2 side - 1 of them) of random complex entries."""
    offsets = rng.choice(np.arange(1 - side, side), size=min(n_diagonals, 2 * side - 1),
                         replace=False)
    rows = np.arange(side)
    diagonals = {}
    for offset in offsets.tolist():
        entries = rng.standard_normal(side) + 1j * rng.standard_normal(side)
        entries[(rows - offset < 0) | (rows - offset >= side)] = 0.0
        diagonals[offset] = entries
    return FockMatrix(side, diagonals)


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
    assert isinstance(mat, FockMatrix)
    np.testing.assert_array_equal(mat.toarray(), column_matrix(op, spec))
    assert_same_entries(mat, kronecker_matrix(op, spec))
    assert_same_entries(mat, dia_matrix(op, spec))


def _verify_shape_cases():
    """The operators and spaces ``verify`` materializes: Psi and P on five
    modes at ceiling 1 (dim 1,024), and one mode at ceilings 2 and 3 with
    terms of two or three factors.  P sums 10 terms on its diagonal, but
    its entries are small multiples of 2 pi / L, which round alike in any
    order; H's frequencies do not, so H pins the term-order sum."""
    five = make_mode_spec(TWO_PI_OVER_L * np.arange(-2, 3), 1.0, L, 1)
    cases = [
        pytest.param(field_operator(five, 0.7, 2.9), five, id="psi-5-modes"),
        pytest.param(fock._number_operator(five.momenta), five, id="p-5-modes"),
        pytest.param(fock._number_operator(five.frequencies), five, id="h-5-modes"),
    ]
    for ceiling in (2, 3):
        one = make_mode_spec([TWO_PI_OVER_L], 1.0, L, ceiling)
        rng = np.random.default_rng([7, ceiling])
        op = random_mode_operator(rng, 1, n_terms=8, max_factors=3, min_factors=2)
        cases.append(pytest.param(op, one, id=f"one-mode-ceiling-{ceiling}"))
    return cases


@pytest.mark.parametrize(("op", "spec"), _verify_shape_cases())
def test_matrix_build_matches_both_oracles_on_verify_shapes(op, spec):
    mat = operator_matrix(op, spec)
    assert_same_entries(mat, kronecker_matrix(op, spec))
    assert_same_entries(mat, dia_matrix(op, spec))
    np.testing.assert_array_equal(mat.toarray(), column_matrix(op, spec))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fock_matrix_arithmetic_matches_csr(seed):
    """Every operation of a Fock matrix against the same operation on its
    CSR copy: sums, differences and negation bit for bit; products, whose
    entries sum several terms in an order of their own, to rounding."""
    rng = np.random.default_rng(seed)
    spec = make_mode_spec([0.0, TWO_PI_OVER_L], 1.0, L, 2)  # dim 81
    a, b = (operator_matrix(random_mode_operator(rng, 2, n_terms=6), spec) for _ in range(2))
    csr_a, csr_b = to_csr(a), to_csr(b)
    assert_same_entries(a + b, csr_a + csr_b)
    assert_same_entries(a - b, csr_a - csr_b)
    assert_same_entries(-a, -csr_a)
    np.testing.assert_array_equal(a.toarray(), csr_a.toarray())
    product = (csr_a @ csr_b).toarray()
    np.testing.assert_allclose((a @ b).toarray(), product, rtol=0,
                               atol=1e-14 * np.abs(product).max())


def test_check_07_commutator_matches_csr_bit_for_bit(lattice64_module):
    """P is diagonal, so every entry of P Psi - Psi P is one product less
    one product, and the Fock-matrix commutator has the CSR one's bits."""
    spec = mode_spec_from_lattice(lattice64_module, max_occupation=1, half_width=2)
    p_mat = operator_matrix(fock._number_operator(spec.momenta), spec)
    psi = operator_matrix(field_operator(spec, -0.6, 8.2), spec)
    csr_p, csr_psi = to_csr(p_mat), to_csr(psi)
    assert_same_entries(p_mat @ psi - psi @ p_mat, csr_p @ csr_psi - csr_psi @ csr_p)


def test_exactly_cancelling_terms_store_nothing():
    spec = make_mode_spec([0.0, TWO_PI_OVER_L], 1.0, L, 2)
    kept = 0.3j * (a_dag(0) @ b_op(1)) + b_dag(1) @ b_dag(1)
    gone = 0.7 * (a_dag(1) @ a_op(0)) - 0.25j * b_dag(0)
    assert operator_matrix(gone - gone, spec).nnz == 0
    mat = operator_matrix(gone + kept - gone, spec)
    assert_same_entries(mat, to_csr(operator_matrix(kept, spec)))
    assert_same_entries(mat, dia_matrix(gone + kept - gone, spec))


def test_all_zero_coefficients_give_empty_complex_matrix():
    spec = make_mode_spec([0.0, TWO_PI_OVER_L], 1.0, L, 1)
    zeroed = 0.0 * (a_dag(0) @ b_op(1)) + 0j * field_operator(spec, 0.2, 1.0)
    for op in (ModeOperator.zero(), zeroed):
        mat = operator_matrix(op, spec)
        assert isinstance(mat, FockMatrix)
        assert mat.dim == spec.basis_dim and mat.toarray().dtype == complex
        assert mat.nnz == 0 and not mat.toarray().any()


def test_matrix_cap_rejects_before_allocating():
    spec = make_mode_spec(TWO_PI_OVER_L * np.arange(-5, 6), 1.0, L, 1)  # dim 2^22
    assert spec.basis_dim > MATRIX_DIMENSION_CAP
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="exceeds matrix cap"):
            operator_matrix(a_dag(0), spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one basis-sized index array at the cap alone would be 8 MiB
    assert peak < 1 << 16


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
    # dimensions that once took separate dense and sparse paths: one Fock matrix now
    small = make_mode_spec([0.0], 1.0, L, 1)  # dim 4
    momenta = [TWO_PI_OVER_L * n for n in range(-3, 4)]
    big = make_mode_spec(momenta, 1.0, L, 1)  # dim 2^14
    for spec in (small, big):
        mat = operator_matrix(a_dag(0), spec)
        assert isinstance(mat, FockMatrix)
        assert_same_entries(mat, kronecker_matrix(a_dag(0), spec))
        # a_dag fills half the rows with ones at ceiling 1
        assert hilbert_schmidt_norm(mat) == math.sqrt(0.5)
    assert matrix_norm(operator_matrix(a_dag(0), small)) == pytest.approx(1.0)


# --- matrix norms -------------------------------------------------------------
#
# ARPACK ``svds`` on the CSR copy, the sparse norm before the dense one,
# is the oracle of ``matrix_norm``'s LAPACK 2-norm; numpy's Frobenius norm
# of the dense array, and a sum over modes with no matrix for check 07's
# residuals, are the oracles of ``hilbert_schmidt_norm``.

def svds_norm(mat):
    """Largest singular value of a Fock matrix from ARPACK ``svds``, on its
    CSR copy, started from a fixed vector."""
    start = np.random.default_rng(0).standard_normal((2, mat.dim))
    return float(scipy.sparse.linalg.svds(
        to_csr(mat), k=1, v0=start[0] + 1j * start[1], return_singular_vectors=False,
        maxiter=5000,
    )[0])


def frobenius_rms(mat):
    """||A||_F / sqrt(dim) of the dense array, by numpy."""
    return float(np.linalg.norm(mat.toarray(), "fro")) / math.sqrt(mat.dim)


def test_matrix_norm_is_reproducible_and_matches_dense():
    spec = make_mode_spec([0.0, TWO_PI_OVER_L], 1.0, L, 2)
    mat = operator_matrix(field_operator(spec, 0.4, 2.3) @ a_dag(1), spec)
    first = matrix_norm(mat)
    assert matrix_norm(mat) == first
    assert first == pytest.approx(np.linalg.norm(mat.toarray(), 2), rel=1e-13)


def test_matrix_norm_of_tiny_matrix_is_exact():
    # [[3, 0], [4, 0]]: the 4 sits at row 1, column 0, on diagonal 1
    mat = FockMatrix(2, {0: np.array([3.0, 0.0], dtype=complex),
                         1: np.array([0.0, 4.0], dtype=complex)})
    assert matrix_norm(mat) == 5.0
    assert hilbert_schmidt_norm(mat) == math.sqrt(12.5)


@pytest.mark.parametrize("ceiling", [7, 8, 9, 10])
def test_dense_and_svds_norms_agree_around_the_threshold(lattice64_module, ceiling):
    """Sides 64, 81, 100 and 121, up to DENSE_NORM_MAX_SIDE: matrix_norm
    agrees with ARPACK's largest singular value to 1e-14 relative."""
    spec = mode_spec_from_lattice(lattice64_module, max_occupation=ceiling, half_width=0)
    mat = operator_matrix(field_operator(spec, 0.37, 2.9) @ a_dag(0) + b_op(0), spec)
    assert matrix_norm(mat) == pytest.approx(svds_norm(mat), rel=1e-14, abs=0)


@pytest.mark.parametrize("dx", [0.1, 0.05, 0.025])
def test_hilbert_schmidt_norm_of_check_07_residuals(lattice64_module, dx):
    """Check 07's side-1,024 residuals: the Hilbert-Schmidt norm equals the
    dense Frobenius one to 1e-14 relative, and the sum over the five modes
    of (k - sin(k dx)/dx)^2 / (2 w_k L), the squared norm of
    i (dPsi/dx - central difference) with no matrix, to 1e-9."""
    spec = mode_spec_from_lattice(lattice64_module, max_occupation=1, half_width=2)
    residual = _single_step_residual(spec, -0.6, 8.2, dx)
    norm = hilbert_schmidt_norm(residual)
    assert norm == pytest.approx(frobenius_rms(residual), rel=1e-14, abs=0)
    closed = sum((k - math.sin(k * dx) / dx) ** 2 / (2.0 * w * L)
                 for k, w in zip(spec.momenta, spec.frequencies))
    assert norm == pytest.approx(math.sqrt(closed), rel=1e-9, abs=0)


@pytest.mark.parametrize("side", [1, 2, 5, 12])
def test_hilbert_schmidt_norm_of_small_full_matrices(side):
    """Every diagonal filled, random complex entries."""
    mat = random_fock_matrix(np.random.default_rng(side), side, n_diagonals=2 * side)
    assert hilbert_schmidt_norm(mat) == pytest.approx(frobenius_rms(mat), rel=1e-14, abs=0)


@pytest.mark.parametrize("factor", [1e-300, 1e300])
def test_hilbert_schmidt_norm_scales_with_tiny_and_huge_entries(factor):
    """Squares of entries near 1e-300 underflow to zero and of entries near
    1e300 overflow, unless the entries are scaled first."""
    mat = random_fock_matrix(np.random.default_rng(3), DENSE_NORM_MAX_SIDE + 1)
    scaled = FockMatrix(mat.dim, {offset: entries * factor
                                  for offset, entries in mat.diagonals.items()})
    assert hilbert_schmidt_norm(scaled) == pytest.approx(
        factor * hilbert_schmidt_norm(mat), rel=1e-14, abs=0
    )


@pytest.mark.parametrize(("side", "route"), [
    (DENSE_NORM_MAX_SIDE, "dense"), (DENSE_NORM_MAX_SIDE + 1, "refused"), (2, "dense"),
])
def test_matrix_norm_route_by_side(side, route):
    """The side alone decides: the dense 2-norm up to DENSE_NORM_MAX_SIDE
    inclusive, and above it a validation error naming the side, never a
    silent second route."""
    mat = random_fock_matrix(np.random.default_rng(side), side)
    if route == "refused":
        with pytest.raises(ValidationError, match=f"^matrix side {side} exceeds the dense "
                                                  f"norm cap {DENSE_NORM_MAX_SIDE}$"):
            matrix_norm(mat)
    else:
        assert matrix_norm(mat) == pytest.approx(np.linalg.norm(mat.toarray(), 2), rel=1e-14)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("side", [DENSE_NORM_MAX_SIDE, DENSE_NORM_MAX_SIDE + 1])
def test_matrix_norm_of_non_finite_matrix_raises(side, bad):
    """Both norms, on either side of the cap: LAPACK would fail with 'SVD
    did not converge', and the sum of squares would read nan or inf."""
    entries = np.ones(side, dtype=complex)
    entries[0] = 0.0  # row 0 has no column 0 - 1 on diagonal 1
    entries[side // 2] = bad
    for norm in (matrix_norm, hilbert_schmidt_norm):
        with pytest.raises(NumericalFailure, match=f"side {side} has a non-finite entry"):
            norm(FockMatrix(side, {1: entries}))


def test_matrix_norm_of_zero_operator():
    spec = make_mode_spec([0.0], 1.0, L, 1)
    zero = operator_matrix(a_op(0) @ a_op(0), spec)
    assert matrix_norm(zero) == 0.0
    assert hilbert_schmidt_norm(zero) == 0.0
    assert hilbert_schmidt_norm(FockMatrix(3, {})) == 0.0


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
