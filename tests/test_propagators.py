"""Mode-sum kernels: frozen reference values, symmetries, step factors."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxqft import propagators
from boxqft.lattice import Lattice, LatticeSpec, ValidationError, build_lattice
from boxqft.propagators import (
    STEP_FUNCTION_KINDS,
    KernelKind,
    canonical_x,
    eval_kernel,
    eval_kernel_grid,
    kernel_values,
    verify_antisymmetry,
    verify_decomposition,
)
from boxqft.suite import sample_points

L = 10.0

# Frozen against an independent plain-order 50-digit mode sum
# (scripts/dplus_oracle.py); tolerance covers double-rounding only.
FROZEN_DPLUS = {
    (64, 0.5, 0.0): 0.10512042542721461 - 0.24936345078836243j,
    (64, 1.0, 2.5): 0.010306964894197165 + 0.0019806038528687778j,
    (64, -0.75, 4.0): 0.0033279928820480292 - 0.0010770720047463232j,
    (64, 2.0, 9.5): -0.12956951109330397 - 0.064234243734099028j,
    (16, 0.5, 0.0): 0.16223441148292439 - 0.26427862478961509j,
    (16, 1.2, 3.75): -0.0067894187517302249 - 0.0058573755845706508j,
}


@pytest.mark.parametrize(("key", "expected"), sorted(FROZEN_DPLUS.items()))
def test_positive_frequency_kernel_matches_independent_oracle(key, expected):
    n_space, t, x = key
    lattice = build_lattice(LatticeSpec(n_space=n_space))
    got = eval_kernel(lattice, KernelKind.WIGHTMAN_PLUS, t, x)
    assert abs(got - expected) <= 1e-15


def test_antisymmetry_of_wightman_pair(lattice64, rng):
    t1, x1 = sample_points(rng, L, 100)
    t2, x2 = sample_points(rng, L, 100)
    assert verify_antisymmetry(lattice64, t1 - t2, x1 - x2) <= 1e-12


def test_feynman_decomposition(lattice64, rng):
    t, x = sample_points(rng, L, 100, min_abs_t=0.05)
    assert verify_decomposition(lattice64, t, x) <= 1e-12


def _reference_kernels(n_space, mass, t, x):
    """Every kind at paired points (t, x) by plain numpy sums, written from
    the README convention table alone: k_n = 2 pi n / L for
    n = -(N/2 - 1) .. N/2 - 1, w_n = sqrt(m^2 + k_n^2), x reduced mod L,
    and step(0) = 1/2, which gives the continuous t = 0 extension."""
    n = np.arange(-(n_space // 2 - 1), n_space // 2)
    k = 2.0 * np.pi * n / L
    w = np.sqrt(mass * mass + k * k)
    tw = np.multiply.outer(t, w)
    kx = np.multiply.outer(np.mod(x, L), k)
    dplus = np.sum(np.exp(-1j * (tw - kx)) / (2.0 * w), axis=-1) / L
    dminus = -np.sum(np.exp(1j * (tw + kx)) / (2.0 * w), axis=-1) / L
    commutator = dplus + dminus
    after, before = np.heaviside(t, 0.5), np.heaviside(-t, 0.5)
    retarded = after * commutator
    advanced = -before * commutator
    return {
        KernelKind.WIGHTMAN_PLUS: dplus,
        KernelKind.WIGHTMAN_MINUS: dminus,
        KernelKind.COMMUTATOR: commutator,
        KernelKind.HADAMARD: (dplus - dminus) / 2.0,
        KernelKind.RETARDED: retarded,
        KernelKind.ADVANCED: advanced,
        KernelKind.TIME_SYMMETRIC: (retarded + advanced) / 2.0,
        KernelKind.FEYNMAN: after * dplus - before * dminus,
    }


def test_every_kind_matches_plain_reference(lattice64):
    """~10^3 seeded points, a tenth of them at t = 0 with the step
    extension, positions spread over four periods."""
    rng = np.random.default_rng(2015)
    t = rng.uniform(-2.0, 2.0, 1000)
    t[::10] = 0.0
    x = rng.uniform(-15.0, 25.0, 1000)
    reference = _reference_kernels(64, 1.0, t, x)
    # 63 terms of size <= 1/(2 m L) summed in two orders: a few 1e-16
    for kind in KernelKind:
        got = eval_kernel_grid(lattice64, kind, t, x, step_at_zero=True)
        np.testing.assert_allclose(got, reference[kind], rtol=0, atol=1e-14, err_msg=kind.value)


@pytest.mark.parametrize("kind", list(KernelKind), ids=lambda k: k.value)
def test_scalar_and_array_calls_agree_bitwise(lattice64, kind):
    rng = np.random.default_rng(7)
    t = rng.uniform(-2.0, 2.0, 40)
    x = rng.uniform(-15.0, 25.0, 40)
    grid = eval_kernel_grid(lattice64, kind, t, x)
    scalar = [eval_kernel(lattice64, kind, a, b) for a, b in zip(t, x)]
    np.testing.assert_array_equal(grid, scalar)


def test_single_pass_evaluates_each_wightman_function_once(lattice64, monkeypatch):
    """D+ and D- are each summed once per call, only where the kind gives
    them a nonzero weight."""
    calls = []
    original = propagators._wightman

    def recording(momenta, frequencies, box_length, sign, t, x):
        calls.append((sign, t.size))
        return original(momenta, frequencies, box_length, sign, t, x)

    monkeypatch.setattr(propagators, "_wightman", recording)
    t = np.array([-1.0, -0.5, 0.0, 0.5, 1.0, 1.5])
    x = np.linspace(0.0, 5.0, 6)
    expected = {
        KernelKind.WIGHTMAN_PLUS: [(1.0, 6)],
        KernelKind.WIGHTMAN_MINUS: [(-1.0, 6)],
        KernelKind.COMMUTATOR: [(1.0, 6), (-1.0, 6)],
        KernelKind.HADAMARD: [(1.0, 6), (-1.0, 6)],
        KernelKind.RETARDED: [(1.0, 3), (-1.0, 3)],
        KernelKind.ADVANCED: [(1.0, 2), (-1.0, 2)],
        KernelKind.TIME_SYMMETRIC: [(1.0, 5), (-1.0, 5)],
        KernelKind.FEYNMAN: [(1.0, 4), (-1.0, 3)],
    }
    for kind, want in expected.items():
        calls.clear()
        propagators.kernel_values(
            lattice64.momenta, lattice64.frequencies, L, kind, t, x, step_at_zero=True
        )
        assert calls == want, kind.value


@pytest.mark.parametrize("t", [-1.3, -0.2, 0.4, 1.7])
@pytest.mark.parametrize("x", [0.0, 1.1, 6.25])
def test_kernel_family_algebra(lattice64, t, x):
    def k(kind):
        return eval_kernel(lattice64, kind, t, x)

    dp = k(KernelKind.WIGHTMAN_PLUS)
    dm = k(KernelKind.WIGHTMAN_MINUS)
    comm = k(KernelKind.COMMUTATOR)
    had = k(KernelKind.HADAMARD)
    ret = k(KernelKind.RETARDED)
    adv = k(KernelKind.ADVANCED)
    dbar = k(KernelKind.TIME_SYMMETRIC)
    fey = k(KernelKind.FEYNMAN)

    assert abs(comm - (dp + dm)) <= 1e-15
    assert abs(had - 0.5 * (dp - dm)) <= 1e-15
    # negative-frequency part is minus the conjugate of the positive part
    assert abs(dm + dp.conjugate()) <= 1e-14
    assert abs(comm.real) <= 1e-14  # commutator purely imaginary
    assert abs(had.imag) <= 1e-14  # anticommutator half purely real
    assert abs(dbar - 0.5 * (ret + adv)) <= 1e-15
    if t > 0:
        assert abs(ret - comm) <= 1e-15
        assert adv == 0.0
        assert abs(fey - dp) <= 1e-15
    else:
        assert ret == 0.0
        assert abs(adv + comm) <= 1e-15
        assert abs(fey + dm) <= 1e-15


def test_equal_time_commutator_vanishes(lattice64):
    for x in (0.0, 0.7, 3.3, 9.1):
        value = eval_kernel(lattice64, KernelKind.COMMUTATOR, 0.0, x)
        assert abs(value) <= 1e-14


@pytest.mark.parametrize("kind", sorted(STEP_FUNCTION_KINDS, key=lambda k: k.value))
def test_step_kinds_reject_time_zero(lattice64, kind):
    with pytest.raises(ValidationError, match="t"):
        eval_kernel(lattice64, kind, 0.0, 1.0)


def test_continuous_extension_at_time_zero(lattice64):
    xs = np.array([0.4, 2.0, 7.7])
    ts = np.zeros_like(xs)
    for kind in (KernelKind.RETARDED, KernelKind.ADVANCED, KernelKind.TIME_SYMMETRIC):
        vals = eval_kernel_grid(lattice64, kind, ts, xs, step_at_zero=True)
        np.testing.assert_array_equal(vals, 0.0)
    fey = eval_kernel_grid(lattice64, KernelKind.FEYNMAN, ts, xs, step_at_zero=True)
    had = eval_kernel_grid(lattice64, KernelKind.HADAMARD, ts, xs)
    np.testing.assert_array_equal(fey, had)


def test_spatial_periodicity(lattice64):
    for kind in (KernelKind.WIGHTMAN_PLUS, KernelKind.FEYNMAN):
        a = eval_kernel(lattice64, kind, 0.8, 1.3)
        b = eval_kernel(lattice64, kind, 0.8, 1.3 + L)
        assert abs(a - b) <= 1e-12


def test_spatial_parity(lattice64):
    a = eval_kernel(lattice64, KernelKind.WIGHTMAN_PLUS, 0.8, 1.3)
    b = eval_kernel(lattice64, KernelKind.WIGHTMAN_PLUS, 0.8, -1.3)
    assert abs(a - b) <= 1e-14


def test_unclosed_momentum_grid_rejected(lattice64):
    bad_momenta = np.append(lattice64.momenta, -2.0 * np.pi * 32 / L)
    bad = Lattice(
        spec=lattice64.spec,
        momenta=bad_momenta,
        frequencies=np.sqrt(1.0 + bad_momenta**2),
    )
    with pytest.raises(ValidationError, match="negation-closed"):
        eval_kernel(bad, KernelKind.WIGHTMAN_PLUS, 0.5, 1.0)


def test_unclosed_momentum_grid_breaks_antisymmetry(lattice64):
    """Negative control: with the edge mode retained the antisymmetry
    identity acquires a visible unpaired-mode residual."""
    bad_momenta = np.append(lattice64.momenta, -2.0 * np.pi * 32 / L)
    bad_freqs = np.sqrt(1.0 + bad_momenta**2)
    worst = 0.0
    for t, x in [(0.5, 0.77), (1.1, 2.3), (-0.6, 4.9)]:
        dp = kernel_values(bad_momenta, bad_freqs, L, KernelKind.WIGHTMAN_PLUS, t, x)
        dm = kernel_values(bad_momenta, bad_freqs, L, KernelKind.WIGHTMAN_MINUS, -t, -x)
        worst = max(worst, abs(complex(dp) + complex(dm)))
    assert worst > 1e-6


def test_point_canonicalization():
    assert canonical_x(-1.0, L) == pytest.approx(9.0)
    assert canonical_x(12.5, L) == pytest.approx(2.5)
    assert canonical_x(10.0, L) == 0.0
    assert canonical_x(-0.25, L) == pytest.approx(9.75)
    xs = np.array([-1e-20, -0.25, 0.0, 12.5, -31.0, 9.999])
    np.testing.assert_array_equal(canonical_x(xs, L), [canonical_x(v, L) for v in xs])
    assert canonical_x(-1e-20, L) == 0.0  # np.mod alone gives L here


def test_difference_wraps_position():
    (ta, xa), (tb, xb) = (1.0, 1.0), (0.25, 9.5)
    assert ta - tb == pytest.approx(0.75)
    assert canonical_x(xa - xb, L) == pytest.approx(1.5)  # 1.0 - 9.5 wrapped into [0, L)


@pytest.mark.parametrize(
    ("t", "x", "field"),
    [(np.nan, 1.0, "t"), (-np.inf, 1.0, "t"), (0.5, np.inf, "x"), (0.5, np.nan, "x")],
)
def test_non_finite_points_rejected(lattice64, t, x, field):
    """nan falls into none of the t > 0, t < 0, t = 0 weight regions and
    would read 0; inf x has no reduction into [0, L)."""
    with pytest.raises(ValidationError, match=f"{field} must be finite"):
        eval_kernel_grid(lattice64, KernelKind.FEYNMAN, [0.5, t], [2.0, x])


def test_overflowing_phase_rejected(lattice64):
    """|t| * max w beyond the float range would make every phase nan."""
    top = float(np.max(lattice64.frequencies))
    eval_kernel_grid(lattice64, KernelKind.WIGHTMAN_PLUS, 1e300 / top, 0.0)
    for t in (1e308, -1e308):
        with pytest.raises(ValidationError, match="overflows the mode phases"):
            eval_kernel_grid(lattice64, KernelKind.WIGHTMAN_PLUS, [0.5, t], [2.0, 1.0])


def test_invalid_kind_rejected(lattice64):
    with pytest.raises(ValidationError, match="kind"):
        eval_kernel(lattice64, "feynman", 0.5, 1.0)


@settings(max_examples=30, deadline=None)
@given(
    t=st.floats(-2.0, 2.0, allow_nan=False).filter(lambda v: abs(v) >= 0.05),
    x=st.floats(0.0, L, exclude_max=True, allow_nan=False),
)
def test_decomposition_pointwise_property(lattice64, t, x):
    fey = eval_kernel(lattice64, KernelKind.FEYNMAN, t, x)
    dbar = eval_kernel(lattice64, KernelKind.TIME_SYMMETRIC, t, x)
    dp = eval_kernel(lattice64, KernelKind.WIGHTMAN_PLUS, t, x)
    dm = eval_kernel(lattice64, KernelKind.WIGHTMAN_MINUS, t, x)
    assert abs(fey - dbar - 0.5 * (dp - dm)) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(
    t=st.floats(-2.0, 2.0, allow_nan=False),
    x=st.floats(0.0, L, exclude_max=True, allow_nan=False),
)
def test_antisymmetry_pointwise_property(lattice64, t, x):
    dp = eval_kernel(lattice64, KernelKind.WIGHTMAN_PLUS, t, x)
    dm = eval_kernel(lattice64, KernelKind.WIGHTMAN_MINUS, -t, -x)
    assert abs(dp + dm) <= 1e-12
