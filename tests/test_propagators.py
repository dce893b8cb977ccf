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
    t, x = sample_points(rng, L, 100)
    assert verify_decomposition(lattice64, t, x) <= 1e-12


def test_feynman_decomposition_admits_equal_times(lattice64):
    """At t = 0, of either sign, the step kinds read their continuous
    extension, Feynman = Hadamard and TimeSymmetric = 0, so the identity
    holds there exactly, as it does at the nonzero times beside them."""
    t = np.array([0.0, -0.0, 0.0, -0.0, 0.7, -1.3])
    x = np.array([0.0, 0.0, 2.5, -4.0, 0.0, 9.5])
    assert verify_decomposition(lattice64, t, x) == 0.0


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


def _record_dplus_calls(monkeypatch):
    """Per _dplus call, the shapes of its t and x and their broadcast size."""
    calls = []
    original = propagators._dplus

    def recording(momenta, frequencies, box_length, t, x):
        calls.append((t.shape, x.shape, np.broadcast(t, x).size))
        return original(momenta, frequencies, box_length, t, x)

    monkeypatch.setattr(propagators, "_dplus", recording)
    return calls


# A 6 x 5 product grid with a t = 0 row, where each step kind weights
# D+ and D- on some rows and not on others.
GRID_T = np.array([-1.0, -0.5, 0.0, 0.5, 1.0, 1.5])[:, None]
GRID_X = np.linspace(0.0, 5.0, 5)[None, :]


def test_single_pass_evaluates_each_wightman_function_once(lattice64, monkeypatch):
    """One D+ sum per call, over every point of the broadcast grid, with
    its tables on the axes as given; D- is read as -conj(D+)."""
    calls = _record_dplus_calls(monkeypatch)
    for kind in KernelKind:
        calls.clear()
        kernel_values(
            lattice64.momenta, lattice64.frequencies, L, kind, GRID_T, GRID_X, step_at_zero=True
        )
        assert calls == [((6, 1), (1, 5), 30)], kind.value


def test_kind_tuple_sums_dplus_once_over_the_grid(lattice64, monkeypatch):
    """A tuple of kinds makes one D+ sum, over every point of the
    broadcast grid; check 02's four kinds take one."""
    calls = _record_dplus_calls(monkeypatch)
    args = (lattice64.momenta, lattice64.frequencies, L)
    kernel_values(*args, (KernelKind.RETARDED, KernelKind.ADVANCED), GRID_T, GRID_X, True)
    kernel_values(*args, (KernelKind.RETARDED,), GRID_T, GRID_X, True)
    kernel_values(*args, tuple(KernelKind), GRID_T, GRID_X, True)
    assert calls == [((6, 1), (1, 5), 30)] * 3
    calls.clear()
    t, x = np.broadcast_arrays(GRID_T, GRID_X)
    nonzero = t != 0.0
    verify_decomposition(lattice64, t[nonzero], x[nonzero])
    assert calls == [((25,), (25,), 25)]


@pytest.mark.parametrize("step_at_zero", [False, True])
def test_step_kinds_read_positive_zero_where_their_weights_vanish(lattice64, step_at_zero):
    """Retarded at t < 0, advanced at t > 0 and, on the continuous
    extension, retarded, advanced and time-symmetric at t = +-0.0 read
    +0.0 with the sign bit clear in both parts, on axes with both signed
    zeros of x (and of t on the extension)."""
    ts = np.array([-1.25, -1e-3, 0.375, 2.0] + ([-0.0, 0.0] if step_at_zero else []))[:, None]
    xs = np.array([-0.0, 0.0, 0.5, 7.25, -3.0])[None, :]
    vanish = {
        KernelKind.RETARDED: ts <= 0.0,
        KernelKind.ADVANCED: ts >= 0.0,
        KernelKind.TIME_SYMMETRIC: ts == 0.0,
        KernelKind.FEYNMAN: np.zeros(ts.shape, dtype=bool),
    }
    assert set(vanish) == STEP_FUNCTION_KINDS
    args = (lattice64.momenta, lattice64.frequencies, L)
    for kind, rows in vanish.items():
        mask = np.broadcast_to(rows, (ts.size, xs.size))
        direct = kernel_values(*args, kind, ts, xs, step_at_zero)
        (validated,) = eval_kernel_grid(lattice64, (kind,), ts, xs, step_at_zero)
        for values in (direct, validated):
            for part in (values.real[mask], values.imag[mask]):
                assert np.all(part == 0.0) and not np.any(np.signbit(part)), kind.value
            assert np.all(values[~mask] != 0.0), kind.value


def _assert_same_bits(got, want, label):
    """Equal 64-bit patterns of every real and imaginary part."""
    got, want = (np.ascontiguousarray(a).view(np.uint64) for a in (got, want))
    assert got.shape == want.shape, label
    assert np.array_equal(got, want), label


@pytest.mark.parametrize("step_at_zero", [False, True])
def test_kind_tuple_matches_per_kind_calls_bitwise(lattice64, step_at_zero):
    """Random subsets of the kinds, in random order and with repeats, on
    one call read the bits of one call per kind, signed zeros included,
    on a broadcast grid with both signed zeros of x (and of t on the
    step extension)."""
    rng = np.random.default_rng(31)
    args = (lattice64.momenta, lattice64.frequencies, L)
    kinds = list(KernelKind)
    for trial in range(12):
        ts = rng.uniform(-2.5, 2.5, 9) * rng.choice([1.0, 1e-3], 9)
        if step_at_zero:
            ts[:2] = 0.0, -0.0
        xs = rng.uniform(-L, 2 * L, 11)
        xs[:2] = 0.0, -0.0
        picks = rng.choice(len(kinds), rng.integers(1, 2 * len(kinds)))
        subset = tuple(kinds[i] for i in picks)
        together = kernel_values(*args, subset, ts[:, None], xs[None, :], step_at_zero)
        assert isinstance(together, tuple) and len(together) == len(subset)
        for kind, values in zip(subset, together):
            alone = kernel_values(*args, kind, ts[:, None], xs[None, :], step_at_zero)
            _assert_same_bits(values, alone, f"{trial} {kind.value}")
    one = eval_kernel_grid(lattice64, (KernelKind.FEYNMAN,), 0.5, 1.0)
    assert isinstance(one, tuple) and len(one) == 1
    _assert_same_bits(one[0], eval_kernel_grid(lattice64, KernelKind.FEYNMAN, 0.5, 1.0), "one")


def test_kind_tuple_rejects_time_zero_for_any_step_kind(lattice64):
    with pytest.raises(ValidationError, match="'retarded'"):
        eval_kernel_grid(lattice64, (KernelKind.WIGHTMAN_PLUS, KernelKind.RETARDED), 0.0, 1.0)


@pytest.mark.parametrize(
    "kind",
    ["dplus", ("dplus",), (KernelKind.FEYNMAN, "dplus"), (KernelKind.HADAMARD, None),
     [KernelKind.HADAMARD], 3],
    ids=["string", "string-tuple", "second-element", "none-element", "list", "int"],
)
def test_kernel_values_rejects_a_kind_that_is_not_a_member(lattice64, kind):
    """Every element of a tuple of kinds is checked, and a bad one is named
    as a kind, not left to a KeyError in the coefficient table."""
    with pytest.raises(ValidationError, match="kind must be a KernelKind member"):
        kernel_values(lattice64.momenta, lattice64.frequencies, L, kind, 0.5, 1.0)
    with pytest.raises(ValidationError, match="kind must be a KernelKind member"):
        eval_kernel_grid(lattice64, kind, 0.5, 1.0)


def _paired_sum(terms):
    """Sum the last axis by adding ends-inward pairs first: on a sorted
    negation-closed grid, terms[..., i] and terms[..., -1-i] belong to
    partner modes +-k."""
    n = terms.shape[-1]
    h = n // 2
    if h == 0:
        return terms[..., 0]
    total = np.sum(terms[..., :h] + terms[..., : n - h - 1 : -1], axis=-1)
    if n % 2:
        total = total + terms[..., h]
    return total


def _one_shot_wightman(momenta, frequencies, box_length, sign, t, x):
    """The per-term signed sum, D+ for sign +1 and D- for sign -1: one
    complex exp per point and mode, every point's terms in one array."""
    phases = np.exp(
        (-1j * sign) * (np.multiply.outer(t, frequencies) - np.multiply.outer(sign * x, momenta))
    )
    return _paired_sum(phases / (2.0 * frequencies)) / (sign * box_length)


def _two_sum_kernel(momenta, frequencies, box_length, kind, t, x):
    """Oracle for kernel_values: D+ and D- each by its own per-term sum
    where the kind weights it, combined through the coefficient table."""
    t, x = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(x, dtype=float))
    regions = (t >= 0.0, t < 0.0)
    out = np.zeros(t.shape, dtype=complex)
    for column, sign in enumerate((1.0, -1.0)):
        weights = np.zeros(t.shape)
        for mask, row in zip(regions, propagators.wightman_weights(kind)):
            weights[mask] = row[column]
        need = weights != 0.0
        if need.any():
            out[need] += weights[need] * _one_shot_wightman(
                momenta, frequencies, box_length, sign, t[need], x[need]
            )
    return out


def _assert_bitwise(got, want, label):
    """Equal values and equal signs of every real and imaginary part,
    zeros included."""
    got, want = (np.ascontiguousarray(a).view(float) for a in (got, want))
    assert np.array_equal(got, want), label
    assert np.array_equal(np.signbit(got), np.signbit(want)), label


def _assert_matches_oracle(modes, kind, t, x, step_at_zero=False):
    """kernel_values against the per-term two-sum oracle.  The factored
    sum rounds differently from a per-term phase fl(w t - k x), so the
    two agree to a few 1e-16, not bit for bit."""
    momenta, frequencies = modes
    got = kernel_values(momenta, frequencies, L, kind, t, x, step_at_zero)
    want = _two_sum_kernel(momenta, frequencies, L, kind, t, x)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14, err_msg=kind.value)


def _modes(lattice):
    return lattice.momenta, lattice.frequencies


@pytest.mark.parametrize("extra", [-1, 0, 1])
@pytest.mark.parametrize("kind", list(KernelKind), ids=lambda k: k.value)
def test_blocked_sum_matches_one_shot_sum_bitwise(lattice64, kind, extra):
    """The blocked, factored D+ sum with D- = -conj(D+) agrees with the
    per-term two-sum route at one block and either side of it."""
    block = propagators._BLOCK_TERMS // ((lattice64.frequencies.size + 1) // 2)
    rng = np.random.default_rng(5)
    t = rng.uniform(0.1, 3.0, block + extra) * rng.choice([-1.0, 1.0], block + extra)
    x = rng.uniform(0.0, L, block + extra)
    _assert_matches_oracle(_modes(lattice64), kind, t, x)


def test_blocked_sum_matches_one_shot_sum_with_step_at_zero(lattice64):
    """Three blocks' worth of points on the step extension, with t and x
    of both signed zeros among them."""
    block = propagators._BLOCK_TERMS // ((lattice64.frequencies.size + 1) // 2)
    rng = np.random.default_rng(6)
    t = rng.choice([-1.5, -0.0, 0.0, 0.7], 3 * block + 3)
    x = rng.uniform(-L, 2 * L, t.size)
    x[::3] = rng.choice([-0.0, 0.0], x[::3].size)
    for kind in KernelKind:
        _assert_matches_oracle(_modes(lattice64), kind, t, x, step_at_zero=True)


def _grid_rows_and_points(momenta, frequencies, kind, ts, xs, step_at_zero):
    """One kind on the product grid ts x xs three ways: one grid call, one
    call per t row, and one call on the grid's points shuffled."""
    def values(t, x):
        return kernel_values(momenta, frequencies, L, kind, t, x, step_at_zero)

    grid = values(ts[:, None], xs[None, :])
    rows = np.array([values(t, xs) for t in ts])
    t_flat, x_flat = np.repeat(ts, xs.size), np.tile(xs, ts.size)
    order = np.random.default_rng(9).permutation(t_flat.size)
    scattered = np.empty(t_flat.size, dtype=complex)
    scattered[order] = values(t_flat[order], x_flat[order])
    return grid, rows, scattered.reshape(grid.shape)


@pytest.mark.parametrize("n_space", [8, 10, 16, 38, 128])
def test_conjugate_route_matches_two_sums_on_signed_zero_grid(n_space):
    """The CLI's grid shape: t and x each run through both signed zeros,
    every kind on the step extension, on grids of odd mode counts.  Each
    kind agrees with the per-term oracle, reads the same bits in a grid,
    row by row and at shuffled points, and reads -0.0 exactly as 0.0 in
    t and in x."""
    lattice = build_lattice(LatticeSpec(n_space=n_space))
    ts = np.array([-0.9, -0.0, 0.0, 0.3, 2.2])
    xs = np.array([-3.1, -0.0, 0.0, 1.7, 9.9])
    for kind in KernelKind:
        _assert_matches_oracle(_modes(lattice), kind, ts[:, None], xs[None, :], True)
        grid, rows, scattered = _grid_rows_and_points(*_modes(lattice), kind, ts, xs, True)
        _assert_bitwise(rows, grid, kind.value)
        _assert_bitwise(scattered, grid, kind.value)
        _assert_bitwise(grid[1], grid[2], kind.value)
        _assert_bitwise(grid[:, 1], grid[:, 2], kind.value)


@pytest.mark.parametrize("kind", list(KernelKind), ids=lambda k: k.value)
def test_product_grid_matches_rows_and_scattered_points_bitwise(lattice64, kind):
    """A point's value does not depend on the other points of the call:
    the tables are per entry of t and x and each point sums its own row.
    The grid spans more than one block."""
    ts = np.linspace(-2.7, 2.9, 23)
    xs = canonical_x(np.linspace(-7.3, 18.1, 41), L)
    grid, rows, scattered = _grid_rows_and_points(*_modes(lattice64), kind, ts, xs, False)
    assert grid.size > propagators._BLOCK_TERMS // ((lattice64.frequencies.size + 1) // 2)
    _assert_bitwise(rows, grid, kind.value)
    _assert_bitwise(scattered, grid, kind.value)


def test_dminus_is_minus_conjugate_dplus_bitwise(lattice64):
    """Within a call D- is read as -conj(D+) from the one D+ sum, so the
    identity holds bit for bit, signed zeros included."""
    rng = np.random.default_rng(11)
    t = rng.uniform(-3.0, 3.0, 700)
    x = rng.uniform(0.0, L, 700)
    t[::9], x[::7] = 0.0, -0.0
    args = (lattice64.momenta, lattice64.frequencies, L)
    dplus = kernel_values(*args, KernelKind.WIGHTMAN_PLUS, t, x)
    dminus = kernel_values(*args, KernelKind.WIGHTMAN_MINUS, t, x)
    _assert_bitwise(dminus, -np.conj(dplus), "dminus")


def test_even_mode_set_without_zero_mode():
    """An even, mirror-ordered mode set with no k = 0 mode (half-integer
    momenta, as in an antiperiodic box): every +-k pair folds, with no
    middle column."""
    momenta = 2.0 * np.pi * (np.arange(-12, 12) + 0.5) / L
    frequencies = np.sqrt(0.8**2 + momenta**2)
    assert momenta.size % 2 == 0 and not np.any(momenta == 0.0)
    rng = np.random.default_rng(12)
    t = rng.uniform(-2.0, 2.0, 300)
    x = rng.uniform(0.0, L, 300)
    t[::10] = 0.0
    for kind in KernelKind:
        _assert_matches_oracle((momenta, frequencies), kind, t, x, step_at_zero=True)
    dplus = kernel_values(momenta, frequencies, L, KernelKind.WIGHTMAN_PLUS, t, x)
    dminus = kernel_values(momenta, frequencies, L, KernelKind.WIGHTMAN_MINUS, t, x)
    _assert_bitwise(dminus, -np.conj(dplus), "dminus")


def test_large_grid_matches_oracle_on_sampled_points():
    """A 256 x 256 grid at n_space = 256 (255 modes), every kind, checked
    against the per-term oracle at 1,024 seeded grid points."""
    lattice = build_lattice(LatticeSpec(n_space=256))
    ts = np.linspace(-2.6, 2.9, 256)
    xs = canonical_x(np.linspace(-4.0, 16.0, 256), L)
    picks = np.random.default_rng(13).choice(ts.size * xs.size, 1024, replace=False)
    rows, cols = np.divmod(picks, xs.size)
    for kind in KernelKind:
        grid = kernel_values(*_modes(lattice), L, kind, ts[:, None], xs[None, :])
        want = _two_sum_kernel(*_modes(lattice), L, kind, ts[rows], xs[cols])
        np.testing.assert_allclose(grid[rows, cols], want, rtol=0, atol=1e-14, err_msg=kind.value)


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


def test_step_function_kinds_are_read_from_the_weight_table():
    """The kinds whose t > 0 and t < 0 weights differ are the four with a
    step factor."""
    assert STEP_FUNCTION_KINDS == {
        KernelKind.RETARDED, KernelKind.ADVANCED, KernelKind.TIME_SYMMETRIC, KernelKind.FEYNMAN
    }


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


@pytest.mark.parametrize(
    "spec",
    [LatticeSpec(), LatticeSpec(n_space=16, mass=0.63),
     LatticeSpec(box_length=0.185, mass=0.0105, dt=0.616, n_space=30)],
    ids=["default", "n16-m0.63", "small-mL"],
)
def test_both_weight_pairs_agree_at_time_zero_bitwise(spec, monkeypatch):
    """Every kind is continuous at t = 0: its t < 0 weight pair, applied
    to D+(0, x) and D-(0, x), reads the bits its t >= 0 pair reads at
    t = +-0.0, signed zeros included, so t = 0 may join either side and
    needs no weights of its own."""
    lattice = build_lattice(spec)
    box = spec.box_length
    ts = np.array([-0.0, 0.0])[:, None]
    xs = canonical_x(np.concatenate([[-0.0, 0.0, 0.5 * box],
                                     np.random.default_rng(17).uniform(-box, 2 * box, 20)]), box)
    args = (lattice.momenta, lattice.frequencies, box)
    for kind in KernelKind:
        later, earlier = propagators.wightman_weights(kind)
        want = kernel_values(*args, kind, ts, xs[None, :], step_at_zero=True)
        monkeypatch.setitem(propagators._COEFFICIENTS, kind, (earlier, earlier))
        got = kernel_values(*args, kind, ts, xs[None, :], step_at_zero=True)
        _assert_same_bits(got, want, kind.value)


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
    identity acquires a visible unpaired-mode residual.  It is read by the
    two-sum oracle, because kernel_values' D- = -conj(D+) would make the
    residual vanish; kernel_values rejects such a grid instead."""
    bad_momenta = np.append(lattice64.momenta, -2.0 * np.pi * 32 / L)
    bad_freqs = np.sqrt(1.0 + bad_momenta**2)
    worst = 0.0
    for t, x in [(0.5, 0.77), (1.1, 2.3), (-0.6, 4.9)]:
        dp = _two_sum_kernel(bad_momenta, bad_freqs, L, KernelKind.WIGHTMAN_PLUS, t, x)
        dm = _two_sum_kernel(bad_momenta, bad_freqs, L, KernelKind.WIGHTMAN_MINUS, -t, -x)
        worst = max(worst, abs(complex(dp) + complex(dm)))
    assert worst > 1e-6
    for kind in KernelKind:
        with pytest.raises(ValidationError, match="negation-closed"):
            kernel_values(bad_momenta, bad_freqs, L, kind, 0.5, 0.77)


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
    # A 2-D t, as the CLI passes its time column, names the bad time too.
    with pytest.raises(ValidationError, match=r"t=1e\+308 overflows the mode phases"):
        eval_kernel_grid(lattice64, KernelKind.WIGHTMAN_PLUS, [[1.0], [1e308]], [[0.0, 2.0]])


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
