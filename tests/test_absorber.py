"""Current-current double sums, emission spectra, light-tight projection."""
import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxqft import absorber, cli
from boxqft.absorber import (
    CurrentDistribution,
    EmissionSpectrum,
    current_from_csv,
    dplus_direction_equivalence,
    emitted_spectrum,
    free_field_identity,
    interaction_sum,
    kernel_difference_table,
    project_light_tight,
    random_current,
    spectrum_consistency_residual,
)
from boxqft.lattice import LatticeSpec, ValidationError, build_lattice
from boxqft.propagators import KernelKind, kernel_values
from boxqft.suite import _onshell_basis, _projection_spectral_vs_lstsq


@pytest.fixture(scope="module")
def lat():
    return build_lattice(LatticeSpec(n_space=16, n_time=16))


@pytest.fixture(scope="module")
def currents(lat):
    rng = np.random.default_rng(7)
    return [random_current(lat, rng) for _ in range(3)]


# --- current container ------------------------------------------------------

def test_current_validation():
    with pytest.raises(ValidationError, match="2-d"):
        CurrentDistribution(np.zeros(5))
    with pytest.raises(ValidationError, match="real"):
        CurrentDistribution(np.full((2, 2), 1.0 + 1.0j))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_current_rejects_non_finite_samples(bad):
    samples = np.zeros((2, 3))
    samples[1, 2] = bad
    with pytest.raises(ValidationError, match="current samples must be finite"):
        CurrentDistribution(samples)


def test_current_is_read_only():
    current = CurrentDistribution(np.ones((3, 4)))
    with pytest.raises(ValueError):
        current.samples[0, 0] = 2.0


def test_csv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(3)
    samples = rng.standard_normal((6, 8))
    rows = [f"{i},{j},{float(samples[i, j])!r}" for i, j in np.ndindex(samples.shape)]
    path = tmp_path / "current.csv"
    path.write_text("\n".join(["t_index,x_index,value", *rows]) + "\n")
    loaded = current_from_csv(path, 6, 8)
    np.testing.assert_array_equal(loaded.samples, samples)


def test_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n0,0,1.0\n")
    with pytest.raises(ValidationError, match="header"):
        current_from_csv(path, 4, 4)


def test_csv_rejects_out_of_range_index(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t_index,x_index,value\n9,0,1.0\n")
    with pytest.raises(ValidationError, match="outside grid"):
        current_from_csv(path, 4, 4)


def test_csv_missing_file_names_current(tmp_path):
    with pytest.raises(ValidationError, match="current: cannot read"):
        current_from_csv(tmp_path / "absent.csv", 4, 4)


@pytest.mark.parametrize("row", ["1.5,0,1.0", "t,0,1.0", "0,0,abc", "0,0"])
def test_csv_rejects_malformed_row_naming_its_line(tmp_path, row):
    path = tmp_path / "bad.csv"
    path.write_text("t_index,x_index,value\n0,1,2.0\n" + row + "\n")
    with pytest.raises(ValidationError, match="current line 3"):
        current_from_csv(path, 4, 4)


def test_random_current_shape(lat):
    rng = np.random.default_rng(0)
    current = random_current(lat, rng)
    assert current.shape == (16, 16)


def test_wrong_shape_rejected_by_interaction(lat):
    small = CurrentDistribution(np.ones((4, 4)))
    with pytest.raises(ValidationError, match="grid"):
        interaction_sum(small, small, KernelKind.WIGHTMAN_PLUS, lat)


# --- double sums ------------------------------------------------------------

def _gather_interaction_sum(a, b, table, lattice):
    """Oracle: the double sum by gathering an (n_t, n_x, n_x) block of the
    difference table for every time row of b, O(n_t^2 n_x^2)."""
    n_t, n_x = lattice.spec.n_time, lattice.spec.n_space
    idx = np.arange(n_x)
    jdiff = (idx[:, None] - idx[None, :]) % n_x
    times = np.arange(n_t)
    acc = 0.0 + 0.0j
    for i_prime in range(n_t):
        rows = table[times - i_prime + n_t - 1]          # (n_t, n_x) over dt
        gathered = rows[:, jdiff]                        # (n_t, n_x, n_x)
        field_at_y = np.einsum("ij,ijk->k", a, gathered)
        acc += field_at_y @ b[i_prime]
    return complex(acc * (lattice.spec.dt * lattice.dx) ** 2)


@pytest.mark.parametrize("n_time,n_space", [(1, 8), (7, 12), (16, 16)])
@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("kind", list(KernelKind))
def test_interaction_sum_matches_gather_oracle(n_time, n_space, reverse, kind):
    """The FFT correlation equals the direct gather to 1e-12 relative."""
    lattice = build_lattice(LatticeSpec(n_space=n_space, n_time=n_time))
    table = kernel_difference_table(lattice, kind, reverse)
    rng = np.random.default_rng([n_time, n_space, int(reverse), list(KernelKind).index(kind)])
    for _ in range(3):
        a, b = rng.standard_normal((2, n_time, n_space))
        value = interaction_sum(
            CurrentDistribution(a), CurrentDistribution(b), kind, lattice, reverse
        )
        assert value == pytest.approx(_gather_interaction_sum(a, b, table, lattice), rel=1e-12)


ORACLE_GRIDS = [(1, 2), (1, 8), (7, 12), (16, 16), (64, 64)]


@pytest.mark.parametrize("n_time,n_space", ORACLE_GRIDS)
@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("kind", list(KernelKind))
def test_difference_table_matches_mode_sums(n_time, n_space, reverse, kind):
    """The DFT-built table equals the direct mode sums at every grid
    difference, to 1e-12 of the table's largest entry."""
    lattice = build_lattice(LatticeSpec(n_space=n_space, n_time=n_time))
    sign = -1.0 if reverse else 1.0
    dts = sign * (np.arange(-(n_time - 1), n_time) * lattice.spec.dt)[:, None]
    dxs = sign * np.arange(n_space) * lattice.dx
    direct = kernel_values(
        lattice.momenta, lattice.frequencies, lattice.spec.box_length,
        kind, dts, dxs, step_at_zero=True,
    )
    table = kernel_difference_table(lattice, kind, reverse)
    assert table.shape == (2 * n_time - 1, n_space)
    assert np.max(np.abs(table - direct)) <= 1e-12 * np.max(np.abs(direct))


def test_interaction_sum_is_bilinear(lat, currents):
    a, b, c = currents
    kind = KernelKind.WIGHTMAN_PLUS
    s_ab = interaction_sum(a, b, kind, lat)
    doubled = CurrentDistribution(2.0 * a.samples)
    assert interaction_sum(doubled, b, kind, lat) == pytest.approx(2.0 * s_ab)
    summed = CurrentDistribution(a.samples + c.samples)
    assert interaction_sum(summed, b, kind, lat) == pytest.approx(
        s_ab + interaction_sum(c, b, kind, lat)
    )


def test_point_source_pair_reduces_to_kernel(lat):
    """Two unit point sources turn the double sum into one kernel value
    times the squared measure."""
    a_samples = np.zeros((16, 16))
    b_samples = np.zeros((16, 16))
    a_samples[9, 3] = 1.0
    b_samples[2, 11] = 1.0
    a = CurrentDistribution(a_samples)
    b = CurrentDistribution(b_samples)
    value = interaction_sum(a, b, KernelKind.WIGHTMAN_PLUS, lat)
    dt, dx = lat.spec.dt, lat.dx
    kernel = complex(
        kernel_values(
            lat.momenta, lat.frequencies, lat.spec.box_length,
            KernelKind.WIGHTMAN_PLUS, (9 - 2) * dt, (3 - 11) * dx,
        )
    )
    assert value == pytest.approx(kernel * (dt * dx) ** 2, abs=1e-18)


def test_reverse_argument_equals_swapped_currents(lat, currents):
    a, b, _ = currents
    for kind in (KernelKind.WIGHTMAN_PLUS, KernelKind.TIME_SYMMETRIC,
                 KernelKind.FEYNMAN):
        reversed_sum = interaction_sum(a, b, kind, lat, reverse_argument=True)
        swapped = interaction_sum(b, a, kind, lat)
        assert reversed_sum == pytest.approx(swapped, abs=1e-15)


def test_time_symmetric_kernel_swap_symmetric(lat, currents):
    a, b, _ = currents
    fwd = interaction_sum(a, b, KernelKind.TIME_SYMMETRIC, lat)
    rev = interaction_sum(b, a, KernelKind.TIME_SYMMETRIC, lat)
    assert abs(fwd - rev) <= 1e-15 * max(1.0, abs(fwd))


def test_commutator_kernel_swap_antisymmetric(lat, currents):
    a, b, _ = currents
    fwd = interaction_sum(a, b, KernelKind.COMMUTATOR, lat)
    rev = interaction_sum(b, a, KernelKind.COMMUTATOR, lat)
    assert abs(fwd + rev) <= 1e-14 * max(1.0, abs(fwd))


def test_free_field_identity_holds_on_all_pairs(lat, currents):
    assert free_field_identity(currents, lat) <= 1e-11


def test_free_field_identity_fails_on_subset(lat, currents):
    assert free_field_identity(currents, lat, pairs=[(0, 1)]) > 1e-6


def test_direction_equivalence_on_all_pairs(lat, currents):
    assert dplus_direction_equivalence(currents, lat) <= 1e-11


def test_direction_equivalence_fails_on_subset(lat, currents):
    assert dplus_direction_equivalence(currents, lat, pairs=[(0, 1)]) > 1e-6


def _per_pair_interaction_sum(a, b, kind, lattice, reverse_argument=False):
    """Oracle: the one-pair sum as it was before the transforms were
    shared, both forward FFTs and the inverse FFT redone for every call."""
    table = kernel_difference_table(lattice, kind, reverse_argument)
    n_t, n_x = lattice.spec.n_time, lattice.spec.n_space
    shape = (2 * n_t, n_x)
    corr = np.fft.irfft2(
        np.fft.rfft2(a.samples, shape) * np.conj(np.fft.rfft2(b.samples, shape)), shape
    )
    corr = np.roll(corr, n_t - 1, axis=0)[: 2 * n_t - 1]
    measure = (lattice.spec.dt * lattice.dx) ** 2
    return complex(np.sum(table * corr) * measure)


def _per_pair_loop(currents, lattice, pairs, kernels):
    """Oracle: each kernel's sum over the pairs, one call per pair and kernel."""
    sums = [0.0 + 0.0j] * len(kernels)
    for i, j in pairs:
        for idx, (kind, reverse) in enumerate(kernels):
            sums[idx] += _per_pair_interaction_sum(
                currents[i], currents[j], kind, lattice, reverse
            )
    return sums


# The multi-pair sums add the pairs' cross-spectra before one inverse
# transform, so they round differently from the per-pair loop.  Bound:
# 8 eps times the sum of the per-pair contractions' moduli (random
# 10x29 to 128x128 lattices with three currents gave at most 4.0 eps).
_MULTI_PAIR_EPS = 8.0 * np.finfo(float).eps


@pytest.mark.parametrize("n", [16, 64])
def test_shared_transforms_match_per_pair_oracle_bitwise(n):
    """Every one-pair sum equals the per-pair oracle bit for bit:
    interaction_sum on every pair, kind and direction, _pair_sums and the
    controls on one pair, and the Parseval residual.  The multi-pair sums
    (every pair, and a subset with a repeat) stay within _MULTI_PAIR_EPS
    of the per-pair loop, relative to the sum of its terms' moduli."""
    lattice = build_lattice(LatticeSpec(n_space=n, n_time=n))
    rng = np.random.default_rng(n)
    currents = [random_current(lattice, rng) for _ in range(3)]
    plus, hadamard = KernelKind.WIGHTMAN_PLUS, KernelKind.HADAMARD
    every = [(i, j) for i in range(3) for j in range(3)]
    kernels = [(hadamard, False), (plus, False), (plus, True)]
    for pairs in (every, [(2, 0), (1, 1), (2, 0)]):
        sums = absorber._pair_sums(currents, lattice, pairs, tuple(kernels))
        for total, kernel in zip(sums, kernels):
            terms = [_per_pair_loop(currents, lattice, [pair], [kernel])[0] for pair in pairs]
            oracle = _per_pair_loop(currents, lattice, pairs, [kernel])[0]
            assert abs(total - oracle) <= _MULTI_PAIR_EPS * sum(abs(t) for t in terms)
    for i, j in every:
        assert absorber._pair_sums(currents, lattice, [(i, j)], tuple(kernels)) == (
            _per_pair_loop(currents, lattice, [(i, j)], kernels)
        )
    s_h, s_p = _per_pair_loop(currents, lattice, [(0, 1)], [(hadamard, False), (plus, False)])
    assert free_field_identity(currents, lattice, [(0, 1)]) == abs(s_h - s_p)
    fwd, bwd = _per_pair_loop(currents, lattice, [(0, 1)], [(plus, False), (plus, True)])
    assert dplus_direction_equivalence(currents, lattice, [(0, 1)]) == abs(fwd - bwd)
    spectrum = emitted_spectrum(currents, lattice)
    total = CurrentDistribution(sum(c.samples for c in currents))
    assert spectrum_consistency_residual(currents, lattice, spectrum) == abs(
        spectrum.total - _per_pair_interaction_sum(total, total, plus, lattice)
    )
    for kind in KernelKind:
        for reverse in (False, True):
            for i, j in every:
                a, b = currents[i], currents[j]
                assert interaction_sum(a, b, kind, lattice, reverse) == (
                    _per_pair_interaction_sum(a, b, kind, lattice, reverse)
                )


def test_check_10f_pair_sums_match_four_interaction_sums(lat, currents):
    """One _pair_sums call per ordered pair with 10f's four kernels gives,
    bit for bit, the four public interaction_sum calls on that pair."""
    kernels = tuple((kind, reverse) for kind in (KernelKind.WIGHTMAN_PLUS, KernelKind.HADAMARD)
                    for reverse in (False, True))
    for i, a in enumerate(currents):
        for j, b in enumerate(currents):
            assert absorber._pair_sums(currents, lat, [(i, j)], kernels) == [
                interaction_sum(a, b, kind, lat, reverse) for kind, reverse in kernels
            ]


@pytest.fixture
def fft_calls(monkeypatch):
    """Counts of the rfft2 and irfft2 calls made through absorber's numpy."""
    counts = {"rfft2": 0, "irfft2": 0}
    for name in counts:
        original = getattr(absorber.np.fft, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(absorber.np.fft, name, counted)
    return counts


def test_pair_sums_transform_each_current_once(lat, currents, fft_calls):
    """Checks 10a, 10b and 10e on three currents: one rfft2 per current a
    call uses and one irfft2 per call, 10 + 4 in all (10 + 20 with one
    irfft2 per pair, 80 + 40 when every pair and kernel redid its
    transforms)."""
    free_field_identity(currents, lat)
    assert fft_calls == {"rfft2": 3, "irfft2": 1}
    dplus_direction_equivalence(currents, lat)
    free_field_identity(currents, lat, pairs=[(0, 1)])
    dplus_direction_equivalence(currents, lat, pairs=[(0, 1)])
    assert fft_calls == {"rfft2": 10, "irfft2": 4}


def test_interaction_sum_transforms_a_repeated_current_once(lat, currents, fft_calls):
    a, b, _ = currents
    interaction_sum(a, a, KernelKind.WIGHTMAN_PLUS, lat)
    assert fft_calls == {"rfft2": 1, "irfft2": 1}
    interaction_sum(a, b, KernelKind.WIGHTMAN_PLUS, lat)
    assert fft_calls == {"rfft2": 3, "irfft2": 2}


@pytest.mark.parametrize("project", [False, True])
def test_absorber_command_fft_counts(tmp_path, fft_calls, capsys, project):
    """A 64x64 `absorber` call on two currents: 3 rfft2 (each current, then
    the total) and 2 irfft2 (the four pairs' summed cross-spectrum, then
    the total), against 3 and 5 with one irfft2 per pair and 18 and 9
    before the transforms were shared."""
    argv = ["absorber", "--n-space=64", "--n-time=64", "--n-currents=2",
            f"--out={tmp_path}"] + (["--project"] if project else [])
    assert cli.main(argv) == 0
    assert fft_calls == {"rfft2": 3, "irfft2": 2}


@pytest.mark.parametrize("identity", [free_field_identity, dplus_direction_equivalence])
@pytest.mark.parametrize(
    "pairs", [[(0, -1)], [(0, 3)], [(3, 0)], [], [(0, 1, 2)], [(0.0, 1)], [5], [(0, 1), "ab"]]
)
def test_bad_pairs_rejected_naming_pairs(lat, currents, identity, pairs):
    """A negative index no longer wraps to the last current, an index past
    the end is no bare IndexError, and an empty list is no silent 0.0."""
    with pytest.raises(ValidationError, match="pairs"):
        identity(currents, lat, pairs=pairs)


@pytest.mark.parametrize("identity", [free_field_identity, dplus_direction_equivalence])
def test_numpy_integer_pairs_accepted(lat, currents, identity):
    pairs = [tuple(np.array([0, 2]))]
    assert identity(currents, lat, pairs=pairs) == identity(currents, lat, pairs=[(0, 2)])


def test_pair_sums_name_the_current_off_the_lattice(lat, currents):
    small = CurrentDistribution(np.ones((4, 4)))
    with pytest.raises(ValidationError, match="current #1 has grid"):
        free_field_identity([currents[0], small], lat)


def test_spectrum_and_its_parseval_residual_name_the_current_off_the_lattice(lat, currents):
    """Both sum the currents by one rule, so the residual names the bad
    current as the spectrum does, not numpy's broadcast error."""
    small = CurrentDistribution(np.ones((3, 3)))
    spectrum = emitted_spectrum(currents[:1], lat)
    with pytest.raises(ValidationError, match="current #1 has grid"):
        emitted_spectrum([currents[0], small], lat)
    with pytest.raises(ValidationError, match="current #1 has grid"):
        spectrum_consistency_residual([currents[0], small], lat, spectrum)


# --- emission spectra -------------------------------------------------------

def test_spectrum_nonnegative_and_consistent(lat, currents):
    spectrum = emitted_spectrum(currents, lat)
    assert spectrum.energies.min() >= 0.0
    assert spectrum.energies.shape == (15,)
    assert spectrum_consistency_residual(currents, lat, spectrum) <= 1e-12


def test_spectrum_scales_quadratically(lat, currents):
    base = emitted_spectrum([currents[0]], lat)
    double = emitted_spectrum([CurrentDistribution(2.0 * currents[0].samples)], lat)
    np.testing.assert_allclose(double.energies, 4.0 * base.energies, rtol=1e-12)


@pytest.mark.parametrize("shape", [(5,), (2, 3)])
def test_stacked_onshell_transform_matches_per_grid_calls(lat, shape):
    """A stack of grids on leading axes transforms each grid bit for bit
    as a call on that grid alone does."""
    stack = np.random.default_rng(3).standard_normal(shape + (16, 16))
    transforms = absorber._onshell_transform(lat, stack)
    assert transforms.shape == shape + (lat.momenta.size,)
    for index in np.ndindex(shape):
        alone = absorber._onshell_transform(lat, stack[index])
        np.testing.assert_array_equal(transforms[index].view(np.uint64), alone.view(np.uint64))


def test_onshell_cosine_radiates_into_its_own_mode(lat):
    """A current oscillating on one lattice mode deposits energy only in
    that +/- momentum pair, and mostly in the mode it travels along."""
    n = 11  # mode index on the 15-mode grid; k > 0
    k = lat.momenta[n]
    w = lat.frequencies[n]
    tt = lat.times()[:, None]
    xx = lat.positions()[None, :]
    current = CurrentDistribution(np.cos(w * tt - k * xx))
    spectrum = emitted_spectrum([current], lat)
    mirror = int(np.argmin(np.abs(lat.momenta + k)))
    on_pair = spectrum.energies[n] + spectrum.energies[mirror]
    off_pair = spectrum.total - on_pair
    assert on_pair > 1e-3
    assert off_pair <= 1e-12 * on_pair
    assert spectrum.energies[n] > 10.0 * spectrum.energies[mirror]


def test_spectrum_csv_round_trip_bytes(lat, currents, tmp_path):
    spectrum = emitted_spectrum(currents, lat)
    p1, p2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    spectrum.to_csv(p1)
    emitted_spectrum(currents, lat).to_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header == "k,omega,energy"


def test_spectrum_csv_bytes_match_csv_writer(tmp_path):
    """to_csv writes the bytes csv.writer writes for the float reprs,
    CRLF line ends included, on signed zeros, subnormals and large values."""
    values = np.array([-0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3, 0.1, -1e16,
                       1e300, -1.7976931348623157e308, 2.5])
    spectrum = EmissionSpectrum(momenta=values, frequencies=values[::-1],
                                energies=np.roll(values, 4))
    spectrum.to_csv(tmp_path / "fast.csv")
    with open(tmp_path / "writer.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "omega", "energy"])
        for k, w, e in zip(spectrum.momenta, spectrum.frequencies, spectrum.energies):
            writer.writerow([repr(float(k)), repr(float(w)), repr(float(e))])
    written = (tmp_path / "fast.csv").read_bytes()
    assert written == (tmp_path / "writer.csv").read_bytes()
    assert written.count(b"\r\n") == values.size + 1 and b"-0.0," in written


# --- light-tight projection -------------------------------------------------

def _per_current_svd_projection(current, lattice):
    """Oracle: project_light_tight as it was before its basis was cached,
    the per-bin pairs' SVD and rank cut redone for every current."""
    n_t, n_x = current.shape
    momenta = np.asarray(lattice.momenta)
    frequencies = np.asarray(lattice.frequencies)[momenta >= 0.0]
    angles = np.multiply.outer(frequencies, lattice.times())
    pairs = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    u, s, _ = np.linalg.svd(pairs, full_matrices=False)
    rank_cutoff = np.finfo(float).eps * max(n_t * n_x, 2 * momenta.size) * s.max()
    u = u * (s > rank_cutoff)[:, None, :]
    spectrum = np.fft.rfft(current.samples, axis=1)
    series = spectrum[:, : frequencies.size].T
    fit = np.einsum("btk,bk->bt", u, np.einsum("btk,bt->bk", u, series))
    spectrum[:, : frequencies.size] -= fit.T
    return np.fft.irfft(spectrum, n=n_x, axis=1)


@pytest.mark.parametrize("spec", [LatticeSpec(), LatticeSpec(box_length=1.0, mass=0.05)],
                         ids=["default", "near-aliasing"])
def test_cached_projection_basis_matches_per_current_svd(spec, monkeypatch):
    """Several currents on one lattice take one SVD between them, read a
    read-only basis, and project bit for bit as the per-current SVD did,
    also where the bins' frequencies nearly alias (item 10's spec)."""
    lattice = build_lattice(spec)
    rng = np.random.default_rng(11)
    currents = [random_current(lattice, rng) for _ in range(3)]
    svd_calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        svd_calls.append(args[0].shape)
        return svd(*args, **kwargs)

    absorber._light_tight_basis.cache_clear()
    monkeypatch.setattr(absorber.np.linalg, "svd", counted)
    projected = [project_light_tight(current, lattice).samples for current in currents]
    assert len(svd_calls) == 1
    monkeypatch.undo()
    for current, samples in zip(currents, projected):
        oracle = _per_current_svd_projection(current, lattice)
        np.testing.assert_array_equal(samples.view(np.uint64), oracle.view(np.uint64))
    basis = absorber._light_tight_basis(lattice.spec)
    assert basis.shape == (spec.n_space // 2, spec.n_time, 2)
    assert not basis.flags.writeable
    with pytest.raises(ValueError):
        basis[0, 0, 0] = 1.0

def test_projection_removes_all_emission(lat, currents):
    projected = project_light_tight(currents[0], lat)
    assert emitted_spectrum([projected], lat).total <= 1e-10
    # the projection actually changed the current
    assert np.max(np.abs(projected.samples - currents[0].samples)) > 1e-3


def test_projection_is_idempotent(lat, currents):
    once = project_light_tight(currents[0], lat)
    twice = project_light_tight(once, lat)
    assert np.max(np.abs(twice.samples - once.samples)) <= 1e-12


@pytest.mark.parametrize(
    "n_time,n_space,mass",
    [(n_t, n_x, 1.0) for n_t, n_x in ORACLE_GRIDS] + [(16, 16, np.pi / 0.1)],
)
def test_projection_matches_lstsq_oracle(n_time, n_space, mass):
    """The per-bin spectral projection equals the least-squares residual
    on the flattened on-shell basis, including the grid where
    mass * dt = pi makes exp(i w_0 t) = exp(-i w_0 t) (rank-deficient)."""
    lattice = build_lattice(LatticeSpec(n_space=n_space, n_time=n_time, mass=mass))
    if mass * lattice.spec.dt == pytest.approx(np.pi):
        basis = _onshell_basis(lattice)
        assert np.linalg.matrix_rank(basis) < basis.shape[1]
    rng = np.random.default_rng([n_time, n_space])
    currents = [random_current(lattice, rng) for _ in range(3)]
    assert _projection_spectral_vs_lstsq(currents, lattice) <= 1e-12


def test_projected_current_still_satisfies_identities(lat, currents):
    projected = [project_light_tight(c, lat) for c in currents[:2]]
    assert free_field_identity(projected, lat) <= 1e-11


def test_empty_current_list_is_trivially_sealed(lat):
    assert emitted_spectrum([], lat).total == 0.0
    assert spectrum_consistency_residual([], lat, emitted_spectrum([], lat)) == 0.0


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_spectrum_nonnegativity_property(lat, seed):
    rng = np.random.default_rng(seed)
    current = random_current(lat, rng)
    assert emitted_spectrum([current], lat).energies.min() >= 0.0
