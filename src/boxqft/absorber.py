"""Double-sum identities for real currents coupled through the kernels.

Implements the discrete analogue of two currents interacting through a
propagator kernel,

    S[a, b; K] = sum_{x, y} a(x) K(x - y) b(y) (dt dx)^2,

with x and y running over the full spacetime grid, and uses it to
verify the claims that hold only under full symmetric double
summation:

* summing the Hadamard combination (D+ - D-)/2 over *all* ordered
  current pairs equals summing D+ alone (the antisymmetry of the
  Wightman pair cancels the odd part);
* the same full double sum is blind to the direction of the kernel
  argument, S[D+(x-y)] = S[D+(y-x)];
* the per-mode emission energies E_n = |J_tilde(w_n, k_n)|^2
  (dt dx)^2 / (2 w_n L) are manifestly nonnegative and reassemble the
  D+ double sum exactly (a discrete Parseval identity);
* a current with zero on-shell Fourier content emits nothing — the
  "sealed box" configuration — and such a current can be constructed
  from any current by least-squares projection.

Restricting any of these sums to a proper subset of current pairs
breaks the identities, which the shipped negative controls demonstrate.

Cost.  S is linear in the currents' cross-spectrum, and its correlation
is linear in time and circular in space.  Every double sum takes one
zero-padded rfft2 per current, adds the pairs' cross-spectra, then one
irfft2 and one contraction per kernel difference table: O(n_t n_x) per
pair, against O(n_t^2 n_x^2) for the direct double sum.  The positions
x_j = j L / N put every spatial phase exp(i k_n x_j) on a DFT bin, so the
difference table is one inverse DFT per time row of per-mode
coefficients, and the light-tight projection is a two-column fit per
spatial bin, on a basis factored once per lattice, between a forward
and an inverse DFT: both O(n_t n_x log n_x).  The direct mode
sums (propagators.kernel_values) and the least-squares projection on
the flattened on-shell basis stay as the oracles of checks 10g and 10h.
The emission spectrum takes its own route, direct exponential sums at
the on-shell frequencies, so the Parseval residual compares two
independent computations.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .lattice import Lattice, LatticeSpec, ValidationError, build_lattice
from .propagators import KernelKind, wightman_weights

__all__ = [
    "CurrentDistribution",
    "EmissionSpectrum",
    "current_from_csv",
    "dplus_direction_equivalence",
    "emitted_spectrum",
    "free_field_identity",
    "interaction_sum",
    "kernel_difference_table",
    "project_light_tight",
    "random_current",
    "spectrum_consistency_residual",
]


@dataclass(frozen=True)
class CurrentDistribution:
    """Real current amplitudes j(t_i, x_j) on the full spacetime grid.

    Samples must be real (the emission-positivity argument needs real
    currents) and finite, and are stored read-only.
    """

    samples: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.samples)
        if np.iscomplexobj(arr):
            if np.any(arr.imag != 0):
                raise ValidationError("current samples must be real")
            arr = arr.real
        arr = np.array(arr, dtype=float)
        if arr.ndim != 2:
            raise ValidationError(
                f"current samples must be a 2-d (time, space) array, got shape {arr.shape}"
            )
        if not np.isfinite(arr).all():
            raise ValidationError("current samples must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    @property
    def shape(self) -> tuple[int, int]:
        return self.samples.shape


def current_from_csv(path: str | Path, n_time: int, n_space: int) -> CurrentDistribution:
    """Load a current from rows `t_index,x_index,value` onto an empty grid.

    An unreadable file, a missing header, an index that is not an integer
    or lies outside the grid, and a value that is not a number each raise
    a validation error naming ``current`` (and the line, for a row).
    """
    samples = np.zeros((n_time, n_space))
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            required = {"t_index", "x_index", "value"}
            if reader.fieldnames is None or not required.issubset(reader.fieldnames):
                raise ValidationError(
                    f"current CSV must have header t_index,x_index,value, got {reader.fieldnames}"
                )
            for row in reader:
                where = f"current line {reader.line_num}"
                try:
                    i, j = int(row["t_index"]), int(row["x_index"])
                    value = float(row["value"])
                except (TypeError, ValueError) as exc:
                    raise ValidationError(
                        f"{where}: expected integer indices and a number, got "
                        f"{row['t_index']!r}, {row['x_index']!r}, {row['value']!r}"
                    ) from exc
                if not (0 <= i < n_time and 0 <= j < n_space):
                    raise ValidationError(
                        f"{where}: sample index ({i}, {j}) outside grid ({n_time}, {n_space})"
                    )
                samples[i, j] += value
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ValidationError(f"current: cannot read {path}: {exc}") from exc
    return CurrentDistribution(samples)


def random_current(lattice: Lattice, rng: np.random.Generator) -> CurrentDistribution:
    """Standard-normal current on the lattice grid (seeded by the caller)."""
    return CurrentDistribution(
        rng.standard_normal((lattice.spec.n_time, lattice.spec.n_space))
    )


def _check_on_lattice(current: CurrentDistribution, lattice: Lattice, name: str) -> None:
    expected = (lattice.spec.n_time, lattice.spec.n_space)
    if current.shape != expected:
        raise ValidationError(
            f"current {name} has grid {current.shape}, lattice expects {expected}"
        )


# An absorber run uses two kinds (Hadamard and D+) on one lattice, and a
# new mass or grid is a new key, so a larger cache only keeps tables that
# never hit again (130 KB each at 64x64).
@lru_cache(maxsize=4)
def _difference_table(spec: LatticeSpec, kind: KernelKind) -> np.ndarray:
    """Kernel values on every grid difference: shape (2 n_time - 1, n_space).

    Row r holds time difference t = (r - (n_time - 1)) * dt; column c
    holds space difference c * dx (differences reduced modulo the box).
    The equal-time row takes the t >= 0 weights, the kernels' continuous
    value at t = 0.

    Every kind is w+(t) D+ + w-(t) D- with the weights of
    propagators.wightman_weights, and both sums carry the spatial phase
    exp(i k_n c dx) = exp(2 pi i n c / N).  So each row is the inverse
    DFT of the per-mode coefficients
        w+(t) exp(-i w_n t) / (2 w_n L) - w-(t) exp(+i w_n t) / (2 w_n L)
    placed on bins n mod N; the excluded edge bin stays zero.
    """
    lattice = build_lattice(spec)
    n_t, n_x = spec.n_time, spec.n_space
    L = spec.box_length
    dts = np.arange(-(n_t - 1), n_t) * spec.dt
    weights = np.asarray(wightman_weights(kind))[(dts < 0.0).astype(int)]  # (2 n_t - 1, 2)
    frequencies = np.asarray(lattice.frequencies)
    phases = np.exp(-1j * np.multiply.outer(dts, frequencies))
    coefficients = (
        weights[:, :1] * phases - weights[:, 1:] * np.conj(phases)
    ) / (2.0 * frequencies * L)
    bins = np.rint(np.asarray(lattice.momenta) * L / (2.0 * np.pi)).astype(int) % n_x
    spectrum = np.zeros((2 * n_t - 1, n_x), dtype=complex)
    spectrum[:, bins] = coefficients
    # norm="forward" puts the 1/N on the forward transform, so the inverse
    # is the plain sum over bins.
    table = np.fft.ifft(spectrum, axis=1, norm="forward")
    table.setflags(write=False)
    return table


def kernel_difference_table(
    lattice: Lattice, kind: KernelKind, reverse_argument: bool = False
) -> np.ndarray:
    """Kernel on all grid differences; optionally with the argument negated.

    ``reverse_argument`` returns the table of K(y - x) instead of
    K(x - y), i.e. the original table with both difference axes negated
    (space negation taken modulo the grid).
    """
    table = _difference_table(lattice.spec, kind)
    if not reverse_argument:
        return table
    n_x = lattice.spec.n_space
    space_neg = (-np.arange(n_x)) % n_x
    return table[::-1][:, space_neg]


def _padded_spectrum(current: CurrentDistribution, lattice: Lattice, name: str) -> np.ndarray:
    """Step 1 of a double sum: the rfft2 of a current zero-padded in time to
    P = 2 n_time >= 2 n_time - 1, so that no lag wraps (an even P also
    avoids prime FFT lengths such as 127)."""
    _check_on_lattice(current, lattice, name)
    return np.fft.rfft2(current.samples, (2 * lattice.spec.n_time, lattice.spec.n_space))


def _correlation(cross: np.ndarray, lattice: Lattice) -> np.ndarray:
    """Step 2: one inverse transform of a cross-spectrum, the sum of
    F_a conj(F_b) over the chosen pairs, gives every lag of
    corr[d, e] = sum over those pairs of sum_{i,j} a[i + d, j + e] b[i, j]."""
    n_t, n_x = lattice.spec.n_time, lattice.spec.n_space
    corr = np.fft.irfft2(cross, (2 * n_t, n_x))
    # Lag d sits at row d mod P; rolling by n_t - 1 puts lags
    # -(n_t - 1) .. n_t - 1 on rows 0 .. 2 n_t - 2, as in the table.
    return np.roll(corr, n_t - 1, axis=0)[: 2 * n_t - 1]


def _contract(table: np.ndarray, corr: np.ndarray, lattice: Lattice) -> complex:
    """Step 3: a difference table contracted with a pair's correlation."""
    return complex(np.sum(table * corr) * (lattice.spec.dt * lattice.dx) ** 2)


def interaction_sum(
    a: CurrentDistribution,
    b: CurrentDistribution,
    kind: KernelKind,
    lattice: Lattice,
    reverse_argument: bool = False,
) -> complex:
    """Discrete double integral sum_{x,y} a(x) K(x-y) b(y) (dt dx)^2.

    ``reverse_argument`` evaluates the kernel at (y - x) instead,
    which matters for kernels that are not even under full reflection.

    The one-pair case of the pair sums: the difference table contracted
    with the cross-correlation of the two currents, which is linear in
    time and circular in space, so one rfft2 per current (one when
    ``a is b``) and one irfft2 give every lag in O(n_t n_x log(n_t n_x)).
    """
    currents, pair = ([a], (0, 0)) if b is a else ([a, b], (0, 1))
    return _pair_sums(currents, lattice, [pair], ((kind, reverse_argument),))[0]


def _pair_sums(
    currents: list[CurrentDistribution],
    lattice: Lattice,
    pairs: list[tuple[int, int]] | None,
    kernels: tuple[tuple[KernelKind, bool], ...],
) -> list[complex]:
    """The double sum S over the chosen ordered pairs (all when ``pairs``
    is None) for each (kind, reverse_argument) in ``kernels``: one
    transform per current, and one inverse transform of the pairs'
    F_i conj(F_j) added in pair order from the first.  np.multiply, not
    ``*``: numpy may evaluate ``fi * conj(fj)`` in place on the conj
    temporary with the operands swapped, which rounds differently.
    Current k is named ``#k`` in errors."""
    if not currents:
        raise ValidationError("at least one current is required")
    n = len(currents)
    chosen = [(i, j) for i in range(n) for j in range(n)] if pairs is None else list(pairs)
    if not (chosen and all(np.shape(pair) == (2,) for pair in chosen) and all(
        isinstance(k, (int, np.integer)) and 0 <= k < n for pair in chosen for k in pair
    )):
        raise ValidationError(
            f"pairs must be a non-empty list of index pairs (i, j), 0 <= i, j < {n}; got {pairs!r}"
        )
    tables = [kernel_difference_table(lattice, kind, rev) for kind, rev in kernels]
    spectra = {k: _padded_spectrum(currents[k], lattice, f"#{k}") for k in set().union(*chosen)}
    (i, j), *rest = chosen
    cross = np.multiply(spectra[i], np.conj(spectra[j]))
    for i, j in rest:
        cross += np.multiply(spectra[i], np.conj(spectra[j]))
    corr = _correlation(cross, lattice)
    return [_contract(table, corr, lattice) for table in tables]


def free_field_identity(
    currents: list[CurrentDistribution],
    lattice: Lattice,
    pairs: list[tuple[int, int]] | None = None,
) -> float:
    """|S1 - S2| where S1 sums the Hadamard kernel and S2 sums D+ over pairs.

    Over *all* ordered current pairs the two agree up to rounding: the
    difference kernel (D+ + D-)/2 is odd under full reflection, so the
    symmetric double sum annihilates it.  Restricting ``pairs`` to a
    proper subset (the negative control) breaks the cancellation.
    """
    s_hadamard, s_plus = _pair_sums(
        currents, lattice, pairs,
        ((KernelKind.HADAMARD, False), (KernelKind.WIGHTMAN_PLUS, False)),
    )
    return abs(s_hadamard - s_plus)


def dplus_direction_equivalence(
    currents: list[CurrentDistribution],
    lattice: Lattice,
    pairs: list[tuple[int, int]] | None = None,
) -> float:
    """|sum D+(x-y) - sum D+(y-x)| over the chosen current pairs.

    Under the full symmetric double sum the two argument directions are
    interchangeable; a single unsymmetrized pair (the negative control)
    shows they are not interchangeable pointwise.
    """
    forward, backward = _pair_sums(
        currents, lattice, pairs,
        ((KernelKind.WIGHTMAN_PLUS, False), (KernelKind.WIGHTMAN_PLUS, True)),
    )
    return abs(forward - backward)


@dataclass(frozen=True)
class EmissionSpectrum:
    """Per-mode emission energies E_n >= 0 indexed by the lattice momenta."""

    momenta: np.ndarray
    frequencies: np.ndarray
    energies: np.ndarray

    def __post_init__(self) -> None:
        for name in ("momenta", "frequencies", "energies"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not (self.momenta.shape == self.frequencies.shape == self.energies.shape):
            raise ValidationError("spectrum arrays must have matching shapes")

    @property
    def total(self) -> float:
        return float(self.energies.sum())

    def to_csv(self, path: str | Path) -> None:
        """Float reprs in the bytes csv.writer writes: none needs quoting."""
        rows = zip(self.momenta.tolist(), self.frequencies.tolist(), self.energies.tolist())
        with open(path, "w", newline="") as fh:
            fh.write("k,omega,energy\r\n" + "".join(f"{k!r},{w!r},{e!r}\r\n" for k, w, e in rows))


def _onshell_transform(lattice: Lattice, total: np.ndarray) -> np.ndarray:
    """J_tilde_n = sum_{i,j} J(t_i, x_j) exp(+i(w_n t_i - k_n x_j)).

    Direct exponential sums: the on-shell frequencies w_n do not lie on
    uniform transform bins, so no FFT applies.  The time sum is one
    matrix product, (n_x, n_t) @ (n_t, modes), and the space sum a
    column sum against the spatial phases; this route shares nothing
    with interaction_sum.  ``total`` is an (n_t, n_x) grid or a stack of
    them on leading axes, each transformed as it would be alone.
    """
    times = np.asarray(lattice.times())
    positions = np.asarray(lattice.positions())
    time_phases = np.exp(1j * np.multiply.outer(times, np.asarray(lattice.frequencies)))
    space_phases = np.exp(-1j * np.multiply.outer(positions, np.asarray(lattice.momenta)))
    return np.sum((np.swapaxes(total, -1, -2) @ time_phases) * space_phases, axis=-2)


def _mode_energies(lattice: Lattice, transform: np.ndarray) -> np.ndarray:
    """E_n = |J_tilde_n|^2 (dt dx)^2 / (2 w_n L) along the last axis."""
    measure = (lattice.spec.dt * lattice.dx) ** 2
    w = np.asarray(lattice.frequencies)
    return (np.abs(transform) ** 2) * measure / (2.0 * w * lattice.spec.box_length)


def _total_current(currents: list[CurrentDistribution], lattice: Lattice) -> np.ndarray:
    """The samples of J = sum of the inputs, each checked against the
    lattice grid first (current k is named ``#k`` in errors)."""
    total = np.zeros((lattice.spec.n_time, lattice.spec.n_space))
    for idx, current in enumerate(currents):
        _check_on_lattice(current, lattice, f"#{idx}")
        total = total + current.samples
    return total


def emitted_spectrum(
    currents: list[CurrentDistribution], lattice: Lattice
) -> EmissionSpectrum:
    """Per-mode energies of the total current J = sum of the inputs.

    E_n = |J_tilde(w_n, k_n)|^2 (dt dx)^2 / (2 w_n L): the D+ double
    sum decomposed by mode, hence nonnegative term by term.
    """
    total = _total_current(currents, lattice)
    return EmissionSpectrum(
        momenta=np.asarray(lattice.momenta), frequencies=np.asarray(lattice.frequencies),
        energies=_mode_energies(lattice, _onshell_transform(lattice, total)),
    )


def spectrum_consistency_residual(
    currents: list[CurrentDistribution], lattice: Lattice, spectrum: EmissionSpectrum
) -> float:
    """|sum_n E_n - S[J, J; D+]|: the mode decomposition ``spectrum``
    (emitted_spectrum of the same currents, built once by the caller)
    against the direct double sum over the total current (discrete
    Parseval)."""
    if not currents:
        return 0.0
    total = CurrentDistribution(_total_current(currents, lattice))
    double_sum = interaction_sum(total, total, KernelKind.WIGHTMAN_PLUS, lattice)
    return abs(spectrum.total - double_sum)


# Sized as the difference tables' cache (32 KB per basis at 64x64).
@lru_cache(maxsize=4)
def _light_tight_basis(spec: LatticeSpec) -> np.ndarray:
    """project_light_tight's (bins, n_t, 2) orthonormal basis, read-only."""
    lattice = build_lattice(spec)
    frequencies = lattice.frequencies[lattice.momenta >= 0.0]       # bins 0 .. N/2 - 1
    angles = np.multiply.outer(frequencies, lattice.times())
    pairs = np.stack([np.cos(angles), np.sin(angles)], axis=-1)     # (bins, n_t, 2)
    u, s, _ = np.linalg.svd(pairs, full_matrices=False)
    rcond = np.finfo(float).eps * max(spec.n_time * spec.n_space, 2 * lattice.momenta.size)
    u = u * (s > rcond * s.max())[:, None, :]
    u.setflags(write=False)
    return u


def project_light_tight(
    current: CurrentDistribution, lattice: Lattice
) -> CurrentDistribution:
    """Remove every on-shell Fourier component from a current.

    The least-squares projection onto the orthogonal complement of the
    on-shell grid functions cos(w_n t - k_n x) and sin(w_n t - k_n x),
    taken spatial bin by spatial bin: after a DFT over x, bin n (n >= 0)
    holds exactly the on-shell time functions exp(+-i w_n t), whose span
    is that of the real pair cos(w_n t), sin(w_n t), and the Nyquist bin
    holds none.  Each bin's time series loses its fit on its pair, and an
    inverse real DFT returns a real current with (numerically) zero
    emission in every mode.

    A pair direction whose singular value is below eps * max(M, N) times
    the largest one is dropped: the rank rule of np.linalg.lstsq on the
    flattened (M, N) = (n_t n_x, 2 modes) basis, whose singular values
    are the per-bin ones times sqrt(n_x).  So a grid where
    exp(i w t) = exp(-i w t), e.g. w dt = pi, projects as that fit does.
    The pairs' SVD and rank cut are taken once per lattice spec, so a
    current costs two DFTs and two einsums.
    """
    _check_on_lattice(current, lattice, "current")
    u = _light_tight_basis(lattice.spec)
    spectrum = np.fft.rfft(current.samples, axis=1)
    series = spectrum[:, : u.shape[0]].T                            # (bins, n_t)
    fit = np.einsum("btk,bk->bt", u, np.einsum("btk,bt->bk", u, series))
    spectrum[:, : u.shape[0]] -= fit.T
    return CurrentDistribution(np.fft.irfft(spectrum, n=lattice.spec.n_space, axis=1))
