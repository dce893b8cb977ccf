"""Truncated two-sector bosonic Fock space over a finite set of field modes.

Each momentum mode carries two independent oscillator sectors: quanta
created by ``a_dag`` and antiquanta created by ``b_dag``.  States are
sparse maps from occupation tuples to complex amplitudes; operators are
sums of scaled ladder-factor products that can be applied symbolically
to states or materialized as a :class:`FockMatrix`, the matrix stored as
its diagonals, one numpy pass over the basis per term.  Coefficients and
amplitudes may be numpy arrays of one shape, a batch, as
:func:`field_operator` builds at arrays of points.  A check's
residual is formed as one operator in that algebra and materialized
once; matrix arithmetic is left to the one route that needs it, check
07's commutator.  ``matrix_norm`` is the exact dense spectral norm, for
sides up to ``DENSE_NORM_MAX_SIDE``;
``hilbert_schmidt_norm`` is the root mean square singular value, read off
the stored diagonals at any side.  A matrix with a non-finite entry has
neither, and raises :class:`~boxqft.lattice.NumericalFailure`.  The
module loads no scipy.

The module serves as an independent cross-check on the kernel mode sums
in :mod:`boxqft.propagators`: the time-ordered two-point function
computed here by explicit operator algebra must reproduce the Feynman
kernel, and the mode-operator identities (negative-frequency phase of
``b_dag``, momentum sign reversal between retarded and advanced phase
choices, the antiparticle relabeling of the field expansion, and the
translation-generator commutator) are all verified at matrix level.
It imports nothing from :mod:`boxqft.propagators`, so the two routes of
that cross-check share no kernel code: spacetime points here are plain
``(t, x)`` float pairs.

Conventions (shared with :mod:`boxqft.propagators`):

* field operator  ``Psi(t, x) = sum_k (1/sqrt(2 w_k L)) *
  (a_k exp(i(k x - w_k t)) + b_dag_k exp(-i(k x - w_k t)))``
* normal-ordered energy ``H = sum_k w_k (a_dag_k a_k + b_dag_k b_k)``
  and momentum ``P = sum_k k (a_dag_k a_k + b_dag_k b_k)``, one
  weighted number operator (``_number_operator``) with weights w_k or k.

Creation above the per-mode occupation ceiling maps the affected
component to zero and increments a truncation counter on the resulting
state instead of raising, so tests can assert "no truncation occurred".
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .lattice import Lattice, NumericalFailure, ValidationError, omega

__all__ = [
    "FockMatrix",
    "FockState",
    "ModeOperator",
    "ModeSpec",
    "a_dag",
    "a_op",
    "antiparticle_energy_check",
    "antiparticle_phase_check",
    "apply",
    "b_dag",
    "b_op",
    "field_operator",
    "hilbert_schmidt_norm",
    "make_mode_spec",
    "matrix_norm",
    "mode_spec_from_lattice",
    "momentum_sign_check",
    "operator_matrix",
    "oscillator_momentum",
    "reinterpretation_check",
    "time_ordered_vev_detail",
    "translation_generator_check",
    "vacuum",
]

#: Hard cap on basis dimension for matrix materialization (guards
#: against accidentally requesting a matrix over a huge mode set).
MATRIX_DIMENSION_CAP = 1 << 20

# A ladder factor: (sector, mode index, dagger flag).  Factors in a term
# are stored left-to-right in operator order and applied right-to-left.
Factor = tuple[str, int, bool]

_SECTORS = ("a", "b")


@dataclass(frozen=True)
class ModeSpec:
    """Finite ordered mode set with per-mode occupation ceiling.

    ``momenta[i]`` and ``frequencies[i]`` describe mode ``i``; both
    sectors (quanta and antiquanta) exist for every mode.  Equality is by
    value: ``FockState.inner`` requires both states to have equal specs.
    """

    momenta: tuple[float, ...]
    frequencies: tuple[float, ...]
    box_length: float
    max_occupation: int = 1

    def __post_init__(self) -> None:
        if len(self.momenta) < 1:
            raise ValidationError("momenta must contain at least one mode")
        if len(self.momenta) != len(self.frequencies):
            raise ValidationError(
                f"momenta and frequencies length mismatch: "
                f"{len(self.momenta)} vs {len(self.frequencies)}"
            )
        if len(set(self.momenta)) != len(self.momenta):
            raise ValidationError("momenta must be distinct")
        if not all(math.isfinite(k) for k in self.momenta):
            raise ValidationError(f"momenta must be finite, got {self.momenta}")
        if not (math.isfinite(self.box_length) and self.box_length > 0):
            raise ValidationError(
                f"box_length must be finite and positive, got {self.box_length}"
            )
        if self.max_occupation < 1:
            raise ValidationError(
                f"max_occupation must be a positive integer, got {self.max_occupation}"
            )
        for w in self.frequencies:
            if not (math.isfinite(w) and w > 0):
                raise ValidationError(f"frequencies must be finite and positive, got {w}")

    @property
    def n_modes(self) -> int:
        return len(self.momenta)

    @property
    def basis_dim(self) -> int:
        """Dimension of the truncated space: (ceiling+1)^(2 modes)."""
        return (self.max_occupation + 1) ** (2 * self.n_modes)

    def negation_index(self) -> tuple[int, ...]:
        """For each mode i, the index j with momenta[j] == -momenta[i]."""
        lookup = {k: i for i, k in enumerate(self.momenta)}
        try:
            return tuple(lookup[-k] for k in self.momenta)
        except KeyError as exc:
            raise ValidationError(
                f"mode set is not closed under negation: missing momentum {exc.args[0]}"
            ) from None

    def mode_coefficient(self, i: int) -> float:
        """Box normalization 1/sqrt(2 w_i L) of mode i in the field sum."""
        return 1.0 / math.sqrt(2.0 * self.frequencies[i] * self.box_length)


def make_mode_spec(
    momenta: Iterable[float],
    mass: float,
    box_length: float,
    max_occupation: int = 1,
) -> ModeSpec:
    """Build a ModeSpec with on-shell frequencies sqrt(m^2 + k^2)."""
    ks = tuple(float(k) for k in momenta)
    freqs = tuple(omega(k, mass) for k in ks)
    return ModeSpec(ks, freqs, float(box_length), int(max_occupation))


def mode_spec_from_lattice(
    lattice: Lattice,
    max_occupation: int = 1,
    half_width: int | None = None,
) -> ModeSpec:
    """Mode set taken from a lattice momentum grid.

    ``half_width=h`` restricts to the 2h+1 central modes (a negation-
    closed subset) of the ascending grid; ``None`` takes the full grid.
    """
    ks = np.asarray(lattice.momenta)
    ws = np.asarray(lattice.frequencies)
    if half_width is not None:
        if half_width < 0:
            raise ValidationError(f"half_width must be nonnegative, got {half_width}")
        center = int(np.argmin(np.abs(ks)))
        lo, hi = center - half_width, center + half_width + 1
        if lo < 0 or hi > ks.size:
            raise ValidationError(
                f"half_width {half_width} exceeds available modes ({ks.size})"
            )
        ks, ws = ks[lo:hi], ws[lo:hi]
    return ModeSpec(
        tuple(float(k) for k in ks),
        tuple(float(w) for w in ws),
        lattice.spec.box_length,
        int(max_occupation),
    )


def _product(a, b):
    """a * b in real arithmetic, as CPython forms a complex product, so a
    batch entry has its one-state bits: numpy's vectorised product may fuse."""
    re, im = a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real
    if isinstance(re, float):
        return complex(re, im)
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


@dataclass(frozen=True)
class FockState:
    """Sparse state: map (quanta occupations, antiquanta occupations) -> amplitude.

    Amplitudes may be arrays of one shape, a batch of states.
    ``truncation_events`` counts components dropped (once per batch entry)
    because a creation factor would have exceeded the per-mode ceiling
    anywhere in the history that produced this state.
    """

    spec: ModeSpec
    amplitudes: Mapping[tuple[tuple[int, ...], tuple[int, ...]], complex]
    truncation_events: int = 0

    def norm(self) -> float | np.ndarray:
        """sqrt(<self|self>), an array for a batch whose entries are summed
        in Python scalars, as one state is, so each has its state's bits."""
        values = list(self.amplitudes.values())
        shape = np.broadcast_shapes(*map(np.shape, values))
        if not shape:
            return math.sqrt(sum(abs(a) ** 2 for a in values))
        entries = zip(*(np.broadcast_to(a, shape).ravel().tolist() for a in values))
        return np.reshape([math.sqrt(sum(abs(a) ** 2 for a in e)) for e in entries], shape)

    def inner(self, other: "FockState") -> complex | np.ndarray:
        """Hermitian inner product <self|other>, an array for a batch (0j if
        no component is shared).  Each conj(a) b is formed by _product."""
        if self.spec != other.spec:
            raise ValidationError("inner product requires matching mode specs")
        mine, theirs = self.amplitudes, other.amplitudes
        keys = mine.keys() if len(mine) <= len(theirs) else theirs.keys()
        total = 0
        for a, b in [(mine[key], theirs[key]) for key in keys if key in mine and key in theirs]:
            total = total + _product(a.conjugate(), b)
        return total if isinstance(total, np.ndarray) else complex(total)


def vacuum(spec: ModeSpec) -> FockState:
    """Unit-norm state with every occupation zero."""
    zeros = (0,) * spec.n_modes
    return FockState(spec, {(zeros, zeros): 1.0 + 0.0j})


@dataclass(frozen=True)
class ModeOperator:
    """Sum of scaled products of ladder factors.

    ``terms`` is a tuple of ``(coefficient, factors)`` pairs; each
    factor is ``(sector, mode, dagger)`` with sector ``'a'`` (quanta) or
    ``'b'`` (antiquanta).  Factors are written in operator order, so the
    rightmost factor acts first on a ket.  Coefficients may be arrays of
    one shape, a batch of operators; ``*`` scales by a number.
    """

    terms: tuple[tuple[complex, tuple[Factor, ...]], ...]

    @staticmethod
    def zero() -> "ModeOperator":
        return ModeOperator(())

    @staticmethod
    def ladder(sector: str, mode: int, dagger: bool) -> "ModeOperator":
        if sector not in _SECTORS:
            raise ValidationError(f"sector must be 'a' or 'b', got {sector!r}")
        if mode < 0:
            raise ValidationError(f"mode index must be nonnegative, got {mode}")
        return ModeOperator(((1.0 + 0.0j, ((sector, int(mode), bool(dagger)),)),))

    def __add__(self, other: "ModeOperator") -> "ModeOperator":
        return ModeOperator(self.terms + other.terms)

    def __sub__(self, other: "ModeOperator") -> "ModeOperator":
        return self + (-other)

    def __neg__(self) -> "ModeOperator":
        return ModeOperator(tuple((-c, f) for c, f in self.terms))

    def __mul__(self, scalar: complex) -> "ModeOperator":
        s = complex(scalar)
        return ModeOperator(tuple((c * s, f) for c, f in self.terms))

    __rmul__ = __mul__

    def __matmul__(self, other: "ModeOperator") -> "ModeOperator":
        """Operator product: distribute over both term sums."""
        return ModeOperator(
            tuple(
                (c1 * c2, f1 + f2)
                for c1, f1 in self.terms
                for c2, f2 in other.terms
            )
        )

    def adjoint(self) -> "ModeOperator":
        """Hermitian adjoint: conjugate coefficients, reverse factors, flip daggers."""
        return ModeOperator(
            tuple(
                (
                    c.conjugate(),
                    tuple((s, m, not d) for s, m, d in reversed(f)),
                )
                for c, f in self.terms
            )
        )


def a_op(mode: int) -> ModeOperator:
    """Quanta annihilation operator for the given mode index."""
    return ModeOperator.ladder("a", mode, False)


def a_dag(mode: int) -> ModeOperator:
    """Quanta creation operator."""
    return ModeOperator.ladder("a", mode, True)


def b_op(mode: int) -> ModeOperator:
    """Antiquanta annihilation operator."""
    return ModeOperator.ladder("b", mode, False)


def b_dag(mode: int) -> ModeOperator:
    """Antiquanta creation operator."""
    return ModeOperator.ladder("b", mode, True)


def _check_mode(spec: ModeSpec, mode: int) -> None:
    """Raise a validation error if ``mode`` indexes no mode of ``spec``."""
    if not 0 <= mode < spec.n_modes:
        raise ValidationError(f"mode index {mode} outside mode set of size {spec.n_modes}")


def _check_modes(op: ModeOperator, spec: ModeSpec) -> None:
    """Raise a validation error naming the first factor of ``op`` whose
    mode index lies outside ``spec``."""
    for _, factors in op.terms:
        for _, mode, _ in factors:
            _check_mode(spec, mode)


def _require_finite(**values) -> None:
    """Raise a validation error naming the first of ``values`` (numbers or
    arrays) with an entry that is not finite, and that entry: a nan or
    inf time or position has no field operator."""
    for name, value in values.items():
        if isinstance(value, (int, float)) and math.isfinite(value):
            continue
        bad = np.asarray(value, dtype=float)[~np.isfinite(value)]
        if bad.size:
            raise ValidationError(f"{name} must be finite, got {bad[0]}")


def apply(op: ModeOperator, state: FockState) -> FockState:
    """Apply an operator to a state with sqrt(n) ladder factors.

    Annihilating below vacuum yields the zero component silently;
    creating above the per-mode ceiling drops the component and counts
    one truncation event per batch entry.  Mode indices outside the
    state's mode set raise a validation error.
    """
    spec = state.spec
    n_modes = spec.n_modes
    ceiling = spec.max_occupation
    _check_modes(op, spec)
    out: dict[tuple[tuple[int, ...], tuple[int, ...]], complex] = {}
    truncations = 0
    for coeff, factors in op.terms:
        # a complex (numpy's complex128 is one) skips np.any's cost per term
        if coeff == 0 if isinstance(coeff, complex) else not np.any(coeff):
            continue
        for (na, nb), amplitude in state.amplitudes.items():
            amp = _product(amplitude, coeff)
            occ = list(na) + list(nb)
            for sector, mode, dagger in reversed(factors):
                slot = mode if sector == "a" else n_modes + mode
                n = occ[slot]
                step = 1 if dagger else -1
                # The new occupation must lie in 0 .. ceiling.
                if not 0 <= n + step <= ceiling:
                    if dagger:
                        truncations += 1 if isinstance(amp, complex) else np.size(amp)
                    break
                amp *= math.sqrt(n + 1 if dagger else n)
                occ[slot] = n + step
            else:
                key = (tuple(occ[:n_modes]), tuple(occ[n_modes:]))
                out[key] = out.get(key, 0.0 + 0.0j) + amp
    cleaned = {key: amp for key, amp in out.items()
               if (amp != 0 if isinstance(amp, complex) else np.any(amp))}
    return FockState(spec, cleaned, state.truncation_events + truncations)


# ---------------------------------------------------------------------------
# Field operators and two-point functions
# ---------------------------------------------------------------------------

def field_operator(spec: ModeSpec, t: float, x: float) -> ModeOperator:
    """Field operator Psi(t, x) over the mode set.

    ``Psi = sum_k c_k (a_k exp(i(k x - w t)) + b_dag_k exp(-i(k x - w t)))``
    with box normalization ``c_k = 1/sqrt(2 w_k L)``.  The adjoint field
    is ``field_operator(spec, t, x).adjoint()``.  ``t`` and ``x`` must be
    finite.  Arrays ``t`` and ``x`` give the batch of fields at those
    points (array coefficients); one point gets Python complex ones.
    """
    _require_finite(t=t, x=x)
    angles = np.multiply.outer(x, spec.momenta) - np.multiply.outer(t, spec.frequencies)
    phases = np.exp(1j * angles)
    phases = phases.tolist() if phases.ndim == 1 else np.moveaxis(phases, -1, 0)
    terms: list[tuple[complex, tuple[Factor, ...]]] = []
    for i, phase in enumerate(phases):
        c = spec.mode_coefficient(i)
        terms.append((c * phase, (("a", i, False),)))
        terms.append((c * phase.conjugate(), (("b", i, True),)))
    return ModeOperator(tuple(terms))


def _ordered_vev(
    spec: ModeSpec,
    x: tuple[float, float],
    y: tuple[float, float],
    adjoint_first: bool,
) -> tuple[complex | np.ndarray, int]:
    # <0|A B|0> = <A_dag 0|B 0>: two one-quantum kets, never the
    # two-quantum ket A B|0>.  A_dag is Psi_dag(x) when Psi(x) stands
    # left and Psi(y) when Psi_dag(y) does.
    psi_x = field_operator(spec, *x)
    psi_y = field_operator(spec, *y)
    vac = vacuum(spec)
    if adjoint_first:
        # <0| Psi_dag(y) Psi(x) |0>
        bra, ket = apply(psi_y, vac), apply(psi_x, vac)
    else:
        # <0| Psi(x) Psi_dag(y) |0>
        bra, ket = apply(psi_x.adjoint(), vac), apply(psi_y.adjoint(), vac)
    return bra.inner(ket), bra.truncation_events + ket.truncation_events


def time_ordered_vev_detail(
    spec: ModeSpec, x: tuple[float, float], y: tuple[float, float]
) -> tuple[complex | np.ndarray, int]:
    """Time-ordered two-point function <0|T Psi(x) Psi_dag(y)|0> with its
    truncation-event count.

    Points are (t, x) pairs of finite numbers, or of arrays giving the
    values at each pair, with one :func:`_ordered_vev` per time ordering.
    Later field to the left: for t_x > t_y this is ``<0|Psi(x)
    Psi_dag(y)|0>`` and for t_x < t_y it is ``<0|Psi_dag(y) Psi(x)|0>``
    (the branch carried by the antiquanta).  Equal times at any entry are
    rejected because the ordering is then undefined.  On a negation-closed
    mode set covering a lattice grid the value equals the Feynman kernel
    at the point difference x - y.
    """
    tx, xx, ty, xy = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (*x, *y)))
    _require_finite(t=np.stack((tx, ty)), x=np.stack((xx, xy)))
    if (tx == ty).any():
        raise ValidationError(f"time ordering undefined at equal times t={tx[tx == ty][0]}; "
                              "offset the two points")
    vevs, truncations = np.empty(tx.shape, dtype=complex), 0
    for rows, adjoint_first in ((tx > ty, False), (tx < ty, True)):
        if rows.any():
            vevs[rows], events = _ordered_vev(spec, (tx[rows], xx[rows]),
                                              (ty[rows], xy[rows]), adjoint_first)
            truncations += events
    return (complex(vevs) if vevs.ndim == 0 else vevs), truncations


# ---------------------------------------------------------------------------
# Matrices by diagonal
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FockMatrix:
    """Square complex matrix of side ``dim`` stored as its diagonals.

    ``diagonals[offset][r]`` is the entry at row ``r``, column
    ``r - offset`` (offset = row - col); positions whose column lies
    outside the matrix hold zero.  A ladder-factor product lies on one
    diagonal, so an operator over a few modes fills a few of them, and
    sums and products are a few whole-array numpy operations per
    diagonal.
    """

    dim: int
    diagonals: Mapping[int, np.ndarray]

    @property
    def nnz(self) -> int:
        """Number of nonzero entries."""
        return sum(int(np.count_nonzero(entries)) for entries in self.diagonals.values())

    def toarray(self) -> np.ndarray:
        dense = np.zeros((self.dim, self.dim), dtype=complex)
        index = np.arange(self.dim)
        for offset, entries in self.diagonals.items():
            rows, cols = _overlap(offset, self.dim)
            dense[index[rows], index[cols]] = entries[rows]
        return dense

    def __add__(self, other: "FockMatrix") -> "FockMatrix":
        diagonals = dict(self.diagonals)
        for offset, entries in other.diagonals.items():
            diagonals[offset] = diagonals[offset] + entries if offset in diagonals else entries
        return FockMatrix(self.dim, diagonals)

    def __sub__(self, other: "FockMatrix") -> "FockMatrix":
        return self + (-other)

    def __neg__(self) -> "FockMatrix":
        return FockMatrix(self.dim, {offset: -entries for offset, entries in self.diagonals.items()})

    def __matmul__(self, other: "FockMatrix") -> "FockMatrix":
        """Matrix product: C[a + b][r] += A[a][r] B[b][r - a]."""
        product: dict[int, np.ndarray] = {}
        for a, left in self.diagonals.items():
            rows, cols = _overlap(a, self.dim)
            for b, right in other.diagonals.items():
                if abs(a + b) < self.dim:
                    term = np.zeros(self.dim, dtype=complex)
                    term[rows] = left[rows] * right[cols]
                    product[a + b] = product[a + b] + term if a + b in product else term
        return FockMatrix(self.dim, product)


def _overlap(offset: int, dim: int) -> tuple[slice, slice]:
    """The rows r of diagonal ``offset`` whose column r - offset lies
    inside a matrix of side ``dim``, and those columns."""
    return slice(max(offset, 0), dim + min(offset, 0)), slice(max(-offset, 0), dim - max(offset, 0))


def operator_matrix(op: ModeOperator, spec: ModeSpec) -> FockMatrix:
    """Materialize an operator on the truncated occupation basis.

    Each term pushes all basis indices (mixed-radix over the slots
    ``a_0.., b_0..``, slot 0 least significant) through its ladder factors,
    rightmost first as :func:`apply` acts: a factor scales by sqrt(n) or
    sqrt(n+1), drops the columns that annihilate the vacuum or create above
    the ceiling, and shifts the index by ``+-base**slot``.  So a term lies on
    one diagonal of the returned :class:`FockMatrix`; terms add into it in
    term order, as :func:`apply` sums them.
    """
    dim = spec.basis_dim
    if dim > MATRIX_DIMENSION_CAP:
        raise ValidationError(
            f"basis dimension {dim} exceeds matrix cap {MATRIX_DIMENSION_CAP}; "
            "use a smaller mode set or occupation ceiling"
        )
    n_modes, ceiling = spec.n_modes, spec.max_occupation
    _check_modes(op, spec)
    base = ceiling + 1
    # roots[n - 1] = sqrt(n): a|n> = sqrt(n)|n-1>, a_dag|n> = sqrt(n+1)|n+1>.
    roots = np.sqrt(np.arange(1.0, base))
    basis = np.arange(dim, dtype=np.int64)
    diagonals: dict[int, np.ndarray] = {}  # row - col -> entries by row
    for coeff, term in op.terms:
        if isinstance(coeff, np.ndarray) and coeff.ndim:
            raise ValidationError("operator_matrix builds one matrix, not a batch: "
                                  f"a coefficient has shape {np.shape(coeff)}")
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
            diagonals[offset][rows] += vals
    return FockMatrix(dim, diagonals)


#: Largest matrix side whose spectral norm :func:`matrix_norm` takes, as
#: the singular values of the dense array.  Checks 04a, 05 and 06 read it
#: at sides 9 and 64; a larger matrix is refused, not densified.
DENSE_NORM_MAX_SIDE = 128


def _require_finite_entries(mat: FockMatrix) -> None:
    """Raise :class:`NumericalFailure` if ``mat`` has a non-finite entry,
    which leaves it no norm to report."""
    if not all(np.isfinite(entries).all() for entries in mat.diagonals.values()):
        raise NumericalFailure(f"matrix of side {mat.dim} has a non-finite entry")


def matrix_norm(mat: FockMatrix) -> float:
    """Operator (spectral) norm of a Fock matrix: the exact dense 2-norm
    from LAPACK.  A side above :data:`DENSE_NORM_MAX_SIDE` raises
    :class:`ValidationError`, a non-finite entry :class:`NumericalFailure`.
    """
    _require_finite_entries(mat)
    if mat.dim > DENSE_NORM_MAX_SIDE:
        raise ValidationError(
            f"matrix side {mat.dim} exceeds the dense norm cap {DENSE_NORM_MAX_SIDE}"
        )
    return float(np.linalg.norm(mat.toarray(), 2))


def hilbert_schmidt_norm(mat: FockMatrix) -> float:
    """Normalised Hilbert-Schmidt norm ``||A||_HS / sqrt(dim)`` of a Fock
    matrix, the root mean square of its singular values, summed diagonal
    by diagonal at any side.  The entries are first scaled by a power of
    two (exact), so that their squares neither under- nor overflow.  A
    non-finite entry raises :class:`NumericalFailure`.
    """
    _require_finite_entries(mat)
    largest = max((float(np.abs(entries).max()) for entries in mat.diagonals.values()),
                  default=0.0)
    scale = math.ldexp(1.0, -math.frexp(largest)[1])
    squares = sum(float(np.sum(np.square((entries * scale).view(float))))
                  for entries in mat.diagonals.values())
    return math.sqrt(squares / mat.dim) / scale


# ---------------------------------------------------------------------------
# Conserved-quantity operators
# ---------------------------------------------------------------------------

def _number_operator(weights: Iterable[float]) -> ModeOperator:
    """Weighted number operator sum_i weights[i] (a_dag_i a_i + b_dag_i b_i):
    the normal-ordered energy H with the frequencies as weights, the
    momentum P with the momenta.

    Both sectors enter with the same sign, so one antiquantum in mode k
    carries energy +w_k, as one quantum does.
    """
    total = ModeOperator.zero()
    for i, weight in enumerate(weights):
        total = total + weight * (a_dag(i) @ a_op(i)) + weight * (b_dag(i) @ b_op(i))
    return total


# ---------------------------------------------------------------------------
# Mode-operator identity checks
# ---------------------------------------------------------------------------

def antiparticle_phase_check(spec: ModeSpec, mode: int, t: float) -> float:
    """Residual of the negative-frequency relation for b_dag(t).

    With ``b_dag(mode, t) = b_dag(mode) exp(+i w t)``, the analytic time
    derivative gives ``i d/dt b_dag(t) = -w b_dag(t)``.  Returns the
    matrix norm of ``i d/dt b_dag(t) + w b_dag(t)``, one operator whose
    two terms cancel exactly.  ``t`` must be finite.
    """
    _check_mode(spec, mode)
    _require_finite(t=t)
    w = spec.frequencies[mode]
    phase = cmath.exp(1j * w * t)
    residual = 1j * (b_dag(mode) * (1j * w * phase)) + w * (b_dag(mode) * phase)
    return matrix_norm(operator_matrix(residual, spec))


def antiparticle_energy_check(spec: ModeSpec, mode: int) -> float:
    """Residual of H |one antiquantum in mode> = +w |same state>.

    Uses the normal-ordered energy operator; the eigenvalue is positive
    even though the mode operator carries a negative-frequency phase.
    ``H b_dag - w b_dag`` is applied to the vacuum as one operator.
    """
    _check_mode(spec, mode)
    w = spec.frequencies[mode]
    residual = _number_operator(spec.frequencies) @ b_dag(mode) - b_dag(mode) * w
    return apply(residual, vacuum(spec)).norm()


def oscillator_momentum(spec: ModeSpec, mode: int, t: float, phase: str) -> ModeOperator:
    """Oscillator momentum p = dq/dt of one mode under a phase choice.

    ``phase='retarded'`` uses the annihilation time dependence
    ``a(t) = a exp(-i w t)``; ``'advanced'`` uses ``a exp(+i w t)``.
    The coordinate ``q = (a(t) + a_dag(t))/sqrt(2)`` is self-adjoint
    either way, and ``p`` carries opposite overall sign between the two
    choices.  ``t`` must be finite.
    """
    if phase not in ("retarded", "advanced"):
        raise ValidationError(f"phase must be 'retarded' or 'advanced', got {phase!r}")
    _check_mode(spec, mode)
    _require_finite(t=t)
    w = spec.frequencies[mode]
    sign = -1.0 if phase == "retarded" else 1.0
    # a(t) = a exp(sign * i w t); a_dag(t) is its adjoint.
    a_phase = cmath.exp(sign * 1j * w * t)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    return inv_sqrt2 * (
        (sign * 1j * w * a_phase) * a_op(mode)
        + (sign * 1j * w * a_phase).conjugate() * a_dag(mode)
    )


def momentum_sign_check(spec: ModeSpec, mode: int, t: float) -> float:
    """Verify the structural sign flip of the oscillator momentum.

    The advanced-phase momentum at time t is the exact negative of the
    retarded-phase momentum at time -t (the two phase histories traverse
    the same values in opposite time directions).  At t = 0 this reduces
    to a literal sign flip p_adv = -p_ret.  Returns the matrix-norm
    residual of ``p_advanced(t) + p_retarded(-t)``, zero up to rounding.
    """
    p_adv = oscillator_momentum(spec, mode, t, "advanced")
    p_ret_mirror = oscillator_momentum(spec, mode, -t, "retarded")
    return matrix_norm(operator_matrix(p_adv + p_ret_mirror, spec))


def reinterpretation_check(spec: ModeSpec, t: float, x: float) -> float:
    """Verify the antiquanta relabeling of the field expansion.

    Builds the field operator two ways and materializes their difference:

    * form A keeps the advanced-frequency coefficient attached to the
      spatial phase exp(+i k x), writing it as ``b_dag`` at the negated
      momentum: ``sum_k c_k (a_k e^{i(kx - wt)} + b_dag_{-k} e^{i(kx + wt)})``;
    * form B is the standard expansion after relabeling the antiquanta
      sum ``k -> -k``: ``sum_k c_k (a_k e^{i(kx - wt)} + b_dag_k e^{-i(kx - wt)})``.

    The relabeling is a bijection only on negation-closed mode sets;
    other sets raise a validation error (the meaningful negative
    control).  Returns the difference's matrix norm, zero up to rounding.
    """
    neg = spec.negation_index()
    terms_a: list[tuple[complex, tuple[Factor, ...]]] = []
    for i, (k, w) in enumerate(zip(spec.momenta, spec.frequencies)):
        c = spec.mode_coefficient(i)
        terms_a.append((c * cmath.exp(1j * (k * x - w * t)), (("a", i, False),)))
        terms_a.append((c * cmath.exp(1j * (k * x + w * t)), (("b", neg[i], True),)))
    form_a = ModeOperator(tuple(terms_a))
    return matrix_norm(operator_matrix(form_a - field_operator(spec, t, x), spec))


def translation_generator_check(
    spec: ModeSpec, t: float, x: float, dxs: Iterable[float]
) -> list[float]:
    """Residuals of the momentum operator generating spatial translations,
    one per step dx of ``dxs``.

    Compares the commutator ``[P, Psi(t, x)]`` against ``i`` times the
    central difference ``(Psi(t, x+dx) - Psi(t, x-dx)) / (2 dx)`` in the
    normalised Hilbert-Schmidt norm (:func:`hilbert_schmidt_norm`).  The
    commutator equals ``i`` times the exact spatial derivative, so the
    residual shrinks at second order in dx, in this norm as in any.  P,
    Psi(t, x) and the commutator are built once for all the steps, and
    each step's ``i (Psi(x+dx) - Psi(x-dx)) / (2 dx)`` as one operator;
    every step must be finite and positive.
    """
    dxs = list(dxs)
    for dx in dxs:
        if not (math.isfinite(dx) and dx > 0):
            raise ValidationError(f"dx must be finite and positive, got {dx}")
    p_mat = operator_matrix(_number_operator(spec.momenta), spec)
    psi = operator_matrix(field_operator(spec, t, x), spec)
    commutator = p_mat @ psi - psi @ p_mat
    residuals = []
    for dx in dxs:
        step = field_operator(spec, t, x + dx) - field_operator(spec, t, x - dx)
        central = operator_matrix(step * (0.5j / dx), spec)
        residuals.append(hilbert_schmidt_norm(commutator - central))
    return residuals
