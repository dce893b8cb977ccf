"""Truncated two-sector bosonic Fock space over a finite set of field modes.

Each momentum mode carries two independent oscillator sectors: quanta
created by ``a_dag`` and antiquanta created by ``b_dag``.  States are
sparse maps from occupation tuples to complex amplitudes; operators are
sums of scaled ladder-factor products that can be applied symbolically
to states or materialized as sparse CSR matrices built from cached
Kronecker-product ladder factors.  Matrix norms are spectral norms from
``svds`` started from a fixed vector, so reruns are bit-identical.

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
  and momentum ``P = sum_k k (a_dag_k a_k + b_dag_k b_k)``.

Creation above the per-mode occupation ceiling maps the affected
component to zero and increments a truncation counter on the resulting
state instead of raising, so tests can assert "no truncation occurred".
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .lattice import Lattice, ValidationError, omega

__all__ = [
    "FockState",
    "ModeOperator",
    "ModeSpec",
    "OscillatorQuadratures",
    "a_dag",
    "a_op",
    "antiparticle_energy_check",
    "antiparticle_phase_check",
    "apply",
    "b_dag",
    "b_op",
    "confirmation_inner",
    "field_operator",
    "hamiltonian_operator",
    "make_mode_spec",
    "matrix_norm",
    "mode_spec_from_lattice",
    "momentum_operator",
    "momentum_sign_check",
    "operator_matrix",
    "oscillator_quadratures",
    "reinterpretation_check",
    "time_ordered_vev",
    "time_ordered_vev_detail",
    "translation_generator_check",
    "vacuum",
    "vev_adjoint_field",
    "vev_field_adjoint",
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
    sectors (quanta and antiquanta) exist for every mode.  Hashable so
    derived artifacts can be cached.
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
        if self.box_length <= 0:
            raise ValidationError(f"box_length must be positive, got {self.box_length}")
        if self.max_occupation < 1:
            raise ValidationError(
                f"max_occupation must be a positive integer, got {self.max_occupation}"
            )
        for w in self.frequencies:
            if w <= 0:
                raise ValidationError(f"frequencies must be positive, got {w}")

    @property
    def n_modes(self) -> int:
        return len(self.momenta)

    @property
    def basis_dim(self) -> int:
        """Dimension of the truncated space: (ceiling+1)^(2 modes)."""
        return (self.max_occupation + 1) ** (2 * self.n_modes)

    @property
    def is_negation_closed(self) -> bool:
        """True when for every momentum k the grid also contains -k."""
        values = set(self.momenta)
        return all(-k in values for k in values)

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
    closed subset); ``None`` takes the full grid.
    """
    ks = np.asarray(lattice.momenta)
    ws = np.asarray(lattice.frequencies)
    if half_width is not None:
        if half_width < 0:
            raise ValidationError(f"half_width must be nonnegative, got {half_width}")
        order = np.argsort(ks)
        ks, ws = ks[order], ws[order]
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


@dataclass(frozen=True)
class FockState:
    """Sparse state: map (quanta occupations, antiquanta occupations) -> amplitude.

    ``truncation_events`` counts components dropped because a creation
    factor would have exceeded the per-mode ceiling anywhere in the
    history that produced this state.
    """

    spec: ModeSpec
    amplitudes: Mapping[tuple[tuple[int, ...], tuple[int, ...]], complex]
    truncation_events: int = 0

    def norm(self) -> float:
        return math.sqrt(sum(abs(a) ** 2 for a in self.amplitudes.values()))

    def inner(self, other: "FockState") -> complex:
        """Hermitian inner product <self|other>."""
        if self.spec != other.spec:
            raise ValidationError("inner product requires matching mode specs")
        mine, theirs = self.amplitudes, other.amplitudes
        keys = mine.keys() if len(mine) <= len(theirs) else theirs.keys()
        return complex(
            sum(mine[key].conjugate() * theirs[key] for key in keys
                if key in mine and key in theirs)
        )


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
    rightmost factor acts first on a ket.
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


def apply(op: ModeOperator, state: FockState) -> FockState:
    """Apply an operator to a state with sqrt(n) ladder factors.

    Annihilating below vacuum yields the zero component silently;
    creating above the per-mode ceiling drops the component and counts
    one truncation event.  Mode indices outside the state's mode set
    raise a validation error.
    """
    spec = state.spec
    n_modes = spec.n_modes
    ceiling = spec.max_occupation
    out: dict[tuple[tuple[int, ...], tuple[int, ...]], complex] = {}
    truncations = 0
    for coeff, factors in op.terms:
        if coeff == 0:
            continue
        for (na, nb), amplitude in state.amplitudes.items():
            amp = amplitude * coeff
            occ = list(na) + list(nb)
            dead = False
            for sector, mode, dagger in reversed(factors):
                if not 0 <= mode < n_modes:
                    raise ValidationError(
                        f"mode index {mode} outside mode set of size {n_modes}"
                    )
                slot = mode if sector == "a" else n_modes + mode
                n = occ[slot]
                if dagger:
                    if n >= ceiling:
                        truncations += 1
                        dead = True
                        break
                    amp *= math.sqrt(n + 1)
                    occ[slot] = n + 1
                else:
                    if n == 0:
                        dead = True
                        break
                    amp *= math.sqrt(n)
                    occ[slot] = n - 1
            if dead:
                continue
            key = (tuple(occ[:n_modes]), tuple(occ[n_modes:]))
            out[key] = out.get(key, 0.0 + 0.0j) + amp
    cleaned = {key: amp for key, amp in out.items() if amp != 0}
    return FockState(spec, cleaned, state.truncation_events + truncations)


def confirmation_inner(spec: ModeSpec, mode: int, state: FockState) -> complex:
    """Overlap <0| b_mode |state>: response of the adjoint-vacuum probe.

    Equals the component of ``state`` along the one-antiquantum state
    ``b_dag(mode)|0>``.
    """
    if not 0 <= mode < spec.n_modes:
        raise ValidationError(f"mode index {mode} outside mode set of size {spec.n_modes}")
    return vacuum(spec).inner(apply(b_op(mode), state))


# ---------------------------------------------------------------------------
# Field operators and two-point functions
# ---------------------------------------------------------------------------

def field_operator(spec: ModeSpec, t: float, x: float) -> ModeOperator:
    """Field operator Psi(t, x) over the mode set.

    ``Psi = sum_k c_k (a_k exp(i(k x - w t)) + b_dag_k exp(-i(k x - w t)))``
    with box normalization ``c_k = 1/sqrt(2 w_k L)``.  The adjoint field
    is ``field_operator(spec, t, x).adjoint()``.
    """
    terms: list[tuple[complex, tuple[Factor, ...]]] = []
    for i, (k, w) in enumerate(zip(spec.momenta, spec.frequencies)):
        c = spec.mode_coefficient(i)
        phase = cmath.exp(1j * (k * x - w * t))
        terms.append((c * phase, (("a", i, False),)))
        terms.append((c * phase.conjugate(), (("b", i, True),)))
    return ModeOperator(tuple(terms))


def vev_field_adjoint(
    spec: ModeSpec, x: tuple[float, float], y: tuple[float, float]
) -> complex:
    """<0| Psi(x) Psi_dag(y) |0> by explicit operator application, at the
    points x = (t_x, x_x) and y = (t_y, x_y)."""
    value, _ = _ordered_vev(spec, x, y, adjoint_first=False)
    return value


def vev_adjoint_field(
    spec: ModeSpec, x: tuple[float, float], y: tuple[float, float]
) -> complex:
    """<0| Psi_dag(y) Psi(x) |0> by explicit operator application."""
    value, _ = _ordered_vev(spec, x, y, adjoint_first=True)
    return value


def _ordered_vev(
    spec: ModeSpec,
    x: tuple[float, float],
    y: tuple[float, float],
    adjoint_first: bool,
) -> tuple[complex, int]:
    psi_x = field_operator(spec, *x)
    psi_dag_y = field_operator(spec, *y).adjoint()
    vac = vacuum(spec)
    if adjoint_first:
        # <0| Psi_dag(y) Psi(x) |0>
        ket = apply(psi_dag_y, apply(psi_x, vac))
    else:
        # <0| Psi(x) Psi_dag(y) |0>
        ket = apply(psi_x, apply(psi_dag_y, vac))
    return vac.inner(ket), ket.truncation_events


def time_ordered_vev_detail(
    spec: ModeSpec, x: tuple[float, float], y: tuple[float, float]
) -> tuple[complex, int]:
    """Time-ordered two-point function with its truncation-event count.

    Points are (t, x) pairs.  Later field to the left: for t_x > t_y this
    is ``<0|Psi(x) Psi_dag(y)|0>`` and for t_x < t_y it is
    ``<0|Psi_dag(y) Psi(x)|0>`` (the branch carried by the antiquanta).
    Equal times are rejected because the ordering is then undefined.
    """
    if x[0] == y[0]:
        raise ValidationError(
            f"time ordering undefined at equal times t={x[0]}; offset the two points"
        )
    return _ordered_vev(spec, x, y, adjoint_first=x[0] < y[0])


def time_ordered_vev(
    spec: ModeSpec, x: tuple[float, float], y: tuple[float, float]
) -> complex:
    """Time-ordered two-point function <0|T Psi(x) Psi_dag(y)|0>.

    On a negation-closed mode set covering a lattice grid this equals
    the Feynman kernel of :func:`boxqft.propagators.eval_kernel`
    evaluated at the point difference x - y.
    """
    value, _ = time_ordered_vev_detail(spec, x, y)
    return value


# ---------------------------------------------------------------------------
# Matrix materialization
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=64)
def _ladder_factor(n_slots: int, ceiling: int, slot: int, dagger: bool) -> sp.csr_matrix:
    """One ladder operator of one slot as a matrix on the full basis.

    The basis is mixed-radix over the slots ``a_0..a_{m-1}, b_0..b_{m-1}``
    with slot 0 least significant, so the operator is
    ``kron(I_left, block, I_right)`` with ``I_right`` of size
    ``(ceiling+1)^slot``.  Creation from the ceiling has no image (the
    truncated-space convention).  A factor depends only on the shape of
    the space, not on momenta or frequencies, so a sweep over masses
    reuses the cached factors.
    """
    base = ceiling + 1
    # a|n> = sqrt(n)|n-1> sits above the diagonal, a_dag below it.
    block = sp.diags(np.sqrt(np.arange(1.0, base)), -1 if dagger else 1)
    left = sp.identity(base ** (n_slots - 1 - slot))
    right = sp.identity(base**slot)
    return sp.kron(sp.kron(left, block), right, format="csr")


def operator_matrix(op: ModeOperator, spec: ModeSpec) -> sp.csr_matrix:
    """Materialize an operator on the truncated occupation basis.

    Returns a complex ``scipy.sparse.csr_matrix``: each term is its
    coefficient times the product of cached Kronecker-built ladder
    factors, taken rightmost factor first as :func:`apply` acts, so the
    entries equal those of the symbolic route.  Creation above the
    ceiling contributes nothing (the truncated-space matrix convention).
    """
    dim = spec.basis_dim
    if dim > MATRIX_DIMENSION_CAP:
        raise ValidationError(
            f"basis dimension {dim} exceeds matrix cap {MATRIX_DIMENSION_CAP}; "
            "use a smaller mode set or occupation ceiling"
        )
    n_modes = spec.n_modes
    total = sp.csr_matrix((dim, dim), dtype=complex)
    for coeff, term in op.terms:
        if coeff == 0:
            continue
        mat = sp.identity(dim, dtype=complex, format="csr") * coeff
        for sector, mode, dagger in reversed(term):
            if not 0 <= mode < n_modes:
                raise ValidationError(
                    f"mode index {mode} outside mode set of size {n_modes}"
                )
            slot = mode if sector == "a" else n_modes + mode
            factor = _ladder_factor(2 * n_modes, spec.max_occupation, slot, dagger)
            mat = factor @ mat
        total = total + mat
    return total


def matrix_norm(mat) -> float:
    """Operator (spectral) norm of a sparse matrix.

    The largest singular value comes from ARPACK ``svds`` started from a
    fixed vector, so reruns give identical bits.  Matrices with a side
    shorter than 3, too small for ``svds``, take the exact dense 2-norm.
    If ``svds`` does not converge, ``ArpackNoConvergence`` propagates.
    """
    mat = sp.csr_matrix(mat, dtype=complex)
    if mat.count_nonzero() == 0:
        return 0.0
    n = min(mat.shape)
    if n < 3:
        return float(np.linalg.norm(mat.toarray(), 2))
    # A fixed generic start vector: ARPACK's default start is random, so
    # reruns would differ in the last bits.
    start = np.random.default_rng(0).standard_normal((2, n))
    top = spla.svds(
        mat,
        k=1,
        v0=start[0] + 1j * start[1],
        return_singular_vectors=False,
        maxiter=5000,
    )
    return float(top[0])


# ---------------------------------------------------------------------------
# Conserved-quantity operators
# ---------------------------------------------------------------------------

def hamiltonian_operator(spec: ModeSpec) -> ModeOperator:
    """Normal-ordered energy operator sum_k w_k (a_dag a + b_dag b).

    Both sectors enter with positive weight, so one antiquantum in mode
    k carries energy +w_k.
    """
    total = ModeOperator.zero()
    for i, w in enumerate(spec.frequencies):
        total = total + w * (a_dag(i) @ a_op(i)) + w * (b_dag(i) @ b_op(i))
    return total


def momentum_operator(spec: ModeSpec) -> ModeOperator:
    """Total momentum operator sum_k k (a_dag a + b_dag b)."""
    total = ModeOperator.zero()
    for i, k in enumerate(spec.momenta):
        total = total + k * (a_dag(i) @ a_op(i)) + k * (b_dag(i) @ b_op(i))
    return total


# ---------------------------------------------------------------------------
# Mode-operator identity checks
# ---------------------------------------------------------------------------

def antiparticle_phase_check(spec: ModeSpec, mode: int, t: float) -> float:
    """Residual of the negative-frequency relation for b_dag(t).

    With ``b_dag(mode, t) = b_dag(mode) exp(+i w t)``, the analytic time
    derivative gives ``i d/dt b_dag(t) = -w b_dag(t)``.  Returns the
    matrix norm of ``i d/dt b_dag(t) + w b_dag(t)``, zero up to
    rounding.
    """
    if not 0 <= mode < spec.n_modes:
        raise ValidationError(f"mode index {mode} outside mode set of size {spec.n_modes}")
    w = spec.frequencies[mode]
    base = operator_matrix(b_dag(mode), spec)
    phase = cmath.exp(1j * w * t)
    b_t = base * phase
    db_dt = base * (1j * w * phase)
    residual = 1j * db_dt + w * b_t
    return matrix_norm(residual)


def antiparticle_energy_check(spec: ModeSpec, mode: int) -> float:
    """Residual of H |one antiquantum in mode> = +w |same state>.

    Uses the normal-ordered energy operator; the eigenvalue is positive
    even though the mode operator carries a negative-frequency phase.
    """
    if not 0 <= mode < spec.n_modes:
        raise ValidationError(f"mode index {mode} outside mode set of size {spec.n_modes}")
    w = spec.frequencies[mode]
    ket = apply(b_dag(mode), vacuum(spec))
    h_ket = apply(hamiltonian_operator(spec), ket)
    diff = dict(h_ket.amplitudes)
    for key, amp in ket.amplitudes.items():
        diff[key] = diff.get(key, 0.0 + 0.0j) - w * amp
    return math.sqrt(sum(abs(a) ** 2 for a in diff.values()))


@dataclass(frozen=True)
class OscillatorQuadratures:
    """Self-adjoint coordinate q and its time derivative p for one mode."""

    q_operator: ModeOperator
    p_operator: ModeOperator


def oscillator_quadratures(
    spec: ModeSpec, mode: int, t: float, phase: str = "retarded"
) -> OscillatorQuadratures:
    """Oscillator quadratures for one mode under a phase choice.

    ``phase='retarded'`` uses the annihilation time dependence
    ``a(t) = a exp(-i w t)``; ``'advanced'`` uses ``a exp(+i w t)``.
    ``q = (a(t) + a_dag(t))/sqrt(2)`` is self-adjoint either way, and
    ``p = dq/dt`` carries opposite overall sign between the two
    choices.
    """
    if phase not in ("retarded", "advanced"):
        raise ValidationError(f"phase must be 'retarded' or 'advanced', got {phase!r}")
    if not 0 <= mode < spec.n_modes:
        raise ValidationError(f"mode index {mode} outside mode set of size {spec.n_modes}")
    w = spec.frequencies[mode]
    sign = -1.0 if phase == "retarded" else 1.0
    # a(t) = a exp(sign * i w t); a_dag(t) is its adjoint.
    a_phase = cmath.exp(sign * 1j * w * t)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    q = inv_sqrt2 * (a_phase * a_op(mode) + a_phase.conjugate() * a_dag(mode))
    p = inv_sqrt2 * (
        (sign * 1j * w * a_phase) * a_op(mode)
        + (sign * 1j * w * a_phase).conjugate() * a_dag(mode)
    )
    return OscillatorQuadratures(q, p)


def momentum_sign_check(spec: ModeSpec, mode: int, t: float) -> float:
    """Verify the structural sign flip of the oscillator momentum.

    The advanced-phase momentum at time t is the exact negative of the
    retarded-phase momentum at time -t (the two phase histories traverse
    the same values in opposite time directions).  At t = 0 this reduces
    to a literal sign flip p_adv = -p_ret.  Returns the matrix-norm
    residual of ``p_advanced(t) + p_retarded(-t)``, zero up to rounding.
    """
    p_adv_t = operator_matrix(
        oscillator_quadratures(spec, mode, t, "advanced").p_operator, spec
    )
    p_ret_mirror = operator_matrix(
        oscillator_quadratures(spec, mode, -t, "retarded").p_operator, spec
    )
    return matrix_norm(p_adv_t + p_ret_mirror)


def reinterpretation_check(spec: ModeSpec, t: float, x: float) -> float:
    """Verify the antiquanta relabeling of the field expansion.

    Builds the field operator two ways and compares matrices:

    * form A keeps the advanced-frequency coefficient attached to the
      spatial phase exp(+i k x), writing it as ``b_dag`` at the negated
      momentum: ``sum_k c_k (a_k e^{i(kx - wt)} + b_dag_{-k} e^{i(kx + wt)})``;
    * form B is the standard expansion after relabeling the antiquanta
      sum ``k -> -k``: ``sum_k c_k (a_k e^{i(kx - wt)} + b_dag_k e^{-i(kx - wt)})``.

    The relabeling is a bijection only on negation-closed mode sets;
    other sets raise a validation error (the meaningful negative
    control).  Returns the matrix-norm difference, zero up to rounding.
    """
    if not spec.is_negation_closed:
        raise ValidationError(
            "mode set is not closed under negation; the momentum relabeling "
            "requires every k to have a -k partner"
        )
    neg = spec.negation_index()
    terms_a: list[tuple[complex, tuple[Factor, ...]]] = []
    for i, (k, w) in enumerate(zip(spec.momenta, spec.frequencies)):
        c = spec.mode_coefficient(i)
        terms_a.append((c * cmath.exp(1j * (k * x - w * t)), (("a", i, False),)))
        terms_a.append((c * cmath.exp(1j * (k * x + w * t)), (("b", neg[i], True),)))
    form_a = ModeOperator(tuple(terms_a))
    form_b = field_operator(spec, t, x)
    diff = operator_matrix(form_a, spec) - operator_matrix(form_b, spec)
    return matrix_norm(diff)


def translation_generator_check(
    spec: ModeSpec, t: float, x: float, dx: float
) -> float:
    """Residual of the momentum operator generating spatial translations.

    Compares the commutator ``[P, Psi(t, x)]`` against ``i`` times the
    central difference ``(Psi(t, x+dx) - Psi(t, x-dx)) / (2 dx)`` in
    matrix norm.  The commutator equals ``i`` times the exact spatial
    derivative, so the residual shrinks at second order in dx.
    """
    if dx <= 0:
        raise ValidationError(f"dx must be positive, got {dx}")
    p_mat = operator_matrix(momentum_operator(spec), spec)
    psi = operator_matrix(field_operator(spec, t, x), spec)
    psi_plus = operator_matrix(field_operator(spec, t, x + dx), spec)
    psi_minus = operator_matrix(field_operator(spec, t, x - dx), spec)
    commutator = p_mat @ psi - psi @ p_mat
    central = (psi_plus - psi_minus) * (1.0 / (2.0 * dx))
    return matrix_norm(commutator - 1j * central)
