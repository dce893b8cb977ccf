"""Gamma-matrix algebra, plane-wave spinor solutions, and probability currents.

Works in the standard (Dirac) representation with metric signature
(+, -, -, -), where the four rest-frame solutions are exactly the four
basis vectors: indices 1 and 2 carry energy +m, indices 3 and 4 carry
energy -m.  Moving solutions are built in closed form for either energy
sign, normalized to unit probability density, and satisfy the single
algebraic equation

    (gamma^mu p_mu - m) u = 0,   p^0 = E (signed)

for both signs of E.  The probability 4-current j^mu = u+ gamma^0
gamma^mu u then has positive density for every solution, while its
spatial part is antiparallel to the momentum label whenever E < 0 —
the flux runs against the nominal momentum of a negative-energy
solution.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import NumericalFailure, ValidationError

__all__ = [
    "DiracMatrixSet",
    "DiracSpinorSolution",
    "clifford_residual",
    "dirac_residual",
    "gamma_matrices",
    "plane_wave_solution",
    "probability_current",
    "rest_frame_solutions",
]

#: Metric tensor diag(+1, -1, -1, -1).
METRIC = np.diag([1.0, -1.0, -1.0, -1.0])


@dataclass(frozen=True)
class DiracMatrixSet:
    """The four gamma matrices in the standard representation."""

    gamma: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

    def slash(self, p4: np.ndarray) -> np.ndarray:
        """Contraction gamma^mu p_mu for a 4-vector (E, px, py, pz)."""
        p4 = np.asarray(p4, dtype=float)
        lowered = METRIC @ p4
        return sum(g * comp for g, comp in zip(self.gamma, lowered))


def gamma_matrices() -> DiracMatrixSet:
    """Standard-representation gamma matrices.

    gamma^0 = diag(1, 1, -1, -1); gamma^i has the Pauli matrix sigma_i
    in the upper-right block and -sigma_i in the lower-left block.
    """
    sigma = (
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]], dtype=complex),
        np.array([[1, 0], [0, -1]], dtype=complex),
    )
    zero = np.zeros((2, 2), dtype=complex)
    eye = np.eye(2, dtype=complex)
    g0 = np.block([[eye, zero], [zero, -eye]])
    gs = tuple(np.block([[zero, s], [-s, zero]]) for s in sigma)
    mats = (g0, *gs)
    for g in mats:
        g.setflags(write=False)
    return DiracMatrixSet(mats)


def clifford_residual() -> float:
    """Max entrywise residual of {gamma^mu, gamma^nu} = 2 g^{mu nu} I."""
    ms = gamma_matrices()
    eye = np.eye(4, dtype=complex)
    worst = 0.0
    for mu in range(4):
        for nu in range(4):
            anti = ms.gamma[mu] @ ms.gamma[nu] + ms.gamma[nu] @ ms.gamma[mu]
            worst = max(worst, float(np.abs(anti - 2.0 * METRIC[mu, nu] * eye).max()))
    return worst


@dataclass(frozen=True)
class DiracSpinorSolution:
    """A plane-wave spinor with its momentum label and signed energy.

    ``index`` runs 1..4: (1, 2) are the positive-energy spin states and
    (3, 4) the negative-energy ones, matching the rest-frame basis
    continuously as the momentum goes to zero.  Normalized so the
    probability density u+ u equals 1.
    """

    spinor: np.ndarray
    momentum: np.ndarray
    mass: float
    energy: float
    index: int


def rest_frame_solutions(m: float) -> tuple[DiracSpinorSolution, ...]:
    """The four rest-frame solutions: basis spinors with energies (+m, +m, -m, -m)."""
    if not (math.isfinite(m) and m > 0):
        raise ValidationError(f"mass must be finite and positive, got {m}")
    out = []
    for i in range(4):
        spinor = np.zeros(4, dtype=complex)
        spinor[i] = 1.0
        spinor.setflags(write=False)
        energy = m if i < 2 else -m
        out.append(
            DiracSpinorSolution(
                spinor=spinor,
                momentum=np.zeros(3),
                mass=float(m),
                energy=float(energy),
                index=i + 1,
            )
        )
    return tuple(out)


def _sigma_dot(p: np.ndarray) -> np.ndarray:
    return np.array(
        [[p[2], p[0] - 1j * p[1]], [p[0] + 1j * p[1], -p[2]]], dtype=complex
    )


def plane_wave_solution(
    p: np.ndarray, m: float, energy_sign: int, spin: int
) -> DiracSpinorSolution:
    """Closed-form plane-wave spinor for either energy sign.

    For ``energy_sign=+1`` the solution is ``(chi, sigma.p/(E0+m) chi)``
    with E = +E0; for ``energy_sign=-1`` it is
    ``(-sigma.p/(E0+m) chi, chi)`` with E = -E0, where
    E0 = sqrt(m^2 + |p|^2) and chi is the 2-spinor selected by
    ``spin`` (1 or 2).  Both satisfy (gamma^mu p_mu - m) u = 0 with the
    signed E as p^0, reduce to the matching rest-frame basis vector at
    p = 0, and are normalized to unit probability density.

    The construction is verified on the way out, on the scale
    s = max(1, largest singular value of the contraction matrix): the
    matrix must have exactly two singular values below 1e-9 s, and the
    built spinor's :func:`dirac_residual` must be at most 1e-12 s;
    either failure raises :class:`~boxqft.lattice.NumericalFailure`.
    """
    if not (math.isfinite(m) and m > 0):
        raise ValidationError(f"mass must be finite and positive, got {m}")
    if energy_sign not in (+1, -1):
        raise ValidationError(f"energy_sign must be +1 or -1, got {energy_sign}")
    if spin not in (1, 2):
        raise ValidationError(f"spin must be 1 or 2, got {spin}")
    p = np.asarray(p, dtype=float)
    if p.shape != (3,):
        raise ValidationError(
            f"p must have exactly three spatial components, got shape {p.shape}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        e0 = float(np.sqrt(m * m + p @ p))
    if not math.isfinite(e0):
        raise ValidationError(
            f"p and m must give a finite energy sqrt(m^2 + |p|^2), "
            f"got p={p.tolist()}, m={m!r}"
        )
    energy = energy_sign * e0
    chi = np.zeros(2, dtype=complex)
    chi[spin - 1] = 1.0
    lower = (_sigma_dot(p) @ chi) / (e0 + m)
    if energy_sign > 0:
        spinor = np.concatenate([chi, lower])
        index = spin
    else:
        spinor = np.concatenate([-lower, chi])
        index = spin + 2
    spinor = spinor / np.linalg.norm(spinor)
    spinor.setflags(write=False)
    solution = DiracSpinorSolution(
        spinor=spinor,
        momentum=p,
        mass=float(m),
        energy=energy,
        index=index,
    )

    contraction = gamma_matrices().slash(np.array([energy, *p])) - m * np.eye(4, dtype=complex)
    singular_values = np.linalg.svd(contraction, compute_uv=False)
    # the matrix's entries, and so the rounding of u's residual, scale with E
    scale = max(1.0, singular_values[0])
    null_dim = int(np.sum(singular_values < 1e-9 * scale))
    if null_dim != 2:
        raise NumericalFailure(
            f"expected a 2-dimensional solution space, found {null_dim} "
            f"near-zero singular values for p={p.tolist()}, E={energy}"
        )
    residual = dirac_residual(solution)
    if residual > 1e-12 * scale:
        raise NumericalFailure(
            f"constructed spinor violates the field equation: residual {residual:.3e}"
        )
    return solution


def dirac_residual(sol: DiracSpinorSolution) -> float:
    """Norm of (gamma^mu p_mu - m) u with the solution's signed energy as p^0."""
    contraction = gamma_matrices().slash(np.array([sol.energy, *sol.momentum]))
    return float(
        np.linalg.norm(contraction @ sol.spinor - sol.mass * sol.spinor)
    )


def probability_current(sol: DiracSpinorSolution) -> np.ndarray:
    """Probability 4-current j^mu = u+ gamma^0 gamma^mu u as a real 4-vector.

    The imaginary residue of each component is asserted below 1e-14 and
    discarded.  The density j^0 equals 1 under the adopted
    normalization; for negative-energy solutions the spatial flux is
    antiparallel to the momentum label (the ratio j^i / j^0 equals
    p^i / E with E signed).
    """
    ms = gamma_matrices()
    bar = sol.spinor.conjugate() @ ms.gamma[0]
    current = np.array([bar @ (g @ sol.spinor) for g in ms.gamma])
    imag_residue = float(np.abs(current.imag).max())
    if imag_residue > 1e-14:
        raise ValidationError(
            f"probability current has non-real residue {imag_residue:.3e}"
        )
    return current.real
