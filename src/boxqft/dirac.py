"""Two-component spinors of the Dirac equation in the box's 1+1 dimensions.

With gamma^0 = sigma_3 and gamma^1 = i sigma_2 under the metric
diag(+1, -1), the Clifford relations hold exactly and the equation
(gamma^mu p_mu - m) u = 0, with p^0 = E signed, reads h(p) u = E u for
h(p) = sigma_1 p + sigma_3 m.  Its eigenvalues are +-E0,
E0 = sqrt(m^2 + p^2), with the closed-form eigenvectors

    u_+ ~ (1, p/(E0+m)),   u_- ~ (-p/(E0+m), 1),

which stay finite wherever E0 is and reduce to the unit basis vectors
at rest.  The probability current j^mu = u+ gamma^0 gamma^mu u is
(u+ u, u+ sigma_1 u) = (1, p/E) under unit normalization: its density
is positive on both branches, and its flux runs against the momentum
label whenever E < 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import NumericalFailure, ValidationError

__all__ = [
    "DiracSpinorSolution",
    "clifford_residual",
    "dirac_residual",
    "gamma_matrices",
    "plane_wave_solution",
    "probability_current",
    "rest_frame_solutions",
]

#: Metric tensor diag(+1, -1).
METRIC = np.diag([1.0, -1.0])


def gamma_matrices() -> tuple[np.ndarray, np.ndarray]:
    """(gamma^0, gamma^1) = (sigma_3, i sigma_2), fresh and read-only."""
    mats = (np.array([[1, 0], [0, -1]], dtype=complex),
            np.array([[0, 1], [-1, 0]], dtype=complex))
    for g in mats:
        g.setflags(write=False)
    return mats


def clifford_residual() -> float:
    """Max entrywise residual of {gamma^mu, gamma^nu} = 2 g^{mu nu} I."""
    gamma = gamma_matrices()
    return max(
        float(np.abs(gamma[mu] @ gamma[nu] + gamma[nu] @ gamma[mu]
                     - 2.0 * METRIC[mu, nu] * np.eye(2)).max())
        for mu in range(2) for nu in range(2)
    )


@dataclass(frozen=True)
class DiracSpinorSolution:
    """A plane-wave spinor with its momentum label and signed energy,
    normalized so the probability density u+ u equals 1."""

    spinor: np.ndarray
    momentum: float
    mass: float
    energy: float

    def __post_init__(self) -> None:
        self.spinor.setflags(write=False)


def _mass(m: float) -> float:
    if not (math.isfinite(m) and m > 0):
        raise ValidationError(f"mass must be finite and positive, got {m}")
    return float(m)


def rest_frame_solutions(m: float) -> tuple[DiracSpinorSolution, DiracSpinorSolution]:
    """The rest-frame solutions: the basis spinors with energies (+m, -m)."""
    m = _mass(m)
    return tuple(DiracSpinorSolution(np.eye(2, dtype=complex)[i], 0.0, m, e)
                 for i, e in enumerate((m, -m)))


def plane_wave_solution(p: float, m: float, energy_sign: int) -> DiracSpinorSolution:
    """Closed-form unit-density plane wave u_+ or u_- for ``energy_sign``
    +1 or -1, with E = energy_sign * sqrt(m^2 + p^2).

    The spinor is verified on the way out: its :func:`dirac_residual`
    must be at most 1e-12 max(1, |E|), since the operator's entries and
    so the rounding scale with E, or it raises
    :class:`~boxqft.lattice.NumericalFailure`.
    """
    m = _mass(m)
    if energy_sign not in (+1, -1):
        raise ValidationError(f"energy_sign must be +1 or -1, got {energy_sign}")
    try:
        p = float(p)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"p must be one real number, got {p!r}") from exc
    e0 = math.sqrt(m * m + p * p)
    if not math.isfinite(e0):
        raise ValidationError(
            f"p and m must give a finite energy sqrt(m^2 + p^2), got p={p!r}, m={m!r}"
        )
    r = p / (e0 + m)
    spinor = np.array([1.0, r] if energy_sign > 0 else [-r, 1.0], dtype=complex)
    solution = DiracSpinorSolution(spinor / math.hypot(1.0, r), p, m, energy_sign * e0)
    residual = dirac_residual(solution)
    if residual > 1e-12 * max(1.0, e0):
        raise NumericalFailure(
            f"constructed spinor violates the field equation: residual {residual:.3e}"
        )
    return solution


def dirac_residual(sol: DiracSpinorSolution) -> float:
    """Norm of (gamma^mu p_mu - m) u with the solution's signed energy as p^0."""
    g0, g1 = gamma_matrices()
    u = sol.spinor
    return float(np.linalg.norm(sol.energy * (g0 @ u) - sol.momentum * (g1 @ u) - sol.mass * u))


def probability_current(sol: DiracSpinorSolution) -> np.ndarray:
    """Probability current j^mu = u+ gamma^0 gamma^mu u as a real 2-vector
    (j^0, j^1) = (u+ u, u+ sigma_1 u); j^1 / j^0 equals p / E, E signed."""
    g0, g1 = gamma_matrices()
    bar = sol.spinor.conjugate() @ g0
    return np.array([bar @ (g0 @ sol.spinor), bar @ (g1 @ sol.spinor)]).real
