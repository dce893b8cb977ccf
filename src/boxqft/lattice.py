"""Periodic spacetime lattice shared by every other module.

A box of length L carries N spatial sites and a discrete momentum grid
k_n = 2*pi*n/L.  The index range is n = -(N/2 - 1) .. (N/2 - 1): the
asymmetric FFT edge mode n = -N/2 is dropped so that the grid is closed
under k -> -k.  Several kernel identities cancel mode against partner
mode and hold only because of that closure.

Units are natural (hbar = c = 1) and the mass must be strictly positive,
so every mode frequency omega_n = sqrt(m^2 + k_n^2) is real and bounded
below by m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class ValidationError(ValueError):
    """Raised when a spec field fails validation; message names the field."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested absolute tolerance.

    Raised by :mod:`boxqft.frequency`; declared here, beside
    ValidationError, so that the command line can catch it without
    loading the quadrature module or scipy.
    """


@dataclass(frozen=True)
class LatticeSpec:
    """Input parameters for :func:`build_lattice`.

    n_space    -- number of spatial sites N (even, >= 2)
    box_length -- spatial period L > 0, finite
    mass       -- field mass m > 0, finite
    dt         -- sampling step for the time grid, > 0, finite
    n_time     -- number of time samples N_t >= 1
    """

    n_space: int = 64
    box_length: float = 10.0
    mass: float = 1.0
    dt: float = 0.1
    n_time: int = 64


@dataclass(frozen=True)
class Lattice:
    """Validated lattice: spec plus derived momentum and frequency grids.

    ``momenta`` is sorted ascending and negation-closed; ``frequencies``
    holds omega_n = sqrt(m^2 + k_n^2) in matching order.
    """

    spec: LatticeSpec
    momenta: np.ndarray
    frequencies: np.ndarray

    @property
    def n_modes(self) -> int:
        return self.momenta.shape[0]

    @property
    def dx(self) -> float:
        return self.spec.box_length / self.spec.n_space

    def positions(self) -> np.ndarray:
        """Spatial grid x_j = j*L/N, j = 0..N-1."""
        return np.arange(self.spec.n_space) * self.dx

    def times(self) -> np.ndarray:
        """Time grid t_i = i*dt, i = 0..N_t-1."""
        return np.arange(self.spec.n_time) * self.spec.dt


def omega(k: float | np.ndarray, mass: float) -> float | np.ndarray:
    """Relativistic mode frequency sqrt(mass^2 + k^2).

    Rejects non-positive mass: the massless limit would put a zero mode
    on the grid and every 1/(2*omega) weight blows up.
    """
    if mass <= 0:
        raise ValidationError(f"mass must be positive, got {mass}")
    w = np.sqrt(mass * mass + np.asarray(k, dtype=float) ** 2)
    return float(w) if np.ndim(k) == 0 else w


def validate_spec(spec: LatticeSpec) -> None:
    if not isinstance(spec.n_space, (int, np.integer)) or isinstance(spec.n_space, bool):
        raise ValidationError(f"n_space must be an integer, got {spec.n_space!r}")
    if spec.n_space < 2:
        raise ValidationError(f"n_space must be >= 2, got {spec.n_space}")
    if spec.n_space % 2 != 0:
        raise ValidationError(f"n_space must be even, got {spec.n_space}")
    for name in ("box_length", "mass", "dt"):
        value = getattr(spec, name)
        if not math.isfinite(value):
            raise ValidationError(f"{name} must be finite, got {value}")
        if not value > 0:
            raise ValidationError(f"{name} must be positive, got {value}")
    if not isinstance(spec.n_time, (int, np.integer)) or isinstance(spec.n_time, bool):
        raise ValidationError(f"n_time must be an integer, got {spec.n_time!r}")
    if spec.n_time < 1:
        raise ValidationError(f"n_time must be >= 1, got {spec.n_time}")
    _validate_derived_ranges(spec)


def _validate_derived_ranges(spec: LatticeSpec) -> None:
    """Reject finite fields whose derived lattice quantities are not finite
    and nonzero: the spacing dx, the double-sum measure (dt dx)^2 and the
    lowest and top mode frequencies (the top one bounds the top momentum).
    They are computed as build_lattice and the absorber compute them; a
    float product overflows to inf or underflows to 0 without raising."""
    dx = spec.box_length / spec.n_space
    k_top = 2.0 * math.pi * (spec.n_space // 2 - 1) / spec.box_length
    derived = (
        ("spacing dx", dx),
        ("measure (dt dx)^2", (spec.dt * dx) * (spec.dt * dx)),
        ("lowest mode frequency", math.sqrt(spec.mass * spec.mass)),
        ("top mode frequency", math.sqrt(spec.mass * spec.mass + k_top * k_top)),
    )
    for label, value in derived:
        if not (math.isfinite(value) and value > 0.0):
            raise ValidationError(
                f"lattice out of range: {label} is {value!r} for box_length="
                f"{spec.box_length!r}, n_space={spec.n_space}, dt={spec.dt!r}, "
                f"mass={spec.mass!r}"
            )


def build_lattice(spec: LatticeSpec) -> Lattice:
    """Validate ``spec`` and construct the negation-closed momentum grid.

    Deterministic: equal specs give bitwise-equal grids.
    """
    validate_spec(spec)
    half = spec.n_space // 2
    indices = np.arange(-(half - 1), half)  # excludes the edge mode -N/2
    momenta = 2.0 * np.pi * indices / spec.box_length
    frequencies = np.sqrt(spec.mass * spec.mass + momenta * momenta)
    momenta.setflags(write=False)
    frequencies.setflags(write=False)
    return Lattice(spec=spec, momenta=momenta, frequencies=frequencies)


def is_negation_closed(momenta: np.ndarray) -> bool:
    """True when the momentum set is symmetric under k -> -k (exactly)."""
    return bool(np.array_equal(np.sort(momenta), np.sort(-momenta)))
