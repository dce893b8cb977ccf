"""Named verification checks with seeded sampling and a tolerance table.

Each check exercises one of the package's core identities end to end and
reports a single scalar residual.  The default tolerances match the
acceptance thresholds of the shipped test suite; callers may override
them per check.  All sampling is seeded, so identical configurations
reproduce identical residuals.

The check table at the end of this module (``_CHECK_TABLE``) declares
every check once, in report order.  Each row pairs one computation,
called as ``computation(spec, lattice, seed)``, with the checks whose
residuals it returns; each check carries its stable name (report
consumers key on it), default tolerance, paper reference and comparison
direction.  A new check is one row there plus its row in the README
table.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

# The functions that perfbench/tracer.py wraps are called through their
# modules: the tracer sets its wrappers on module attributes, and it also
# patches by-name copies only in modules already loaded, which this one,
# imported by the CLI only when needed, may not be.
from . import absorber, dirac, fock, frequency, propagators
from . import lattice as lattices
from .frequency import FrequencyIntegralSpec
from .lattice import Lattice, LatticeSpec, QuadratureError, ValidationError
from .propagators import KernelKind, eval_kernel_grid

__all__ = [
    "CheckResult",
    "DEFAULT_TOLERANCES",
    "MIN_N_SPACE",
    "PAPER_REFS",
    "all_passed",
    "compare_vev_to_feynman",
    "run_all_checks",
    "sample_points",
    "sample_vev_pairs",
]


@dataclass(frozen=True)
class Check:
    """One named check's declaration: stable name, default tolerance,
    paper reference, and whether the residual must *exceed* the
    tolerance (a negative control) rather than stay within it."""

    name: str
    tolerance: float
    paper_ref: str
    exceed: bool = False


@dataclass(frozen=True)
class CheckResult:
    """One named residual with its threshold and pass verdict."""

    name: str
    paper_ref: str
    max_residual: float
    tolerance: float
    passed: bool

    def to_record(self) -> dict:
        return {
            "name": self.name,
            "paper_ref": self.paper_ref,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


_T_RANGE = 2.0


def sample_points(
    rng: np.random.Generator, box_length: float, n: int, min_abs_t: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """n seeded points as arrays (t, x), t in [-2, 2] and x in [0, L), each
    t drawn just before its x.  A t below ``min_abs_t`` in magnitude is
    redrawn before its x is, one draw at a time."""
    if not min_abs_t > 0.0:
        return tuple(rng.uniform([-_T_RANGE, 0.0], [_T_RANGE, box_length], size=(n, 2)).T)
    ts, xs = [], []
    while len(ts) < n:
        t = float(rng.uniform(-_T_RANGE, _T_RANGE))
        if abs(t) < min_abs_t:
            continue
        ts.append(t)
        xs.append(float(rng.uniform(0.0, box_length)))
    return np.array(ts), np.array(xs)


def sample_vev_pairs(
    rng: np.random.Generator, box_length: float, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """n seeded point pairs for the time-ordered VEV comparison, as arrays
    (tx, xx, ty, xy): times in [-2, 2] at least 1e-3 apart, the point
    (tx, xx) the later of its pair on even indices and the earlier on odd
    ones."""
    draws = np.empty((n, 4))
    for idx in range(n):
        t1, t2 = rng.uniform(-_T_RANGE, _T_RANGE, size=2)
        while abs(t1 - t2) < 1e-3:
            t2 = rng.uniform(-_T_RANGE, _T_RANGE)
        if (t1 > t2) != (idx % 2 == 0):
            t1, t2 = t2, t1
        x1, x2 = rng.uniform(0.0, box_length, size=2)
        draws[idx] = t1, x1, t2, x2
    return tuple(draws.T)


def compare_vev_to_feynman(
    lattice: Lattice, tx, xx, ty, xy
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Time-ordered VEV against the Feynman kernel at each point pair
    (tx, xx), (ty, xy) of the four arrays.

    Returns the VEVs, the kernel at the differences (tx - ty, xx - xy)
    (one array call), their absolute differences and the summed
    truncation-event count.
    """
    tx, xx, ty, xy = (np.asarray(a, dtype=float) for a in (tx, xx, ty, xy))
    mode_spec = fock.mode_spec_from_lattice(lattice, max_occupation=1)
    vevs = np.zeros(tx.size, dtype=complex)
    truncations = 0
    pairs = zip(tx.tolist(), xx.tolist(), ty.tolist(), xy.tolist())
    for idx, (t1, x1, t2, x2) in enumerate(pairs):
        vevs[idx], events = fock.time_ordered_vev_detail(mode_spec, (t1, x1), (t2, x2))
        truncations += events
    kernels = eval_kernel_grid(lattice, KernelKind.FEYNMAN, tx - ty, xx - xy)
    diff = vevs - kernels
    # np.hypot rounds as abs(complex) does; np.abs can differ in the last bit.
    return vevs, kernels, np.hypot(diff.real, diff.imag), truncations


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


# --- individual checks ------------------------------------------------------

def _check_antisymmetry(spec: LatticeSpec, lattice: Lattice, seed: int) -> tuple[float]:
    rng = _rng(seed, 1)
    L = lattice.spec.box_length
    t1, x1 = sample_points(rng, L, 1000)
    t2, x2 = sample_points(rng, L, 1000)
    return (propagators.verify_antisymmetry(lattice, t1 - t2, x1 - x2),)


def _check_decomposition(spec: LatticeSpec, lattice: Lattice, seed: int) -> tuple[float]:
    rng = _rng(seed, 2)
    t, x = sample_points(rng, lattice.spec.box_length, 1000, min_abs_t=0.05)
    return (propagators.verify_decomposition(lattice, t, x),)


def _check_vev_oracle(spec: LatticeSpec, lattice: Lattice, seed: int) -> tuple[float, int]:
    """Max |VEV - Feynman kernel| over 100 seeded pairs on a 16-point grid,
    alternating the time ordering; also returns the truncation count."""
    spec16 = replace(spec, n_space=16)
    points = sample_vev_pairs(_rng(seed, 3), spec16.box_length, 100)
    _, _, diffs, truncations = compare_vev_to_feynman(lattices.build_lattice(spec16), *points)
    return float(np.max(diffs)), truncations


def _check_antiparticle_phase(spec: LatticeSpec, lattice: Lattice, seed: int) -> tuple[float]:
    rng = _rng(seed, 4)
    worst = 0.0
    for _ in range(5):
        k = float(rng.choice(np.asarray(lattice.momenta)))
        t = float(rng.uniform(-2.0, 2.0))
        mode_spec = fock.make_mode_spec([k], spec.mass, spec.box_length, 2)
        worst = max(worst, fock.antiparticle_phase_check(mode_spec, 0, t))
    return (worst,)


def _check_antiparticle_energy(spec: LatticeSpec, lattice: Lattice, seed: int) -> tuple[float]:
    mode_spec = fock.mode_spec_from_lattice(lattice, max_occupation=1, half_width=1)
    return (
        max(fock.antiparticle_energy_check(mode_spec, i) for i in range(mode_spec.n_modes)),
    )


def _check_momentum_sign(spec: LatticeSpec, lattice: Lattice, seed: int) -> tuple[float]:
    rng = _rng(seed, 5)
    worst = 0.0
    for _ in range(5):
        k = float(rng.choice(np.asarray(lattice.momenta)))
        t = float(rng.uniform(-2.0, 2.0))
        mode_spec = fock.make_mode_spec([k], spec.mass, spec.box_length, 2)
        worst = max(worst, fock.momentum_sign_check(mode_spec, 0, t))
    return (worst,)


def _check_reinterpretation(spec: LatticeSpec, lattice: Lattice, seed: int) -> tuple[float]:
    rng = _rng(seed, 6)
    mode_spec = fock.mode_spec_from_lattice(lattice, max_occupation=1, half_width=1)
    worst = 0.0
    for _ in range(3):
        t = float(rng.uniform(-2.0, 2.0))
        x = float(rng.uniform(0.0, spec.box_length))
        worst = max(worst, fock.reinterpretation_check(mode_spec, t, x))
    return (worst,)


def _check_translation_order(spec: LatticeSpec, lattice: Lattice, seed: int) -> tuple[float]:
    """|least-squares convergence slope - 2| across dx in {0.1, 0.05, 0.025}."""
    rng = _rng(seed, 7)
    mode_spec = fock.mode_spec_from_lattice(lattice, max_occupation=1, half_width=2)
    t = float(rng.uniform(-1.0, 1.0))
    x = float(rng.uniform(0.0, spec.box_length))
    dxs = np.array([0.1, 0.05, 0.025])
    residuals = np.array(
        [fock.translation_generator_check(mode_spec, t, x, dx) for dx in dxs]
    )
    slope = float(np.polyfit(np.log(dxs), np.log(residuals), 1)[0])
    return (abs(slope - 2.0),)


_FREQUENCY_POINTS = ((1.0, 0.0), (1.0, 2.0), (2.0, -1.0))
_FREQUENCY_WINDOW = 1e-3


def _frequency_spec(w: float, t: float) -> FrequencyIntegralSpec:
    return FrequencyIntegralSpec(mode_frequency=w, time=t, epsilon=1e-6, frequency_cutoff=200.0)


def _check_frequency_integral(spec: LatticeSpec, lattice: Lattice, seed: int) -> tuple[float]:
    worst = 0.0
    for w, t in _FREQUENCY_POINTS:
        value = frequency.frequency_integral_feynman(_frequency_spec(w, t))
        target = np.exp(-1j * w * abs(t)) / (2.0 * w)
        worst = max(worst, abs(value - target))
    return (worst,)


def _check_frequency_split(spec: LatticeSpec, lattice: Lattice, seed: int) -> tuple[float]:
    worst = 0.0
    for w, t in _FREQUENCY_POINTS:
        _, _, residual = frequency.verify_frequency_split(
            _frequency_spec(w, t), window=_FREQUENCY_WINDOW
        )
        worst = max(worst, residual)
    return (worst,)


def _quadpack_segment(fn, a: float, b: float) -> complex:
    """QUADPACK (scipy.integrate.quad) on the real and imaginary parts of a
    complex scalar integrand over [a, b]: the oracle of check 08c.

    QUADPACK's own error estimate saturates on the eps-narrow pole kinks
    even when the returned value is converged, so only its
    IntegrationWarning is silenced; warnings the integrand raises pass.
    """
    from scipy.integrate import IntegrationWarning, quad

    kw = dict(limit=800, epsabs=1e-10, epsrel=1e-9)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        re = quad(lambda v: fn(v).real, a, b, **kw)[0]
        im = quad(lambda v: fn(v).imag, a, b, **kw)[0]
    return re + 1j * im


def _check_quadrature_vs_quadpack(spec: LatticeSpec, lattice: Lattice, seed: int) -> tuple[float]:
    """Max |Gauss-Legendre segment - QUADPACK segment| over every segment
    of the refined segmentation of every piece 08a and 08b integrate, at
    the oscillating point (w, t) = (1, 2), held to the 1e-10 absolute
    accuracy QUADPACK is asked for.  QUADPACK costs several times the rule
    per segment, so the check takes one point and one segmentation; the
    tests compare all three points on both."""
    w, t = _FREQUENCY_POINTS[1]
    worst = 0.0
    for fn, a, b, interior in frequency.quadrature_pieces(
        _frequency_spec(w, t), _FREQUENCY_WINDOW
    ):
        refined = frequency.segmentations(a, b, interior)[1]
        for lo, hi in zip(refined[:-1], refined[1:]):
            rule = frequency._quad_segment(fn, lo, hi)
            worst = max(worst, abs(rule - _quadpack_segment(fn, lo, hi)))
    return (worst,)


def _check_rest_frame(spec: LatticeSpec, lattice: Lattice, seed: int) -> tuple[float]:
    worst = 0.0
    for sol in dirac.rest_frame_solutions(spec.mass):
        current = dirac.probability_current(sol)
        worst = max(worst, dirac.dirac_residual(sol), abs(current[0] - 1.0))
    return (worst,)


def _check_flux_direction(spec: LatticeSpec, lattice: Lattice, seed: int) -> tuple[float]:
    """max(0, j1 * p1) over both spin labels at the standard probe point
    (|p| = 0.5, unit mass, negative energy); zero iff the flux is
    antiparallel to the momentum label for both spins."""
    worst = 0.0
    for spin in (1, 2):
        sol = dirac.plane_wave_solution([0.5, 0.0, 0.0], 1.0, -1, spin)
        current = dirac.probability_current(sol)
        worst = max(worst, max(0.0, current[1] * sol.momentum[0]))
    return (worst,)


def _check_absorber(spec: LatticeSpec, lattice: Lattice, seed: int) -> tuple[float, ...]:
    """Checks 10a-10h, in table order, on a 16x16 lattice of their own
    (the run's lattice is replaced)."""
    lattice = lattices.build_lattice(replace(spec, n_space=16, n_time=16))
    rng = _rng(seed, 10)
    currents = [absorber.random_current(lattice, rng) for _ in range(3)]
    free_residual = absorber.free_field_identity(currents, lattice)
    direction_residual = absorber.dplus_direction_equivalence(currents, lattice)

    spectrum_rng = _rng(seed, 11)
    negativity = 0.0
    for _ in range(100):
        current = absorber.random_current(lattice, spectrum_rng)
        energies = absorber.emitted_spectrum([current], lattice).energies
        negativity = max(negativity, max(0.0, -float(energies.min())))

    projected = absorber.project_light_tight(currents[0], lattice)
    light_tight_total = absorber.light_tight_check([projected], lattice)

    control = min(
        absorber.free_field_identity(currents, lattice, pairs=[(0, 1)]),
        absorber.dplus_direction_equivalence(currents, lattice, pairs=[(0, 1)]),
    )
    return (
        free_residual,
        direction_residual,
        negativity,
        light_tight_total,
        control,
        _interaction_fft_vs_direct(currents, lattice),
        _difference_table_fft_vs_modesum(lattice),
        _projection_spectral_vs_lstsq(currents, lattice),
    )


def _interaction_fft_vs_direct(currents, lattice: Lattice) -> float:
    """Max |interaction_sum - a.K.b| over every ordered current pair, for
    D+ and Hadamard in both argument directions, with K the dense
    (n_t n_x) x (n_t n_x) matrix indexed from the difference table."""
    n_t, n_x = lattice.spec.n_time, lattice.spec.n_space
    i, j = np.divmod(np.arange(n_t * n_x), n_x)
    rows = (i[:, None] - i[None, :]) + n_t - 1
    cols = (j[:, None] - j[None, :]) % n_x
    measure = (lattice.spec.dt * lattice.dx) ** 2
    worst = 0.0
    for kind in (KernelKind.WIGHTMAN_PLUS, KernelKind.HADAMARD):
        for reverse in (False, True):
            dense = absorber.kernel_difference_table(lattice, kind, reverse)[rows, cols]
            for a in currents:
                for b in currents:
                    direct = a.samples.ravel() @ dense @ b.samples.ravel() * measure
                    fft = absorber.interaction_sum(a, b, kind, lattice, reverse)
                    worst = max(worst, abs(fft - direct))
    return worst


def _difference_table_fft_vs_modesum(lattice: Lattice) -> float:
    """Max over every kind of |DFT-built difference table - direct mode
    sums at the difference points| (equal-time row by the continuous
    extension)."""
    n_t, n_x = lattice.spec.n_time, lattice.spec.n_space
    dts = (np.arange(-(n_t - 1), n_t) * lattice.spec.dt)[:, None]
    dxs = np.arange(n_x) * lattice.dx
    worst = 0.0
    for kind in KernelKind:
        direct = propagators.kernel_values(
            lattice.momenta, lattice.frequencies, lattice.spec.box_length,
            kind, dts, dxs, step_at_zero=True,
        )
        table = absorber.kernel_difference_table(lattice, kind)
        worst = max(worst, float(np.max(np.abs(table - direct))))
    return worst


def _onshell_basis(lattice: Lattice) -> np.ndarray:
    """Real basis of on-shell grid functions: columns cos(w t - k x) and
    sin(w t - k x) for every mode, flattened over the grid."""
    times = lattice.times()
    positions = lattice.positions()
    tt = times[:, None, None]
    xx = positions[None, :, None]
    ww = np.asarray(lattice.frequencies)[None, None, :]
    kk = np.asarray(lattice.momenta)[None, None, :]
    angles = ww * tt - kk * xx                       # (n_t, n_x, modes)
    flat = angles.reshape(times.size * positions.size, -1)
    return np.hstack([np.cos(flat), np.sin(flat)])


def _projection_spectral_vs_lstsq(currents, lattice: Lattice) -> float:
    """Max |project_light_tight - least-squares residual on the flattened
    on-shell basis| over the currents."""
    basis = _onshell_basis(lattice)
    worst = 0.0
    for current in currents:
        flat = current.samples.ravel()
        coeffs, *_ = np.linalg.lstsq(basis, flat, rcond=None)
        oracle = (flat - basis @ coeffs).reshape(current.shape)
        spectral = absorber.project_light_tight(current, lattice).samples
        worst = max(worst, float(np.max(np.abs(spectral - oracle))))
    return worst


# The check table, in report order.  Each row is a computation followed
# by the checks whose residuals it returns, in the same order.
_CHECK_TABLE = (
    (_check_antisymmetry,
     Check("01_wightman_antisymmetry", 1e-12,
           "wightman-pair antisymmetry under argument exchange")),
    (_check_decomposition,
     Check("02_feynman_decomposition", 1e-12,
           "feynman kernel = time-symmetric + hadamard parts")),
    (_check_vev_oracle,
     Check("03_time_ordered_vev_oracle", 1e-10,
           "time-ordered vacuum expectation equals the feynman kernel"),
     Check("03b_vev_truncation_events", 0.0,
           "two-point functions need no occupation above one")),
    (_check_antiparticle_phase,
     Check("04a_antiparticle_negative_frequency", 1e-13,
           "antiquanta creation operator carries negative frequency")),
    (_check_antiparticle_energy,
     Check("04b_antiparticle_energy_positive", 1e-12,
           "normal-ordered energy of one antiquantum is positive")),
    (_check_momentum_sign,
     Check("05_momentum_sign_reversal", 1e-13,
           "advanced-phase oscillator momentum reverses sign")),
    (_check_reinterpretation,
     Check("06_mode_relabel_reinterpretation", 1e-13,
           "antiquanta relabeling of the field expansion")),
    (_check_translation_order,
     Check("07_translation_generator_order", 0.2,
           "momentum operator generates spatial translations")),
    (_check_frequency_integral,
     Check("08a_frequency_integral_target", 1e-4,
           "regulated frequency integral reaches the per-mode kernel")),
    (_check_frequency_split,
     Check("08b_frequency_split_reassembly", 1e-4,
           "principal-part plus on-shell split reassembles the integral")),
    (_check_quadrature_vs_quadpack,
     Check("08c_frequency_quadrature_vs_quadpack", 1e-10,
           "gauss-legendre frequency quadrature equals quadpack per segment")),
    (_check_rest_frame,
     Check("09a_rest_frame_solutions", 1e-15,
           "rest-frame spinor basis with signed energies and unit density")),
    (_check_flux_direction,
     Check("09b_negative_energy_flux_direction", 0.0,
           "negative-energy flux runs against the momentum label")),
    (_check_absorber,
     Check("10a_free_field_conversion", 1e-11,
           "hadamard double sum converts to the positive-frequency form"),
     Check("10b_direction_equivalence", 1e-11,
           "full double sum is blind to the kernel argument direction"),
     Check("10c_spectrum_nonnegativity", 1e-12,
           "per-mode emission energies are nonnegative"),
     Check("10d_light_tight_projection", 1e-10,
           "on-shell-free current emits nothing"),
     Check("10e_subset_sum_control", 1e-6,
           "subset sums break the double-sum identities", exceed=True),
     Check("10f_interaction_fft_vs_direct", 1e-12,
           "fft-correlation double sum equals the dense a.k.b product"),
     Check("10g_difference_table_fft_vs_modesum", 1e-12,
           "dft-built difference table equals the direct mode sums"),
     Check("10h_projection_spectral_vs_lstsq", 1e-12,
           "spectral light-tight projection equals the least-squares one")),
)

_CHECKS = [check for _, *checks in _CHECK_TABLE for check in checks]
DEFAULT_TOLERANCES: dict[str, float] = {c.name: c.tolerance for c in _CHECKS}
#: Stable identity labels carried verbatim into machine-readable reports.
PAPER_REFS: dict[str, str] = {c.name: c.paper_ref for c in _CHECKS}
#: Checks whose residual must *exceed* the tolerance (negative controls).
EXCEED_CHECKS = frozenset(c.name for c in _CHECKS if c.exceed)
#: The smallest run lattice the checks accept: check 07 takes the five
#: central modes of the run's grid, which n_space = 6 is the first to hold.
MIN_N_SPACE = 6


def run_all_checks(
    lattice_spec: LatticeSpec | None = None,
    seed: int = 42,
    tolerances: dict[str, float] | None = None,
) -> list[CheckResult]:
    """Run every named check and return results in report order.

    ``tolerances`` overrides entries of :data:`DEFAULT_TOLERANCES`;
    unknown names, and a lattice with fewer than :data:`MIN_N_SPACE`
    sites, raise a validation error.  A quadrature failure inside
    a computation is reported as an infinite residual for each of its
    checks rather than aborting the run, and warned about
    (RuntimeWarning) with the check names and the error message.
    """
    spec = lattice_spec or LatticeSpec()
    lattice = lattices.build_lattice(spec)
    if spec.n_space < MIN_N_SPACE:
        raise ValidationError(
            f"n_space must be >= {MIN_N_SPACE} for the named checks, got {spec.n_space}"
        )
    tols = dict(DEFAULT_TOLERANCES)
    if tolerances:
        unknown = set(tolerances) - set(tols)
        if unknown:
            raise ValidationError(
                f"unknown tolerance name(s): {', '.join(sorted(unknown))}"
            )
        tols.update(tolerances)

    results: list[CheckResult] = []
    for computation, *checks in _CHECK_TABLE:
        try:
            residuals = computation(spec, lattice, seed)
        except QuadratureError as exc:
            names = ", ".join(check.name for check in checks)
            warnings.warn(f"check {names} reported as inf: {exc}", RuntimeWarning)
            residuals = (math.inf,) * len(checks)
        for check, residual in zip(checks, residuals, strict=True):
            tol = tols[check.name]
            ok = residual > tol if check.exceed else residual <= tol
            results.append(
                CheckResult(check.name, check.paper_ref, float(residual), float(tol), bool(ok))
            )
    return results


def all_passed(results: list[CheckResult]) -> bool:
    return all(r.passed for r in results)
