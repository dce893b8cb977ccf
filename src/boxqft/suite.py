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

import functools
import itertools
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
    rng: np.random.Generator, box_length: float, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """n seeded points as arrays (t, x), t in [-2, 2) and x in [0, L), each
    t drawn just before its x.  Every check and ``fock-vev`` draws its
    points here, so ``_T_RANGE`` (2) is the one time range of the package;
    check 07 halves its t.  One ``rng.random(2 * n)`` block gives the
    values, the even entries the times and the odd ones the positions, so
    draws and end state match one uniform draw at a time."""
    # a uniform draw on [low, high) is low + (high - low) * rng.random()
    u = rng.random(2 * n)
    return -_T_RANGE + 2.0 * _T_RANGE * u[0::2], box_length * u[1::2]


def compare_vev_to_feynman(
    lattice: Lattice, tx, xx, ty, xy
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Time-ordered VEV against the Feynman kernel at each point pair
    (tx, xx), (ty, xy) of the four arrays.

    Returns the VEVs (one batched Fock-algebra call), the kernel at the
    differences (tx - ty, xx - xy) (one array call), their absolute
    differences and the truncation-event count.
    """
    tx, xx, ty, xy = (np.asarray(a, dtype=float) for a in (tx, xx, ty, xy))
    mode_spec = fock.mode_spec_from_lattice(lattice, max_occupation=1)
    vevs, truncations = fock.time_ordered_vev_detail(mode_spec, (tx, xx), (ty, xy))
    kernels = eval_kernel_grid(lattice, KernelKind.FEYNMAN, tx - ty, xx - xy)
    diff = vevs - kernels
    # np.hypot rounds as abs(complex) does; np.abs can differ in the last bit.
    return vevs, kernels, np.hypot(diff.real, diff.imag), truncations


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _worst(residuals) -> float:
    """The largest of ``residuals``, NaN if any is NaN: builtin max keeps
    its running value against a NaN, so max(0.0, nan) reads a NaN
    residual as 0 and lets it pass."""
    return float(np.max(np.asarray(residuals, dtype=float)))


# --- individual checks ------------------------------------------------------

def _check_antisymmetry(spec: LatticeSpec, lattice: Lattice, seed: int) -> tuple[float, float]:
    rng = _rng(seed, 1)
    L = lattice.spec.box_length
    t1, x1 = sample_points(rng, L, 1000)
    t2, x2 = sample_points(rng, L, 1000)
    t, x = t1 - t2, x1 - x2
    return (
        propagators.verify_antisymmetry(lattice, t, x),
        _dminus_conjugate_vs_mode_sum(lattice, t, x),
    )


def _dminus_conjugate_vs_mode_sum(lattice: Lattice, t, x) -> float:
    """Max |kernel_values D- - direct D- sum| at the differences (t, x).

    The kernel core reads D- as -conj(D+), and sums D+ from factored
    tables, exp(-i w t) per entry of t times cos(k x) per entry of x with
    the +-k partner modes folded.  The direct route forms one per-term
    phase exp(+i(w t + k x)) / (2 w) per point and mode, sums over the
    lattice modes in plain order and divides by -L, sharing no code with
    it.  So check 01b holds both the conjugate read and the factored core
    against the per-term sum."""
    L = lattice.spec.box_length
    w, k = lattice.frequencies, lattice.momenta
    fast = propagators.kernel_values(k, w, L, KernelKind.WIGHTMAN_MINUS, t, x)
    terms = np.exp(1j * (np.multiply.outer(t, w) + np.multiply.outer(x, k))) / (2.0 * w)
    direct = np.sum(terms, axis=-1) / -L
    return float(np.max(np.abs(fast - direct)))


def _check_decomposition(spec: LatticeSpec, lattice: Lattice, seed: int) -> tuple[float]:
    rng = _rng(seed, 2)
    t, x = sample_points(rng, lattice.spec.box_length, 1000)
    return (propagators.verify_decomposition(lattice, t, x),)


def _check_vev_oracle(spec: LatticeSpec, lattice: Lattice, seed: int) -> tuple[float, int]:
    """Max |VEV - Feynman kernel| over 100 seeded pairs on a 16-point grid,
    the x-points then the y-points from two ``sample_points`` calls (100
    independent pairs take both time orderings); also returns the
    truncation count."""
    spec16 = replace(spec, n_space=16)
    rng = _rng(seed, 3)
    tx, xx = sample_points(rng, spec16.box_length, 100)
    ty, xy = sample_points(rng, spec16.box_length, 100)
    _, _, diffs, truncations = compare_vev_to_feynman(
        lattices.build_lattice(spec16), tx, xx, ty, xy)
    return float(np.max(diffs)), truncations


def _worst_single_mode(check, spec: LatticeSpec, lattice: Lattice, rng) -> float:
    """Max of ``check(mode_spec, 0, t)`` over 5 seeded lattice momenta k,
    each on the one-mode set {k} at ceiling 2, paired with the times of 5
    ``sample_points`` draws made after them."""
    ks = rng.choice(np.asarray(lattice.momenta), 5).tolist()
    ts, _ = sample_points(rng, spec.box_length, 5)
    return _worst([check(fock.make_mode_spec([k], spec.mass, spec.box_length, 2), 0, t)
                   for k, t in zip(ks, ts.tolist())])


def _check_antiparticle_phase(spec: LatticeSpec, lattice: Lattice, seed: int) -> tuple[float]:
    return (_worst_single_mode(fock.antiparticle_phase_check, spec, lattice, _rng(seed, 4)),)


def _check_antiparticle_energy(spec: LatticeSpec, lattice: Lattice, seed: int) -> tuple[float]:
    mode_spec = fock.mode_spec_from_lattice(lattice, max_occupation=1, half_width=1)
    return (
        _worst([fock.antiparticle_energy_check(mode_spec, i) for i in range(mode_spec.n_modes)]),
    )


def _check_momentum_sign(spec: LatticeSpec, lattice: Lattice, seed: int) -> tuple[float]:
    return (_worst_single_mode(fock.momentum_sign_check, spec, lattice, _rng(seed, 5)),)


def _check_reinterpretation(spec: LatticeSpec, lattice: Lattice, seed: int) -> tuple[float]:
    mode_spec = fock.mode_spec_from_lattice(lattice, max_occupation=1, half_width=1)
    ts, xs = sample_points(_rng(seed, 6), spec.box_length, 3)
    return (_worst([fock.reinterpretation_check(mode_spec, t, x)
                    for t, x in zip(ts.tolist(), xs.tolist())]),)


def _check_translation_order(
    spec: LatticeSpec, lattice: Lattice, seed: int
) -> tuple[float, float]:
    """07: |least-squares convergence slope - 2| across dx = L/100, L/200
    and L/400 (so k dx is unit-free); 07c: the worst relative error of the
    norms against closed forms (:func:`_norms_vs_closed_forms`), which
    the slope, blind to a constant factor, cannot see."""
    mode_spec = fock.mode_spec_from_lattice(lattice, max_occupation=1, half_width=2)
    # Halving is exact, so t is bit for bit the uniform draw on [-1, 1)
    # that the same stream gives: -1 + 2u rounds to half of -2 + 4u.
    ts, xs = sample_points(_rng(seed, 7), spec.box_length, 1)
    t, x = 0.5 * float(ts[0]), float(xs[0])
    dxs = spec.box_length / np.array([100.0, 200.0, 400.0])
    residuals = np.array(fock.translation_generator_check(mode_spec, t, x, dxs))
    slope = float(np.polyfit(np.log(dxs), np.log(residuals), 1)[0])
    return abs(slope - 2.0), _norms_vs_closed_forms(spec, mode_spec, dxs, residuals)


def _norms_vs_closed_forms(spec: LatticeSpec, mode_spec: fock.ModeSpec, dxs, residuals) -> float:
    """Worst relative error of two norms against values written with no
    matrix.  Check 07's residual is sum_k c_k (k - sin(k dx)/dx) times
    (b_dag_k e^{-i theta_k} - a_k e^{i theta_k}), c_k = 1/sqrt(2 w_k L);
    at ceiling 1 each ladder matrix has squared Frobenius norm dim/2 and
    distinct ladders share no entry, so its normalised Hilbert-Schmidt
    norm is sqrt(sum_k (k - sin(k dx)/dx)^2 / (2 w_k L)).  And b_dag on
    one mode at ceiling n has largest singular value sqrt(n), which
    ``matrix_norm`` must read at ceilings 1 to 3."""
    k, w = np.asarray(mode_spec.momenta), np.asarray(mode_spec.frequencies)
    L = mode_spec.box_length
    closed = np.array([math.sqrt(np.sum((k - np.sin(k * dx) / dx) ** 2 / (2.0 * w * L)))
                       for dx in dxs])
    errors = list(np.abs(residuals - closed) / closed)
    for ceiling in (1, 2, 3):
        one = fock.make_mode_spec([0.0], spec.mass, spec.box_length, ceiling)
        norm = fock.matrix_norm(fock.operator_matrix(fock.b_dag(0), one))
        errors.append(abs(norm - math.sqrt(ceiling)) / math.sqrt(ceiling))
    return _worst(errors)


def _check_matrix_build(spec: LatticeSpec, lattice: Lattice, seed: int) -> tuple[float]:
    """Max |operator_matrix column j - apply(op, |j>)| over every basis
    column j, for Psi(t, x) and P on the three central modes (dim 64) and,
    on one seeded mode at ceiling 2 (dim 9), for the retarded oscillator
    momentum and b_dag b_dag, which cover the sqrt(2) factors and the
    ceiling."""
    rng = _rng(seed, 12)
    t, x = (float(a[0]) for a in sample_points(rng, spec.box_length, 1))
    k = float(rng.choice(np.asarray(lattice.momenta)))
    three = fock.mode_spec_from_lattice(lattice, max_occupation=1, half_width=1)
    one = fock.make_mode_spec([k], spec.mass, spec.box_length, 2)
    return (_worst([
        _matrix_vs_apply(three, fock.field_operator(three, t, x),
                         fock._number_operator(three.momenta)),
        _matrix_vs_apply(one, fock.oscillator_momentum(one, 0, t, "retarded"),
                         fock.b_dag(0) @ fock.b_dag(0)),
    ]),)


def _matrix_vs_apply(mode_spec: fock.ModeSpec, *ops: fock.ModeOperator) -> float:
    """Max over ops of |operator_matrix - the matrix read column by column
    from the symbolic ``apply`` on each basis ket|.  Basis indices turn
    into occupations by a divmod loop of its own (slot 0 least
    significant, quanta slots before antiquanta), sharing no index code
    with the vectorised build."""
    m, dim = mode_spec.n_modes, mode_spec.basis_dim
    base = mode_spec.max_occupation + 1
    occupations = []
    for col in range(dim):
        digits, rest = [], col
        for _ in range(2 * m):
            rest, digit = divmod(rest, base)
            digits.append(digit)
        occupations.append((tuple(digits[:m]), tuple(digits[m:])))
    index = {occupation: col for col, occupation in enumerate(occupations)}
    kets = [fock.FockState(mode_spec, {occupation: 1.0 + 0.0j}) for occupation in occupations]
    residuals = []
    for op in ops:
        symbolic = np.zeros((dim, dim), dtype=complex)
        for col, ket in enumerate(kets):
            for image, amp in fock.apply(op, ket).amplitudes.items():
                symbolic[index[image], col] = amp
        fast = fock.operator_matrix(op, mode_spec).toarray()
        residuals.append(np.max(np.abs(fast - symbolic)))
    return _worst(residuals)


_FREQUENCY_POINTS = ((1.0, 0.0), (1.0, 2.0), (2.0, -1.0))


def _reported_inf(names: str, exc: QuadratureError) -> float:
    """Warn (RuntimeWarning) that the checks ``names`` are reported as inf
    after the quadrature failure ``exc``, and return inf."""
    warnings.warn(f"check {names} reported as inf: {exc}", RuntimeWarning)
    return math.inf


def _check_frequency_plane(spec: LatticeSpec, lattice: Lattice, seed: int) -> tuple[float, float]:
    """Checks 08a and 08b on one regulated integral per frequency point:
    08a holds it against the per-mode kernel exp(-i w |t|)/(2 w), 08b
    against the principal part plus the on-shell term cos(w t)/(2 w), as
    ``frequency.verify_frequency_split`` reassembles them.

    Every run computes the integrals anew; nothing is cached across
    runs.  A quadrature failure in a regulated integral reports both
    checks as inf (through ``run_all_checks``); one in a principal part
    reports 08b alone, warned here, and keeps 08a's residual.
    """
    fspecs = [FrequencyIntegralSpec(w, t) for w, t in _FREQUENCY_POINTS]
    fulls = [frequency.frequency_integral_feynman(fspec) for fspec in fspecs]
    target_worst = _worst([abs(full - np.exp(-1j * w * abs(t)) / (2.0 * w))
                           for full, (w, t) in zip(fulls, _FREQUENCY_POINTS)])
    try:
        split_worst = _worst([frequency.verify_frequency_split(fspec, full)[2]
                              for fspec, full in zip(fspecs, fulls)])
    except QuadratureError as exc:
        split_worst = _reported_inf("08b_frequency_split_reassembly", exc)
    return target_worst, split_worst


def _oracle_integrands(fspec: FrequencyIntegralSpec) -> dict:
    """numpy twins of the integrands that ``frequency.quadrature_pieces``
    names ``full``, ``smooth`` and ``bare``, written from the spec alone
    and keyed by those names: check 08c's Gauss-Kronrod route evaluates
    these, so its two routes share only the segment bounds.  Each is
    folded onto nu >= 0: 2i cos(nu t) over its denominator."""
    w, t, eps = fspec.mode_frequency, fspec.time, fspec.epsilon
    onshell = math.cos(w * t)

    def full(nu):
        return 2j * np.cos(nu * t) / (nu * nu - w * w + 1j * eps)

    def smooth(nu):
        return 2j * (np.cos(nu * t) - onshell) / (nu * nu - w * w + 1j * eps)

    def bare(nu):
        return 2j * np.cos(nu * t) / (nu * nu - w * w)

    return {fn.__name__: fn for fn in (full, smooth, bare)}


@functools.cache
def _kronrod_rule() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes on [-1, 1] and weights of the (2n+1)-point Gauss-Kronrod rule
    for n = 10, and the weights of the n-point Gauss rule on its
    odd-indexed nodes.  Built on first use, so importing the suite
    (``fock-vev`` does) costs no LAPACK call.

    The n + 1 added nodes are the roots of the Stieltjes polynomial
    E = P_{n+1} + sum_{j <= n} c_j P_j, orthogonal to P_n P_k for every
    k <= n.  The weights make the rule exact on P_0 .. P_2n, and on those
    nodes that makes it exact on every polynomial of degree 3n + 1.
    """
    n = 10
    legendre = np.polynomial.legendre
    gauss_nodes, gauss_weights = legendre.leggauss(n)
    # inner products of degree up to 3n + 1 by a Gauss rule exact to 4n + 3
    x, w = legendre.leggauss(2 * n + 2)
    p = legendre.legvander(x, n + 1)
    moments = p[:, : n + 1].T * (p[:, n] * w)
    c = np.linalg.solve(moments @ p[:, : n + 1], -moments @ p[:, n + 1])
    nodes = np.sort(np.concatenate((gauss_nodes, legendre.legroots(np.append(c, 1.0)))))
    exact = np.zeros(2 * n + 1)
    exact[0] = 2.0  # int P_j over [-1, 1]
    return nodes, np.linalg.solve(legendre.legvander(nodes, 2 * n).T, exact), gauss_weights


#: Largest sum of |Kronrod - Gauss| over one segment's intervals that the
#: oracle of check 08c accepts, a hundredth of that check's tolerance.
_KRONROD_ABS_TOL = 1e-12

#: Most intervals the oracle holds at once, over all its segments, and
#: most bisection rounds.
_KRONROD_MAX_INTERVALS = 4096
_KRONROD_MAX_ROUNDS = 50


def _kronrod_intervals(fns, piece, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """The Gauss-Kronrod value over each interval [lo, hi] of its
    integrand ``fns[piece]``, and its difference from the embedded Gauss
    value, from one call of each integrand on the nodes of all its
    intervals.  A non-finite value raises QuadratureError."""
    nodes, weights, gauss_weights = _kronrod_rule()
    half = 0.5 * (hi - lo)
    x = (lo + half)[:, None] + half[:, None] * nodes
    values = np.empty(x.shape, dtype=complex)
    for k, fn in enumerate(fns):
        values[piece == k] = fn(x[piece == k])
    if not np.all(np.isfinite(values)):
        raise QuadratureError("Gauss-Kronrod oracle: non-finite integrand value")
    kronrod = half * (values @ weights)
    return kronrod, np.abs(kronrod - half * (values[:, 1::2] @ gauss_weights))


def _kronrod_segments(segments) -> np.ndarray:
    """int fn over each segment (fn, lo, hi) by adaptive bisection with
    the 21-point Gauss-Kronrod rule, all segments in one loop: the oracle
    of check 08c.

    Each round evaluates every new interval of every open segment with
    one call of each integrand.  A segment is done once the |Kronrod -
    Gauss| differences of its intervals sum to at most _KRONROD_ABS_TOL,
    and its value is the sum of their Kronrod values; until then each
    interval whose difference exceeds its width's share of that tolerance
    is halved.  More than _KRONROD_MAX_INTERVALS intervals at once, or
    more than _KRONROD_MAX_ROUNDS rounds, raises QuadratureError.
    """
    seg_fns, lo, hi = zip(*segments)
    fns = list(dict.fromkeys(seg_fns))
    piece = np.array([fns.index(fn) for fn in seg_fns])
    n_seg = len(segments)
    lo, hi, seg = np.array(lo, dtype=float), np.array(hi, dtype=float), np.arange(n_seg)
    per_width = _KRONROD_ABS_TOL / (hi - lo)
    value, spread = _kronrod_intervals(fns, piece, lo, hi)
    totals = np.zeros(n_seg, dtype=complex)
    for _ in range(_KRONROD_MAX_ROUNDS):
        done = (np.bincount(seg, weights=spread, minlength=n_seg) <= _KRONROD_ABS_TOL)[seg]
        np.add.at(totals, seg[done], value[done])
        live = ~done
        lo, hi, seg, value, spread = (a[live] for a in (lo, hi, seg, value, spread))
        if not seg.size:
            return totals
        split = spread > per_width[seg] * (hi - lo)
        if seg.size + np.count_nonzero(split) > _KRONROD_MAX_INTERVALS:
            raise QuadratureError(
                f"Gauss-Kronrod oracle needs more than {_KRONROD_MAX_INTERVALS} intervals"
            )
        mid = 0.5 * (lo[split] + hi[split])
        new_lo, new_hi = np.concatenate((lo[split], mid)), np.concatenate((mid, hi[split]))
        new_value, new_spread = _kronrod_intervals(fns, np.tile(piece[seg[split]], 2),
                                                   new_lo, new_hi)
        keep = ~split
        lo, hi = np.concatenate((lo[keep], new_lo)), np.concatenate((hi[keep], new_hi))
        seg = np.concatenate((seg[keep], seg[split], seg[split]))
        value = np.concatenate((value[keep], new_value))
        spread = np.concatenate((spread[keep], new_spread))
    raise QuadratureError(
        f"Gauss-Kronrod oracle not converged in {_KRONROD_MAX_ROUNDS} rounds"
    )


def _check_quadrature_vs_kronrod(spec: LatticeSpec, lattice: Lattice, seed: int) -> tuple[float]:
    """Max |Gauss-Legendre segment - Gauss-Kronrod segment| over every
    segment of the refined segmentation of every piece 08a and 08b
    integrate on nu >= 0, at the oscillating point (w, t) = (1, 2): 24
    segments.  The rule integrates each piece's integrand from
    ``frequency``; the adaptive Gauss-Kronrod oracle
    (:func:`_kronrod_segments`) integrates the twin of the same name from
    :func:`_oracle_integrands`, all 24 segments in one adaptive loop.
    The check keeps its name and label from when QUADPACK was this
    oracle; QUADPACK now holds both routes in the tests, on all three
    points and both segmentations."""
    w, t = _FREQUENCY_POINTS[1]
    fspec = FrequencyIntegralSpec(w, t)
    oracles = _oracle_integrands(fspec)
    segments = [(fn, lo, hi) for fn, a, b, interior in frequency.quadrature_pieces(fspec)
                for lo, hi in itertools.pairwise(frequency.segmentations(a, b, interior)[1])]
    rule = np.array([frequency._quad_segment(fn, lo, hi) for fn, lo, hi in segments])
    oracle = _kronrod_segments([(oracles[fn.__name__], lo, hi) for fn, lo, hi in segments])
    return (_worst(np.abs(rule - oracle)),)


def _check_rest_frame(spec: LatticeSpec, lattice: Lattice, seed: int) -> tuple[float]:
    residuals = []
    for sol in dirac.rest_frame_solutions(spec.mass):
        current = dirac.probability_current(sol)
        residuals += [dirac.dirac_residual(sol), abs(current[0] - 1.0)]
    return (_worst(residuals),)


def _check_flux_direction(spec: LatticeSpec, lattice: Lattice, seed: int) -> tuple[float]:
    """max(0, j1 * p) at the standard probe point (p = 0.5, unit mass,
    negative energy); zero iff the flux is antiparallel to the momentum
    label."""
    sol = dirac.plane_wave_solution(0.5, 1.0, -1)
    return (_worst([0.0, dirac.probability_current(sol)[1] * sol.momentum]),)


def _check_absorber(spec: LatticeSpec, lattice: Lattice, seed: int) -> tuple[float, ...]:
    """Checks 10a-10h, in table order, on a 16x16 lattice of their own
    (the run's lattice is replaced)."""
    lattice = lattices.build_lattice(replace(spec, n_space=16, n_time=16))
    rng = _rng(seed, 10)
    currents = [absorber.random_current(lattice, rng) for _ in range(3)]
    free_residual = absorber.free_field_identity(currents, lattice)
    direction_residual = absorber.dplus_direction_equivalence(currents, lattice)

    # 100 currents in one block, the stream of 100 random_current draws,
    # and their on-shell transforms in one stacked call
    samples = _rng(seed, 11).standard_normal((100, lattice.spec.n_time, lattice.spec.n_space))
    energies = absorber._mode_energies(lattice, absorber._onshell_transform(lattice, samples))
    negativity = _worst([0.0, *(-energies.min(axis=-1))])

    projected = absorber.project_light_tight(currents[0], lattice)
    light_tight_total = absorber.emitted_spectrum([projected], lattice).total

    # np.min keeps a NaN, which then fails the must-exceed test
    control = float(np.min([
        absorber.free_field_identity(currents, lattice, pairs=[(0, 1)]),
        absorber.dplus_direction_equivalence(currents, lattice, pairs=[(0, 1)]),
    ]))
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
    """Max |FFT pair sum - a.K.b| over every ordered current pair, for D+
    and Hadamard in both directions, one correlation per pair, with K the
    dense (n_t n_x) x (n_t n_x) matrix gathered from the flattened
    difference table by one index."""
    n_t, n_x = lattice.spec.n_time, lattice.spec.n_space
    i, j = np.divmod(np.arange(n_t * n_x), n_x)
    index = ((i[:, None] - i[None, :]) + n_t - 1) * n_x + (j[:, None] - j[None, :]) % n_x
    measure = (lattice.spec.dt * lattice.dx) ** 2
    kernels = tuple((kind, reverse) for kind in (KernelKind.WIGHTMAN_PLUS, KernelKind.HADAMARD)
                    for reverse in (False, True))
    pairs = list(np.ndindex(len(currents), len(currents)))
    ffts = [absorber._pair_sums(currents, lattice, [pair], kernels) for pair in pairs]
    residuals = []
    for k, (kind, reverse) in enumerate(kernels):
        dense = absorber.kernel_difference_table(lattice, kind, reverse).ravel()[index]
        for (a, b), sums in zip(pairs, ffts):
            direct = currents[a].samples.ravel() @ dense @ currents[b].samples.ravel() * measure
            residuals.append(abs(sums[k] - direct))
    return _worst(residuals)


def _difference_table_fft_vs_modesum(lattice: Lattice) -> float:
    """Max over every kind of |DFT-built difference table - direct mode
    sums at the difference points| (equal-time row by the continuous
    extension).  The direct sums of all eight kinds come from one
    kernel_values call, one D+ sum."""
    n_t, n_x = lattice.spec.n_time, lattice.spec.n_space
    dts = (np.arange(-(n_t - 1), n_t) * lattice.spec.dt)[:, None]
    dxs = np.arange(n_x) * lattice.dx
    kinds = tuple(KernelKind)
    directs = propagators.kernel_values(
        lattice.momenta, lattice.frequencies, lattice.spec.box_length,
        kinds, dts, dxs, step_at_zero=True,
    )
    return _worst([np.max(np.abs(absorber.kernel_difference_table(lattice, kind) - direct))
                   for kind, direct in zip(kinds, directs)])


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
    residuals = []
    for current in currents:
        flat = current.samples.ravel()
        coeffs, *_ = np.linalg.lstsq(basis, flat, rcond=None)
        oracle = (flat - basis @ coeffs).reshape(current.shape)
        spectral = absorber.project_light_tight(current, lattice).samples
        residuals.append(np.max(np.abs(spectral - oracle)))
    return _worst(residuals)


# The check table, in report order.  Each row is a computation followed
# by the checks whose residuals it returns, in the same order.
_CHECK_TABLE = (
    (_check_antisymmetry,
     Check("01_wightman_antisymmetry", 1e-12,
           "wightman-pair antisymmetry under argument exchange"),
     Check("01b_dminus_conjugate_vs_mode_sum", 1e-13,
           "negative-frequency kernel as -conj(d+) equals its direct mode sum")),
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
           "momentum operator generates spatial translations"),
     Check("07c_norms_vs_closed_forms", 1e-8,
           "hilbert-schmidt and spectral norms equal their closed forms")),
    (_check_matrix_build,
     Check("07b_matrix_build_vs_symbolic_apply", 1e-13,
           "materialized operator matrix equals symbolic application column by column")),
    (_check_frequency_plane,
     Check("08a_frequency_integral_target", 1e-4,
           "regulated frequency integral reaches the per-mode kernel"),
     Check("08b_frequency_split_reassembly", 1e-4,
           "principal-part plus on-shell split reassembles the integral")),
    (_check_quadrature_vs_kronrod,
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
            residuals = (_reported_inf(", ".join(c.name for c in checks), exc),) * len(checks)
        for check, residual in zip(checks, residuals, strict=True):
            tol = tols[check.name]
            ok = residual > tol if check.exceed else residual <= tol
            results.append(
                CheckResult(check.name, check.paper_ref, float(residual), float(tol), bool(ok))
            )
    return results


def all_passed(results: list[CheckResult]) -> bool:
    return all(r.passed for r in results)
