"""Mutation audit: which named checks each planted fault fails.

Every row plants one fault by monkeypatch (no source file is edited),
runs ``run_all_checks(seed=42)`` and compares the set of failing checks,
by their number, with the set pinned here.  A refactor that merges the
two routes of a cross-check, or moves a check off the code it watched,
changes some pinned set, so the audit fails.

Rows pinned to the empty set are either equivalent mutants (the fault
changes no value any check can see) or known gaps: faults that every
named check lets through today.  The gaps are pinned as they stand, not
dropped, so closing one is a visible change to this table.
"""
from dataclasses import replace
from functools import wraps

import numpy as np
import pytest

from boxqft import absorber, dirac, fock, frequency, propagators, suite
from boxqft.lattice import LatticeSpec, build_lattice
from boxqft.propagators import KernelKind
from boxqft.suite import run_all_checks


def _weights(kind, rows):
    def plant(monkeypatch):
        monkeypatch.setitem(propagators._COEFFICIENTS, kind, rows)
    return plant


def _conjugated_bdag_phase(monkeypatch):
    """Psi's antiquanta term with the quanta term's phase, not its conjugate."""
    def field_operator(spec, t, x):
        terms = []
        for i, (k, w) in enumerate(zip(spec.momenta, spec.frequencies)):
            c = spec.mode_coefficient(i)
            phase = np.exp(1j * (k * x - w * t))
            terms.append((c * phase, (("a", i, False),)))
            terms.append((c * phase, (("b", i, True),)))
        return fock.ModeOperator(tuple(terms))

    monkeypatch.setattr(fock, "field_operator", field_operator)


def _leaky_projection(monkeypatch):
    """The light-tight projection keeps 1e-6 of the current it was given."""
    original = absorber.project_light_tight

    def project_light_tight(current, lattice):
        kept = original(current, lattice).samples
        return absorber.CurrentDistribution(kept + 1e-6 * current.samples)

    monkeypatch.setattr(absorber, "project_light_tight", project_light_tight)


def _time_reversed_transform(monkeypatch):
    """The emitted spectrum's on-shell transform reads the total current
    time-reversed, which swaps E_n between k and -k.  The time axis is -2,
    so a stack of currents keeps its order."""
    original = absorber._onshell_transform
    monkeypatch.setattr(
        absorber, "_onshell_transform",
        lambda lattice, total: original(lattice, total[..., ::-1, :]),
    )


def _flipped_epsilon(monkeypatch):
    """The regulated integrands ``full`` and ``smooth`` of the frequency
    plane with their poles displaced by -i eps; the closed-form integral
    of the subtracted interpolant keeps +i eps."""
    original = frequency._feynman_pieces

    def _feynman_pieces(spec):
        pieces, _ = original(replace(spec, epsilon=-spec.epsilon))
        return pieces, original(spec)[1]

    monkeypatch.setattr(frequency, "_feynman_pieces", _feynman_pieces)


def _unfolded_integrands(monkeypatch):
    """Every piece of the frequency plane, on nu >= 0, integrates the
    full-line integrand exp(-i nu t) * i/(nu^2 - w^2 [+ i eps]) in place
    of its fold 2i cos(nu t)/(...): each integral loses its nu < 0 half.
    ``smooth`` still subtracts the interpolant of exp(-i nu t) through
    nu = +-w, and every integrand keeps its name."""
    feynman, principal = frequency._feynman_pieces, frequency._principal_pieces

    def unfolded(spec, fn):
        w, t = spec.mode_frequency, spec.time
        eps = 0.0 if fn.__name__ == "bare" else spec.epsilon
        slope, offset = ((-1j * np.sin(w * t) / w, np.cos(w * t)) if fn.__name__ == "smooth"
                         else (0.0, 0.0))

        @wraps(fn)
        def integrand(nu):
            return (np.exp(-1j * nu * t) - (slope * nu + offset)) * 1j / (nu * nu - w * w + 1j * eps)
        return integrand

    def swapped(spec, pieces):
        return [(unfolded(spec, fn), a, b, cuts) for fn, a, b, cuts in pieces]

    monkeypatch.setattr(frequency, "_feynman_pieces", lambda spec: (
        swapped(spec, feynman(spec)[0]), feynman(spec)[1]))
    monkeypatch.setattr(frequency, "_principal_pieces", lambda spec, window: swapped(
        spec, principal(spec, window)))


def _negated_ci(monkeypatch):
    """The frequency tail completion reads -Ci in place of Ci."""
    original = frequency._sici

    def _sici(x):
        si, ci = original(x)
        return si, -ci

    monkeypatch.setattr(frequency, "_sici", _sici)


def _scaled_creation_diagonals(monkeypatch):
    """Every built matrix with its creation diagonals (row above column,
    offset > 0) scaled by 1.3."""
    original = fock.operator_matrix

    def operator_matrix(op, spec):
        mat = original(op, spec)
        return fock.FockMatrix(mat.dim, {
            offset: 1.3 * entries if offset > 0 else entries
            for offset, entries in mat.diagonals.items()
        })

    monkeypatch.setattr(fock, "operator_matrix", operator_matrix)


def _halved(name):
    """Every norm taken by ``fock.<name>`` reads half its value."""
    def plant(monkeypatch):
        original = getattr(fock, name)
        monkeypatch.setattr(fock, name, lambda mat: 0.5 * original(mat))
    return plant


def _negated_momentum(monkeypatch):
    """The oscillator momentum negated, for both phase choices."""
    original = fock.oscillator_momentum
    monkeypatch.setattr(fock, "oscillator_momentum", lambda *args: -original(*args))


def _swapped_phases(monkeypatch):
    """The oscillator momentum's retarded and advanced phase choices swapped."""
    original = fock.oscillator_momentum
    swap = {"retarded": "advanced", "advanced": "retarded"}
    monkeypatch.setattr(fock, "oscillator_momentum",
                        lambda spec, mode, t, phase: original(spec, mode, t, swap[phase]))


def _flux_negated(monkeypatch):
    """The probability current with its flux j^1 negated."""
    original = dirac.probability_current
    monkeypatch.setattr(dirac, "probability_current",
                        lambda sol: original(sol) * np.array([1.0, -1.0]))


def _rest_frame_flipped(monkeypatch):
    """The rest-frame solutions read with gamma^0 = -sigma_3: the basis
    spinor (1, 0) carries energy -m and (0, 1) carries +m."""
    original = dirac.rest_frame_solutions
    monkeypatch.setattr(dirac, "rest_frame_solutions", lambda m: tuple(
        replace(sol, energy=-sol.energy) for sol in original(m)))


# (row id, planting function, failing checks by number).  The weight rows
# give a kind's (D+, D-) weights for t >= 0 and for t < 0.
AUDIT = [
    # Known gaps: the three kernel-weight mutants below pass every named
    # check, because every check that reads RETARDED, ADVANCED or
    # COMMUTATOR takes both of its routes from the same weight table.
    # ROADMAP item 14 (each kind as a frequency contour) closes them.
    ("retarded-t>0-(1,-1)",
     _weights(KernelKind.RETARDED, ((1.0, -1.0), (0.0, 0.0))), set()),
    ("advanced-t<0-(1,1)",
     _weights(KernelKind.ADVANCED, ((0.0, 0.0), (1.0, 1.0))), set()),
    ("commutator-(1,-1)", _weights(KernelKind.COMMUTATOR, ((1.0, -1.0),) * 2), set()),
    ("time-symmetric-t>0-(1/2,-1/2)",
     _weights(KernelKind.TIME_SYMMETRIC, ((0.5, -0.5), (-0.5, -0.5))), {"02"}),
    ("feynman-t<0-(0,1)",
     _weights(KernelKind.FEYNMAN, ((1.0, 0.0), (0.0, 1.0))), {"02", "03"}),
    ("hadamard-(1/2,1/2)", _weights(KernelKind.HADAMARD, ((0.5, 0.5),) * 2), {"10a"}),
    ("field-operator-bdag-phase-conjugated", _conjugated_bdag_phase,
     {"03", "06", "07", "07c"}),
    ("projection-leaks-1e-6", _leaky_projection, {"10h"}),
    # Known gap: 10c reads only the sign of each E_n and 10d only their
    # total, which the k <-> -k swap leaves alone; no check holds E_n
    # mode by mode (ROADMAP item 2's 10k_mode_resolved_parseval would).
    ("onshell-transform-time-reversed", _time_reversed_transform, set()),
    # 08a and 08b hold the whole integral, where the flip moves only the
    # eps-wide pole structure; 08c holds each segment against its twin.
    ("regulated-integrand-epsilon-flipped", _flipped_epsilon, {"08c"}),
    # 08a and 08b hold whole integrals, each missing its nu < 0 half; 08c
    # holds each segment against its folded twin.
    ("frequency-plane-unfolded", _unfolded_integrands, {"08a", "08b", "08c"}),
    # 08b passes: the principal part and the regulated integral share the
    # tail, which cancels in their difference.
    ("tail-ci-negated", _negated_ci, {"08a"}),
    # 07b holds the build against apply column by column, and 07c the
    # scaled norms against closed forms.  The residuals of 04a-07 are each
    # one build, or a diagonal P with builds, so the scaling moves both of
    # their sides alike.
    ("matrix-creation-diagonals-x1.3", _scaled_creation_diagonals, {"07b", "07c"}),
    # 04a-06 read norms of residuals that are exactly zero, and 07 reads the
    # slope of log norm against log dx, which a constant factor leaves
    # alone; 07c holds each norm's value against a closed form.
    ("matrix-norm-halved", _halved("matrix_norm"), {"07c"}),
    ("hilbert-schmidt-norm-halved", _halved("hilbert_schmidt_norm"), {"07c"}),
    # Known gaps (ROADMAP item 19): 05 holds p_adv(t) against -p_ret(-t),
    # which both mutants keep, and 07b builds the same operator on both of
    # its sides.  A second route from i[H, q(t)] closes them.
    ("oscillator-momentum-negated", _negated_momentum, set()),
    ("oscillator-momentum-phases-swapped", _swapped_phases, set()),
    ("probability-current-flux-negated", _flux_negated, {"09b"}),
    ("rest-frame-gamma0-negated", _rest_frame_flipped, {"09a"}),
]


@pytest.fixture()
def fresh_tables():
    absorber._difference_table.cache_clear()
    yield
    absorber._difference_table.cache_clear()


@pytest.mark.parametrize(
    ("plant", "expected"), [row[1:] for row in AUDIT], ids=[row[0] for row in AUDIT]
)
def test_mutant_fails_its_pinned_checks(plant, expected, monkeypatch, fresh_tables):
    plant(monkeypatch)
    results = run_all_checks(LatticeSpec(), seed=42)
    assert {r.name.split("_")[0] for r in results if not r.passed} == expected


# The rows of the check table that read kernel values: 01/01b, 02, 03/03b
# and 10a-10h.
_KERNEL_ROWS = (suite._check_antisymmetry, suite._check_decomposition,
                suite._check_vev_oracle, suite._check_absorber)


def _kernel_rows_pass(spec, lattice):
    for computation, *checks in suite._CHECK_TABLE:
        if computation in _KERNEL_ROWS:
            for check, residual in zip(checks, computation(spec, lattice, 42), strict=True):
                tol = check.tolerance
                if not (residual > tol if check.exceed else residual <= tol):
                    return False
    return True


def test_weight_table_survivors_are_pinned(monkeypatch, fresh_tables):
    """One mutant per entry of the weight table, v -> v - 1 where v > 0
    and v + 1/2 otherwise, run on the check rows that read kernels.  The
    survivors are exactly the twelve entries of the kinds whose checks
    take both routes from this table (the three gaps pinned above);
    every other entry is killed.  scripts/mutation_sweep.py runs the
    full sweep."""
    spec = LatticeSpec()
    lattice = build_lattice(spec)
    assert _kernel_rows_pass(spec, lattice)
    survivors = set()
    for kind, pairs in list(propagators._COEFFICIENTS.items()):
        for side, column in np.ndindex(2, 2):
            mutated = [list(pair) for pair in pairs]
            weight = mutated[side][column]
            mutated[side][column] = weight - 1.0 if weight > 0 else weight + 0.5
            monkeypatch.setitem(propagators._COEFFICIENTS, kind, tuple(map(tuple, mutated)))
            absorber._difference_table.cache_clear()
            if _kernel_rows_pass(spec, lattice):
                survivors.add((kind, side, column))
        monkeypatch.setitem(propagators._COEFFICIENTS, kind, pairs)
    gaps = (KernelKind.RETARDED, KernelKind.ADVANCED, KernelKind.COMMUTATOR)
    assert survivors == {(kind, *entry) for kind in gaps for entry in np.ndindex(2, 2)}
