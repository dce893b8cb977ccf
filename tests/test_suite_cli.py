"""Named-check registry and the command-line front end."""
import cmath
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import boxqft
import boxqft.absorber
import boxqft.cli
import boxqft.dirac
import boxqft.fock
import boxqft.frequency
import boxqft.propagators
import boxqft.suite
from boxqft.cli import (
    RunConfig,
    build_parser,
    build_run_config,
    load_config_file,
    main,
    parse_tolerance_overrides,
)
from boxqft.frequency import QuadratureError
from boxqft.lattice import LatticeSpec, NumericalFailure, ValidationError, build_lattice
from boxqft.propagators import KernelKind, eval_kernel, eval_kernel_grid
from boxqft.suite import (
    DEFAULT_TOLERANCES,
    EXCEED_CHECKS,
    PAPER_REFS,
    CheckResult,
    all_passed,
    compare_vev_to_feynman,
    run_all_checks,
    sample_points,
)

# Every check's (name, default tolerance, paper ref, must-exceed flag), in
# report order.  A changed row moves the acceptance gate, so it must show
# up here as a deliberate edit.
PINNED_CHECKS = [
    ("01_wightman_antisymmetry", 1e-12,
     "wightman-pair antisymmetry under argument exchange", False),
    ("01b_dminus_conjugate_vs_mode_sum", 1e-13,
     "negative-frequency kernel as -conj(d+) equals its direct mode sum", False),
    ("02_feynman_decomposition", 1e-12,
     "feynman kernel = time-symmetric + hadamard parts", False),
    ("03_time_ordered_vev_oracle", 1e-10,
     "time-ordered vacuum expectation equals the feynman kernel", False),
    ("03b_vev_truncation_events", 0.0,
     "two-point functions need no occupation above one", False),
    ("04a_antiparticle_negative_frequency", 1e-13,
     "antiquanta creation operator carries negative frequency", False),
    ("04b_antiparticle_energy_positive", 1e-12,
     "normal-ordered energy of one antiquantum is positive", False),
    ("05_momentum_sign_reversal", 1e-13,
     "advanced-phase oscillator momentum reverses sign", False),
    ("06_mode_relabel_reinterpretation", 1e-13,
     "antiquanta relabeling of the field expansion", False),
    ("07_translation_generator_order", 0.2,
     "momentum operator generates spatial translations", False),
    ("07c_norms_vs_closed_forms", 1e-8,
     "hilbert-schmidt and spectral norms equal their closed forms", False),
    ("07b_matrix_build_vs_symbolic_apply", 1e-13,
     "materialized operator matrix equals symbolic application column by column", False),
    ("08a_frequency_integral_target", 1e-4,
     "regulated frequency integral reaches the per-mode kernel", False),
    ("08b_frequency_split_reassembly", 1e-4,
     "principal-part plus on-shell split reassembles the integral", False),
    ("08c_frequency_quadrature_vs_quadpack", 1e-10,
     "gauss-legendre frequency quadrature equals quadpack per segment", False),
    ("09a_rest_frame_solutions", 1e-15,
     "rest-frame spinor basis with signed energies and unit density", False),
    ("09b_negative_energy_flux_direction", 0.0,
     "negative-energy flux runs against the momentum label", False),
    ("10a_free_field_conversion", 1e-11,
     "hadamard double sum converts to the positive-frequency form", False),
    ("10b_direction_equivalence", 1e-11,
     "full double sum is blind to the kernel argument direction", False),
    ("10c_spectrum_nonnegativity", 1e-12,
     "per-mode emission energies are nonnegative", False),
    ("10d_light_tight_projection", 1e-10,
     "on-shell-free current emits nothing", False),
    ("10e_subset_sum_control", 1e-6,
     "subset sums break the double-sum identities", True),
    ("10f_interaction_fft_vs_direct", 1e-12,
     "fft-correlation double sum equals the dense a.k.b product", False),
    ("10g_difference_table_fft_vs_modesum", 1e-12,
     "dft-built difference table equals the direct mode sums", False),
    ("10h_projection_spectral_vs_lstsq", 1e-12,
     "spectral light-tight projection equals the least-squares one", False),
]
EXPECTED_CHECK_NAMES = [row[0] for row in PINNED_CHECKS]


@pytest.fixture(scope="module")
def results():
    return run_all_checks(LatticeSpec(), seed=42)


# --- check registry ---------------------------------------------------------

def test_registry_is_complete():
    assert set(DEFAULT_TOLERANCES) == set(EXPECTED_CHECK_NAMES)
    assert set(PAPER_REFS) == set(EXPECTED_CHECK_NAMES)


def test_check_table_pinned():
    declared = [
        (name, DEFAULT_TOLERANCES[name], PAPER_REFS[name], name in EXCEED_CHECKS)
        for name in DEFAULT_TOLERANCES
    ]
    assert declared == PINNED_CHECKS


def test_all_checks_run_in_order_and_pass(results):
    assert [r.name for r in results] == EXPECTED_CHECK_NAMES
    assert all_passed(results)


def test_record_wire_format(results):
    record = results[0].to_record()
    assert set(record) == {"name", "paper_ref", "max_residual", "tolerance", "pass"}
    assert isinstance(record["pass"], bool)
    assert isinstance(record["max_residual"], float)


def test_results_are_deterministic(results):
    repeat = run_all_checks(LatticeSpec(), seed=42)
    assert [r.to_record() for r in repeat] == [r.to_record() for r in results]


def test_seed_changes_residuals_not_verdicts(results):
    other = run_all_checks(LatticeSpec(), seed=9)
    assert all_passed(other)
    by_name = {r.name: r for r in other}
    assert (
        by_name["01_wightman_antisymmetry"].max_residual
        != dict((r.name, r) for r in results)["01_wightman_antisymmetry"].max_residual
    )


# Checks that read exactly 0.0 by construction, not by the agreement of two
# routes: 04a, 04b, 05 and 06 each form one operator whose terms cancel
# exactly; 09a holds the rest-frame basis spinors, 09b reads a sign, 10c the
# sign of squared moduli.  Each can fail only when the code that writes one
# of its terms changes.  These are the checks that ROADMAP items 2 and 17
# must give a second route.
IDENTITY_CHECKS = {"04a", "04b", "05", "06", "09a", "09b", "10c"}


def test_identity_checks_read_exactly_zero_at_every_seed():
    spec = LatticeSpec()
    lattice = build_lattice(spec)
    rows = [(computation, [check.name.split("_")[0] for check in checks])
            for computation, *checks in boxqft.suite._CHECK_TABLE]
    rows = [(computation, ids) for computation, ids in rows if IDENTITY_CHECKS & set(ids)]
    assert {i for _, ids in rows for i in ids} >= IDENTITY_CHECKS
    for seed in range(10):
        for computation, ids in rows:
            for check, residual in zip(ids, computation(spec, lattice, seed), strict=True):
                if check in IDENTITY_CHECKS:
                    assert residual == 0.0, (check, seed)


# The default physics in other units: L -> lam L, dt -> lam dt and
# m -> m / lam leave every identity the suite checks invariant (natural
# units have one length scale), so every verdict should stand.  The failing
# sets are ROADMAP item 10's known gaps, pinned as they stand: the absorber
# double sums scale as lam^4 against absolute bounds, so 10a, 10b and 10f
# fail at lam = 100 and the inverted control 10e stays below its
# must-exceed bound at lam = 0.01.  04a left the lam = 0.01 set when its
# residual became one operator whose terms cancel exactly; 07 and 07c left
# theirs when check 07's steps were tied to the box length.
UNIT_SCALING_GAPS = {
    0.01: {"10e"},
    0.1: set(),
    1.0: set(),
    10.0: set(),
    100.0: {"10a", "10b", "10f"},
}


def test_unit_scaling_verdicts_and_check_07():
    """Each lam fails its pinned set, and check 07, whose steps are
    fractions of the box, reads its lam = 1 value to 1e-9 at every lam."""
    failing, order = {}, {}
    for lam in UNIT_SCALING_GAPS:
        spec = LatticeSpec(box_length=10.0 * lam, mass=1.0 / lam, dt=0.1 * lam)
        results = run_all_checks(spec, seed=42)
        failing[lam] = {r.name.split("_")[0] for r in results if not r.passed}
        order[lam] = next(r.max_residual for r in results if r.name.startswith("07_"))
    assert failing == UNIT_SCALING_GAPS
    for lam, residual in order.items():
        assert abs(residual - order[1.0]) <= 1e-9, lam


def test_unknown_tolerance_name_rejected():
    with pytest.raises(ValidationError, match="unknown tolerance"):
        run_all_checks(LatticeSpec(), tolerances={"bogus": 1.0})


def test_control_check_uses_exceed_comparison():
    """The subset-sum control must sit *above* its threshold; raising the
    threshold beyond the residual flips it to FAIL."""
    huge = {"10e_subset_sum_control": 1e6}
    flipped = run_all_checks(LatticeSpec(), seed=42, tolerances=huge)
    record = {r.name: r for r in flipped}["10e_subset_sum_control"]
    assert not record.passed


def test_quadrature_failure_is_inf_and_warned(monkeypatch):
    def failing(*args, **kwargs):
        raise QuadratureError("segment [0, 1] disagrees by 3e-2")

    monkeypatch.setattr(boxqft.frequency, "frequency_integral_feynman", failing)
    with pytest.warns(RuntimeWarning) as caught:
        results = run_all_checks(LatticeSpec(), seed=42)
    messages = [str(w.message) for w in caught]
    assert any(
        "08a_frequency_integral_target" in m and "disagrees by 3e-2" in m
        for m in messages
    )
    by_name = {r.name: r for r in results}
    for name in ("08a_frequency_integral_target", "08b_frequency_split_reassembly"):
        assert by_name[name].max_residual == math.inf and not by_name[name].passed


def test_principal_part_failure_reports_only_08b(monkeypatch):
    """08b's own quadrature failing leaves 08a's residual, computed on the
    same regulated integrals, finite and passing."""
    def failing(*args, **kwargs):
        raise QuadratureError("principal part disagrees by 4e-2")

    monkeypatch.setattr(boxqft.frequency, "principal_part", failing)
    with pytest.warns(RuntimeWarning) as caught:
        results = run_all_checks(LatticeSpec(), seed=42)
    messages = [str(w.message) for w in caught]
    assert messages == [
        "check 08b_frequency_split_reassembly reported as inf: principal part disagrees by 4e-2"
    ]
    by_name = {r.name: r for r in results}
    assert by_name["08b_frequency_split_reassembly"].max_residual == math.inf
    assert not by_name["08b_frequency_split_reassembly"].passed
    target = by_name["08a_frequency_integral_target"]
    assert math.isfinite(target.max_residual) and target.passed
    assert all(r.passed for r in results if not r.name.startswith("08b"))


@pytest.mark.parametrize(
    ("module", "bound", "checks", "message"),
    [
        (boxqft.frequency, "_SICI_MAX_STEPS",
         ("08a_frequency_integral_target", "08b_frequency_split_reassembly"),
         "Si/Ci continued fraction not converged in 3 steps at x = 402.0"),
        (boxqft.suite, "_KRONROD_MAX_ROUNDS", ("08c_frequency_quadrature_vs_quadpack",),
         "Gauss-Kronrod oracle not converged in 3 rounds"),
    ],
)
def test_si_ci_and_kronrod_failures_report_inf(monkeypatch, module, bound, checks, message):
    """The Si/Ci continued fraction and 08c's Gauss-Kronrod oracle, cut
    short, raise QuadratureError, which reports their checks as inf with
    a warning that names them; every other check passes."""
    monkeypatch.setattr(module, bound, 3)
    with pytest.warns(RuntimeWarning) as caught:
        results = run_all_checks(LatticeSpec(), seed=42)
    assert [str(w.message) for w in caught] == [
        f"check {', '.join(checks)} reported as inf: {message}"
    ]
    for result in results:
        if result.name in checks:
            assert result.max_residual == math.inf and not result.passed
        else:
            assert result.passed


def test_nan_residual_fails_and_verify_exits_1(monkeypatch, tmp_path, capsys):
    """A NaN residual reads as a FAIL: the suite's reductions keep it,
    where builtin max(0.0, nan) is 0.0, and ``verify`` exits 1."""
    monkeypatch.setattr(boxqft.fock, "momentum_sign_check", lambda *args: math.nan)
    results = {r.name: r for r in run_all_checks(LatticeSpec(), seed=42)}
    nan_check = results.pop("05_momentum_sign_reversal")
    assert math.isnan(nan_check.max_residual) and not nan_check.passed
    assert all(r.passed for r in results.values())
    assert main(["verify", "--out", str(tmp_path)]) == 1
    assert "FAIL 05_momentum_sign_reversal max_residual=nan" in capsys.readouterr().out


@pytest.mark.parametrize("position", [0, 1, 2])
def test_worst_residual_keeps_a_nan_in_any_position(position):
    residuals = [0.0, 1e-3, 2.0]
    residuals[position] = math.nan
    assert math.isnan(boxqft.suite._worst(residuals))
    assert boxqft.suite._worst([0.0, 1e-3, 2.0]) == 2.0


def test_regulated_integral_evaluated_once_per_point(monkeypatch):
    """08a and 08b share one regulated integral per frequency point, and
    nothing computed in one run is reused by the next."""
    calls = []
    integral = boxqft.frequency.frequency_integral_feynman

    def counting(spec, *args, **kwargs):
        calls.append((spec.mode_frequency, spec.time))
        return integral(spec, *args, **kwargs)

    monkeypatch.setattr(boxqft.frequency, "frequency_integral_feynman", counting)
    for _ in range(2):
        calls.clear()
        run_all_checks(LatticeSpec(), seed=42)
        assert calls == list(boxqft.suite._FREQUENCY_POINTS)


def test_run_shares_kernel_sums_matrix_builds_and_norms(monkeypatch):
    """One seed-42 run makes 6 kernel_values calls (01: 2, 01b, 02, 03,
    10g: 1 each), 25 operator_matrix builds (04a: 5; 05: 5, one residual
    operator per draw; 06: 3, one per draw; 07: P, Psi and one shifted
    difference per step, 5; 07c: b_dag at three ceilings, 3; 07b: 4), 16
    dense norms (04a: 5, 05: 5, 06: 3, 07c: 3) and 3 Hilbert-Schmidt
    norms (07's side-1,024 residuals, which 07c reads again).

    The per-item loops stay batched: check 03 makes one
    time_ordered_vev_detail call for its 100 pairs (4 of the 153 apply
    calls, one bra and one ket per time ordering; 04b makes one per
    mode, 3), 10c one on-shell
    transform for its 100 currents (the other is 10d's), and 10f one
    correlation per ordered pair of its three currents (9 of the 13; 10a
    and 10b take one each over all nine pairs, and 10e one per identity
    on its one pair)."""
    counts = {"kernel_values": 0, "operator_matrix": 0, "matrix_norm": 0,
              "hilbert_schmidt_norm": 0, "time_ordered_vev_detail": 0, "apply": 0,
              "_onshell_transform": 0, "_correlation": 0}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(boxqft.propagators, "kernel_values")
    counting(boxqft.fock, "operator_matrix")
    counting(boxqft.fock, "matrix_norm")
    counting(boxqft.fock, "hilbert_schmidt_norm")
    counting(boxqft.fock, "time_ordered_vev_detail")
    counting(boxqft.fock, "apply")
    counting(boxqft.absorber, "_onshell_transform")
    counting(boxqft.absorber, "_correlation")
    assert all_passed(run_all_checks(LatticeSpec(), seed=42))
    assert counts == {"kernel_values": 6, "operator_matrix": 25, "matrix_norm": 16,
                      "hilbert_schmidt_norm": 3, "time_ordered_vev_detail": 1,
                      "apply": 153, "_onshell_transform": 2, "_correlation": 13}


def test_frequency_plane_work_per_run(monkeypatch):
    """One seed-42 run integrates 132 Gauss-Legendre segments on nu >= 0:
    36 per frequency point for 08a and 08b (the regulated integral's two
    pieces and the principal part's two at each of its two windows, each
    on 2 + 4 segments) and 08c's 24 refined segments.  08c's Gauss-Kronrod
    oracle takes those 24 in one adaptive loop of 20 rounds.  The full
    line (60 segments per point, 220 in all) or one oracle loop per piece
    (117 rounds) fails this."""
    counts = {"_quad_segment": 0, "_kronrod_intervals": 0}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(boxqft.frequency, "_quad_segment")
    counting(boxqft.suite, "_kronrod_intervals")
    assert all_passed(run_all_checks(LatticeSpec(), seed=42))
    assert counts == {"_quad_segment": 132, "_kronrod_intervals": 20}


def test_check_result_is_frozen():
    result = CheckResult("x", "y", 0.0, 1.0, True)
    with pytest.raises(AttributeError):
        result.passed = False


_SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def _fresh_interpreter(code: str) -> str:
    src = str(Path(boxqft.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    return done.stdout.strip()


def test_import_boxqft_leaves_scipy_unloaded():
    """The package imports none of its submodules, so a bare
    ``import boxqft`` costs no scipy import."""
    code = "import sys, boxqft; print('scipy' in sys.modules)"
    assert _fresh_interpreter(code) == "False"


# --- CLI helpers ------------------------------------------------------------

def test_schema_version_pinned():
    assert boxqft.cli._SCHEMA_VERSION == "1"


def test_tolerance_override_parsing():
    parsed = parse_tolerance_overrides(["01_wightman_antisymmetry=1e-10"])
    assert parsed == {"01_wightman_antisymmetry": 1e-10}
    with pytest.raises(ValidationError, match="CHECK=VALUE"):
        parse_tolerance_overrides(["justaname"])
    with pytest.raises(ValidationError, match="invalid value"):
        parse_tolerance_overrides(["01_wightman_antisymmetry=abc"])
    with pytest.raises(ValidationError, match="unknown check"):
        parse_tolerance_overrides(["bogus=1.0"])
    # zero is a legal threshold: 03b and 09b use it
    assert parse_tolerance_overrides(["09b_negative_energy_flux_direction=0"]) == {
        "09b_negative_energy_flux_direction": 0.0
    }
    for bad in ("nan", "inf", "-1e-12"):
        with pytest.raises(ValidationError, match="must be finite and >= 0"):
            parse_tolerance_overrides([f"01_wightman_antisymmetry={bad}"])


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nn_space = 16\nseed=7\n\nmass = 2.5 # inline\n")
    assert load_config_file(path) == {"n_space": 16, "seed": 7, "mass": 2.5}
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense = 1\n")
    with pytest.raises(ValidationError, match="unknown key"):
        load_config_file(bad)
    worse = tmp_path / "worse.cfg"
    worse.write_text("n_space = quite_a_few\n")
    with pytest.raises(ValidationError, match="invalid value"):
        load_config_file(worse)


def test_cli_flags_override_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("n_space = 16\nmass = 2.0\n")
    import argparse

    args = argparse.Namespace(
        n_space=32, box_length=None, mass=None, dt=None, n_time=None,
        seed=None, tolerance=None, out=None, config=str(path),
    )
    config = build_run_config(args)
    assert config.spec.n_space == 32  # flag wins
    assert config.spec.mass == 2.0  # file fills the gap
    assert config.spec.box_length == 10.0  # default fills the rest


# The shared flags, each of which is also a config-file key.
SHARED_KEYS = {"n_space", "box_length", "mass", "dt", "n_time", "seed", "out"}


def test_run_config_record_pinned():
    assert RunConfig().to_record() == {
        "n_space": 64, "box_length": 10.0, "mass": 1.0, "dt": 0.1, "n_time": 64,
        "seed": 42, "tolerances": {},
    }


def test_config_file_keys_are_the_shared_flags(tmp_path):
    args = build_parser().parse_args(["verify"])
    assert set(vars(args)) - {"command", "tolerance", "config"} == SHARED_KEYS
    path = tmp_path / "all.cfg"
    path.write_text("".join(f"{key} = 2\n" for key in sorted(SHARED_KEYS)))
    assert set(load_config_file(path)) == SHARED_KEYS


def test_every_lattice_field_has_a_shared_flag():
    args = build_parser().parse_args(["verify"])
    assert {f.name for f in fields(LatticeSpec)} <= set(vars(args))


def test_config_file_seed_is_validated(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("seed = -1\n")
    out = tmp_path / "out"
    assert main(["verify", "--config", str(path), "--out", str(out)]) == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


# --- CLI subcommands --------------------------------------------------------

def test_kernel_subcommand_contract(tmp_path):
    code = main([
        "kernel", "--kind", "feynman", "--t-range", "0.1:2.0:20",
        "--x", "0", "--out", str(tmp_path),
    ])
    assert code == 0
    path = tmp_path / "kernel_feynman.csv"
    lines = path.read_text().splitlines()
    assert lines[0] == "kind,t,x,re,im"
    assert len(lines) == 21  # header + 20 data rows
    assert all(line.startswith("feynman,") for line in lines[1:])


def test_kernel_rerun_is_byte_identical(tmp_path):
    # the '=' form keeps a leading minus from looking like an option
    argv = ["kernel", "--kind", "hadamard", "--t-range=-1:1:7",
            "--x-range", "0:9:4", "--out", str(tmp_path)]
    assert main(argv) == 0
    first = (tmp_path / "kernel_hadamard.csv").read_bytes()
    assert main(argv) == 0
    assert (tmp_path / "kernel_hadamard.csv").read_bytes() == first


def test_kernel_spaced_negative_range_matches_equals_form(tmp_path):
    spaced, joined = tmp_path / "spaced", tmp_path / "joined"
    tail = ["--x-range", "-2:9:4"]
    assert main(["kernel", "--kind", "feynman", "--t-range", "-3:3:4", *tail,
                 "--out", str(spaced)]) == 0
    assert main(["kernel", "--kind", "feynman", "--t-range=-3:3:4", *tail,
                 "--out", str(joined)]) == 0
    csv = (spaced / "kernel_feynman.csv").read_bytes()
    assert csv == (joined / "kernel_feynman.csv").read_bytes()
    assert len(csv.splitlines()) == 1 + 4 * 4


@pytest.mark.parametrize(("spaced", "joined", "written"), [
    (["dirac", "--p", "-1e5"], ["dirac", "--p=-1e5"], "dirac_solutions.json"),
    (["kernel", "--kind", "dplus", "--t", "-1e-3", "--x", "-2e1"],
     ["kernel", "--kind", "dplus", "--t=-1e-3", "--x=-2e1"], "kernel_dplus.csv"),
    (["kernel", "--kind", "feynman", "--t", "-1E-3", "--x-range", "-2e1:9:4"],
     ["kernel", "--kind", "feynman", "--t=-1E-3", "--x-range=-2e1:9:4"],
     "kernel_feynman.csv"),
    (["kernel", "--kind", "dplus", "--step-at-zero", "--t", "-1e-3", "--x=-2e1"],
     ["kernel", "--kind", "dplus", "--step-at-zero", "--t=-1e-3", "--x=-2e1"],
     "kernel_dplus.csv"),
], ids=["dirac-p", "kernel-t-x", "kernel-t-x-range", "after-switch-and-equals"])
def test_spaced_negative_exponent_matches_equals_form(tmp_path, spaced, joined, written):
    """argparse's negative-number pattern has no exponent; ``main`` joins a
    spaced value that starts with '-' and is a number to its flag, and
    leaves a switch and a value given with '=' as they are."""
    assert main([*spaced, "--out", str(tmp_path / "spaced")]) == 0
    assert main([*joined, "--out", str(tmp_path / "joined")]) == 0
    data = (tmp_path / "spaced" / written).read_bytes()
    assert data == (tmp_path / "joined" / written).read_bytes()


def _per_row_csv(lattice, kind, ts, xs, step_at_zero):
    """Oracle for the kernel CSV: one kernel call and one f-string per
    cell, a time row at a time."""
    lines = ["kind,t,x,re,im\n"]
    for t in ts.tolist():
        values = eval_kernel_grid(lattice, kind, t, xs, step_at_zero=step_at_zero)
        for x, value in zip(xs.tolist(), values.tolist()):
            lines.append(f"{kind.value},{t!r},{x!r},{value.real!r},{value.imag!r}\n")
    return "".join(lines).encode()


@pytest.mark.parametrize("kind", list(KernelKind), ids=lambda k: k.value)
@pytest.mark.parametrize(
    ("t_axis", "x_axis", "step_at_zero"),
    [
        # t of both signs, x beyond [0, L), more points than one block
        (("--t-range=-2.7:2.9:23", np.linspace(-2.7, 2.9, 23)),
         ("--x-range=-7.3:18.1:17", np.linspace(-7.3, 18.1, 17)), False),
        (("--t-range=-2:2:9", np.linspace(-2.0, 2.0, 9)),
         ("--x-range=-5:15:6", np.linspace(-5.0, 15.0, 6)), True),
        (("--t=-0.37", np.array([-0.37])), ("--x=12.5", np.array([12.5])), False),
    ],
    ids=["grid", "step-at-zero", "single-point"],
)
def test_kernel_csv_matches_per_row_oracle(tmp_path, kind, t_axis, x_axis, step_at_zero):
    argv = ["kernel", f"--kind={kind.value}", t_axis[0], x_axis[0], "--mass=1.37",
            "--out", str(tmp_path)]
    assert main(argv + ["--step-at-zero"] * step_at_zero) == 0
    lattice = build_lattice(LatticeSpec(mass=1.37))
    want = _per_row_csv(lattice, kind, t_axis[1], x_axis[1], step_at_zero)
    assert (tmp_path / f"kernel_{kind.value}.csv").read_bytes() == want


def test_kernel_axis_validation(tmp_path, capsys):
    assert main(["kernel", "--kind", "feynman", "--x", "0",
                 "--out", str(tmp_path)]) == 2
    assert "t" in capsys.readouterr().err
    assert main(["kernel", "--kind", "feynman", "--t", "1", "--t-range",
                 "0:1:5", "--x", "0", "--out", str(tmp_path)]) == 2
    assert main(["kernel", "--kind", "feynman", "--t-range", "0:1",
                 "--x", "0", "--out", str(tmp_path)]) == 2


def test_kernel_rejected_time_writes_no_file(tmp_path, capsys):
    """t = 0 is the last point of the range; no row may reach the disk."""
    assert main(["kernel", "--kind", "feynman", "--t-range", "1:0:3", "--x", "0",
                 "--out", str(tmp_path)]) == 2
    assert "t must be nonzero" in capsys.readouterr().err
    assert list(tmp_path.glob("kernel_*.csv")) == []


def test_kernel_step_kind_time_zero(tmp_path, capsys):
    base = ["kernel", "--kind", "retarded", "--t", "0", "--x", "1",
            "--out", str(tmp_path)]
    assert main(base) == 2
    assert "t must be nonzero" in capsys.readouterr().err
    assert main(base + ["--step-at-zero"]) == 0


@pytest.mark.parametrize("kind", ["dplus", "hadamard", "feynman"])
def test_kernel_reduces_x_into_the_box(tmp_path, kind):
    """Positions one period apart give byte-identical kernel values."""
    def values(x_range, out):
        assert main(["kernel", f"--kind={kind}", "--t-range=-1.2:1.3:5",
                     f"--x-range={x_range}", "--out", str(out)]) == 0
        lines = (out / f"kernel_{kind}.csv").read_text().splitlines()[1:]
        return [line.split(",")[3:] for line in lines]

    inside = values("0.5:2.5:5", tmp_path / "inside")
    shifted = values("10.5:12.5:5", tmp_path / "shifted")
    assert len(inside) == 25
    assert shifted == inside


def test_invalid_lattice_input_exits_2(tmp_path, capsys):
    assert main(["verify", "--mass", "0", "--out", str(tmp_path)]) == 2
    assert "mass" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["kernel", "--kind", "dplus", "--t", "0.5", "--x", "0", "--box-length", "inf"],
         "box_length must be finite"),
        (["absorber", "--n-space", "16", "--n-time", "16", "--dt", "inf"],
         "dt must be finite"),
        (["verify", "--mass", "nan"], "mass must be finite"),
        (["kernel", "--kind", "feynman", "--t", "nan", "--x", "0"], "t must be finite"),
        (["kernel", "--kind", "dplus", "--t", "0.5", "--x", "inf"], "x must be finite"),
        (["fock-vev", "--n-pairs", "-3"], "n_pairs must be >= 1"),
        (["fock-vev", "--n-pairs", "0"], "n_pairs must be >= 1"),
        (["absorber", "--n-currents", "0"], "n_currents must be >= 1"),
        (["verify", "--seed", "-1"], "seed must be >= 0"),
        (["fock-vev", "--seed", "-1"], "seed must be >= 0"),
        (["absorber", "--seed", "-1"], "seed must be >= 0"),
        (["verify", "--tolerance", "01_wightman_antisymmetry=nan"],
         "tolerance 01_wightman_antisymmetry must be finite and >= 0"),
        (["fock-vev", "--abs-tol", "nan"], "abs_tol must be finite and >= 0"),
        (["fock-vev", "--abs-tol", "-1"], "abs_tol must be finite and >= 0"),
        (["absorber", "--abs-tol", "nan"], "abs_tol must be finite and >= 0"),
        (["absorber", "--abs-tol", "-1"], "abs_tol must be finite and >= 0"),
        (["dirac", "--mass", "nan"], "mass must be finite"),
        (["dirac", "--p", "nan"], "p and m must give a finite energy"),
        (["dirac", "--n-space", "3"], "n_space must be even"),
        (["absorber", "--n-space", "8", "--n-time", "8", "--box-length", "1e300"],
         "box_length=1e+300"),
        (["fock-vev", "--n-space", "16", "--box-length", "1e-300"], "box_length=1e-300"),
        (["kernel", "--kind", "dplus", "--t", "0.5", "--x", "0", "--mass", "1e200"],
         "mode frequency is inf"),
        (["kernel", "--kind", "dplus", "--t", "0.5", "--x", "0", "--mass", "1e-200"],
         "lowest mode frequency is 0.0"),
        (["verify", "--n-space", "4"], "n_space must be >= 6"),
        (["verify", "--n-space", "2"], "n_space must be >= 6"),
        (["kernel", "--kind", "dplus", "--t", "1e308", "--x", "0"],
         "t=1e+308 overflows the mode phases"),
        (["kernel", "--kind", "dplus", "--t-range", "-1e308:1e308:3", "--x", "0"],
         "t: START:STOP must be finite with a finite width"),
        (["kernel", "--kind", "dplus", "--t", "0.5", "--x-range", "0:inf:3"],
         "x: START:STOP must be finite with a finite width"),
        # a spaced value with an exponent reaches validation, not argparse
        (["verify", "--mass", "-1e-3"], "mass must be positive"),
    ],
)
def test_non_finite_or_out_of_range_input_exits_2(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()  # invalid input writes no file


@pytest.mark.parametrize(
    ("module", "absent"),
    [("boxqft.fock", "boxqft.propagators"), ("boxqft.propagators", "boxqft.fock")],
)
def test_fock_and_kernel_core_load_apart(module, absent):
    """Check 03's two routes share no module: the Fock-space VEVs and the
    mode-sum kernels each load without the other."""
    code = f"import sys, {module}; print({absent!r} in sys.modules)"
    assert _fresh_interpreter(code) == "False"


def test_verify_and_fock_vev_run_without_scipy(tmp_path):
    """With every scipy import made to fail, ``verify`` and ``fock-vev``
    exit 0 and write the bytes of a run that could load it."""
    outputs = {}
    for label, block in (("blocked", "sys.modules['scipy'] = None; "), ("free", "")):
        out = tmp_path / label
        code = (
            f"import sys; {block}from boxqft.cli import main; "
            f"print([main([cmd, '--out', {str(out)!r} + '/' + cmd]) for cmd in ('verify', 'fock-vev')])"
        )
        assert _fresh_interpreter(code).splitlines()[-1] == "[0, 0]"
        outputs[label] = {path.relative_to(out): path.read_bytes()
                          for path in sorted(out.rglob("*")) if path.is_file()}
    assert len(outputs["blocked"]) == 2
    assert outputs["blocked"] == outputs["free"]


def test_importing_the_cli_and_kernel_modules_loads_no_scipy():
    modules = ["boxqft.cli", "boxqft.propagators", "boxqft.absorber", "boxqft.dirac"]
    code = f"import sys, {', '.join(modules)}; print({_SCIPY_MODULES})"
    assert _fresh_interpreter(code) == "[]"


@pytest.mark.parametrize(
    "argv",
    [
        ["kernel", "--kind", "feynman", "--t-range", "-1:1:4", "--x", "0.5"],
        ["absorber", "--n-space", "16", "--n-time", "16", "--project"],
        ["dirac"],
        ["fock-vev", "--n-space", "8", "--n-pairs", "4"],
    ],
)
def test_subcommands_without_checks_load_no_scipy(tmp_path, argv):
    code = (
        "import sys; from boxqft.cli import main; "
        f"code = main({argv + ['--out', str(tmp_path)]!r}); "
        f"print(code, {_SCIPY_MODULES})"
    )
    assert _fresh_interpreter(code).splitlines()[-1] == "0 []"


def test_unknown_tolerance_name_on_kernel_exits_2(tmp_path):
    code = (
        "import sys; from boxqft.cli import main; "
        "print(main(['kernel', '--kind', 'dplus', '--t', '0.5', '--x', '0', "
        f"'--tolerance', 'bogus=1', '--out', {str(tmp_path / 'out')!r}]))"
    )
    assert _fresh_interpreter(code) == "2"
    assert not (tmp_path / "out").exists()


def test_parser_is_built_once_per_process():
    assert build_parser() is build_parser()


def test_tolerance_override_does_not_carry_to_the_next_run(tmp_path, capsys):
    """main shares one parser across calls; an appended --tolerance lands
    in that call's namespace only."""
    first, second = tmp_path / "first", tmp_path / "second"
    main(["verify", "--tolerance", "07_translation_generator_order=0.5",
          f"--out={first}"])
    main(["verify", f"--out={second}"])
    records = [json.loads((d / "verify_report.json").read_text())["config"]
               for d in (first, second)]
    assert records[0]["tolerances"] == {"07_translation_generator_order": 0.5}
    assert records[1]["tolerances"] == {}


def test_rejected_argv_leaves_the_next_run_unaffected(tmp_path, capsys):
    small = ["absorber", "--n-space=16", "--n-time=16", f"--out={tmp_path}"]
    with pytest.raises(SystemExit) as exc:
        main(small + ["--bogus"])
    assert exc.value.code == 2
    assert main(small + ["--n-currents=0"]) == 2
    capsys.readouterr()
    assert main(small) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "absorber_summary.json").is_file()


@pytest.mark.parametrize(
    ("argv", "target", "error", "stderr"),
    [
        (["verify"], (boxqft.suite, "run_all_checks"),
         QuadratureError("segment disagrees by 3e-2"),
         "failure: segment disagrees by 3e-2\n"),
        (["dirac"], (boxqft.dirac, "plane_wave_solution"),
         NumericalFailure("constructed spinor violates the field equation: residual 3.000e-02"),
         "failure: constructed spinor violates the field equation: residual 3.000e-02\n"),
    ],
    ids=["quadrature", "degenerate-spinor"],
)
def test_numerical_failures_exit_1_with_their_message(
    tmp_path, capsys, monkeypatch, argv, target, error, stderr
):
    """Every numerical failure is one type to the command line: exit 1 and
    ``failure: <message>``."""
    def failing(*args, **kwargs):
        raise error

    monkeypatch.setattr(*target, failing)
    assert main(argv + ["--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == stderr


def _vev_pairs(rng, box_length, n):
    """Point pairs as check 03 and ``fock-vev`` draw them: the x-points,
    then the y-points, from two ``sample_points`` calls."""
    return (*sample_points(rng, box_length, n), *sample_points(rng, box_length, n))


@pytest.mark.parametrize("seed", range(10))
def test_vev_check_pairs_take_both_time_orders(monkeypatch, seed):
    """Check 03's 100 independent pairs put each point first in time in
    some pairs, with no forced alternation."""
    seen = []

    def recording(lattice, tx, xx, ty, xy):
        seen.append((tx, xx, ty, xy))
        return compare_vev_to_feynman(lattice, tx, xx, ty, xy)

    monkeypatch.setattr(boxqft.suite, "compare_vev_to_feynman", recording)
    spec = LatticeSpec()
    boxqft.suite._check_vev_oracle(spec, build_lattice(spec), seed)
    (tx, xx, ty, xy), = seen
    assert tx.shape == xx.shape == ty.shape == xy.shape == (100,)
    assert np.any(tx > ty) and np.any(tx < ty)
    assert np.all((0.0 <= xx) & (xx < 10.0) & (0.0 <= xy) & (xy < 10.0))
    for got, want in zip(seen[0], _vev_pairs(np.random.default_rng([seed, 3]), 10.0, 100)):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("box_length", [10.0, 0.37, 123.0])
def test_check_07_halved_draw_equals_uniform_draws(box_length):
    """Check 07 halves a ``sample_points`` t: bit for bit the value a
    uniform draw on [-1, 1) takes from the same stream, and its x the
    uniform draw on [0, L) that follows."""
    for seed in range(30):
        t, x = sample_points(np.random.default_rng([seed, 7]), box_length, 1)
        rng = np.random.default_rng([seed, 7])
        want_t, want_x = rng.uniform(-1.0, 1.0), rng.uniform(0.0, box_length)
        assert (0.5 * float(t[0])).hex() == want_t.hex()
        assert float(x[0]).hex() == want_x.hex()


def _scalar_sample_points(rng, box_length, n):
    """Oracle: one rng.uniform call per value, each t drawn just before
    its x."""
    ts, xs = [], []
    for _ in range(n):
        ts.append(float(rng.uniform(-2.0, 2.0)))
        xs.append(float(rng.uniform(0.0, box_length)))
    return np.array(ts), np.array(xs)


@pytest.mark.parametrize("n", [0, 1, 7, 1000])
def test_block_sampler_matches_scalar_draws(n):
    """The block draw of sample_points equals the scalar loop's values,
    dtypes included, and leaves the generator in the same state."""
    for seed in range(30):
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        got = sample_points(fast, 10.0, n)
        want = _scalar_sample_points(slow, 10.0, n)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
            assert g.dtype == w.dtype
        assert fast.bit_generator.state == slow.bit_generator.state


def test_sampler_draws_are_pinned():
    """The first draws at fixed seeds, as literals: a change in draw order
    (t before its x, a VEV pair's two x-points before the y-points) moves
    the samples of checks 01-03."""
    t, x = sample_points(np.random.default_rng([42, 1]), 10.0, 3)
    np.testing.assert_array_equal(t, [1.1740107495691512, -0.3822946642338838,
                                      1.2647768220888622])
    np.testing.assert_array_equal(x, [2.45958657341405, 6.327551812452089,
                                      5.774497720210826])
    # check 02's first three points
    t, x = sample_points(np.random.default_rng([42, 2]), 10.0, 3)
    np.testing.assert_array_equal(t, [-0.8419641691985431, -1.627822471454781,
                                      -0.5372821763596591])
    np.testing.assert_array_equal(x, [9.519967136151275, 3.2107591722952455,
                                      9.106334115388963])
    # check 03's first three pairs: its y-points follow all 100 x-points
    tx, xx, ty, xy = (a[:3] for a in _vev_pairs(np.random.default_rng([42, 3]), 10.0, 100))
    np.testing.assert_array_equal(tx, [-1.1235346377139752, 1.438838689163684,
                                       1.3797105501523879])
    np.testing.assert_array_equal(xx, [5.567730592230697, 5.982948284881225,
                                       4.721168513907107])
    np.testing.assert_array_equal(ty, [0.15101388248828007, -1.8936245932570306,
                                       -1.660677300252757])
    np.testing.assert_array_equal(xy, [0.6071826649202094, 3.275855725299305,
                                       2.1324736872048087])


def test_vev_comparison_matches_scalar_kernel():
    lattice = build_lattice(LatticeSpec(n_space=16))
    tx, xx, ty, xy = _vev_pairs(np.random.default_rng(5), 10.0, 8)
    vevs, kernels, diffs, truncations = compare_vev_to_feynman(lattice, tx, xx, ty, xy)
    for t, x, vev, kernel, diff in zip(tx - ty, xx - xy, vevs, kernels, diffs):
        scalar = eval_kernel(lattice, KernelKind.FEYNMAN, t, x)
        assert kernel == scalar  # one array call, bit for bit the scalar value
        assert diff == abs(complex(vev) - scalar)
    assert truncations == 0
    assert np.max(diffs) <= 1e-10


def _parent_field_operator(spec, t, x):
    """Psi(t, x) for one point as the unbatched code built it: one
    ``cmath.exp`` per mode, Python complex coefficients."""
    terms = []
    for i, (k, w) in enumerate(zip(spec.momenta, spec.frequencies)):
        c = spec.mode_coefficient(i)
        phase = cmath.exp(1j * (k * x - w * t))
        terms.append((c * phase, (("a", i, False),)))
        terms.append((c * phase.conjugate(), (("b", i, True),)))
    return boxqft.fock.ModeOperator(tuple(terms))


def _per_pair_vev_comparison(lattice, tx, xx, ty, xy):
    """Oracle of compare_vev_to_feynman: the per-pair loop it ran before
    the Fock algebra took batches, with scalar field operators and the
    complex products conj(a) b summed left to right in key order."""
    spec = boxqft.fock.mode_spec_from_lattice(lattice, max_occupation=1)
    vac = boxqft.fock.vacuum(spec)
    vevs, truncations = np.zeros(tx.size, dtype=complex), 0
    for idx, (t1, x1, t2, x2) in enumerate(zip(*(a.tolist() for a in (tx, xx, ty, xy)))):
        psi_x, psi_y = _parent_field_operator(spec, t1, x1), _parent_field_operator(spec, t2, x2)
        if t1 < t2:
            bra, ket = boxqft.fock.apply(psi_y, vac), boxqft.fock.apply(psi_x, vac)
        else:
            bra = boxqft.fock.apply(psi_x.adjoint(), vac)
            ket = boxqft.fock.apply(psi_y.adjoint(), vac)
        mine, theirs = bra.amplitudes, ket.amplitudes
        keys = mine.keys() if len(mine) <= len(theirs) else theirs.keys()
        vev = 0
        for key in keys:
            if key in mine and key in theirs:
                vev = vev + mine[key].conjugate() * theirs[key]
        vevs[idx] = vev
        truncations += bra.truncation_events + ket.truncation_events
    kernels = eval_kernel_grid(lattice, KernelKind.FEYNMAN, tx - ty, xx - xy)
    diff = vevs - kernels
    return vevs, kernels, np.hypot(diff.real, diff.imag), truncations


@pytest.mark.parametrize(("seed", "mass", "n_space", "n_pairs"), [
    (42, 1.0, 16, 100), (7, 0.63, 16, 100), (123, 1.77, 8, 40), (5, 0.5, 32, 25),
    (99, 2.0, 16, 1), (3, 1.2, 6, 2),
])
def test_batched_vev_comparison_matches_per_pair_loop(seed, mass, n_space, n_pairs):
    """One batched call equals the per-pair loop bit for bit, over both
    time orderings (the larger batches take both) and for a batch of one."""
    lattice = build_lattice(LatticeSpec(n_space=n_space, mass=mass))
    points = _vev_pairs(np.random.default_rng([seed, 3]), 10.0, n_pairs)
    got = compare_vev_to_feynman(lattice, *points)
    want = _per_pair_vev_comparison(lattice, *points)
    for g, w in zip(got[:3], want[:3]):
        assert g.shape == w.shape == (n_pairs,)
        np.testing.assert_array_equal(g.view(np.uint64), w.view(np.uint64))
    assert got[3] == want[3] == 0


def test_check_10c_block_draw_matches_per_current_loop():
    """10c's (100, 16, 16) standard-normal block is the stream of 100
    random_current draws, and its worst negative energy equals the one a
    loop of single-current emitted_spectrum calls finds."""
    spec = LatticeSpec(n_space=16, n_time=16)
    lattice = build_lattice(spec)
    for seed in (42, 7):
        rng = np.random.default_rng([seed, 11])
        draws = [boxqft.absorber.random_current(lattice, rng) for _ in range(100)]
        block = np.random.default_rng([seed, 11]).standard_normal((100, 16, 16))
        np.testing.assert_array_equal(block, np.stack([c.samples for c in draws]))
        loop = max([0.0] + [-boxqft.absorber.emitted_spectrum([c], lattice).energies.min()
                            for c in draws])
        assert boxqft.suite._check_absorber(spec, lattice, seed)[2] == loop


def test_fock_vev_subcommand(tmp_path):
    code = main(["fock-vev", "--n-space", "16", "--n-pairs", "6",
                 "--out", str(tmp_path)])
    assert code == 0
    records = json.loads((tmp_path / "fock_vev.json").read_text())
    assert len(records) == 6
    for record in records:
        assert set(record) == {"x", "y", "vev", "i_feynman", "abs_diff"}
        assert record["abs_diff"] <= 1e-10


def test_dirac_subcommand(tmp_path):
    assert main(["dirac", "--out", str(tmp_path)]) == 0
    records = json.loads((tmp_path / "dirac_solutions.json").read_text())
    assert len(records) == 4  # 2 rest-frame + 2 plane-wave
    assert [r["E"] > 0 for r in records] == [True, False, True, False]
    for record in records:
        assert set(record) == {"p", "m", "E", "spinor", "current", "residual"}
        assert len(record["spinor"]) == len(record["current"]) == 2
    assert records[3]["p"] == 0.5 and records[3]["current"][1] < 0.0
    assert main(["dirac", "--p", "0", "--out", str(tmp_path)]) == 0
    rest_only = json.loads((tmp_path / "dirac_solutions.json").read_text())
    assert len(rest_only) == 2


@pytest.mark.parametrize("argv", [
    ["--p", "1e5"], ["--p", "1e150"], ["--mass", "1e6"],
], ids=["p-1e5", "p-1e150", "mass-1e6"])
def test_dirac_builds_at_large_energies(tmp_path, capsys, argv):
    """Momenta and masses whose field-equation residual exceeds an
    absolute 1e-12 build: the bound scales with max(1, |E|)."""
    assert main(["dirac", *argv, "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    assert len(json.loads((tmp_path / "dirac_solutions.json").read_text())) == 4


def test_dirac_momentum_validation(tmp_path, capsys):
    """``--p`` takes one number: a list of components exits 2, naming p."""
    with pytest.raises(SystemExit) as exc:
        main(["dirac", "--p", "1,2", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "--p" in capsys.readouterr().err
    assert not tmp_path.joinpath("dirac_solutions.json").exists()


def test_absorber_subcommand(tmp_path):
    argv = ["absorber", "--n-space", "16", "--n-time", "16",
            "--out", str(tmp_path)]
    assert main(argv) == 0
    summary = json.loads((tmp_path / "absorber_summary.json").read_text())
    assert set(summary) == {"total", "n_modes", "light_tight", "tolerance"}
    assert summary["n_modes"] == 15
    assert not summary["light_tight"]
    spectrum_lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert len(spectrum_lines) == 16  # header + one row per mode


def test_absorber_projection_seals_the_box(tmp_path):
    argv = ["absorber", "--n-space", "16", "--n-time", "16", "--project",
            "--n-currents", "1", "--out", str(tmp_path)]
    assert main(argv) == 0
    summary = json.loads((tmp_path / "absorber_summary.json").read_text())
    assert summary["light_tight"]
    assert summary["total"] <= 1e-10


def _run_large_absorber(n, tmp_path, capsys, project):
    argv = ["absorber", "--n-space", str(n), "--n-time", str(n),
            "--n-currents", "2", "--out", str(tmp_path)]
    assert main(argv + (["--project"] if project else [])) == 0
    out = capsys.readouterr().out
    residuals = re.findall(r"residual = (\S+)$", out, re.M)
    assert len(residuals) == 2
    assert all(float(value) <= 1e-10 for value in residuals)
    summary = json.loads((tmp_path / "absorber_summary.json").read_text())
    assert summary["n_modes"] == n - 1
    assert summary["light_tight"] is project


@pytest.mark.parametrize("project", [False, True])
def test_absorber_reaches_128_squared(tmp_path, capsys, project):
    _run_large_absorber(128, tmp_path, capsys, project)


@pytest.mark.parametrize("project", [False, True])
def test_absorber_reaches_256_squared(tmp_path, capsys, project):
    _run_large_absorber(256, tmp_path, capsys, project)


def test_absorber_loads_current_from_csv(tmp_path):
    source = tmp_path / "current.csv"
    source.write_text("t_index,x_index,value\n4,7,2.0\n")
    argv = ["absorber", "--n-space", "16", "--n-time", "16",
            "--current", str(source), "--out", str(tmp_path)]
    assert main(argv) == 0
    summary = json.loads((tmp_path / "absorber_summary.json").read_text())
    assert summary["total"] > 0.0


@pytest.mark.parametrize(
    ("body", "message"),
    [
        (None, "current: cannot read"),
        ("t_index,x_index,value\n0,1.5,2.0\n", "current line 2"),
        ("t_index,x_index,value\n0,1,2.0\n3,1,two\n", "current line 3"),
        ("t_index,x_index,value\n0,1,nan\n", "current samples must be finite"),
    ],
)
def test_absorber_bad_current_csv_exits_2(tmp_path, capsys, body, message):
    source = tmp_path / "current.csv"
    if body is not None:
        source.write_text(body)
    argv = ["absorber", "--n-space", "16", "--n-time", "16",
            "--current", str(source), "--out", str(tmp_path)]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
