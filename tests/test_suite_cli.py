"""Named-check registry and the command-line front end."""
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
import scipy.sparse.linalg
from scipy.sparse.linalg import ArpackNoConvergence

import boxqft
import boxqft.frequency
import boxqft.suite
from boxqft.cli import (
    RunConfig,
    build_parser,
    build_run_config,
    load_config_file,
    main,
    parse_tolerance_overrides,
    report_schema_version,
)
from boxqft.frequency import QuadratureError
from boxqft.lattice import LatticeSpec, ValidationError, build_lattice
from boxqft.propagators import KernelKind, eval_kernel
from boxqft.suite import (
    DEFAULT_TOLERANCES,
    EXCEED_CHECKS,
    PAPER_REFS,
    CheckResult,
    all_passed,
    compare_vev_to_feynman,
    run_all_checks,
    sample_points,
    sample_vev_pairs,
)

# Every check's (name, default tolerance, paper ref, must-exceed flag), in
# report order.  A changed row moves the acceptance gate, so it must show
# up here as a deliberate edit.
PINNED_CHECKS = [
    ("01_wightman_antisymmetry", 1e-12,
     "wightman-pair antisymmetry under argument exchange", False),
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
    record = {r.name: r for r in results}["08a_frequency_integral_target"]
    assert record.max_residual == math.inf and not record.passed


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
    assert report_schema_version() == "1"


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
        (["dirac", "--p", "nan,0,0"], "p and m must give a finite energy"),
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


def test_norm_nonconvergence_exits_1(tmp_path, capsys, monkeypatch):
    def no_convergence(*args, **kwargs):
        raise ArpackNoConvergence("ARPACK error -1: No convergence", [], [])

    monkeypatch.setattr(scipy.sparse.linalg, "svds", no_convergence)
    assert main(["verify", "--out", str(tmp_path)]) == 1
    assert "failure: ARPACK error -1" in capsys.readouterr().err
    assert not (tmp_path / "verify_report.json").exists()


def test_vev_pairs_alternate_time_order():
    rng = np.random.default_rng(3)
    tx, xx, ty, xy = sample_vev_pairs(rng, 10.0, 40)
    assert tx.shape == xx.shape == ty.shape == xy.shape == (40,)
    for idx in range(40):
        assert (tx[idx] > ty[idx]) == (idx % 2 == 0)
        assert abs(tx[idx] - ty[idx]) >= 1e-3
        assert 0.0 <= xx[idx] < 10.0 and 0.0 <= xy[idx] < 10.0


def test_sampler_draws_are_pinned():
    """The first draws at fixed seeds, as literals: a change in draw order
    (t before its x, a rejected t redrawn before its x, a VEV pair's two
    times before its two positions) moves the samples of checks 01-03."""
    t, x = sample_points(np.random.default_rng([42, 1]), 10.0, 3)
    np.testing.assert_array_equal(t, [1.1740107495691512, -0.3822946642338838,
                                      1.2647768220888622])
    np.testing.assert_array_equal(x, [2.45958657341405, 6.327551812452089,
                                      5.774497720210826])
    # three of the first five times fall below 1.5 in magnitude and are redrawn
    t, x = sample_points(np.random.default_rng([42, 2]), 10.0, 3, min_abs_t=1.5)
    np.testing.assert_array_equal(t, [1.8079868544605096, 1.6425336461555848,
                                      1.6608062597486217])
    np.testing.assert_array_equal(x, [0.9304438213630473, 1.1017222380033886,
                                      6.5887733935041])
    tx, xx, ty, xy = sample_vev_pairs(np.random.default_rng([42, 3]), 10.0, 3)
    np.testing.assert_array_equal(tx, [0.22709223689227898, -0.11153259443715724,
                                       1.7653697849476568])
    np.testing.assert_array_equal(xx, [8.59709672290921, 4.229641200820781,
                                       6.331883601150445])
    np.testing.assert_array_equal(ty, [-1.1235346377139752, 1.3797105501523879,
                                       -0.6319353403757662])
    np.testing.assert_array_equal(xy, [5.982948284881225, 6.217499033239825,
                                       1.3762519268597007])


def test_vev_comparison_matches_scalar_kernel():
    lattice = build_lattice(LatticeSpec(n_space=16))
    tx, xx, ty, xy = sample_vev_pairs(np.random.default_rng(5), 10.0, 8)
    vevs, kernels, diffs, truncations = compare_vev_to_feynman(lattice, tx, xx, ty, xy)
    for t, x, vev, kernel, diff in zip(tx - ty, xx - xy, vevs, kernels, diffs):
        scalar = eval_kernel(lattice, KernelKind.FEYNMAN, t, x)
        assert kernel == scalar  # one array call, bit for bit the scalar value
        assert diff == abs(complex(vev) - scalar)
    assert truncations == 0
    assert np.max(diffs) <= 1e-10


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
    assert len(records) == 8  # 4 rest-frame + 4 plane-wave
    assert {r["index"] for r in records} == {1, 2, 3, 4}
    assert main(["dirac", "--p", "0,0,0", "--out", str(tmp_path)]) == 0
    rest_only = json.loads((tmp_path / "dirac_solutions.json").read_text())
    assert len(rest_only) == 4


def test_dirac_momentum_validation(tmp_path, capsys):
    assert main(["dirac", "--p", "1,2", "--out", str(tmp_path)]) == 2
    assert "p" in capsys.readouterr().err


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
    import numpy as np

    from boxqft.absorber import CurrentDistribution

    samples = np.zeros((16, 16))
    samples[4, 7] = 2.0
    source = tmp_path / "current.csv"
    CurrentDistribution(samples).to_csv(source)
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
