"""Acceptance gate: every shipped identity at its shipped tolerance.

One test per named check; each prints a single PASS/FAIL line with the
measured residual next to the tolerance it is held to (run pytest with
``-s`` or ``-rA`` to see the lines for passing tests).  The final block
holds the command-line front end to its wire contract: exit codes,
report schema, and the tabulation row count.
"""
import json

import pytest

from boxqft.cli import main
from boxqft.lattice import LatticeSpec
from boxqft.suite import EXCEED_CHECKS, run_all_checks


@pytest.fixture(scope="module")
def results():
    return {r.name: r for r in run_all_checks(LatticeSpec(), seed=42)}


def _gate(results, name):
    result = results[name]
    relation = ">" if name in EXCEED_CHECKS else "<="
    verdict = "PASS" if result.passed else "FAIL"
    print(
        f"{verdict}: {name} residual={result.max_residual:.6e} "
        f"{relation} tolerance={result.tolerance:.6e}"
    )
    assert result.passed, (
        f"{name}: residual {result.max_residual!r} violates "
        f"'{relation} {result.tolerance!r}'"
    )


def test_01_wightman_antisymmetry(results):
    _gate(results, "01_wightman_antisymmetry")


def test_02_feynman_decomposition(results):
    _gate(results, "02_feynman_decomposition")


def test_03_time_ordered_vev_oracle(results):
    _gate(results, "03_time_ordered_vev_oracle")


def test_03b_vev_truncation_events(results):
    _gate(results, "03b_vev_truncation_events")


def test_04a_antiparticle_negative_frequency(results):
    _gate(results, "04a_antiparticle_negative_frequency")


def test_04b_antiparticle_energy_positive(results):
    _gate(results, "04b_antiparticle_energy_positive")


def test_05_momentum_sign_reversal(results):
    _gate(results, "05_momentum_sign_reversal")


def test_06_mode_relabel_reinterpretation(results):
    _gate(results, "06_mode_relabel_reinterpretation")


def test_07_translation_generator_order(results):
    _gate(results, "07_translation_generator_order")


def test_08a_frequency_integral_target(results):
    _gate(results, "08a_frequency_integral_target")


def test_08b_frequency_split_reassembly(results):
    _gate(results, "08b_frequency_split_reassembly")


def test_08c_frequency_quadrature_vs_quadpack(results):
    _gate(results, "08c_frequency_quadrature_vs_quadpack")


def test_09a_rest_frame_solutions(results):
    _gate(results, "09a_rest_frame_solutions")


def test_09b_negative_energy_flux_direction(results):
    _gate(results, "09b_negative_energy_flux_direction")


def test_10a_free_field_conversion(results):
    _gate(results, "10a_free_field_conversion")


def test_10b_direction_equivalence(results):
    _gate(results, "10b_direction_equivalence")


def test_10c_spectrum_nonnegativity(results):
    _gate(results, "10c_spectrum_nonnegativity")


def test_10d_light_tight_projection(results):
    _gate(results, "10d_light_tight_projection")


def test_10e_subset_sum_control(results):
    _gate(results, "10e_subset_sum_control")


def test_10f_interaction_fft_vs_direct(results):
    _gate(results, "10f_interaction_fft_vs_direct")


def test_10g_difference_table_fft_vs_modesum(results):
    _gate(results, "10g_difference_table_fft_vs_modesum")


def test_10h_projection_spectral_vs_lstsq(results):
    _gate(results, "10h_projection_spectral_vs_lstsq")


# --- command-line wire contract --------------------------------------------

def test_11a_cli_verify_report_contract(tmp_path):
    code = main(["verify", "--out", str(tmp_path)])
    report = json.loads((tmp_path / "verify_report.json").read_text())
    ok = (
        code == 0
        and set(report) == {"schema_version", "config", "checks"}
        and report["schema_version"] == "1"
        and len(report["checks"]) == 22
        and all(
            set(c) == {"name", "paper_ref", "max_residual", "tolerance", "pass"}
            for c in report["checks"]
        )
        and all(c["pass"] for c in report["checks"])
    )
    print(f"{'PASS' if ok else 'FAIL'}: 11a_cli_verify_report "
          f"exit={code} checks={len(report.get('checks', []))}")
    assert ok


def test_11b_cli_kernel_tabulation_contract(tmp_path):
    argv = ["kernel", "--kind", "feynman", "--t-range", "0.1:2.0:20",
            "--x", "0", "--out", str(tmp_path)]
    code = main(argv)
    path = tmp_path / "kernel_feynman.csv"
    first = path.read_bytes()
    lines = first.decode().splitlines()
    rerun_identical = main(argv) == 0 and path.read_bytes() == first
    ok = (code == 0 and lines[0] == "kind,t,x,re,im" and len(lines) == 21
          and rerun_identical)
    print(f"{'PASS' if ok else 'FAIL'}: 11b_cli_kernel_tabulation "
          f"exit={code} data_rows={len(lines) - 1} "
          f"rerun_byte_identical={rerun_identical}")
    assert ok


def test_11c_cli_invalid_input_contract(tmp_path, capsys):
    code = main(["verify", "--mass", "0", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    ok = code == 2 and "mass" in err
    print(f"{'PASS' if ok else 'FAIL'}: 11c_cli_invalid_input "
          f"exit={code} names_field={'mass' in err}")
    assert ok


def test_11d_cli_identity_failure_contract(tmp_path):
    code = main(["verify", "--tolerance",
                 "03_time_ordered_vev_oracle=1e-30", "--out", str(tmp_path)])
    report = json.loads((tmp_path / "verify_report.json").read_text())
    failed = [c["name"] for c in report["checks"] if not c["pass"]]
    ok = code == 1 and failed == ["03_time_ordered_vev_oracle"]
    print(f"{'PASS' if ok else 'FAIL'}: 11d_cli_identity_failure "
          f"exit={code} failed={failed}")
    assert ok
