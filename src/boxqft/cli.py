"""Command-line front end: run checks, tabulate kernels, dump solutions.

Subcommands
-----------
verify    run every named identity check, write a JSON report, exit 0/1
kernel    tabulate one kernel over a time/position grid as CSV
fock-vev  compare time-ordered vacuum expectations against the Feynman
          kernel over seeded point pairs, written as JSON records
dirac     dump the rest-frame and plane-wave spinor solutions as JSON
absorber  emit the per-mode energy spectrum of seeded (or file-loaded)
          currents as CSV plus a JSON summary

Every subcommand takes the same shared flags, declared once in
``_SHARED_FLAGS`` (the lattice fields of :class:`LatticeSpec`, ``seed``
and ``out``), which a ``--config`` file may also set.  They are merged
and validated in :func:`build_run_config` before any subcommand runs.

Exit codes: 0 on success, 1 when an identity check fails its tolerance
or a numerical routine (quadrature, ARPACK norm) fails, 2 on invalid
input (the message names the offending field).  A run that exits 2
writes no file.

Only ``verify`` and ``fock-vev`` import :mod:`boxqft.suite` (hence the
Fock space and scipy), inside their handlers; ``kernel``, ``absorber``
and ``dirac`` load no scipy.

All file outputs format floats with ``repr`` and sort JSON keys, so
repeated runs with the same configuration are byte-identical.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import absorber, dirac
from .lattice import (
    LatticeSpec,
    QuadratureError,
    ValidationError,
    build_lattice,
    validate_spec,
)
from .propagators import KernelKind, eval_kernel_grid

__all__ = ["RunConfig", "main", "report_schema_version"]

_SCHEMA_VERSION = "1"


def report_schema_version() -> str:
    """Version tag stamped into every JSON report this tool writes."""
    return _SCHEMA_VERSION


@dataclass(frozen=True)
class RunConfig:
    """Resolved run parameters shared by every subcommand."""

    spec: LatticeSpec = LatticeSpec()
    seed: int = 42
    out_dir: Path = Path(".")
    tolerances: tuple[tuple[str, float], ...] = ()

    def to_record(self) -> dict:
        return {**asdict(self.spec), "seed": self.seed, "tolerances": dict(self.tolerances)}


#: One row per shared flag: config-file key -> help text.  The argparse
#: flags, the config-file keys and casts, and the merge order (flag > file
#: > default) all derive from it; lattice defaults and types come from
#: :class:`LatticeSpec`, the rest from :class:`RunConfig`.
_SHARED_FLAGS = {
    "n_space": "even number of spatial points per period",
    "box_length": "spatial period L > 0",
    "mass": "field mass m > 0",
    "dt": "time step > 0",
    "n_time": "number of time samples >= 1",
    "seed": "RNG seed >= 0 for all sampling",
    "out": "output directory",
}
_DEFAULTS = {
    **asdict(LatticeSpec()), "seed": RunConfig.seed, "out": str(RunConfig.out_dir),
}


def load_config_file(path: str | Path) -> dict:
    """Parse a plain ``key=value`` file ('#' comments, blank lines allowed)."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValidationError(f"config: cannot read {path}: {exc}") from exc
    values: dict = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if not sep or not key:
            raise ValidationError(
                f"config line {lineno}: expected key=value, got {raw_line.strip()!r}"
            )
        if key not in _SHARED_FLAGS:
            raise ValidationError(f"config line {lineno}: unknown key {key!r}")
        try:
            values[key] = type(_DEFAULTS[key])(raw)
        except ValueError as exc:
            raise ValidationError(
                f"config line {lineno}: invalid value for {key!r}: {raw!r}"
            ) from exc
    return values


def check_threshold(field_name: str, value: float) -> float:
    """Return ``value`` if it is a usable pass threshold: finite and >= 0."""
    if not (math.isfinite(value) and value >= 0):
        raise ValidationError(f"{field_name} must be finite and >= 0, got {value!r}")
    return value


def parse_tolerance_overrides(entries: list[str] | None) -> dict[str, float]:
    if not entries:
        return {}
    from .suite import DEFAULT_TOLERANCES

    overrides: dict[str, float] = {}
    for entry in entries:
        name, sep, raw = entry.partition("=")
        name = name.strip()
        if not sep or not name:
            raise ValidationError(
                f"tolerance: expected CHECK=VALUE, got {entry!r}"
            )
        try:
            value = float(raw)
        except ValueError as exc:
            raise ValidationError(
                f"tolerance: invalid value for {name!r}: {raw.strip()!r}"
            ) from exc
        overrides[name] = check_threshold(f"tolerance {name}", value)
    unknown = set(overrides) - set(DEFAULT_TOLERANCES)
    if unknown:
        raise ValidationError(
            f"tolerance: unknown check name(s): {', '.join(sorted(unknown))}"
        )
    return overrides


def build_run_config(args: argparse.Namespace) -> RunConfig:
    """Merge CLI flags over config-file values over defaults, and validate
    every shared input before any subcommand runs."""
    from_file = load_config_file(args.config) if args.config else {}
    values = {}
    for key in _SHARED_FLAGS:
        flag = getattr(args, key)
        values[key] = from_file.get(key, _DEFAULTS[key]) if flag is None else flag
    seed, out = values.pop("seed"), values.pop("out")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    spec = LatticeSpec(**values)
    validate_spec(spec)
    overrides = parse_tolerance_overrides(args.tolerance)
    return RunConfig(spec, seed, Path(out), tuple(sorted(overrides.items())))


def _parse_linspace(text: str, field_name: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValidationError(
            f"{field_name}: expected START:STOP:COUNT, got {text!r}"
        )
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ValidationError(
            f"{field_name}: expected START:STOP:COUNT, got {text!r}"
        ) from exc
    if count < 1:
        raise ValidationError(f"{field_name}: count must be >= 1, got {count}")
    if not math.isfinite(stop - start):
        raise ValidationError(
            f"{field_name}: START:STOP must be finite with a finite width, got {text!r}"
        )
    return np.linspace(start, stop, count)


def _axis_values(
    scalar: float | None, ranged: str | None, field_name: str
) -> np.ndarray:
    if scalar is not None and ranged is not None:
        raise ValidationError(
            f"{field_name}: give either a single value or a range, not both"
        )
    if scalar is not None:
        return np.array([scalar])
    if ranged is not None:
        return _parse_linspace(ranged, field_name)
    raise ValidationError(f"{field_name}: a value or range is required")


def _write_json(path: Path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _complex_pair(value: complex) -> list[float]:
    return [float(value.real), float(value.imag)]


def _ensure_out_dir(config: RunConfig) -> Path:
    config.out_dir.mkdir(parents=True, exist_ok=True)
    return config.out_dir


# --- subcommand handlers ----------------------------------------------------

def cmd_verify(config: RunConfig, args: argparse.Namespace) -> int:
    from .suite import all_passed, run_all_checks

    results = run_all_checks(
        config.spec, seed=config.seed, tolerances=dict(config.tolerances)
    )
    for result in results:
        verdict = "PASS" if result.passed else "FAIL"
        print(
            f"{verdict} {result.name} "
            f"max_residual={result.max_residual:.6e} "
            f"tolerance={result.tolerance:.6e}"
        )
    out_dir = _ensure_out_dir(config)
    report = {
        "schema_version": report_schema_version(),
        "config": config.to_record(),
        "checks": [result.to_record() for result in results],
    }
    report_path = out_dir / "verify_report.json"
    _write_json(report_path, report)
    print(f"report written to {report_path}")
    return 0 if all_passed(results) else 1


def cmd_kernel(config: RunConfig, args: argparse.Namespace) -> int:
    kind = KernelKind(args.kind)
    ts = _axis_values(args.t, args.t_range, "t")
    xs = _axis_values(args.x, args.x_range, "x")
    lattice = build_lattice(config.spec)
    rows = [
        (t, eval_kernel_grid(lattice, kind, t, xs, step_at_zero=args.step_at_zero))
        for t in ts.tolist()
    ]
    out_dir = _ensure_out_dir(config)
    path = out_dir / f"kernel_{kind.value}.csv"
    with open(path, "w", newline="") as fh:
        fh.write("kind,t,x,re,im\n")
        for t, values in rows:
            for x, value in zip(xs.tolist(), values.tolist()):
                fh.write(f"{kind.value},{t!r},{x!r},{value.real!r},{value.imag!r}\n")
    print(f"wrote {ts.size * xs.size} rows to {path}")
    return 0


def cmd_fock_vev(config: RunConfig, args: argparse.Namespace) -> int:
    if args.n_pairs < 1:
        raise ValidationError(f"n_pairs must be >= 1, got {args.n_pairs}")
    check_threshold("abs_tol", args.abs_tol)
    from .suite import compare_vev_to_feynman, sample_vev_pairs

    lattice = build_lattice(config.spec)
    rng = np.random.default_rng(config.seed)
    points = sample_vev_pairs(rng, config.spec.box_length, args.n_pairs)
    vevs, kernels, diffs, truncations = compare_vev_to_feynman(lattice, *points)
    worst = float(np.max(diffs, initial=0.0))
    tx, xx, ty, xy = (a.tolist() for a in points)
    records = [
        {
            "x": [tx[i], xx[i]],
            "y": [ty[i], xy[i]],
            "vev": _complex_pair(vevs[i]),
            "i_feynman": _complex_pair(kernels[i]),
            "abs_diff": float(diffs[i]),
        }
        for i in range(args.n_pairs)
    ]
    out_dir = _ensure_out_dir(config)
    path = out_dir / "fock_vev.json"
    _write_json(path, records)
    print(
        f"{args.n_pairs} pairs, max |vev - kernel| = {worst:.6e}, "
        f"truncation events = {truncations}"
    )
    print(f"records written to {path}")
    return 0 if worst <= args.abs_tol and truncations == 0 else 1


def _spinor_record(solution: dirac.DiracSpinorSolution) -> dict:
    current = dirac.probability_current(solution)
    return {
        "index": solution.index,
        "p": [float(p) for p in solution.momentum],
        "m": float(solution.mass),
        "E": float(solution.energy),
        "spinor": [_complex_pair(c) for c in solution.spinor],
        "current": [float(j) for j in current],
        "residual": float(dirac.dirac_residual(solution)),
    }


def cmd_dirac(config: RunConfig, args: argparse.Namespace) -> int:
    parts = [piece.strip() for piece in args.p.split(",")]
    if len(parts) != 3:
        raise ValidationError(
            f"p: expected three comma-separated components, got {args.p!r}"
        )
    try:
        momentum = [float(piece) for piece in parts]
    except ValueError as exc:
        raise ValidationError(f"p: invalid component in {args.p!r}") from exc

    solutions = list(dirac.rest_frame_solutions(config.spec.mass))
    if any(momentum):
        for sign in (1, -1):
            for spin in (1, 2):
                solutions.append(
                    dirac.plane_wave_solution(momentum, config.spec.mass, sign, spin)
                )
    records = [_spinor_record(sol) for sol in solutions]
    for record in records:
        print(
            f"index={record['index']} E={record['E']!r} "
            f"j0={record['current'][0]!r} j1={record['current'][1]!r} "
            f"residual={record['residual']:.3e}"
        )
    out_dir = _ensure_out_dir(config)
    path = out_dir / "dirac_solutions.json"
    _write_json(path, records)
    print(f"solutions written to {path}")
    return 0


def cmd_absorber(config: RunConfig, args: argparse.Namespace) -> int:
    if args.n_currents < 1:
        raise ValidationError(f"n_currents must be >= 1, got {args.n_currents}")
    check_threshold("abs_tol", args.abs_tol)
    lattice = build_lattice(config.spec)
    if args.current is not None:
        currents = [
            absorber.current_from_csv(
                args.current, config.spec.n_time, config.spec.n_space
            )
        ]
    else:
        rng = np.random.default_rng(config.seed)
        currents = [
            absorber.random_current(lattice, rng) for _ in range(args.n_currents)
        ]
    if args.project:
        currents = [absorber.project_light_tight(c, lattice) for c in currents]

    free_residual = absorber.free_field_identity(currents, lattice)
    spectrum = absorber.emitted_spectrum(currents, lattice)
    parseval = absorber.spectrum_consistency_residual(currents, lattice, spectrum)
    light_tight = spectrum.total <= args.abs_tol

    out_dir = _ensure_out_dir(config)
    spectrum_path = out_dir / "spectrum.csv"
    spectrum.to_csv(spectrum_path)
    summary = {
        "total": spectrum.total,
        "n_modes": int(spectrum.energies.size),
        "light_tight": light_tight,
        "tolerance": float(args.abs_tol),
    }
    summary_path = out_dir / "absorber_summary.json"
    _write_json(summary_path, summary)

    print(f"free-field conversion residual = {free_residual:.6e}")
    print(f"mode-sum consistency residual = {parseval:.6e}")
    print(f"total emitted energy = {spectrum.total!r}")
    print(f"light-tight: {light_tight} (tolerance {args.abs_tol!r})")
    print(f"spectrum written to {spectrum_path}")
    print(f"summary written to {summary_path}")
    identity_tol = 1e-10
    return 0 if free_residual <= identity_tol and parseval <= identity_tol else 1


# --- parser -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    for key, text in _SHARED_FLAGS.items():
        default = _DEFAULTS[key]
        common.add_argument("--" + key.replace("_", "-"), type=type(default),
                            default=None, help=f"{text} (default {default})")
    common.add_argument("--tolerance", action="append", metavar="CHECK=VALUE",
                        default=None,
                        help="override one check tolerance (repeatable)")
    common.add_argument("--config", type=str, default=None,
                        help="key=value file supplying defaults for the above")

    parser = argparse.ArgumentParser(
        prog="boxqft",
        description="Discrete mode-sum kernels, truncated Fock checks, "
                    "spinor solutions, and current-current interaction sums.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("verify", parents=[common],
                   help="run every named identity check and write a report")

    kernel = sub.add_parser("kernel", parents=[common],
                            help="tabulate one kernel over a (t, x) grid")
    kernel.add_argument("--kind", required=True,
                        choices=[k.value for k in KernelKind])
    kernel.add_argument("--t", type=float, default=None, help="single time")
    kernel.add_argument("--t-range", type=str, default=None,
                        metavar="START:STOP:COUNT")
    kernel.add_argument("--x", type=float, default=None, help="single position")
    kernel.add_argument("--x-range", type=str, default=None,
                        metavar="START:STOP:COUNT")
    kernel.add_argument("--step-at-zero", action="store_true",
                        help="use the continuous t=0 extension for kernels "
                             "with a step factor instead of rejecting t=0")

    vev = sub.add_parser("fock-vev", parents=[common],
                         help="time-ordered vacuum expectations vs the "
                              "Feynman kernel")
    vev.add_argument("--n-pairs", type=int, default=20,
                     help="number of seeded point pairs (default 20)")
    vev.add_argument("--abs-tol", type=float, default=1e-10,
                     help="pass threshold on |vev - kernel| (default 1e-10)")

    dirac_cmd = sub.add_parser("dirac", parents=[common],
                               help="dump rest-frame and plane-wave spinor "
                                    "solutions")
    dirac_cmd.add_argument("--p", type=str, default="0.5,0,0",
                           metavar="PX,PY,PZ",
                           help="spatial momentum (default 0.5,0,0; "
                                "0,0,0 dumps the rest frame only)")

    absorber_cmd = sub.add_parser("absorber", parents=[common],
                                  help="emission spectrum and interaction "
                                       "identities for sampled currents")
    absorber_cmd.add_argument("--n-currents", type=int, default=3,
                              help="number of seeded random currents "
                                   "(default 3)")
    absorber_cmd.add_argument("--current", type=str, default=None,
                              metavar="CSV",
                              help="load one current from CSV "
                                   "(t_index,x_index,value) instead")
    absorber_cmd.add_argument("--project", action="store_true",
                              help="remove the on-shell content of each "
                                   "current before computing the spectrum")
    absorber_cmd.add_argument("--abs-tol", type=float, default=1e-10,
                              help="light-tight verdict threshold on the "
                                   "total emission (default 1e-10)")
    return parser


_RANGE_FLAGS = ("--t-range", "--x-range")


def _attach_range_values(argv: list[str]) -> list[str]:
    """Join ``--t-range START:STOP:COUNT`` into ``--t-range=START:STOP:COUNT``.

    argparse reads a spaced value with a negative start, such as
    ``-3:3:4``, as an unknown flag.  A range value always contains ``:``
    and a flag never does, so only such values are attached.
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _RANGE_FLAGS and ":" in arg:
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


_HANDLERS = {
    "verify": cmd_verify,
    "kernel": cmd_kernel,
    "fock-vev": cmd_fock_vev,
    "dirac": cmd_dirac,
    "absorber": cmd_absorber,
}


def _numerical_failures() -> tuple[type[Exception], ...]:
    """The errors that end a run with exit 1.  ARPACK's can only have been
    raised once scipy.sparse.linalg is loaded (by the Fock space, in
    verify and fock-vev), so it is looked up only then."""
    failures = (QuadratureError, dirac.DegenerateSolutionError)
    linalg = sys.modules.get("scipy.sparse.linalg")
    return failures if linalg is None else failures + (linalg.ArpackNoConvergence,)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(_attach_range_values(argv))
    try:
        config = build_run_config(args)
        return _HANDLERS[args.command](config, args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _numerical_failures() as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
