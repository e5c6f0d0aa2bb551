"""Command line entry point: config parsing, payload I/O, reports, subcommands.

The suites and their contracted cases live in ``suites``; this module reads
the configuration, runs the suites it names and writes their reports.
Reports carry no timestamps, so identical configurations produce
byte-identical output for any worker count.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

from . import fock_core as fc
from . import hardy_chi as hc
from . import hardy_w as hw
from . import operators as ops
from . import partitions as pt
from . import polycalc as pc
from . import semigroups as sg
from . import unitary_haar as uh
from .suites import (  # noqa: F401  (Case and TOLERANCE_NAMES are re-exported)
    SUITE_RUNNERS, TOLERANCE_NAMES, Case, RunConfig, run_suite,
)


def _parse_levels(text: str) -> tuple[int, ...]:
    levels = tuple(int(v) for v in text.split(","))
    if min(levels) < 1:
        raise ValueError(f"levels must be positive, got {text!r}")
    return levels


def _parse_tol(item: str) -> tuple[str, float]:
    name, sep, value = item.partition("=")
    if not sep or not name.strip():
        raise ValueError(f"expected name=value, got {item!r}")
    return name.strip(), float(value)


_CONFIG_PARSERS = {"seed": int, "samples": int, "margin": int, "workers": int,
                   "levels": _parse_levels, "variant": str, "out": str}


def load_config(path: str | None) -> RunConfig:
    """Flat key = value file; '#' starts a comment; unknown keys rejected.

    A malformed file raises one ``ValueError``.
    """
    cfg = RunConfig()
    if path is None:
        return cfg
    updates, tols = {}, {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line without '=': {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        parse = float if key.startswith("tol.") else _CONFIG_PARSERS.get(key)
        if parse is None:
            raise ValueError(f"unknown config key {key!r}")
        try:
            parsed = parse(value)
        except ValueError as exc:
            raise ValueError(f"config key {key!r}: {exc}") from None
        if key.startswith("tol."):
            tols[key[4:]] = parsed
        else:
            updates[key] = parsed
    return replace(cfg, **updates, tolerances=tuple(sorted(tols.items())))


def write_json(payload: dict, out) -> None:
    """Indented, key-sorted JSON to the path ``out``, or to stdout when it is empty."""
    text = json.dumps(payload, sort_keys=True, ensure_ascii=False, indent=1)
    if out:
        Path(out).write_text(text)
    else:
        print(text)


def write_csv(header: list, rows, out) -> None:
    """CSV rows under ``header`` to the path ``out``, or to stdout when it is empty."""
    with open(out, "w", newline="") if out else nullcontext(sys.stdout) as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def write_report(report: dict, out_dir: Path) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{report['suite']}.json"
    write_json(report, path)
    return path


NORM_STUDY_COLUMNS = ["level", "empirical", "stderr", "limit_value", "samples"]


def _norm_study_row(row: dict) -> list:
    return [row["level"], repr(row["empirical"]), repr(row["stderr"]),
            repr(row["limit_value"]), row["samples"]]


def write_norm_study_csv(report: dict, out_dir: Path) -> None:
    """One convergence CSV per studied key, one row per sampling level."""
    for index, study in enumerate(report.get("studies", [])):
        if "rows" not in study:
            continue
        key = study["id"].split(".")[-1]
        write_csv(
            ["key", *NORM_STUDY_COLUMNS],
            ([key, *_norm_study_row(row)] for row in study["rows"]),
            out_dir / f"norm_study_{index}.csv",
        )


def write_summary_csv(reports: list[dict], out_dir: Path) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "summary.csv"
    write_csv(
        ["suite", "case", "status", "residual", "tolerance"],
        ([report["suite"], case["id"], case["status"],
          repr(float(case["residual"])), repr(case["tolerance"])]
         for report in reports for case in report["cases"]),
        path,
    )
    return path


# -- other subcommands ---------------------------------------------------------

def cmd_dump_weights(args) -> int:
    rows = []
    for diagram in pt.all_diagrams(args.max_weight):
        rows.append([
            "(" + ",".join(str(p) for p in diagram.parts) + ")",
            str(pt.constant_c(diagram)), repr(float(pt.constant_c(diagram))),
            str(pt.h_norm_sq(diagram)), repr(float(pt.h_norm_sq(diagram))),
            str(pt.w_norm_sq(diagram)), repr(float(pt.w_norm_sq(diagram))),
        ])
    write_csv([
        "diagram", "constant", "constant_float",
        "plain_norm_sq", "plain_norm_sq_float",
        "weighted_norm_sq", "weighted_norm_sq_float",
    ], rows, args.out)
    return 0


def function_to_payload(f: hw.HardyWFunction) -> dict:
    return {"pairing": f.pairing, "fock": json.loads(fc.to_json(f.fock))}


class InputError(ValueError):
    """A malformed input file or argument; ``main`` reports it as one error line."""


def _parse_input(source: str, parse, *args, **kwargs):
    """``parse(*args, **kwargs)``, with a ``ValueError`` or an ``OSError`` (an
    unreadable file) turned into an ``InputError`` naming ``source``."""
    try:
        return parse(*args, **kwargs)
    except (ValueError, OSError) as exc:
        raise InputError(f"{source}: {exc}") from exc


def _read_payload(path: str, parse, *args):
    """``parse`` applied to the JSON document in ``path``, as an input."""
    return _parse_input(path, lambda: parse(json.loads(Path(path).read_text()), *args))


def _fock_field(payload, what: str) -> str:
    """The ``fock`` vector of a function payload, as JSON text for ``from_json``."""
    if not isinstance(payload, dict) or "fock" not in payload:
        raise ValueError(f"{what} payload must be a JSON object with a 'fock' field")
    return json.dumps(payload["fock"])


def function_from_payload(payload: dict) -> hw.HardyWFunction:
    fock = fc.from_json(_fock_field(payload, "function"))
    return hw.HardyWFunction(fock, payload.get("pairing", pc.TAYLOR))


def chi_to_payload(f: hc.HardyChiFunction) -> dict:
    return {"kind": "chi", "fock": json.loads(f.to_json())}


def chi_from_payload(payload: dict) -> hc.HardyChiFunction:
    return hc.HardyChiFunction.from_json(_fock_field(payload, "chi function"))


def _is_number_pair(item) -> bool:
    return (isinstance(item, list) and len(item) == 2
            and all(isinstance(v, (int, float)) for v in item))


def _parse_points(payload: dict, dim: int) -> list[fc.EVector]:
    if not isinstance(payload, dict) or "points" not in payload:
        raise ValueError("points payload must be a JSON object with a 'points' field")
    if not isinstance(payload["points"], list):
        raise ValueError("'points' must be a list of points")
    points = []
    for index, row in enumerate(payload["points"]):
        if not isinstance(row, list) or not all(map(_is_number_pair, row)):
            raise ValueError(f"point {index} must be a list of [re, im] number pairs")
        if len(row) != dim:
            raise ValueError("point dimension mismatch")
        points.append(fc.EVector(tuple(complex(re, im) for re, im in row)))
    return points


def cmd_eval(args) -> int:
    f = _read_payload(args.function, function_from_payload)
    points = _read_payload(args.points, _parse_points, f.spec.dim)
    values = [hw.evaluate(f, x) for x in points]
    payload = {
        "pairing": f.pairing,
        "values": [[v.real, v.imag] for v in values],
    }
    write_json(payload, args.out)
    return 0


def _require_at_least(least: int, counts: dict) -> None:
    """Reject a count below ``least`` as an input fault naming its source."""
    for source, value in counts.items():
        if value < least:
            raise InputError(f"{source}: must be >= {least}, got {value}")


def cmd_haar_test(args) -> int:
    _require_at_least(1, {"--m": args.m, "--samples": args.samples, "--workers": args.workers})
    _require_at_least(0, {"--seed": args.seed})
    report = uh.haar_moment_report(args.m, args.samples, args.seed, args.workers)
    report["pushforward"] = uh.pushforward_consistency(
        args.m, args.samples, args.seed, args.workers
    )
    write_json(report, args.out)
    moments = report["moments"] + report["pushforward"]["moments"]
    return 0 if all(abs(m["z"]) <= 4 for m in moments) else 1


def cmd_ftransform(args) -> int:
    """Monte Carlo transform per level against that level's exact value.

    ``point_value_exact`` is the w-readout value of the transform; a key of
    diagram length l takes it at level l.  Exits 1 when some |z| exceeds 4.
    """
    f = _read_payload(args.function, chi_from_payload)
    points = _read_payload(args.points, _parse_points, f.spec.dim)
    levels = _parse_input("--levels", _parse_levels, args.levels)
    _require_at_least(1, {"--samples": args.samples, "--workers": args.workers})
    _require_at_least(0, {"--seed": args.seed})
    if args.norm_study:
        key = _parse_input("--norm-study-key", pt.BasisKey.from_label, args.norm_study_key)
        if key.max_index() > min(levels):
            raise InputError(f"--norm-study-key: {key.label()} needs level >= {key.max_index()}")
    records = []
    worst = 0.0
    for x in points:
        needed = max(
            f.max_index(),
            max((i + 1 for i, c in enumerate(x.coords) if c != 0), default=1),
        )
        value = hw.evaluate(hc.f_transform(f, fc.GRAM_W), x)
        row = {"point_value_exact": [value.real, value.imag], "levels": []}
        for m in levels:
            if m < needed:
                row["levels"].append({"level": m, "skipped": "level below used indices"})
                continue
            est = hc.mc_f_transform(f, x, m, args.samples, args.seed, workers=args.workers)
            exact = hc.level_transform_exact(f, x, m)
            entry = est.as_dict()
            entry["exact_level_value"] = [exact.real, exact.imag]
            entry["z_vs_exact"] = est.z_against(exact)
            worst = max(worst, abs(entry["z_vs_exact"]))
            row["levels"].append(entry)
        records.append(row)
    payload = {"samples": args.samples, "seed": args.seed, "records": records}
    write_json(payload, args.out)
    if args.norm_study:
        rows = hc.norm_convergence_study(
            key, levels, args.samples, args.seed, workers=args.workers
        )
        write_csv(NORM_STUDY_COLUMNS, map(_norm_study_row, rows), args.norm_study)
    return 0 if worst <= 4 else 1


def _parse_direction(text: str, dim: int) -> fc.EVector:
    parts = [complex(chunk) for chunk in text.split(",")]
    if len(parts) != dim:
        raise ValueError("direction dimension mismatch")
    return fc.EVector(tuple(parts))


def _parse_r_schedule(text: str) -> list[float]:
    schedule = [float(v) for v in text.split(",")]
    if not all(0 < r < math.inf for r in schedule):
        raise ValueError(f"times must be positive and finite, got {text!r}")
    return schedule


def cmd_gw(args) -> int:
    _require_at_least(1, {"--nodes": args.nodes})
    f = _read_payload(args.function, function_from_payload)
    a = _parse_input("--direction", _parse_direction, args.direction, f.spec.dim)
    schedule = _parse_input("--r-schedule", _parse_r_schedule, args.r_schedule)
    rows = []
    for r in schedule:
        quad = sg.gw_mult(f, a, r, args.nodes)
        oracle = sg.gw_mult_oracle(f, a, r)
        shift_exact = sg.gw_shift(f, a, r)
        shift_quad = sg.gw_shift_quadrature(f, a, r, args.nodes)
        rows.append({
            "r": r,
            "mult_quadrature_vs_oracle": hw.residual(quad, oracle),
            "shift_expansion_vs_quadrature": hw.residual(shift_exact, shift_quad),
        })
    payload = {"nodes": args.nodes, "rows": rows}
    write_json(payload, args.out)
    return 0


def cmd_heisenberg(args) -> int:
    cfg = _parse_input(str(args.config), load_config, args.config)
    if args.seed is not None:
        cfg = _parse_input("--seed", replace, cfg, seed=args.seed)
    report = run_suite("heisenberg", cfg)
    write_json(report, args.out)
    return 0 if report["passed"] else 1


def cmd_run(args) -> int:
    cfg = _parse_input(str(args.config), load_config, args.config)
    overrides = {
        name: getattr(args, name)
        for name in ("seed", "samples", "variant", "workers", "out")
        if getattr(args, name) is not None
    }
    if args.levels is not None:
        overrides["levels"] = _parse_input("--levels", _parse_levels, args.levels)
    if args.tol:
        tols = dict(cfg.tolerances)
        tols.update(_parse_input("--tol", _parse_tol, item) for item in args.tol)
        overrides["tolerances"] = tuple(sorted(tols.items()))
    # RunConfig checks the seed, the counts and the names from --tol; each names its flag
    for name, value in overrides.items():
        flag = "--tol" if name == "tolerances" else f"--{name}"
        cfg = _parse_input(flag, replace, cfg, **{name: value})

    names = list(SUITE_RUNNERS) if args.suite == "all" else [args.suite]
    out_dir = Path(cfg.out)
    reports = []
    failed = []
    for name in names:
        report = run_suite(name, cfg)
        reports.append(report)
        path = write_report(report, out_dir)
        if name == "ftransform":
            write_norm_study_csv(report, out_dir)
        for case in report["cases"]:
            if case["status"] == "fail":
                failed.append(f"{name}:{case['id']}")
        print(f"{name}: {'ok' if report['passed'] else 'FAIL'} ({path})")
    write_summary_csv(reports, out_dir)
    if failed:
        print("failing cases: " + ", ".join(failed), file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="focklab", description="verification suites for the truncated Fock/Hardy laboratory"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dump-weights", help="emit the combinatorial weight table as CSV")
    p.add_argument("--max-weight", type=int, default=8)
    p.add_argument("--out")
    p.set_defaults(func=cmd_dump_weights)

    p = sub.add_parser("eval", help="evaluate a serialized function on points")
    p.add_argument("--function", required=True)
    p.add_argument("--points", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("haar-test", help="moment checks of the Haar sampler")
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--samples", type=int, default=200000)
    p.add_argument("--seed", type=int, default=20240801)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=cmd_haar_test)

    p = sub.add_parser("ftransform", help="exact vs Monte Carlo transform comparison")
    p.add_argument("--function", required=True)
    p.add_argument("--points", required=True)
    p.add_argument("--levels", default="1,2,4,8")
    p.add_argument("--samples", type=int, default=50000)
    p.add_argument("--seed", type=int, default=20240801)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--norm-study", help="CSV path for the norm convergence table")
    p.add_argument("--norm-study-key", default="λ=[1];ι=[1]")
    p.add_argument("--out")
    p.set_defaults(func=cmd_ftransform)

    p = sub.add_parser("gw", help="semigroup comparison table")
    p.add_argument("--function", required=True)
    p.add_argument("--direction", required=True, help="comma-separated complex coordinates")
    p.add_argument("--r-schedule", default="0.1,1.0")
    p.add_argument("--nodes", type=int, default=64)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gw)

    p = sub.add_parser("heisenberg", help="run the Heisenberg/Weyl suite")
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_heisenberg)

    p = sub.add_parser("run", help="run verification suites")
    p.add_argument("suite", choices=list(SUITE_RUNNERS) + ["all"])
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--levels")
    p.add_argument("--variant", choices=ops.VARIANTS)
    p.add_argument("--workers", type=int)
    p.add_argument("--tol", action="append", help="name=value tolerance override")
    p.add_argument("--out")
    p.set_defaults(func=cmd_run)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"focklab: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
