"""Command line surface: suites, reports, determinism plumbing, file formats."""

import dataclasses
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from focklab import cli, suites
from focklab import unitary_haar as uh
from focklab.fock_core import FockVector, TruncationSpec
from focklab.hardy_chi import HardyChiFunction
from focklab.hardy_w import HardyWFunction
from focklab.partitions import BasisKey

SPEC = TruncationSpec(4, 2)


def test_config_file_parsing(tmp_path):
    path = tmp_path / "cfg"
    path.write_text(
        "seed = 7  # the run's seed\n"
        "levels = 1,2\n"
        "tol.gw = 1e-7\n"
    )
    cfg = cli.load_config(str(path))
    assert cfg.seed == 7
    assert cfg.levels == (1, 2)
    assert cfg.tol("gw", 0.0) == 1e-7
    assert cfg.tol("moment", 0.25) == 0.25  # a listed name left unset keeps the site default


def test_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "cfg"
    path.write_text("mystery = 3\n")
    with pytest.raises(ValueError):
        cli.load_config(str(path))


def test_config_hash_ignores_out_and_workers():
    from dataclasses import replace

    base = cli.RunConfig()
    assert base.digest() == replace(base, out="elsewhere", workers=7).digest()
    assert base.digest() != replace(base, seed=1).digest()


def test_case_status():
    good = cli.Case("x", "s", 1e-12, 1e-10)
    bad = cli.Case("x", "s", 1e-8, 1e-10)
    assert good.status == "pass" and bad.status == "fail"


def test_weights_suite_and_report(tmp_path):
    cfg = cli.RunConfig(out=str(tmp_path))
    report = cli.run_suite("weights", cfg)
    assert report["passed"]
    assert report["config_hash"] == cfg.digest()
    path = cli.write_report(report, tmp_path)
    loaded = json.loads(path.read_text())
    assert loaded["suite"] == "weights"
    assert all(case["status"] == "pass" for case in loaded["cases"])


def test_function_payload_round_trip():
    f = HardyWFunction(
        FockVector(SPEC, {BasisKey.make((1,), (2,)): 1.5 - 0.5j}), "w"
    )
    payload = cli.function_to_payload(f)
    back = cli.function_from_payload(payload)
    assert back.pairing == "w"
    assert back.fock.coeffs == f.fock.coeffs
    chi = HardyChiFunction(SPEC, {BasisKey.vacuum(): 2.0})
    back_chi = cli.chi_from_payload(cli.chi_to_payload(chi))
    assert back_chi.coeffs == chi.coeffs


@given(st.dictionaries(
    st.lists(st.integers(0, 2), min_size=2, max_size=2).map(tuple).filter(lambda e: sum(e) <= 4),
    st.complex_numbers(allow_nan=False, allow_infinity=False),
    max_size=5,
))
def test_chi_payload_round_trip_keeps_type(coeffs):
    chi = HardyChiFunction(SPEC, {BasisKey.from_exponents(e): c for e, c in coeffs.items()})
    back = cli.chi_from_payload(json.loads(json.dumps(cli.chi_to_payload(chi))))
    assert type(back) is HardyChiFunction
    assert back.spec == chi.spec
    assert {k: complex(c) for k, c in back.coeffs.items()} == chi.coeffs


def test_pairing_is_not_a_knob(tmp_path):
    assert "pairing" not in {f.name for f in dataclasses.fields(cli.RunConfig)}
    path = tmp_path / "cfg"
    path.write_text("pairing = h\n")
    with pytest.raises(ValueError, match="unknown config key 'pairing'"):
        cli.load_config(str(path))
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["run", "weights", "--pairing", "h"])


def test_resolved_pairing_is_the_readout_that_ran():
    cfg = dataclasses.replace(cli.RunConfig(), variant="monomial", samples=4000)
    report = cli.run_suite("ftransform", cfg)
    assert report["resolved"] == {"pairing": "h", "variant": "monomial"}
    cases = {case["id"]: case for case in report["cases"]}
    assert "readout h" in cases["ftransform.intertwine_mult"]["statement"]
    assert report["passed"]


def test_dump_weights_cli(tmp_path):
    out = tmp_path / "weights.csv"
    rc = cli.main(["dump-weights", "--max-weight", "3", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("diagram,constant")
    assert any(line.startswith('"(2,1)",1/4,0.25') for line in lines)


def test_eval_cli(tmp_path):
    f = HardyWFunction(FockVector(SPEC, {BasisKey.make((1,), (1,)): 1.0}))
    fn = tmp_path / "fn.json"
    fn.write_text(json.dumps(cli.function_to_payload(f)))
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps({"points": [[[2.0, 0.0], [0.0, 0.0]]]}))
    out = tmp_path / "values.json"
    rc = cli.main(["eval", "--function", str(fn), "--points", str(pts), "--out", str(out)])
    assert rc == 0
    values = json.loads(out.read_text())["values"]
    assert values == [[2.0, 0.0]]


def test_eval_cli_rejects_payload_without_fock(tmp_path, capsys):
    fn = tmp_path / "fn.json"
    fn.write_text(json.dumps({"pairing": "w"}))
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps({"points": [[[2.0, 0.0], [0.0, 0.0]]]}))
    rc = cli.main(["eval", "--function", str(fn), "--points", str(pts)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("focklab: error: ") and "'fock'" in err
    assert err.count("\n") == 1


def test_eval_cli_rejects_points_payload_without_points(tmp_path, capsys):
    fn = tmp_path / "fn.json"
    fn.write_text(json.dumps(cli.function_to_payload(HardyWFunction(FockVector.vacuum(SPEC)))))
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps([[[2.0, 0.0], [0.0, 0.0]]]))
    assert cli.main(["eval", "--function", str(fn), "--points", str(pts)]) == 2
    assert "'points' field" in capsys.readouterr().err


def test_gw_cli_rejects_malformed_direction(tmp_path, capsys):
    fn = tmp_path / "fn.json"
    fn.write_text(json.dumps(cli.function_to_payload(HardyWFunction(FockVector.vacuum(SPEC)))))
    assert cli.main(["gw", "--function", str(fn), "--direction", "1.0"]) == 2
    assert capsys.readouterr().err == "focklab: error: --direction: direction dimension mismatch\n"


def test_internal_value_error_keeps_its_traceback(tmp_path, monkeypatch):
    fn = tmp_path / "fn.json"
    fn.write_text(json.dumps(cli.function_to_payload(HardyWFunction(FockVector.vacuum(SPEC)))))
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps({"points": [[[2.0, 0.0], [0.0, 0.0]]]}))

    def broken(f, x):
        raise ValueError("internal fault")

    monkeypatch.setattr(cli.hw, "evaluate", broken)
    with pytest.raises(ValueError, match="internal fault"):
        cli.main(["eval", "--function", str(fn), "--points", str(pts)])


@pytest.mark.parametrize("payload", [{"kind": "chi"}, [1, 2], "chi"])
def test_chi_payload_without_fock_names_the_field(payload):
    with pytest.raises(ValueError, match="'fock' field"):
        cli.chi_from_payload(payload)


def test_summary_csv_writes_numpy_residuals_as_plain_floats(tmp_path):
    reports = [{"suite": "s", "cases": [
        {"id": "s.a", "status": "pass", "residual": np.float64(1.5e-13), "tolerance": 1e-10},
    ]}]
    lines = cli.write_summary_csv(reports, tmp_path).read_text().splitlines()
    assert lines[1] == "s,s.a,pass,1.5e-13,1e-10"


def test_gw_cli(tmp_path):
    f = HardyWFunction(FockVector(SPEC, {BasisKey.make((2,), (1,)): 1.0}))
    fn = tmp_path / "fn.json"
    fn.write_text(json.dumps(cli.function_to_payload(f)))
    out = tmp_path / "gw.json"
    rc = cli.main([
        "gw", "--function", str(fn), "--direction", "1.0,0.0",
        "--r-schedule", "0.5", "--out", str(out),
    ])
    assert rc == 0
    rows = json.loads(out.read_text())["rows"]
    assert rows[0]["mult_quadrature_vs_oracle"] < 1e-10


def test_run_single_suite_cli(tmp_path):
    rc = cli.main(["run", "weights", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "weights.json").exists()
    assert (tmp_path / "summary.csv").exists()


def test_run_reports_are_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        rc = cli.main(["run", "fock", "--seed", "11", "--out", str(out)])
        assert rc == 0
    assert (a / "fock.json").read_bytes() == (b / "fock.json").read_bytes()


def test_haar_test_cli(tmp_path):
    out = tmp_path / "haar.json"
    rc = cli.main([
        "haar-test", "--m", "2", "--samples", "20000", "--seed", "5", "--out", str(out),
    ])
    assert rc == 0
    report = json.loads(out.read_text())
    assert {m["name"] for m in report["moments"]} >= {"abs_u11_sq", "abs_u11_quad"}


def test_ftransform_cli(tmp_path):
    chi = HardyChiFunction(SPEC, {BasisKey.vacuum(): 1.0})
    fn = tmp_path / "chi.json"
    fn.write_text(json.dumps(cli.chi_to_payload(chi)))
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps({"points": [[[0.5, 0.0], [0.0, 0.0]]]}))
    out = tmp_path / "ft.json"
    study = tmp_path / "norms.csv"
    rc = cli.main([
        "ftransform", "--function", str(fn), "--points", str(pts),
        "--levels", "1,2", "--samples", "5000", "--norm-study", str(study),
        "--out", str(out),
    ])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["records"][0]["point_value_exact"] == [pytest.approx(1.0), 0.0]
    assert study.read_text().startswith("level,")


def test_module_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "focklab.cli", "dump-weights", "--max-weight", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "diagram" in proc.stdout


def test_haar_and_ftransform_share_one_pool(fresh_pool, monkeypatch):
    sizes = []

    class CountingPool(uh.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sizes.append(kwargs["max_workers"])

    monkeypatch.setattr(uh, "ProcessPoolExecutor", CountingPool)
    cfg = dataclasses.replace(cli.RunConfig(), samples=8000, workers=3)
    cli.run_suite("haar", cfg)
    cli.run_suite("ftransform", cfg)
    assert sizes == [3]


# -- malformed run input, removed knobs, config round trip -------------------

def _one_error_line(capsys, argv) -> str:
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("focklab: error: ") and err.count("\n") == 1
    return err


def test_config_with_a_non_integer_value_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "cfg"
    path.write_text("seed = x\n")
    err = _one_error_line(capsys, ["run", "weights", "--config", str(path)])
    assert "'seed'" in err


@pytest.mark.parametrize("command", ["run weights", "heisenberg"])
def test_missing_config_file_is_one_error_line(tmp_path, capsys, command):
    missing = str(tmp_path / "absent.cfg")
    err = _one_error_line(capsys, [*command.split(), "--config", missing])
    assert missing in err


def test_malformed_tol_is_one_error_line(capsys):
    err = _one_error_line(capsys, ["run", "weights", "--tol", "foo"])
    assert "--tol" in err and "name=value" in err


def test_tolerance_names_are_pinned():
    # the names users may override; dropping one from CASES must be deliberate
    assert cli.TOLERANCE_NAMES == {
        "annihilation", "chain", "coherent", "commutator", "conjugation", "contractivity",
        "finite_difference", "group", "growth", "gw", "gw_zero", "hs", "intertwine", "isometry",
        "kernel", "leibniz", "moment", "pointwise", "polarization", "product", "quat", "route",
        "unitarity", "weyl", "weyl_group", "witness",
    }


def test_tolerance_spelling_does_not_change_the_config_hash(tmp_path):
    # reordered entries and a repeated name (the last one wins) are one config
    spellings = [(("gw", 2.0), ("moment", 1.0)), (("moment", 1.0), ("gw", 2.0)),
                 (("gw", 1.0), ("gw", 2.0), ("moment", 1.0))]
    configs = [cli.RunConfig(tolerances=t) for t in spellings]
    assert {cfg.tolerances for cfg in configs} == {(("gw", 2.0), ("moment", 1.0))}
    assert {cfg.digest() for cfg in configs} == {configs[0].digest()}
    path = tmp_path / "cfg"
    path.write_text("tol.moment = 1.0\ntol.gw = 2.0\n")
    assert cli.load_config(str(path)).digest() == configs[0].digest()


def test_python_dash_m_focklab_runs_the_cli():
    proc = subprocess.run([sys.executable, "-m", "focklab", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: focklab")


def test_run_config_rejects_an_unknown_tolerance_name():
    with pytest.raises(ValueError, match="unknown tolerance 'nothing'"):
        cli.RunConfig(tolerances=(("nothing", 1.0),))


@pytest.mark.parametrize("change", ["drop", "add"])
def test_run_suite_requires_exactly_the_declared_cases(monkeypatch, change):
    def weights(cfg):
        residuals, studies = suites.suite_weights(cfg)
        if change == "drop":
            del residuals["weights.spot"]
        else:
            residuals["weights.extra"] = 0.0
        return residuals, studies

    monkeypatch.setitem(suites.SUITE_RUNNERS, "weights", weights)
    with pytest.raises(RuntimeError, match="weights.spot" if change == "drop" else "weights.extra"):
        cli.run_suite("weights", cli.RunConfig())


def test_unknown_tol_override_is_one_error_line(tmp_path, capsys):
    argv = ["run", "weights", "--tol", "weightz=5", "--out", str(tmp_path)]
    assert _one_error_line(capsys, argv) == "focklab: error: --tol: unknown tolerance 'weightz'\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("line", ["tol.nothing = 1", "tol. = 3"])
def test_unknown_tol_config_key_is_one_error_line(tmp_path, capsys, line):
    path = tmp_path / "cfg"
    path.write_text(line + "\n")
    out = tmp_path / "out"
    err = _one_error_line(capsys, ["run", "weights", "--config", str(path), "--out", str(out)])
    assert "unknown tolerance" in err and not out.exists()


def test_run_config_refuses_an_unlisted_tolerance():
    with pytest.raises(ValueError, match="unknown tolerance 'other'"):
        cli.RunConfig().tol("other", 1.0)


def test_malformed_levels_is_one_error_line(capsys):
    assert "--levels" in _one_error_line(capsys, ["run", "weights", "--levels", "a"])


@pytest.mark.parametrize("line", ["max_degree = 5", "dim = 3"])
def test_workspace_config_keys_are_rejected(tmp_path, line):
    path = tmp_path / "cfg"
    path.write_text(line + "\n")
    with pytest.raises(ValueError, match="unknown config key"):
        cli.load_config(str(path))


def test_trunc_knob_is_gone(tmp_path, capsys):
    with pytest.raises(SystemExit):
        cli.main(["run", "weights", "--trunc", "5,3", "--out", str(tmp_path)])
    assert "--trunc" in capsys.readouterr().err
    assert {"max_degree", "dim"}.isdisjoint(cli.RunConfig().report_fields())


_NAME = st.sampled_from(sorted(cli.TOLERANCE_NAMES))


@given(
    seed=st.integers(0, 2**63),
    samples=st.integers(1, 10**9),
    margin=st.integers(0, 64),
    workers=st.integers(1, 64),
    levels=st.lists(st.integers(1, 64), min_size=1, max_size=6).map(tuple),
    variant=st.sampled_from(cli.ops.VARIANTS),
    out=st.from_regex(r"[A-Za-z0-9_./-]{1,20}", fullmatch=True),
    tols=st.dictionaries(_NAME, st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
                         max_size=4),
)
def test_config_file_round_trip(tmp_path_factory, seed, samples, margin, workers, levels,
                                variant, out, tols):
    cfg = cli.RunConfig(seed=seed, samples=samples, levels=levels, variant=variant,
                        margin=margin, workers=workers, out=out,
                        tolerances=tuple(sorted(tols.items())))
    lines = [f"seed = {seed}", f"samples = {samples}", f"margin = {margin}",
             f"workers = {workers}", "levels = " + ",".join(map(str, levels)),
             f"variant = {variant}", f"out = {out}"]
    lines += [f"tol.{name} = {value!r}" for name, value in tols.items()]
    path = tmp_path_factory.mktemp("cfg") / "run.cfg"
    path.write_text("\n".join(lines) + "\n")
    assert cli.load_config(str(path)) == cfg


# -- ftransform: every level against its own exact value ----------------------

X_U1 = 0.6 - 0.35j


def _u1_ftransform(tmp_path, levels="1,2,4,8", samples="5000"):
    chi = HardyChiFunction(SPEC, {BasisKey.make((1,), (1,)): 1.0})
    fn = tmp_path / "u1.json"
    fn.write_text(json.dumps(cli.chi_to_payload(chi)))
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps({"points": [[[X_U1.real, X_U1.imag], [0.0, 0.0]]]}))
    out = tmp_path / "ft.json"
    rc = cli.main(["ftransform", "--function", str(fn), "--points", str(pts), "--levels", levels,
                   "--samples", samples, "--seed", "3", "--out", str(out)])
    return rc, json.loads(out.read_text())["records"][0]


def test_ftransform_cli_compares_each_level_with_its_exact_value(tmp_path):
    rc, record = _u1_ftransform(tmp_path)
    assert rc == 0
    # the w-readout value is the transform at the key's own level, here 1
    assert record["point_value_exact"] == [pytest.approx(0.6), pytest.approx(-0.35)]
    assert [entry["level"] for entry in record["levels"]] == [1, 2, 4, 8]
    for entry in record["levels"]:
        # u_1 at level m: x_1 (m-1)!/m! = x_1/m
        m = entry["level"]
        assert entry["exact_level_value"] == [pytest.approx(0.6 / m), pytest.approx(-0.35 / m)]
        assert abs(entry["z_vs_exact"]) <= 4


def test_ftransform_cli_exits_1_when_a_level_misses(tmp_path, monkeypatch):
    monkeypatch.setattr(cli.hc, "level_transform_exact", lambda f, x, m: 1.0 + 0j)
    rc, record = _u1_ftransform(tmp_path, levels="2", samples="2000")
    assert rc == 1 and abs(record["levels"][0]["z_vs_exact"]) > 4


def test_ftransform_cli_rejects_malformed_levels(tmp_path, capsys):
    chi = HardyChiFunction(SPEC, {BasisKey.vacuum(): 1.0})
    fn = tmp_path / "chi.json"
    fn.write_text(json.dumps(cli.chi_to_payload(chi)))
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps({"points": [[[0.5, 0.0], [0.0, 0.0]]]}))
    argv = ["ftransform", "--function", str(fn), "--points", str(pts), "--levels", "1,x"]
    assert "--levels" in _one_error_line(capsys, argv)


# -- count and schedule arguments are checked before any work ------------------

@pytest.mark.parametrize("schedule", ["x", "0", "0.5,-1", "nan"])
def test_gw_cli_rejects_malformed_r_schedule(tmp_path, capsys, schedule):
    fn = tmp_path / "fn.json"
    fn.write_text(json.dumps(cli.function_to_payload(HardyWFunction(FockVector.vacuum(SPEC)))))
    argv = ["gw", "--function", str(fn), "--direction", "1.0,0.0", "--r-schedule", schedule]
    assert _one_error_line(capsys, argv).startswith("focklab: error: --r-schedule: ")


@pytest.mark.parametrize("nodes", ["0", "-3"])
def test_gw_cli_rejects_nodes_below_one(tmp_path, capsys, monkeypatch, nodes):
    fn = tmp_path / "fn.json"
    fn.write_text(json.dumps(cli.function_to_payload(HardyWFunction(FockVector.vacuum(SPEC)))))
    monkeypatch.setattr(cli.sg, "gw_mult", None)  # never reached
    out = tmp_path / "gw.json"
    argv = ["gw", "--function", str(fn), "--direction", "1.0,0.0", "--nodes", nodes,
            "--out", str(out)]
    assert _one_error_line(capsys, argv) == f"focklab: error: --nodes: must be >= 1, got {nodes}\n"
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--m", "--samples", "--workers"])
def test_haar_test_cli_rejects_counts_below_one(capsys, monkeypatch, flag):
    monkeypatch.setattr(cli.uh, "haar_moment_report", None)  # never reached
    err = _one_error_line(capsys, ["haar-test", flag, "0"])
    assert err == f"focklab: error: {flag}: must be >= 1, got 0\n"


def test_run_rejects_an_empty_sample_budget(tmp_path, capsys):
    err = _one_error_line(capsys, ["run", "weights", "--samples", "0", "--out", str(tmp_path)])
    assert err == "focklab: error: --samples: samples must be >= 1, got 0\n"
    assert not list(tmp_path.iterdir())


def test_run_rejects_no_workers(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_suite", None)  # never reached
    err = _one_error_line(capsys, ["run", "weights", "--workers", "0", "--out", str(tmp_path)])
    assert err == "focklab: error: --workers: workers must be >= 1, got 0\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("name", ["samples", "workers"])
def test_run_config_rejects_a_count_below_one(name):
    with pytest.raises(ValueError, match=f"{name} must be >= 1, got 0"):
        cli.RunConfig(**{name: 0})


@pytest.mark.parametrize("command", ["run", "heisenberg"])
@pytest.mark.parametrize("name", ["samples", "workers"])
def test_a_count_below_one_in_a_config_file_is_one_error_line(tmp_path, capsys, monkeypatch,
                                                              command, name):
    # the error line used to read "samples: ..." from run, naming neither the
    # file nor a flag, and heisenberg ran its suite
    monkeypatch.setattr(cli, "run_suite", None)  # never reached
    path = tmp_path / "cfg"
    path.write_text(f"{name} = 0\n")
    argv = [command] + (["weights"] if command == "run" else []) + ["--config", str(path)]
    err = _one_error_line(capsys, argv + ["--out", str(tmp_path / "out")])
    assert err == f"focklab: error: {path}: {name} must be >= 1, got 0\n"
    assert not (tmp_path / "out").exists()


def test_run_config_rejects_a_negative_margin():
    with pytest.raises(ValueError, match="margin must be >= 0, got -1"):
        cli.RunConfig(margin=-1)


@pytest.mark.parametrize("command", ["run", "heisenberg"])
@pytest.mark.parametrize("margin", [-3, -8])
def test_a_negative_margin_in_a_config_file_is_one_error_line(tmp_path, capsys, monkeypatch,
                                                              command, margin):
    # -3 used to run unwidened flows and fail three identities, -8 to end in a
    # traceback from the hardy suite
    monkeypatch.setattr(cli, "run_suite", None)  # never reached
    path = tmp_path / "cfg"
    path.write_text(f"margin = {margin}\n")
    argv = [command] + (["heisenberg"] if command == "run" else []) + ["--config", str(path)]
    err = _one_error_line(capsys, argv + ["--out", str(tmp_path / "out")])
    assert err == f"focklab: error: {path}: margin must be >= 0, got {margin}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0])
def test_run_config_rejects_a_tolerance_below_zero_or_not_finite(value):
    with pytest.raises(ValueError, match=f"tolerance 'gw' must be finite and >= 0, got {value}"):
        cli.RunConfig(tolerances=(("gw", value),))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1"])
def test_a_tol_override_below_zero_or_not_finite_is_one_error_line(tmp_path, capsys,
                                                                    monkeypatch, value):
    # nan used to fail five gw cases and write "tolerance": NaN, which is not JSON
    monkeypatch.setattr(cli, "run_suite", None)  # never reached
    argv = ["run", "gw", "--tol", f"gw={value}", "--out", str(tmp_path / "out")]
    err = _one_error_line(capsys, argv)
    assert err == f"focklab: error: --tol: tolerance 'gw' must be finite and >= 0, got {float(value)}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "heisenberg"])
@pytest.mark.parametrize("value", ["nan", "-inf", "-1e-3"])
def test_a_config_tolerance_below_zero_or_not_finite_is_one_error_line(tmp_path, capsys,
                                                                       monkeypatch, command,
                                                                       value):
    monkeypatch.setattr(cli, "run_suite", None)  # never reached
    path = tmp_path / "cfg"
    path.write_text(f"tol.weyl = {value}\n")
    argv = [command] + (["heisenberg"] if command == "run" else []) + ["--config", str(path)]
    err = _one_error_line(capsys, argv + ["--out", str(tmp_path / "out")])
    assert err == f"focklab: error: {path}: tolerance 'weyl' must be finite and >= 0, got {float(value)}\n"
    assert not (tmp_path / "out").exists()


def test_run_config_rejects_an_unknown_variant():
    with pytest.raises(ValueError, match="variant must be one of .*, got 'foo'"):
        cli.RunConfig(variant="foo")


@pytest.mark.parametrize("command", ["run", "heisenberg"])
def test_an_unknown_variant_in_a_config_file_is_one_error_line(tmp_path, capsys, monkeypatch,
                                                               command):
    # used to run eight suites, then end in a traceback from ftransform with
    # no summary.csv written
    monkeypatch.setattr(cli, "run_suite", None)  # never reached
    path = tmp_path / "cfg"
    path.write_text("variant = foo\n")
    argv = [command] + (["all"] if command == "run" else []) + ["--config", str(path)]
    err = _one_error_line(capsys, argv + ["--out", str(tmp_path / "out")])
    assert err.startswith(f"focklab: error: {path}: variant must be one of ")
    assert not (tmp_path / "out").exists()


def test_run_config_rejects_a_negative_seed():
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        cli.RunConfig(seed=-1)


@pytest.mark.parametrize("command", ["run", "heisenberg", "haar-test", "ftransform"])
def test_a_negative_seed_flag_is_one_error_line(tmp_path, capsys, monkeypatch, command):
    # run all used to write weights.json and then end in a traceback from
    # SeedSequence, as the other three did before any output
    monkeypatch.setattr(cli, "run_suite", None)  # never reached
    monkeypatch.setattr(cli.uh, "haar_moment_report", None)
    monkeypatch.setattr(cli.hc, "mc_f_transform", None)
    fn, pts = tmp_path / "fn.json", tmp_path / "pts.json"
    fn.write_text(json.dumps(cli.chi_to_payload(HardyChiFunction(SPEC, {BasisKey.vacuum(): 1.0}))))
    pts.write_text(json.dumps({"points": [[[0.5, 0.0], [0.0, 0.0]]]}))
    argv = {"run": ["run", "all"], "heisenberg": ["heisenberg"], "haar-test": ["haar-test"],
            "ftransform": ["ftransform", "--function", str(fn), "--points", str(pts)]}[command]
    out = tmp_path / "out"
    err = _one_error_line(capsys, argv + ["--seed", "-1", "--out", str(out)])
    assert err.startswith("focklab: error: --seed: ") and err.endswith("must be >= 0, got -1\n")
    assert not out.exists()


@pytest.mark.parametrize("lines, flags, seed", [
    ("", [], 20240801), ("seed = 5\n", [], 5), ("seed = 5\n", ["--seed", "7"], 7)],
    ids=["default", "file", "flag"])
def test_heisenberg_takes_the_seed_of_its_config_file(tmp_path, monkeypatch, lines, flags, seed):
    # the --seed default used to override the file, so "seed = 5" ran at 20240801
    seen = []
    monkeypatch.setattr(cli, "run_suite",
                        lambda name, cfg: seen.append(cfg) or {"passed": True})
    path = tmp_path / "cfg"
    path.write_text(lines)
    assert cli.main(["heisenberg", "--config", str(path), *flags,
                     "--out", str(tmp_path / "heisenberg.json")]) == 0
    assert [cfg.seed for cfg in seen] == [seed]


@pytest.mark.parametrize("command", ["run", "heisenberg"])
def test_a_negative_seed_in_a_config_file_is_one_error_line(tmp_path, capsys, monkeypatch,
                                                            command):
    monkeypatch.setattr(cli, "run_suite", None)  # never reached
    path = tmp_path / "cfg"
    path.write_text("seed = -5\n")
    argv = [command] + (["all"] if command == "run" else []) + ["--config", str(path)]
    err = _one_error_line(capsys, argv + ["--out", str(tmp_path / "out")])
    assert err == f"focklab: error: {path}: seed must be >= 0, got -5\n"
    assert not (tmp_path / "out").exists()


MALFORMED_POINTS = [5, None, [[1, 2]], [[["a", 1], [0, 0]]], [None]]


@pytest.mark.parametrize("command", ["eval", "ftransform"])
@pytest.mark.parametrize("points", MALFORMED_POINTS, ids=json.dumps)
def test_malformed_points_are_one_error_line(tmp_path, capsys, monkeypatch, command, points):
    if command == "eval":
        payload = cli.function_to_payload(HardyWFunction(FockVector.vacuum(SPEC)))
        monkeypatch.setattr(cli.hw, "evaluate", None)  # never reached
    else:
        payload = cli.chi_to_payload(HardyChiFunction(SPEC, {BasisKey.vacuum(): 1.0}))
        monkeypatch.setattr(cli.hc, "mc_f_transform", None)  # never reached
    fn = tmp_path / "fn.json"
    fn.write_text(json.dumps(payload))
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps({"points": points}))
    out = tmp_path / "out.json"
    argv = [command, "--function", str(fn), "--points", str(pts), "--out", str(out)]
    assert _one_error_line(capsys, argv).startswith(f"focklab: error: {pts}: ")
    assert not out.exists()


@pytest.mark.parametrize("label", ["garbage", "λ=[1];ι=[2]"])
def test_ftransform_cli_checks_the_norm_study_key_before_sampling(tmp_path, capsys, monkeypatch,
                                                                   label):
    chi = HardyChiFunction(SPEC, {BasisKey.vacuum(): 1.0})
    fn = tmp_path / "chi.json"
    fn.write_text(json.dumps(cli.chi_to_payload(chi)))
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps({"points": [[[0.5, 0.0], [0.0, 0.0]]]}))
    monkeypatch.setattr(cli.hc, "mc_f_transform", None)  # never reached
    out = tmp_path / "ft.json"
    argv = ["ftransform", "--function", str(fn), "--points", str(pts), "--levels", "1,2",
            "--norm-study", str(tmp_path / "norms.csv"), "--norm-study-key", label,
            "--out", str(out)]
    assert _one_error_line(capsys, argv).startswith("focklab: error: --norm-study-key: ")
    assert not out.exists()


# -- haar.reproducibility compares every estimated number ---------------------

@pytest.mark.parametrize("change", [None, "stderr", "branch_events", "worst_defect"])
def test_reproducibility_case_compares_stderrs_and_diagnostics(monkeypatch, change):
    estimates, diagnostics = uh.sample_moments(2, 64, 5)
    many = {name: dataclasses.replace(est) for name, est in estimates.items()}
    many_diagnostics = dict(diagnostics)
    if change == "stderr":
        name = uh.MOMENT_NAMES[-1]
        many[name] = dataclasses.replace(many[name], stderr=np.nextafter(many[name].stderr, 1.0))
    elif change is not None:
        many_diagnostics[change] += 1

    def sample_moments(m, samples, seed, workers=1):
        return (estimates, diagnostics) if workers == 1 else (many, many_diagnostics)

    monkeypatch.setattr(cli.uh, "sample_moments", sample_moments)
    cfg = cli.RunConfig()
    case = suites.declared_case("haar.reproducibility", suites._reproducibility_residual(cfg), cfg)
    assert case.status == ("pass" if change is None else "fail")
    assert (case.residual == 0.0) == (change is None)


# -- haar.chain_consistency checks the chain against the batch projection ----

@pytest.mark.parametrize("faulty", [False, True])
def test_chain_consistency_sees_a_fault_in_the_livsic_projection(monkeypatch, faulty):
    # the case used to compare level(k) with livsic_project(level(k + 1)),
    # which is how level(k) is built, so a sign fault still read 0.0
    def livsic_project(u):
        m = u.shape[0] - 1
        return u[:m, :m] + (u[:m, m:] @ u[m:, :m]) / (1.0 + u[m, m])

    if faulty:
        monkeypatch.setattr(uh, "livsic_project", livsic_project)
    monkeypatch.setattr(suites, "_reproducibility_residual", lambda cfg: 0.0)
    residuals, _ = suites.suite_haar(cli.RunConfig(samples=200))
    residual = residuals["haar.chain_consistency"]
    assert (residual > 1.0) if faulty else (residual == 0.0)
