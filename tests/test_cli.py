import json
import os
import subprocess
import sys

import numpy as np
import pytest

from lcsdyn import cli

FINITE_SYSTEM = {
    "space": {"kind": "finite", "size": 3},
    "map": {"type": "permutation", "table": [1, 0, 2]},
    "factor": [0, 4, 1],
}

CONST_SYSTEM = {
    "space": {"kind": "circle", "grid_resolution": 128},
    "map": {"type": "rotation", "angle": 0.5},
    "factor": {"type": "constant", "value": 0.2},
}

TORUS_SYSTEM = {
    "space": {"kind": "torus2", "grid_resolution": 8},
    "map": {"type": "torus_linear", "matrix": [[2, 1], [1, 1]]},
    "factor": {"type": "trig2", "terms": [[1, 0, 0.4, 0.0]]},
}

STRICT_SYSTEM = {
    "space": {"kind": "circle", "grid_resolution": 256},
    "map": {"type": "rotation", "angle": "golden"},
    "factor": {"type": "coboundary", "f": {"type": "trig", "sin": [[1, 1.0]]}},
}


def write_config(tmp_path, name, **data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def run_cli(args):
    return cli.main(args)


def load_report(out_dir):
    with open(os.path.join(out_dir, "report.json")) as fh:
        return json.load(fh)


def payload_bytes(report):
    return json.dumps(report["payload"], sort_keys=True).encode()


def test_admissible_constant(tmp_path):
    cfg = write_config(tmp_path, "c.json", command="admissible",
                       system=CONST_SYSTEM, n_max=30, k_range=[0.0, 1.0, 0.5])
    out = str(tmp_path / "run")
    assert run_cli(["--config", cfg, "--out", out]) == 0
    rep = load_report(out)
    adm = rep["payload"]["admissible_set"]
    assert adm["gap"][0] == pytest.approx(0.2, abs=1e-9)
    assert adm["gap"][1] == pytest.approx(0.2, abs=1e-9)
    assert adm["excludes_zero"] is True
    verdicts = {c["k"]: c["verdict"] for c in rep["payload"]["classifications"]}
    assert verdicts[0.0] == "excluded_zero"
    assert verdicts[1.0] == "admissible"


def test_admissible_finite_gap(tmp_path):
    cfg = write_config(tmp_path, "f.json", command="admissible",
                       system=FINITE_SYSTEM, n_max=6)
    out = str(tmp_path / "run")
    assert run_cli(["--config", cfg, "--out", out]) == 0
    rep = load_report(out)
    adm = rep["payload"]["admissible_set"]
    assert adm["gap"] == ["1", "2"]
    assert adm["rays"] == [["-inf", "1"], ["2", "+inf"]]
    assert adm["exact"] is True


def test_cross_command_gap_consistency(tmp_path):
    adm_cfg = write_config(tmp_path, "a.json", command="admissible",
                           system=FINITE_SYSTEM, n_max=6)
    opt_cfg = write_config(tmp_path, "o.json", command="optimize",
                           system=FINITE_SYSTEM, n_max=6)
    out_a, out_o = str(tmp_path / "a"), str(tmp_path / "o")
    assert run_cli(["--config", adm_cfg, "--out", out_a]) == 0
    assert run_cli(["--config", opt_cfg, "--out", out_o]) == 0
    gap_a = load_report(out_a)["payload"]["admissible_set"]["gap"]
    gap_o = load_report(out_o)["payload"]["gap"]
    assert gap_a == gap_o == ["1", "2"]


def test_rank_command(tmp_path):
    cfg = write_config(tmp_path, "r.json", command="rank",
                       params={"generators": ["1", "s"]})
    out = str(tmp_path / "run")
    assert run_cli(["--config", cfg, "--out", out]) == 0
    assert load_report(out)["payload"]["rank"] == 2


def test_probe_files_and_phase(tmp_path):
    cfg = write_config(tmp_path, "p.json", command="probe", system=STRICT_SYSTEM,
                       n_max=500, k=0.5)
    out = str(tmp_path / "run")
    assert run_cli(["--config", cfg, "--out", out]) == 0
    rep = load_report(out)
    assert rep["payload"]["reports"][0]["verdict"] == "EscapeCertified"
    assert os.path.exists(os.path.join(out, "phase.csv"))
    assert os.path.exists(os.path.join(out, "trace.csv"))
    assert any("evidence" in w for w in rep["warnings"])


def test_determinism_byte_identical(tmp_path):
    # two fresh runs (separate caches) must agree byte for byte on payload
    reports = []
    for tag in ("x", "y"):
        cfg = write_config(tmp_path, f"{tag}.json", command="analyze",
                           system=STRICT_SYSTEM, n_max=100, seed=7)
        out = str(tmp_path / tag)
        assert run_cli(["--config", cfg, "--out", out]) == 0
        reports.append(load_report(out))
    assert payload_bytes(reports[0]) == payload_bytes(reports[1])
    assert reports[0]["provenance"]["cache_hit"] is False


def test_cache_hit_and_miss(tmp_path):
    cfg = write_config(tmp_path, "c.json", command="admissible",
                       system=FINITE_SYSTEM, n_max=6)
    out = str(tmp_path / "run")
    assert run_cli(["--config", cfg, "--out", out]) == 0
    first = load_report(out)
    assert run_cli(["--config", cfg, "--out", out]) == 0
    second = load_report(out)
    assert second["provenance"]["cache_hit"] is True
    assert payload_bytes(first) == payload_bytes(second)
    # changed n_max is a different key
    cfg2 = write_config(tmp_path, "c2.json", command="admissible",
                        system=FINITE_SYSTEM, n_max=7)
    assert run_cli(["--config", cfg2, "--out", out]) == 0
    assert load_report(out)["provenance"]["cache_hit"] is False


def test_cache_key_includes_version(tmp_path, monkeypatch):
    # a result cached by one version of the code is not served to another
    cfg = write_config(tmp_path, "v.json", command="admissible",
                       system=FINITE_SYSTEM, n_max=6)
    out = str(tmp_path / "run")
    assert run_cli(["--config", cfg, "--out", out]) == 0
    assert load_report(out)["provenance"]["cache_hit"] is False
    monkeypatch.setattr(cli, "__version__", cli.__version__ + ".post1")
    assert run_cli(["--config", cfg, "--out", out]) == 0
    assert load_report(out)["provenance"]["cache_hit"] is False
    assert run_cli(["--config", cfg, "--out", out]) == 0
    assert load_report(out)["provenance"]["cache_hit"] is True


def test_cache_corrupt_entry(tmp_path):
    cfg = write_config(tmp_path, "c.json", command="rank",
                       params={"generators": ["1"]})
    out = str(tmp_path / "run")
    assert run_cli(["--config", cfg, "--out", out]) == 0
    cache_dir = os.path.join(out, ".cache")
    entry = os.path.join(cache_dir, os.listdir(cache_dir)[0])
    with open(entry, "w") as fh:
        fh.write("{ not json")
    assert run_cli(["--config", cfg, "--out", out]) == 0
    rep = load_report(out)
    assert rep["provenance"]["cache_hit"] is False
    assert any("corrupt" in w for w in rep["warnings"])
    assert rep["payload"]["rank"] == 1


def test_cache_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("CACHE_DIR", str(tmp_path / "shared_cache"))
    cfg = write_config(tmp_path, "c.json", command="rank",
                       params={"generators": ["s"]})
    assert run_cli(["--config", cfg, "--out", str(tmp_path / "r1")]) == 0
    assert run_cli(["--config", cfg, "--out", str(tmp_path / "r2")]) == 0
    rep = load_report(str(tmp_path / "r2"))
    assert rep["provenance"]["cache_hit"] is True
    assert os.path.isdir(tmp_path / "shared_cache")


def test_validation_exit_code(tmp_path):
    cfg = write_config(tmp_path, "bad.json", command="competition")
    assert run_cli(["--config", cfg, "--out", str(tmp_path / "r")]) == 2
    # probe without k
    cfg2 = write_config(tmp_path, "p.json", command="probe", system=CONST_SYSTEM)
    assert run_cli(["--config", cfg2, "--out", str(tmp_path / "r2")]) == 2
    # bad permutation
    bad_sys = dict(FINITE_SYSTEM, map={"type": "permutation", "table": [0, 0, 1]})
    cfg3 = write_config(tmp_path, "b.json", command="admissible", system=bad_sys)
    assert run_cli(["--config", cfg3, "--out", str(tmp_path / "r3")]) == 2


def test_not_found_exit_code(tmp_path):
    cfg = write_config(tmp_path, "nf.json", command="construct",
                       system=CONST_SYSTEM, k=0.2)
    assert run_cli(["--config", cfg, "--out", str(tmp_path / "r")]) == 3


def test_strict_verdict_exit_code(tmp_path):
    identity_sys = {
        "space": {"kind": "circle", "grid_resolution": 64},
        "map": {"type": "rotation", "angle": 0.0},
        "factor": {"type": "trig", "cos": [[1, 1.0]]},
    }
    cfg = write_config(tmp_path, "inc.json", command="probe", system=identity_sys,
                       n_max=50, k=0.3, params={"starts": [0.0, 0.3]})
    out = str(tmp_path / "r")
    assert run_cli(["--config", cfg, "--out", out]) == 0
    out2 = str(tmp_path / "r2")
    assert run_cli(["--config", cfg, "--out", out2, "--strict-verdict"]) == 4


def test_construct_command(tmp_path):
    cfg = write_config(tmp_path, "g.json", command="construct", system=CONST_SYSTEM,
                       k=1.0, params={"t_window": [-8, 8]})
    out = str(tmp_path / "r")
    assert run_cli(["--config", cfg, "--out", out]) == 0
    pay = load_report(out)["payload"]
    assert pay["g_residual"] <= 1e-9
    assert pay["mu_residual"] <= 1e-7
    assert pay["slope_margin"] > 0


def test_elasticity_command_from_system(tmp_path):
    cfg = write_config(tmp_path, "e.json", command="elasticity", system=CONST_SYSTEM,
                       k=1.0)
    out = str(tmp_path / "r")
    assert run_cli(["--config", cfg, "--out", out]) == 0
    pay = load_report(out)["payload"]
    assert pay["elasticity"]["equality"] is True
    assert pay["elasticity"]["forbidden"][0][0] == pytest.approx(0.0, abs=1e-9)


def test_elasticity_command_from_csv(tmp_path):
    prof = tmp_path / "prof.csv"
    prof.write_text("u\n-1.0\n-1.0\n")
    cfg = write_config(tmp_path, "pe.json", command="elasticity",
                       params={"profile_csv": str(prof)})
    out = str(tmp_path / "r")
    assert run_cli(["--config", cfg, "--out", out]) == 0
    pay = load_report(out)["payload"]
    assert pay["elasticity"]["forbidden"] == [[0.0, 0.0]]
    assert pay["profile_summary"]["first_kind"] is True


def test_flag_overrides(tmp_path):
    cfg = write_config(tmp_path, "c.json", command="admissible",
                       system=FINITE_SYSTEM, n_max=6, k=5.0)
    out = str(tmp_path / "r")
    assert run_cli(["--config", cfg, "--out", out, "--k", "1.5"]) == 0
    rep = load_report(out)
    assert rep["payload"]["classifications"][0]["k"] == 1.5
    assert rep["payload"]["classifications"][0]["verdict"] == "not_admissible"


def test_torus2_system_config(tmp_path):
    cfg = write_config(tmp_path, "t.json", command="analyze", system=TORUS_SYSTEM,
                       n_max=20)
    out = str(tmp_path / "r")
    assert run_cli(["--config", cfg, "--out", out]) == 0
    rep = load_report(out)
    assert rep["payload"]["table_summary"]["points"] == 64


def test_k_range_flag(tmp_path):
    cfg = write_config(tmp_path, "c.json", command="admissible",
                       system=FINITE_SYSTEM, n_max=6)
    out = str(tmp_path / "r")
    assert run_cli(["--config", cfg, "--out", out, "--k-range", "0:3:1"]) == 0
    rep = load_report(out)
    ks = [c["k"] for c in rep["payload"]["classifications"]]
    assert ks == [0.0, 1.0, 2.0, 3.0]
    assert run_cli(["--config", cfg, "--out", out, "--k-range", "0:3"]) == 2
    # negative range starts survive argument parsing
    assert run_cli(["--config", cfg, "--out", out, "--k-range", "-1:1:1"]) == 0
    rep = load_report(out)
    assert [c["k"] for c in rep["payload"]["classifications"]] == [-1.0, 0.0, 1.0]


def test_report_does_not_depend_on_out_path(tmp_path, monkeypatch):
    # the config echo leaves out --out and the cache location, and the
    # timestamp always has microseconds, so report.json keeps its size
    monkeypatch.delenv("CACHE_DIR", raising=False)
    cfg = write_config(tmp_path, "c.json", command="admissible",
                       system=FINITE_SYSTEM, n_max=6)
    outs = [str(tmp_path / "r"), str(tmp_path / "a_longer_directory" / "r12345")]
    raw = []
    for out in outs:
        assert run_cli(["--config", cfg, "--out", out]) == 0
        with open(os.path.join(out, "report.json"), "rb") as fh:
            raw.append(fh.read())
    assert len(raw[0]) == len(raw[1])
    first, second = (json.loads(r) for r in raw)
    for rep in (first, second):
        rep["provenance"].pop("timestamp")
    assert first == second
    assert "out" not in first["config"] and "cache_dir" not in first["config"]


@pytest.mark.parametrize("system", [
    dict(FINITE_SYSTEM, map={"type": "permutation"}),
    dict(FINITE_SYSTEM, factor={"type": "table"}),
    dict(FINITE_SYSTEM, space="finite"),
    dict(CONST_SYSTEM, map=["rotation"]),
    dict(STRICT_SYSTEM, factor={"type": "coboundary"}),
    dict(CONST_SYSTEM, factor={"type": "trig", "cos": 5}),
    dict(CONST_SYSTEM, map={"type": "rotation", "angle": "abc"}),
    dict(TORUS_SYSTEM, map={"type": "torus_linear", "matrix": [[2, 1]]}),
    # int() would truncate 2.5 and run the cat map
    dict(TORUS_SYSTEM, map={"type": "torus_linear", "matrix": [[2.5, 1], [1, 1]]}),
])
def test_malformed_system_is_a_validation_error(tmp_path, capsys, system):
    cfg = write_config(tmp_path, "bad.json", command="admissible", system=system)
    assert run_cli(["--config", cfg, "--out", str(tmp_path / "r")]) == 2
    diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert diag["error"] == "ValidationError"


@pytest.mark.parametrize("data", [
    {"command": "construct", "system": CONST_SYSTEM, "k": 1.0, "params": {"t_window": 5}},
    {"command": "construct", "system": CONST_SYSTEM, "k": 1.0, "params": {"n_scan": "many"}},
    {"command": "admissible", "system": FINITE_SYSTEM, "k": "large"},
    {"command": "rank", "params": {"generators": "1"}},
    {"command": "rank", "params": {"generators": ["1"]}, "n_max": "abc"},
    {"command": "rank", "params": {"generators": ["1"]}, "seed": [1]},
    {"command": "rank", "params": {"generators": ["1"]}, "seed": float("inf")},
    {"command": "admissible", "system": FINITE_SYSTEM, "k_range": [0, 1, float("nan")]},
    {"command": "admissible", "system": FINITE_SYSTEM, "k_range": [0, float("inf"), 1]},
    {"command": "admissible", "system": FINITE_SYSTEM, "k_range": [1e308, 1.7e308, 1e308]},
])
def test_malformed_params_are_validation_errors(tmp_path, capsys, data):
    cfg = write_config(tmp_path, "bad.json", **data)
    assert run_cli(["--config", cfg, "--out", str(tmp_path / "r")]) == 2
    diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert diag["error"] == "ValidationError"


@pytest.mark.parametrize("k_range", [
    [0, cli.MAX_K_VALUES, 1],  # one size over the budget
    [0, 1, 1e-300],            # arange would refuse this length
    [-1e308, 1e308, 1.0],      # b - a overflows
])
def test_oversized_k_range_is_a_budget_error(tmp_path, capsys, k_range):
    # the count is checked before any array is built
    cfg = write_config(tmp_path, "big.json", command="admissible",
                       system=FINITE_SYSTEM, n_max=6, k_range=k_range)
    assert run_cli(["--config", cfg, "--out", str(tmp_path / "r")]) == 3
    diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert diag["error"] == "BudgetError"


@pytest.mark.parametrize("command,system", [
    ("admissible", FINITE_SYSTEM), ("probe", FINITE_SYSTEM),
    ("construct", CONST_SYSTEM), ("elasticity", CONST_SYSTEM),
])
def test_non_finite_k_is_a_validation_error(tmp_path, capsys, command, system):
    # NaN or Infinity in the payload would make report.json invalid JSON
    cfg = write_config(tmp_path, "c.json", command=command, system=system, n_max=6)
    assert run_cli(["--config", cfg, "--out", str(tmp_path / "a"), "--k", "nan"]) == 2
    (tmp_path / "inf.json").write_text(
        '{"command": "%s", "system": %s, "n_max": 6, "k": Infinity}'
        % (command, json.dumps(system)))
    assert run_cli(["--config", str(tmp_path / "inf.json"), "--out", str(tmp_path / "b")]) == 2
    diags = [json.loads(line) for line in capsys.readouterr().err.strip().splitlines()]
    assert [d["error"] for d in diags] == ["ValidationError"] * 2
    assert all("k must be finite" in d["message"] for d in diags)
    assert not os.path.exists(tmp_path / "a" / "report.json")


@pytest.mark.parametrize("k_range,want", [
    ([0, 0.7, 1], [0.0]),  # arange(0, 1.2, 1) would add 1.0 > b
    ([0, 0.3, 0.1], [0.0, 0.1, 0.2, 0.30000000000000004]),  # 0.3 / 0.1 < 3
    # the benchmark's sweeps keep their values
    ([-1.5, 1.5, 0.5], [-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5]),
    ([-2.0, 2.0, 0.5], [-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0]),
    ([-1.0, 1.0, 0.5], [-1.0, -0.5, 0.0, 0.5, 1.0]),
])
def test_k_range_stops_at_b(k_range, want):
    ks = cli._k_values(cli.RunConfig(command="admissible", k_range=tuple(k_range)))
    assert ks == want
    a, b, step = k_range
    assert ks == np.arange(a, b + 0.5 * step, step).tolist()[:len(want)]


@pytest.mark.parametrize("grid", ["abc", 2.5, 0, -3, True, [], {"grid": "abc"},
                                  {"grid": 8, "seed": [0.1]}, {"seeds": 0.5}])
def test_malformed_grid_is_a_validation_error(tmp_path, capsys, grid):
    cfg = write_config(tmp_path, "g.json", command="analyze", system=CONST_SYSTEM,
                       n_max=6, grid=grid)
    assert run_cli(["--config", cfg, "--out", str(tmp_path / "r")]) == 2
    diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert diag["error"] == "ValidationError" and "grid must be" in diag["message"]


@pytest.mark.parametrize("grid,points", [(None, 128), (8, 8), ([0.1, 0.5], 2),
                                         ({"grid": 4, "seeds": [0.3]}, 5), ({"seeds": []}, 128)])
def test_grid_forms(tmp_path, grid, points):
    cfg = write_config(tmp_path, "g.json", command="analyze", system=CONST_SYSTEM,
                       n_max=6, grid=grid)
    out = str(tmp_path / "r")
    assert run_cli(["--config", cfg, "--out", out]) == 0
    assert load_report(out)["payload"]["table_summary"]["points"] == points


def test_k_range_at_budget_runs(tmp_path):
    cfg = write_config(tmp_path, "c.json", command="admissible",
                       system=FINITE_SYSTEM, n_max=6,
                       k_range=[0, cli.MAX_K_VALUES - 1, 1])
    out = str(tmp_path / "r")
    assert run_cli(["--config", cfg, "--out", out]) == 0
    assert len(load_report(out)["payload"]["classifications"]) == cli.MAX_K_VALUES


def test_import_loads_no_scipy():
    # scipy is a test-only dependency; importing it costs most of start-up
    code = ("import sys, lcsdyn, lcsdyn.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip() == "[]"


def test_programming_error_propagates(tmp_path, monkeypatch):
    def broken(config, sys_, out_dir, warnings):
        raise KeyError("not a config problem")

    monkeypatch.setitem(cli._HANDLERS, "rank", broken)
    config = cli.RunConfig(command="rank", params={"generators": ["1"]},
                           out=str(tmp_path / "r"))
    with pytest.raises(KeyError):
        cli.run(config)
