import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from conftest import encoded, scalar_factor, scalar_map
from lcsdyn import cli
from lcsdyn.birkhoff import birkhoff_table, limit_estimates
from lcsdyn.core import (
    coboundary_system,
    orbit_array,
    reference_points,
    rotation_system,
    sampled_bounds,
)
from lcsdyn.torus import VERDICT_ESCAPE, ProbeReport

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

GOLDEN_COS = {
    "space": {"kind": "circle", "grid_resolution": 64},
    "map": {"type": "rotation", "angle": "golden"},
    "factor": {"type": "trig", "cos": [[1, 1.0]]},
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


def test_rank_reads_json_pairs_and_its_own_echo(tmp_path):
    # JSON has no tuples: a pair is a two-element list, and its coefficients
    # are whatever as_rational reads ("1.5" included)
    def rank(generators, name):
        cfg = write_config(tmp_path, f"{name}.json", command="rank",
                           params={"generators": generators})
        out = str(tmp_path / name)
        assert run_cli(["--config", cfg, "--out", out]) == 0
        payload = load_report(out)["payload"]
        return payload["rank"], payload["generators"]

    assert rank([["1", "1"], ["2", "2"]], "pairs") == (1, [["1", "1"], ["2", "2"]])
    assert rank(["1.5", "3/2", "0.5s"], "decimals") == (2, [["3/2", "0"], ["3/2", "0"],
                                                           ["0", "1/2"]])
    first = rank(["1/2", ["1.5", "-2/4"], "2*s", 3, "-s"], "first")
    assert first == (2, [["1/2", "0"], ["3/2", "-1/2"], ["0", "2"], ["3", "0"], ["0", "-1"]])
    assert rank(first[1], "echo") == first


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


@pytest.mark.parametrize("k", [1e-310, 5e-324])
def test_probe_at_a_subnormal_size_gets_the_exact_telescoping_bound(tmp_path, k):
    # (width + V) / k overflowed a float: an OverflowError traceback, exit 1
    report, code = cli.run(cli.RunConfig(command="probe", system=STRICT_SYSTEM, k=k,
                                         n_max=50, out=str(tmp_path / "run")))
    assert code == 0
    rep, = report["payload"]["reports"]
    assert rep["verdict"] == VERDICT_ESCAPE and rep["certificate"] == "telescoping-bound"
    sys_ = cli.system_from_config(STRICT_SYSTEM)
    f_lo, f_hi = sampled_bounds(sys_, sys_.generating_f, reference_points(sys_))
    V = f_hi - f_lo
    width = rep["band"][1] - rep["band"][0]
    assert rep["escape_bound"] == math.floor(Fraction(width + V) / Fraction(k)) + 1


def test_phase_csv_is_the_csv_writer_file(tmp_path):
    # reference: the csv.writer dump of the same cells, byte for byte
    reports = [ProbeReport(k, (-1.0, 1.0), verdict, None, bound, "none", True, 10, 4)
               for k, verdict, bound in [(-0.0, "Inconclusive", None),
                                         (0.5, "EscapeCertified", 7),
                                         (1e-310, "EscapeCertified", 3 * 10**310 + 1),
                                         (-1.25, "RecurrentEvidence", None)]]
    path, ref = tmp_path / "phase.csv", tmp_path / "ref.csv"
    cli._write_phase_table(reports, str(path))
    with open(ref, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "verdict", "escape_bound"])
        w.writerows([repr(r.k), r.verdict, "" if r.escape_bound is None else r.escape_bound]
                    for r in reports)
    assert path.read_bytes() == ref.read_bytes()
    assert b"\r\n-0.0,Inconclusive,\r\n" in path.read_bytes()


@pytest.mark.parametrize("window,message", [
    ([-math.inf, 2], "params.t_window entry must be finite, got -inf"),
    ([math.nan, 1], "params.t_window entry must be finite, got nan"),
    ([5, 1], "params.t_window must have lo < hi, got [5, 1]"),
], ids=["window0", "window1", "window2"])
@pytest.mark.parametrize("command,params", [
    ("construct", {}),
    ("elasticity", {"strict_mu": False}),
    ("elasticity", {"strict_mu": True}),
])
def test_t_window_must_be_finite_with_lo_below_hi(tmp_path, capsys, window, message, command,
                                                  params):
    # -inf exited 3 as past the truncation budget, NaN and [5, 1] exited 2
    # without naming the field, and the strict profile never read the window
    cfg = write_config(tmp_path, "w.json", command=command, system=STRICT_SYSTEM, k=1.0,
                       n_max=20, params={"t_window": window, **params})
    assert run_cli(["--config", cfg, "--out", str(tmp_path / "r")]) == 2
    diag = _diag_of(capsys)
    assert diag["error"] == "ValidationError"
    assert diag["message"] == message


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


def test_cache_key_includes_version(tmp_path):
    # the key hashes the package's source, whose __init__.py holds __version__;
    # the digest is read once per directory, so each edit goes into a copy
    import shutil

    def copy(name):
        dest = tmp_path / name
        shutil.copytree(os.path.dirname(cli.__file__), dest,
                        ignore=shutil.ignore_patterns("__pycache__"))
        return dest

    assert cli._code_digest(str(copy("same"))) == cli._code_digest()
    init = copy("bumped") / "__init__.py"
    text = init.read_text()
    assert f'__version__ = "{cli.__version__}"' in text
    init.write_text(text.replace(f'"{cli.__version__}"', f'"{cli.__version__}.post1"'))
    (copy("added") / "extra.py").write_text("")  # a new module is a change too
    digests = [cli._code_digest(str(tmp_path / name)) for name in ("bumped", "added")]
    assert len({cli._code_digest(), *digests}) == 3


def test_an_entry_stored_by_other_code_is_recomputed(tmp_path, monkeypatch):
    # an entry that another source tree stored, here with that code's own
    # mu_residual, is a miss: the run recomputes it and stores its own
    config = cli.RunConfig(command="construct", system=STRICT_SYSTEM, grid=64, k=1.0, seed=13,
                           params={"t_window": [-2, 2]}, out=str(tmp_path / "r"),
                           cache_dir=str(tmp_path / "c"))
    monkeypatch.setattr(cli, "_code_digest", lambda: "0" * 64)
    other, code = cli.run(config)
    assert code == 0 and other["provenance"]["cache_hit"] is False
    [entry] = (tmp_path / "c").iterdir()
    stored = json.loads(entry.read_text())
    stored["payload"]["mu_residual"] = 1.0
    entry.write_text(json.dumps(stored))
    monkeypatch.undo()
    fresh, code = cli.run(config)
    assert code == 0 and fresh["provenance"]["cache_hit"] is False
    assert fresh["payload"] == other["payload"] and fresh["payload"]["mu_residual"] < 1e-9
    again, code = cli.run(config)
    assert code == 0 and again["provenance"]["cache_hit"] is True
    assert again["payload"] == fresh["payload"] and len(os.listdir(tmp_path / "c")) == 2


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


FLOAT_TABLE_SYSTEM = {
    "space": {"kind": "finite"},
    "map": {"type": "permutation", "table": [1, 2, 0, 3]},
    "factor": [0.1, 0.2, 0.35, -0.4],
}


def _only_entry(cache_dir):
    (name,) = os.listdir(cache_dir)
    return os.path.join(cache_dir, name)


@pytest.mark.parametrize("text", ["[1]", "null", '"x"', '{"payload": 1, "warnings": 3}',
                                  '{"warnings": []}', "\udcff"])
def test_malformed_cache_entry_is_corrupt(tmp_path, text):
    # valid JSON that is not an object with a payload object used to raise a
    # TypeError from run; now it warns and is recomputed, like bad JSON
    config = cli.RunConfig(command="analyze", system=FLOAT_TABLE_SYSTEM, n_max=6,
                           out=str(tmp_path / "r"), cache_dir=str(tmp_path / "c"))
    first, code = cli.run(config)
    entry = _only_entry(tmp_path / "c")
    with open(entry, "w", errors="surrogateescape") as fh:
        fh.write(text)
    report, code = cli.run(config)
    assert code == 0 and report["provenance"]["cache_hit"] is False
    assert report["payload"] == first["payload"]
    corrupt = f"ignoring corrupt cache entry {os.path.basename(entry)}: "
    assert report["warnings"][0].startswith(corrupt)
    assert report["warnings"][1:] == first["warnings"] == [cli._ROUNDED]
    again, code = cli.run(config)  # the recomputed entry is served, and warns no more
    assert again["provenance"]["cache_hit"] is True and again["warnings"] == first["warnings"]


def test_cache_entry_with_stored_warnings_is_a_hit(tmp_path):
    # entries once kept the warnings beside the payload: such an entry is
    # still a hit, and its warnings are derived from the payload, not replayed
    config = cli.RunConfig(command="analyze", system=FLOAT_TABLE_SYSTEM, n_max=6,
                           out=str(tmp_path / "r"), cache_dir=str(tmp_path / "c"))
    first, _ = cli.run(config)
    entry = _only_entry(tmp_path / "c")
    with open(entry, "w") as fh:
        json.dump({"payload": first["payload"], "warnings": ["stale"]}, fh)
    report, code = cli.run(config)
    assert code == 0 and report["provenance"]["cache_hit"] is True
    assert report["payload"] == first["payload"]
    assert report["warnings"] == first["warnings"] == [cli._ROUNDED]


@pytest.mark.parametrize("config", [
    # past the table CSV cap: 1100 points x 200 orders
    dict(command="analyze", system=CONST_SYSTEM, grid=1100, n_max=200),
    dict(command="analyze", system=FLOAT_TABLE_SYSTEM, n_max=10),
    dict(command="admissible", system=FLOAT_TABLE_SYSTEM, n_max=10, k_range=(-1.0, 1.0, 0.5)),
    dict(command="optimize", system=FLOAT_TABLE_SYSTEM),
    dict(command="probe", system=FLOAT_TABLE_SYSTEM, n_max=20, k_range=(-1.0, 1.0, 0.5)),
    dict(command="optimize", system=STRICT_SYSTEM, n_max=16, params={"method": "birkhoff_fn"}),
    dict(command="optimize", system=STRICT_SYSTEM, grid=64, params={"method": "grid_descent"}),
    dict(command="probe", system={**CONST_SYSTEM, "map": {"type": "rotation", "angle": 0.0},
                                  "factor": {"type": "trig", "cos": [[1, 1.0]]}},
         n_max=50, k=0.3, params={"starts": [0.0, 0.3]}, strict_verdict=True),
    dict(command="elasticity", params={"profile_csv": "prof.csv"}),
    dict(command="elasticity", system=STRICT_SYSTEM, k=1.0, params={"strict_mu": True}),
    dict(command="construct", system=CONST_SYSTEM, k=1.0, params={"t_window": [-8, 8]}),
    dict(command="rank", params={"generators": ["1", "s"]}),
], ids=["analyze-cap", "analyze-table", "admissible-table", "optimize-table", "probe-table",
        "birkhoff_fn", "grid_descent", "inconclusive", "elasticity-csv", "strict_mu",
        "construct", "rank"])
def test_cache_hit_reports_what_the_miss_did(tmp_path, config):
    if "profile_csv" in config.get("params", {}):
        prof = tmp_path / "prof.csv"
        prof.write_text("u\n-0.5\n0\n2\n")
        config = dict(config, params={"profile_csv": str(prof)})
    runs = [cli.run(cli.RunConfig(**config, out=str(tmp_path / out),
                                  cache_dir=str(tmp_path / "cache")))
            for out in ("miss", "hit")]
    (miss, miss_code), (hit, hit_code) = runs
    assert [r["provenance"]["cache_hit"] for r, _ in runs] == [False, True]
    assert hit["payload"] == miss["payload"]
    assert hit["warnings"] == miss["warnings"]
    assert hit_code == miss_code
    assert miss_code == (4 if config.get("strict_verdict") else 0)


def test_cache_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("CACHE_DIR", str(tmp_path / "shared_cache"))
    cfg = write_config(tmp_path, "c.json", command="rank",
                       params={"generators": ["s"]})
    assert run_cli(["--config", cfg, "--out", str(tmp_path / "r1")]) == 0
    assert run_cli(["--config", cfg, "--out", str(tmp_path / "r2")]) == 0
    rep = load_report(str(tmp_path / "r2"))
    assert rep["provenance"]["cache_hit"] is True
    assert os.path.isdir(tmp_path / "shared_cache")


@pytest.mark.parametrize("key,value", [("out", None), ("out", 7), ("out", ""), ("cache_dir", 5)])
def test_out_and_cache_dir_that_are_not_paths_exit_2(tmp_path, capsys, key, value):
    # os.path raised a TypeError on them: a traceback and exit 1
    where = {"out": str(tmp_path / "r"), key: value}
    cfg = write_config(tmp_path, "c.json", command="rank", params={"generators": ["1"]}, **where)
    assert run_cli(["--config", cfg]) == 2
    diag = _diag_of(capsys)
    assert diag["error"] == "ValidationError" and diag["message"].startswith(f"{key} must be")


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
    for value, code in ((True, 4), (False, 0)):
        cfg = write_config(tmp_path, "inc.json", command="probe", system=identity_sys,
                           n_max=50, k=0.3, params={"starts": [0.0, 0.3]},
                           strict_verdict=value)
        assert run_cli(["--config", cfg, "--out", str(tmp_path / f"r{value}")]) == code


@pytest.mark.parametrize("value", ["no", 1, None, []])
def test_strict_verdict_must_be_a_boolean(tmp_path, capsys, value):
    # bool("no") is True: the string used to turn an inconclusive probe into exit 4
    cfg = write_config(tmp_path, "inc.json", command="probe", system=CONST_SYSTEM,
                       n_max=6, k=0.3, strict_verdict=value)
    for flags in ([], ["--strict-verdict"]):
        assert run_cli(["--config", cfg, "--out", str(tmp_path / "r"), *flags]) == 2
        diag = _diag_of(capsys)
        assert diag["error"] == "ValidationError"
        assert diag["message"].startswith("strict_verdict must be true or false")


def test_construct_command(tmp_path):
    cfg = write_config(tmp_path, "g.json", command="construct", system=CONST_SYSTEM,
                       k=1.0, params={"t_window": [-8, 8]})
    out = str(tmp_path / "r")
    assert run_cli(["--config", cfg, "--out", out]) == 0
    pay = load_report(out)["payload"]
    assert pay["g_residual"] <= 1e-9
    assert pay["mu_residual"] <= 1e-7
    assert pay["slope_margin"] > 0


def test_construct_refuses_a_slope_of_the_wrong_sign(tmp_path, capsys):
    # built on two grid points, the cos rotation's g has dt g + k in
    # [-1.17, 2.17] on the reference sample: min |dt g + k| read 3.1e-5 and the
    # run exited 0 with mu_residual 0.78
    from lcsdyn.torus import build_mu

    system = {"space": {"kind": "circle", "grid_resolution": 256},
              "map": {"type": "rotation", "angle": "golden"},
              "factor": {"type": "trig", "cos": [[1, 1.0]]}}
    cfg = write_config(tmp_path, "g.json", command="construct", system=system,
                       grid=[0.25, 0.5], k=0.5, params={"t_window": [-3, 3]})
    assert run_cli(["--config", cfg, "--out", str(tmp_path / "r")]) == 3
    diag = _diag_of(capsys)
    assert diag["error"] == "InfeasibleError"
    assert "slope margin -1.17" in diag["message"]
    g = build_mu(cli.system_from_config(system), 0.5, (-3, 3), points=[0.25, 0.5]).gcons
    assert g.slope_margin() == pytest.approx(-1.17, abs=0.01)


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


def test_csv_profile_asserts_no_nonvanishing_form(tmp_path):
    # samples alone do not show that the form never vanishes, and this one
    # has u = 0: the complement is only a superset of the elasticity set
    prof = tmp_path / "prof.csv"
    prof.write_text("u\n-0.5\n0\n2\n")
    report, code = cli.run(cli.RunConfig(command="elasticity", out=str(tmp_path / "r"),
                                         params={"profile_csv": str(prof)}))
    assert code == 0
    es = report["payload"]["elasticity"]
    assert es["equality"] is False and es["contains_zero_u"] is True
    assert report["warnings"] == ["form may vanish: reported complement is a superset of "
                                  "the true elasticity set"]


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
    # refused by the system builder itself, not truncated to [1, 0, 2]
    dict(FINITE_SYSTEM, map={"type": "permutation", "table": [1.5, 0, 2]}),
    dict(FINITE_SYSTEM, map={"type": "permutation", "table": [True, False, 2]}),
    # past int64: refused as out of range, not an OverflowError
    dict(FINITE_SYSTEM, map={"type": "permutation", "table": [2**70, 0, 2]}),
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
    {"command": "admissible", "system": FINITE_SYSTEM, "k_range": 5},  # was a TypeError
])
def test_malformed_params_are_validation_errors(tmp_path, capsys, data):
    cfg = write_config(tmp_path, "bad.json", **data)
    assert run_cli(["--config", cfg, "--out", str(tmp_path / "r")]) == 2
    diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert diag["error"] == "ValidationError"


def _diag_of(capsys):
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])


@pytest.mark.parametrize("command,params,message", [
    ("optimize", {"n": "abc"}, "params.n must be an integer, got 'abc'"),  # was a TypeError
    ("optimize", {"n": 2.5}, "params.n must be an integer, got 2.5"),  # was a TypeError
    ("optimize", {"n": 0}, "params.n must be >= 1, got 0"),  # silently ran at n = 64
    ("probe", {"starts": 2.5}, "params.starts must be a positive int"),  # was a TypeError
    ("construct", {"n_scan": 0}, "params.n_scan must be >= 1, got 0"),  # was reported as n_max
], ids=["optimize-params0-params.n", "optimize-params1-params.n", "optimize-params2-params.n",
        "probe-params3-params.starts", "construct-params4-params.n_scan"])
def test_malformed_command_params_name_their_field(tmp_path, capsys, command, params, message):
    sizes = {} if command == "optimize" else {"k": 0.5}
    cfg = write_config(tmp_path, "p.json", command=command, system=CONST_SYSTEM, n_max=6,
                       params=params, **sizes)
    assert run_cli(["--config", cfg, "--out", str(tmp_path / "r")]) == 2
    diag = _diag_of(capsys)
    assert diag["error"] == "ValidationError"
    assert diag["message"].startswith(message)


@pytest.mark.parametrize("value", [
    "abc",  # was a ValueError
    -1,  # ran, with one forbidden interval per profile sample
    0,
])
def test_malformed_gap_resolution_is_a_validation_error(tmp_path, capsys, value):
    prof = tmp_path / "prof.csv"
    prof.write_text("u\n-1.0\n-0.5\n")
    cfg = write_config(tmp_path, "e.json", command="elasticity",
                       tolerances={"gap_resolution": value}, params={"profile_csv": str(prof)})
    assert run_cli(["--config", cfg, "--out", str(tmp_path / "r")]) == 2
    diag = _diag_of(capsys)
    assert diag["error"] == "ValidationError"
    assert diag["message"].startswith("tolerances.gap_resolution must be")


@pytest.mark.parametrize("value", [
    float("nan"),  # switched the inverse check off: err.max() > nan is False
    float("inf"),  # switched the inverse check off
    0,  # every system failed its inverse check
    -1e-9,
    "abc",
])
def test_tol_inverse_must_be_positive_and_finite(tmp_path, capsys, value):
    for system in (CONST_SYSTEM, FINITE_SYSTEM):
        cfg = write_config(tmp_path, "t.json", command="admissible", system=system, n_max=6,
                           tolerances={"tol_inverse": value})
        assert run_cli(["--config", cfg, "--out", str(tmp_path / "r")]) == 2
        diag = _diag_of(capsys)
        assert diag["error"] == "ValidationError"
        assert diag["message"].startswith("tolerances.tol_inverse must be")


_CONSTRUCT = {"command": "construct", "system": CONST_SYSTEM, "k": 1.0,
              "params": {"t_window": [-2, 2]}}


@pytest.mark.parametrize("data,flags,message", [
    ({"n_max": 20.7}, [], "n_max must be an integer"),  # ran with n_max 20
    ({"n_max": True}, [], "n_max must be an integer"),  # ran with n_max 1
    ({"n_max": "20"}, [], "n_max must be an integer"),
    ({"seed": 1.5}, [], "seed must be an integer"),  # seeded 1
    ({"seed": -1}, [], "seed must be >= 0"),  # a ValueError from np.random.default_rng
    ({}, ["--seed=-1"], "seed must be >= 0"),
    ({"system": dict(CONST_SYSTEM, space={"kind": "circle", "grid_resolution": 64.5})}, [],
     "space.grid_resolution must be an integer"),  # ran on a 64-point grid
    ({"system": dict(CONST_SYSTEM, space={"kind": "circle", "grid_resolution": True})}, [],
     "space.grid_resolution must be an integer"),
], ids=["data0-flags0-n_max", "data1-flags1-n_max", "data2-flags2-n_max", "data3-flags3-seed",
        "data4-flags4-seed", "data5-flags5-seed", "data6-flags6-space.grid_resolution",
        "data7-flags7-space.grid_resolution"])
def test_integer_config_fields_take_integers_only(tmp_path, capsys, data, flags, message):
    cfg = write_config(tmp_path, "c.json", **{**_CONSTRUCT, **data})
    assert run_cli(["--config", cfg, "--out", str(tmp_path / "r"), *flags]) == 2
    diag = _diag_of(capsys)
    assert diag["error"] == "ValidationError"
    assert diag["message"].startswith(message)


@pytest.mark.parametrize("text", [
    None,  # no such file: was a FileNotFoundError
    "u\n-1.0\nabc\n",  # a cell that is not a number: was a ValueError
    "x,u\n0.0,-1.0\n0.5\n",  # a row without the u column: was an IndexError
])
def test_malformed_profile_csv_is_a_validation_error(tmp_path, capsys, text):
    prof = tmp_path / "prof.csv"
    if text is not None:
        prof.write_text(text)
    cfg = write_config(tmp_path, "e.json", command="elasticity",
                       params={"profile_csv": str(prof)})
    assert run_cli(["--config", cfg, "--out", str(tmp_path / "r")]) == 2
    diag = _diag_of(capsys)
    assert diag["error"] == "ValidationError" and str(prof) in diag["message"]


def _fd_open(fd):
    try:
        os.fstat(fd)
        return True
    except OSError:
        return False


@pytest.mark.parametrize("value", [True, 7, 0, "", ["prof.csv"]])
def test_profile_csv_that_is_not_a_path_exits_2_and_keeps_the_fds(tmp_path, capsys, value):
    # open() took true as file descriptor 1: it read and then closed stdout
    before = _fd_open(7)
    cfg = write_config(tmp_path, "e.json", command="elasticity",
                       params={"profile_csv": value})
    assert run_cli(["--config", cfg, "--out", str(tmp_path / "r")]) == 2
    assert _fd_open(1) and _fd_open(7) == before
    diag = _diag_of(capsys)
    assert diag["error"] == "ValidationError"
    assert diag["message"].startswith("params.profile_csv must be")


def test_rewritten_profile_csv_is_a_cache_miss(tmp_path):
    # the key hashed only the path, so the second run served the first set
    prof = tmp_path / "prof.csv"
    cfg = write_config(tmp_path, "e.json", command="elasticity",
                       params={"profile_csv": str(prof)}, cache_dir=str(tmp_path / "cache"))
    runs = []
    for text in ("u\n-1\n-1\n", "u\n-0.5\n-2.0\n", "u\n-0.5\n-2.0\n"):
        prof.write_text(text)
        out = str(tmp_path / f"r{len(runs)}")
        assert run_cli(["--config", cfg, "--out", out]) == 0
        runs.append(load_report(out))
    first, second, third = runs
    assert first["payload"]["elasticity"]["forbidden"] == [[0.0, 0.0]]
    assert first["payload"]["profile_summary"]["first_kind"] is True
    assert second["provenance"]["cache_hit"] is False
    assert second["payload"]["elasticity"]["forbidden"] == [[-1.0, -1.0], [0.5, 0.5]]
    assert second["payload"]["profile_summary"]["first_kind"] is False
    assert third["provenance"]["cache_hit"] is True
    assert payload_bytes(third) == payload_bytes(second)


def test_cache_key_of_a_config_without_a_profile_is_unchanged():
    # the key hashes {"config", "source_sha256"} alone unless a profile file is read
    canonical = cli.RunConfig(command="rank", params={"generators": ["1"]}).canonical()
    blob = json.dumps({"config": canonical, "source_sha256": cli._code_digest()},
                      sort_keys=True, separators=(",", ":"), default=cli._json_default)
    assert cli.cache_key(canonical) == hashlib.sha256(blob.encode()).hexdigest()
    config = cli.RunConfig(command="rank", params={"generators": ["1"]}, cache_dir="c")
    assert cli.cache_path(config, canonical) == os.path.join("c", cli.cache_key(canonical)
                                                             + ".json")


def _old_cache_key(canonical, profile_sha256=None):
    """The key as it was computed before the config text was spliced in: one
    json.dumps of the whole keyed object."""
    keyed = {"config": canonical, "source_sha256": cli._code_digest()}
    if profile_sha256 is not None:
        keyed["profile_sha256"] = profile_sha256
    blob = json.dumps(keyed, sort_keys=True, separators=(",", ":"), default=cli._json_default)
    return hashlib.sha256(blob.encode()).hexdigest()


# odd values under params keys: the key hashes whatever the config holds
ODD_PARAMS = {"generators": ["1", "s"], "n": np.int64(3), "t_window": np.float64(0.1),
              "starts": np.arange(3), "method": [Fraction(-2, 6)],
              "profile_csv": "a, b: c", "n_scan": {"z": 1, "a": [None, True]}}


@pytest.mark.parametrize("profile", [None, "0" * 64, hashlib.sha256(b"u\n-1\n").hexdigest()])
@pytest.mark.parametrize("config", [
    cli.RunConfig(command="rank", params={"generators": ["1"]}),
    cli.RunConfig(command="rank", params=ODD_PARAMS, k_range=(0.0, 1.0, 0.5)),
    cli.RunConfig(command="analyze", system=FINITE_SYSTEM, n_max=7, grid=3, k=-0.25),
])
def test_cache_key_blob_is_the_old_formula(config, profile):
    # the key of a dict and of its compact text hash the same blob as before
    canonical = config.canonical()
    want = _old_cache_key(canonical, profile)
    assert cli.cache_key(canonical, profile) == want
    assert cli.cache_key(cli._compact(canonical), profile) == want


def test_cache_path_of_a_profile_config_is_the_old_key(tmp_path):
    prof = tmp_path / "prof.csv"
    prof.write_bytes(b"u\n-0.5\n-2.0\n")
    config = cli.RunConfig(command="elasticity", params={"profile_csv": str(prof)},
                           cache_dir=str(tmp_path / "c"), out=str(tmp_path / "r"))
    key = _old_cache_key(config.canonical(), hashlib.sha256(prof.read_bytes()).hexdigest())
    report, code = cli.run(config)
    assert code == 0 and os.listdir(tmp_path / "c") == [key + ".json"]


@pytest.mark.parametrize("config", [
    dict(command="analyze", system=FINITE_SYSTEM, n_max=7),
    dict(command="admissible", system=dict(FINITE_SYSTEM, factor=["1/3", "-2/7", 0]),
         n_max=5, k_range=(-1.0, 1.0, 0.5)),
    dict(command="probe", system=CONST_SYSTEM, n_max=20, k=0.5),
    dict(command="rank", params={"generators": [("1", Fraction(-2, 6)), "s"]}),
    dict(command="optimize", system=FINITE_SYSTEM, n_max=np.int64(7),
         params={"n": np.int64(3), "method": "exact_finite"}),
])
def test_report_json_is_the_old_object(tmp_path, config):
    # the old writer dumped the report dict whole (with ", " and ": "); the
    # file now splices in the config's compact text, so only whitespace moves
    config = cli.RunConfig(**config, out=str(tmp_path / "r"), cache_dir=str(tmp_path / "c"))
    for hit in (False, True):
        report, code = cli.run(config)
        assert code == 0 and report["provenance"]["cache_hit"] is hit
        old = json.loads(json.dumps(report, sort_keys=True, default=cli._json_default))
        raw = (tmp_path / "r" / "report.json").read_text()
        assert raw == json.dumps(old, sort_keys=True, separators=(",", ":"))
        mine = json.loads(raw)
        for obj in (old, mine):
            obj["provenance"].pop("timestamp")
        assert mine == old
        # the echo is the text the cache key hashes
        assert os.listdir(tmp_path / "c") == [_old_cache_key(mine["config"]) + ".json"]


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


@pytest.mark.parametrize("command", ["probe", "analyze"])
def test_an_n_max_past_the_budget_is_a_budget_error(tmp_path, capsys, command):
    # a cycle-exact probe never walks: it exited 0 and reported n_max = 10**12
    system = {"space": {"kind": "finite", "size": 3},
              "map": {"type": "permutation", "table": [1, 2, 0]},
              "factor": ["1/2", "-1/4", "1/4"]}
    _, code = cli.run(cli.RunConfig(command=command, system=system, k=1.0, n_max=10**12,
                                    out=str(tmp_path / "r")))
    assert code == 3 and _diag_of(capsys)["error"] == "BudgetError"


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
    ks = cli._k_range(k_range, "k_range")
    assert ks == want
    a, b, step = k_range
    assert ks == np.arange(a, b + 0.5 * step, step).tolist()[:len(want)]


def test_k_range_sizes_are_a_plus_i_step(tmp_path):
    # arange stepped by (a + step) - a: its middle size was -1.1e-16, which the
    # strict golden rotation's probe certified as escaping, and its last size
    # 0.4999999999999998
    report, code = cli.run(cli.RunConfig(
        command="probe", system={**STRICT_SYSTEM, "space": {"kind": "circle",
                                                             "grid_resolution": 16}},
        n_max=200, k_range=(-0.5, 0.5, 0.1), out=str(tmp_path / "r")))
    assert code == 0
    reports = report["payload"]["reports"]
    assert [r["k"] for r in reports] == [-0.5 + i * 0.1 for i in range(11)]
    assert reports[5]["k"] == 0.0 and reports[5]["verdict"] != VERDICT_ESCAPE
    assert reports[-1]["k"] == 0.5


def test_a_float_near_an_exact_gap_is_classified_exactly(tmp_path):
    # float(1/3) lies below 1/3, so it is admissible, and its probe escapes
    system = {"space": {"kind": "finite", "size": 1},
              "map": {"type": "permutation", "table": [0]}, "factor": ["1/3"]}
    k = float(Fraction(1, 3))
    adm, code = cli.run(cli.RunConfig(command="admissible", system=system, n_max=4, k=k,
                                      out=str(tmp_path / "a")))
    assert code == 0 and adm["payload"]["admissible_set"]["exact"] is True
    assert adm["payload"]["admissible_set"]["tolerance"] == 0.0
    assert adm["payload"]["classifications"] == [{"k": k, "verdict": "admissible"}]
    probe, code = cli.run(cli.RunConfig(command="probe", system=system, n_max=4, k=k,
                                        out=str(tmp_path / "p")))
    assert code == 0 and probe["payload"]["reports"][0]["verdict"] == VERDICT_ESCAPE


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
    def broken(config, sys_, out_dir):
        raise KeyError("not a config problem")

    monkeypatch.setitem(cli._HANDLERS, "rank", broken)
    config = cli.RunConfig(command="rank", params={"generators": ["1"]},
                           out=str(tmp_path / "r"))
    with pytest.raises(KeyError):
        cli.run(config)


@pytest.mark.parametrize("command,field,value", [
    ("optimize", "params", [1]),  # was an AttributeError from params.get
    ("elasticity", "tolerances", 5),  # was an AttributeError from tolerances.get
])
def test_non_object_params_and_tolerances_exit_2(tmp_path, capsys, command, field, value):
    data = {"command": command, "system": CONST_SYSTEM, "k": 1.0, field: value}
    report, code = cli.run(cli.RunConfig(**data, out=str(tmp_path / "run")))
    assert code == 2 and report["error"].startswith(f"{field} must be an object")
    cfg = write_config(tmp_path, "bad.json", **data)
    assert run_cli(["--config", cfg, "--out", str(tmp_path / "main")]) == 2
    diag = _diag_of(capsys)
    assert diag["error"] == "ValidationError" and diag["message"].startswith(field)


def _strict_elasticity(tmp_path, name, **extra):
    params = {"t_window": [-2, 2], **extra}
    return cli.run(cli.RunConfig(command="elasticity", system=STRICT_SYSTEM, k=1.0,
                                 params=params, out=str(tmp_path / name)))


@pytest.mark.parametrize("value", ["no", 1, []])
def test_strict_mu_must_be_a_boolean(tmp_path, capsys, value):
    # bool("no") is True: the string used to switch the strict profile on
    report, code = _strict_elasticity(tmp_path, "r", strict_mu=value)
    assert code == 2 and report["error"].startswith("params.strict_mu must be true or false")
    assert _diag_of(capsys)["error"] == "ValidationError"


def test_strict_mu_booleans_keep_their_payloads(tmp_path):
    from lcsdyn import elastic

    sys_ = cli.system_from_config(STRICT_SYSTEM)
    for flag in (True, False):
        report, code = _strict_elasticity(tmp_path, str(flag), strict_mu=flag)
        assert code == 0
        profile = elastic.mapping_torus_profile(sys_, 1.0, (-2, 2), n_scan=64, strict_mu=flag)
        es = elastic.elasticity_from_profile(profile, gap_resolution=1e-3)
        assert report["payload"]["elasticity"] == encoded(es)
    default, code = _strict_elasticity(tmp_path, "default")
    assert code == 0 and default["payload"] == report["payload"]


def _golden_circle(factor):
    return {"space": {"kind": "circle", "grid_resolution": 1024},
            "map": {"type": "rotation", "angle": "golden"}, "factor": factor}


@pytest.mark.parametrize("system,k", [
    (_golden_circle({"type": "coboundary", "f": {"type": "trig", "sin": [[1, 1.0]]}}), 1.0),
    (_golden_circle({"type": "trig", "cos": [[1, 1.0]]}), -1.5),
])
def test_factored_elasticity_payload_is_that_of_its_array(tmp_path, monkeypatch, system, k):
    # the construction benchmark's elasticity configs at full size (4097 x
    # 512 samples): the factored profile, reduced over its distinct slopes
    # and values, gives the payload of the array of all its samples; the
    # seed reaches no part of the profile
    from lcsdyn import elastic

    def run(name, seed):
        return cli.run(cli.RunConfig(command="elasticity", system=system, k=k, seed=seed,
                                     params={"t_window": [-2, 2]}, out=str(tmp_path / name),
                                     cache_dir=str(tmp_path / name / "cache")))

    factored = [run(f"seed{seed}", seed) for seed in (1, 2)]
    real = elastic.mapping_torus_profile

    def array_profile(*args, **kwargs):
        return elastic.LiouvilleProfile(real(*args, **kwargs).samples,
                                        lambda_nonvanishing=True)

    monkeypatch.setattr(elastic, "mapping_torus_profile", array_profile)
    array = run("array", 1)
    assert [code for _, code in factored] == [0, 0] and array[1] == 0
    assert array[0]["payload"]["profile_summary"]["samples"] == 4097 * 512
    assert factored[0][0]["payload"] == factored[1][0]["payload"] == array[0]["payload"]


@pytest.mark.parametrize("system,k", [(STRICT_SYSTEM, 0.5), (TORUS_SYSTEM, 0.1),
                                      (FINITE_SYSTEM, 1.5)])
def test_probe_trace_matches_scalar_action_walk(tmp_path, system, k):
    # the rows are action_orbit's arrays from the trace's own start, as
    # trace.csv formats them; oracle: the scalar action (x, t) -> (psi x,
    # t + k - h(x)), stepped one point at a time
    from lcsdyn import torus

    out = str(tmp_path / "r")
    report, code = cli.run(cli.RunConfig(command="probe", system=system, n_max=40, k=k,
                                         out=out))
    assert code == 0
    with open(os.path.join(out, "trace.csv")) as fh:
        rows = fh.read().splitlines()
    assert len(rows) == 42 and rows[0] == "n,x,t"
    sys_ = cli.system_from_config(system)
    x = [float(c) for c in rows[1].split(",")[1].split(":")]
    x = int(x[0]) if sys_.space.kind == "finite" else x[0] if len(x) == 1 else np.array(x)
    xs, ts = torus.action_orbit(sys_, x, 0.0, k, 40)
    psi, h = scalar_map(sys_), scalar_factor(sys_)
    t = 0.0
    for n, (row, t_n) in enumerate(zip(rows[1:], ts.tolist())):
        coords = np.atleast_1d(np.asarray(xs[n], dtype=float)).tolist()
        # a finite state is its decimal, a point its coordinates' reprs
        cell = str(xs[n]) if sys_.space.kind == "finite" else ":".join(map(repr, coords))
        assert row == f"{n},{cell},{t_n!r}"
        d = np.abs(np.atleast_1d(np.asarray(x, dtype=float)) - coords)
        assert np.minimum(d, 1 - d).max() <= 1e-12 and abs(t_n - t) <= 1e-12
        x, t = psi(x), t + k - float(h(x))


def test_trace_and_birkhoff_csv_write_a_state_as_one_cell(tmp_path):
    # trace.csv wrote a finite state as a float ("3.0"), birkhoff.csv as "3"
    from lcsdyn import torus

    system = {"space": {"kind": "finite", "size": 5},
              "map": {"type": "permutation", "table": [1, 2, 0, 4, 3]},
              "factor": [0, "1/2", "1/4", "-1/2", "1/3"]}
    for command, k in (("probe", 0.5), ("analyze", None)):
        report, code = cli.run(cli.RunConfig(command=command, system=system, k=k, n_max=12,
                                             out=str(tmp_path / command)))
        assert code == 0, report
    sys_ = cli.system_from_config(system)
    table = (tmp_path / "analyze" / "birkhoff.csv").read_text().splitlines()[1:]
    points = np.repeat(sys_.space.sample_points(), 12).tolist()  # point-major rows
    cells = {p: row.split(",")[0] for p, row in zip(points, table)}
    assert cells == {s: str(s) for s in range(5)}
    trace = (tmp_path / "probe" / "trace.csv").read_text().splitlines()[1:]
    xs, _ = torus.action_orbit(sys_, sys_.space.sample_points(1)[0], 0.0, 0.5, 12)
    assert [row.split(",")[1] for row in trace] == [cells[s] for s in xs.tolist()]


@pytest.mark.parametrize("k", [1e308, -1e308, sys.float_info.max])
def test_probe_at_a_huge_size_writes_its_trace(tmp_path, k):
    # k t overflowed in the recurrence scan (and at the float maximum so did
    # the band's tolerance), and the suite's filterwarnings = error turned the
    # warning into an exception out of cli.run
    out = tmp_path / "r"
    report, code = cli.run(cli.RunConfig(command="probe", system=GOLDEN_COS, n_max=5,
                                         k=k, out=str(out)))
    assert code == 0
    [r] = report["payload"]["reports"]
    assert (r["verdict"], r["certificate"], r["escape_bound"]) == (VERDICT_ESCAPE,
                                                                  "envelope", 2)
    rows = (out / "trace.csv").read_text().splitlines()
    assert len(rows) == 7 and float(rows[2].split(",")[2]) == k - 1.0
    assert [row.split(",")[2] for row in rows[3:]] == [repr(math.copysign(math.inf, k))] * 4


def test_a_factor_spec_without_a_type_exits_2(tmp_path, capsys):
    # it was read as the constant 0 (its "const" is no constant's "value"),
    # and analyze exited 0 with L- = L+ = 0
    system = dict(GOLDEN_COS, factor={"const": 0.1, "cos": [[1, 1.0]]})
    report, code = cli.run(cli.RunConfig(command="analyze", system=system, n_max=20,
                                         out=str(tmp_path / "r")))
    assert code == 2 and "misses 'type'" in report["error"]
    assert _diag_of(capsys)["error"] == "ValidationError"


@pytest.mark.parametrize("system,path", [
    # each of these ran to exit 0 with its key dropped
    (dict(GOLDEN_COS, space={"kind": "circle", "gird": 64}), "system.space.gird"),
    (dict(GOLDEN_COS, factor={"type": "trig", "terms": [[1, 0, 1.0, 0.0]]}),
     "system.factor.terms"),
    (dict(GOLDEN_COS, map={"type": "rotation", "angel": 0.5}), "system.map.angel"),
    (dict(GOLDEN_COS, label="golden"), "system.label"),
    (dict(TORUS_SYSTEM, factor={"type": "coboundary", "f": {"type": "trig2", "cos": []}}),
     "system.factor.f.cos"),
    (dict(STRICT_SYSTEM, factor={"type": "coboundary", "f": 0.5, "bsae": 0.1}),
     "system.factor.bsae"),
    (dict(FINITE_SYSTEM, factor={"type": "table", "values": [0, 4, 1], "scale": 2}),
     "system.factor.scale"),
])
def test_an_unknown_system_key_exits_2_and_names_its_path(tmp_path, capsys, system, path):
    report, code = cli.run(cli.RunConfig(command="analyze", system=system, n_max=20,
                                         out=str(tmp_path / "r")))
    assert code == 2 and report["error"].startswith(f"unknown key {path};")
    assert _diag_of(capsys)["error"] == "ValidationError"


@pytest.mark.parametrize("system,field", [
    # both ran to exit 0: the size was never read, nor the type of a table
    (dict(FINITE_SYSTEM, space={"kind": "finite", "size": 4}), "system.space.size"),
    (dict(FINITE_SYSTEM, factor={"type": "trig", "values": [0, 4, 1]}), "system.factor.type"),
])
def test_a_finite_space_checks_its_size_and_table_type(tmp_path, capsys, system, field):
    report, code = cli.run(cli.RunConfig(command="analyze", system=system, n_max=6,
                                         out=str(tmp_path / "r")))
    assert code == 2 and field in report["error"]


def test_a_coboundary_with_a_base_is_the_library_coboundary_system(tmp_path):
    # the base was dropped: analyze gave L+- = +-0.09 with error_bound 0.2,
    # a telescoping bound of f alone, although L+- = 0.3 +- 0.09
    sin = {"type": "trig", "sin": [[1, 1.0]]}
    system = dict(GOLDEN_COS, factor={"type": "coboundary", "base": 0.3, "f": sin})
    sys_ = cli.system_from_config(system)
    lib = coboundary_system(rotation_system("golden", 0.3, grid_resolution=64), sin)
    assert sys_.factor == lib.factor and sys_.generating_f is None
    pts = sys_.space.sample_points()
    assert np.array_equal(orbit_array(sys_, pts, 20), orbit_array(lib, pts, 20))
    report, code = cli.run(cli.RunConfig(command="analyze", system=system, n_max=20,
                                         out=str(tmp_path / "r")))
    est = report["payload"]["limit_estimate"]
    want = limit_estimates(birkhoff_table(lib, None, 20))
    assert code == 0 and est["error_bound"] == "heuristic"
    assert (est["L_minus"], est["L_plus"]) == (want.L_minus, want.L_plus)
    assert est["L_minus"] < 0.3 < est["L_plus"] and est["L_plus"] - est["L_minus"] < 0.2


@pytest.mark.parametrize("k", [1e308, -1e308])
def test_construct_refuses_a_size_whose_t_k_overflows(tmp_path, capsys, k):
    # g + t k - target overflowed inside sigma inversion (a RuntimeWarning,
    # an exception under filterwarnings = error), and the run reported
    # mu_residual 0.0
    report, code = cli.run(cli.RunConfig(command="construct", system=GOLDEN_COS, k=k, grid=64,
                                         params={"t_window": [-2, 2]},
                                         out=str(tmp_path / "r")))
    assert code == 3 and _diag_of(capsys)["error"] == "BudgetError"
    assert report["error"].startswith(f"k = {k} is too large for t_window [-2.0, 2.0]")
    report, code = cli.run(cli.RunConfig(command="construct", system=GOLDEN_COS, k=k * 1e-108,
                                         grid=64, params={"t_window": [-2, 2]},
                                         out=str(tmp_path / "s")))
    assert code == 0


@pytest.mark.parametrize("text", ["[1]", "null", '"analyze"', "3"])
def test_config_file_that_is_not_an_object_exits_2(tmp_path, capsys, text):
    # a list used to end in AttributeError: 'list' object has no attribute 'get'
    cfg = tmp_path / "list.json"
    cfg.write_text(text)
    assert run_cli(["--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
    diag = _diag_of(capsys)
    assert diag["error"] == "ValidationError"
    assert "must hold a JSON object" in diag["message"]


@pytest.mark.parametrize("data,field", [
    # each ran: float() read true as 1.0 and parsed numeric strings
    ({"command": "admissible", "system": FINITE_SYSTEM, "k": True}, "k"),
    ({"command": "admissible", "system": FINITE_SYSTEM, "k": "1e-3"}, "k"),
    ({"command": "admissible", "system": FINITE_SYSTEM, "k_range": [0, "1", 0.5]},
     "k_range entry"),
    ({"command": "admissible", "system": FINITE_SYSTEM, "k_range": [False, 1, 0.5]},
     "k_range entry"),
    ({"command": "construct", "system": CONST_SYSTEM, "k": 1.0,
      "params": {"t_window": [True, "2"]}}, "params.t_window entry"),
    ({"command": "admissible", "system": CONST_SYSTEM, "k": 1.0,
      "tolerances": {"tol_inverse": True}}, "tolerances.tol_inverse"),
    ({"command": "admissible", "system": CONST_SYSTEM, "k": 1.0,
      "tolerances": {"tol_inverse": "1e-9"}}, "tolerances.tol_inverse"),
    ({"command": "elasticity", "params": {"profile_csv": "PROFILE"},
      "tolerances": {"gap_resolution": True}}, "tolerances.gap_resolution"),
    ({"command": "elasticity", "params": {"profile_csv": "PROFILE"},
      "tolerances": {"gap_resolution": "0.001"}}, "tolerances.gap_resolution"),
])
def test_booleans_and_strings_are_not_numbers(tmp_path, capsys, data, field):
    prof = tmp_path / "prof.csv"
    prof.write_text("u\n-1.0\n-0.5\n")
    if "profile_csv" in data.get("params", {}):
        data = dict(data, params={"profile_csv": str(prof)})
    cfg = write_config(tmp_path, "n.json", n_max=20, **data)
    assert run_cli(["--config", cfg, "--out", str(tmp_path / "r")]) == 2
    diag = _diag_of(capsys)
    assert diag["error"] == "ValidationError"
    assert diag["message"].startswith(f"{field} must be a")


@pytest.mark.parametrize("system,spec,named", [
    # ran as 1 + 0.5 cos 2 pi x: int() truncated 1.9, float() read true and "0.5"
    (CONST_SYSTEM, {"type": "trig", "const": True, "cos": [[1.9, "0.5"]]}, None),
    (CONST_SYSTEM, {"type": "trig", "cos": [[1, "0.5"]]}, None),
    (CONST_SYSTEM, {"type": "trig", "cos": [[1.9, 0.5]]}, None),
    (CONST_SYSTEM, {"type": "trig", "sin": [[True, 0.5]]}, None),
    (CONST_SYSTEM, {"type": "trig", "sin": [[1, 0.5, 2]]}, None),
    (CONST_SYSTEM, {"type": "constant", "value": "0.2"}, None),
    (CONST_SYSTEM, {"type": "constant", "value": False}, None),
    (CONST_SYSTEM, True, None),  # ran as the constant 1.0
    # a frequency of 0.5 became 0, a constant term
    (TORUS_SYSTEM, {"type": "trig2", "terms": [[0.5, 0, 1.0, 0.0]]}, None),
    (TORUS_SYSTEM, {"type": "trig2", "terms": [[1, 0, 1.0, True]]}, None),
    (TORUS_SYSTEM, True, None),
    (STRICT_SYSTEM, {"type": "coboundary", "f": {"type": "trig", "sin": [[1, "1.0"]]}},
     {"type": "trig", "sin": [[1, "1.0"]]}),
])
def test_factor_specs_neither_truncate_nor_coerce(tmp_path, capsys, system, spec, named):
    cfg = write_config(tmp_path, "f.json", command="analyze", n_max=5,
                       system=dict(system, factor=spec))
    assert run_cli(["--config", cfg, "--out", str(tmp_path / "r")]) == 2
    diag = _diag_of(capsys)
    assert diag["error"] == "ValidationError"
    assert repr(spec if named is None else named) in diag["message"]


TORUS_COBOUNDARY = dict(TORUS_SYSTEM, factor={
    "type": "coboundary", "f": {"type": "trig2", "terms": [[1, 0, 1.0, 0.0]]}})


def test_torus_coboundary_is_a_stored_coboundary(tmp_path):
    # exited 2 with "nested coboundary factors are not supported"
    bounds = []
    for name, system in (("cob", TORUS_COBOUNDARY), ("trig2", TORUS_SYSTEM)):
        cfg = write_config(tmp_path, f"{name}.json", command="analyze", system=system,
                           n_max=40)
        out = str(tmp_path / f"analyze-{name}")
        assert run_cli(["--config", cfg, "--out", out]) == 0
        bounds.append(load_report(out)["payload"]["limit_estimate"]["error_bound"])
    # |S_n| <= max f - min f: the sampled telescoping bound 2 (max f - min f) / n
    assert bounds[0] == pytest.approx(2 * 2.0 / 40) and bounds[1] == "heuristic"
    cfg = write_config(tmp_path, "probe.json", command="probe", system=TORUS_COBOUNDARY,
                       n_max=40, k=1.0)
    out = str(tmp_path / "probe")
    assert run_cli(["--config", cfg, "--out", out]) == 0
    (rep,) = load_report(out)["payload"]["reports"]
    assert rep["certificate"] == "telescoping-bound" and rep["verdict"] == VERDICT_ESCAPE


def test_readme_config_examples_build_their_systems():
    # README's config examples follow the parser: every fenced json block
    # with a "system" builds that system
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        blocks = re.findall(r"^```json\n(.*?)^```", fh.read(), re.S | re.M)
    configs = [c for c in map(json.loads, blocks) if "system" in c]
    assert len(configs) >= 2
    for config in configs:
        sys_ = cli.system_from_config(config["system"], config.get("tolerances"))
        assert sys_.space.kind == config["system"]["space"]["kind"]


@pytest.mark.parametrize("grid", [
    [0.0, 0.5, 0.25, 0.1],  # exited 0 with minmax = maxmin = cos(2 pi 0.1): node 3 a fixed point
    {"grid": 8, "seeds": [0.3, 0.77]},  # exited 0 with a wrong value
])
def test_grid_descent_refuses_a_sample_that_is_not_a_regular_grid(tmp_path, capsys, grid):
    report, code = cli.run(cli.RunConfig(command="optimize", system=GOLDEN_COS, grid=grid,
                                         params={"method": "grid_descent"},
                                         out=str(tmp_path / "run")))
    assert code == 2 and "grid must be an int" in report["error"]
    assert _diag_of(capsys)["error"] == "ValidationError"
    report, code = cli.run(cli.RunConfig(command="optimize", system=GOLDEN_COS, grid=8,
                                         params={"method": "grid_descent"},
                                         out=str(tmp_path / "int")))
    # the snapped rotation by 5 of 8 nodes is one 8-cycle, of mean 0
    assert code == 0 and abs(report["payload"]["minmax"]["value"]) < 1e-12


@pytest.mark.parametrize("flag", [True, False])
def test_elasticity_refuses_k_zero_on_both_branches(tmp_path, capsys, flag):
    # the strict profile never read k: it exited 0 with forbidden [[0.0, 0.0]]
    report, code = cli.run(cli.RunConfig(command="elasticity", system=STRICT_SYSTEM, k=0.0,
                                         params={"t_window": [-2, 2], "strict_mu": flag},
                                         out=str(tmp_path / "run")))
    assert code == 3
    assert report["error"] == "the cocycle -k t o sigma^{-1} degenerates at k = 0"
    assert _diag_of(capsys)["error"] == "NotFoundError"


@pytest.mark.parametrize("field,value", [
    ("n_max", "5"),  # was a TypeError traceback
    ("n_max", 2.0),  # was a TypeError traceback
    ("n_max", True),  # ran with n_max 1
    ("seed", "x"),  # ran with exit 0
    ("strict_verdict", "yes"),  # ran with exit 0
])
def test_run_checks_the_fields_a_library_caller_sets(tmp_path, capsys, field, value):
    data = {"command": "analyze", "system": CONST_SYSTEM, "n_max": 6, field: value}
    config = cli.RunConfig(**data, out=str(tmp_path / "r"))
    report, code = cli.run(config)
    assert code == 2 and report["error"].startswith(f"{field} must be")
    assert not os.path.exists(tmp_path / "r")  # refused before the cache lookup


@pytest.mark.parametrize("data,message", [
    ({"nmax": 5}, "unknown key nmax;"),  # ran with n_max 200
    ({"params": {"t_windw": [-2, 2]}}, "params.t_windw is not read by construct"),  # ignored
    ({"tolerances": {"gap_res": 0.1}}, "tolerances.gap_res is not read by construct"),
], ids=["data0-nmax", "data1-params.t_windw", "data2-tolerances.gap_res"])
def test_a_key_that_no_command_reads_exits_2(tmp_path, capsys, data, message):
    cfg = write_config(tmp_path, "c.json", **{**_CONSTRUCT, **data})
    assert run_cli(["--config", cfg, "--out", str(tmp_path / "r")]) == 2
    diag = _diag_of(capsys)
    assert diag["error"] == "ValidationError" and diag["message"].startswith(message)


def test_a_key_of_another_command_exits_2(tmp_path, capsys):
    # one file used to serve every --command: analyze ignored construct's t_window
    cfg = write_config(tmp_path, "c.json", **{**_CONSTRUCT, "tolerances": {"tol_inverse": 1e-9}})
    assert run_cli(["--config", cfg, "--out", str(tmp_path / "construct"), "--n-max", "6"]) == 0
    assert run_cli(["--config", cfg, "--command", "analyze",
                    "--out", str(tmp_path / "analyze"), "--n-max", "6"]) == 2
    diag = _diag_of(capsys)
    assert diag["error"] == "ValidationError"
    assert diag["message"].startswith("k is not read by analyze, which reads system, ")


@pytest.mark.parametrize("data,message", [
    # each exited 0, the unread values hashed into the cache key
    ({"command": "analyze", "system": CONST_SYSTEM,
      "params": {"t_window": "abc", "n_scan": -3}}, "params.t_window is not read by analyze"),
    ({"command": "construct", "system": CONST_SYSTEM, "k": 1.0, "k_range": [0, 1, 0.5],
      "params": {"method": "nonsense"}}, "k_range is not read by construct"),
    ({"command": "construct", "system": CONST_SYSTEM, "k": 1.0,
      "params": {"method": "nonsense"}}, "params.method is not read by construct"),
    ({"command": "analyze", "system": CONST_SYSTEM, "tolerances": {"gap_resolution": -1}},
     "tolerances.gap_resolution is not read by analyze"),
    ({"command": "analyze", "system": CONST_SYSTEM, "k": 0.5}, "k is not read by analyze"),
    ({"command": "probe", "system": CONST_SYSTEM, "k": 0.5, "grid": 7},
     "grid is not read by probe"),
    ({"command": "rank", "params": {"generators": ["1"], "t_window": "x"}},
     "params.t_window is not read by rank"),
    ({"command": "elasticity", "system": CONST_SYSTEM, "k": 1.0,
      "params": {"profile_csv": "PROFILE", "strict_mu": True}},
     "system is not read by elasticity from params.profile_csv"),
])
def test_a_key_the_command_does_not_read_exits_2(tmp_path, capsys, data, message):
    prof = tmp_path / "prof.csv"
    prof.write_text("u\n-1.0\n-0.5\n")
    if "profile_csv" in data.get("params", {}):
        data = dict(data, params={**data["params"], "profile_csv": str(prof)})
    cfg = write_config(tmp_path, "c.json", n_max=6, **data)
    assert run_cli(["--config", cfg, "--out", str(tmp_path / "r")]) == 2
    diag = _diag_of(capsys)
    assert diag["error"] == "ValidationError" and diag["message"].startswith(message)
    assert not os.path.exists(tmp_path / "r")  # refused before the cache lookup


@pytest.mark.parametrize("path", ["system", "k", "grid", "params.t_window", "params.n_scan",
                                  "params.strict_mu", "tolerances.tol_inverse"])
def test_a_profile_elasticity_reads_only_the_profile_and_gap_resolution(tmp_path, capsys,
                                                                        path):
    # the system was built and never read, and strict_mu: true was ignored
    prof = tmp_path / "prof.csv"
    prof.write_text("u\n-1.0\n-0.5\n")
    config = _config_with("elasticity", {"params.profile_csv": str(prof)}, path,
                          GOOD_VALUES[path], tmp_path)
    report, code = cli.run(config)
    assert code == 2
    assert report["error"].startswith(f"{path} is not read by elasticity from "
                                      "params.profile_csv, which reads params.profile_csv, "
                                      "tolerances.gap_resolution")
    assert _diag_of(capsys)["error"] == "ValidationError"


#: a value that each key's command runs with, and one that its reader refuses
GOOD_VALUES = {
    "system": CONST_SYSTEM, "grid": 8, "k": 1.0, "k_range": [0.5, 1.0, 0.5],
    "params.starts": [0.25], "params.method": "birkhoff_fn", "params.n": 4,
    "params.t_window": [-2, 2], "params.n_scan": 8, "params.strict_mu": True,
    "params.profile_csv": "prof.csv", "params.generators": ["1"],
    "tolerances.tol_inverse": 1e-9, "tolerances.gap_resolution": 1e-3,
}
BAD_VALUES = {
    "system": "circle", "grid": 0, "k": "1", "k_range": [0, 1], "params.starts": 2.5,
    "params.method": "nonsense", "params.n": 0, "params.t_window": 5, "params.n_scan": -3,
    "params.strict_mu": "yes", "params.profile_csv": 7, "params.generators": "1",
    "tolerances.tol_inverse": -1, "tolerances.gap_resolution": 0,
}
#: the keys without which each entry of cli.COMMAND_KEYS does not run
NEEDED = {"analyze": ("system",), "admissible": ("system",), "probe": ("system", "k"),
          "optimize": ("system",), "construct": ("system", "k"),
          "elasticity": ("system", "k"), cli.PROFILE_ELASTICITY: ("params.profile_csv",),
          "rank": ("params.generators",)}


def _config_with(command, keys, path, value, tmp_path):
    """A RunConfig of ``command`` with ``keys`` and ``path`` set to ``value``."""
    data = {"command": "elasticity" if command == cli.PROFILE_ELASTICITY else command,
            "n_max": 6, "params": {}, "tolerances": {}}
    for key, v in {**keys, path: value}.items():
        group, _, name = key.rpartition(".")
        if group:
            data[group][name] = v
        else:
            data[name] = v
    return cli.RunConfig(**data, out=str(tmp_path / "r"), cache_dir=str(tmp_path / "c"))


@pytest.mark.parametrize("command", list(cli.COMMAND_KEYS))
def test_each_key_a_command_reads_refuses_a_bad_value_by_its_path(tmp_path, capsys, command):
    assert set(BAD_VALUES) == {p for keys in cli.COMMAND_KEYS.values() for p in keys}
    needed = {p: GOOD_VALUES[p] for p in NEEDED[command]}
    for path in cli.COMMAND_KEYS[command]:
        report, code = cli.run(_config_with(command, needed, path, BAD_VALUES[path], tmp_path))
        assert code == 2 and report["error"].startswith(f"{path} "), (path, report)
        assert _diag_of(capsys)["error"] == "ValidationError"


@pytest.mark.parametrize("command", list(cli.COMMAND_KEYS))
def test_each_key_only_other_commands_read_exits_2_naming_it(tmp_path, capsys, command):
    needed = {p: GOOD_VALUES[p] for p in NEEDED[command]}
    others = [p for p in GOOD_VALUES if p not in cli.COMMAND_KEYS[command]
              and not (command == "elasticity" and p == "params.profile_csv")]
    assert others
    for path in others:
        report, code = cli.run(_config_with(command, needed, path, GOOD_VALUES[path], tmp_path))
        assert code == 2, (path, report)
        assert report["error"].startswith(f"{path} is not read by {command}, which reads ")
        assert _diag_of(capsys)["error"] == "ValidationError"


@pytest.mark.parametrize("seed", [2**40, 2**63 - 1])
def test_a_large_seed_is_not_an_orbit_order(tmp_path, seed):
    # the seed draws the mu residual's sample; no iteration budget bounds it
    report, code = cli.run(cli.RunConfig(**_CONSTRUCT, seed=seed, out=str(tmp_path / "r")))
    assert code == 0 and report["payload"]["mu_residual"] < 1e-9


@pytest.mark.parametrize("system,data", [
    (CONST_SYSTEM, {"command": "analyze", "grid": ["0.5"]}),  # ran on 0.5
    (CONST_SYSTEM, {"command": "probe", "k": 1.0,
                    "params": {"starts": ["0.25", "0.5"]}}),  # was taken
    (CONST_SYSTEM, {"command": "analyze", "grid": [0.1, True]}),  # NumPy reads 1.0
    (FINITE_SYSTEM, {"command": "analyze", "grid": [True, "2"]}),  # ran on states 1 and 2
])
def test_a_point_that_is_a_string_or_a_boolean_exits_2(tmp_path, capsys, system, data):
    cfg = write_config(tmp_path, "c.json", system=system, n_max=6, **data)
    assert run_cli(["--config", cfg, "--out", str(tmp_path / "r")]) == 2
    assert _diag_of(capsys)["error"] == "DomainError"
