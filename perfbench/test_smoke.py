"""Smoke test of the benchmark harness at tiny sizes.

    PYTHONPATH=src python -m pytest perfbench/test_smoke.py -q

Runs each workload for one untraced and one traced pass in-process, and checks
that the harness refuses to run outside a checkout.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_workload_passes_its_checks(workload, tmp_path):
    result = worker.measure(workload, seed=5, seconds=0, trace=True, run_dir=str(tmp_path),
                            size="tiny")
    assert [p["traced"] for p in result["passes"]] == [False, True]
    assert [(c[0], c[1]) for c in result["checks"] if not c[2]] == []
    assert result["passes"][0]["digests"] == result["passes"][1]["digests"]
    assert set(result["layers"]) == {name for name, _unit in tracing.PER_LAYER}
    assert result["layers"]["cli.misses"] > 0
    assert result["layers"]["core.eval_factor_calls"] > 0
    with open(tmp_path / "trace.json") as fh:
        assert json.load(fh)[0]["spans"]


@pytest.mark.xfail(strict=True, reason="known defect: a cache hit writes only report.json")
def test_cache_hit_writes_listed_csv_files(tmp_path):
    # Kept out of the workloads, whose steps must all pass; once this passes,
    # a cache-hit re-run step belongs back in float-orbits.
    from lcsdyn import cli

    (step, *_rest) = workloads.build("float-orbits", 5, "tiny")
    cache = str(tmp_path / "cache")
    for out in ("first", "hit"):
        report, code = cli.run(cli.RunConfig(**step.config, out=str(tmp_path / out),
                                             cache_dir=cache))
        assert code == 0
    assert report["provenance"]["cache_hit"] is True
    files = report["payload"]["csv_files"]
    assert files and all((tmp_path / "hit" / f).is_file() for f in files)


def test_same_seed_same_inputs():
    a = workloads.build("cycles", 7, "tiny")
    b = workloads.build("cycles", 7, "tiny")
    c = workloads.build("cycles", 8, "tiny")
    assert [s.config for s in a] == [s.config for s in b]
    assert a[0].config["system"] != c[0].config["system"]
    assert workloads.halving_cycle_lengths(2000)[0] == 1000
    assert sum(workloads.halving_cycle_lengths(2000)) == 2000


def test_tracing_restores_functions():
    from lcsdyn import birkhoff, core, torus

    before = (core.step_points, birkhoff.step_points, torus.eval_factor, torus.GConstruction.g)
    with tracing.installed(tracing.Tracer()):
        assert birkhoff.step_points is core.step_points is not before[0]
    assert (core.step_points, birkhoff.step_points, torus.eval_factor,
            torus.GConstruction.g) == before


def test_benchmark_json_matches_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == tracing.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "float-orbits",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
