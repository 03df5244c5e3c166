"""The scripts under scripts/ run end to end at tiny sizes.

Each runs as a subprocess on this checkout's src/, so a public name a script
imports cannot be removed or renamed without a test failing.
"""

import csv
import json
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run([sys.executable, os.path.join(ROOT, "scripts", name), *args],
                          env=env, capture_output=True, text=True, timeout=120)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_strict_rotation_study(tmp_path):
    out = tmp_path / "strict"
    proc = run_script("strict_rotation_study.py", "--out", str(out), "--grid", "16",
                      "--n-max", "20", "--k-max", "0.5", "--k-step", "0.5")
    assert proc.returncode == 0, proc.stderr
    # 0.1 steps: the middle size is 0 exactly, which the probe finds recurrent
    fine = tmp_path / "fine"
    proc = run_script("strict_rotation_study.py", "--out", str(fine), "--grid", "16",
                      "--n-max", "20", "--k-max", "0.5", "--k-step", "0.1")
    assert proc.returncode == 0, proc.stderr
    rows = read_csv(fine / "phase.csv")[1:]
    assert [row[0] for row in rows] == [f"{i / 10:.4f}" for i in range(-5, 6)]
    assert rows[5][0] == "0.0000" and rows[5][1] != "EscapeCertified"
    assert sorted(os.listdir(out)) == ["envelopes.csv", "phase.csv", "summary.json"]
    envelopes = read_csv(out / "envelopes.csv")
    assert envelopes[0] == ["n", "min_avg", "max_avg", "inf_env_minus", "sup_env_plus"]
    assert [row[0] for row in envelopes[1:]] == [str(n) for n in range(1, 21)]
    phase = read_csv(out / "phase.csv")
    assert phase[0] == ["k", "verdict", "escape_bound", "witness_n"]
    assert [row[0] for row in phase[1:]] == ["-0.5000", "0.0000", "0.5000"]
    with open(out / "summary.json") as fh:
        summary = json.load(fh)
    assert set(summary) == {"limit_estimate", "construction_k1"}
    assert summary["limit_estimate"]["n_used"] == 20
    construction = summary["construction_k1"]
    assert construction["mu_residual"] <= 1e-7
    assert construction["g_residual"] <= 1e-9
    assert construction["slope_margin"] > 0


def test_elasticity_vs_size(tmp_path):
    out = tmp_path / "sweep"
    proc = run_script("elasticity_vs_size.py", "--out", str(out), "--k-values", "1.0")
    assert proc.returncode == 0, proc.stderr
    assert os.listdir(out) == ["elasticity_vs_k.csv"]
    rows = read_csv(out / "elasticity_vs_k.csv")
    assert rows[0] == ["k", "forbidden_lo", "forbidden_hi", "scaled_lo", "scaled_hi"]
    assert [row[0] for row in rows[1:]] == ["1.0"]


def test_payload_digests():
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads

    proc = run_script("payload_digests.py", "--seed", "5", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = [line.split(" ") for line in proc.stdout.splitlines()]
    assert all(len(f) == 4 and len(f[3]) == 64 and int(f[3], 16) >= 0 for f in lines)
    steps = [(w, s.label) for w in workloads.WORKLOADS for s in workloads.build(w, 5, "tiny")]
    assert [(w, s) for w, s, name, _ in lines if name == "payload"] == steps
    files = {(w, s, name) for w, s, name, _ in lines if name != "payload"}
    assert {("float-orbits", "probe-k-cos", "trace.csv"),
            ("cycles", "analyze-perm", "birkhoff.csv")} <= files
    # the same seed gives the same digests, one workload at a time too
    again = run_script("payload_digests.py", "--seed", "5", "--size", "tiny",
                       "--workload", "cycles")
    assert again.stdout.splitlines() == [" ".join(f) for f in lines if f[0] == "cycles"]


def test_payload_digests_against_a_saved_listing(tmp_path):
    args = ("--seed", "5", "--size", "tiny", "--workload", "cycles")
    listing = run_script("payload_digests.py", *args).stdout.splitlines()
    saved = tmp_path / "saved.txt"
    # the listing of every workload: the ones not run are not compared
    saved.write_text("float-orbits analyze-cat payload " + "0" * 64 + "\n"
                     + "\n".join(listing) + "\n")
    same = run_script("payload_digests.py", *args, "--against", str(saved))
    assert same.returncode == 0, same.stderr
    assert same.stdout == f"all {len(listing)} lines match {saved}\n"
    # one edited digest: the run exits 1 and prints that line, and only it
    w, step, name, digest = listing[1].split()
    edited = [*listing[:1], f"{w} {step} {name} {'f' * 64}", *listing[2:]]
    saved.write_text("\n".join(edited) + "\n")
    moved = run_script("payload_digests.py", *args, "--against", str(saved))
    assert moved.returncode == 1, moved.stderr
    assert moved.stdout.splitlines() == [f"differs {w} {step} {name} {digest} (saved {'f' * 64})"]
    # a line missing from the listing, and one the run does not make
    saved.write_text("\n".join([*listing[1:], f"{w} {step} extra.csv {digest}"]) + "\n")
    moved = run_script("payload_digests.py", *args, "--against", str(saved))
    assert moved.returncode == 1, moved.stderr
    assert moved.stdout.splitlines() == [f"missing {w} {step} extra.csv {digest}",
                                         f"added {listing[0]}"]


def test_bench_record(tmp_path):
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads

    out = tmp_path / "BENCH_0.json"
    proc = run_script("bench_record.py", "--pr", "0", "--seed", "5", "--runs", "1",
                      "--seconds", "0.05", "--workload", "construction", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    with open(out) as fh:
        record = json.load(fh)
    assert (record["pr"], record["seed"], record["runs"]) == (0, 5, 1)
    assert list(record["checkouts"]) == ["change"]
    (name, result), = record["checkouts"]["change"]["workloads"].items()
    assert name == "construction"
    assert result["checks_attempted"] > 0 and result["checks_failed"] == 0
    assert result["digests_repeat"] is True
    labels = [s.label for s in workloads.build("construction", 5)]
    assert list(result["step_s_median"]) == sorted(labels)
    assert sorted(result["digests"]) == sorted(labels)
    metrics = result["end_to_end"]
    assert set(metrics) == {"setup_s", "run_s", "slowest_cmd_s", "peak_rss_mib"}
    for m in metrics.values():
        assert len(m["values"]) == 1 and m["q1"] == m["median"] == m["q3"] == m["values"][0] > 0
    assert metrics["run_s"]["median"] == pytest.approx(sum(result["step_s_median"].values()))
    # two checkouts of one tree: one comparison line per metric and step,
    # a metric's with the change's pair wins and the parent's quartiles, a
    # step's with its digest, and no digest differs
    proc = run_script("bench_record.py", "--pr", "0", "--seed", "5", "--runs", "2",
                      "--seconds", "0.05", "--workload", "construction", "--out", str(out),
                      "--checkout", f"parent={ROOT}", "--checkout", f"change={ROOT}")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    lines = lines[lines.index(f"wrote {out}") + 1:]
    assert sorted(line.split(":")[0] for line in lines) == sorted(
        f"construction {name}" for name in [*metrics, *labels])
    with open(out) as fh:
        sides = {name: side["workloads"]["construction"]
                 for name, side in json.load(fh)["checkouts"].items()}
    number = r"(\d+(\.\d*)?(e[+-]\d+)?)"
    for line in lines:
        name = line.split(":")[0].split(" ")[1]
        if name in metrics:
            m = re.fullmatch(rf"construction {name}: parent {number}, change {number}, "
                             rf"[+-]\d+\.\d%, wins (\d)/2, parent q1 {number} q3 {number}", line)
            assert m, line
            parent, change = (sides[s]["end_to_end"][name] for s in ("parent", "change"))
            wins = sum(c < p for p, c in zip(parent["values"], change["values"]))
            assert int(m[7]) == wins
            assert (float(m[8]), float(m[11])) == pytest.approx(
                (parent["q1"], parent["q3"]), rel=1e-3)
        else:
            assert re.fullmatch(rf"construction {name}: parent {number}, change {number}, "
                                r"[+-]\d+\.\d%, digest same", line), line
