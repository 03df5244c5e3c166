"""The scripts under scripts/ run end to end at tiny sizes.

Each runs as a subprocess on this checkout's src/, so a public name a script
imports cannot be removed or renamed without a test failing.
"""

import csv
import json
import os
import subprocess
import sys

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


def test_elasticity_vs_size(tmp_path):
    out = tmp_path / "sweep"
    proc = run_script("elasticity_vs_size.py", "--out", str(out), "--k-values", "1.0")
    assert proc.returncode == 0, proc.stderr
    assert os.listdir(out) == ["elasticity_vs_k.csv"]
    rows = read_csv(out / "elasticity_vs_k.csv")
    assert rows[0] == ["k", "forbidden_lo", "forbidden_hi", "scaled_lo", "scaled_hi"]
    assert [row[0] for row in rows[1:]] == ["1.0"]
