"""Smoke runs of the scripts under scripts/ with tiny arguments."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args, header", [
    ("transition_curve.py", ["--n", "20", "--reps", "20"],
     ["a", "mean_lambda_max", "predicted_location"]),
    ("law_table.py", ["--steps", "3"],
     ["T", "f0", "f1(alpha=-1)", "f1(alpha=0)", "f1(alpha=1)"]),
    ("gap_vs_montecarlo.py", ["--n", "8", "--reps", "200"],
     ["threshold", "gap_determinant", "gap_empirical"]),
], ids=["transition_curve", "law_table", "gap_vs_montecarlo"])
def test_script_runs(tmp_path, script, args, header):
    out = tmp_path / "out.csv"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args,
                           "--out", str(out)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rows = list(csv.reader(out.open()))
    assert rows[0] == header
    assert len(rows) > 1
