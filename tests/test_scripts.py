"""Smoke runs of the scripts under scripts/ with tiny arguments."""

import csv
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from spectral_edge import finitemodel

ROOT = Path(__file__).resolve().parents[1]


def _run(tmp_path, script, args):
    """Run a script with ``--out out.csv``; returns its stdout and the path."""
    out = tmp_path / "out.csv"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args,
                           "--out", str(out)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, out


@pytest.mark.parametrize("script, args, header", [
    ("transition_curve.py", ["--n", "20", "--reps", "20"],
     ["a", "mean_lambda_max", "predicted_location"]),
    ("law_table.py", ["--steps", "3"],
     ["T", "f0", "f1(alpha=-1)", "f1(alpha=0)", "f1(alpha=1)"]),
    ("gap_vs_montecarlo.py", ["--n", "8", "--reps", "200"],
     ["threshold", "gap_determinant", "gap_determinant_raw", "gap_empirical"]),
], ids=["transition_curve", "law_table", "gap_vs_montecarlo"])
def test_script_runs(tmp_path, script, args, header):
    _, out = _run(tmp_path, script, args)
    rows = list(csv.reader(out.open()))
    assert rows[0] == header
    assert len(rows) > 1


def test_gap_script_reports_raw_determinants(tmp_path, monkeypatch, capsys):
    # the script runs in this process with its second determinant replaced
    # by 1.25, so that one raw value lies outside [0, 1] at any n and a
    real = finitemodel.gap_probability_raw
    calls = []

    def one_out_of_range(sk, intervals, *args, **kwargs):
        calls.append(intervals)
        raw = real(sk, intervals, *args, **kwargs)
        return 1.25 if len(calls) == 2 else raw

    monkeypatch.setattr(finitemodel, "gap_probability_raw", one_out_of_range)
    out = tmp_path / "out.csv"
    script = ROOT / "scripts" / "gap_vs_montecarlo.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--n", "16", "--a", "0.5",
                                      "--reps", "200", "--out", str(out)])
    runpy.run_path(str(script), run_name="__main__")
    stdout = capsys.readouterr().out
    rows = list(csv.DictReader(out.open()))
    raw = [float(r["gap_determinant_raw"]) for r in rows]
    clamped = [float(r["gap_determinant"]) for r in rows]
    assert len(calls) == len(rows) and raw[1] == 1.25
    # the clamped column is the raw one cut to [0, 1], to its 12 decimals
    assert all(abs(c - min(max(v, 0.0), 1.0)) < 1e-12 for c, v in zip(clamped, raw))
    outside = sum(not 0.0 <= v <= 1.0 for v in raw)
    assert outside > 0
    assert f"{outside} of {len(rows)} determinants outside [0, 1] clamped" in stdout


def test_bench_pairs_smoke():
    # the checkout against itself: one pair of law_query runs
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "bench_pairs.py"),
                           str(ROOT), str(ROOT), "--workload", "law_query", "--seeds", "1",
                           "--seconds", "0.1"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "## law_query" in lines
    assert sum(ln.split()[0] in ("setup_s", "job_s", "fail_frac") for ln in lines if ln) == 3
    seed = next(ln for ln in lines if ln.startswith("seed 1: "))
    assert seed.endswith("FAIL sets identical")
    assert any(ln.startswith("pooled base: ") for ln in lines)
    assert any(ln.startswith("pooled head: ") for ln in lines)
