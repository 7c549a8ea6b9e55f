"""Running ``spectral-edge`` subcommands one at a time, each in a fresh process.

The command is ``python -m spectral_edge.cli`` with ``src`` on PYTHONPATH,
which is what the ``spectral-edge`` entry point runs.  Every command pays
process start, imports and its own support solve.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

WORK = Path(".perfbench") / "work"


@contextmanager
def workdir(workload: str, seed: int):
    """A fresh output directory for the run's commands, removed afterwards."""
    path = WORK / f"{workload}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def spectral_edge(tracer, outcome, label: str, command: str, argv: list, **attrs):
    """Run one subcommand; returns (op, span, ok)."""
    op = outcome.op(f"cli.{command}[{label}]")
    with tracer.span(f"cli.{command}", **attrs) as sp:
        proc = subprocess.run([sys.executable, "-m", "spectral_edge.cli", command, *argv],
                              capture_output=True, text=True, timeout=170)
    sp.attrs["exit"] = proc.returncode
    outcome.query_s.append(sp.duration)
    if proc.returncode != 0:
        tail = (proc.stderr.strip().splitlines() or ["(no stderr)"])[-1]
        op.fail(f"exit {proc.returncode}: {tail}")
    return op, sp, proc.returncode == 0


def read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def noise_bound(n_eff: float, delta: float = 1e-4) -> float:
    """DKW: the empirical CDF of n_eff independent draws is farther than
    this from the true CDF with probability below ``delta``."""
    return math.sqrt(math.log(2.0 / delta) / (2.0 * n_eff))


def autocorr_time(x) -> float:
    """Integrated autocorrelation time, Sokal's window M >= 5 tau."""
    import numpy as np

    x = np.asarray(x, dtype=float) - np.mean(x)
    k = x.size
    f = np.fft.rfft(x, n=2 * k)
    acf = np.fft.irfft(f * np.conj(f))[:k]
    if acf[0] <= 0:
        return 1.0
    rho = acf / acf[0]
    tau = 1.0
    for m in range(1, k):
        tau += 2.0 * rho[m]
        if m >= 5.0 * tau:
            break
    return max(tau, 1.0)
