"""Pooled campaigns and sweeps give the same bits under every start method.

The worker pool builds its ``ProcessPoolExecutor`` with the platform's
default start method: ``fork`` on Linux up to Python 3.13, ``forkserver``
from 3.14, ``spawn`` on macOS and Windows.  Workers started by ``spawn`` or
``forkserver`` inherit no parent state, so anything a worker reads from
module globals set up by the parent would show here as a difference.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = """
import json
import multiprocessing
import sys
from dataclasses import asdict


def main(method):
    multiprocessing.set_start_method(method)
    from repro.eval.experiment import Evaluator
    from repro.faults.injector import run_campaign
    from repro.machine.config import MachineConfig
    from repro.pipeline import Scheme, compile_program
    from repro.workloads import get_workload

    machine = MachineConfig(issue_width=2, inter_cluster_delay=2)
    cp = compile_program(get_workload("mcf").program, Scheme.CASTED, machine)
    res = run_campaign(
        cp.program, trials=100, seed=7, mem_words=cp.mem_words,
        frame_words=cp.frame_words, jobs=2,
    )
    campaign = {
        "counts": {o.value: n for o, n in sorted(res.counts.items(), key=str)},
        "trials": res.trials,
        "faults": res.total_faults_injected,
        "latency": [res.detection_latency_sum, res.detections_timed],
    }
    points = [("mcf", s, 2, 2) for s in ("noed", "sced", "casted")]
    rows = Evaluator(seed=5, cache=False).sweep(points, trials=30, jobs=2)
    sweep = [
        {"perf": asdict(r["perf"]), "coverage": asdict(r["coverage"])}
        for r in rows
    ]
    print(json.dumps({"campaign": campaign, "sweep": sweep}, sort_keys=True))


if __name__ == "__main__":
    main(sys.argv[1])
"""


def run_under(method: str, tmp_path: Path) -> dict:
    script = tmp_path / "start_method_probe.py"
    script.write_text(SCRIPT)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src, REPRO_CACHE="0")
    proc = subprocess.run(
        [sys.executable, str(script), method],
        env=env, capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def fork_result(tmp_path_factory) -> dict:
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("no fork start method on this platform")
    return run_under("fork", tmp_path_factory.mktemp("fork"))


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_same_bits_as_fork(method, fork_result, tmp_path):
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method on this platform")
    got = run_under(method, tmp_path)
    assert got == fork_result
    assert sum(fork_result["campaign"]["counts"].values()) == 100
