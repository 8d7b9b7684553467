"""Compiled output and simulated cycles do not depend on ``PYTHONHASHSEED``.

``str`` hashing is seeded per process, so any pass that iterates a set of
block labels (or of other strings) can emit different code in different
processes.  This builds the check table -- 7 workloads x 4 schemes x
{iw2/d2, iw4/d3, iw1/d1}, NOED at iw2/d2 only: 70 compiled points -- in
two subprocesses with different hash seeds and compares the printed IR,
static cycles and simulated timing of every point.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

TABLE_SCRIPT = """
import hashlib, json
from repro.ir.printer import print_program
from repro.machine.config import MachineConfig
from repro.pipeline import Scheme, compile_program
from repro.sim.executor import VLIWExecutor
from repro.workloads import get_workload, workload_names

table = {}
for w in workload_names():
    program = get_workload(w).program
    for scheme in Scheme:
        for iw, d in ((2, 2), (4, 3), (1, 1)):
            if scheme is Scheme.NOED and (iw, d) != (2, 2):
                continue
            machine = MachineConfig(issue_width=iw, inter_cluster_delay=d)
            cp = compile_program(program, scheme, machine)
            run = VLIWExecutor(cp).run()
            table[f"{w}/{scheme.value}/iw{iw}d{d}"] = [
                hashlib.sha256(print_program(cp.program).encode()).hexdigest(),
                cp.stats.static_cycles, run.cycles, run.stall_cycles,
                run.dyn_instructions,
            ]
print(json.dumps(table))
"""


def build_table(hash_seed: str) -> dict[str, list]:
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", TABLE_SCRIPT],
        env=env, capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(proc.stdout)


def test_compiled_table_independent_of_hash_seed():
    first = build_table("0")
    assert len(first) == 70
    second = build_table("2")
    differ = sorted(k for k in first if first[k] != second[k])
    assert differ == []
