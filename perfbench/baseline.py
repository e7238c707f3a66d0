"""Run every workload once untraced and once traced; print every metric.

Usage, from the root of a checkout:

    python3 perfbench/baseline.py

It uses seed 1 and the run length in ``BENCHMARK.json``; to try another
seed, call ``perfbench/run.py`` directly.

Prints the interpreter version, the CPU count and one line per metric
with its unit, as a Markdown table; a per-layer metric that reads 0 is
a layer the workload does not call and is left out. ``error_rate`` is
``failed / attempted`` from the result line, and ``ref_ms`` is the
median time of the reference computation that the timed metrics count in. It exits 1 if any run fails
or reports a wrong answer.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    print(f"python {platform.python_version()}, nproc {os.cpu_count()}, {platform.machine()}, seed {SEED}, {seconds} s runs\n")
    print("| workload | metric | value | unit |")
    print("|---|---|---|---|")
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in ("0", "1"):
            command = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", str(SEED)]
            command += ["--seconds", str(seconds), "--trace", trace]
            proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            status |= not result["correct"]
            rows = {name: (m["value"], m["unit"]) for name, m in result["metrics"].items()}
            if trace == "0":
                rows["error_rate"] = (result["failed"] / result["attempted"], "ratio")
                rows["latency_samples"] = (result["attempted"], "count")
                ref_ms = next(line for line in proc.stdout.splitlines() if line.startswith("ref_ms "))
                rows["ref_ms"] = (float(ref_ms.split()[1]), "ms")
            for name, (value, unit) in rows.items():
                if trace == "1" and value == 0:
                    continue
                print(f"| {workload} | {name} | {value:.6g} | {unit} |")
    return status


if __name__ == "__main__":
    sys.exit(main())
