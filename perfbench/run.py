"""dtnum benchmark: one closed-loop workload per run, every answer checked.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload huge-cold --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the run repeats the workload's operations for
``--seconds`` seconds of operations and measures the end-to-end metrics
named in ``BENCHMARK.json``; times are scaled to a fixed speed of a
reference computation timed alongside (see ``Tally``). With ``--trace 1`` it runs
a fixed number of cycles, each operation once plain and once inside
spans, and reports the per-layer metrics plus the tracing overhead. One
client, one process, no threads; the ``cli-process`` workload runs one
child process at a time.
Summary lines come first; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.spans import NullTracer, Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS, Wrong, child_env  # noqa: E402

SETUP_REPEATS = 5
MIN_OPS = 100  # p90 then has at least ten samples above it
REF_EVERY_S = 0.025  # how often the machine's speed is sampled
REF_NEAR = 4  # latest reference timings that set an operation's local speed
REF_BIG = 3**12000  # a 19020-bit operand for reference()
REF_MS = 1.5  # the nominal reference time: about its median where the baseline was recorded
MODULES = ("core", "numeration", "positionality", "trees", "classify", "cli", "golden", "errors")
TIMED = ("ops_per_s", "latency_ms.p50", "latency_ms.p90", "cpu_ms_per_op")


def library(src: Path) -> SimpleNamespace:
    """The dtnum modules, imported from ``src``; a copy installed elsewhere is refused."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    lib = SimpleNamespace(**{m: importlib.import_module(f"dtnum.{m}") for m in MODULES})
    if Path(lib.core.__file__).resolve().parent != src / "dtnum":
        raise ImportError(f"dtnum was imported from {lib.core.__file__}, not from {src}")
    return lib


def load_library(src: Path) -> SimpleNamespace:
    """Import dtnum afresh, so that every set-up pays the import."""
    for name in [m for m in sys.modules if m == "dtnum" or m.startswith("dtnum.")]:
        del sys.modules[name]
    return library(src)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; a failed operation is +inf and sorts last."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _cpu_s() -> float:
    """User plus system time of this process and of its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def reference() -> int:
    """Fixed work of the kinds the workloads do, about a millisecond of it:
    bytecode on small ints with dict stores, then big-int products and sums.
    It allocates no tracked objects, so it never triggers the collector."""
    table = {}
    x = 1
    for i in range(2000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        table[x & 511] = i
    b = c = REF_BIG
    for _ in range(6):
        b = (b * b) >> REF_BIG.bit_length()
        for _ in range(30):
            c += b
    return len(table) + c.bit_length()


class Tally:
    """Outcomes and costs of a series of operations, with the machine's
    speed sampled alongside.

    A shared machine runs the same work up to twice as slow at some times
    as at others, for seconds to minutes at a stretch. So ``reference()``
    is timed before an operation whenever REF_EVERY_S have passed since it
    last ran, and the timed metrics scale each operation's wall and CPU
    time by REF_MS over the local reference time, the median of the last
    REF_NEAR reference timings: they are the times the operations take
    when the reference takes REF_MS.
    """

    def __init__(self):
        self.refs = array("d")  # wall s of every reference() run
        self.ref_at = -math.inf
        self.latencies = array("d")  # in units of the local reference time; +inf if failed
        self.wall_ref = 0.0
        self.cpu_ref = 0.0
        self.busy = 0.0  # wall s spent in operations
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.messages: list[str] = []

    def sample_speed(self) -> None:
        if time.perf_counter() - self.ref_at < REF_EVERY_S:
            return
        self.ref_at = time.perf_counter()
        reference()
        self.refs.append(time.perf_counter() - self.ref_at)

    def add(self, wall: float, cpu: float, ok: bool) -> None:
        ref = statistics.median(self.refs[-REF_NEAR:])
        self.latencies.append(wall / ref if ok else math.inf)
        self.wall_ref += wall / ref
        self.cpu_ref += cpu / ref
        self.busy += wall
        self.attempted += 1
        self.failed += not ok

    def ref_ms(self) -> float:
        return 1000 * statistics.median(self.refs)

    def timed(self) -> dict[str, float]:
        return {
            "ops_per_s": (self.attempted - self.failed) / (self.wall_ref * REF_MS / 1000),
            "latency_ms.p50": percentile(self.latencies, 0.5) * REF_MS,
            "latency_ms.p90": percentile(self.latencies, 0.9) * REF_MS,
            "cpu_ms_per_op": self.cpu_ref / self.attempted * REF_MS,
        }


def run_op(workload, lib, state, spec, tracer, tally: Tally) -> None:
    """One operation: its wall and CPU time, and the reason if it failed."""
    tally.sample_speed()
    tracer.begin_op(tally.attempted)
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    ok = False
    try:
        with tracer.span("bench.op"):
            workload.run(lib, state, spec, tracer)
        ok = True
    except Wrong as e:
        tally.wrong += 1
        tally.messages.append(f"wrong: {e}")
    except Exception as e:  # any other exception is a failed operation
        tally.messages.append(f"failed: {type(e).__name__}: {e}")
    tally.add(time.perf_counter() - t0, _cpu_s() - cpu0, ok)


def measure(workload, lib, state, seconds: float = 0.0, cycles: int | None = None, between=None) -> Tally:
    """Closed loop over whole cycles of the workload's operations: until
    ``cycles`` are done, or until ``seconds`` of operations have run and at
    least MIN_OPS operations ran. ``between(busy_s)`` runs after each cycle,
    untimed, and returns True while it has work left that delays the end."""
    tally = Tally()
    tracer = NullTracer()
    ops = workload.ops(state)
    done = 0
    while True:
        for spec in ops:
            run_op(workload, lib, state, spec, tracer, tally)
        done += 1
        pending = between(tally.busy) if between else False
        if cycles is not None:
            if done >= cycles:
                return tally
        elif tally.busy >= seconds and tally.attempted >= MIN_OPS and not pending:
            return tally


def peak_rss_mib(children: bool) -> float:
    """ru_maxrss is in KiB on Linux: of this process, or of its largest child."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def cli_startup_ms(lib, repeats: int = 5) -> float:
    """Median wall time of a child that only imports ``dtnum.cli``."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import dtnum.cli"], env=child_env(lib), check=True, timeout=60)
        times.append(1000 * (time.perf_counter() - t0))
    return statistics.median(times)


def traced_metrics(workload, lib, state) -> tuple[dict, Tally]:
    """Per-layer metrics from spans, and the overhead the spans add.

    Each operation runs twice, plain and traced, first one then the
    other in turn, so both sides see the same load on a shared machine.
    """
    state = workload.for_trace(state)
    tracer = Tracer()
    plain, traced = Tally(), Tally()
    sides = ((plain, NullTracer()), (traced, tracer))
    for _ in range(workload.trace_cycles):
        for k, spec in enumerate(workload.ops(state)):
            for tally, tr in sides if k % 2 == 0 else sides[::-1]:
                run_op(workload, lib, state, spec, tr, tally)
    workload.probe(lib, state, tracer)

    out = tracer.summary()
    out["trace.ops"] = traced.attempted
    out["trace.spans"] = len(tracer.spans)
    out["cli.startup_ms"] = cli_startup_ms(lib) if workload.name == "cli-process" else 0.0
    before, after = plain.timed(), traced.timed()
    for name in TIMED:
        out[f"trace.overhead.{name}_pct"] = 100 * (after[name] / before[name] - 1)
    traced.attempted += plain.attempted
    traced.failed += plain.failed
    traced.wrong += plain.wrong
    traced.messages += plain.messages
    return out, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    src = ROOT / "src"
    if not (src / "dtnum" / "__init__.py").is_file():
        print(f"no dtnum package under {src}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    # one CPU for the run and its children, so that the reference timings
    # and the operations see the same processor
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    setup_times = []

    def set_up():
        # process CPU time leaves out the time a shared machine keeps this
        # process descheduled; set-up waits on nothing else. It is scaled
        # to the reference speed, as the operations are (see Tally).
        refs = []
        for _ in range(REF_NEAR):
            t0 = time.process_time()
            reference()
            refs.append(time.process_time() - t0)
        t0 = time.process_time()
        lib = load_library(src)
        state = workload.setup(lib, args.seed)
        setup_times.append((time.process_time() - t0) * REF_MS / 1000 / statistics.median(refs))
        gc.collect()
        return lib, state

    def spread_set_ups(busy: float) -> bool:
        # the machine's speed changes every few seconds, so the repeats are
        # spread over the timed window rather than run back to back; their
        # results are dropped and the operations keep the first library
        if len(setup_times) < min(SETUP_REPEATS, 1 + SETUP_REPEATS * busy / args.seconds):
            set_up()
        return len(setup_times) < SETUP_REPEATS

    lib, state = set_up()
    if args.trace:
        values, tally = traced_metrics(workload, lib, state)
        declared = spec["per_layer"]
    else:
        tally = measure(workload, lib, state, seconds=args.seconds, between=spread_set_ups)
        values = tally.timed()
        values["peak_rss_mib"] = peak_rss_mib(children=workload.name == "cli-process")
        values["setup_s"] = statistics.median(setup_times)
        declared = spec["end_to_end"]

    for message in tally.messages[:10]:
        print(message, file=sys.stderr)
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in declared}
    attempted = tally.attempted
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(f"error_rate {tally.failed / attempted} ratio")
    print(f"latency_samples {attempted} count")
    print(f"ref_ms {tally.ref_ms()} ms")
    result = {"correct": tally.wrong == 0, "attempted": attempted, "failed": tally.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
