"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload prepared-reads --seed 1 --seconds 20 --trace 0

``--seconds`` defaults to ``run_seconds`` in BENCHMARK.json.

``--trace 0`` measures the end-to-end metrics with no tracing installed.
``--trace 1`` is the separate traced run: the first half of the time is
untraced, the second half runs with span wrappers around every layer's
public functions, and the per-layer metrics come from those spans.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
same figures raw and normalised, the reference time, and the operation
counts per operation type.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict

from clock import NOMINAL_REFERENCE_MS as NOMINAL
from clock import NOMINAL_SPAWN_S, STEAL_WINDOW_S, Clock, percentile, spawn_reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 7
WORKLOADS = ("prepared-reads", "cold-queries", "update-stream", "served-http")


class Tally:
    """Per-operation-type accounting: attempted, failed, wrong answers,
    and the raw and normalised time of every timed operation."""

    def __init__(self, clock) -> None:
        self.clock = clock
        self.tracer = None
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()
        self.wrong: Counter = Counter()
        self.samples: dict = defaultdict(list)
        self.last_span = None
        self.errors: list = []

    def _fail(self, kind: str, exc: BaseException) -> None:
        self.failed[kind] += 1
        if len(self.errors) < 5:
            self.errors.append(f"{kind}: {''.join(traceback.format_exception_only(type(exc), exc)).strip()}")

    def timed(self, kind: str, op, check):
        """Time *op*; *check* (outside the timing) judges its result."""
        self.attempted[kind] += 1
        self.clock.tick()
        factor = self.clock.factor()
        run = op
        if self.tracer is not None:
            tracer = self.tracer
            tracer.request = sum(self.attempted.values())
            tracer.factor = factor

            def run():
                index = tracer.begin(f"op.{kind}")
                self.last_span = index
                try:
                    return op()
                finally:
                    tracer.end(index)
        try:
            start = time.perf_counter()
            result = run()
            raw = (time.perf_counter() - start) * 1000.0
        except Exception as exc:  # a failed operation is counted, not fatal
            self._fail(kind, exc)
            return None
        self.samples[kind].append((raw, factor, start + raw / 2000.0))
        self._judge(kind, check, result)
        return result

    def untimed(self, kind: str, op, check):
        self.attempted[kind] += 1
        try:
            result = op()
        except Exception as exc:
            self._fail(kind, exc)
            return None
        self._judge(kind, check, result)
        return result

    def _judge(self, kind, check, result) -> None:
        try:
            ok = check(result)
        except Exception as exc:
            self._fail(kind, exc)
            return
        if not ok:
            self.failed[kind] += 1
            self.wrong[kind] += 1

    def norm(self, *kinds, start: int = 0, stop: "int | None" = None) -> list:
        """Normalised ms: raw times the reference factor at the operation's
        start and the unstolen share of the window around it (known only
        once the run has sampled past it, so call this after the run)."""
        unstolen = self.clock.unstolen
        return [raw * factor * unstolen(mid)
                for kind in kinds for raw, factor, mid in self.samples[kind][start:stop]]

    def raw(self, *kinds) -> list:
        return [r for kind in kinds for r, _, _ in self.samples[kind]]


def _child_setup(workload: str, seed: int) -> float:
    """Time one set-up in a fresh interpreter, from spawn to ready, less
    the time the child spends generating its inputs."""
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    try:
        line = child.stdout.readline().split()
        elapsed = time.perf_counter() - start
        child.stdout.read()
        code = child.wait(timeout=60)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    if len(line) != 2 or line[0] != "READY" or code != 0:
        raise RuntimeError(f"set-up child exited {code} before ready")
    return elapsed - float(line[1])


def measure_setups(wl, args, tally) -> tuple:
    """``SETUP_REPEATS`` set-ups, each from a fresh interpreter's start to
    ready, with a spawn reference before the first and after every one.
    All are normalised by one factor, ``NOMINAL_SPAWN_S`` over the median
    reference.  For served-http every set-up starts a server (a fresh
    interpreter); the last one stays up for the timed phase.  Returns the
    (raw, normalised) set-ups and the reference times."""
    raws, refs = [], [spawn_reference()]
    for i in range(SETUP_REPEATS):
        if wl.in_process:
            raw = tally.untimed("setup", lambda: _child_setup(args.workload, args.seed), lambda s: s > 0)
        else:
            def start_server():
                t0 = time.perf_counter()
                wl.setup()
                return time.perf_counter() - t0
            raw = tally.untimed("setup", start_server, lambda s: s > 0)
            if i < SETUP_REPEATS - 1 and wl.server is not None:
                wl.stop(tally)
        refs.append(spawn_reference())
        if raw is not None:
            raws.append(raw)
    if wl.in_process:
        wl.setup()
    factor = NOMINAL_SPAWN_S / statistics.median(refs)
    return [(raw, raw * factor) for raw in raws], refs


def run_rounds(wl, tally, deadline: float) -> None:
    while True:
        wl.round(tally)
        if time.perf_counter() >= deadline:
            # Close the steal window of the last operations.
            tally.clock.sample_ticks()
            return


def end_to_end(tally, setups, rss_mb) -> dict:
    """Every end-to-end metric; a metric without samples is an error,
    never a 0 that would read as an improvement."""
    def pct(values, q):
        if not values:
            raise RuntimeError("an end-to-end metric has no samples: " + "; ".join(tally.errors))
        return percentile(values, q)

    reads = tally.norm("query")
    writes = tally.norm("insert", "delete")
    busy_s = sum(tally.norm("query", "insert", "delete")) / 1000.0
    return {
        "setup_s": (statistics.median(n for _, n in setups), "s"),
        "query_p50_ms": (pct(reads, 50), "ms"),
        "query_p90_ms": (pct(reads, 90), "ms"),
        "queries_per_s": (len(reads) / busy_s, "1/s"),
        "insert_p50_ms": (pct(tally.norm("insert"), 50), "ms"),
        "delete_p50_ms": (pct(tally.norm("delete"), 50), "ms"),
        "update_p90_ms": (pct(writes, 90), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(wl, tracer, tally, traced_start, metrics_after) -> dict:
    agg = tracer.aggregate(tally.clock.unstolen)
    q = ("op.query",)
    u = ("op.insert", "op.delete")
    data = wl.layer_data

    def ratio(num, den):
        n = data.get(num, (0.0, 0))[0]
        d = data.get(den, (0.0, 0))[0]
        return n / d if d else 0.0

    query_ms = agg.per_root(q, "op.query", total=True)
    # QueryService.query's own time (dataset lookup, locking, version
    # checks, payload assembly) is reported on its own and stays in the
    # remainder: no layer metric of the table above accounts for it.
    query_self = agg.per_root(q, "serve.service.query")
    uncovered = agg.per_root(q, "op.query") + query_self
    compile_q = agg.per_root(q, "engine.compile")
    prepares = sum(c for (root, name), c in agg.count.items() if name == "core.prepare.prepare")
    compile_total = sum(v for (root, name), v in agg.self_ms.items() if name == "engine.compile")
    snapshot_bytes = prepare_ms = 0.0
    if metrics_after is not None:
        snapshot_bytes, prepare_ms = served_counters(wl.metrics_before, metrics_after, tally.clock.factor())
    untraced_p50 = percentile(tally.norm("query", stop=traced_start), 50)
    traced_p50 = percentile(tally.norm("query", start=traced_start), 50)
    metrics = {
        "serve.server.overhead_ms": (agg.per_root(q, "op.query") if not wl.in_process else 0.0, "ms"),
        "serve.pool.update_overhead_ms": (0.0 if wl.in_process else (
            agg.self_ms[("op.insert", "op.insert")] + agg.self_ms[("op.delete", "op.delete")]
        ) / max(1, agg.roots("op.insert") + agg.roots("op.delete")), "ms"),
        "core.snapshot.bytes": (snapshot_bytes, "bytes"),
        "serve.cache.hit_ratio": (wl.mean("hits"), "ratio"),
        "serve.cache.lookup_ms": (agg.per_root(q, "serve.cache.lookup"), "ms"),
        "serve.service.render_ms": (sum(agg.per_root(q, n) for n in (
            "serve.service.render", "serve.service.encode")), "ms"),
        "serve.service.query_self_ms": (query_self, "ms"),
        "serve.service.publish_ms": (sum(agg.per_root(u, n) for n in (
            "serve.service.update", "core.snapshot.fingerprint", "serve.cache.rekey")), "ms"),
        "core.snapshot.fingerprint_ms": (agg.per_root(u, "core.snapshot.fingerprint"), "ms"),
        "datalog.parser.parse_ms": (agg.per_root(q, "datalog.parser.parse"), "ms"),
        "transform.rewrite_ms": (agg.per_root(q, "transform.rewrite"), "ms"),
        "transform.rules_out": (wl.mean("rules_out"), "count"),
        "engine.compile_ms": (compile_q if compile_q else (compile_total / prepares if prepares else 0.0), "ms"),
        "engine.fixpoint_ms": (agg.per_root(q, "engine.fixpoint"), "ms"),
        "engine.attempts_per_query": (wl.mean("attempts"), "count"),
        "engine.inferences_per_query": (wl.mean("inferences"), "count"),
        "core.prepare.extract_ms": (agg.per_root(q, "core.prepare.execute"), "ms"),
        "core.prepare.rows_per_answer": (ratio("rows", "answers"), "count"),
        "core.prepare.prepare_ms": (prepare_ms or agg.per_span("core.prepare.prepare"), "ms"),
        "core.strategy.extract_ms": (agg.per_root(q, "core.strategy"), "ms"),
        "topdown.oldt_ms": (agg.per_root(q, "topdown.oldt"), "ms"),
        "engine.incremental.insert_ms": (agg.per_root(("op.insert",), "engine.incremental.insert"), "ms"),
        "engine.incremental.delete_ms": (agg.per_root(("op.delete",), "engine.incremental.delete"), "ms"),
        "engine.maintain.attempts_per_update": (wl.mean("maintain_attempts"), "count"),
        "core.engine.load_ms": (agg.per_root(q, "core.engine.load"), "ms"),
        "trace.query_ms": (query_ms, "ms"),
        "trace.uncovered_ms": (uncovered, "ms"),
        "trace.coverage": (1.0 - uncovered / query_ms if query_ms else 0.0, "ratio"),
        "trace.overhead_ms": (traced_p50 - untraced_p50, "ms"),
    }
    return metrics


def served_counters(before, after, factor) -> tuple:
    """Bytes per published snapshot and ms per preparation, from the
    server's merged ``/metrics`` over the traced phase."""
    def counter(snapshot, name):
        return snapshot["metrics"]["counters"].get(name, 0)

    def timer(snapshot):
        timers = snapshot["metrics"]["timers"]
        stats = [v for k, v in timers.items() if k == "prepare" or k.endswith("/prepare")]
        return sum(s["count"] for s in stats), sum(s["total_s"] for s in stats)

    created = counter(after, "snapshot.shared.created") - counter(before, "snapshot.shared.created")
    size = counter(after, "snapshot.shared.bytes") - counter(before, "snapshot.shared.bytes")
    n0, t0 = timer(before)
    n1, t1 = timer(after)
    per_prepare = (t1 - t0) / (n1 - n0) * 1000.0 * factor if n1 > n0 else 0.0
    return (size / created if created else 0.0), per_prepare


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        help="length of the timed phase (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print READY and exit (set-up timing child)")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            args.seconds = float(json.load(handle)["run_seconds"])

    import workloads
    from served import ServedHttp
    from spans import Tracer

    classes = dict(workloads.IN_PROCESS, **{ServedHttp.name: ServedHttp})
    if args.setup_only:
        wl = classes[args.workload](args.seed, None)
        start = time.perf_counter()
        wl.make_inputs()
        inputs_s = time.perf_counter() - start
        wl.setup()
        print(f"READY {inputs_s:.6f}", flush=True)
        return 0

    # A terminated run still stops its server and removes its files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    clock = Clock()
    tally = Tally(clock)
    wl = classes[args.workload](args.seed, workdir)
    layers = None
    try:
        wl.make_inputs()
        setups, spawn_refs = measure_setups(wl, args, tally)
        if len(setups) < SETUP_REPEATS:
            raise RuntimeError("set-up failed: " + "; ".join(tally.errors))
        clock.begin_phase()
        start = time.perf_counter()
        if args.trace:
            run_rounds(wl, tally, start + args.seconds / 2)
            traced_start = len(tally.samples["query"])
            tracer = Tracer()
            wl.install_trace(tracer)
            tally.tracer = tracer
            wl.tracer = tracer
            try:
                run_rounds(wl, tally, start + args.seconds)
            finally:
                tally.tracer = None
                tracer.uninstall()
            metrics_after = None if wl.in_process else wl.client.metrics()
            layers = per_layer(wl, tracer, tally, traced_start, metrics_after)
            trace_path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json")
            tracer.dump(trace_path)
        else:
            run_rounds(wl, tally, start + args.seconds)
        measured_s = time.perf_counter() - start
        rss = wl.peak_rss_mb()
    finally:
        wl.close(tally)
        shutil.rmtree(workdir, ignore_errors=True)

    e2e = end_to_end(tally, setups, rss)
    refs = clock.reference_ms
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}: measured {measured_s:.2f} s")
    print(f"host: {os.cpu_count()} CPUs, Python {sys.version.split()[0]}")
    print(f"reference: median {statistics.median(refs):.4f} ms raw over {len(refs)} runs "
          f"(nominal {NOMINAL} ms); normalised = raw * nominal / adjacent reference")
    print(f"steal: {clock.steal_share(start, start + measured_s):.3f} of busy CPU time over the timed phase; "
          f"each operation also scaled by the unstolen share within {STEAL_WINDOW_S:g} s of it")
    print(f"spawn reference: median {statistics.median(spawn_refs):.4f} s raw over {len(spawn_refs)} spawns "
          f"(nominal {NOMINAL_SPAWN_S} s); set-ups normalised = raw * nominal / median spawn reference")
    print("setup_s raw " + " ".join(f"{r:.3f}" for r, _ in setups)
          + " | normalised " + " ".join(f"{n:.3f}" for _, n in setups))
    for kind in sorted(tally.attempted):
        line = f"op {kind}: attempted {tally.attempted[kind]} failed {tally.failed[kind]}"
        if tally.wrong[kind]:
            line += f" (wrong answers {tally.wrong[kind]})"
        if tally.samples[kind]:
            raw, norm = tally.raw(kind), tally.norm(kind)
            line += (f"; raw p50 {percentile(raw, 50):.3f} p90 {percentile(raw, 90):.3f} ms"
                     f"; normalised p50 {percentile(norm, 50):.3f} p90 {percentile(norm, 90):.3f} ms")
        print(line)
    for error in tally.errors:
        print(f"error: {error}")
    if args.trace:
        for name, (value, unit) in layers.items():
            print(f"layer {name} = {value:.4f} {unit}")
        print(f"spans written to {os.path.relpath(trace_path, ROOT)}")
    for name, (value, unit) in e2e.items():
        print(f"metric {name} = {value:.4f} {unit}")
    chosen = layers if args.trace else e2e
    failed = sum(tally.failed.values())
    result = {
        "correct": failed == 0,
        "attempted": sum(tally.attempted.values()),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()},
    }
    print(json.dumps(result))
    # Every operation of every workload is meant to succeed: a failed or
    # wrong one is a fault in the program, and the run says so by its code.
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
