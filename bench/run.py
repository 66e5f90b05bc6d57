"""Seeded benchmark for anstab: one command, every metric, every answer checked.

Run from the root of a checkout:

    python3 bench/run.py --workload action --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the per-layer ones
from a traced run of one round.  See bench/README.md.

This process only orchestrates.  It times set-up in fresh probe processes
(interpreter start to first timed operation) and runs the measurement in one
worker process with one thread, so that the worker's memory and, on the
``cli`` workload, its children's are the workload's alone.
"""

from __future__ import annotations

import argparse
import collections
import compileall
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
SETUP_PROBES = 9
TRACE_PASSES = 3
WARM_UP_SEED = 0
# The reference loop's nominal time: reported times are scaled to a host
# on which it takes this long.
REF_ITERATIONS = 500
REF_NOMINAL_S = 0.008
# Set-up is scaled likewise, by a fresh reference process (--role reference)
# timed next to each probe, to a host on which that process takes this long.
REF_PROCESS_LOOPS = 6
REF_PROCESS_NOMINAL_S = 0.2
CHILD_TIMEOUT = 170


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["action", "limits", "strata", "cli"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--role", choices=["main", "probe", "reference", "worker"], default="main",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def child_argv(args, role: str) -> list[str]:
    return [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--role", role]


# ---------------------------------------------------------------------------
# Orchestrator


def main_role(args) -> int:
    if not (SRC / "anstab" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'anstab'}; run from a checkout root",
              file=sys.stderr)
        return 2
    # Byte-compile once so that every probe and worker starts alike.
    if not compileall.compile_dir(str(SRC / "anstab"), quiet=1):
        print("error: the package does not compile", file=sys.stderr)
        return 2
    setup = []
    if not args.trace:
        setup = [(reference_process(args), probe(args)) for _ in range(SETUP_PROBES)]
    proc = subprocess.run(child_argv(args, "worker"), cwd=ROOT, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        print(f"error: worker exited {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if setup:
        write_out(f"setup-{args.workload}-{args.seed}.json", {
            "reference_s": [r for r, _ in setup], "probe_s": [p for _, p in setup],
        })
        ratio = statistics.median(p / r for r, p in setup)
        setup_s = {"value": REF_PROCESS_NOMINAL_S * ratio, "unit": "s"}
        result["metrics"] = {"setup_s": setup_s, **result["metrics"]}
    print(json.dumps(result))
    return 0


def probe(args) -> float:
    """Seconds from spawning a fresh interpreter to its first timed operation."""
    start = time.perf_counter()
    with subprocess.Popen(child_argv(args, "probe"), cwd=ROOT, stdout=subprocess.PIPE,
                          text=True) as p:
        line = p.stdout.readline()
        ready = time.perf_counter()
        p.stdout.read()
        if p.wait(timeout=CHILD_TIMEOUT) != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed (exit {p.returncode})")
    return ready - start


def reference_process(args) -> float:
    """Seconds a fresh interpreter takes for fixed start-up-like work.

    The in-process reference loop does not track process start-up, which is
    process creation and file reads more than computation; this does.
    """
    start = time.perf_counter()
    subprocess.run(child_argv(args, "reference"), cwd=ROOT, check=True, timeout=CHILD_TIMEOUT)
    return time.perf_counter() - start


def reference_role() -> None:
    # Standard-library packages the program does not import, so that this
    # process, like ``import anstab``, reads and unmarshals many modules.
    import decimal  # noqa: F401
    import email.parser  # noqa: F401
    import http.client  # noqa: F401
    import xml.dom.minidom  # noqa: F401

    for _ in range(REF_PROCESS_LOOPS):
        reference_loop()


# ---------------------------------------------------------------------------
# Worker: set-up, then measure or trace


def set_up(args):
    sys.path[:0] = [str(BENCH), str(SRC)]
    import workloads

    kind = workloads.WORKLOADS[args.workload]
    # Warm-up: one operation of each kind, drawn from a fixed seed so that
    # set-up does the same work whatever the seed.
    seen = set()
    for op in kind(WARM_UP_SEED, ROOT).next_round():
        if op.kind not in seen and op.ready():
            seen.add(op.kind)
            op.run()
    wl = kind(args.seed, ROOT)
    return wl, wl.next_round()


def cpu_seconds(with_children: bool) -> float:
    t = time.process_time()
    if with_children:
        ru = resource.getrusage(resource.RUSAGE_CHILDREN)
        t += ru.ru_utime + ru.ru_stime
    return t


class Tally:
    """Attempted, failed and the first wrong answer of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.left_out = 0
        self.wrong: list[str] = []

    def judge(self, op, outcome) -> None:
        import checks
        import workloads

        self.attempted += 1
        try:
            if isinstance(outcome, BaseException):
                raise workloads.OpFailed(repr(outcome))
            op.check(outcome)
        except workloads.OpFailed:
            self.failed += 1
        except checks.CheckError as exc:
            self.wrong.append(f"{op.kind}: {exc}")

    def result(self, metrics: dict) -> dict:
        for w in self.wrong[:5]:
            print(f"wrong answer: {w}", file=sys.stderr)
        return {
            "correct": not self.wrong,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


def run_op(op):
    try:
        return op.run()
    except Exception as exc:  # the program failed; counted, not fatal
        return exc


def reference_loop() -> tuple[float, float]:
    """Wall and CPU seconds of fixed work like the program's, standard library only.

    Half is rational arithmetic (the exact kernel's diet), half is building
    and hashing nested tuples and frozensets (the enumerators' diet).  The
    garbage collector is off while it runs, so that its reading does not
    depend on how many objects the program keeps alive.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0, c0 = time.perf_counter(), time.process_time()
        acc = Fraction(0)
        for i in range(1, REF_ITERATIONS):
            acc += Fraction(1, 3) * Fraction(i, i + 7) - Fraction(1, i + 1)
        seen = set()
        for i in range(6 * REF_ITERATIONS):
            block = frozenset(range(i % 7, i % 7 + 4))
            seen.add((i % 5, tuple(sorted(block)), (block, i % 3)))
        return time.perf_counter() - t0, time.process_time() - c0
    finally:
        if was_enabled:
            gc.enable()


class HostSpeed:
    """How much slower than nominal the host runs, around each operation.

    The reference loop runs before an operation whenever 0.1 s of operations
    have passed since it last ran, and once more at the end, all outside the
    timed intervals.  An operation's times are divided by the mean slowdown
    of the two readings that bracket it, which takes out the drift of a
    shared host's speed (see README).
    """

    def __init__(self, every: float = 0.1):
        self.every = every
        self.since = every
        self.readings: list[tuple[float, float]] = []

    def before_op(self) -> int:
        """Index of the reading just before the operation about to run."""
        if self.since >= self.every:
            self.readings.append(reference_loop())
            self.since = 0.0
        return len(self.readings) - 1

    def after_op(self, seconds: float) -> None:
        self.since += seconds

    def finish(self) -> None:
        self.readings.append(reference_loop())

    def slowdown(self, index: int) -> tuple[float, float]:
        """(wall, CPU) slowdown around the operation after reading ``index``."""
        (w0, c0), (w1, c1) = self.readings[index:index + 2]
        return (w0 + w1) / (2 * REF_NOMINAL_S), (c0 + c1) / (2 * REF_NOMINAL_S)


def measure(args, wl, ops) -> dict:
    """Whole rounds, each drawn from the seeded stream, until --seconds have
    passed.

    An operation that recurs in every round (same ``key``: a census size, a
    CLI command) counts once, at the median of its times; one drawn fresh
    each round counts at its single time.  Rates and percentiles are taken
    over these per-operation times.  The same figures unscaled, and the
    run's counts (operations left out; on ``action``, round trips made on
    the input), go to bench/out/run-<workload>-<seed>.json.
    """
    children = args.workload == "cli"
    tally = Tally()
    host = HostSpeed()
    raw = []  # (key, wall seconds, CPU seconds, reading before)
    start = time.perf_counter()
    while True:
        for op in ops:
            if not op.ready():
                tally.left_out += 1
                continue
            reading = host.before_op()
            c0 = cpu_seconds(children)
            t0 = time.perf_counter()
            outcome = run_op(op)
            t1 = time.perf_counter()
            c1 = cpu_seconds(children)
            host.after_op(t1 - t0)
            key = op.key if op.key is not None else tally.attempted
            raw.append((key, t1 - t0, c1 - c0, reading))
            tally.judge(op, outcome)
        if time.perf_counter() - start >= args.seconds:
            break
        ops = wl.next_round()
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024
    host.finish()
    samples = []
    for key, w, c, reading in raw:
        slow_wall, slow_cpu = host.slowdown(reading)
        samples.append((key, w / slow_wall, c / slow_cpu))
    scaled = time_metrics(samples)
    unscaled = time_metrics([(key, w, c) for key, w, c, _ in raw])
    stats = dict(getattr(wl, "stats", {}), left_out=tally.left_out)
    print(f"counts: {json.dumps(stats)}", file=sys.stderr)
    write_out(f"run-{args.workload}-{args.seed}.json", {
        "workload": args.workload, "seed": args.seed, **stats,
        "scaled": scaled, "unscaled": unscaled,
        "reference_loop_s": [w for w, _ in host.readings],
    })
    metrics = {**scaled, "peak_rss_mb": peak_mb}
    return tally.result({k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()})


UNITS = {"ops_per_s": "ops/s", "op_ms_p50": "ms", "op_ms_p90": "ms",
         "cpu_ms_per_op": "ms", "peak_rss_mb": "MiB"}


def time_metrics(samples) -> dict:
    """Rates and percentiles over (key, wall s, CPU s) samples, one time per key."""
    wall: dict = collections.defaultdict(list)
    cpu: dict = collections.defaultdict(list)
    for key, w, c in samples:
        wall[key].append(w)
        cpu[key].append(c)
    times = [statistics.median(v) for v in wall.values()]
    cpu_times = [statistics.median(v) for v in cpu.values()]
    q = statistics.quantiles(times, n=10, method="inclusive")
    return {
        "ops_per_s": len(times) / sum(times),
        "op_ms_p50": 1000 * statistics.median(times),
        "op_ms_p90": 1000 * q[8],
        "cpu_ms_per_op": 1000 * sum(cpu_times) / len(cpu_times),
    }


def write_out(name: str, record: dict) -> None:
    out_dir = ROOT / "bench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / name).write_text(json.dumps(record, indent=1))


# ---------------------------------------------------------------------------
# Traced run


def cli_in_process(argv):
    """The CLI's main in this process, with its output captured."""
    from anstab import cli
    from workloads import CliResult

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception:  # what the process would print before exiting 1
            traceback.print_exc()
            code = 1
    return CliResult(code, out.getvalue(), err.getvalue())


def timed_subprocess(argv) -> tuple[float, str]:
    start = time.perf_counter()
    p = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                       env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=CHILD_TIMEOUT)
    return time.perf_counter() - start, p.stdout + p.stderr


def startup_metrics(repeats: int = 5) -> dict:
    """Interpreter start, import anstab, and mpmath's share of the import."""
    py = sys.executable
    interp = [timed_subprocess([py, "-c", "pass"])[0] for _ in range(repeats)]
    imp = [float(timed_subprocess([py, "-c", "import time; t = time.perf_counter(); "
                                   "import anstab; print(time.perf_counter() - t)"])[1])
           for _ in range(repeats)]
    mp = []
    for _ in range(repeats):
        text = timed_subprocess([py, "-X", "importtime", "-c", "import anstab"])[1]
        for line in text.splitlines():
            parts = [x.strip() for x in line.split("|")]
            if len(parts) == 3 and parts[2] == "mpmath":
                mp.append(int(parts[1]) / 1000)
    return {
        "cli.interpreter_ms": 1000 * statistics.median(interp),
        "cli.import_ms": 1000 * statistics.median(imp),
        "cli.import_mpmath_ms": statistics.median(mp),
    }


def trace_run(args, wl, ops) -> dict:
    """Untraced and traced passes over the same round, alternating.

    The per-layer figures are totals over the traced passes; the overhead
    compares the median traced pass with the median untraced one.
    """
    import spans
    from workloads import Op

    extra = {}
    if args.workload == "cli":
        ops = [Op("cli", lambda argv=argv: cli_in_process(argv), check)
               for argv, check in wl.commands]
        extra.update(startup_metrics())
    for op in ops:  # warm the in-process path too
        if op.ready():
            run_op(op)
    tracer = spans.Tracer()
    tally = Tally()
    untraced, traced = [], []
    output_bytes = 0
    stats = getattr(wl, "stats", collections.Counter())
    on_input = 0
    for _ in range(TRACE_PASSES):
        busy = 0.0
        for op in ops:
            if op.ready():
                t0 = time.perf_counter()
                run_op(op)
                busy += time.perf_counter() - t0
        untraced.append(busy)
        busy = 0.0
        before = stats["roundtrips_on_input"]
        tracer.install()
        try:
            for op in ops:
                if not op.ready():
                    continue
                tracer.enabled = True
                t0 = time.perf_counter()
                outcome = run_op(op)
                busy += time.perf_counter() - t0
                tracer.enabled = False
                tally.judge(op, outcome)
                output_bytes += len(getattr(outcome, "out", "").encode())
        finally:
            tracer.uninstall()
        traced.append(busy)
        on_input += stats["roundtrips_on_input"] - before
    extra["multiscale.roundtrips_on_input"] = on_input
    untraced, traced = statistics.median(untraced), statistics.median(traced)
    extra["trace.overhead_pct"] = 100 * (traced / untraced - 1)
    extra["cli.output_bytes"] = output_bytes
    units = spans.per_layer_units()
    values = tracer.metrics(units, extra)
    write_out(f"trace-{args.workload}-{args.seed}.json", {
        "workload": args.workload, "seed": args.seed, "untraced_s": untraced,
        "traced_s": traced, "spans": tracer.spans(), "metrics": values,
    })
    return tally.result({m: {"value": values.get(m, 0), "unit": u} for m, u in units.items()})


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.role == "main":
        return main_role(args)
    if args.role == "reference":
        reference_role()
        return 0
    wl, ops = set_up(args)
    if args.role == "probe":
        print("ready", flush=True)
        return 0
    result = trace_run(args, wl, ops) if args.trace else measure(args, wl, ops)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
