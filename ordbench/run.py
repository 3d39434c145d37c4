"""ordrank benchmark: one seeded, single-process, single-threaded run.

Usage, from the root of a source checkout:

    python3 ordbench/run.py --workload rank-dense --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` wraps the
layers of ordrank (see tracer.py) and reports the per-layer metrics.  The
last line of standard output is the result object; the line before it holds
the machine, the workload's reason for being chosen and the run's details.
The program is imported from ``src/`` next to this directory and nowhere
else, so without it the run exits non-zero and prints no result.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

T_START = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".ordbench"

# The measured window: the first WINDOW_OPS operations of every run.  The
# end-to-end metrics cover exactly these operations (the same work on every
# commit), and the run then goes on until --seconds have passed, checking
# every further answer.  A window of fixed work, rather than of fixed time,
# keeps the mix of operations equal between runs: rank-dense operations
# differ in cost by a factor of ten, so the count that fits into a fixed time
# moved with the few cheap operations near its end.  Each window takes about
# 30 s on a 2-core machine at the commit that defined the benchmark.
WINDOW_OPS = {"rank-dense": 52, "oracle-diff": 7000, "decompose-certify": 800}
# The trace prefix: the traced run's per-layer metrics, its determinism check
# and its overhead figure cover exactly these operations, so their counts
# compare exactly across runs and commits.  rank-dense: the four unperturbed
# cases and one block of 16 perturbations.
TRACE_OPS = {"rank-dense": 20, "oracle-diff": 1000, "decompose-certify": 120}
# Set-up samples taken before and after the measured run.
SETUP_BEFORE, SETUP_AFTER = 3, 4
# Speed calibration.  The cores are shared: a fixed pure-Python loop ran
# 45 % faster in one 20 s stretch than in the 40 s before it, and two 30 s
# runs of rank-dense with the same seed differed by 19 % in throughput.  So the measured run times
# a fixed kernel (below) before the window and every CAL_EVERY seconds
# between operations, and scales its times to a machine on which the kernel
# takes CAL_REF_S.  ordrank's speed moves about half as much as the kernel's
# (fitted exponents 0.3 to 0.75 over four minutes of alternating fixed
# chunks and over 25 runs), so the factor enters as its square root.  The
# unscaled figures are printed on the details line.
CAL_EVERY = 0.2
CAL_REF_S = 0.004
CAL_EXPONENT = 0.5


def import_program():
    """Import ordrank (with the CLI, as a user's process would) from SRC."""
    if not (SRC / "ordrank" / "__init__.py").is_file():
        raise SystemExit("ordbench: no ordrank sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import ordrank
    import ordrank.cli  # noqa: F401  (its import cost is part of set-up)
    if Path(ordrank.__file__).resolve().parent != SRC / "ordrank":
        raise SystemExit("ordbench: imported ordrank from %s" % ordrank.__file__)


def machine() -> dict:
    info = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "git_commit": _git_commit(),
            "source_sha256": _source_digest(), "cgroup_cpu_max": None}
    for path in ("/sys/fs/cgroup/cpu.max", "/sys/fs/cgroup/cpu/cpu.cfs_quota_us"):
        try:
            info["cgroup_cpu_max"] = Path(path).read_text().strip()
            break
        except OSError:
            continue
    return info


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "ordrank").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def calibration_kernel(n: int = 5000) -> int:
    """Fixed interpreter work of the kind ordrank does: small tuples,
    hashing, frozensets and dict lookups."""
    acc = {}
    for i in range(n):
        t = (i & 7, i % 13, (i >> 3) & 15)
        acc[t] = len(frozenset(t)) + acc.get((t[1], t[0], t[2]), 0)
    return len(acc)


class Loop:
    """The closed loop: the next operation starts when the previous answer
    has been checked.  Every operation is timed; one that raises or whose
    answer differs from the reference counts as failed."""

    def __init__(self, wl, tracer=None):
        self.wl = wl
        self.tracer = tracer
        self.latencies: list[float] = []
        self.walls: list[float] = []  # input, run and check of each operation
        self.cal: list[float] | None = None  # kernel times, when calibrating
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.keys = set()
        self.repeats = 0
        if tracer is None:
            self.p_op = self.p_input = self.p_run = self.p_check = _call
        else:
            self.p_op = tracer.phase("bench.op")
            self.p_input = tracer.phase("bench.input")
            self.p_run = tracer.phase("bench.run")
            self.p_check = tracer.phase("bench.check")

    def _one(self):
        key, inp = self.p_input(self.wl.next_input)
        key = hash(key)  # keeps no reference to the input
        if key in self.keys:
            self.repeats += 1
        self.keys.add(key)
        t0 = time.perf_counter()
        try:
            result = self.p_run(self.wl.run, inp)
        finally:
            self.latency = time.perf_counter() - t0
        return self.p_check(self.wl.check, inp, result)

    def step(self) -> None:
        n = self.attempted
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.begin_op(n)
        self.latency = None
        t0 = time.perf_counter()
        try:
            reason = self.p_op(self._one)
        except Exception as exc:  # the operation failed; the run goes on
            reason = "%s: %s" % (type(exc).__name__, exc)
        self.walls.append(time.perf_counter() - t0)
        # an operation whose input could not be built counts its whole wall
        self.latencies.append(self.walls[-1] if self.latency is None else self.latency)
        if reason is not None:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append("op %d: %s" % (n, reason))

    def calibrate(self) -> None:
        self.cal.append(timed_kernel())
        self.cal_at = time.perf_counter()

    def until(self, ops: int = 0, seconds: float = 0.0, t0: float | None = None) -> float:
        """Step until at least ``ops`` operations ran and ``seconds`` passed
        since t0; returns the wall time since t0."""
        t0 = time.perf_counter() if t0 is None else t0
        while self.attempted < ops or time.perf_counter() - t0 < seconds:
            self.step()
            if self.cal is not None and time.perf_counter() - self.cal_at >= CAL_EVERY:
                self.calibrate()
        return time.perf_counter() - t0

    def slowdown(self, samples: int) -> float:
        """How much slower than the reference the first ``samples`` kernel
        runs went, as the factor that scales throughput up."""
        return (statistics.median(self.cal[:samples]) / CAL_REF_S) ** CAL_EXPONENT


def _call(fn, *args):
    return fn(*args)


def child(args, role: str, trace: int) -> subprocess.Popen:
    cmd = [sys.executable, str(HERE / "run.py"), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace)]
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)


def timed_kernel() -> float:
    a = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - a


def setup_sample(args) -> tuple[float, float]:
    """Wall time from starting a fresh process to its first operation being
    ready (interpreter start, program import and input generation), raw and
    scaled by the kernel timed three times before and three times after."""
    kernel = [timed_kernel() for _ in range(3)]
    t0 = time.perf_counter()
    proc = child(args, "setup", 0)
    try:
        line = proc.stdout.readline()
        dt = time.perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait()
    if line.strip() != "ready" or code != 0:
        raise SystemExit("ordbench: set-up probe failed (exit %s)" % code)
    kernel += [timed_kernel() for _ in range(3)]
    return dt, dt / (statistics.median(kernel) / CAL_REF_S) ** CAL_EXPONENT


def prefix_child(args, trace: int) -> dict:
    proc = child(args, "prefix", trace)
    out, _ = proc.communicate()
    if proc.returncode != 0:
        raise SystemExit("ordbench: prefix run failed (exit %s)" % proc.returncode)
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(TRACE_OPS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("main", "setup", "prefix"), default="main",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    import_program()
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    import workloads
    wl = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = time.perf_counter() - T_START
    if args.role == "setup":
        print("ready", flush=True)
        return 0
    if args.role == "prefix":
        return prefix_run(wl, tracer, workloads, TRACE_OPS[args.workload])
    info = {"machine": machine(), "workload": args.workload, "why": wl.why,
            "seed": args.seed, "trace": args.trace,
            "main_setup_s": round(setup_s, 6)}
    if tracer is None:
        correct, loop, metrics = measured_run(args, wl, info)
    else:
        correct, loop, metrics = traced_run(args, wl, tracer, workloads, info)
    info.update(attempted=loop.attempted, failed=loop.failed,
                failed_frac=loop.failed / loop.attempted,
                repeat_share=loop.repeats / loop.attempted,
                failures=loop.failures)
    print(json.dumps(info, default=str))
    print(json.dumps({"correct": correct, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0


def measured_run(args, wl, info):
    """End-to-end metrics over the measured window, tracing off."""
    setups = [setup_sample(args) for _ in range(SETUP_BEFORE)]
    window = WINDOW_OPS[args.workload]
    loop = Loop(wl)
    loop.cal = []
    t0 = time.perf_counter()
    loop.calibrate()
    loop.until(ops=window, t0=t0)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    loop.calibrate()
    window_cal = len(loop.cal)
    window_failed = loop.failed
    wall = loop.until(seconds=args.seconds, t0=t0)
    setups += [setup_sample(args) for _ in range(SETUP_AFTER)]
    slow = loop.slowdown(window_cal)
    window_s = sum(loop.walls[:window])
    ms = [x * 1000 for x in loop.latencies[:window]]
    raw_ops_per_s = (window - window_failed) / window_s
    metrics = {
        "ops_per_s": {"value": raw_ops_per_s * slow, "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(ms) / slow, "unit": "ms"},
        "setup_s": {"value": statistics.median(x for _, x in setups), "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    info.update(window_ops=window, window_s=window_s, wall_s=wall,
                raw_ops_per_s=raw_ops_per_s, raw_op_p50_ms=statistics.median(ms),
                raw_setup_s=statistics.median(x for x, _ in setups),
                slowdown=slow, calibration_samples=len(loop.cal),
                setup_samples_s=setups)
    if window >= 100:  # a p90 needs ten samples beyond it
        info["op_p90_ms"] = statistics.quantiles(ms, n=10, method="inclusive")[8] / slow
    return loop.failed == 0, loop, metrics


def traced_run(args, wl, tracer, workloads, info):
    """Per-layer metrics over the trace prefix, checked for determinism
    against a second traced process and timed against an untraced one."""
    from tracer import EXACT, layer_metrics
    prefix = TRACE_OPS[args.workload]
    tracer.install(extra_modules=[workloads])
    loop = Loop(wl, tracer)
    t0 = time.perf_counter()
    snap0 = tracer.snapshot()
    prefix_s = loop.until(ops=prefix, t0=t0)
    metrics = layer_metrics(snap0, tracer.snapshot())
    wall = loop.until(seconds=args.seconds, t0=t0)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / ("spans-%s-seed%d.json" % (args.workload, args.seed))
    n_spans = tracer.dump(spans_path, {"workload": args.workload,
                                       "seed": args.seed, "prefix_ops": prefix})
    again = prefix_child(args, 1)
    untraced = prefix_child(args, 0)
    mismatched = {n: [metrics[n]["value"], again["counts"][n]] for n in EXACT
                  if metrics[n]["value"] != again["counts"][n]}
    metrics["trace.overhead"] = {"value": prefix_s / untraced["prefix_s"],
                                 "unit": "ratio"}
    info.update(prefix_ops=prefix, prefix_s=prefix_s, wall_s=wall,
                untraced_prefix_s=untraced["prefix_s"],
                determinism_mismatches=mismatched, spans=n_spans,
                spans_file=str(spans_path.relative_to(ROOT)))
    if mismatched:
        loop.failures.append("exact counts differ between two traced runs: %r"
                             % mismatched)
    return loop.failed == 0 and not mismatched, loop, metrics


def prefix_run(wl, tracer, workloads, prefix: int) -> int:
    """Child of a traced run: the trace prefix alone, in a fresh process."""
    if tracer is not None:
        from tracer import EXACT, layer_metrics
        tracer.install(extra_modules=[workloads])
        snap0 = tracer.snapshot()
    loop = Loop(wl, tracer)
    out = {"prefix_s": loop.until(ops=prefix), "failed": loop.failed}
    if tracer is not None:
        layers = layer_metrics(snap0, tracer.snapshot())
        out["counts"] = {n: layers[n]["value"] for n in EXACT}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
