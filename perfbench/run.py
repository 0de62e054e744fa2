"""Run one radixroot benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep_par --seed 1 --seconds 35 --trace 0

Run from anywhere inside a source checkout; the library is imported from
``src/`` next to this directory.  With ``--trace 0`` the last line of
stdout is a JSON object whose metrics are the end-to-end metrics; with
``--trace 1`` they are the per-layer metrics of a traced run.  The lines
before it print the workload's named metrics with units, and the seed,
commit, Python version, core count and platform.  perfbench/README.md
defines every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(ROOT))

from perfbench import tracer as tr  # noqa: E402
from perfbench import workloads as wl  # noqa: E402

WORKLOADS = ("sweep_par", "queries", "big_inputs")
SETUP_SAMPLES = 21
END_TO_END = (("setup_s", "s"), ("throughput_per_s", "1/s"), ("latency_ms", "ms"),
              ("peak_rss_mb", "MB"))


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    spec = []
    for layer, functions in tr.LAYERS.items():
        for fn in functions:
            spec += [(f"{layer}.{fn}.calls", "count", "lower"), (f"{layer}.{fn}.self_s", "s", "lower")]
    spec += [(f"{name}.hit_ratio", "ratio", "higher") for name in tr.CACHED]
    spec += [("radix.to_repeating.digits", "count", "higher"),
             ("theorems.main2.tested_ratio", "ratio", "higher"),
             ("theorems.pool.cpu_s", "s", "lower"),
             ("theorems.pool.busy_frac", "ratio", "higher"),
             ("trace.overhead_frac", "ratio", "lower")]
    return spec


class TraceSession:
    """Installs the tracer around traced rounds and keeps cache counts."""

    def __init__(self, rr):
        self.rr = rr
        self.tracer = tr.Tracer()
        self.rounds = 0
        self.cache = {name: [0, 0] for name in tr.CACHED}

    def begin(self) -> None:
        self._before = tr.cache_counts(self.rr)
        self._patches = tr.install(self.tracer, self.rr)

    def end(self) -> None:
        tr.uninstall(self._patches)
        after = tr.cache_counts(self.rr)
        for name, (hits, misses) in after.items():
            self.cache[name][0] += hits - self._before[name][0]
            self.cache[name][1] += misses - self._before[name][1]
        self.rounds += 1


def drive(round_fn, seconds: float, session: TraceSession | None = None, after_round=None):
    """Run whole rounds until ``seconds`` have passed, calling
    ``after_round`` between them.  A traced run traces every second
    round, runs at least two, and leaves the other rounds untraced."""
    rounds = []
    deadline = wl.clock() + seconds
    i = 0
    while True:
        traced = session is not None and i % 2 == 1
        if traced:
            session.begin()
        try:
            result = round_fn(i)
        finally:
            if traced:
                session.end()
        rounds.append((traced, result))
        i += 1
        if wl.clock() >= deadline and (session is None or i >= 2):
            return rounds
        if after_round is not None:
            after_round()


class SetupSampler:
    """Seconds from ``import radixroot`` until the first warm-up call
    returns, each in a fresh interpreter.

    The host's speed drifts over seconds, so the samples are spread
    evenly over the timed window, between rounds, instead of being taken
    back to back; ``finish`` takes any still missing at the end.
    """

    def __init__(self, warmup_code: str, seconds: float):
        self.code = (f"import sys, time\nt0 = time.perf_counter()\n"
                     f"sys.path.insert(0, {str(SRC)!r})\nimport radixroot\n{warmup_code}\n"
                     f"print(time.perf_counter() - t0)\n")
        self.start = wl.clock()
        self.interval = seconds / SETUP_SAMPLES
        self.samples = []

    def sample(self) -> None:
        proc = subprocess.run([sys.executable, "-I", "-c", self.code], cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        self.samples.append(float(proc.stdout.split()[-1]))

    def due(self) -> None:
        while (len(self.samples) < SETUP_SAMPLES
               and wl.clock() >= self.start + len(self.samples) * self.interval):
            self.sample()

    def finish(self) -> list[float]:
        while len(self.samples) < SETUP_SAMPLES:
            self.sample()
        return self.samples


def layer_metrics(session: TraceSession | None, rounds, workers: int) -> dict[str, float]:
    metrics = {name: 0 for name, _, _ in per_layer_spec()}
    if session is not None:
        n = session.rounds
        for name, (calls, self_s) in session.tracer.summary().items():
            metrics[f"{name}.calls"] = calls / n
            metrics[f"{name}.self_s"] = self_s / n
        for name, (hits, misses) in session.cache.items():
            metrics[f"{name}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0
        metrics["radix.to_repeating.digits"] = session.tracer.counters.get(
            "radix.to_repeating.digits", 0) / n
        traced = [r["busy_s"] for t, r in rounds if t]
        untraced = [r["busy_s"] for t, r in rounds if not t and r.get("workers", 1) == 1]
        metrics["trace.overhead_frac"] = wl.median(traced) / wl.median(untraced) - 1
    sweeps = [r for _, r in rounds if "main2_tested" in r]
    if sweeps:
        metrics["theorems.main2.tested_ratio"] = (
            sum(r["main2_tested"] for r in sweeps) / sum(r["main2_tuples"] for r in sweeps))
        pooled = [r for r in sweeps if r["workers"] > 1]
        cpu = sum(r["child_cpu_s"] for r in pooled)
        metrics["theorems.pool.cpu_s"] = cpu / len(pooled)
        metrics["theorems.pool.busy_frac"] = cpu / (workers * sum(r["busy_s"] for r in pooled))
    return metrics


def read_commit() -> str:
    """HEAD of the checkout's git directory, or 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "radixroot" / "__init__.py").is_file():
        print(f"error: no radixroot sources under {SRC}", file=sys.stderr)
        return 2

    workload, seed = args.workload, args.seed
    workers = 2 if workload == "sweep_par" else 1
    if workload == "sweep_par":
        warmup_code, warmup = wl.sweep_warmup_code(seed), wl.sweep_warmup
    elif workload == "queries":
        warmup_code, warmup = wl.query_warmup_code(seed), wl.query_warmup
    else:
        warmup_code, warmup = wl.big_warmup_code(seed), wl.big_warmup

    sys.path.insert(0, str(SRC))
    import radixroot as rr

    warmup(rr, seed)
    gate = wl.Gate()
    session = TraceSession(rr) if args.trace else None
    if workload == "sweep_par":
        def round_fn(i):
            return wl.sweep_round(rr, workers, gate)
    elif workload == "queries":
        cli_requests = wl.cli_sample(seed) if args.trace else ()

        def round_fn(i):
            return wl.query_round(rr, seed, i, gate, cli_requests)
    else:
        # Jobs stop starting this long after the timed window, so that a
        # run ends well within its limit even when every job hits its cap.
        deadline = wl.clock() + args.seconds + 90

        def round_fn(i):
            return wl.big_round(rr, seed, i, gate, deadline)
    if session is None:
        sampler = SetupSampler(warmup_code, args.seconds)
        rounds = drive(round_fn, args.seconds, after_round=sampler.due)
        setup = sampler.finish()
    elif workload == "sweep_par":
        # Pool workers are out of the tracer's reach.  The first half of a
        # traced run uses the pool, as a timed run does: each pool forks
        # from a parent that has run only the warm-up, and these rounds
        # give the theorems.pool counters.  The second half runs the same
        # sweeps with workers=1, alternately untraced and traced, for the
        # spans and the tracing overhead.
        rounds = drive(round_fn, args.seconds / 2)
        rounds += drive(lambda i: wl.sweep_round(rr, 1, gate), args.seconds / 2, session)
    else:
        rounds = drive(round_fn, args.seconds, session)
    # Read before the metrics are computed, whose temporary lists would
    # otherwise count towards the peak.
    rss_mb = wl.peak_rss_mb(workers)

    lines = []
    if args.trace:
        metrics = layer_metrics(session, rounds, workers)
        units = {name: unit for name, unit, _ in per_layer_spec()}
        if session is not None:
            session.tracer.write(OUT / f"trace-{workload}", {"workload": workload, "seed": seed})
    else:
        timed = [r for _, r in rounds]
        if workload == "sweep_par":
            metrics, lines = wl.sweep_metrics(timed)
        elif workload == "queries":
            cli_ms = wl.run_cli_sample(rr, SRC, seed, gate)
            metrics, lines = wl.query_metrics(timed, cli_ms)
        else:
            metrics, lines = wl.big_metrics(timed)
        metrics["setup_s"] = wl.median(setup)
        metrics["peak_rss_mb"] = rss_mb
        lines = [("setup_s", metrics["setup_s"], "s", f"median of {len(setup)} fresh processes"),
                 *lines,
                 ("peak_rss_mb", metrics["peak_rss_mb"], "MB",
                  "this process" + (f" + {workers} x largest child" if workers > 1 else ""))]
        units = dict(END_TO_END)
        metrics = {name: metrics[name] for name, _ in END_TO_END}
    fail_frac = gate.failed / gate.attempted if gate.attempted else 1.0
    lines.append(("fail_frac", fail_frac, "ratio", f"{gate.failed} of {gate.attempted} operations"))

    for message in gate.messages:
        print(f"FAILED: {message}", file=sys.stderr)
    print(f"workload={workload} seed={seed} trace={args.trace} rounds={len(rounds)}")
    for name, value, unit, note in lines:
        print(f"{name} {value:.6g} {unit} ({note})")
    env = {"workload": workload, "seed": seed, "seconds": args.seconds, "trace": args.trace,
           "commit": read_commit(), "python": platform.python_version(),
           "nproc": len(os.sched_getaffinity(0)), "platform": platform.platform()}
    print("env " + json.dumps(env))
    result = {
        "correct": gate.failed == 0 and gate.attempted > 0,
        "attempted": max(gate.attempted, 1),
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
