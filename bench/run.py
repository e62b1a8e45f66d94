#!/usr/bin/env python3
"""labimpute benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload iris-grid --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; labimpute is imported from ./src.
Every invocation first runs the bundled iris experiment once (the behaviour
lock) and records its runs.csv digest with the machine it ran on.  Then the
workload is set up several times (the median is ``setup_s``) and its fixed
pass of operations repeats until ``--seconds`` would be exceeded, at least
twice, so outputs can be compared across passes.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics, the
tracing overhead among them.  ``--smoke`` shrinks every workload to a size
that runs in seconds.  Human-readable lines go first; the last line of
standard output is the JSON result.  The full record, and in trace mode the
spans, are written under ./.bench_out/.

The exit code is 0 whenever the result line is printed, also when an op
failed: ``correct`` and ``failed`` report that.  It is not 0, and no result
is printed, when the benchmark itself cannot run (no ./src to import).
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("iris-grid", "synth-missforest", "mice-predict"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, for checking that the benchmark works")
    return p.parse_args(argv)


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolated percentile, as numpy's default method."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def timed_passes(run_one, seconds: float, min_passes: int) -> list:
    """Repeat passes until the next one would end after ``seconds``."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_one(len(passes)))
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def import_seconds() -> float:
    """Time ``import labimpute`` in a fresh interpreter, as a user pays it."""
    code = ("import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
            "import labimpute; print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                          capture_output=True, text=True, timeout=120)
    return float(done.stdout)


class SetupSampler:
    """Set-up samples spread over the run, so one slow spell of a shared
    machine does not set the median: one import and one workload set-up
    before the first pass and after each pass, up to ``limit`` samples."""

    limit = 5

    def __init__(self, wl, seed: int):
        self.wl, self.seed = wl, seed
        self.import_s: list[float] = []
        self.setup_s: list[float] = []
        self.state = None

    def sample(self) -> None:
        if len(self.setup_s) >= self.limit:
            return
        self.import_s.append(import_seconds())
        t0 = time.perf_counter()
        self.state = self.wl.setup(self.seed)
        self.setup_s.append(time.perf_counter() - t0)

    def median(self) -> float:
        return statistics.median(self.import_s) + statistics.median(self.setup_s)


def judge_ops(passes) -> tuple[int, list[str]]:
    """Attempted ops and the failures: failed checks, plus any op whose
    output differs from the same op's output in the first pass."""
    first = {op.key: op.digest for op in passes[0].ops}
    attempted, failures = 0, []
    for i, p in enumerate(passes):
        for op in p.ops:
            attempted += 1
            if op.error:
                failures.append(f"pass {i} {op.key}: {op.error}")
            elif op.digest != first.get(op.key):
                failures.append(f"pass {i} {op.key}: output differs from pass 0")
    return attempted, failures


def end_to_end(wl, passes, setup_s, attempted, failures) -> dict:
    lat = [op.latency_s for p in passes for op in p.ops]
    acc = [a for p in passes for a in p.accuracy]
    mse = [e for p in passes for e in p.masked_mse]
    return {
        "setup_s": setup_s,
        "run_s": statistics.median(p.wall_s for p in passes),
        "op_p50_s": percentile(lat, 50),
        "op_tail_s": percentile(lat, wl.tail_pct),
        "ok_rate": 1.0 - len(failures) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "accuracy": statistics.fmean(acc) if acc else 0.0,
        "masked_mse": statistics.fmean(mse) if mse else 0.0,
    }


def per_layer(tracing, wl, tracer, untraced, traced, serial) -> dict:
    m = tracing.layer_metrics(tracer.spans, "run", len(traced))
    setup = tracing.layer_metrics(tracer.spans, "setup", 1)
    for name in ("data.calls", "data.busy_s", "forest.fit_s", "forest.nodes"):
        m[f"setup.{name}"] = setup[name]
    base = statistics.median(p.wall_s for p in untraced)
    if serial is not None:
        m["harness.cpu_util"] = statistics.median(
            p.cpu_s / (p.wall_s * wl.threads) for p in untraced)
        m["harness.speedup_vs_serial"] = serial.wall_s / base
    else:
        m["harness.cpu_util"] = 0.0
        m["harness.speedup_vs_serial"] = 0.0
    overhead = statistics.median(p.wall_s for p in traced) - base
    m["trace.overhead_s"] = overhead
    m["trace.overhead_ratio"] = overhead / base
    return m


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    try:
        import labimpute  # noqa: F401
    except ImportError as exc:
        print(f"bench: cannot import labimpute from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2

    import envrecord
    import tracer as tracing
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=out_dir))
    try:
        env = envrecord.environment(ROOT)
        lock = envrecord.behaviour_lock(tmp)
        wl = workloads.WORKLOADS[args.workload](args.smoke, tmp)
        record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "smoke": args.smoke,
                  "environment": env, "behaviour_lock": lock}

        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                state = wl.setup(args.seed)
            finally:
                tracer.uninstall()

            def run_one(i):
                if i % 2 == 0:
                    return wl.run_pass(state)
                tracer.phase = f"run{i}"
                tracer.install()
                try:
                    return wl.run_pass(state)
                finally:
                    tracer.uninstall()

            passes = timed_passes(run_one, args.seconds, 2)
            untraced, traced = passes[0::2], passes[1::2]
            serial = None
            if hasattr(wl, "threads"):
                serial = wl.run_pass(state, threads=1)
                passes.append(serial)  # its outputs are judged like the rest
            metrics = per_layer(tracing, wl, tracer, untraced, traced, serial)
            if tracer.missing_targets:
                record["untraced_functions"] = tracer.missing_targets
            tracer.write_jsonl(out_dir / f"spans-{wl.name}-seed{args.seed}.jsonl")
            listed = spec["per_layer"]
        else:
            setup = SetupSampler(wl, args.seed)
            setup.sample()

            def run_one(i):
                done = wl.run_pass(setup.state)
                setup.sample()
                return done

            passes = timed_passes(run_one, args.seconds, 2)
            record["setup_samples_s"] = setup.setup_s
            record["import_samples_s"] = setup.import_s
            listed = spec["end_to_end"]

        attempted, failures = judge_ops(passes)
        attempted += 1  # the lock run
        if lock["exit_code"] != 0:
            failures.append(f"behaviour lock run failed: exit {lock['exit_code']}")
        if not args.trace:
            metrics = end_to_end(wl, passes, setup.median(), attempted, failures)
        n_ops = sum(len(p.ops) for p in passes)
        record.update({
            "passes": len(passes),
            "pass_wall_s": [p.wall_s for p in passes],
            "op_latency_s": [{op.key: op.latency_s for op in p.ops} for p in passes],
            "ops": n_ops,
            "op_tail_percentile": wl.tail_pct,
            "op_samples_beyond_tail": n_ops - 1 - math.floor((n_ops - 1) * wl.tail_pct / 100),
            "error_rate": len(failures) / attempted,
            "failures": failures,
            "metrics": metrics,
        })

        result = {"correct": not failures, "attempted": attempted,
                  "failed": len(failures), "metrics": {}}
        print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
              f"passes {len(passes)}  ops {n_ops}  failed {len(failures)}  "
              f"error_rate {record['error_rate']:.6g}")
        print(f"behaviour lock runs.csv sha256 {lock['runs_csv_sha256'] or '-'} "
              f"({'matches' if lock['matches'] else 'DIFFERS FROM'} "
              f"{lock['expected_prefix']}…)")
        if not args.trace:
            print(f"op_tail_s is p{wl.tail_pct} of {n_ops} op latencies, "
                  f"{record['op_samples_beyond_tail']} beyond it")
        for f in failures[:20]:
            print(f"FAILED {f}")
        for m in listed:
            value = metrics.get(m["name"])
            if value is None:
                print(f"bench: {m['name']} not measured (see bench/README.md)",
                      file=sys.stderr)
                continue
            result["metrics"][m["name"]] = {"value": value, "unit": m["unit"]}
            print(f"  {m['name']:36s} {value:>14.6g} {m['unit']}  ({m['better']} is better)")
        record["result"] = result
        name = f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
        (out_dir / name).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
        print(json.dumps(result))
        return 0  # failed ops are reported in the result, not by the exit code
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
