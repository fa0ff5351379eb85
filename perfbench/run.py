"""argudyn benchmark: four seeded workloads, one closed-loop client each.

    python3 perfbench/run.py --workload cnf-gadgets --seed 1 --seconds 28 --trace 0

Run from the repository root.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 they are the per-layer ones,
and the spans and a per-layer summary are written under perfbench/traces/.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

STARTED = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
MIN_OPS = 100  # so that ten samples lie beyond the 90th percentile
WORKLOADS = ("cnf-gadgets", "degree-repair", "fo-small", "cli-solve")


def _import_program():
    """Import argudyn from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "argudyn" / "__init__.py").is_file():
        sys.exit(f"error: no argudyn sources under {src}")
    sys.path[:0] = [str(src), str(HERE)]
    import argudyn

    if Path(argudyn.__file__).resolve().parent != src / "argudyn":
        sys.exit(f"error: argudyn was imported from {argudyn.__file__}")


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _result_key(result):
    """Equal keys mean equal outputs, which need checking once; None for
    outputs that must each be checked (gen calls write new files)."""
    if isinstance(result, list):
        return tuple(
            (r.answer, None if r.witness is None else r.witness.mask) for r in result
        )
    if isinstance(result, subprocess.CompletedProcess):
        return (result.returncode, result.stdout)
    return None


def _median_subprocess_ms(cmd, env, repeats=7) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=env, check=True, capture_output=True)
        times.append(time.perf_counter() - t0)
    return 1000 * statistics.median(times)


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_program()
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    import workloads

    imported = time.perf_counter()
    work = HERE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        # one set-up is the round's inputs plus a warm-up operation; it is
        # repeated and its median taken, since a single one is as long as
        # the machine's second-to-second swings
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            ops = workloads.setup(args.workload, args.seed, ROOT, work)
            ops[0].run()  # warm-up
            setup_times.append(time.perf_counter() - t0)
        setup_s = (imported - STARTED) + statistics.median(setup_times)

        latencies: list[float] = []
        # (operation, output key) -> [output, times seen]: repeated outputs are
        # kept once, so memory does not grow with the number of rounds
        outputs: dict[tuple, list] = {}
        child_peak_kb = 0
        rounds = 0
        loop_start = time.perf_counter()
        while True:
            if tracer:
                tracer.round = rounds
            for i, op in enumerate(ops):
                span = tracer.open("op") if tracer else None
                t0 = time.perf_counter()
                result = op.run()
                latencies.append(time.perf_counter() - t0)
                if args.workload == "cli-solve":
                    child_peak_kb = max(child_peak_kb, workloads.cli_peak_kb(result))
                if tracer:
                    tracer.close(span)
                    if op.hook:
                        op.hook()
                key = (i, _result_key(result) or len(latencies))
                if key in outputs:
                    outputs[key][1] += 1
                else:
                    outputs[key] = [result, 1]
            rounds += 1
            elapsed = time.perf_counter() - loop_start
            # stop at the round boundary nearest to --seconds, so that a
            # long round does not stretch the run by up to its own length
            if (elapsed + 0.5 * elapsed / rounds >= args.seconds
                    and len(latencies) >= MIN_OPS):
                break
        wall = time.perf_counter() - loop_start

        correct, failed = _check(ops, outputs)
        if args.workload == "cli-solve":
            peak_kb = child_peak_kb
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "ops_per_s": (len(latencies) / wall, "1/s"),
            "latency_p50_ms": (1000 * statistics.median(latencies), "ms"),
            "latency_p90_ms": (1000 * statistics.quantiles(latencies, n=10)[8], "ms"),
            "peak_rss_mb": (peak_kb / 1024, "MB"),
            "setup_s": (setup_s, "s"),
        }
        if tracer:
            metrics = _traced_report(tracer, args, len(ops), latencies, wall, rounds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's files are still there
    print(json.dumps({
        "correct": correct,
        "attempted": len(latencies),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _check(ops, outputs) -> tuple[bool, int]:
    """Judge every output; an operation whose only problems are known
    faults counts as failed, any other problem makes the run incorrect."""
    correct, failed = True, 0
    for (i, _), (result, times) in outputs.items():
        problems = ops[i].check(result)
        if any(not p.fault for p in problems):
            if correct:
                for p in problems:
                    print(f"INCORRECT {ops[i].label}: {p.message}", file=sys.stderr)
            correct = False
        elif problems:
            failed += times
    return correct, failed


def _traced_report(tracer, args, round_ops, latencies, wall, rounds):
    import workloads

    if args.workload == "cli-solve":
        env = workloads.cli_env(ROOT)
        interp = _median_subprocess_ms([sys.executable, "-c", "pass"], env)
        full = _median_subprocess_ms([sys.executable, "-c", "import argudyn.cli"], env)
        tracer.extra.update(interp_ms=interp, import_ms=full - interp)
    tracer.finish()
    summary = tracer.summary(ops=len(latencies), rounds=rounds)
    summary["ops_per_s"] = len(latencies) / wall
    summary["rounds"] = rounds
    summary["ops_per_round"] = round_ops
    out = HERE / "traces"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    tracer.write(out / f"{stem}.spans.jsonl")
    (out / f"{stem}.summary.json").write_text(
        json.dumps(summary, indent=2, default=list) + "\n", encoding="utf-8")
    print(f"traced {args.workload}: {summary['ops_per_s']:.2f} ops/s, "
          f"{rounds} rounds; summary in {out / (stem + '.summary.json')}",
          file=sys.stderr)
    for name, layer in summary["layers"].items():
        print(f"  {name:28s} {layer['calls_per_op']:8.2f} calls/op "
              f"{layer['ms_per_op']:9.3f} ms/op  self {layer['self_ms_per_op']:9.3f}",
              file=sys.stderr)
    if not summary["exact_counts_repeat"]:
        print("warning: exact counts differ between rounds", file=sys.stderr)
    return summary["metrics"]


if __name__ == "__main__":
    sys.exit(main())
