"""The repository's benchmark: one command, every workload, every metric.

    python3 perfbench/run.py --workload live-hot --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` runs the same workload with span
wrappers in every process and reports the per-layer ledger instead.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Every document is
checked against an independent origin render; a mismatch fails the run
(exit code 1).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import signal
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TRACEHOOK = BENCH / "tracehook"
WORKLOADS = ("replay-trace", "live-hot", "live-churn")

PAPER = (
    "paper reference (not gated): Table II savings 94.8-97.1 % (19-35x); "
    "capacity 175-180 req/s plain vs ~130 req/s with deltas; "
    "delta generation 6-8 ms for 50-60 KB base-files (P-III 866 MHz)"
)


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    rank = max(math.ceil(len(ordered) * q / 100.0), 1)
    return ordered[rank - 1]


def end_to_end(outcome) -> dict[str, tuple[float, str]]:
    tally = outcome.tally
    latencies = [verified - sent for _, sent, verified in tally.samples]
    done = max(tally.completed, 1)
    received = tally.document_bytes + tally.base_bytes
    return {
        "throughput_rps": (tally.completed / outcome.wall, "req/s"),
        "latency_p50_ms": (nearest_rank(latencies, 50) * 1000.0, "ms"),
        "latency_p99_ms": (nearest_rank(latencies, 99) * 1000.0, "ms"),
        "wire_share": (received / max(tally.reconstructed_bytes, 1), "ratio"),
        "server_cpu_ms_per_req": (outcome.server_cpu / done * 1000.0, "ms"),
        "server_rss_mb": (outcome.server_rss_mb, "MB"),
        "setup_s": (statistics.median(outcome.setup), "s"),
    }


def report_end_to_end(outcome, metrics) -> None:
    tally = outcome.tally
    n = len(tally.samples)
    beyond = n - math.ceil(n * 0.99)
    print(f"end-to-end, tracing off ({n} latency samples, send to verified document)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<24} {value:>12.4f} {unit}")
    p99 = "" if beyond >= 10 else "  (fewer than 10 samples beyond p99: indicative only)"
    print(f"  {'samples beyond p99':<24} {beyond:>12d}{p99}")
    latencies = [verified - sent for _, sent, verified in tally.samples]
    print("  latency quantiles ms: " + ", ".join(
        f"p{q:g} {nearest_rank(latencies, q) * 1000.0:.2f}" for q in (10, 25, 50, 75, 90, 95, 98, 99, 99.9)))
    rate = tally.failed / max(tally.attempted, 1)
    print(f"  {'error_rate':<24} {rate:>12.4f} fraction ({tally.failed} of {tally.attempted})")
    print(f"  {'client_cpu_ms_per_req':<24} "
          f"{outcome.client_cpu / max(tally.completed, 1) * 1000.0:>12.4f} ms")
    print(f"  {'deltas / fulls':<24} {tally.deltas:>6d} / {tally.fulls}")
    print(f"  {'epoch rollovers seen':<24} {outcome.rollovers:>12d}")
    print(f"  setup_s samples: {', '.join(f'{s:.4f}' for s in outcome.setup)}")


def report_ledger(workload: str, outcome, ledger_data, metrics) -> None:
    import ledger
    import workloads

    n = max(ledger_data["requests"], 1)
    total = max(ledger_data["latency_total"], 1e-12)
    print(f"per-layer ledger, traced slices ({ledger_data['requests']} documents; "
          f"mean latency {total / n * 1000.0:.3f} ms)")
    print(f"  {'layer':<14} {'self ms/req':>12} {'share':>8}  should move")
    for layer in ledger.LAYERS:
        seconds = ledger_data["layers"].get(layer, 0.0)
        print(f"  {layer:<14} {seconds / n * 1000.0:>12.4f} {seconds / total:>8.1%}  "
              f"{ledger.MOVES[layer]}")
    untraced, traced = ledger.tracing_overhead(outcome)
    print(f"  DeltaServer.handle not covered by a child span: "
          f"{metrics['engine.unattributed_share'][0]:.1%}")
    print(f"  tracing overhead: {traced:.1f} req/s traced vs {untraced:.1f} req/s "
          f"untraced in alternating {workloads.TRACE_SLICE:g} s slices")
    print(f"  predicted pairing ({workload}): {ledger.pairing(workload, ledger_data)}")
    print("per-layer metrics")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:>12.4f} {unit}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    # A terminated run still stops the servers it started (finally blocks).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.path[:0] = [str(SRC), str(BENCH), str(TRACEHOOK)]
    import ledger
    import workloads

    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}"
    if args.workload == "replay-trace":
        recorder = None
        if args.trace:
            import perfbench_spans

            recorder = perfbench_spans.install(bytearray(1))
        outcome = workloads.run_replay(args.seed, args.seconds, recorder)
    else:
        outcome = workloads.run_live(
            args.workload, args.seed, args.seconds, workdir, SRC,
            TRACEHOOK if args.trace else None,
        )

    tally = outcome.tally
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for note in outcome.notes:
        print(f"  note: {note}")
    if not tally.samples:
        print("perfbench: no document completed in the measured phase", file=sys.stderr)
        for failure in tally.failures:
            print(f"  failure: {failure}", file=sys.stderr)
        return 1
    e2e = end_to_end(outcome)
    report_end_to_end(outcome, e2e)
    if args.trace:
        ledger_data = ledger.build(outcome)
        metrics = ledger.per_layer_metrics(outcome, ledger_data)
        report_ledger(args.workload, outcome, ledger_data, metrics)
    else:
        metrics = e2e
    print(PAPER)
    loop = "in process, one caller" if args.workload == "replay-trace" else "closed loop of 2 callers"
    print(f"ours: savings {1.0 - e2e['wire_share'][0]:.1%}, "
          f"{e2e['throughput_rps'][0]:.1f} req/s ({args.workload}, {loop})")
    if args.trace and metrics["client.delta_share"][0] > 0:
        generation = metrics["vdelta.encode_ms"][0] + metrics["vdelta.compress_ms"][0]
        print(f"ours: delta generation (encode + compress) "
              f"{generation / metrics['client.delta_share'][0]:.2f} ms per delta "
              f"on ~35 KB documents")
    correct = tally.mismatches == 0
    for failure in tally.failures[:5]:
        print(f"  failure: {failure}")
    if correct:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run's files, or nothing was created
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
