"""Base-file selection cost: what the randomized policy spends per request.

Section IV's randomized algorithm is practical because its work is bounded:
O(K) light deltas per sampled response.  This benchmark measures what the
engine actually spends on it, in process, on two shapes:

* ``replay`` — the ``replay-trace`` shape: the 10-URL site (2 categories x
  5 products), 40 users, 1,200 requests per trace hour, anonymization
  N=3/M=1, browser clients behind the in-process proxy cache, every
  reconstructed document verified against a direct origin render.  Trace
  time passes the 1800 s rebase timeout, so rebase checks run too.
* ``hot`` — a live-hot-shaped engine loop: every (user, URL) pair of the
  same site in a seeded order per pass, after a warm-up pass, each user
  holding the base-files the engine advertised to them, so nearly every
  response is a delta.

Per shape it reports CPU ms per request, light estimates per request (every
caller: grouping and policy), the policy's estimate-memo hit ratio, and
light-index builds per request.  Estimates and builds are counted by
wrapping ``LightEstimator.estimate_with_index`` and the light encoder's
``index``, so the same script measures an older tree too (point
``PYTHONPATH`` at it; the memo ratio then reads 0).

Every run also computes a *decision digest* per shape: SHA-256 over each
response's kind, wire bytes and base-file references, plus the final
class states.  Memoizing estimates must not change a single decision, so
the digest must equal the committed golden value (recorded before the
memo existed); the script exits non-zero otherwise, or on any
verification failure.

Results land in ``benchmarks/results/BENCH_policy.json`` and, for the full
run, a ``policy_cost.txt`` table for EXPERIMENTS.md.  ``--baseline`` adds a
previous run's JSON (e.g. produced by this script on an older tree) to the
table for comparison.  Run::

    python benchmarks/bench_policy.py            # 3 trace hours, 5 passes
    python benchmarks/bench_policy.py --smoke    # 1 trace hour, 2 passes
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import sys
import time
from pathlib import Path

if __name__ == "__main__":  # allow `python benchmarks/bench_...py` directly
    _SRC = Path(__file__).resolve().parent.parent / "src"
    if str(_SRC) not in sys.path:
        sys.path.insert(0, str(_SRC))

from repro.core.config import AnonymizationConfig, DeltaServerConfig
from repro.core.delta_server import DeltaServer
from repro.delta.light import LightEstimator
from repro.delta.vdelta import VdeltaEncoder
from repro.http.messages import (
    HEADER_ACCEPT_DELTA,
    HEADER_DELTA,
    HEADER_DELTA_BASE,
    Request,
)
from repro.origin import OriginServer, SiteSpec, SyntheticSite
from repro.simulation import Simulation, SimulationConfig
from repro.url.rules import RuleBook
from repro.workload import WorkloadSpec, generate_workload

SITE = SiteSpec(
    name="www.shop.example",
    categories=("laptops", "desktops"),
    products_per_category=5,
)
USERS = 40
REQUESTS_PER_HOUR = 1200
SEED = 3
DEFAULT_HOURS, SMOKE_HOURS = 3, 1
DEFAULT_PASSES, SMOKE_PASSES = 5, 2
#: seconds of engine time per hot-loop request (~300 req/s)
HOT_TICK = 1 / 300

#: Decision digests recorded before the estimate memo existed, keyed by
#: ``<shape>/<size>``; identical decisions reproduce them byte for byte.
GOLDEN = {
    "replay/3h": "6c452fc8cf84a465fcf91bb8f66ed3599ee15be040361e80448feb61c5e3cf4e",
    "replay/1h": "93c508c07fe3346f72e39f696b5335d49b0ace91cb8e485d9a084b4c5dd525bf",
    "hot/5": "be1140298f99bd12209f4ec95500f151994d0c5ee0215ad62299b80e19bf7aa0",
    "hot/2": "e3b86a3aba50d40341bf1ed2b660e50be4adb241cb654dfb162db32400cd3e63",
}

RESULTS = Path(__file__).resolve().parent / "results" / "BENCH_policy.json"
TABLE = RESULTS.with_name("policy_cost.txt")


class Counts:
    """Light estimates and light-index builds, counted from outside."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.estimates = 0
        self.builds = 0

    def install(self) -> None:
        estimate = LightEstimator.estimate_with_index
        build = VdeltaEncoder.index
        light_chunk = LightEstimator().chunk_size
        counts = self

        def counted_estimate(self, index, target):
            counts.estimates += 1
            return estimate(self, index, target)

        def counted_build(self, base):
            if self.chunk_size == light_chunk:
                counts.builds += 1
            return build(self, base)

        LightEstimator.estimate_with_index = counted_estimate
        VdeltaEncoder.index = counted_build


def _class_states(engine: DeltaServer) -> list[str]:
    states = []
    for cls in sorted(engine.grouper.classes, key=lambda c: c.class_id):
        base = cls.distributable_base or b""
        stored = b"".join(
            hashlib.sha256(doc).digest() for doc in cls.policy.stored_documents
        )
        states.append(
            f"{cls.class_id} v{cls.version} {hashlib.sha256(base).hexdigest()} "
            f"{hashlib.sha256(stored).hexdigest()} {cls.policy.current_owner()}"
        )
    return states


def _memo_ratio(engine: DeltaServer) -> float:
    memo = engine.metrics.counter_value("policy_estimates_total", {"result": "memo"})
    computed = engine.metrics.counter_value(
        "policy_estimates_total", {"result": "computed"}
    )
    return memo / (memo + computed) if memo + computed else 0.0


def _summary(counts: Counts, requests: int, cpu: float, engine: DeltaServer) -> dict:
    return {
        "requests": requests,
        "cpu_ms_per_req": round(cpu / requests * 1000.0, 3),
        "light_estimates_per_req": round(counts.estimates / requests, 3),
        "index_builds_per_req": round(counts.builds / requests, 4),
        "memo_hit_ratio": round(_memo_ratio(engine), 4),
        "classes": len(engine.grouper.classes),
        "group_rebases": engine.stats.group_rebases,
        "basic_rebases": engine.stats.basic_rebases,
    }


def run_replay(hours: int, counts: Counts) -> dict:
    """The replay-trace shape through the in-process simulation."""
    spec = WorkloadSpec(
        name="replay-trace",
        requests=REQUESTS_PER_HOUR * hours,
        users=USERS,
        duration=3600.0 * hours,
        revisit_bias=0.6,
        seed=SEED,
    )
    trace = generate_workload([SyntheticSite(SITE)], spec).trace
    simulation = Simulation(
        [SyntheticSite(SITE)],
        SimulationConfig(
            verify=True,
            track_latency=False,
            delta=DeltaServerConfig(
                anonymization=AnonymizationConfig(documents=3, min_count=1)
            ),
        ),
    )
    digest = hashlib.sha256()
    verify_failures = 0
    cpu = 0.0
    for record in trace:
        client = simulation.client_for(record.user)
        stats = client.stats
        before = (
            stats.document_bytes, stats.base_file_bytes,
            stats.deltas_applied, stats.full_responses,
        )
        started = time.process_time()
        body = client.get(record.url, record.timestamp)
        cpu += time.process_time() - started
        digest.update(
            (
                f"{record.user} {record.url} "
                f"{stats.document_bytes - before[0]} {stats.base_file_bytes - before[1]} "
                f"{stats.deltas_applied - before[2]} {stats.full_responses - before[3]}\n"
            ).encode()
        )
        direct = simulation.origin.handle(
            Request(url=record.url, cookies={"uid": record.user}, client_id=record.user),
            record.timestamp,
        ).body
        verify_failures += body != direct
    engine = simulation.server
    for state in _class_states(engine):
        digest.update(state.encode() + b"\n")
    result = _summary(counts, len(trace), cpu, engine)
    server = engine.stats
    result.update(
        trace_hours=hours,
        savings=round(server.savings, 4),
        deltas=server.deltas_served,
        fulls=server.full_served,
        verify_failures=verify_failures,
        digest=digest.hexdigest(),
    )
    return result


def run_hot(passes: int, counts: Counts) -> dict:
    """The live-hot shape: every (user, URL) pair per pass, seeded order."""
    site = SyntheticSite(SITE)
    origin = OriginServer([site])
    rulebook = RuleBook()
    rulebook.add_rule(SITE.name, site.hint_rule_pattern())
    engine = DeltaServer(origin.handle, DeltaServerConfig(), rulebook)
    users = [f"user{u:04d}" for u in range(USERS)]
    pairs = [(user, site.url_for(page)) for user in users for page in site.all_pages()]
    rng = random.Random(SEED)
    held: dict[str, set[str]] = {user: set() for user in users}
    digest = hashlib.sha256()
    now = 0.0
    cpu = 0.0
    measured = 0
    for n in range(1 + passes):  # pass 0 is the warm-up
        rng.shuffle(pairs)
        for user, url in pairs:
            request = Request(url=url, cookies={"uid": user}, client_id=user)
            if held[user]:
                request.headers.set(HEADER_ACCEPT_DELTA, ",".join(sorted(held[user])))
            started = time.process_time()
            response = engine.handle(request, now)
            elapsed = time.process_time() - started
            now += HOT_TICK
            advertised = response.headers.get(HEADER_DELTA_BASE)
            if advertised:
                held[user].add(advertised)
            digest.update(
                (
                    f"{user} {url} {response.status} {response.headers.get(HEADER_DELTA)} "
                    f"{advertised} "
                ).encode()
                + hashlib.sha256(response.body).digest()
            )
            if n:
                cpu += elapsed
                measured += 1
    for state in _class_states(engine):
        digest.update(state.encode() + b"\n")
    result = _summary(counts, measured, cpu, engine)
    result.update(
        passes=passes,
        deltas=engine.stats.deltas_served,
        fulls=engine.stats.full_served,
        digest=digest.hexdigest(),
    )
    return result


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def render_table(report: dict, hours: int, passes: int) -> str:
    """The EXPERIMENTS.md table: one row per shape and arm."""
    lines = [
        f"workload: replay = {hours} trace hours ({REQUESTS_PER_HOUR * hours:,} "
        f"requests, 10 URLs, {USERS} users, N=3/M=1); hot = {passes} passes x "
        f"{USERS * 10} (user, URL) pairs after a warm-up pass",
        "",
        "shape   arm       CPU ms/req  estimates/req  memo hit  builds/req  "
        "deltas/fulls  digest",
    ]
    arms = [("baseline", report.get("baseline", {})), ("now", report["shapes"])]
    for shape in report["shapes"]:
        for arm, shapes in arms:
            row = shapes.get(shape)
            if row is None:
                continue
            lines.append(
                f"{shape:<7} {arm:<9} {row['cpu_ms_per_req']:>10.2f}  "
                f"{row['light_estimates_per_req']:>13.2f}  "
                f"{row['memo_hit_ratio']:>8.1%}  {row['index_builds_per_req']:>10.3f}  "
                f"{row['deltas']:>5}/{row['fulls']:<6}  {row['digest'][:12]}"
            )
    lines.append("")
    for shape, row in report["shapes"].items():
        base = report.get("baseline", {}).get(shape)
        if base:
            lines.append(
                f"{shape}: {base['cpu_ms_per_req'] / row['cpu_ms_per_req']:.2f}x less "
                f"CPU per request, decisions "
                f"{'identical' if base['digest'] == row['digest'] else 'DIFFERENT'}"
            )
    lines.append(
        "gate: decision digests equal the golden values: "
        + ("PASS" if report["passed"] else "FAIL")
    )
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="1 trace hour, 2 passes")
    parser.add_argument("--out", type=Path, default=RESULTS)
    parser.add_argument(
        "--baseline", type=Path, help="earlier BENCH_policy.json to compare against"
    )
    args = parser.parse_args(argv)
    hours = SMOKE_HOURS if args.smoke else DEFAULT_HOURS
    passes = SMOKE_PASSES if args.smoke else DEFAULT_PASSES

    failures = []
    shapes = {}
    counts = Counts()
    counts.install()
    for shape, size, run, arg in (
        ("replay", f"{hours}h", run_replay, hours),
        ("hot", str(passes), run_hot, passes),
    ):
        counts.reset()
        wall = time.perf_counter()
        result = run(arg, counts)
        result["wall_s"] = round(time.perf_counter() - wall, 2)
        golden = GOLDEN[f"{shape}/{size}"]
        result["golden_digest"] = golden
        result["digest_matches"] = result["digest"] == golden
        if not result["digest_matches"]:
            failures.append(f"{shape}: decision digest {result['digest']} != golden {golden}")
        if result.get("verify_failures"):
            failures.append(f"{shape}: {result['verify_failures']} verification failures")
        shapes[shape] = result
        print(
            f"{shape:>6}: {result['cpu_ms_per_req']:.2f} ms/req CPU, "
            f"{result['light_estimates_per_req']:.2f} estimates/req, "
            f"memo {result['memo_hit_ratio']:.1%}, "
            f"{result['index_builds_per_req']:.3f} index builds/req, "
            f"digest {'ok' if result['digest_matches'] else 'MISMATCH'}"
        )

    report = {
        "bench": "policy",
        "smoke": args.smoke,
        "host": {
            "python": platform.python_version(),
            "cores": os.cpu_count(),
            "cpu": _cpu_model(),
        },
        "shapes": shapes,
        "passed": not failures,
        "failures": failures,
    }
    if args.baseline is not None:
        report["baseline"] = json.loads(args.baseline.read_text())["shapes"]
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    if not args.smoke:
        TABLE.write_text(render_table(report, hours, passes), encoding="utf-8")
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
