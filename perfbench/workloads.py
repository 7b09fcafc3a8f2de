"""The workloads: what each drives, how it is warmed up and timed.

* ``live-hot`` -- one ``repro serve`` on the default 10-URL site (2
  categories x 5 products) and 40 users.  The client cycles through all
  400 (user, URL) pairs, each pass in a fresh seeded order.  A warm-up
  pass forms the classes, completes anonymization and fills the client's
  base-file cache, so nearly every measured response is a delta: encode,
  compress, client apply and the HTTP serve path do the work, grouping
  almost none (every URL hits the url -> class map).
* ``live-churn`` -- ``repro proxy`` in front of ``repro serve --workers 2
  --state-dir <fresh>``, on 4 categories x 50 products and 200 users with
  per-user session URLs.  Every request is a first visit -- a (user, page)
  session URL not requested before; the stream runs in rounds over all 200
  pages, each round in a fresh seeded order -- so responses are full
  documents of new URLs: grouping and sketch search, class creation,
  fsync'd store commits, the proxy hop (base-files shared by two client
  populations) and fleet forwarding do the work.
* ``replay-trace`` (not gated, see README) -- the in-process
  ``Simulation`` that ``repro replay --verify`` runs (browser clients,
  in-process proxy cache, anonymization N=3/M=1) over the 10-URL site, 40
  users and 1,200 requests per trace hour.  Trace time passes the 1800 s
  rebase timeout, so group rebases fire and base-file policy and rebase
  work dominate.

Each live workload is a closed loop of two callers, each waiting for its
reply before sending the next request (ApacheBench ``-c 2``).  Seeding the
order of a fixed working set, rather than sampling a Zipf trace, keeps a
run's mix of pages, users and work the same from seed to seed.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import os
import random
import resource
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from repro.core import AnonymizationConfig, DeltaServerConfig
from repro.origin import SiteSpec, SyntheticSite
from repro.simulation import Simulation, SimulationConfig
from repro.workload import WorkloadSpec, generate_workload

import live

SITE = "www.shop.example"
#: ``repro trace-gen`` / ``repro serve`` defaults: 2 categories x 5 products
SMALL_SITE = SiteSpec(name=SITE, categories=("laptops", "desktops"), products_per_category=5)
CHURN_SITE = SiteSpec(
    name=SITE,
    categories=("laptops", "desktops", "tablets", "phones"),
    products_per_category=50,
)
#: origin content changes at every epoch rollover of this period
EPOCH = SMALL_SITE.epoch_seconds

#: set-ups per live run: at least MIN_SETUPS, more while they fit in the wait
#: for the measured phase; the reported ``setup_s`` is their median
MIN_SETUPS = 3
MAX_SETUPS = 9
REPLAY_SETUPS = 9
#: every measured phase starts at this phase of the origin's epoch: 5 s
#: after a rollover, so warm-up and measured phase share one epoch
MEASURE_PHASE = 5.0
#: the warm-up starts this long before the measured phase (and is cut short
#: if it has not finished by then)
WARMUP = 4.5
#: traced runs alternate untraced and traced slices of this length
TRACE_SLICE = 1.0
REPLAY_WARMUP = 150
CHURN_WARMUP = 100


@dataclass
class Outcome:
    """Everything one run measured, before it becomes metrics and a report."""

    workload: str
    seconds: float
    setup: list[float]
    tally: live.Tally
    wall: float
    server_cpu: float
    server_rss_mb: float
    client_cpu: float
    rollovers: int
    notes: list[str] = field(default_factory=list)
    #: program counters over the measured phase (live: /__metrics__ deltas)
    counters: dict[str, float] = field(default_factory=dict)
    #: (start, end) of every traced slice; spans as (pid, *span)
    traced_slices: list[tuple[float, float]] = field(default_factory=list)
    spans: list[tuple] = field(default_factory=list)


def _next_measure_start(earliest: float) -> float:
    """The first instant at ``MEASURE_PHASE`` no earlier than ``earliest``."""
    start = (earliest // EPOCH) * EPOCH + MEASURE_PHASE
    return start if start >= earliest else start + EPOCH


async def _sleep_until(when: float) -> None:
    delay = when - time.monotonic()
    if delay > 0:
        await asyncio.sleep(delay)


# -- replay-trace -----------------------------------------------------------------


def replay_trace(seed: int) -> list:
    hours = 12
    spec = WorkloadSpec(
        name="replay-trace", requests=1200 * hours, users=40,
        duration=3600.0 * hours, revisit_bias=0.6, seed=seed,
    )
    return list(generate_workload([SyntheticSite(SMALL_SITE)], spec).trace)


def run_replay(seed: int, seconds: float, recorder=None) -> Outcome:
    records = iter(replay_trace(seed))
    config = SimulationConfig(
        verify=True,
        delta=DeltaServerConfig(
            anonymization=AnonymizationConfig(documents=3, min_count=1)
        ),
    )
    setup = []
    for _ in range(REPLAY_SETUPS):
        started = time.monotonic()
        simulation = Simulation([SyntheticSite(SMALL_SITE)], config)
        setup.append(time.monotonic() - started)
    oracle = live.make_oracle(SMALL_SITE)
    warm = live.Tally()
    for record in itertools.islice(records, REPLAY_WARMUP):
        _replay_one(simulation, record, warm, oracle, None)

    tally = live.Tally()
    before = _replay_counters(simulation)
    flag = recorder.flag if recorder is not None else None
    slices: list[tuple[float, float]] = []
    cpu0 = time.process_time()
    start = time.monotonic()
    deadline = start + seconds
    now = start
    notes = []
    while now < deadline:
        record = next(records, None)
        if record is None:
            notes.append("trace exhausted before the measured phase ended")
            break
        if flag is not None:
            traced = int((now - start) // TRACE_SLICE) % 2 == 1
            if traced and not flag[0]:
                slices.append((now, deadline))
            elif flag[0] and not traced:
                slices[-1] = (slices[-1][0], now)
            flag[0] = traced
        _replay_one(simulation, record, tally, oracle, recorder)
        now = time.monotonic()
    if flag is not None:
        flag[0] = 0
        if slices:
            slices[-1] = (slices[-1][0], min(slices[-1][1], now))
    wall = now - start
    cpu = time.process_time() - cpu0
    after = _replay_counters(simulation)
    counters = {name: after[name] - before[name] for name in after}
    counters["classes"] = after["classes"]
    spans = []
    if recorder is not None:
        pid = os.getpid()
        spans = [(pid, *span) for span in recorder.spans]
    return Outcome(
        workload="replay-trace", seconds=seconds, setup=setup, tally=tally,
        wall=wall, server_cpu=cpu,
        server_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        client_cpu=cpu, rollovers=0, notes=notes,
        counters=counters, traced_slices=slices, spans=spans,
    )


def _replay_counters(simulation) -> dict[str, float]:
    engine = simulation.server
    stats = engine.stats
    return {
        "classes": len(engine.grouper.classes),
        "group_rebases": stats.group_rebases,
        "basic_rebases": stats.basic_rebases,
        "encode_cache_hits": engine.metrics.counter_value("delta_encode_cache_hits_total"),
        "encode_cache_misses": engine.metrics.counter_value("delta_encode_cache_misses_total"),
        "sketch_hits": engine.metrics.counter_value("grouping_sketch_hits_total"),
        "sketch_misses": engine.metrics.counter_value("grouping_sketch_misses_total"),
    }


def _replay_one(simulation, record, tally: live.Tally, oracle, recorder) -> None:
    """One trace record through the browser client, timed around ``get``."""
    client = simulation.client_for(record.user)
    before = (
        client.stats.document_bytes, client.stats.base_file_bytes,
        client.stats.deltas_applied, client.stats.full_responses,
        client.stats.base_fetches, client.stats.delta_failures,
    )
    tally.attempted += 1
    rid = f"d{tally.attempted}"
    token = recorder_scope(recorder, rid)
    sent = time.monotonic()
    try:
        body = client.get(record.url, record.timestamp)
    finally:
        verified = time.monotonic()
        if token is not None:
            token()
    tally.completed += 1
    tally.samples.append((rid, sent, verified))
    stats = client.stats
    tally.document_bytes += stats.document_bytes - before[0]
    tally.base_bytes += stats.base_file_bytes - before[1]
    tally.deltas += stats.deltas_applied - before[2]
    tally.fulls += stats.full_responses - before[3]
    tally.base_fetches += stats.base_fetches - before[4]
    tally.refetches += stats.delta_failures - before[5]
    tally.reconstructed_bytes += len(body)
    expected = oracle(record.url, record.user, record.timestamp)
    tally.oracle_seconds += time.monotonic() - verified
    if expected != body:
        tally.mismatches += 1
        tally.failures.append(f"oracle mismatch: {record.url} for {record.user}")


def recorder_scope(recorder, rid: str):
    """Make ``rid`` the request id of the spans recorded until the returned
    callable runs (no-op when untraced)."""
    if recorder is None:
        return None
    import perfbench_spans

    token = perfbench_spans.request_scope(rid)
    return lambda: perfbench_spans.reset_scope(token)


# -- live workloads -----------------------------------------------------------------


def _users(count: int) -> list[str]:
    return [f"user{u:04d}" for u in range(count)]


def hot_stream(seed: int) -> tuple[list[tuple[str, str]], Iterator[tuple[str, str]]]:
    """Every (user, URL) pair of the small site, and an endless stream of
    passes over them, each pass in a fresh seeded order: each run covers
    the same hot working set, and the seed only changes the order."""
    site = SyntheticSite(SMALL_SITE)
    pairs = [(user, site.url_for(page)) for user in _users(40) for page in site.all_pages()]
    rng = random.Random(seed)
    rng.shuffle(pairs)

    def passes() -> Iterator[tuple[str, str]]:
        order = list(pairs)
        while True:
            yield from order
            rng.shuffle(order)

    return pairs, passes()


def churn_streams(seed: int) -> list[Iterator[tuple[str, str]]]:
    """First visits only, one stream per client population.

    The stream runs in rounds over every page of the churn site; round
    ``r`` gives page ``p`` to user ``(p + r) mod 200`` as that user's
    session URL, so no (user, page) pair repeats and every run covers the
    same pages at the same pace.  Population ``k`` takes the pairs whose
    user has parity ``k``, in a fresh seeded order each round.
    """
    site = SyntheticSite(CHURN_SITE)
    pages = site.all_pages()
    users = _users(200)

    def stream(k: int) -> Iterator[tuple[str, str]]:
        rng = random.Random(f"{seed}/{k}")
        for r in itertools.count():
            mine = [p for p in range(len(pages)) if (p + r) % 2 == k]
            rng.shuffle(mine)
            for p in mine:
                user = users[(p + r) % len(users)]
                yield user, f"{site.url_for(pages[p])}&sid={user}"

    return [stream(k) for k in range(2)]


class LiveRun:
    """One live workload: set-up, warm-up, measured phase, teardown."""

    def __init__(self, workload: str, seed: int, seconds: float, workdir: Path,
                 src: Path, tracehook: Path | None) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.site = SMALL_SITE if workload == "live-hot" else CHURN_SITE
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src)
        env["TMPDIR"] = str(workdir)
        env.pop("PERFBENCH_TRACE_DIR", None)
        self.flag_path = workdir / "trace.flag"
        self.span_dir = workdir / "spans"
        if tracehook is not None:
            self.span_dir.mkdir()
            self.flag_path.write_bytes(b"\0")
            env["PYTHONPATH"] = f"{tracehook}{os.pathsep}{src}"
            env["PERFBENCH_TRACE_DIR"] = str(self.span_dir)
            env["PERFBENCH_TRACE_FLAG"] = str(self.flag_path)
        self.traced = tracehook is not None
        self.env = env
        self._state_dirs = itertools.count()

    async def start_stack(self, stack: live.Stack) -> None:
        args = live.site_args(self.site)
        if self.workload == "live-hot":
            tier = stack.spawn("serve", ["serve", "--port", "0", *args])
            await stack.ready(tier, SITE)
            return
        state = self.workdir / f"state-{next(self._state_dirs)}"
        fleet = stack.spawn("fleet", [
            "serve", "--port", "0", "--workers", "2", "--state-dir", str(state),
            "--control-file", str(self.workdir / "fleet.json"), *args,
        ])
        await stack.ready(fleet, SITE)
        proxy = stack.spawn("proxy", [
            "proxy", "--port", "0", "--upstream-port", str(fleet.port),
        ])
        await stack.ready(proxy, SITE)

    async def run(self) -> Outcome:
        """Set the stack up several times; measure on the last one.

        The measured phase starts at a fixed epoch phase, so the run waits
        for it anyway; set-ups are repeated while another one fits in that
        wait (at least ``MIN_SETUPS``, at most ``MAX_SETUPS``).
        """
        setup: list[float] = []
        start = None
        while True:
            stack = live.Stack(self.workdir, self.env)
            try:
                began = time.monotonic()
                await self.start_stack(stack)
                setup.append(time.monotonic() - began)
                # Room for one more set-up and its teardown.
                spare = 1.5 * max(setup) + 1.0
                needed = max(MIN_SETUPS - len(setup), 0) * spare + WARMUP
                if start is None or time.monotonic() + needed > start:
                    start = _next_measure_start(time.monotonic() + needed)
                if len(setup) >= MIN_SETUPS and (
                    len(setup) >= MAX_SETUPS
                    or time.monotonic() + spare + WARMUP > start
                ):
                    return await self._measure(stack, setup, start)
            finally:
                stack.stop()

    async def _measure(self, stack: live.Stack, setup: list[float], start: float) -> Outcome:
        oracle = live.make_oracle(self.site)
        port = stack.entry_port
        if self.workload == "live-hot":
            pop = live.Population("0")
            callers = [(live.Connection(port), pop) for _ in range(2)]
            pairs, shared = hot_stream(self.seed)
            streams = [shared, shared]
        else:
            callers = [(live.Connection(port), live.Population(str(k))) for k in range(2)]
            streams = churn_streams(self.seed)
        # The origin renders a new snapshot of every page at each epoch
        # rollover of the monotonic clock the servers share with us, and a
        # rollover empties every encode cache: start every measured phase
        # at the same phase of that clock, with no rollover inside it.
        await _sleep_until(start - WARMUP)
        warm = live.Tally()
        if self.workload == "live-hot":
            await self._warm_hot(callers, pairs, warm, oracle, start - 0.5)
        else:
            await asyncio.gather(*(
                self._loop(conn, pop, itertools.islice(stream, CHURN_WARMUP),
                           warm, oracle, start - 0.5)
                for (conn, pop), stream in zip(callers, streams)
            ))
        tally = live.Tally()
        before = await stack.scrape(SITE)
        pids = stack.pids()
        await _sleep_until(start)
        ticks0 = live.cpu_ticks()
        cpu0 = live.cpu_seconds(pids)
        client0 = time.process_time()
        deadline = start + self.seconds
        slices: list[tuple[float, float]] = []
        toggler = asyncio.ensure_future(self._toggle(start, deadline, slices)) if self.traced else None
        # The client's own collector would add its pauses to the latencies.
        gc.collect()
        gc.disable()
        try:
            await asyncio.gather(*(
                self._loop(conn, pop, stream, tally, oracle, deadline)
                for (conn, pop), stream in zip(callers, streams)
            ))
        finally:
            gc.enable()
        end = time.monotonic()
        if toggler is not None:
            await toggler
        client_cpu = time.process_time() - client0
        server_cpu = live.cpu_seconds(pids) - cpu0
        steal, total = (b - a for a, b in zip(ticks0, live.cpu_ticks()))
        rss = live.peak_rss_mb(pids)
        after = await stack.scrape(SITE)
        for conn, _ in callers:
            await conn.aclose()
        notes = [
            f"measured phase began {start % EPOCH:.2f} s into an origin epoch",
            f"host CPU steal during the measured phase: {steal / max(total, 1):.1%}",
        ]
        if warm.failed or warm.mismatches:
            notes.append(f"warm-up: {warm.failed} failed, {warm.mismatches} mismatches")
        tally.mismatches += warm.mismatches
        tally.failures += warm.failures
        stack.stop()
        spans = self._read_spans() if self.traced else []
        return Outcome(
            workload=self.workload, seconds=self.seconds, setup=setup, tally=tally,
            wall=end - start, server_cpu=server_cpu, server_rss_mb=rss,
            client_cpu=client_cpu,
            rollovers=int(end // EPOCH) - int(start // EPOCH), notes=notes,
            counters=_counter_deltas(before, after), traced_slices=slices, spans=spans,
        )

    async def _warm_hot(self, callers, pairs, warm, oracle, deadline) -> None:
        """Request every (user, URL) pair until each holds a base-file ref."""
        pop = callers[0][1]
        for _ in range(3):
            todo = iter([p for p in pairs if p not in pop.refs])
            await asyncio.gather(*(
                self._loop(conn, pop, todo, warm, oracle, deadline) for conn, _ in callers
            ))
            if all(p in pop.refs for p in pairs) or time.monotonic() >= deadline:
                return

    async def _loop(self, conn, pop, pairs, tally, oracle, deadline) -> None:
        """One closed-loop caller: the next request only after the last."""
        for user, url in pairs:
            if time.monotonic() >= deadline:
                return
            await live.fetch_document(conn, pop, user, url, tally, oracle)

    async def _toggle(self, start: float, deadline: float, slices) -> None:
        """Alternate untraced and traced slices through the shared flag."""
        with open(self.flag_path, "r+b") as flag:
            k = 0
            while start + k * TRACE_SLICE < deadline:
                await _sleep_until(start + k * TRACE_SLICE)
                traced = k % 2 == 1
                flag.seek(0)
                flag.write(b"\1" if traced else b"\0")
                flag.flush()
                if traced:
                    slices.append((start + k * TRACE_SLICE,
                                   min(start + (k + 1) * TRACE_SLICE, deadline)))
                k += 1
            await _sleep_until(deadline)
            flag.seek(0)
            flag.write(b"\0")
            flag.flush()

    def _read_spans(self) -> list[tuple]:
        import json

        spans = []
        for path in sorted(self.span_dir.glob("spans-*.json")):
            data = json.loads(path.read_text())
            spans += [(data["pid"], *span) for span in data["spans"]]
        return spans


def _counter_deltas(before, after) -> dict[str, float]:
    def delta(name: str, label: str = "") -> float:
        return live.metric_total(after, name, label) - live.metric_total(before, name, label)

    return {
        "classes": live.metric_total(after, "repro_engine_classes"),
        "group_rebases": delta("repro_engine_group_rebases_total"),
        "basic_rebases": delta("repro_engine_basic_rebases_total"),
        "encode_cache_hits": delta("repro_delta_encode_cache_hits_total"),
        "encode_cache_misses": delta("repro_delta_encode_cache_misses_total"),
        "sketch_hits": delta("repro_grouping_sketch_hits_total"),
        "sketch_misses": delta("repro_grouping_sketch_misses_total"),
        "forwarded": delta("repro_fleet_forwarded_total"),
        "local_served": delta("repro_fleet_local_served_total"),
        "proxy_hits": delta("repro_proxy_cache_hits_total"),
        "proxy_misses": delta("repro_proxy_cache_misses_total"),
        "write_seconds": delta("repro_server_stage_seconds_sum", 'stage="write"'),
        "store_commits": delta("repro_store_commits_total"),
    }


def run_live(workload: str, seed: int, seconds: float, workdir: Path, src: Path,
             tracehook: Path | None) -> Outcome:
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    return asyncio.run(LiveRun(workload, seed, seconds, workdir, src, tracehook).run())
