"""Per-layer ledger of a traced run: where each request's time went.

Every document request of a traced slice is one tree of spans.  Its root
is the client's latency window (send to verified document); spans from
the program's processes hang below it.  Inside one process the parent of
a span is the span that was running when it started.  Across processes
a span with no local parent belongs under the smallest *hop* span of the
same request that contains it -- the client window, the proxy's wait for
its upstream (``proxy.upstream``) or a fleet forward (``fleet.forward``).
Self time is a span's duration minus the durations of its children.

A read span (``serve.read``, ``proxy.read``) starts when the server
begins waiting for the next request on a keep-alive connection, so its
start is moved to the moment that request was sent by the hop in front.
The proxy writes a request upstream before it calls ``read_response``, so
its hop (``proxy.upstream``) is taken to start where its read of the
request ended.

Helper calls made on behalf of an owning component -- light estimates
and encodes inside ``Grouper.classify``, the differ inside
``DocumentClass.feed`` -- are charged to that owner, so each
``<function>_ms`` is the cost of the component, and ``vdelta.encode`` is
the encode of responses only.
"""

from __future__ import annotations

from collections import defaultdict

from repro.core.delta_server import parse_stage_times

#: span names whose nested helper calls are charged to them
OWNERS = ("grouping.classify", "policy.observe", "rebase.check", "classes.feed")
#: spans a request waits in while a process further in serves it
HOPS = ("client.request", "proxy.upstream", "fleet.forward")
READS = ("serve.read", "proxy.read")

LAYERS = {
    "client": ("client.request", "client.apply"),
    "proxy": ("proxy.read", "proxy.upstream", "proxy.serialize"),
    "fleet": ("fleet.forward",),
    "serve": ("serve.read", "serve.queue", "serve.serialize"),
    "engine": ("engine.handle",),
    "origin": ("origin.render",),
    "grouping": ("grouping.classify",),
    "policy": ("policy.observe", "rebase.check", "light.estimate", "light.index"),
    "anonymization": ("classes.feed",),
    "encode": ("vdelta.encode", "vdelta.index"),
    "store": ("store.commit",),
}
LAYER_OF = {name: layer for layer, names in LAYERS.items() for name in names}

#: which end-to-end metric each layer should move, and on which workload
MOVES = {
    "client": "latency_p50_ms on live-hot (client CPU also caps throughput_rps)",
    "proxy": "latency_p50_ms on live-churn",
    "fleet": "latency_p50_ms on live-churn",
    "serve": "throughput_rps on live-hot",
    "engine": "latency_p99_ms on live-hot",
    "origin": "nothing (control)",
    "grouping": "throughput_rps on live-churn",
    "policy": "throughput_rps on replay-trace; lock wait on live-hot",
    "anonymization": "throughput_rps on live-churn",
    "encode": "latency_p50_ms and throughput_rps on live-hot",
    "store": "latency_p99_ms on live-churn",
}

#: predicted dominant layers per workload, against the layers predicted
#: for the other workloads
PAIRINGS = {
    "replay-trace": (("policy",), (("encode",), ("grouping", "store"))),
    "live-hot": (("encode",), (("policy",), ("grouping", "store"))),
    "live-churn": (("grouping", "store", "proxy", "fleet"), (("encode",), ("policy",))),
}


class Span:
    __slots__ = ("pid", "name", "start", "end", "parent", "sid", "extra",
                 "children", "account")

    def __init__(self, pid, name, start, end, parent, sid, extra) -> None:
        self.pid = pid
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.sid = sid
        self.extra = extra
        self.children = 0.0
        self.account = name

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.children


def traced_requests(outcome) -> dict[str, tuple[float, float]]:
    """Document requests sent inside a traced slice: rid -> (sent, verified)."""
    slices = outcome.traced_slices
    return {
        rid: (sent, verified)
        for rid, sent, verified in outcome.tally.samples
        if any(a <= sent < b for a, b in slices)
    }


def tracing_overhead(outcome) -> tuple[float, float]:
    """(untraced, traced) throughput over the alternating slices."""
    traced_time = sum(b - a for a, b in outcome.traced_slices)
    untraced_time = outcome.seconds - traced_time
    traced = len(traced_requests(outcome))
    untraced = len(outcome.tally.samples) - traced
    return (
        untraced / untraced_time if untraced_time > 0 else 0.0,
        traced / traced_time if traced_time > 0 else 0.0,
    )


def build(outcome) -> dict:
    """Self time per account and layer, plus the counts the metrics need."""
    requests = traced_requests(outcome)
    by_rid: dict[str, list[Span]] = defaultdict(list)
    for pid, name, start, end, parent, sid, rid, extra in outcome.spans:
        if rid is None:
            continue
        rid = rid.removesuffix("r")  # a lost-base refetch is part of its request
        if rid in requests:
            by_rid[rid].append(Span(pid, name, start, end, parent, sid, extra))
    for rid, start, end in outcome.tally.applies:
        if rid in requests:
            by_rid[rid].append(Span("client", "client.apply", start, end, 0, 0, None))

    self_time: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    handle_total = 0.0
    stages: dict[str, float] = defaultdict(float)
    estimates_in_classify = 0
    index_builds = 0
    promotions = 0
    latency_total = 0.0
    for rid, (sent, verified) in requests.items():
        latency_total += verified - sent
        root = Span("client", "client.request", sent, verified, 0, 0, None)
        spans = by_rid.get(rid, [])
        _link(root, spans)
        for span in [root, *spans]:
            self_time[span.account] += span.self_time
            counts[span.name] += 1
            if span.name == "engine.handle":
                handle_total += span.duration
                for stage, seconds in parse_stage_times(span.extra).items():
                    stages[stage] += seconds
            elif span.name == "light.estimate" and span.account == "grouping.classify":
                estimates_in_classify += 1
            elif span.name == "vdelta.index" and span.extra == "light":
                index_builds += 1
            elif span.name == "classes.feed":
                promotions += span.extra or 0
    layers: dict[str, float] = defaultdict(float)
    for account, seconds in self_time.items():
        layers[LAYER_OF.get(account, "client")] += seconds
    return {
        "requests": len(requests),
        "latency_total": latency_total,
        "self": dict(self_time),
        "layers": dict(layers),
        "counts": dict(counts),
        "handle_total": handle_total,
        "stages": dict(stages),
        "estimates_in_classify": estimates_in_classify,
        "light_index_builds": index_builds,
        "promotions": promotions,
    }


def _link(root: Span, spans: list[Span]) -> None:
    """Resolve parents, move read starts, charge owners, sum children."""
    local = {(span.pid, span.sid): span for span in spans}
    # The proxy sends the request upstream right after reading it, before
    # ``read_response`` is called: its hop starts when its read ends.
    proxy_reads = sorted((s.end, s.pid) for s in spans if s.name == "proxy.read")
    for span in spans:
        if span.name == "proxy.upstream":
            ends = [end for end, pid in proxy_reads if pid == span.pid and end <= span.start]
            if ends:
                span.start = ends[-1]
    sends = sorted([root.start] + [s.start for s in spans if s.name in HOPS])
    for span in spans:
        if span.name in READS:
            earlier = [t for t in sends if t <= span.end]
            if earlier:
                span.start = max(span.start, earlier[-1])
    hops = sorted([root] + [s for s in spans if s.name in HOPS], key=lambda s: s.duration)
    for span in sorted(spans, key=lambda s: s.start):
        parent = local.get((span.pid, span.parent)) if span.parent else None
        if parent is not None:
            if parent.account in OWNERS or parent.name.startswith("light."):
                span.account = parent.account
            if span.name == "light.estimate" and parent.name == "light.estimate":
                span.name = "light.estimate.nested"
            if span.name == "vdelta.index" and parent.name == "light.index":
                span.extra = "light"
            parent.children += span.duration
            continue
        # A span with no parent in its own process was caused by the
        # smallest hop of another process that was waiting when it ended;
        # only the part inside that hop counts against it.
        parent = next(
            (hop for hop in hops
             if hop is not span and hop.pid != span.pid and hop.start <= span.end <= hop.end),
            root,
        )
        parent.children += min(span.end, parent.end) - max(span.start, parent.start)


def per_layer_metrics(outcome, ledger: dict) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of BENCHMARK.json for one traced run."""
    n = max(ledger["requests"], 1)
    self_time = ledger["self"]
    counts = ledger["counts"]
    tally = outcome.tally
    counters = outcome.counters
    documents = max(tally.completed, 1)

    def ms(account: str) -> float:
        return self_time.get(account, 0.0) / n * 1000.0

    def ratio(hit: float, miss: float) -> float:
        return hit / (hit + miss) if hit + miss else 0.0

    compress = ledger["stages"].get("compress", 0.0)
    handle_total = ledger["handle_total"]
    untraced, traced = tracing_overhead(outcome)
    return {
        "client.apply_ms": (ms("client.apply"), "ms"),
        "client.delta_share": (tally.deltas / max(tally.deltas + tally.fulls, 1), "fraction"),
        "client.base_fetches": (tally.base_fetches, "count"),
        "client.refetches": (tally.refetches, "count"),
        "client.oracle_ms": (tally.oracle_seconds / documents * 1000.0, "ms"),
        "client.cpu_ms_per_req": (outcome.client_cpu / documents * 1000.0, "ms"),
        "proxy.read_ms": (ms("proxy.read"), "ms"),
        "proxy.upstream_ms": (ms("proxy.upstream"), "ms"),
        "proxy.cache_hit_ratio": (
            ratio(counters.get("proxy_hits", 0), counters.get("proxy_misses", 0)), "fraction"),
        "fleet.forward_ms": (ms("fleet.forward"), "ms"),
        "fleet.forwarded_share": (
            ratio(counters.get("forwarded", 0), counters.get("local_served", 0)), "fraction"),
        "serve.read_ms": (ms("serve.read"), "ms"),
        "serve.queue_ms": (ms("serve.queue"), "ms"),
        "serve.write_ms": (counters.get("write_seconds", 0.0) / documents * 1000.0, "ms"),
        "origin.render_ms": (ms("origin.render"), "ms"),
        "engine.handle_ms": (handle_total / n * 1000.0, "ms"),
        "engine.lock_wait_ms": (ledger["stages"].get("lock_wait", 0.0) / n * 1000.0, "ms"),
        "engine.unattributed_share": (
            self_time.get("engine.handle", 0.0) / handle_total if handle_total else 0.0,
            "fraction"),
        "grouping.classify_ms": (ms("grouping.classify"), "ms"),
        "grouping.estimates_per_classify": (
            ledger["estimates_in_classify"] / max(counts.get("grouping.classify", 0), 1),
            "count"),
        "grouping.sketch_hit_ratio": (
            ratio(counters.get("sketch_hits", 0), counters.get("sketch_misses", 0)), "fraction"),
        "grouping.classes": (counters.get("classes", 0), "count"),
        "policy.observe_ms": (ms("policy.observe"), "ms"),
        "rebase.check_ms": (ms("rebase.check"), "ms"),
        "light.estimates_per_req": (counts.get("light.estimate", 0) / n, "count"),
        "light.index_builds_per_req": (ledger["light_index_builds"] / n, "count"),
        "rebase.group_rebases": (counters.get("group_rebases", 0), "count"),
        "rebase.basic_rebases": (counters.get("basic_rebases", 0), "count"),
        "classes.feed_ms": (ms("classes.feed"), "ms"),
        "classes.promotions": (ledger["promotions"], "count"),
        "vdelta.encode_ms": (max(ms("vdelta.encode") - compress / n * 1000.0, 0.0), "ms"),
        "vdelta.compress_ms": (compress / n * 1000.0, "ms"),
        "vdelta.index_ms": (ms("vdelta.index"), "ms"),
        "vdelta.encode_cache_hit_ratio": (
            ratio(counters.get("encode_cache_hits", 0), counters.get("encode_cache_misses", 0)),
            "fraction"),
        "store.commit_ms": (ms("store.commit"), "ms"),
        "store.commits": (counts.get("store.commit", 0), "count"),
        "trace.overhead": (1.0 - traced / untraced if untraced else 0.0, "fraction"),
    }


def pairing(workload: str, ledger: dict) -> str:
    """Whether the layers predicted for this workload outweigh the layers
    predicted for the other workloads."""
    layers = ledger["layers"]
    mine, others = PAIRINGS[workload]
    own = sum(layers.get(layer, 0.0) for layer in mine)
    beaten = [
        group for group in others
        if sum(layers.get(layer, 0.0) for layer in group) > own
    ]
    total = max(ledger["latency_total"], 1e-12)
    label = "+".join(mine)
    if not beaten:
        return f"held: {label} {own / total:.1%} of latency outweighs " + ", ".join(
            f"{'+'.join(g)} {sum(layers.get(x, 0.0) for x in g) / total:.1%}" for g in others)
    return f"FAILED: {label} {own / total:.1%} is outweighed by " + ", ".join(
        f"{'+'.join(g)} {sum(layers.get(x, 0.0) for x in g) / total:.1%}" for g in beaten)
