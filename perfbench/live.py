"""Live workloads: the program's own servers on ephemeral ports, driven by a
closed-loop client that times each document from send to verification.

The servers are started exactly as a user starts them (``python -m
repro.cli serve|proxy``) and observed only from outside: ``/__health__``
for readiness, ``/__metrics__`` for the program's own counters, and
``/proc/<pid>`` for the CPU time and peak RSS of every server-side
process, fleet workers included.
"""

from __future__ import annotations

import asyncio
import os
import re
import signal
import subprocess
import sys
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from repro.delta.apply import apply_delta
from repro.delta.codec import DEFAULT_MAX_TARGET_LENGTH
from repro.delta.compress import decompress
from repro.delta.errors import DeltaError
from repro.http.messages import (
    HEADER_ACCEPT_DELTA,
    HEADER_CONTENT_ENCODING,
    HEADER_TRACE_ID,
    Request,
    parse_base_ref,
)
from repro.origin.server import OriginServer
from repro.origin.site import SiteSpec, SyntheticSite
from repro.serve.protocol import (
    HEADER_BODY_DIGEST,
    HEADER_SERVED_AT,
    ProtocolError,
    digest_matches,
    read_response,
    serialize_request,
)
from repro.url.parts import split_server

HOST = "127.0.0.1"
REQUEST_TIMEOUT = 15.0
READY_TIMEOUT = 60.0
STOP_TIMEOUT = 15.0
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")

LISTENING = {
    "serve": re.compile(r"^listening on [\d.]+:(\d+)", re.M),
    "fleet": re.compile(r"^fleet listening on [\d.]+:(\d+) .*admin=[\d.]+:(\d+)", re.M),
    "proxy": re.compile(r"^proxy listening on [\d.]+:(\d+)", re.M),
}


def site_args(spec: SiteSpec) -> list[str]:
    return [
        "--site", spec.name,
        "--url-style", spec.url_style.value,
        "--categories", ",".join(spec.categories),
        "--products", str(spec.products_per_category),
    ]


# -- talking HTTP from outside -------------------------------------------------


async def http_get(port: int, url: str, rid: str):
    """One request on a fresh connection; returns the parsed response."""
    reader, writer = await asyncio.open_connection(HOST, port)
    try:
        request = Request(url=url)
        request.headers.set(HEADER_TRACE_ID, rid)
        writer.write(serialize_request(request, keep_alive=False))
        await writer.drain()
        return await asyncio.wait_for(read_response(reader), REQUEST_TIMEOUT)
    finally:
        writer.close()


def parse_exposition(text: str) -> list[tuple[str, str, float]]:
    """Prometheus text lines as ``(name, labels, value)``."""
    samples = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        head, _, value = line.rpartition(" ")
        name, _, labels = head.partition("{")
        try:
            samples.append((name, labels, float(value)))
        except ValueError:
            continue
    return samples


def metric_total(samples, name: str, label: str = "") -> float:
    return sum(v for n, labels, v in samples if n == name and label in labels)


# -- /proc accounting -------------------------------------------------------------


def descendants(roots: list[int]) -> list[int]:
    """``roots`` plus every live process below them (fleet workers)."""
    parents: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        parents[int(entry)] = int(stat[stat.rfind(")") + 2 :].split()[1])
    found = [pid for pid in roots if pid in parents]
    frontier = list(found)
    while frontier:
        children = [pid for pid, ppid in parents.items() if ppid in frontier]
        found += children
        frontier = children
    return found


def cpu_seconds(pids: list[int]) -> float:
    total = 0
    for pid in pids:
        try:
            stat = Path(f"/proc/{pid}/stat").read_text()
        except OSError:
            continue
        fields = stat[stat.rfind(")") + 2 :].split()
        total += int(fields[11]) + int(fields[12])  # utime + stime
    return total / CLOCK_TICKS


def cpu_ticks() -> tuple[int, int]:
    """Machine-wide (steal, total) CPU ticks: a hypervisor taking the CPUs
    away shows up as steal, and as noise in every timing."""
    fields = [int(v) for v in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    return fields[7], sum(fields[:8])


def peak_rss_mb(pids: list[int]) -> float:
    total_kb = 0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        match = re.search(r"^VmHWM:\s+(\d+) kB", status, re.M)
        if match:
            total_kb += int(match.group(1))
    return total_kb / 1024.0


# -- the server-side stack --------------------------------------------------------


@dataclass
class Tier:
    kind: str  # serve | fleet | proxy
    process: subprocess.Popen
    log: Path
    port: int = 0
    #: where /__metrics__ and /__health__ of the whole tier are answered
    admin_port: int = 0


class Stack:
    """The program's server processes for one workload, outermost first."""

    def __init__(self, workdir: Path, env: dict[str, str]) -> None:
        self.workdir = workdir
        self.env = env
        self.tiers: list[Tier] = []

    def spawn(self, kind: str, argv: list[str]) -> Tier:
        log = self.workdir / f"{kind}-{len(self.tiers)}.log"
        with open(log, "wb") as out:
            process = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", *argv],
                stdout=out,
                stderr=subprocess.STDOUT,
                env=self.env,
                start_new_session=True,
            )
        tier = Tier(kind, process, log)
        self.tiers.insert(0, tier)
        return tier

    async def ready(self, tier: Tier, site: str) -> None:
        """Wait for the tier's listening line, then for ``/__health__``."""
        deadline = time.monotonic() + READY_TIMEOUT
        pattern = LISTENING[tier.kind]
        while True:
            match = pattern.search(tier.log.read_text(errors="replace"))
            if match:
                break
            if tier.process.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"{tier.kind} did not start:\n{tier.log.read_text()}")
            await asyncio.sleep(0.005)
        tier.port = int(match.group(1))
        tier.admin_port = int(match.group(2)) if tier.kind == "fleet" else tier.port
        while True:
            try:
                response = await http_get(tier.admin_port, f"{site}/__health__", "health")
                if response.response.status == 200:
                    return
            except (OSError, ProtocolError, asyncio.TimeoutError):
                pass
            if time.monotonic() > deadline:
                raise RuntimeError(f"{tier.kind} never answered /__health__")
            await asyncio.sleep(0.005)

    @property
    def entry_port(self) -> int:
        return self.tiers[0].port

    def pids(self) -> list[int]:
        return descendants([tier.process.pid for tier in self.tiers])

    async def scrape(self, site: str) -> list[tuple[str, str, float]]:
        samples = []
        for tier in self.tiers:
            response = await http_get(tier.admin_port, f"{site}/__metrics__", "metrics")
            samples += parse_exposition(response.response.body.decode())
        return samples

    def stop(self) -> None:
        """SIGTERM outermost first (the proxy's pooled upstream connections
        would otherwise hold up the fleet's drain), then make sure every
        process of every tier is gone."""
        for tier in self.tiers:
            if tier.process.poll() is None:
                tier.process.send_signal(signal.SIGTERM)
                try:
                    tier.process.wait(STOP_TIMEOUT)
                except subprocess.TimeoutExpired:
                    pass
        for tier in self.tiers:
            try:
                os.killpg(tier.process.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
            tier.process.wait()
        self.tiers = []


# -- the client ---------------------------------------------------------------------


def make_oracle(spec: SiteSpec):
    """``verify_render``: the document the origin renders for ``user`` at
    the server's ``X-Served-At`` instant, from the benchmark's own origin."""
    origin = OriginServer([SyntheticSite(spec)])

    def render(url: str, user: str, served_at: float) -> bytes:
        request = Request(url=url, cookies={"uid": user}, client_id=user)
        return origin.handle(request, served_at).body

    return render


class Failure(Exception):
    """A request that failed from the user's point of view."""


@dataclass
class Tally:
    """What the clients saw; one per phase (warm-up, measured)."""

    attempted: int = 0
    completed: int = 0
    failed: int = 0
    mismatches: int = 0
    deltas: int = 0
    fulls: int = 0
    refetches: int = 0
    base_fetches: int = 0
    document_bytes: int = 0
    base_bytes: int = 0
    reconstructed_bytes: int = 0
    oracle_seconds: float = 0.0
    #: (request id, send time, verified time) of every completed document
    samples: list[tuple[str, float, float]] = field(default_factory=list)
    #: (request id, start, end) of every decompress + apply
    applies: list[tuple[str, float, float]] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(reason)


class Population:
    """Users behind one browser-cache: base-files by ref, and the ref each
    (user, URL) was last served under."""

    def __init__(self, tag: str) -> None:
        self.tag = tag
        self.bases: dict[str, bytes] = {}
        self.refs: dict[tuple[str, str], str] = {}
        self._seq = 0

    def next_rid(self, kind: str) -> str:
        self._seq += 1
        return f"{kind}{self.tag}-{self._seq}"


class Connection:
    """One keep-alive client connection, reopened after a failure."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None

    async def exchange(self, request: Request):
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection(HOST, self.port)
        try:
            self.writer.write(serialize_request(request))
            await self.writer.drain()
            parsed = await asyncio.wait_for(read_response(self.reader), REQUEST_TIMEOUT)
        except BaseException:
            self.close()
            raise
        if not parsed.keep_alive:
            self.close()
        return parsed.response

    def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
        self.reader = self.writer = None

    async def aclose(self) -> None:
        """Close and wait until the socket is gone, so a server's graceful
        drain does not wait for this connection."""
        writer = self.writer
        self.close()
        if writer is not None:
            try:
                await writer.wait_closed()
            except OSError:
                pass


async def fetch_document(
    conn: Connection, pop: Population, user: str, url: str, tally: Tally, oracle
) -> None:
    """One document: latency runs from send to the verified document
    (delta apply, body check and any lost-base refetch included); the
    oracle re-render and the base-file prefetch run after it."""
    tally.attempted += 1
    rid = pop.next_rid("d")
    request = Request(url=url, cookies={"uid": user}, client_id=user)
    request.headers.set(HEADER_TRACE_ID, rid)
    held = pop.refs.get((user, url))
    if held is not None and held in pop.bases:
        request.headers.set(HEADER_ACCEPT_DELTA, held)
    sent = time.monotonic()
    try:
        response = await _checked(conn, request)
        document = reconstruct(pop, response, tally, rid)
        if document is None:
            tally.refetches += 1
            pop.refs.pop((user, url), None)
            retry = Request(url=url, cookies={"uid": user}, client_id=user)
            retry.headers.set(HEADER_TRACE_ID, rid + "r")
            response = await _checked(conn, retry)
            document = reconstruct(pop, response, tally, rid)
            if document is None:
                raise Failure("refetch did not yield a document")
    except (Failure, OSError, ProtocolError, asyncio.TimeoutError) as exc:
        tally.fail(f"{url}: {exc!r}")
        return
    verified = time.monotonic()
    tally.completed += 1
    tally.samples.append((rid, sent, verified))
    tally.reconstructed_bytes += len(document)

    try:
        served_at = float(response.headers.get(HEADER_SERVED_AT))
    except (TypeError, ValueError):
        tally.mismatches += 1
        tally.failures.append(f"{url}: no usable {HEADER_SERVED_AT} to re-render at")
        return
    expected = oracle(url, user, served_at)
    tally.oracle_seconds += time.monotonic() - verified
    if expected != document:
        tally.mismatches += 1
        tally.failures.append(f"oracle mismatch: {url} for {user} at {served_at}")

    ref = response.base_file_ref
    if ref is not None:
        pop.refs[(user, url)] = ref
        if ref not in pop.bases:
            await fetch_base(conn, pop, user, url, ref, tally)


async def _checked(conn: Connection, request: Request):
    response = await conn.exchange(request)
    if response.status != 200:
        raise Failure(f"status {response.status}")
    if response.degraded is not None:
        raise Failure(f"degraded response ({response.degraded})")
    return response


def reconstruct(pop: Population, response, tally: Tally, rid: str) -> bytes | None:
    """Document bytes of a response, or None when a delta is unusable."""
    tally.document_bytes += len(response.body)
    if not response.is_delta:
        if not digest_matches(response.headers.get(HEADER_BODY_DIGEST), response.body):
            tally.mismatches += 1
            tally.failures.append("full body does not match its X-Body-Digest")
        tally.fulls += 1
        return response.body
    ref = response.delta_base_ref
    base = pop.bases.get(ref)
    if base is None:
        return None
    started = time.monotonic()
    try:
        payload = response.body
        if response.headers.get(HEADER_CONTENT_ENCODING) == "deflate":
            payload = decompress(payload)
        document = apply_delta(payload, base, max_target_length=DEFAULT_MAX_TARGET_LENGTH)
    except (DeltaError, zlib.error):
        pop.bases.pop(ref, None)
        return None
    finally:
        tally.applies.append((rid, started, time.monotonic()))
    tally.deltas += 1
    return document


async def fetch_base(
    conn: Connection, pop: Population, user: str, url: str, ref: str, tally: Tally
) -> None:
    server, _ = split_server(url)
    class_id, version = parse_base_ref(ref)
    request = Request(
        url=f"{server}/__delta_base__/{class_id}/{version}",
        cookies={"uid": user},
        client_id=user,
    )
    request.headers.set(HEADER_TRACE_ID, pop.next_rid("b"))
    tally.base_fetches += 1
    try:
        response = await _checked(conn, request)
    except (Failure, OSError, ProtocolError, asyncio.TimeoutError) as exc:
        tally.failures.append(f"base-file {ref}: {exc!r}")
        return
    if not digest_matches(response.headers.get(HEADER_BODY_DIGEST), response.body):
        tally.mismatches += 1
        tally.failures.append(f"base-file {ref} does not match its X-Body-Digest")
        return
    pop.bases[ref] = response.body
    tally.base_bytes += len(response.body)
