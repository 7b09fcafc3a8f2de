"""Live-socket tests for the observability surface: ``GET /__metrics__``
Prometheus exposition, trace-id propagation, and per-stage timing headers.
"""

import asyncio
import re

from repro.core.config import AnonymizationConfig, DeltaServerConfig
from repro.http.messages import (
    HEADER_ACCEPT_DELTA,
    HEADER_STAGE_TIMES,
    HEADER_TRACE_ID,
    Request,
)
from repro.metrics import PROMETHEUS_CONTENT_TYPE
from repro.origin.site import SiteSpec, SyntheticSite
from repro.serve import (
    METRICS_PATH,
    build_server,
    read_response,
    serialize_request,
)
from repro.serve.server import DeltaHTTPServer

SITE = "www.met.example"

# One exposition line: comment, blank, or  name{labels} value [timestamp]
_COMMENT = re.compile(r"^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+$")
_SAMPLE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"'
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})?'
    r" (?:[+-]?Inf|NaN|[+-]?[0-9.eE+-]+)( [0-9]+)?$"
)


def malformed_lines(text: str) -> list[str]:
    bad = []
    for line in text.splitlines():
        if not line.strip():
            continue
        if _COMMENT.match(line) or _SAMPLE.match(line):
            continue
        bad.append(line)
    return bad


def make_server(**kwargs) -> DeltaHTTPServer:
    spec = kwargs.pop("spec", None) or SiteSpec(name=SITE, products_per_category=3)
    kwargs.setdefault(
        "config",
        DeltaServerConfig(
            anonymization=AnonymizationConfig(enabled=True, documents=2, min_count=1)
        ),
    )
    return build_server([SyntheticSite(spec)], **kwargs)


class Client:
    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self.reader = None
        self.writer = None

    async def get(self, url: str, user: str = "u1", headers: dict | None = None):
        if self.reader is None:
            self.reader, self.writer = await asyncio.open_connection(
                self.host, self.port
            )
        request = Request(url=url, cookies={"uid": user}, client_id=user)
        for name, value in (headers or {}).items():
            request.headers.set(name, value)
        self.writer.write(serialize_request(request))
        await self.writer.drain()
        parsed = await asyncio.wait_for(read_response(self.reader), 10.0)
        if not parsed.keep_alive:
            self.close()
        return parsed.response

    def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            self.reader = self.writer = None


def page_url(server: DeltaHTTPServer) -> str:
    site = server.gateway.origin.site(SITE)
    return site.url_for(site.all_pages()[0])


class TestMetricsEndpoint:
    def test_metrics_over_the_wire(self):
        async def main():
            async with make_server() as server:
                client = Client(*server.address)
                try:
                    for user in ("u1", "u2", "u3"):
                        assert (await client.get(page_url(server), user)).status == 200
                    response = await client.get(f"{SITE}/{METRICS_PATH}")
                finally:
                    client.close()
                assert response.status == 200
                assert response.headers.get("Content-Type") == PROMETHEUS_CONTENT_TYPE
                text = response.body.decode()
                assert malformed_lines(text) == []
                assert text.endswith("\n")
                # Serve-layer counters (the scrape itself is request #4).
                assert "repro_requests_total 4" in text
                assert 'repro_responses_by_status_total{status="200"} 3' in text
                # Engine stage histograms with cumulative le buckets.
                assert re.search(
                    r'repro_engine_stage_seconds_bucket\{stage="origin_fetch",le="[0-9.e+-]+"\} \d+',
                    text,
                )
                assert 'repro_engine_stage_seconds_bucket{stage="origin_fetch",le="+Inf"} 3' in text
                assert 'repro_engine_stage_seconds_count{stage="origin_fetch"} 3' in text
                # Engine + resilience families render alongside.
                assert "repro_engine_requests_total 3" in text
                assert 'repro_origin_attempt_seconds_count{outcome="success"} 3' in text
                assert 'repro_breaker_state{state="closed"} 1' in text
                # The scrape itself is not a document request.
                assert "repro_health_checks_total 0" in text
                # Base-file selection cost: memo hit ratio and index builds.
                for family in ("policy_estimates_total", "light_index_builds_total"):
                    assert f"# HELP repro_{family} " in text
                    assert f"# TYPE repro_{family} counter" in text
                for result in ("memo", "computed"):
                    assert re.search(
                        rf'^repro_policy_estimates_total\{{result="{result}"\}} \d',
                        text,
                        re.M,
                    )
                assert re.search(r"^repro_light_index_builds_total \d", text, re.M)

        asyncio.run(main())

    def test_metrics_with_zero_traffic(self):
        async def main():
            async with make_server() as server:
                client = Client(*server.address)
                try:
                    response = await client.get(f"{SITE}/{METRICS_PATH}")
                finally:
                    client.close()
                assert response.status == 200
                text = response.body.decode()
                assert malformed_lines(text) == []
                assert "repro_responses_total 0" in text
                assert 'repro_policy_estimates_total{result="memo"} 0' in text
                assert "repro_light_index_builds_total 0" in text
                assert 'repro_request_latency_seconds_bucket{le="+Inf"} 0' in text

        asyncio.run(main())


class TestTracePropagation:
    def test_server_mints_and_echoes_trace_ids(self):
        async def main():
            async with make_server() as server:
                client = Client(*server.address)
                try:
                    first = await client.get(page_url(server), "u1")
                    second = await client.get(page_url(server), "u2")
                finally:
                    client.close()
                a = first.headers.get(HEADER_TRACE_ID)
                b = second.headers.get(HEADER_TRACE_ID)
                assert a and b and a != b
                # <8-hex-prefix>-<hex-seq>: same server prefix, increasing seq.
                assert re.fullmatch(r"[0-9a-f]{8}-[0-9a-f]{6}", a)
                assert a.split("-")[0] == b.split("-")[0]

        asyncio.run(main())

    def test_client_supplied_trace_id_is_honoured(self):
        async def main():
            async with make_server() as server:
                client = Client(*server.address)
                try:
                    response = await client.get(
                        page_url(server), "u1",
                        headers={HEADER_TRACE_ID: "loadgen-req-0042"},
                    )
                finally:
                    client.close()
                assert response.headers.get(HEADER_TRACE_ID) == "loadgen-req-0042"

        asyncio.run(main())

    def test_stage_times_header_on_document_responses(self):
        async def main():
            async with make_server() as server:
                client = Client(*server.address)
                try:
                    response = await client.get(page_url(server), "u1")
                finally:
                    client.close()
                header = response.headers.get(HEADER_STAGE_TIMES)
                assert header
                stages = dict(
                    part.split("=", 1) for part in header.split(";") if "=" in part
                )
                assert "origin_fetch" in stages
                assert all(float(v) >= 0.0 for v in stages.values())

        asyncio.run(main())
