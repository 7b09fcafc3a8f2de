"""Regression: the per-class encode cache must never serve one user's page
to another.

Adler-32 is easy to collide: adding +1/-2/+1 to three adjacent bytes keeps
both of its sums, so ``user-1357`` and ``user-2167`` printed into the same
template give equal-length pages with equal checksums.  A cache keyed on
that checksum handed the second user a delta that rebuilds the first
user's page — and the wire checksum check on the client passed.
"""

from repro.core.config import AnonymizationConfig, DeltaServerConfig
from repro.core.delta_server import DeltaServer
from repro.delta.apply import apply_delta
from repro.delta.codec import checksum
from repro.delta.compress import decompress
from repro.http.messages import (
    HEADER_ACCEPT_DELTA,
    HEADER_DELTA_BASE,
    Request,
    Response,
)

URL = "www.leak.example/account?id=1"
HEAD = b"<html><body><h1>Your account</h1>" + b"<p>catalog entry</p>" * 40
TAIL = b"<footer>" + b"static footer text " * 30 + b"</footer></body></html>"


def render(user: str) -> bytes:
    return HEAD + f"<div>signed in as {user}</div>".encode() + TAIL


def origin(request: Request, now: float) -> Response:
    return Response(status=200, body=render(request.user_id or "anonymous"))


def get(engine: DeltaServer, user: str, ref: str | None = None) -> Response:
    request = Request(url=URL, cookies={"uid": user}, client_id=user)
    if ref is not None:
        request.headers.set(HEADER_ACCEPT_DELTA, ref)
    return engine.handle(request, now=1.0)


def test_colliding_pages_are_rebuilt_per_user():
    first, second = "user-1357", "user-2167"
    # The premise: equal length, equal Adler-32, different bytes.
    assert len(render(first)) == len(render(second))
    assert checksum(render(first)) == checksum(render(second))
    assert render(first) != render(second)

    engine = DeltaServer(
        origin,
        DeltaServerConfig(
            anonymization=AnonymizationConfig(documents=2, min_count=1)
        ),
    )
    for user in ("warm-a", "warm-b", "warm-c"):
        response = get(engine, user)
    ref = response.headers.get(HEADER_DELTA_BASE)
    assert ref is not None
    cls = engine.class_of(URL)
    base = cls.base_for_version(cls.version)

    hits_before = engine.metrics.counter_value("delta_encode_cache_hits_total")
    for user in (first, second):
        response = get(engine, user, ref)
        assert response.is_delta
        rebuilt = apply_delta(decompress(response.body), base)
        assert rebuilt == render(user)
    # The colliding pair must miss the cache: no artifact is shared.
    assert engine.metrics.counter_value("delta_encode_cache_hits_total") == hits_before

    # A true repeat of the same bytes still hits.
    response = get(engine, second, ref)
    assert apply_delta(decompress(response.body), base) == render(second)
    assert (
        engine.metrics.counter_value("delta_encode_cache_hits_total")
        == hits_before + 1
    )
