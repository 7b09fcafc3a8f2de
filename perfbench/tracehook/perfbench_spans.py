"""Span recorder that the benchmark wraps around the program's public functions.

The program itself is not instrumented: :func:`install` replaces a fixed
list of public functions and methods with wrappers that record one span
per call -- ``(name, start, end, parent, span_id, request_id, extra)`` on
the system-wide monotonic clock, so spans from every process of a run
line up on one time axis.  The request id is the ``X-Trace-Id`` the
benchmark's client puts on every request; it travels through the proxy,
the fleet forward and into the engine, so the spans of one request can be
joined across processes.

Spans stay in memory.  In a child process (see ``sitecustomize.py``) they
are written as JSON to ``PERFBENCH_TRACE_DIR/spans-<pid>.json`` when the
process exits; in the benchmark process the caller reads them directly.

Recording is switched by the first byte of a shared flag (an ``mmap`` of
a one-byte file for child processes, a ``bytearray`` in process), so the
benchmark can alternate traced and untraced slices within one measured
phase and read the tracing overhead off the same run.
"""

from __future__ import annotations

import atexit
import contextvars
import functools
import itertools
import json
import mmap
import os
import time

TRACE_ID = "X-Trace-Id"
STAGE_TIMES = "X-Stage-Times"

#: (current span id, request id) of the running code; 0 = no parent span
_current: contextvars.ContextVar[tuple[int, str | None]] = contextvars.ContextVar(
    "perfbench_span", default=(0, None)
)


class Recorder:
    """The spans of one process and the flag that switches recording."""

    def __init__(self, flag) -> None:
        self.flag = flag
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)

    def next_id(self) -> int:
        return next(self._ids)

    def dump(self, path: str) -> None:
        with open(path, "w") as out:
            json.dump({"pid": os.getpid(), "spans": self.spans}, out)


def _rid(message) -> str | None:
    headers = getattr(message, "headers", None)
    return headers.get(TRACE_ID) if headers is not None else None


def request_scope(rid: str):
    """Context-variable token making ``rid`` the request of the calling code."""
    return _current.set((0, rid))


def reset_scope(token) -> None:
    _current.reset(token)


def _sync(rec: Recorder, name: str, fn, rid_of=None, note=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.flag[0]:
            return fn(*args, **kwargs)
        parent, rid = _current.get()
        if rid_of is not None:
            rid = rid_of(args) or rid
        span = rec.next_id()
        token = _current.set((span, rid))
        start = time.monotonic()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.monotonic()
            _current.reset(token)
        extra = note(args, result) if note is not None else None
        rec.spans.append((name, start, end, parent, span, rid, extra))
        return result

    return wrapper


def _async(rec: Recorder, name: str, fn, rid_of=None, rid_of_result=None):
    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        if not rec.flag[0]:
            return await fn(*args, **kwargs)
        parent, rid = _current.get()
        if rid_of is not None:
            rid = rid_of(args) or rid
        span = rec.next_id()
        token = _current.set((span, rid))
        start = time.monotonic()
        try:
            result = await fn(*args, **kwargs)
        finally:
            end = time.monotonic()
            _current.reset(token)
        if rid_of_result is not None:
            rid = rid_of_result(result) or rid
        rec.spans.append((name, start, end, parent, span, rid, None))
        return result

    return wrapper


def _queued_run(rec: Recorder, run):
    """``DeltaExecutor.run`` wrapper: a ``serve.queue`` span from the call
    until the submitted function starts, which then runs as the request."""

    @functools.wraps(run)
    async def wrapper(self, fn, *args, **kwargs):
        if not rec.flag[0]:
            return await run(self, fn, *args, **kwargs)
        rid = _rid(args[0]) if args else None
        span = rec.next_id()
        queued = time.monotonic()

        def started(*inner_args, **inner_kwargs):
            rec.spans.append(("serve.queue", queued, time.monotonic(), 0, span, rid, None))
            token = _current.set((0, rid))
            try:
                return fn(*inner_args, **inner_kwargs)
            finally:
                _current.reset(token)

        return await run(self, started, *args, **kwargs)

    return wrapper


def _counting_feed(rec: Recorder, feed):
    """``DocumentClass.feed`` wrapper whose span notes a promotion (the
    anonymized base became distributable, so the class version moved)."""

    def versioned(self, document, user_id):
        version = self.version
        feed(self, document, user_id)
        return self.version != version

    traced = _sync(rec, "classes.feed", versioned, note=lambda args, promoted: int(promoted))

    @functools.wraps(feed)
    def wrapper(self, document, user_id):
        traced(self, document, user_id)

    return wrapper


def install(flag) -> Recorder:
    """Wrap the program's public functions; returns the span recorder."""
    from repro.client import browser
    from repro.core import base_file, classes, delta_server, grouping, rebase
    from repro.delta import light, vdelta
    from repro.fleet import router
    from repro.origin import server as origin_server
    from repro.proxy import server as proxy_server
    from repro.serve import executor
    from repro.serve import server as serve_server
    from repro.store import store

    rec = Recorder(flag)

    def patch(owner, attr, name, **kwargs):
        setattr(owner, attr, _sync(rec, name, getattr(owner, attr), **kwargs))

    def patch_async(owner, attr, name, **kwargs):
        setattr(owner, attr, _async(rec, name, getattr(owner, attr), **kwargs))

    patch(browser, "decompress", "client.apply")
    patch(browser, "apply_delta", "client.apply")
    patch(
        delta_server.DeltaServer, "handle", "engine.handle",
        rid_of=lambda args: _rid(args[1]),
        note=lambda args, response: response.headers.get(STAGE_TIMES),
    )
    patch(origin_server.OriginServer, "handle", "origin.render")
    patch(grouping.Grouper, "classify", "grouping.classify")
    patch(base_file.RandomizedPolicy, "observe", "policy.observe")
    patch(rebase.RebaseController, "check", "rebase.check")
    patch(light.LightEstimator, "estimate", "light.estimate")
    patch(light.LightEstimator, "estimate_with_index", "light.estimate")
    patch(light.LightEstimator, "index", "light.index")
    classes.DocumentClass.feed = _counting_feed(rec, classes.DocumentClass.feed)
    patch(vdelta.VdeltaEncoder, "encode_stream_with_index", "vdelta.encode")
    patch(vdelta.VdeltaEncoder, "index", "vdelta.index")
    patch(store.Store, "commit_base", "store.commit")
    patch_async(router.FleetRouter, "forward", "fleet.forward",
                rid_of=lambda args: _rid(args[2]))
    executor.DeltaExecutor.run = _queued_run(rec, executor.DeltaExecutor.run)
    patch_async(serve_server, "read_request", "serve.read",
                rid_of_result=lambda parsed: _rid(parsed.request) if parsed else None)
    patch(serve_server, "serialize_response", "serve.serialize",
          rid_of=lambda args: _rid(args[0]))
    patch_async(proxy_server, "read_request", "proxy.read",
                rid_of_result=lambda parsed: _rid(parsed.request) if parsed else None)
    patch_async(proxy_server, "read_response", "proxy.upstream",
                rid_of_result=lambda parsed: _rid(parsed.response))
    patch(proxy_server, "serialize_response", "proxy.serialize",
          rid_of=lambda args: _rid(args[0]))
    return rec


def install_from_env() -> None:
    """Child-process entry (``sitecustomize``): trace when the benchmark
    exported ``PERFBENCH_TRACE_DIR`` and ``PERFBENCH_TRACE_FLAG``."""
    out_dir = os.environ.get("PERFBENCH_TRACE_DIR")
    flag_path = os.environ.get("PERFBENCH_TRACE_FLAG")
    if not out_dir or not flag_path:
        return
    with open(flag_path, "r+b") as handle:
        flag = mmap.mmap(handle.fileno(), 1)
    rec = install(flag)
    atexit.register(rec.dump, os.path.join(out_dir, f"spans-{os.getpid()}.json"))
