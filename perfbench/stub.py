"""Loopback stub of the chat, search and market APIs.

`StubCore` decides every reply and keeps every deterministic counter; it does
no I/O, so tests can drive it with a request sequence and fixed times.
`LoopbackStub` serves a core over HTTP/1.1 on 127.0.0.1 from one asyncio
event-loop thread, one listening port per API, and adds what only the
transport can see: connections accepted, per-request intervals and service
time.

Replies never depend on prompt wording. A plan (see workloads.py) keys them on
the tags the benchmark planted in its own inputs and tasks, on the tool names
listed in a system prompt and on how many assistant turns came before.
Identical requests get successive reply variants by occurrence count, the way
a replayed cassette serves them.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Protocol
from urllib.parse import parse_qs, urlsplit

ENDPOINTS = ("chat", "search", "market")
_REASONS = {200: "OK", 404: "Not Found", 429: "Too Many Requests", 500: "Internal Server Error"}


class Plan(Protocol):
    """What a workload's stub serves. Each method returns None for a request
    the plan did not foresee; the core records that as unexpected."""

    def chat(self, messages: list[dict], occurrence: int) -> tuple[str, str | None]:
        """(kind of caller, reply text); the kind names the agent or market
        step the request came from."""

    def search(self, query: str, before: str, num: int) -> list[dict] | None: ...

    def market_page(self, before: str | None, limit: int) -> list[dict] | None: ...

    def market(self, market_id: str) -> dict | None: ...


@dataclass(frozen=True)
class Throttle:
    """Every `period`-th first attempt on an endpoint answers 429 with
    Retry-After; counting first attempts makes the 429 count exact for a
    given request count, whatever the seed."""

    period: int
    retry_after: float = 0.05


@dataclass
class Counters:
    """Deterministic per-run counters, one set per core reset."""

    requests: dict = field(default_factory=lambda: dict.fromkeys(ENDPOINTS, 0))
    throttled: dict = field(default_factory=lambda: dict.fromkeys(ENDPOINTS, 0))
    retries: dict = field(default_factory=lambda: dict.fromkeys(ENDPOINTS, 0))
    retry_gaps: dict = field(default_factory=lambda: {ep: [] for ep in ENDPOINTS})
    unexpected: list = field(default_factory=list)
    prompt_chars: int = 0
    chat_kinds: dict = field(default_factory=dict)
    pages: int = 0
    search_without_cutoff: int = 0
    timestamped_served: int = 0

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


class StubCore:
    """Reply logic and counters for one workload's traffic."""

    def __init__(self, plan: Plan, throttles: dict[str, Throttle], cutoff: str | None = None):
        self.plan = plan
        self.throttles = throttles
        self.cutoff = cutoff
        self.reset()

    def reset(self) -> None:
        self.counters = Counters()
        self._occurrence: dict[tuple[str, bytes], int] = {}
        self._pending_retry: dict[tuple[str, bytes, int], float] = {}
        self._first_attempts = dict.fromkeys(ENDPOINTS, 0)

    def handle(self, endpoint: str, method: str, target: str, body: bytes, now: float) -> tuple[int, dict, object]:
        """Answer one request that arrived at time `now`. Returns (status,
        extra headers, JSON payload)."""
        if target == "/ping":
            return 200, {}, {}
        c = self.counters
        c.requests[endpoint] += 1
        identity = (endpoint, target.encode() + b"\n" + body)
        n = self._occurrence.get(identity, 0)
        retry_key = identity + (n,)
        if retry_key in self._pending_retry:
            c.retries[endpoint] += 1
            c.retry_gaps[endpoint].append(now - self._pending_retry.pop(retry_key))
        else:
            self._first_attempts[endpoint] += 1
            throttle = self.throttles.get(endpoint)
            if throttle and self._first_attempts[endpoint] % throttle.period == 0:
                c.throttled[endpoint] += 1
                self._pending_retry[retry_key] = now
                return 429, {"Retry-After": f"{throttle.retry_after:g}"}, {"error": "rate limited"}
        self._occurrence[identity] = n + 1
        try:
            payload = getattr(self, "_" + endpoint)(method, target, body, n)
        except (KeyError, TypeError, ValueError) as exc:
            c.unexpected.append(f"{endpoint} {method} {target[:80]}: {exc!r}")
            return 404, {}, {"error": "malformed request"}
        if payload is None:
            c.unexpected.append(f"{endpoint} {method} {target[:80]} (occurrence {n})")
            return 404, {}, {"error": "not in plan"}
        return 200, {}, payload

    def _chat(self, method: str, target: str, body: bytes, n: int):
        if method != "POST" or not target.endswith("/chat/completions"):
            return None
        messages = json.loads(body)["messages"]
        chars = sum(len(m["content"]) for m in messages)
        self.counters.prompt_chars += chars
        kind, content = self.plan.chat(messages, n)
        self.counters.chat_kinds[kind] = self.counters.chat_kinds.get(kind, 0) + 1
        if content is None:
            return None
        return {
            "choices": [{"message": {"role": "assistant", "content": content}, "finish_reason": "stop"}],
            "usage": {
                "prompt_tokens": chars // 4,
                "completion_tokens": len(content) // 4,
            },
        }

    def _search(self, method: str, target: str, body: bytes, n: int):
        parts = urlsplit(target)
        if method != "GET" or parts.path != "/search":
            return None
        params = {k: v[0] for k, v in parse_qs(parts.query).items()}
        query, before, num = params["q"], params.get("before", ""), int(params["num"])
        if before != self.cutoff:
            self.counters.search_without_cutoff += 1
        results = self.plan.search(query, before, num)
        if results is None:
            return None
        self.counters.timestamped_served += sum(1 for r in results if "T" in (r.get("published") or ""))
        return {"results": results}

    def _market(self, method: str, target: str, body: bytes, n: int):
        parts = urlsplit(target)
        if method != "GET":
            return None
        if parts.path == "/markets":
            params = {k: v[0] for k, v in parse_qs(parts.query).items()}
            self.counters.pages += 1
            return self.plan.market_page(params.get("before"), int(params["limit"]))
        if parts.path.startswith("/market/"):
            return self.plan.market(parts.path[len("/market/") :])
        return None


# --- transport ------------------------------------------------------------------


class LoopbackStub:
    """Serves a StubCore on three 127.0.0.1 ports from one event-loop thread.

    Each reply is one buffered write. Successful replies wait the endpoint's
    fixed latency first; 429s answer at once. `intervals` keeps
    (arrival, done, status) per request, `accepts` counts TCP connections.
    """

    def __init__(self, core: StubCore, latency: dict[str, float]):
        self.core = core
        self.latency = latency
        self.urls: dict[str, str] = {}
        self._sockets: dict[str, socket.socket] = {}
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._servers: list[asyncio.AbstractServer] = []
        self._reset_transport()

    def _reset_transport(self) -> None:
        self.accepts = dict.fromkeys(ENDPOINTS, 0)
        self.intervals: dict[str, list[tuple[float, float, int]]] = {ep: [] for ep in ENDPOINTS}

    def start(self) -> "LoopbackStub":
        for ep in ENDPOINTS:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind(("127.0.0.1", 0))
            sock.listen(64)
            sock.setblocking(False)
            self._sockets[ep] = sock
            self.urls[ep] = f"http://127.0.0.1:{sock.getsockname()[1]}"
        self._loop = asyncio.new_event_loop()
        ready = threading.Event()
        self._thread = threading.Thread(target=self._run, args=(ready,), name="perfbench-stub", daemon=True)
        self._thread.start()
        if not ready.wait(10):
            raise RuntimeError("stub event loop did not start")
        return self

    def _run(self, ready: threading.Event) -> None:
        loop = self._loop
        asyncio.set_event_loop(loop)

        async def open_servers():
            for ep, sock in self._sockets.items():
                handler = lambda r, w, ep=ep: self._serve(ep, r, w)
                self._servers.append(await asyncio.start_server(handler, sock=sock))

        loop.run_until_complete(open_servers())
        ready.set()
        try:
            loop.run_forever()
        finally:
            for server in self._servers:
                server.close()
            tasks = asyncio.all_tasks(loop)
            for task in tasks:
                task.cancel()
            loop.run_until_complete(asyncio.gather(*tasks, return_exceptions=True))
            loop.close()

    async def _serve(self, endpoint: str, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.accepts[endpoint] += 1
        try:
            while True:
                try:
                    head = await reader.readuntil(b"\r\n\r\n")
                except (asyncio.IncompleteReadError, asyncio.LimitOverrunError, ConnectionError):
                    break
                arrived = time.monotonic()
                request_line, *header_lines = head.decode("latin-1").split("\r\n")
                method, target, _version = request_line.split(" ", 2)
                headers = {}
                for line in header_lines:
                    if ":" in line:
                        key, value = line.split(":", 1)
                        headers[key.strip().lower()] = value.strip()
                length = int(headers.get("content-length", "0") or 0)
                body = await reader.readexactly(length) if length else b""
                status, extra, payload = self.core.handle(endpoint, method, target, body, arrived)
                delay = self.latency.get(endpoint, 0.0)
                if status == 200 and delay > 0 and target != "/ping":
                    await asyncio.sleep(delay - (time.monotonic() - arrived))
                data = json.dumps(payload, ensure_ascii=False).encode("utf-8")
                close = headers.get("connection", "").lower() == "close"
                lines = [
                    f"HTTP/1.1 {status} {_REASONS.get(status, 'Status')}",
                    "Content-Type: application/json",
                    f"Content-Length: {len(data)}",
                ]
                lines += [f"{k}: {v}" for k, v in extra.items()]
                if close:
                    lines.append("Connection: close")
                writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + data)
                await writer.drain()
                if target != "/ping":
                    self.intervals[endpoint].append((arrived, time.monotonic(), status))
                if close:
                    break
        except ConnectionError:
            pass
        finally:
            writer.close()

    def call(self, fn):
        """Run fn() on the loop thread and return its result, so counters are
        read and reset without racing the handlers."""
        done = threading.Event()
        box = {}

        def run():
            try:
                box["value"] = fn()
            finally:
                done.set()

        self._loop.call_soon_threadsafe(run)
        if not done.wait(30):
            raise RuntimeError("stub loop did not answer")
        return box.get("value")

    def reset(self) -> None:
        self.call(lambda: (self.core.reset(), self._reset_transport()))

    def snapshot(self) -> dict:
        return self.call(
            lambda: {
                "counters": self.core.counters.as_dict(),
                "accepts": dict(self.accepts),
                "intervals": {ep: list(v) for ep, v in self.intervals.items()},
            }
        )

    def stop(self) -> None:
        if self._loop is None:
            return
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(30)
        for sock in self._sockets.values():
            sock.close()
        self._loop = None


def transport_self_check(url: str, calls: int = 100) -> dict:
    """Median per-call time for a keep-alive client and for a client that
    opens a fresh connection per call, both against /ping. A stub that wrote
    headers and body separately would make keep-alive calls wait on delayed
    ACKs (tens of ms) and read as a regression caused by the stub."""
    import http.client
    import statistics

    host, port = urlsplit(url).hostname, urlsplit(url).port

    def one(conn: http.client.HTTPConnection) -> float:
        t0 = time.perf_counter()
        conn.request("GET", "/ping")
        conn.getresponse().read()
        return time.perf_counter() - t0

    keep = http.client.HTTPConnection(host, port, timeout=10)
    try:
        keepalive = [one(keep) for _ in range(calls)]
    finally:
        keep.close()
    fresh = []
    for _ in range(calls):
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            fresh.append(one(conn))
        finally:
            conn.close()
    result = {
        "keepalive_ms": statistics.median(keepalive) * 1000,
        "fresh_ms": statistics.median(fresh) * 1000,
    }
    result["ok"] = result["keepalive_ms"] <= result["fresh_ms"] + 1.0
    return result
