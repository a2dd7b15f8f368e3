"""Chat-completion backends.

One protocol (`complete(ChatRequest) -> ChatResponse`) with three
implementations: a live HTTP adapter, and a recording/replay pair built on
JSONL cassettes keyed by the calling lane and a stable request fingerprint.
Replay is the offline mode the whole test suite and the deterministic CLI
runs sit on. `send_with_retry` is the request, retry and status policy of
every live client (chat, search and market), and the errors below are the
failure vocabulary of all three. `fan_out` runs the lanes of forecast,
curate and resolve concurrently.
"""

from __future__ import annotations

import contextvars
import json
import logging
import math
import os
import re
import select
import threading
import time
from collections import deque, namedtuple
from contextlib import contextmanager
from enum import Enum
from functools import cache, lru_cache, partial
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, NamedTuple, Protocol, Sequence, TypeVar
from urllib.parse import SplitResult, quote, unquote, urlencode, urlsplit

from .models import ValidationError, loads, read_checked

if TYPE_CHECKING:  # imported where used, so replay and score runs skip them
    import socket
    import ssl

logger = logging.getLogger(__name__)

DEFAULT_TEMPERATURE = 0.5

T = TypeVar("T")
R = TypeVar("R")


class BackendError(Exception):
    """Base class for the failures of a live call or a cassette."""


class AuthError(BackendError):
    """Credentials rejected. Never retried; ends the run."""


class CallFailed(BackendError):
    """One chat, search or market call failed. The caller skips that one
    item: it declines the member, drops the market, gives a `search error:`
    observation or leaves the question pending, and the run goes on. Every
    other BackendError (a rejected key, a cassette fault) ends the run."""


class TransportError(CallFailed):
    """A network failure, or an HTTP status, that outlasted the retries; a
    status we do not handle; or a 200 whose payload is unusable."""


class CassetteError(BackendError):
    """A cassette file could not be read or written."""


class CassetteMiss(BackendError):
    """Replay saw a request the cassette has no (remaining) entry for."""

    def __init__(self, fp: str, request: "ChatRequest", lane: "Lane | None" = None):
        preview = request.messages[-1].content[:80] if request.messages else ""
        super().__init__(
            f"no cassette entry for fingerprint {fp[:12]}... in lane {lane} (last message: {preview!r})"
        )
        self.fingerprint = fp


# --- lanes ------------------------------------------------------------------

# One sequential stream of requests: (question_id, member_index) for an
# ensemble member in forecast, (market_id, 0) for one market in curate.
# Lanes run concurrently, but the requests inside one lane keep a fixed
# order, so record/replay matches entries per lane.
Lane = tuple[str, int]

_lane: contextvars.ContextVar[Lane | None] = contextvars.ContextVar("agentcast_lane", default=None)


def current_lane() -> Lane | None:
    return _lane.get()


@contextmanager
def in_lane(question_id: str, member_index: int) -> Iterator[None]:
    """Tag every request made inside the block with its lane. Threads do not
    inherit context variables, so the thread that runs the member sets it."""
    token = _lane.set((question_id, member_index))
    try:
        yield
    finally:
        _lane.reset(token)


def fan_out(fn: Callable[[T], R], items: Sequence[T], workers: int) -> Iterator[R]:
    """Call `fn` on each item, `workers` calls at a time, and yield the
    results in item order.

    Once a call raises, the calls not yet started do nothing, and the error
    propagates when the calls in flight have finished. No thread outlives
    the iteration: closing the iterator early stops it the same way.
    """
    from concurrent.futures import ThreadPoolExecutor

    failed = threading.Event()

    def call(item: T) -> R | None:
        if failed.is_set():
            return None
        try:
            return fn(item)
        except BaseException:
            failed.set()
            raise

    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        yield from pool.map(call, items)
    finally:
        failed.set()
        pool.shutdown(cancel_futures=True)


class Message(namedtuple("Message", "role content")):
    __slots__ = ()

    def __new__(cls, role: str, content: str):
        if role not in ("system", "user", "assistant"):
            raise ValueError(f"unknown message role {role!r}")
        return super().__new__(cls, role, content)


class ChatRequest(namedtuple("ChatRequest", "model_id messages temperature stop_sequences")):
    __slots__ = ()

    def __new__(
        cls,
        model_id: str,
        messages: Iterable[Message],
        temperature: float = DEFAULT_TEMPERATURE,
        stop_sequences: Iterable[str] = (),
    ):
        messages = tuple(messages)
        stop_sequences = tuple(stop_sequences)
        if not messages:
            raise ValueError("a chat request needs at least one message")
        if messages[0].role not in ("system", "user"):
            raise ValueError("the first message must come from system or user")
        if not 0 <= temperature < math.inf:
            raise ValueError(f"temperature must be finite and non-negative, got {temperature}")
        return super().__new__(cls, model_id, messages, temperature, stop_sequences)


class ChatResponse(NamedTuple):
    content: str
    prompt_tokens: int = 0
    completion_tokens: int = 0
    finish_reason: str = "stop"  # stop | length | other


class Backend(Protocol):
    def complete(self, request: ChatRequest) -> ChatResponse: ...


def fingerprint(request: ChatRequest) -> str:
    """Stable digest of the semantic request content.

    SHA-256 of the request's canonical JSON: the keys messages, model_id,
    stop_sequences and temperature in that order, no spaces, non-ASCII
    characters as UTF-8 rather than escapes. A lane sends its whole context again on every step, so each
    message's part of that JSON is kept in a bounded cache and encoded once.
    """
    import hashlib

    tail = {
        "model_id": request.model_id,
        "stop_sequences": list(request.stop_sequences),
        "temperature": request.temperature,
    }
    messages = b",".join(map(_message_json, request.messages))
    # hashed in one call: hashlib lets go of the GIL for each large input,
    # and under load each time costs a wait to take it back
    blob = b"".join((b'{"messages":[', messages, b"],", _canonical_json(tail)[1:]))
    return hashlib.sha256(blob).hexdigest()


# encoded messages kept by `fingerprint`: enough for every context in flight
# at a few workers, since each context repeats all but its newest messages
_FRAGMENT_CACHE_SIZE = 1024


@lru_cache(maxsize=_FRAGMENT_CACHE_SIZE)
def _message_json(message: Message) -> bytes:
    return _canonical_json([message.role, message.content])


def _canonical_json(value: Any) -> bytes:
    return json.dumps(value, sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode("utf-8")


# --- rate limiting and retry ---------------------------------------------


class RateLimiter:
    """Token bucket for one live client. The CLI gives the chat backend and
    the search provider one each, both sized by `rate_limit_rpm`, and the
    market client one sized by `market.MARKET_RATE_LIMIT_RPM`.

    Capacity equals the per-minute budget, and is at least one token, so a
    fresh limiter allows a burst of that size before callers start waiting.
    """

    def __init__(
        self,
        requests_per_minute: float,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if not math.isfinite(requests_per_minute) or requests_per_minute <= 0:
            raise ValueError(f"requests_per_minute must be finite and positive, got {requests_per_minute!r}")
        self._capacity = max(1.0, requests_per_minute)
        self._rate = requests_per_minute / 60.0
        self._tokens = self._capacity
        self._clock = clock
        self._sleep = sleep
        self._last = clock()
        self._lock = threading.Lock()

    def acquire(self) -> float:
        """Take one token, sleeping until it is due. Returns the wait.

        A caller with no token left reserves the next one due, taking the
        count below zero, so waiters leave in arrival order and each sleeps
        once."""
        with self._lock:
            now = self._clock()
            self._tokens = min(self._capacity, self._tokens + (now - self._last) * self._rate) - 1.0
            self._last = now
            wait = max(0.0, -self._tokens / self._rate)
        if wait:
            self._sleep(wait)
        return wait


class RetryPolicy(NamedTuple):
    """Exponential backoff for transient failures: 1s, 2s, 4s... capped per
    attempt and in total."""

    max_attempts: int = 5
    base_delay: float = 1.0
    max_delay: float = 30.0
    total_delay_ceiling: float = 60.0

    def delay(self, attempt: int, left: float, hint: float | None = None) -> float:
        """The wait after attempt `attempt` (counted from 0): the hint, or the
        doubling backoff, at most max_delay and at most the `left` seconds of
        the total ceiling."""
        raw = self.base_delay * (2**attempt) if hint is None else hint
        return max(0.0, min(raw, self.max_delay, left))


def parse_retry_after(headers: dict[str, str]) -> float | None:
    """Seconds from the `retry-after` header of a response's headers (keyed
    by lower-case name); None when absent or not a number."""
    try:
        return max(0.0, float(headers.get("retry-after")))
    except (TypeError, ValueError):
        return None


Response = tuple[int, dict[str, str], Any]  # (status, headers by lower-case name, JSON body or body text)

# The origin's (scheme, host, port), then the proxy's (host, port,
# Proxy-Authorization value), or None when the request goes direct.
Route = tuple[str, str, int, "tuple[str, int, str | None] | None"]


class ConnectionPool:
    """Idle keep-alive sockets by route, shared by the live clients of a
    process.

    A call takes a socket out and gives it back only after reading its
    whole response with nothing received past its end, so no two threads
    ever hold the same connection, an idle socket holds no unread bytes, and
    the pool never keeps more connections than were in use at once.
    """

    def __init__(self):
        self._idle: dict[Route, list[socket.socket]] = {}
        self._lock = threading.Lock()

    def take(self, route: Route) -> socket.socket | None:
        """The most recently used idle socket for `route` that the server
        has not closed, or None."""
        while True:
            with self._lock:
                idle = self._idle.get(route)
                if not idle:
                    return None
                sock = idle.pop()
            if not _readable(sock):
                return sock
            sock.close()

    def give(self, route: Route, sock: socket.socket) -> None:
        with self._lock:
            self._idle.setdefault(route, []).append(sock)

    def close(self) -> None:
        with self._lock:
            idle, self._idle = self._idle, {}
        for socks in idle.values():
            for sock in socks:
                sock.close()


def _readable(sock: socket.socket) -> bool:
    """An idle connection turns readable only when the server closed it or
    sent bytes nobody asked for; either way it cannot carry a request."""
    poller = select.poll()
    poller.register(sock, select.POLLIN)
    return bool(poller.poll(0))


_POOL = ConnectionPool()


def close_connections() -> None:
    """Close the idle connections of every live client in the process."""
    _POOL.close()


@cache
def _tls_context() -> ssl.SSLContext:
    import ssl

    return ssl.create_default_context()  # verifies against the system trust store


def _route(parts: SplitResult) -> Route:
    """Where a request for `parts` goes: direct, or through the proxy that
    `HTTP_PROXY`/`HTTPS_PROXY` name unless `NO_PROXY` exempts the host.
    The proxy settings are read only when a variable whose lower-cased name
    is `<scheme>_proxy` is set, the only ones `urllib.request.getproxies`
    reads for the URL's scheme on Linux.
    A malformed port raises ValueError."""
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise ValueError("not an http(s) URL")
    port = parts.port or (443 if parts.scheme == "https" else 80)
    variable = parts.scheme + "_proxy"
    if not any(name.lower() == variable and os.environ[name] for name in os.environ):
        return parts.scheme, parts.hostname, port, None
    from urllib.request import getproxies, proxy_bypass

    proxy = getproxies().get(parts.scheme)
    if not proxy or proxy_bypass(f"{parts.hostname}:{port}"):
        return parts.scheme, parts.hostname, port, None
    via = urlsplit(proxy if "://" in proxy else "http://" + proxy)
    if via.scheme != "http" or not via.hostname:
        raise ValueError(f"unsupported {parts.scheme} proxy: only http:// proxies are supported")
    auth = None
    if via.username is not None:
        import base64

        credentials = f"{unquote(via.username)}:{unquote(via.password or '')}"
        auth = "Basic " + base64.b64encode(credentials.encode("utf-8")).decode("ascii")
    return parts.scheme, parts.hostname, port, (via.hostname, via.port or 80, auth)


def _connect(route: Route, timeout: float) -> socket.socket:
    """A connected socket for `route`. HTTPS through a proxy tunnels with
    CONNECT, and TLS is verified against the origin host."""
    import socket

    scheme, host, port, proxy = route
    sock = socket.create_connection((host, port) if proxy is None else proxy[:2], timeout)
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if scheme == "https":
            if proxy is not None:
                authority = f"[{host}]:{port}" if ":" in host else f"{host}:{port}"
                fields = {"Host": authority}
                if proxy[2]:
                    fields["Proxy-Authorization"] = proxy[2]
                sock.sendall(_encode_request("CONNECT", authority, fields))
                _, status, _ = _read_head(_Reader(sock))
                if status != 200:
                    raise OSError(f"Tunnel connection failed: {status}")
            sock = _tls_context().wrap_socket(sock, server_hostname=host)
    except BaseException:
        sock.close()
        raise
    return sock


# a request header line: a name without space, colon or NUL, and a value
# without CR, LF or NUL, so a header can never start another line
_HEADER_LINE = re.compile(r"[^\s:\0]+: [^\r\n\0]*").fullmatch


def _encode_request(method: str, target: str, fields: dict, body: bytes = b"") -> bytes:
    """The bytes of one HTTP/1.1 request. A header that could end its line
    early, or that Latin-1 cannot encode, raises ValueError."""
    lines = [f"{method} {target} HTTP/1.1"]
    for name, value in fields.items():
        line = f"{name}: {value}"
        if not _HEADER_LINE(line):
            raise ValueError(f"illegal header {name!r}")
        lines.append(line)
    lines += ("", "")
    return "\r\n".join(lines).encode("latin-1") + body


# the limits the standard library's HTTP client puts on a response head
_MAX_LINE = 65536
_MAX_HEADERS = 100


class _Reader:
    """The bytes one socket received that no part of a response used yet.
    A parse error raises ValueError, and a close before the response ended
    ConnectionError."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._buf = bytearray()

    @property
    def pending(self) -> bool:
        return bool(self._buf)

    def _fill(self) -> None:
        data = self._sock.recv(65536)
        if not data:
            raise ConnectionError("connection closed before the response ended")
        self._buf += data

    def line(self) -> bytes:
        """The next line without its line ending; at most 64 KiB with it."""
        start = 0
        while (end := self._buf.find(b"\n", start)) < 0 and len(self._buf) <= _MAX_LINE:
            start = len(self._buf)
            self._fill()
        if not 0 <= end < _MAX_LINE:
            raise ValueError(f"response line longer than {_MAX_LINE} bytes")
        line = bytes(self._buf[:end]).removesuffix(b"\r")
        del self._buf[: end + 1]
        return line

    def exactly(self, n: int) -> bytes:
        while len(self._buf) < n:
            self._fill()
        data = bytes(self._buf[:n])
        del self._buf[:n]
        return data

    def rest(self) -> bytes:
        """Everything up to the close."""
        while data := self._sock.recv(65536):
            self._buf += data
        data = bytes(self._buf)
        self._buf.clear()
        return data


def _read_fields(reader: _Reader) -> dict[str, str]:
    """Header lines up to the blank line that ends them, keyed by lower-case
    name; a repeated header's values are joined with ", "."""
    fields: dict[str, str] = {}
    for _ in range(_MAX_HEADERS + 1):
        line = reader.line()
        if not line:
            return fields
        name, colon, value = line.decode("latin-1").partition(":")
        if not colon:
            raise ValueError(f"malformed header line {line[:80]!r}")
        name, value = name.strip().lower(), value.strip()
        fields[name] = f"{fields[name]}, {value}" if name in fields else value
    raise ValueError(f"more than {_MAX_HEADERS} headers")


def _read_head(reader: _Reader) -> tuple[str, int, dict[str, str]]:
    """The version, status and headers of one response head."""
    line = reader.line()
    version, _, rest = line.decode("latin-1").partition(" ")
    code = rest.partition(" ")[0]
    if not version.startswith("HTTP/1.") or len(code) != 3 or not code.isdecimal() or code < "100":
        raise ValueError(f"malformed status line {line[:80]!r}")
    return version, int(code), _read_fields(reader)


def _read_response(reader: _Reader) -> tuple[int, dict[str, str], bytes, bool]:
    """One response after its 1xx interim replies: the status, the headers,
    the body, and whether the connection can carry another request."""
    version, status, headers = _read_head(reader)
    while status < 200:
        version, status, headers = _read_head(reader)
    reusable = version != "HTTP/1.0" and "close" not in headers.get("connection", "").lower()
    if status in (204, 304):
        body = b""
    elif headers.get("transfer-encoding", "").lower().endswith("chunked"):
        chunks = []
        while size := _chunk_size(reader.line()):
            chunks.append(reader.exactly(size))
            if reader.line():
                raise ValueError("chunk data longer than its size")
        _read_fields(reader)  # the trailer
        body = b"".join(chunks)
    elif "content-length" in headers:
        length = headers["content-length"]
        if not length.isdecimal():
            raise ValueError(f"bad Content-Length {length[:80]!r}")
        body = reader.exactly(int(length))
    else:
        body, reusable = reader.rest(), False
    return status, headers, body, reusable and not reader.pending


def _chunk_size(line: bytes) -> int:
    """The size on a chunk's first line, its extensions dropped."""
    size = line.partition(b";")[0].strip()
    if not size or size.strip(b"0123456789abcdefABCDEF"):
        raise ValueError(f"bad chunk size {line[:80]!r}")
    return int(size, 16)


def http_transport(url: str, headers: dict, body: dict | None, timeout: float, params: dict | None = None) -> Response:
    """POST `body` as JSON, or GET with `params` (None values dropped) when
    there is no body, and return the status, the headers keyed by lower-case
    name, and the JSON payload as `models.loads` reads it (the body text
    when it is not JSON).

    The request is HTTP/1.1, written on the socket of a kept-alive
    connection from the process pool; the body comes back by
    Content-Length, chunked, or up to the close, and is never compressed.
    Redirects are not followed. A header holding CR, LF or NUL raises
    TransportError before anything is sent. A network failure or a response
    that cannot be parsed closes the connection and raises TransportError;
    the caller's retry policy decides what follows.
    """
    parts = urlsplit(url)
    try:
        route = _route(parts)
    except ValueError as exc:
        raise TransportError(f"cannot send to {url}: {exc}") from None
    query = urlencode([(k, v) for k, v in (params or {}).items() if v is not None], doseq=True)
    query = "&".join(q for q in (parts.query, query) if q)
    target = (parts.path or "/") + (f"?{query}" if query else "")
    target = quote(target, safe="/?%:@!$&'()*+,;=~")  # encode spaces and non-ASCII; keep what is encoded
    host = parts.netloc.rpartition("@")[2]
    fields = {"Host": host, "User-Agent": "agentcast", "Accept": "*/*", "Accept-Encoding": "identity", **headers}
    proxy = route[3]
    if proxy is not None and parts.scheme == "http":
        # a plain proxy takes the absolute URL, and its credentials on every request
        target = f"http://{host}{target}"
        if proxy[2]:
            fields["Proxy-Authorization"] = proxy[2]
    data = b""
    if body is not None:
        try:
            data = json.dumps(body, allow_nan=False).encode("utf-8")
        except ValueError as exc:
            raise TransportError(f"cannot send to {url}: body is not valid JSON ({exc})") from None
        fields["Content-Type"] = "application/json"
        fields["Content-Length"] = str(len(data))
    try:
        request = _encode_request("GET" if body is None else "POST", target, fields, data)
    except ValueError as exc:
        raise TransportError(f"request to {url} failed: {exc}") from None

    sock = _POOL.take(route)
    try:
        if sock is None:
            sock = _connect(route, timeout)
        else:
            sock.settimeout(timeout)
        sock.sendall(request)
        status, resp_headers, raw, reusable = _read_response(_Reader(sock))
    except (OSError, ValueError) as exc:
        if sock is not None:
            sock.close()
        raise TransportError(f"request to {url} failed: {exc}") from exc
    if reusable:
        _POOL.give(route, sock)
    else:
        sock.close()
    text = raw.decode("utf-8-sig", "replace")  # json.loads(bytes) would keep encoded surrogates
    try:
        payload = loads(text)
    except ValueError:
        payload = text
    return status, resp_headers, payload


def send_with_retry(
    url: str,
    headers: dict,
    body: dict | None = None,
    params: dict | None = None,
    *,
    timeout: float,
    retry: RetryPolicy,
    sleep: Callable[[float], None],
    rate_limiter: RateLimiter | None = None,
) -> Any:
    """The request and status policy of every live client: chat, search and
    market. Returns the payload of a 200.

    Sends through `http_transport` up to `retry.max_attempts` times, taking a
    rate-limiter token first when a limiter is given. A TransportError, a 429
    and a 5xx are retried after `retry.delay` (a 429's Retry-After when it has
    one, even 0) until `retry.total_delay_ceiling` seconds of waiting are
    spent; the attempt after that is the last. A 401/403 raises AuthError at
    once. A network failure, a 429 or a 5xx on the last attempt, and any
    other status, raise TransportError. The caller turns a 200 payload it
    cannot use into a TransportError too, so each client fails the same way.
    """
    left = retry.total_delay_ceiling
    for attempt in range(retry.max_attempts):
        final = attempt + 1 == retry.max_attempts or left <= 0
        if rate_limiter is not None:
            rate_limiter.acquire()
        hint: float | None = None
        try:
            status, resp_headers, payload = http_transport(url, headers, body, timeout, params)
        except TransportError:
            if final:
                raise
        else:
            if status == 200:
                return payload
            if status in (401, 403):
                raise AuthError(f"authentication rejected ({status})")
            if status == 429:
                hint = parse_retry_after(resp_headers)
                if final:
                    raise TransportError(f"rate limited (429) after {attempt + 1} attempts")
            elif status < 500:
                raise TransportError(f"unexpected status {status}: {str(payload)[:200]}")
            elif final:
                raise TransportError(f"server error ({status}) after {attempt + 1} attempts")
        delay = retry.delay(attempt, left, hint)
        if delay > 0:
            sleep(delay)
            left -= delay
    raise ValueError(f"RetryPolicy.max_attempts must be at least 1, got {retry.max_attempts}")


class HTTPBackend:
    """Live chat-completions adapter (OpenAI-style wire format). Requests,
    retries and statuses go through `send_with_retry`; a 200 whose payload
    holds no completion raises TransportError."""

    def __init__(
        self,
        base_url: str,
        api_key: str,
        *,
        retry: RetryPolicy = RetryPolicy(),
        rate_limiter: RateLimiter | None = None,
        sleep: Callable[[float], None] = time.sleep,
        timeout: float = 120.0,
    ):
        self._url = base_url.rstrip("/") + "/chat/completions"
        self._headers = {"Authorization": f"Bearer {api_key}"}
        self._send = partial(send_with_retry, timeout=timeout, retry=retry, sleep=sleep, rate_limiter=rate_limiter)

    def complete(self, request: ChatRequest) -> ChatResponse:
        body: dict[str, Any] = {
            "model": request.model_id,
            "messages": [{"role": m.role, "content": m.content} for m in request.messages],
            "temperature": request.temperature,
        }
        if request.stop_sequences:
            body["stop"] = list(request.stop_sequences)
        return _parse_chat_payload(self._send(self._url, self._headers, body))


def _parse_chat_payload(payload: Any) -> ChatResponse:
    try:
        choice = payload["choices"][0]
        content = choice["message"]["content"] or ""
        if not isinstance(content, str):
            raise TypeError
        usage = payload.get("usage") or {}
        prompt_tokens = int(usage.get("prompt_tokens", 0))
        completion_tokens = int(usage.get("completion_tokens", 0))
        reason = choice.get("finish_reason", "stop")
    except (KeyError, IndexError, TypeError, AttributeError, ValueError, OverflowError):
        raise TransportError(f"malformed completion payload: {str(payload)[:200]}") from None
    if reason not in ("stop", "length"):
        reason = "other"
    return ChatResponse(content, prompt_tokens, completion_tokens, reason)


# --- scripted / recording / replay ----------------------------------------


def _request_summary(request: ChatRequest) -> dict:
    return {
        "model_id": request.model_id,
        "n_messages": len(request.messages),
        "last_message": request.messages[-1].content[:200],
    }


class RecordingBackend:
    """Wraps a live backend and appends every exchange to a cassette file,
    tagged with the lane it was made in (null outside any lane: probe). Each
    exchange opens the file, appends its line and closes it again, so no
    file stays open and nothing needs closing."""

    def __init__(self, inner: Backend, cassette_path: str | Path):
        self._inner = inner
        self._path = Path(cassette_path)
        self._lock = threading.Lock()
        try:
            self._path.parent.mkdir(parents=True, exist_ok=True)
            open(self._path, "a", encoding="utf-8").close()  # an unwritable path fails before any request
        except OSError as exc:
            raise CassetteError(f"cannot open cassette {self._path} for writing: {exc}") from exc

    def complete(self, request: ChatRequest) -> ChatResponse:
        response = self._inner.complete(request)
        entry = {
            "fingerprint": fingerprint(request),
            "lane": current_lane(),
            "request": _request_summary(request),
            "response": {
                "content": response.content,
                "prompt_tokens": response.prompt_tokens,
                "completion_tokens": response.completion_tokens,
                "finish_reason": response.finish_reason,
            },
        }
        line = json.dumps(entry, ensure_ascii=False)
        with self._lock:
            try:
                with open(self._path, "a", encoding="utf-8") as fh:
                    fh.write(line + "\n")
            except OSError as exc:
                raise CassetteError(f"cannot write cassette {self._path}: {exc}") from exc
        return response


CassetteKey = tuple[Lane | None, str]


def load_cassette(path: str | Path) -> dict[CassetteKey, list[ChatResponse]]:
    """Parse a cassette into (lane, fingerprint) -> ordered responses. Entries
    without a lane load under lane None. Corrupt lines, including a reply
    that is not a string, raise CassetteError naming the file and line number."""
    path = Path(path)
    try:
        lines = read_checked(path, _cassette_entry)
    except OSError as exc:
        raise CassetteError(f"cannot open cassette {path}: {exc}") from exc
    except ValidationError as exc:  # its message reads "<path>:<line>: <fault>"
        lineno, _, fault = exc.message[len(f"{path}:") :].partition(": ")
        raise CassetteError(f"{path}:{lineno}: corrupt cassette entry ({fault})") from None
    entries: dict[CassetteKey, list[ChatResponse]] = {}
    for key, response in lines:
        entries.setdefault(key, []).append(response)
    return entries


def _cassette_entry(raw: Any) -> tuple[CassetteKey, ChatResponse]:
    try:
        fp = raw["fingerprint"]
        if not isinstance(fp, str):
            raise TypeError(f"fingerprint is {type(fp).__name__}, not a string")
        lane = raw.get("lane")
        if lane is not None:
            question_id, member_index = lane
            lane = (str(question_id), int(member_index))
        resp = raw["response"]
        content = resp["content"]
        if not isinstance(content, str):
            raise TypeError(f"content is {type(content).__name__}, not a string")
        response = ChatResponse(
            content=content,
            prompt_tokens=int(resp.get("prompt_tokens", 0)),
            completion_tokens=int(resp.get("completion_tokens", 0)),
            finish_reason=resp.get("finish_reason", "stop"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError("entry", str(exc)) from None
    return (lane, fp), response


class ReplayBackend:
    """Serves recorded responses by lane and request fingerprint, in recorded
    order.

    Identical requests in the same lane consume successive entries; a request
    with no remaining entry raises CassetteMiss. Since each lane is one
    member's sequential stream, replay gives the same replies however many
    members run at once. Never touches the network.
    """

    def __init__(self, entries: dict[CassetteKey, list[ChatResponse]]):
        self._remaining = {key: deque(responses) for key, responses in entries.items()}
        self._lock = threading.Lock()

    @classmethod
    def from_file(cls, path: str | Path) -> "ReplayBackend":
        return cls(load_cassette(path))

    def complete(self, request: ChatRequest) -> ChatResponse:
        fp = fingerprint(request)
        lane = current_lane()
        with self._lock:
            queue = self._remaining.get((lane, fp))
            if not queue:
                raise CassetteMiss(fp, request, lane)
            return queue.popleft()


class UsageMeter:
    """Pass-through wrapper that tallies calls and token usage."""

    def __init__(self, inner: Backend):
        self._inner = inner
        self._lock = threading.Lock()
        self.calls = 0
        self.prompt_tokens = 0
        self.completion_tokens = 0

    def complete(self, request: ChatRequest) -> ChatResponse:
        response = self._inner.complete(request)
        with self._lock:
            self.calls += 1
            self.prompt_tokens += response.prompt_tokens
            self.completion_tokens += response.completion_tokens
        return response


# --- leakage probe --------------------------------------------------------


class ProbeResult(Enum):
    LEAKED = "Leaked"
    CUTOFF_RESPECTED = "CutoffRespected"
    INCONCLUSIVE = "Inconclusive"


PROBE_TEMPLATE = "Answer this question without searching the web: {question}"

_CUTOFF_MARKERS = (
    "knowledge cutoff",
    "training cutoff",
    "cutoff date",
    "training data",
    "as of my last update",
    "as of my knowledge",
    "i cannot predict",
    "can't predict",
    "don't have information",
    "do not have information",
    "don't have access to real-time",
    "do not have access to real-time",
    "after my",
)


def leakage_probe(
    backend: Backend,
    question: str,
    answer_patterns: Iterable[str] = (),
    *,
    model_id: str = "default",
    temperature: float = DEFAULT_TEMPERATURE,
) -> tuple[ProbeResult, str]:
    """Ask the model a post-cutoff question directly and classify the reply.

    A reply containing any answer pattern means the model already knows the
    outcome (Leaked). A reply pointing at its training cutoff means the
    knowledge boundary held (CutoffRespected). Anything else, including an
    empty reply, is Inconclusive. Returns the classification and the raw reply.
    """
    request = ChatRequest(
        model_id=model_id,
        messages=(Message("user", PROBE_TEMPLATE.format(question=question)),),
        temperature=temperature,
    )
    reply = backend.complete(request).content
    lowered = reply.casefold()
    if not lowered.strip():
        return ProbeResult.INCONCLUSIVE, reply
    for pattern in answer_patterns:
        if pattern.casefold() in lowered:
            return ProbeResult.LEAKED, reply
    for marker in _CUTOFF_MARKERS:
        if marker in lowered:
            return ProbeResult.CUTOFF_RESPECTED, reply
    return ProbeResult.INCONCLUSIVE, reply
