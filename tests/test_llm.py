"""Backends: fingerprints, cassette record/replay, retry policy, rate limiting."""

import base64
import json
import os
import sys
import threading
import time
from datetime import date

import pytest

from agentcast import llm
from agentcast.llm import (
    AuthError,
    BackendError,
    CassetteError,
    CassetteMiss,
    ChatRequest,
    ChatResponse,
    HTTPBackend,
    Message,
    ProbeResult,
    RateLimiter,
    RecordingBackend,
    ReplayBackend,
    RetryPolicy,
    TransportError,
    UsageMeter,
    fan_out,
    fingerprint,
    http_transport,
    in_lane,
    leakage_probe,
    load_cassette,
)
from agentcast.market import LiveMarketClient
from agentcast.tools import LiveSearchProvider

from conftest import DROP
from helpers import ScriptedBackend


def make_request(content="hello", temperature=0.5, stop=()):
    return ChatRequest(
        model_id="default",
        messages=(Message("system", "be brief"), Message("user", content)),
        temperature=temperature,
        stop_sequences=tuple(stop),
    )


def test_request_validation():
    with pytest.raises(ValueError, match="at least one message"):
        ChatRequest(model_id="m", messages=())
    with pytest.raises(ValueError, match="first message"):
        ChatRequest(model_id="m", messages=(Message("assistant", "hi"),))
    for temperature in (-1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="temperature"):
            make_request(temperature=temperature)
    with pytest.raises(ValueError, match="role"):
        Message("tool", "x")
    assert make_request().temperature == 0.5  # the default


def test_fingerprint_is_stable_and_semantic():
    a = fingerprint(make_request("hello"))
    assert a == fingerprint(make_request("hello"))
    assert a != fingerprint(make_request("goodbye"))
    assert a != fingerprint(make_request("hello", temperature=0.7))
    assert a != fingerprint(make_request("hello", stop=("Observation:",)))
    assert len(a) == 64 and int(a, 16) >= 0


def golden_requests() -> dict[str, ChatRequest]:
    system = Message("system", "You are a forecaster.")
    repeated = Message("user", "ping")
    # more distinct messages than the per-process cache of encoded messages holds
    long_run = [Message("user" if i % 2 == 0 else "assistant", f"step {i} — note {i * 7}") for i in range(2500)]
    return {
        "em-dash": ChatRequest("default", (system, Message("user", "Will it ship — before May?"))),
        "escapes": ChatRequest(
            "modèle-1",
            (system, Message("user", 'say "hi" \\ back\nnext\ttab\r\x00\x01\x1f\x7f\u2028\u2029</b> é \U0001f600')),
        ),
        "stop-empty": ChatRequest("default", (system, repeated), 0.5, ()),
        "stop-set": ChatRequest("default", (system, repeated), 0.5, ("\nObservation:", "— end")),
        "temperature-int": ChatRequest("default", (system, repeated), 1),
        "temperature-float": ChatRequest("default", (system, repeated), 1.0),
        "repeated-message": ChatRequest("default", (system, repeated, Message("assistant", "pong"), repeated, repeated)),
        "past-the-cache": ChatRequest("default", (system, *long_run)),
    }


# SHA-256 of the canonical JSON of each request, as the fingerprint computed
# it when every message was encoded on every call
GOLDEN_FINGERPRINTS = {
    "em-dash": "6f4a4d700669252da3727505bb44f464fa5636f814f56500b7e7aaae175c3018",
    "escapes": "a81236e344d587d92324494f5ad880185c9aac77ec3b63cb716a881d0d72f915",
    "stop-empty": "7a673acd8ca3e8c94294d8e69142eb33fc38de374a11865ed063e7b819667d81",
    "stop-set": "7dc65eefa677de158904aa7c44a7f9ac3ed42ba512ab32fbcf8079ce4ba74c47",
    "temperature-int": "7c49797c8ec656c89503cb7caf0188e8f0c65a013ab0cd1330bfab67d3d400e8",
    "temperature-float": "803f8afcffdcdb7740c2b30c81d854716a128ec1bccaa888c171dc19396a596f",
    "repeated-message": "854dacc7f34c3958f1967bcb834d50dfc7ac580e0d5d294ac3da0bd10ba38fea",
    "past-the-cache": "98565d9bb984ef46bcd37824b268fd268d398f349033fafa5be79f81fcfd5bbe",
}


def test_fingerprint_matches_the_pinned_digests():
    requests = golden_requests()
    assert len(requests["past-the-cache"].messages) > llm._FRAGMENT_CACHE_SIZE
    first = {name: fingerprint(request) for name, request in requests.items()}
    again = {name: fingerprint(request) for name, request in requests.items()}  # served from the cache
    assert first == again == GOLDEN_FINGERPRINTS


def test_scripted_backend_plays_in_order_and_logs_requests():
    backend = ScriptedBackend(["one", ChatResponse("two", 5, 7), TransportError("boom")])
    assert backend.complete(make_request("a")).content == "one"
    resp = backend.complete(make_request("b"))
    assert (resp.content, resp.prompt_tokens, resp.completion_tokens) == ("two", 5, 7)
    with pytest.raises(TransportError):
        backend.complete(make_request("c"))
    with pytest.raises(BackendError, match="exhausted"):
        backend.complete(make_request("d"))
    assert [r.messages[-1].content for r in backend.requests] == ["a", "b", "c", "d"]


def test_record_then_replay_round_trip(tmp_path):
    cassette = tmp_path / "cassette.jsonl"
    scripted = ScriptedBackend(["first", "second", "other"])
    recording = RecordingBackend(scripted, cassette)
    req = make_request("same prompt")
    assert recording.complete(req).content == "first"
    assert recording.complete(req).content == "second"  # same fingerprint, second entry
    assert recording.complete(make_request("different")).content == "other"

    replay = ReplayBackend.from_file(cassette)
    assert replay.complete(make_request("different")).content == "other"
    assert replay.complete(req).content == "first"
    assert replay.complete(req).content == "second"
    with pytest.raises(CassetteMiss):
        replay.complete(req)  # entries for this fingerprint are used up


def test_replay_serves_each_lane_its_own_entries(tmp_path):
    cassette = tmp_path / "cassette.jsonl"
    recording = RecordingBackend(ScriptedBackend(["member 0", "member 1", "no lane"]), cassette)
    req = make_request("same prompt")
    with in_lane("q1", 0):
        recording.complete(req)
    with in_lane("q1", 1):
        recording.complete(req)
    recording.complete(req)
    lanes = [json.loads(line)["lane"] for line in cassette.read_text().splitlines()]
    assert lanes == [["q1", 0], ["q1", 1], None]

    replay = ReplayBackend.from_file(cassette)
    with in_lane("q1", 1):
        assert replay.complete(req).content == "member 1"  # replayed out of recorded order
    assert replay.complete(req).content == "no lane"
    with in_lane("q1", 0):
        assert replay.complete(req).content == "member 0"
    with in_lane("q2", 0), pytest.raises(CassetteMiss, match="q2"):
        replay.complete(req)


def test_replay_misses_unknown_request(tmp_path):
    cassette = tmp_path / "cassette.jsonl"
    recording = RecordingBackend(ScriptedBackend(["x"]), cassette)
    recording.complete(make_request("known"))
    replay = ReplayBackend.from_file(cassette)
    with pytest.raises(CassetteMiss, match="fingerprint"):
        replay.complete(make_request("never recorded"))


def test_cassette_line_that_still_carries_max_tokens_replays(tmp_path):
    cassette = tmp_path / "cassette.jsonl"
    recording = RecordingBackend(ScriptedBackend(["x"]), cassette)
    recording.complete(make_request())
    entry = json.loads(cassette.read_text())
    assert set(entry["request"]) == {"model_id", "n_messages", "last_message"}
    entry["request"]["max_tokens"] = 256  # summaries written by older versions carry it
    cassette.write_text(json.dumps(entry) + "\n", encoding="utf-8")
    assert ReplayBackend(load_cassette(cassette)).complete(make_request()).content == "x"


def test_corrupt_cassette_names_line(tmp_path):
    cassette = tmp_path / "cassette.jsonl"
    good = json.dumps({"fingerprint": "f", "request": {}, "response": {"content": "x"}})
    cassette.write_text(good + "\n{not json\n", encoding="utf-8")
    with pytest.raises(CassetteError, match=r"cassette\.jsonl:2"):
        load_cassette(cassette)
    cassette.write_text('{"fingerprint": "f"}\n', encoding="utf-8")
    with pytest.raises(CassetteError, match=r"cassette\.jsonl:1"):
        load_cassette(cassette)
    # a reply that is not text was accepted here and failed at its first use
    cassette.write_text(good + "\n" + good.replace('"x"', "[1]") + "\n", encoding="utf-8")
    with pytest.raises(CassetteError, match=r"cassette\.jsonl:2: corrupt cassette entry \(content is list, not a string\)"):
        load_cassette(cassette)
    with pytest.raises(CassetteError, match="cannot open"):
        load_cassette(tmp_path / "missing.jsonl")
    cassette.write_bytes(good.encode() + b"\n" + good.replace('"x"', '"\xff"').encode("latin-1") + b"\n")
    with pytest.raises(CassetteError, match=r"cassette\.jsonl:2: corrupt cassette entry \(not valid UTF-8\)"):
        load_cassette(cassette)
    cassette.write_text(good.replace('"f"', '["f"]') + "\n", encoding="utf-8")  # was an unhashable-type TypeError
    with pytest.raises(CassetteError, match=r"cassette\.jsonl:1: corrupt cassette entry \(fingerprint is list"):
        load_cassette(cassette)


def test_recording_backend_unwritable_path_is_fatal(tmp_path):
    target = tmp_path / "dir-not-file"
    target.mkdir()
    with pytest.raises(CassetteError, match="cannot open"):
        RecordingBackend(ScriptedBackend([]), target)


def descriptors_on(path):
    """How many of this process's file descriptors are open on `path`."""
    count = 0
    for fd in os.listdir("/proc/self/fd"):
        try:
            count += os.readlink(f"/proc/self/fd/{fd}") == str(path.resolve())
        except OSError:  # the descriptor listdir itself used, closed since
            pass
    return count


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/fd")
def test_a_recorder_holds_no_descriptor_and_each_line_is_on_disk_when_complete_returns(tmp_path):
    cassette = tmp_path / "cassette.jsonl"
    recording = RecordingBackend(ScriptedBackend(["first", "second"]), cassette)
    assert cassette.exists() and descriptors_on(cassette) == 0
    recorded = []
    for prompt, reply in [("a", "first"), ("b", "second")]:
        recording.complete(make_request(prompt))
        recorded.append(reply)
        assert descriptors_on(cassette) == 0
        assert [json.loads(line)["response"]["content"] for line in cassette.read_text().splitlines()] == recorded


def test_usage_meter_accumulates():
    meter = UsageMeter(ScriptedBackend([ChatResponse("a", 10, 2), ChatResponse("b", 20, 3)]))
    meter.complete(make_request("one"))
    meter.complete(make_request("two"))
    assert (meter.calls, meter.prompt_tokens, meter.completion_tokens) == (2, 30, 5)


# --- the shared fan-out ------------------------------------------------------


@pytest.mark.parametrize("workers", [1, 4])
def test_fan_out_yields_results_in_item_order(workers):
    def square(i):
        time.sleep(0.01 * (5 - i) if i < 5 else 0)  # early items finish last
        return i * i

    before = threading.active_count()
    assert list(fan_out(square, range(12), workers)) == [i * i for i in range(12)]
    assert threading.active_count() == before


def test_fan_out_starts_no_item_after_a_call_raises():
    started = []

    def call(i):
        started.append(i)
        if i == 2:
            raise AuthError("authentication rejected (401)")
        time.sleep(0.2)  # the other items in flight outlast the failure
        return i

    before = threading.active_count()
    with pytest.raises(AuthError, match="401"):
        list(fan_out(call, range(20), 4))
    # only the four items taken before the failure ever started
    assert 2 in started and set(started) <= {0, 1, 2, 3}
    assert threading.active_count() == before


def test_fan_out_closed_early_stops_and_leaves_no_thread():
    started = []

    def call(i):
        started.append(i)
        time.sleep(0.02)
        return i

    before = threading.active_count()
    results = fan_out(call, range(50), 2)
    assert next(results) == 0
    results.close()
    assert threading.active_count() == before
    assert len(started) < 50


# --- one status table for every live client ---------------------------------

CHAT_OK = {
    "choices": [{"message": {"content": "fine"}, "finish_reason": "stop"}],
    "usage": {"prompt_tokens": 12, "completion_tokens": 3},
}

# client: (call given a base URL and the client's keyword arguments, 200 body)
LIVE_CLIENTS = {
    "chat": (lambda url, **kw: HTTPBackend(url, "key", **kw).complete(make_request()), CHAT_OK),
    "search": (
        lambda url, **kw: LiveSearchProvider(url, "key", **kw).search("q", date(2024, 4, 1), 8),
        {"results": [{"title": "T", "url": "u", "snippet": "s"}]},
    ),
    "market": (lambda url, **kw: LiveMarketClient(url, **kw).get_market("m1"), {"id": "m1"}),
}

# (error, message pattern) that every live client raises on each failing row:
# a rejected key ends the run, and every other failure skips one item
FAILURES = {
    "401": (AuthError, "401"),
    "404": (TransportError, "404"),
    "exhausted": (TransportError, "429"),
    "unusable": (TransportError, "malformed (completion|search|market) payload"),
}

THROTTLED = (429, {"Retry-After": "30"}, {})
UNUSABLE = (200, {}, "<html>busy</html>")


@pytest.mark.parametrize(
    "served, sleeps, fails_with",
    [
        pytest.param([200], [], None, id="200-succeeds"),
        pytest.param([401], [], "401", id="401-fails-at-once"),
        pytest.param([404], [], "404", id="404-fails-at-once"),
        pytest.param([503, 200], [1.0], None, id="503-then-200"),
        pytest.param([DROP, 200], [1.0], None, id="connection-error-then-200"),
        pytest.param([429, 429, 200], [1.0, 2.0], None, id="429-429-200"),
        pytest.param([(429, {"Retry-After": "7"}, {}), 200], [7.0], None, id="429-retry-after-then-200"),
        pytest.param([(429, {"retry-after": "7"}, {}), 200], [7.0], None, id="429-lowercase-retry-after-then-200"),
        pytest.param([503, DROP, 200], [1.0, 2.0], None, id="503-drop-200"),
        pytest.param([UNUSABLE], [], "unusable", id="unusable-200-body"),
        pytest.param([(429, {"Retry-After": "0"}, {}), 200], [], None, id="429-retry-after-0-then-200"),
        # 30 + 30 s spends the 60 s ceiling, so the third attempt is the last
        pytest.param([THROTTLED] * 3, [30.0, 30.0], "exhausted", id="429s-stop-at-max-attempts"),
    ],
)
@pytest.mark.parametrize("client", sorted(LIVE_CLIENTS))
def test_live_clients_share_one_status_table(loopback, client, served, sleeps, fails_with):
    call, ok_body = LIVE_CLIENTS[client]
    loopback.serve(*[(o, {}, ok_body if o == 200 else {}) if isinstance(o, int) else o for o in served])
    slept = []
    if fails_with is None:
        assert call(loopback.url, sleep=slept.append)
    else:
        error, pattern = FAILURES[fails_with]
        with pytest.raises(error, match=pattern):
            call(loopback.url, sleep=slept.append)
    assert len(loopback.requests) == len(served)
    assert slept == sleeps and sum(slept) <= RetryPolicy().total_delay_ceiling


@pytest.mark.parametrize("client", sorted(LIVE_CLIENTS))
def test_live_clients_keep_a_custom_attempt_cap(loopback, client):
    call, _ = LIVE_CLIENTS[client]
    loopback.serve((429, {}, {}))
    slept = []
    policy = RetryPolicy(max_attempts=4, base_delay=10.0, max_delay=100.0, total_delay_ceiling=35.0)
    with pytest.raises(TransportError, match="429"):
        call(loopback.url, sleep=slept.append, retry=policy)
    assert len(loopback.requests) == 4  # never exceeds the cap
    assert slept == [10.0, 20.0, 5.0]  # the third wait is cut to the 35 s ceiling


def test_http_backend_auth_error_is_immediate(loopback):
    loopback.serve((401, {}, {}))
    slept = []
    with pytest.raises(AuthError):
        HTTPBackend(loopback.url, "key", sleep=slept.append).complete(make_request())
    assert len(loopback.requests) == 1
    assert slept == []


def test_http_backend_rejects_unexpected_4xx_without_retry(loopback):
    loopback.serve((400, {}, {"error": "bad request"}))
    slept = []
    with pytest.raises(TransportError, match="400"):
        HTTPBackend(loopback.url, "key", sleep=slept.append).complete(make_request())
    assert len(loopback.requests) == 1
    assert slept == []


def test_http_backend_success_and_wire_format(loopback):
    loopback.serve((200, {}, CHAT_OK))
    backend = HTTPBackend(loopback.url + "/v1/", "key")
    assert backend.complete(make_request("ping", stop=("Observation:",))) == ChatResponse("fine", 12, 3, "stop")
    method, target, headers, body = loopback.requests[0]
    assert (method, target, headers["Authorization"]) == ("POST", "/v1/chat/completions", "Bearer key")
    assert json.loads(body) == {
        "model": "default",
        "messages": [{"role": "system", "content": "be brief"}, {"role": "user", "content": "ping"}],
        "temperature": 0.5,
        "stop": ["Observation:"],
    }


def test_a_lone_surrogate_in_a_reply_reads_as_a_replacement_character(loopback, tmp_path):
    # a reply cut in the middle of an escaped surrogate pair: it must still
    # be recorded, fingerprinted in the next request and written as UTF-8
    loopback.serve((200, {}, {"choices": [{"message": {"content": "half \ud83d, whole \U0001f600"}}]}))
    cassette = tmp_path / "cassette.jsonl"
    recording = RecordingBackend(HTTPBackend(loopback.url, "key"), cassette)
    reply = recording.complete(make_request()).content
    assert reply == "half \ufffd, whole \U0001f600"
    recording.complete(make_request(reply))
    entries = [json.loads(line) for line in cassette.read_text(encoding="utf-8").splitlines()]
    assert [e["response"]["content"] for e in entries] == [reply, reply]


def test_an_encoded_lone_surrogate_in_a_body_reads_as_replacement_characters(loopback):
    # ED A0 BD is a surrogate written as UTF-8, which is not valid UTF-8;
    # json.loads(bytes) would read it as "\ud83d". A BOM still reads.
    half = b"\xed\xa0\xbd"
    loopback.serve(
        (200, {}, b'{"choices": [{"message": {"content": "half ' + half + b'"}}]}'),
        (200, {}, b'{"results": [{"title": "cut ' + half + b'", "url": "u", "snippet": "s"}]}'),
        (200, {}, b'\xef\xbb\xbf{"choices": [{"message": {"content": "fine"}}]}'),
    )
    backend = HTTPBackend(loopback.url, "key")
    assert backend.complete(make_request()).content == "half \ufffd\ufffd\ufffd"
    (hit,) = LiveSearchProvider(loopback.url, "key").search("q", date(2024, 4, 15), 8)
    assert hit.title == "cut \ufffd\ufffd\ufffd"
    assert backend.complete(make_request()).content == "fine"


def completion(content="fine", **fields):
    return {"choices": [{"message": {"content": content}}], **fields}


@pytest.mark.parametrize(
    "payload",
    [
        pytest.param(completion([{"type": "text", "text": "fine"}]), id="content-is-a-list"),
        pytest.param(completion(5), id="content-is-a-number"),
        # these escaped as a TypeError, an AttributeError, a ValueError and an OverflowError
        pytest.param(completion(usage={"prompt_tokens": None}), id="usage-tokens-null"),
        pytest.param(completion(usage=[1]), id="usage-is-a-list"),
        pytest.param(completion(usage={"prompt_tokens": "n/a"}), id="usage-tokens-text"),
        pytest.param(completion(usage={"completion_tokens": 1e400}), id="usage-tokens-infinite"),
    ],
)
def test_http_backend_rejects_a_reply_that_is_not_text(loopback, payload):
    loopback.serve((200, {}, payload))
    with pytest.raises(TransportError, match="malformed completion payload"):
        HTTPBackend(loopback.url, "key").complete(make_request())


# --- the keep-alive transport, against a loopback server ----------------------


def market_route(method, target):
    """Answers /market/<id> with that market, so a reply shows which request it belongs to."""
    return 200, {}, {"id": target.rsplit("/", 1)[-1]}


def test_calls_from_one_thread_share_one_connection(loopback):
    loopback.route = market_route
    client = LiveMarketClient(loopback.url)
    assert [client.get_market(f"m{i}")["id"] for i in range(6)] == [f"m{i}" for i in range(6)]
    assert len(loopback.requests) == 6
    assert loopback.accepts == 1


def test_a_connection_the_server_closed_is_not_reused(loopback):
    loopback.route = market_route
    loopback.close_when_idle = True
    sleeps = []
    client = LiveMarketClient(loopback.url, sleep=sleeps.append)
    for i in range(4):
        assert client.get_market(f"m{i}")["id"] == f"m{i}"
        assert loopback.wait_closed(i + 1)
    # every call found its idle connection closed and opened a new one instead
    assert (len(loopback.requests), loopback.accepts, sleeps) == (4, 4, [])
    # without waiting, a close can race the next request; the retry policy covers that
    for i in range(4):
        assert client.get_market(f"n{i}")["id"] == f"n{i}"


def test_concurrent_calls_never_share_a_connection(loopback):
    loopback.route = market_route
    client = LiveMarketClient(loopback.url, retry=RetryPolicy(max_attempts=1), timeout=5.0)
    threads_n, calls = 8, 25
    wrong = []

    def work(t):
        for i in range(calls):
            market_id = f"t{t}c{i}"
            try:
                got = client.get_market(market_id)["id"]
            except TransportError as exc:
                got = exc
            if got != market_id:
                wrong.append((market_id, got))
                return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(t,), daemon=True) for t in range(threads_n)]
        for t in threads:
            t.start()
        deadline = time.monotonic() + 30
        for t in threads:
            t.join(timeout=max(0.0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    assert len(loopback.requests) == threads_n * calls
    assert loopback.accepts <= threads_n  # a connection is reused, never shared


def test_http_proxy_gets_the_absolute_url_and_no_proxy_bypasses_it(make_loopback, monkeypatch):
    origin, proxy = make_loopback(), make_loopback()
    origin.route = proxy.route = market_route
    proxy_host = proxy.url.removeprefix("http://")
    monkeypatch.setenv("http_proxy", f"http://user:pa%40ss@{proxy_host}")
    LiveMarketClient(origin.url).get_market("m1")
    method, target, headers, _ = proxy.requests[0]
    assert (method, target) == ("GET", f"{origin.url}/market/m1")
    assert headers["Proxy-Authorization"] == "Basic " + base64.b64encode(b"user:pa@ss").decode()
    assert origin.requests == []

    monkeypatch.setenv("no_proxy", "localhost,127.0.0.1")
    LiveMarketClient(origin.url).get_market("m2")
    assert [r[:2] for r in origin.requests] == [("GET", "/market/m2")]
    assert len(proxy.requests) == 1


def test_https_through_a_proxy_opens_a_tunnel(loopback, monkeypatch):
    loopback.serve((502, {}, None))  # refuse the tunnel, so no TLS is needed
    monkeypatch.setenv("https_proxy", loopback.url)
    client = LiveMarketClient("https://market.example", retry=RetryPolicy(max_attempts=1))
    with pytest.raises(TransportError, match="Tunnel connection failed: 502"):
        client.get_market("m1")
    assert [r[:2] for r in loopback.requests] == [("CONNECT", "market.example:443")]


def test_transport_posts_json_and_drops_none_params(loopback):
    loopback.serve((200, {"X-Trace": "7"}, {"ok": True}))
    status, headers, payload = http_transport(loopback.url + "/chat?v=1", {"Authorization": "k"}, {"a": 1}, 5.0)
    assert (status, headers["X-Trace"], payload) == (200, "7", {"ok": True})
    status, _, _ = http_transport(loopback.url + "/list", {}, None, 5.0, {"limit": "5", "before": None})
    assert status == 200
    (m1, t1, h1, b1), (m2, t2, _, b2) = loopback.requests
    assert (m1, t1, json.loads(b1), h1["Content-Type"], h1["Authorization"]) == (
        "POST", "/chat?v=1", {"a": 1}, "application/json", "k"
    )
    assert (m2, t2, b2) == ("GET", "/list?limit=5", b"")
    with pytest.raises(TransportError, match="not valid JSON"):
        http_transport(loopback.url, {}, {"p": float("nan")}, 5.0)
    with pytest.raises(TransportError, match="http"):
        http_transport("ftp://example.org/x", {}, None, 5.0)
    with pytest.raises(TransportError, match="failed"):  # an illegal header value
        http_transport(loopback.url + "/chat", {"Authorization": "Bearer k\r\n"}, {"a": 1}, 5.0)
    http_transport(loopback.url + "/market/é x%41", {}, None, 5.0, {"q": "a b"})
    assert loopback.requests[-1][:2] == ("GET", "/market/%C3%A9%20x%41?q=a+b")


def test_rate_limiter_allows_burst_then_waits():
    clock = {"now": 0.0}
    sleeps = []

    def fake_sleep(seconds):
        sleeps.append(seconds)
        clock["now"] += seconds

    limiter = RateLimiter(60, clock=lambda: clock["now"], sleep=fake_sleep)
    for _ in range(60):
        assert limiter.acquire() == 0.0
    waited = limiter.acquire()  # bucket empty: one token refills in 1s at 60/min
    assert waited == pytest.approx(1.0)
    assert sleeps and sleeps[0] == pytest.approx(1.0)


def test_rate_limiter_below_one_request_per_minute_grants_tokens():
    # the bucket held at most 0.5 tokens at 0.5 rpm, so acquire slept forever
    clock = {"now": 0.0}
    sleeps = []

    def fake_sleep(seconds):
        assert len(sleeps) < 10, "no token after ten sleeps"
        sleeps.append(seconds)
        clock["now"] += seconds

    limiter = RateLimiter(0.5, clock=lambda: clock["now"], sleep=fake_sleep)
    assert limiter.acquire() == 0.0
    assert limiter.acquire() == pytest.approx(120.0)
    assert sleeps == [pytest.approx(120.0)]


def test_rate_limiter_waiters_reserve_slots_in_arrival_order_and_sleep_once():
    # the clock never moves, so each caller past the burst must reserve the
    # token after the one the caller before it reserved
    sleeps = []

    def fake_sleep(seconds):
        assert len(sleeps) < 3, "a caller slept more than once"
        sleeps.append(seconds)

    limiter = RateLimiter(60, clock=lambda: 0.0, sleep=fake_sleep)
    for _ in range(60):
        assert limiter.acquire() == 0.0
    assert [limiter.acquire() for _ in range(3)] == [pytest.approx(1.0), pytest.approx(2.0), pytest.approx(3.0)]
    assert sleeps == [pytest.approx(1.0), pytest.approx(2.0), pytest.approx(3.0)]


def test_rate_limiter_rejects_nonpositive_budget():
    # a NaN or infinite budget used to be accepted; a NaN one then waited NaN seconds forever
    for rpm in (0, -1, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="finite and positive"):
            RateLimiter(rpm)


# --- leakage probe ----------------------------------------------------------


def test_leakage_probe_prompt_shape_and_classification():
    backend = ScriptedBackend(
        [
            "The final was won by Atlantis; they defeated Pacifica 2-1.",
            "I can't answer that; it is after my knowledge cutoff date.",
            "Interesting question, hard to say.",
            "",
        ]
    )
    leaked, reply = leakage_probe(backend, "Who won the cup?", ["defeated"])
    assert leaked is ProbeResult.LEAKED and "defeated" in reply
    respected, _ = leakage_probe(backend, "Who won the cup?", ["defeated"])
    assert respected is ProbeResult.CUTOFF_RESPECTED
    inconclusive, _ = leakage_probe(backend, "Who won the cup?", ["defeated"])
    assert inconclusive is ProbeResult.INCONCLUSIVE
    empty, _ = leakage_probe(backend, "Who won the cup?", ["defeated"])
    assert empty is ProbeResult.INCONCLUSIVE
    prompt = backend.requests[0].messages[0].content
    assert prompt == "Answer this question without searching the web: Who won the cup?"
