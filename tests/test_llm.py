"""Backends: fingerprints, cassette record/replay, retry policy, rate limiting."""

import json
import threading

import pytest

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
    RateLimited,
    RateLimiter,
    RecordingBackend,
    ReplayBackend,
    RetryPolicy,
    ScriptedBackend,
    TransportError,
    UsageMeter,
    fingerprint,
    in_lane,
    leakage_probe,
    load_cassette,
)


def make_request(content="hello", temperature=0.5, max_tokens=None, stop=()):
    return ChatRequest(
        model_id="default",
        messages=(Message("system", "be brief"), Message("user", content)),
        temperature=temperature,
        max_tokens=max_tokens,
        stop_sequences=tuple(stop),
    )


def test_request_validation():
    with pytest.raises(ValueError, match="at least one message"):
        ChatRequest(model_id="m", messages=())
    with pytest.raises(ValueError, match="first message"):
        ChatRequest(model_id="m", messages=(Message("assistant", "hi"),))
    with pytest.raises(ValueError, match="temperature"):
        make_request(temperature=-1)
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


def test_fingerprint_ignores_max_tokens():
    assert fingerprint(make_request(max_tokens=100)) == fingerprint(make_request(max_tokens=999))
    assert fingerprint(make_request(max_tokens=100)) == fingerprint(make_request())


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
    recording.close()

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
    recording.close()
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
    recording.close()
    replay = ReplayBackend.from_file(cassette)
    with pytest.raises(CassetteMiss, match="fingerprint"):
        replay.complete(make_request("never recorded"))


def test_cassette_metadata_keeps_max_tokens(tmp_path):
    cassette = tmp_path / "cassette.jsonl"
    recording = RecordingBackend(ScriptedBackend(["x"]), cassette)
    recording.complete(make_request(max_tokens=256))
    recording.close()
    entry = json.loads(cassette.read_text().splitlines()[0])
    assert entry["request"]["max_tokens"] == 256
    assert entry["request"]["model_id"] == "default"


def test_corrupt_cassette_names_line(tmp_path):
    cassette = tmp_path / "cassette.jsonl"
    good = json.dumps({"fingerprint": "f", "request": {}, "response": {"content": "x"}})
    cassette.write_text(good + "\n{not json\n", encoding="utf-8")
    with pytest.raises(CassetteError, match=r"cassette\.jsonl:2"):
        load_cassette(cassette)
    cassette.write_text('{"fingerprint": "f"}\n', encoding="utf-8")
    with pytest.raises(CassetteError, match=r"cassette\.jsonl:1"):
        load_cassette(cassette)
    with pytest.raises(CassetteError, match="cannot open"):
        load_cassette(tmp_path / "missing.jsonl")


def test_recording_backend_unwritable_path_is_fatal(tmp_path):
    target = tmp_path / "dir-not-file"
    target.mkdir()
    with pytest.raises(CassetteError, match="cannot open"):
        RecordingBackend(ScriptedBackend([]), target)


def test_usage_meter_accumulates():
    meter = UsageMeter(ScriptedBackend([ChatResponse("a", 10, 2), ChatResponse("b", 20, 3)]))
    meter.complete(make_request("one"))
    meter.complete(make_request("two"))
    assert (meter.calls, meter.prompt_tokens, meter.completion_tokens) == (2, 30, 5)


# --- the HTTP backend, with a fake transport -------------------------------


class FakeTransport:
    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.requests = []

    def __call__(self, url, headers, body, timeout):
        self.requests.append((url, headers, body))
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def ok_payload(content="fine"):
    return (
        200,
        {},
        {
            "choices": [{"message": {"content": content}, "finish_reason": "stop"}],
            "usage": {"prompt_tokens": 12, "completion_tokens": 3},
        },
    )


def make_backend(transport, **kwargs):
    sleeps = []
    backend = HTTPBackend(
        "https://llm.example/v1",
        "key",
        transport=transport,
        sleep=sleeps.append,
        **kwargs,
    )
    return backend, sleeps


def test_http_backend_success_and_wire_format():
    transport = FakeTransport([ok_payload("hi there")])
    backend, _ = make_backend(transport)
    resp = backend.complete(make_request("ping", max_tokens=64, stop=("Observation:",)))
    assert resp == ChatResponse("hi there", 12, 3, "stop")
    url, headers, body = transport.requests[0]
    assert url.endswith("/chat/completions")
    assert headers["Authorization"] == "Bearer key"
    assert body["model"] == "default"
    assert body["max_tokens"] == 64
    assert body["stop"] == ["Observation:"]
    assert body["messages"][0] == {"role": "system", "content": "be brief"}


def test_http_backend_retries_429_then_succeeds():
    transport = FakeTransport([(429, {}, "slow down"), (429, {}, "slow down"), ok_payload()])
    backend, sleeps = make_backend(transport)
    assert backend.complete(make_request()).content == "fine"
    assert len(backend.last_attempts) == 3
    assert [a.status for a in backend.last_attempts] == [429, 429, 200]
    assert sleeps == [1.0, 2.0]  # exponential backoff, base 1s


def test_http_backend_honors_retry_after():
    transport = FakeTransport([(429, {"Retry-After": "7"}, ""), ok_payload()])
    backend, sleeps = make_backend(transport)
    backend.complete(make_request())
    assert sleeps == [7.0]


def test_http_backend_attempt_cap_and_backoff_ceiling():
    transport = FakeTransport([(429, {}, "")] * 9)
    backend, sleeps = make_backend(
        transport,
        retry=RetryPolicy(max_attempts=4, base_delay=10.0, max_delay=100.0, total_delay_ceiling=35.0),
    )
    with pytest.raises(RateLimited):
        backend.complete(make_request())
    assert len(transport.requests) == 4  # never exceeds the cap
    assert sum(sleeps) <= 35.0  # cumulative backoff respects the ceiling


def test_http_backend_attempt_log_is_per_thread():
    def transport(url, headers, body, timeout):
        if body["messages"][-1]["content"] == "throttled" and not throttled:
            throttled.append(True)
            return 429, {"Retry-After": "0"}, ""
        return ok_payload()

    throttled = []
    backend, _ = make_backend(transport)
    both_done = threading.Barrier(2, timeout=5)
    seen = {}

    def call(content):
        backend.complete(make_request(content))
        both_done.wait()  # the other thread's call has finished too
        seen[content] = [a.status for a in backend.last_attempts]

    threads = [threading.Thread(target=call, args=(c,)) for c in ("throttled", "plain")]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=5)
    assert not any(t.is_alive() for t in threads)
    assert seen == {"throttled": [429, 200], "plain": [200]}


def test_http_backend_auth_error_is_immediate():
    transport = FakeTransport([(401, {}, "no")])
    backend, sleeps = make_backend(transport)
    with pytest.raises(AuthError):
        backend.complete(make_request())
    assert len(transport.requests) == 1
    assert sleeps == []


def test_http_backend_retries_5xx_and_transport_errors():
    transport = FakeTransport([(503, {}, ""), TransportError("conn reset"), ok_payload()])
    backend, _ = make_backend(transport)
    assert backend.complete(make_request()).content == "fine"
    statuses = [a.status for a in backend.last_attempts]
    assert statuses == [503, None, 200]


def test_http_backend_rejects_unexpected_4xx_without_retry():
    transport = FakeTransport([(400, {}, {"error": "bad request"})])
    backend, _ = make_backend(transport)
    with pytest.raises(TransportError, match="400"):
        backend.complete(make_request())
    assert len(transport.requests) == 1


def test_http_backend_malformed_payload():
    transport = FakeTransport([(200, {}, {"surprise": True})])
    backend, _ = make_backend(transport)
    with pytest.raises(TransportError, match="malformed"):
        backend.complete(make_request())


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


def test_rate_limiter_rejects_nonpositive_budget():
    with pytest.raises(ValueError):
        RateLimiter(0)


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
