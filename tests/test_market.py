"""Market ingestion: pagination, windowing, the LLM judge, snapshots, resolution."""

import json
import logging
import sys
import threading
from datetime import date, datetime, timezone
from urllib.parse import unquote

import pytest

from agentcast.llm import AuthError, ChatResponse, RateLimiter, TransportError, UsageMeter, current_lane
from agentcast.market import (
    FILTER_PROMPT,
    FilterVerdict,
    FixtureMarketClient,
    LiveMarketClient,
    MarketError,
    backfill_resolutions,
    category_frequencies,
    classify_category,
    curate_markets,
    fetch_window,
    llm_filter,
    render_category_table,
)
from agentcast.models import Category, ValidationError, read_questions, write_questions

from conftest import make_question
from helpers import ScriptedBackend


def market(mid, close="2024-04-20T00:00:00Z", prob=0.5, resolved=False, resolution=None, **extra):
    close_ms = int(datetime.fromisoformat(close.replace("Z", "+00:00")).timestamp() * 1000)
    raw = {
        "id": mid,
        "question": f"Will {mid} happen?",
        "closeTime": close_ms,
        "probability": prob,
        "isResolved": resolved,
        "outcomeType": "BINARY",
    }
    if resolution is not None:
        raw["resolution"] = resolution
    raw.update(extra)
    return raw


def test_live_client_honors_retry_after_and_backs_off_without_it(loopback):
    loopback.serve(
        (429, {"Retry-After": "0.05"}, None),
        (503, {}, None),
        (429, {}, None),
        (200, {}, market("m1")),
    )
    sleeps = []
    client = LiveMarketClient(loopback.url, sleep=sleeps.append)
    assert client.get_market("m1")["id"] == "m1"
    assert sleeps == [0.05, 2.0, 4.0]  # the hint, then the usual 2**attempt backoff


def test_live_client_takes_a_limiter_token_for_every_request_and_retry(loopback):
    loopback.serve((429, {"Retry-After": "0"}, None), (200, {}, market("m1")), (200, {}, market("m2")))
    waits = []
    limiter = RateLimiter(1, clock=lambda: 0.0, sleep=waits.append)  # one token, then one a minute
    client = LiveMarketClient(loopback.url, sleep=lambda seconds: None, rate_limiter=limiter)
    assert [client.get_market(mid)["id"] for mid in ("m1", "m2")] == ["m1", "m2"]
    assert waits == pytest.approx([60.0, 120.0])  # the retry waits for a token, and so does m2


def test_live_client_sends_a_market_id_as_one_path_segment(loopback):
    # ids come from the user's dataset: "#" must not cut the URL, "?" must
    # not start a query and "/" must not walk to another path
    loopback.route = lambda method, target: (200, {}, {"id": unquote(target.removeprefix("/market/"))})
    client = LiveMarketClient(loopback.url)
    ids = ["a#b", "a?limit=1", "a/../markets", "Xy7zQ0"]
    assert [client.get_market(market_id)["id"] for market_id in ids] == ids
    assert [target for _, target, _, _ in loopback.requests] == [
        "/market/a%23b", "/market/a%3Flimit%3D1", "/market/a%2F..%2Fmarkets", "/market/Xy7zQ0"
    ]


AT = datetime(2024, 4, 15, 12, 0, 0, tzinfo=timezone.utc)


def test_fetch_window_pages_with_before_cursor():
    markets = [market(f"m{i:02d}") for i in range(25)]
    client = FixtureMarketClient(markets)
    questions = fetch_window(client, date(2024, 4, 16), date(2024, 5, 15), AT, page_size=10)
    assert len(questions) == 25
    assert len({q.id for q in questions}) == 25
    # cursor sequence: first page unanchored, then the last id of each page
    assert client.page_requests == [(None, 10), ("m09", 10), ("m19", 10)]


def test_fetch_window_filters_window_binary_and_malformed(caplog, tmp_path):
    markets = [
        market("in1", close="2024-04-16T00:00:00Z"),
        market("edge_lo", close="2024-04-15T23:59:59Z"),  # day before the window
        market("in2", close="2024-05-15T23:00:00Z"),  # inclusive upper edge
        market("out_hi", close="2024-05-16T00:00:01Z"),
        market("multi", outcomeType="MULTIPLE_CHOICE"),
        {"id": "broken", "outcomeType": "BINARY", "question": "q"},  # missing fields
        market("soon", closeTime="soon"),
        market("unresolved", resolved=True),
        market("high", prob=1.7),
        market("null", prob=None),
        market("text", prob="abc"),
        market("list", prob=[0.5]),
        market("bool", prob=True),
        market("numeric_text", prob="0.5"),
        market("nan", prob=float("nan")),
        # each of these was kept as "None" or "5", or ended the whole curate
        market("null_question", question=None),
        market("number_question", question=5),
        market("blank_question", question=" \t"),
        market("surrogate\ud800"),  # written as a JSON escape, which reads as U+FFFD
        market(" "),
    ]
    fixture = tmp_path / "markets.json"
    fixture.write_text(json.dumps(markets), encoding="utf-8")
    client = FixtureMarketClient.from_file(fixture)
    with caplog.at_level(logging.WARNING, logger="agentcast.market"):
        questions = fetch_window(client, date(2024, 4, 16), date(2024, 5, 15), AT)
    assert [q.id for q in questions] == ["in1", "in2"]
    warnings = [r.getMessage() for r in caplog.records]
    assert all(w.startswith("skipping malformed market: ") for w in warnings)
    assert warnings[0].startswith("skipping malformed market: market payload missing 'closeTime'")
    assert warnings[1:] == [
        "skipping malformed market: market soon: closeTime: malformed timestamp 'soon'",
        "skipping malformed market: market unresolved: resolved without a resolution",
        "skipping malformed market: market high: probability 1.7 is not a number in [0, 1]",
        "skipping malformed market: market null: probability None is not a number in [0, 1]",
        "skipping malformed market: market text: probability 'abc' is not a number in [0, 1]",
        "skipping malformed market: market list: probability [0.5] is not a number in [0, 1]",
        "skipping malformed market: market bool: probability True is not a number in [0, 1]",
        "skipping malformed market: market numeric_text: probability '0.5' is not a number in [0, 1]",
        "skipping malformed market: market nan: probability nan is not a number in [0, 1]",
        "skipping malformed market: market null_question: question None is not a non-blank string",
        "skipping malformed market: market number_question: question 5 is not a non-blank string",
        "skipping malformed market: market blank_question: question ' \\t' is not a non-blank string",
        "skipping malformed market: market id 'surrogate\ufffd' is blank, or holds U+FFFD or a lone surrogate",
        "skipping malformed market: market id ' ' is blank, or holds U+FFFD or a lone surrogate",
    ]


@pytest.mark.parametrize(
    "page, page_size, error",
    [
        (["junk", market("m1")], 10, None),
        ([market("m1"), "junk"], 2, "last entry has no id: 'junk'"),
        ([market("m1"), {"outcomeType": "BINARY"}], 2, "last entry has no id"),
    ],
    ids=["not-an-object", "last-not-an-object", "last-without-id"],
)
def test_fetch_window_skips_a_non_object_and_fails_on_a_page_it_cannot_page_past(
    loopback, caplog, page, page_size, error
):
    # these were an AttributeError and a KeyError that escaped the CLI as tracebacks
    loopback.serve((200, {}, page))
    client = LiveMarketClient(loopback.url)
    if error is None:
        assert [q.id for q in fetch_window(client, date(2024, 4, 16), date(2024, 5, 15), AT, page_size)] == ["m1"]
        assert "skipping malformed market: not an object: 'junk'" in caplog.text
    else:
        with pytest.raises(MarketError, match=error):
            fetch_window(client, date(2024, 4, 16), date(2024, 5, 15), AT, page_size)


def test_fetch_window_rejects_inverted_window():
    with pytest.raises(ValueError, match="empty window"):
        fetch_window(FixtureMarketClient([]), date(2024, 5, 1), date(2024, 4, 1), AT)


def test_fixture_client_from_file(tmp_path):
    path = tmp_path / "markets.json"
    path.write_text(json.dumps({"markets": [market("m1")]}), encoding="utf-8")
    client = FixtureMarketClient.from_file(path)
    assert client.get_market("m1")["id"] == "m1"


def test_llm_filter_keep_drop_and_normalization():
    backend = ScriptedBackend(["Yes", "No.", "  yes, clearly suitable", "NO"])
    assert llm_filter(backend, "Will X happen?").keep
    assert not llm_filter(backend, "q2").keep
    assert llm_filter(backend, "q3").keep
    assert not llm_filter(backend, "q4").keep
    prompt = backend.requests[0].messages[0].content
    assert prompt == FILTER_PROMPT.format(question="Will X happen?")


def test_llm_filter_retries_unparsable_reply_once():
    backend = ScriptedBackend(["It depends on the framing.", "No"])
    verdict = llm_filter(backend, "q")
    assert not verdict.keep
    assert verdict.judge_reply == "No"
    assert len(backend.requests) == 2

    # still unparsable after the retry -> drop
    backend = ScriptedBackend(["Hmm.", "Maybe?"])
    verdict = llm_filter(backend, "q")
    assert not verdict.keep
    assert verdict.judge_reply == "Maybe?"


def test_llm_filter_backend_errors():
    verdict = llm_filter(ScriptedBackend([TransportError("down")]), "q")
    assert not verdict.keep
    assert verdict.judge_reply.startswith("[backend error")
    with pytest.raises(AuthError):
        llm_filter(ScriptedBackend([AuthError("bad key")]), "q")


def test_classify_category_exact_label_or_unknown():
    backend = ScriptedBackend(
        ["Economics & Business", "economics and business", "Stuff & Things", TransportError("down")]
    )
    assert classify_category(backend, "q") is Category.ECONOMICS_BUSINESS
    assert classify_category(backend, "q") is Category.ECONOMICS_BUSINESS
    assert classify_category(backend, "q") is Category.UNKNOWN
    assert classify_category(backend, "q") is Category.UNKNOWN
    prompt = backend.requests[0].messages[0].content
    assert "Sports" in prompt and "Reply with the category name only" in prompt


def test_category_frequency_table():
    questions = [
        make_question(qid="a", category=Category.SPORTS.value),
        make_question(qid="b", category=Category.SPORTS.value),
        make_question(qid="c", category=Category.SCIENCE_TECH.value),
    ]
    freqs = category_frequencies(questions)
    assert freqs == [(Category.SPORTS, 2), (Category.SCIENCE_TECH, 1)]
    table = render_category_table(freqs)
    assert table.splitlines()[0].split() == ["Category", "Count"]
    assert "Sports" in table and "Science & Tech" in table


def test_snapshot_writes_questions_with_crowd_price(tmp_path):
    client = FixtureMarketClient([market("m1", prob=0.62), market("m2", prob=0.3), market("m3", prob=1)])
    out = tmp_path / "dataset.jsonl"
    questions = fetch_window(client, date(2024, 4, 16), date(2024, 5, 15), AT)
    write_questions(out, questions)
    assert read_questions(out) == questions
    assert [q.id for q in questions] == ["m1", "m2", "m3"]
    assert [q.crowd_prob for q in questions] == [0.62, 0.3, 1.0] and type(questions[2].crowd_prob) is float
    assert all(q.title == f"Will {q.id} happen?" for q in questions)
    assert all(q.close_time == datetime(2024, 4, 20, tzinfo=timezone.utc) for q in questions)
    assert all(q.category is Category.UNKNOWN for q in questions)  # until curation classifies them
    assert all(q.fetched_at == AT for q in questions)
    assert all(q.outcome is None and q.source == "market" for q in questions)


def test_snapshot_taken_after_a_market_closed_raises_and_writes_nothing(tmp_path):
    # the listing is read to its end before any question is checked
    client = FixtureMarketClient([market("m1"), market("m2", close="2024-04-10T00:00:00Z"), market("m3")])
    out = tmp_path / "dataset.jsonl"
    at = datetime(2024, 4, 15, tzinfo=timezone.utc)
    with pytest.raises(ValidationError) as raised:
        write_questions(out, fetch_window(client, date(2024, 4, 1), date(2024, 5, 15), at, page_size=2))
    assert str(raised.value) == "fetched_at: fetched_at 2024-04-15T00:00:00Z is after close_time 2024-04-10T00:00:00Z"
    assert client.page_requests == [(None, 2), ("m2", 2)]
    assert not out.exists()


def test_backfill_resolutions(tmp_path):
    dataset = tmp_path / "dataset.jsonl"
    write_questions(
        dataset,
        [
            make_question(qid="yes1"),
            make_question(qid="no1"),
            make_question(qid="open1"),
            make_question(qid="mkt1"),
            make_question(qid="done1", outcome=1),
        ],
    )
    client = FixtureMarketClient(
        [
            market("yes1", resolved=True, resolution="YES"),
            market("no1", resolved=True, resolution="NO"),
            market("open1"),
            market("mkt1", resolved=True, resolution="MKT"),
            market("done1", resolved=True, resolution="NO"),  # must not be refetched
        ]
    )
    summary = backfill_resolutions(client, dataset)
    assert (summary.resolved, summary.pending, summary.excluded) == (3, 1, 1)
    by_id = {q.id: q for q in read_questions(dataset)}
    assert by_id["yes1"].outcome == 1
    assert by_id["no1"].outcome == 0
    assert by_id["open1"].outcome is None
    assert by_id["mkt1"].excluded and by_id["mkt1"].outcome is None
    assert by_id["done1"].outcome == 1  # untouched

    # a second run only refetches the pending market
    client.page_requests.clear()
    before = {qid for qid, q in by_id.items() if q.outcome is not None or q.excluded}
    summary2 = backfill_resolutions(client, dataset)
    assert summary2.pending == 1
    after = {q.id: q for q in read_questions(dataset)}
    for qid in before:
        assert after[qid] == by_id[qid]


def test_backfill_counts_a_failing_market_as_pending_and_keeps_the_rest(tmp_path, caplog):
    class FlakyClient(FixtureMarketClient):
        def get_market(self, market_id):
            if market_id == "broken1":
                raise MarketError("market API failed after 4 attempts: status 503")
            return super().get_market(market_id)

    dataset = tmp_path / "dataset.jsonl"
    write_questions(dataset, [make_question(qid="yes1"), make_question(qid="broken1"), make_question(qid="no1")])
    client = FlakyClient(
        [
            market("yes1", resolved=True, resolution="YES"),
            market("broken1", resolved=True, resolution="YES"),
            market("no1", resolved=True, resolution="NO"),
        ]
    )
    with caplog.at_level(logging.WARNING, logger="agentcast.market"):
        summary = backfill_resolutions(client, dataset)
    assert (summary.resolved, summary.pending, summary.excluded) == (2, 1, 0)
    assert "broken1" in caplog.text
    by_id = {q.id: q for q in read_questions(dataset)}
    assert by_id["yes1"].outcome == 1  # resolved before the failing market
    assert by_id["broken1"].outcome is None and not by_id["broken1"].excluded
    assert by_id["no1"].outcome == 0  # resolved after it
    assert [p.name for p in tmp_path.iterdir()] == ["dataset.jsonl"]


def test_backfill_keeps_a_market_whose_body_is_not_json_pending(tmp_path, loopback):
    def route(method, target):
        market_id = target.rsplit("/", 1)[-1]
        if market_id == "html1":
            return 200, {}, "<html>maintenance</html>"
        return 200, {}, market(market_id, resolved=True, resolution="YES")

    loopback.route = route
    dataset = tmp_path / "dataset.jsonl"
    write_questions(dataset, [make_question(qid=qid) for qid in ("yes1", "html1", "yes2")])
    with pytest.raises(MarketError, match="expected a market object, got str"):
        LiveMarketClient(loopback.url).get_market("html1")
    summary = backfill_resolutions(LiveMarketClient(loopback.url), dataset)
    assert (summary.resolved, summary.pending, summary.excluded) == (2, 1, 0)
    assert [q.outcome for q in read_questions(dataset)] == [1, None, 1]


def test_concurrent_backfill_keeps_a_failing_market_pending_and_resolves_the_rest(tmp_path, caplog):
    class BarrierClient(FixtureMarketClient):
        # serves nothing until all three fetches are in flight at once
        barrier = threading.Barrier(3, timeout=5)

        def get_market(self, market_id):
            self.barrier.wait()
            if market_id == "broken1":
                raise MarketError("market API failed after 5 attempts: status 503")
            return super().get_market(market_id)

    dataset = tmp_path / "dataset.jsonl"
    ids = ["yes1", "broken1", "no1", "done1"]
    write_questions(dataset, [make_question(qid=qid, outcome=1 if qid == "done1" else None) for qid in ids])
    client = BarrierClient(
        [
            market("yes1", resolved=True, resolution="YES"),
            market("broken1", resolved=True, resolution="YES"),
            market("no1", resolved=True, resolution="NO"),
        ]
    )
    with caplog.at_level(logging.WARNING, logger="agentcast.market"):
        summary = backfill_resolutions(client, dataset, workers=3)
    assert (summary.resolved, summary.pending, summary.excluded) == (3, 1, 0)
    assert "broken1" in caplog.text
    questions = read_questions(dataset)
    assert [q.id for q in questions] == ids  # dataset order, whatever order the fetches finished in
    assert [q.outcome for q in questions] == [1, None, 0, 1]
    assert not any(q.excluded for q in questions)


class LaneEchoBackend:
    """Keeps a market whose lane number is even and files it under a label
    picked by that number; checks that every request carries its market's lane."""

    def complete(self, request):
        market_id, member_index = current_lane()
        assert member_index == 0 and f"Will {market_id} happen?" in request.messages[-1].content
        n = int(market_id[1:])
        if "Categories:" in request.messages[-1].content:
            return ChatResponse(Category.labels()[n % len(Category.labels())])
        return ChatResponse("Yes" if n % 2 == 0 else "No")


def test_curate_markets_under_thread_switch_stress_loses_no_call():
    questions = fetch_window(
        FixtureMarketClient([market(f"m{i:03d}") for i in range(120)]), date(2024, 4, 16), date(2024, 5, 15), AT
    )
    backend = UsageMeter(LaneEchoBackend())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        curated = curate_markets(backend, questions, workers=16)
    finally:
        sys.setswitchinterval(interval)
    labels = Category.labels()
    assert curated == [
        (FilterVerdict("keep", "Yes"), Category.from_label(labels[i % len(labels)])) if i % 2 == 0
        else (FilterVerdict("drop", "No"), None)
        for i in range(120)
    ]
    assert backend.calls == 120 + 60  # every judge, plus a classifier per kept market
