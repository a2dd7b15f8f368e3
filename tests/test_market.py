"""Market ingestion: pagination, windowing, the LLM judge, snapshots, resolution."""

import json
import logging
import sys
import threading
from datetime import date, datetime, timezone

import pytest

from agentcast.llm import AuthError, ChatResponse, ScriptedBackend, TransportError, UsageMeter, current_lane
from agentcast.market import (
    FILTER_PROMPT,
    FilterVerdict,
    FixtureMarketClient,
    LiveMarketClient,
    MarketError,
    MarketRecord,
    MarketSchemaError,
    backfill_resolutions,
    category_frequencies,
    classify_category,
    curate_markets,
    fetch_window,
    llm_filter,
    render_category_table,
    snapshot,
)
from agentcast.models import Category, ValidationError, read_questions, write_questions

from conftest import make_question


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


def test_market_record_from_api():
    record = MarketRecord.from_api(market("m1", prob=0.62))
    assert record.market_id == "m1"
    assert record.probability == 0.62
    assert record.close_time == datetime(2024, 4, 20, tzinfo=timezone.utc)
    assert not record.is_resolved
    with pytest.raises(MarketSchemaError, match="probability"):
        MarketRecord.from_api(market("m2", prob=1.7))
    with pytest.raises(MarketSchemaError, match="missing"):
        MarketRecord.from_api({"id": "m3", "question": "q"})
    with pytest.raises(MarketSchemaError, match="closeTime"):
        MarketRecord.from_api({**market("m4"), "closeTime": "soon"})


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


def test_fetch_window_pages_with_before_cursor():
    markets = [market(f"m{i:02d}") for i in range(25)]
    client = FixtureMarketClient(markets)
    records = fetch_window(client, date(2024, 4, 16), date(2024, 5, 15), page_size=10)
    assert len(records) == 25
    assert len({r.market_id for r in records}) == 25
    # cursor sequence: first page unanchored, then the last id of each page
    assert client.page_requests == [(None, 10), ("m09", 10), ("m19", 10)]


def test_fetch_window_filters_window_binary_and_malformed():
    markets = [
        market("in1", close="2024-04-16T00:00:00Z"),
        market("edge_lo", close="2024-04-15T23:59:59Z"),  # day before the window
        market("in2", close="2024-05-15T23:00:00Z"),  # inclusive upper edge
        market("out_hi", close="2024-05-16T00:00:01Z"),
        market("multi", outcomeType="MULTIPLE_CHOICE"),
        {"id": "broken", "outcomeType": "BINARY", "question": "q"},  # missing fields
    ]
    client = FixtureMarketClient(markets)
    records = fetch_window(client, date(2024, 4, 16), date(2024, 5, 15))
    assert [r.market_id for r in records] == ["in1", "in2"]


def test_fetch_window_rejects_inverted_window():
    with pytest.raises(ValueError, match="empty window"):
        fetch_window(FixtureMarketClient([]), date(2024, 5, 1), date(2024, 4, 1))


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
    records = [
        MarketRecord.from_api(market("m1", prob=0.62)),
        MarketRecord.from_api(market("m2", prob=0.3)),
    ]
    at = datetime(2024, 4, 15, 12, 0, 0, tzinfo=timezone.utc)
    out = tmp_path / "dataset.jsonl"
    questions = snapshot(records, at, out, categories={"m1": Category.SPORTS})
    assert [q.id for q in read_questions(out)] == ["m1", "m2"]
    assert questions[0].crowd_prob == 0.62
    assert questions[0].category is Category.SPORTS
    assert questions[1].category is Category.UNKNOWN
    assert all(q.fetched_at == at for q in questions)
    assert all(q.outcome is None and q.source == "market" for q in questions)


def test_snapshot_taken_after_a_market_closed_raises_and_writes_nothing(tmp_path):
    records = [MarketRecord.from_api(market("m1")), MarketRecord.from_api(market("m2", close="2024-04-10T00:00:00Z"))]
    out = tmp_path / "dataset.jsonl"
    with pytest.raises(ValidationError) as raised:
        snapshot(records, datetime(2024, 4, 15, tzinfo=timezone.utc), out)
    assert str(raised.value) == "fetched_at: fetched_at 2024-04-15T00:00:00Z is after close_time 2024-04-10T00:00:00Z"
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
    records = [MarketRecord.from_api(market(f"m{i:03d}")) for i in range(120)]
    backend = UsageMeter(LaneEchoBackend())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        curated = curate_markets(backend, records, workers=16)
    finally:
        sys.setswitchinterval(interval)
    labels = Category.labels()
    assert curated == [
        (FilterVerdict("keep", "Yes"), Category.from_label(labels[i % len(labels)])) if i % 2 == 0
        else (FilterVerdict("drop", "No"), None)
        for i in range(120)
    ]
    assert backend.calls == 120 + 60  # every judge, plus a classifier per kept market
