"""CLI wiring: config precedence, the forecast/curate/resolve/score/probe
commands run end to end over fixtures, resume semantics, and exit codes."""

import gc
import json
import subprocess
import sys
import threading
import time
import warnings
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

import pytest

from agentcast import cli
from agentcast.cli import (
    EXIT_EMPTY,
    EXIT_FATAL,
    EXIT_OK,
    ConfigError,
    RunConfig,
    load_config,
    make_member_runner,
    resolve_config,
    run_forecast,
)
from agentcast.llm import (
    AuthError,
    CassetteMiss,
    ChatRequest,
    ChatResponse,
    Message,
    RecordingBackend,
    ReplayBackend,
    ScriptedBackend,
    UsageMeter,
    current_lane,
    in_lane,
    leakage_probe,
)
from agentcast.market import FixtureMarketClient, classify_category, llm_filter
from agentcast.metrics import parse_table
from agentcast.models import Category, Declined, read_jsonl, read_questions, read_records, write_questions
from agentcast.react import context_estimate
from agentcast.tools import FixtureSearchProvider

from conftest import FIXTURES, make_question

E2E = FIXTURES / "e2e"


# --- configuration -------------------------------------------------------------


def test_load_config_file_values_beat_defaults(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"ensemble_size": 5, "cutoff": "2024-04-15", "workers": 2}))
    cfg = load_config(path)
    assert cfg.ensemble_size == 5
    assert cfg.cutoff == "2024-04-15"
    assert cfg.workers == 2
    assert cfg.aggregator == "median"  # untouched default


def test_load_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"ensembel_size": 5, "zzz": 1}))
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "ensembel_size" in str(err.value) and "zzz" in str(err.value)


def test_load_config_rejects_malformed_json(tmp_path):
    path = tmp_path / "run.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(path)


def test_flags_override_config_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"ensemble_size": 5, "aggregator": "mean", "seed": 11}))
    ns = cli.build_parser().parse_args(
        ["forecast", "--dataset", "d", "--out", "o", "--config", str(path), "--ensemble", "7", "--seed", "3"]
    )
    cfg = resolve_config(ns)
    assert cfg.ensemble_size == 7  # flag wins
    assert cfg.seed == 3
    assert cfg.aggregator == "mean"  # file value survives where no flag given


def test_resolve_config_rejects_nonpositive_sizes():
    ns = cli.build_parser().parse_args(["forecast", "--dataset", "d", "--out", "o", "--ensemble", "0"])
    with pytest.raises(ConfigError, match="ensemble size"):
        resolve_config(ns)


def test_cutoff_date_validation():
    with pytest.raises(ConfigError, match="no cutoff"):
        RunConfig().cutoff_date()
    with pytest.raises(ConfigError, match="malformed cutoff"):
        RunConfig(cutoff="04/15/2024").cutoff_date()
    tomorrow = (date.today() + timedelta(days=1)).isoformat()
    with pytest.raises(ConfigError, match="future"):
        RunConfig(cutoff=tomorrow).cutoff_date()
    assert RunConfig(cutoff="2024-04-15").cutoff_date() == date(2024, 4, 15)


# --- forecast ------------------------------------------------------------------


def replay_forecast(out_dir, *extra, dataset=E2E / "questions.jsonl", cassette=E2E / "cassette.jsonl"):
    return cli.main(
        [
            "forecast",
            "--dataset",
            str(dataset),
            "--out",
            str(out_dir),
            "--search-fixture",
            str(E2E / "search.jsonl"),
            "--cassette",
            str(cassette),
            "--cutoff",
            "2024-04-15",
            *extra,
        ]
    )


def test_forecast_replay_end_to_end(tmp_path):
    out = tmp_path / "run"
    assert replay_forecast(out) == EXIT_OK

    records = {r.question_id: r for r in read_records(out / "forecasts.jsonl")}
    assert len(records) == 5
    assert records["q_eth"].aggregate.value == 0.35
    assert records["q_un"].declined and records["q_un"].aggregate is None
    assert records["q_btc"].aggregate.value == 0.4
    assert all(len(r.members) == 3 for r in records.values())

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["questions"]["q_un"] == "declined"
    assert sum(1 for s in manifest["questions"].values() if s == "forecasted") == 4
    assert manifest["token_usage"]["calls"] == 29

    # every member forecast points at a planner transcript on disk
    for record in records.values():
        for member in record.members:
            assert (out / "transcripts" / member.transcript_ref).exists()


def test_forecast_replay_is_deterministic(tmp_path):
    assert replay_forecast(tmp_path / "a") == EXIT_OK
    assert replay_forecast(tmp_path / "b") == EXIT_OK
    first = (tmp_path / "a" / "forecasts.jsonl").read_bytes()
    second = (tmp_path / "b" / "forecasts.jsonl").read_bytes()
    assert first == second


def run_outputs(out_dir: Path) -> dict[str, bytes]:
    """forecasts.jsonl plus every transcript file, by path under out_dir."""
    files = [out_dir / "forecasts.jsonl", *sorted((out_dir / "transcripts").rglob("*"))]
    return {str(f.relative_to(out_dir)): f.read_bytes() for f in files if f.is_file()}


def test_forecast_replay_matches_across_workers(tmp_path):
    # replay matches entries per lane, so members and questions in flight
    # together still get their own recorded replies
    assert replay_forecast(tmp_path / "a") == EXIT_OK
    assert replay_forecast(tmp_path / "b", "--workers", "4") == EXIT_OK
    assert run_outputs(tmp_path / "a") == run_outputs(tmp_path / "b")


class BarrierBackend:
    """Answers only once `parties` requests are waiting at the same time."""

    def __init__(self, parties: int, reply: str = "Thought: enough.\nFinal Answer: 0.4"):
        self.barrier = threading.Barrier(parties, timeout=5)
        self.reply = reply

    def complete(self, request):
        self.barrier.wait()
        return ChatResponse(self.reply)


def test_forecast_runs_a_questions_members_concurrently(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "build_backend", lambda ns, cfg: UsageMeter(BarrierBackend(3)))
    dataset = tmp_path / "one.jsonl"
    write_questions(dataset, [make_question()])
    out = tmp_path / "run"
    assert replay_forecast(out, "--workers", "1", dataset=dataset) == EXIT_OK
    (record,) = read_records(out / "forecasts.jsonl")
    assert record.aggregate.value == 0.4 and len(record.members) == 3


class ArrivalOrderBackend:
    """Live stand-in whose replies depend on how many requests arrived
    before: planners delegate or answer by arrival parity, and every answer
    carries the arrival count. Later members' requests arrive first, the
    reverse of the order replay sends them in."""

    def __init__(self):
        self.lock = threading.Lock()
        self.arrivals = 0

    def complete(self, request):
        _, member_index = current_lane()
        time.sleep(0.01 * (2 - member_index))
        with self.lock:
            n = self.arrivals
            self.arrivals += 1
        worker = "<one of: web_search>" in request.messages[0].content
        first_turn = len(request.messages) == 2
        if worker:
            reply = f"Action: web_search\nAction Input: query {n}" if first_turn else f"Final Answer: found {n}"
        elif first_turn and n % 2 == 0:
            reply = f"Action: web_research\nAction Input: topic {n}"
        else:
            reply = f"Final Answer: {(n + 10) / 100}"
        return ChatResponse(reply)


def test_concurrent_recording_replays_byte_identically_at_any_workers(tmp_path, monkeypatch):
    monkeypatch.setenv("LLM_API_KEY", "key")
    monkeypatch.setenv("LLM_BASE_URL", "http://llm.invalid/v1")
    monkeypatch.setattr(cli, "HTTPBackend", lambda *args, **kwargs: ArrivalOrderBackend())
    dataset = tmp_path / "two.jsonl"
    write_questions(dataset, [make_question(qid="qa"), make_question(qid="qb", title="Will the gadget ship?")])
    cassette = tmp_path / "cassette.jsonl"

    def forecast(out, *extra):
        return replay_forecast(out, *extra, dataset=dataset, cassette=cassette)

    assert forecast(tmp_path / "recorded", "--record", "--workers", "2") == EXIT_OK
    recorded = run_outputs(tmp_path / "recorded")
    assert any("web_research" in name for name in recorded)
    for workers in ("1", "4"):
        assert forecast(tmp_path / f"replay{workers}", "--workers", workers) == EXIT_OK
        assert run_outputs(tmp_path / f"replay{workers}") == recorded


def test_forecast_single_agent_end_to_end(tmp_path, monkeypatch):
    # the flat ablation agent holds the raw tools itself, so each member
    # leaves one transcript and no worker runs; past its context budget it
    # declines instead of compacting
    def forecast(out, dataset, script, *extra):
        backend = ScriptedBackend(script)
        monkeypatch.setattr(cli, "build_backend", lambda ns, cfg: UsageMeter(backend))
        rc = cli.main(
            [
                "forecast",
                "--dataset",
                str(dataset),
                "--out",
                str(out),
                "--search-fixture",
                str(E2E / "search.jsonl"),
                "--cutoff",
                "2024-04-15",
                "--ensemble",
                "1",
                "--single-agent",
                *extra,
            ]
        )
        assert rc == EXIT_OK
        return backend

    search_then_answer = [
        "Thought: look it up\nAction: web_search\nAction Input: historical price data of Ethereum",
        "Thought: enough\nFinal Answer: 0.3",
    ]
    dataset = read_questions(E2E / "questions.jsonl")
    out = tmp_path / "flat"
    backend = forecast(out, E2E / "questions.jsonl", search_then_answer * len(dataset))
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["single_agent"] is True
    assert [r.aggregate.value for r in read_records(out / "forecasts.jsonl")] == [0.3] * len(dataset)
    for question in dataset:
        qdir = out / "transcripts" / question.id
        index = [raw for _, raw in read_jsonl(qdir / "index.jsonl")]
        assert [(e["file"], e["agent_id"], e["parent"]) for e in index] == [("0.planner.transcript", "single", None)]
        assert sorted(p.name for p in qdir.iterdir()) == ["0.planner.transcript", "index.jsonl"]
        # the search fixture's raw output reached the agent directly
        assert "2900-3300 band" in (qdir / "0.planner.transcript").read_text()

    # a budget that fits the first request but not the search observation
    limit = context_estimate(backend.requests[0].messages) + 10
    config = tmp_path / "budget.json"
    config.write_text(json.dumps({"context_token_limit": limit}))
    one = tmp_path / "one.jsonl"
    write_questions(one, dataset[:1])
    out = tmp_path / "budget"
    backend = forecast(out, one, search_then_answer, "--config", str(config))
    (record,) = read_records(out / "forecasts.jsonl")
    assert record.declined and record.members[0].forecast == Declined("budget")
    assert len(backend.requests) == 1  # no compacted second request was sent
    assert json.loads((out / "manifest.json").read_text())["questions"] == {dataset[0].id: "declined"}


def test_cassette_miss_starts_no_queued_member(tmp_path):
    started = []

    def run_member(question):
        started.append(question.id)
        raise CassetteMiss("f" * 64, ChatRequest("default", (Message("user", "x"),)))

    dataset = [make_question(qid="qa"), make_question(qid="qb")]
    with pytest.raises(CassetteMiss):
        run_forecast(dataset, run_member, tmp_path / "run", ensemble_size=3, aggregator_mode="median", seed=0)
    assert started == ["qa"]


def counting_runner(counter):
    cfg = RunConfig(cutoff="2024-04-15")
    backend = UsageMeter(ReplayBackend.from_file(E2E / "cassette.jsonl"))
    provider = FixtureSearchProvider.from_file(E2E / "search.jsonl")
    inner = make_member_runner(cfg, backend, provider)

    def run(question):
        counter[question.id] = counter.get(question.id, 0) + 1
        return inner(question)

    return run


def test_run_forecast_resumes_only_missing_questions(tmp_path):
    dataset = read_questions(E2E / "questions.jsonl")
    out = tmp_path / "run"

    first_calls = {}
    run_forecast(
        dataset, counting_runner(first_calls), out, ensemble_size=3, aggregator_mode="median", seed=0
    )
    assert first_calls == {q.id: 3 for q in dataset}
    original = (out / "forecasts.jsonl").read_bytes()

    # drop two records and plant a stale one that is not in the dataset
    kept = [r for r in read_records(out / "forecasts.jsonl") if r.question_id not in ("q_fed", "q_btc")]
    with open(out / "forecasts.jsonl", "w", encoding="utf-8") as fh:
        for r in kept:
            fh.write(json.dumps(r.to_dict(), ensure_ascii=False) + "\n")
        ghost = dict(kept[0].to_dict(), question_id="ghost")
        fh.write(json.dumps(ghost, ensure_ascii=False) + "\n")

    second_calls = {}
    statuses = run_forecast(
        dataset, counting_runner(second_calls), out, ensemble_size=3, aggregator_mode="median", seed=0
    )
    assert second_calls == {"q_fed": 3, "q_btc": 3}  # others resumed from disk
    assert statuses["q_eth"] == "forecasted" and statuses["q_un"] == "declined"
    assert (out / "forecasts.jsonl").read_bytes() == original  # dataset order, ghost gone


def test_forecast_empty_dataset_exits_2(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    rc = cli.main(
        ["forecast", "--dataset", str(empty), "--out", str(tmp_path / "o"), "--cutoff", "2024-04-15"]
    )
    assert rc == EXIT_EMPTY


def test_forecast_without_cassette_needs_api_env(tmp_path, monkeypatch):
    monkeypatch.delenv("LLM_API_KEY", raising=False)
    rc = cli.main(
        [
            "forecast",
            "--dataset",
            str(E2E / "questions.jsonl"),
            "--out",
            str(tmp_path / "o"),
            "--search-fixture",
            str(E2E / "search.jsonl"),
            "--cutoff",
            "2024-04-15",
        ]
    )
    assert rc == EXIT_FATAL


def test_forecast_future_cutoff_is_fatal(tmp_path):
    tomorrow = (date.today() + timedelta(days=1)).isoformat()
    rc = replay_forecast(tmp_path / "o", "--cutoff", tomorrow)
    assert rc == EXIT_FATAL


def test_forecast_nan_temperature_is_fatal_before_any_request(tmp_path, loopback, monkeypatch, capsys):
    monkeypatch.setenv("LLM_API_KEY", "key")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"temperature": float("nan"), "llm_base_url": loopback.url}))
    rc = cli.main(
        [
            "forecast",
            "--dataset",
            str(E2E / "questions.jsonl"),
            "--out",
            str(tmp_path / "o"),
            "--search-fixture",
            str(E2E / "search.jsonl"),
            "--cutoff",
            "2024-04-15",
            "--config",
            str(config),
        ]
    )
    assert rc == EXIT_FATAL
    assert "temperature must be finite" in capsys.readouterr().err
    assert loopback.requests == []


def test_missing_dataset_is_fatal(tmp_path):
    rc = cli.main(
        ["forecast", "--dataset", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "o"), "--cutoff", "2024-04-15"]
    )
    assert rc == EXIT_FATAL


# --- curate / resolve ------------------------------------------------------------


def ms(iso: str) -> int:
    moment = datetime.fromisoformat(iso).replace(tzinfo=timezone.utc)
    return int(moment.timestamp() * 1000)


def write_market_fixture(path: Path) -> None:
    markets = [
        {
            "id": "mkt_rates",
            "question": "Will the central bank cut rates before July?",
            "closeTime": ms("2024-05-10T12:00:00"),
            "probability": 0.22,
            "isResolved": False,
            "resolution": None,
            "outcomeType": "BINARY",
        },
        {
            "id": "mkt_personal",
            "question": "Will I finish my thesis this month?",
            "closeTime": ms("2024-05-20T12:00:00"),
            "probability": 0.5,
            "isResolved": False,
            "resolution": None,
            "outcomeType": "BINARY",
        },
        {
            "id": "mkt_multi",
            "question": "Which team wins the cup?",
            "closeTime": ms("2024-05-15T12:00:00"),
            "probability": 0.3,
            "isResolved": False,
            "resolution": None,
            "outcomeType": "MULTIPLE_CHOICE",
        },
        {
            "id": "mkt_late",
            "question": "Will the election be contested?",
            "closeTime": ms("2024-07-01T12:00:00"),
            "probability": 0.4,
            "isResolved": False,
            "resolution": None,
            "outcomeType": "BINARY",
        },
    ]
    path.write_text(json.dumps({"markets": markets}, indent=2))


def record_curate_cassette(path: Path) -> None:
    # same calls cmd_curate makes, each in its market's lane, so fingerprints
    # and lanes line up
    backend = RecordingBackend(ScriptedBackend(["Yes", "Economics & Business", "No"]), path)
    with in_lane("mkt_rates", 0):
        assert llm_filter(backend, "Will the central bank cut rates before July?").keep
        classify_category(backend, "Will the central bank cut rates before July?")
    with in_lane("mkt_personal", 0):
        assert not llm_filter(backend, "Will I finish my thesis this month?").keep
    backend.close()


def test_curate_filters_and_snapshots(tmp_path, capsys):
    market_fixture = tmp_path / "markets.jsonl"
    write_market_fixture(market_fixture)
    cassette = tmp_path / "curate_cassette.jsonl"
    record_curate_cassette(cassette)
    out = tmp_path / "dataset.jsonl"

    rc = cli.main(
        [
            "curate",
            "--from",
            "2024-05-01",
            "--to",
            "2024-05-31",
            "--out",
            str(out),
            "--at",
            "2024-04-15T00:00:00Z",
            "--market-fixture",
            str(market_fixture),
            "--cassette",
            str(cassette),
        ]
    )
    assert rc == EXIT_OK

    questions = read_questions(out)
    assert [q.id for q in questions] == ["mkt_rates"]
    q = questions[0]
    assert q.crowd_prob == 0.22
    assert q.category.value == "Economics & Business"
    assert q.fetched_at == datetime(2024, 4, 15, tzinfo=timezone.utc)
    assert q.close_time == datetime(2024, 5, 10, 12, tzinfo=timezone.utc)

    audit = [json.loads(line) for line in (tmp_path / "dataset.audit.jsonl").read_text().splitlines()]
    assert [(a["market_id"], a["verdict"]) for a in audit] == [
        ("mkt_rates", "keep"),
        ("mkt_personal", "drop"),
    ]
    stdout = capsys.readouterr().out
    assert "fetched 2 binary markets, kept 1, dropped 1" in stdout
    assert "Economics & Business" in stdout


def test_curate_empty_window_exits_2(tmp_path):
    market_fixture = tmp_path / "markets.jsonl"
    write_market_fixture(market_fixture)
    out = tmp_path / "dataset.jsonl"
    rc = cli.main(
        [
            "curate",
            "--from",
            "2023-01-01",
            "--to",
            "2023-01-31",
            "--out",
            str(out),
            "--market-fixture",
            str(market_fixture),
        ]
    )
    assert rc == EXIT_EMPTY
    assert out.exists() and out.read_text() == ""


def many_markets(n: int) -> list[dict]:
    """n binary markets closing in May 2024, cycling through resolved YES,
    resolved NO, cancelled and still open."""
    fates = [("YES", True), ("NO", True), ("CANCEL", True), (None, False)]
    return [
        {
            "id": f"mkt{i}",
            "question": f"Will event number {i} happen before June?",
            "closeTime": ms(f"2024-05-{10 + i:02d}T12:00:00"),
            "probability": round(0.05 + i / 20, 2),
            "isResolved": fates[i % 4][1],
            "resolution": fates[i % 4][0],
            "outcomeType": "BINARY",
        }
        for i in range(n)
    ]


def curate_args(market_fixture: Path, out: Path, *extra: str) -> list[str]:
    return ["curate", "--from", "2024-05-01", "--to", "2024-05-31", "--out", str(out),
            "--at", "2024-04-15T00:00:00Z", "--market-fixture", str(market_fixture), *extra]


class BarrierMarketClient(FixtureMarketClient):
    """Serves a market only once `parties` fetches are waiting at the same time."""

    def __init__(self, markets, parties: int):
        super().__init__(markets)
        self.barrier = threading.Barrier(parties, timeout=5)

    def get_market(self, market_id):
        self.barrier.wait()
        return super().get_market(market_id)


def test_curate_and_resolve_keep_ensemble_many_markets_in_flight_at_default_settings(tmp_path, monkeypatch):
    # workers 1 x ensemble 3: three judge requests, then three classifier
    # requests, then three fetches must all be waiting at once
    markets = many_markets(3)
    market_fixture = tmp_path / "markets.json"
    market_fixture.write_text(json.dumps({"markets": markets}))
    monkeypatch.setattr(cli, "build_backend", lambda ns, cfg: UsageMeter(BarrierBackend(3, "Yes")))
    dataset = tmp_path / "dataset.jsonl"
    assert cli.main(curate_args(market_fixture, dataset)) == EXIT_OK
    assert [q.id for q in read_questions(dataset)] == ["mkt0", "mkt1", "mkt2"]

    monkeypatch.setattr(cli, "build_market_client", lambda ns, cfg: BarrierMarketClient(markets, 3))
    assert cli.main(["resolve", "--dataset", str(dataset)]) == EXIT_OK
    by_id = {q.id: q for q in read_questions(dataset)}
    assert (by_id["mkt0"].outcome, by_id["mkt1"].outcome, by_id["mkt2"].excluded) == (1, 0, True)


class MarketArrivalBackend:
    """Live stand-in whose replies depend on how many requests arrived
    before. Later markets' requests arrive first, the reverse of the order
    a one-at-a-time replay sends them in. Some judge replies are unparsable,
    so their market sends a second judge request. Whatever the order, the
    judge keeps the first four markets (one of each fate) and drops the
    last, so every recording holds kept, dropped, resolved, cancelled and
    open markets."""

    def __init__(self, markets: list[dict]):
        self.position = {m["id"]: i for i, m in enumerate(markets)}
        self.fixed_verdicts = {**dict.fromkeys(range(4), "Yes."), len(markets) - 1: "No."}
        self.lock = threading.Lock()
        self.arrivals = 0

    def complete(self, request):
        market_id, _ = current_lane()
        position = self.position[market_id]
        time.sleep(0.005 * (len(self.position) - position))
        with self.lock:
            n = self.arrivals
            self.arrivals += 1
        if "Categories:" in request.messages[0].content:
            return ChatResponse(Category.labels()[n % len(Category.labels())])
        return ChatResponse(self.fixed_verdicts.get(position, ["Maybe.", "No.", "Yes.", "Yes."][n % 4]))


class SlowFixtureClient(FixtureMarketClient):
    """Fixture client whose later markets answer first."""

    def get_market(self, market_id):
        ids = list(self._by_id)
        time.sleep(0.005 * (len(ids) - ids.index(market_id)))
        return super().get_market(market_id)


def test_curate_and_resolve_replay_byte_identically_at_any_in_flight(tmp_path, monkeypatch):
    markets = many_markets(12)
    # two markets ask the same question: only their lanes tell their replies apart
    markets[5]["question"] = markets[4]["question"]
    market_fixture = tmp_path / "markets.json"
    market_fixture.write_text(json.dumps({"markets": markets}))
    monkeypatch.setenv("LLM_API_KEY", "key")
    monkeypatch.setenv("LLM_BASE_URL", "http://llm.invalid/v1")
    monkeypatch.setattr(cli, "HTTPBackend", lambda *args, **kwargs: MarketArrivalBackend(markets))
    monkeypatch.setattr(cli, "build_market_client", lambda ns, cfg: SlowFixtureClient(markets))
    cassette = tmp_path / "cassette.jsonl"

    def curate_then_resolve(name: str, *extra: str) -> dict[str, bytes]:
        dataset = tmp_path / name / "dataset.jsonl"
        dataset.parent.mkdir()
        assert cli.main(curate_args(market_fixture, dataset, "--cassette", str(cassette), *extra)) == EXIT_OK
        curated = dataset.read_bytes()
        flags = [flag for flag in extra if flag != "--record"]
        assert cli.main(["resolve", "--dataset", str(dataset), *flags]) == EXIT_OK
        audit = dataset.with_suffix(".audit.jsonl").read_bytes()
        return {"curated": curated, "audit": audit, "resolved": dataset.read_bytes()}

    recorded = curate_then_resolve("recorded", "--record", "--workers", "4")
    verdicts = {json.loads(line)["verdict"] for line in recorded["audit"].splitlines()}
    resolved = read_questions(tmp_path / "recorded" / "dataset.jsonl")
    assert verdicts == {"keep", "drop"}
    assert {q.outcome for q in resolved} == {0, 1, None} and any(q.excluded for q in resolved)
    assert curate_then_resolve("one", "--workers", "1", "--ensemble", "1") == recorded
    assert curate_then_resolve("many", "--workers", "4") == recorded


class AuthFailsOnFirstMarket:
    """Rejects the first market's request; the others answer slowly."""

    def __init__(self):
        self.lock = threading.Lock()
        self.markets_seen: list[str] = []

    def complete(self, request):
        market_id, _ = current_lane()
        with self.lock:
            self.markets_seen.append(market_id)
        if market_id == "mkt0":
            raise AuthError("authentication rejected (401)")
        time.sleep(0.05)
        return ChatResponse("No.")


def test_curate_auth_error_exits_1_and_starts_no_queued_market(tmp_path, monkeypatch):
    market_fixture = tmp_path / "markets.json"
    market_fixture.write_text(json.dumps({"markets": many_markets(9)}))
    backend = AuthFailsOnFirstMarket()
    monkeypatch.setattr(cli, "build_backend", lambda ns, cfg: UsageMeter(backend))
    dataset = tmp_path / "dataset.jsonl"
    assert cli.main(curate_args(market_fixture, dataset)) == EXIT_FATAL
    # only the three markets already in flight beside mkt0 sent a request
    assert "mkt0" in backend.markets_seen
    assert set(backend.markets_seen) <= {"mkt0", "mkt1", "mkt2"}
    assert not dataset.exists()


def test_curate_replay_of_a_laneless_cassette_exits_1(tmp_path):
    # curate cassettes recorded before per-market lanes miss on replay; the
    # miss aborts the run instead of dropping every market as a judge error
    market_fixture = tmp_path / "markets.jsonl"
    write_market_fixture(market_fixture)
    cassette = tmp_path / "old_cassette.jsonl"
    backend = RecordingBackend(ScriptedBackend(["Yes", "No", "Economics & Business"]), cassette)
    llm_filter(backend, "Will the central bank cut rates before July?")
    llm_filter(backend, "Will I finish my thesis this month?")
    classify_category(backend, "Will the central bank cut rates before July?")
    backend.close()
    dataset = tmp_path / "dataset.jsonl"
    assert cli.main(curate_args(market_fixture, dataset, "--cassette", str(cassette))) == EXIT_FATAL
    assert not dataset.exists()


def test_resolve_backfills_outcomes(tmp_path, capsys):
    dataset = tmp_path / "dataset.jsonl"
    write_questions(
        dataset,
        [
            make_question(qid="mkt_yes", source="market"),
            make_question(qid="mkt_open", source="market"),
            make_question(qid="mkt_na", source="market"),
        ],
    )
    markets = [
        {"id": "mkt_yes", "isResolved": True, "resolution": "YES"},
        {"id": "mkt_open", "isResolved": False, "resolution": None},
        {"id": "mkt_na", "isResolved": True, "resolution": "CANCEL"},
    ]
    market_fixture = tmp_path / "markets.json"
    market_fixture.write_text(json.dumps({"markets": markets}, indent=2))

    rc = cli.main(["resolve", "--dataset", str(dataset), "--market-fixture", str(market_fixture)])
    assert rc == EXIT_OK
    assert "resolved 1, pending 1, excluded 1" in capsys.readouterr().out

    by_id = {q.id: q for q in read_questions(dataset)}
    assert by_id["mkt_yes"].outcome == 1
    assert by_id["mkt_open"].outcome is None and not by_id["mkt_open"].excluded
    assert by_id["mkt_na"].outcome is None and by_id["mkt_na"].excluded


# --- score -----------------------------------------------------------------------


def test_score_end_to_end(tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert replay_forecast(run_dir) == EXIT_OK
    agent_path = tmp_path / "agent.jsonl"
    agent_path.write_bytes((run_dir / "forecasts.jsonl").read_bytes())
    capsys.readouterr()

    out = tmp_path / "scores"
    rc = cli.main(
        [
            "score",
            "--dataset",
            str(E2E / "questions.jsonl"),
            "--forecasts",
            str(agent_path),
            "--out",
            str(out),
            "--bins",
            "2",
        ]
    )
    assert rc == EXIT_OK
    stdout = capsys.readouterr().out
    # q_un declined, so 4 of 5 questions survive for every method
    assert "scored 4 questions (1 dropped by the decline rule)" in stdout

    score_part, calibration_part = (out / "report.txt").read_text().split("\n\n")
    rows = parse_table(score_part)
    assert list(rows[0]) == ["Method", "Brier", "Acc %", "Std"]
    by_method = {row["Method"]: row for row in rows}
    assert by_method["crowd"]["Brier"] == "0.105" and by_method["crowd"]["Acc %"] == "75.0"
    assert by_method["crowd"]["Std"] == ""  # no ensemble behind the crowd price
    assert by_method["agent"]["Brier"] == "0.133" and by_method["agent"]["Acc %"] == "75.0"
    cal_rows = {row["Method"]: row for row in parse_table(calibration_part)}
    assert set(cal_rows) == {"crowd", "agent"}

    scores = [json.loads(line) for line in (out / "scores.jsonl").read_text().splitlines()]
    by_label = {s["method"]: s for s in scores}
    assert abs(by_label["crowd"]["brier"] - 0.104975) < 1e-12
    assert abs(by_label["agent"]["brier"] - 0.133125) < 1e-12
    assert by_label["agent"]["n"] == by_label["crowd"]["n"] == 4
    assert by_label["crowd"]["std"] is None
    assert by_label["agent"]["std"] > 0

    calibration = [json.loads(line) for line in (out / "calibration.jsonl").read_text().splitlines()]
    assert {c["method"] for c in calibration} == {"crowd", "agent"}
    assert all(c["k"] == 2 and len(c["bins"]) == 2 for c in calibration)


def test_score_nothing_resolved_exits_2(tmp_path):
    dataset = tmp_path / "dataset.jsonl"
    write_questions(dataset, [make_question(qid="open1"), make_question(qid="open2")])
    forecasts = tmp_path / "agent.jsonl"
    forecasts.write_text("")
    rc = cli.main(["score", "--dataset", str(dataset), "--forecasts", str(forecasts)])
    assert rc == EXIT_EMPTY


# --- probe -----------------------------------------------------------------------

PROBE_REPLIES = [
    "The hosts won the final 2-1 after extra time.",  # matches "won the final" -> Leaked
    "I don't have information past my training data, so I cannot say.",  # CutoffRespected
    "Impossible to know either way.",  # Inconclusive
    "That is not something I can state with confidence.",
    "Results for that year are unavailable to me; my training data ends earlier.",
]


def record_probe_cassette(path: Path) -> None:
    from importlib import resources

    ref = resources.files("agentcast").joinpath("data/probes.jsonl")
    probes = [json.loads(line) for line in ref.read_text().splitlines() if line.strip()]
    backend = RecordingBackend(ScriptedBackend(PROBE_REPLIES), path)
    for probe in probes:
        leakage_probe(backend, probe["question"], probe.get("answer_patterns", []))
    backend.close()


def test_probe_replay_classifies_replies(tmp_path, capsys):
    cassette = tmp_path / "probe_cassette.jsonl"
    record_probe_cassette(cassette)
    rc = cli.main(["probe", "--cassette", str(cassette)])
    assert rc == EXIT_OK
    stdout = capsys.readouterr().out
    assert "probe summary: CutoffRespected: 2, Inconclusive: 2, Leaked: 1" in stdout


def test_probe_empty_file_exits_2(tmp_path):
    probes = tmp_path / "probes.jsonl"
    probes.write_text("")
    rc = cli.main(["probe", "--probes", str(probes), "--cassette", str(tmp_path / "unused.jsonl")])
    assert rc == EXIT_EMPTY


# --- recording -------------------------------------------------------------------


class ConstantBackend:
    """Stands in for the live HTTP backend: every call gets the same reply."""

    def __init__(self, reply: str):
        self.reply = reply

    def complete(self, request: ChatRequest) -> ChatResponse:
        return ChatResponse(self.reply)


@pytest.mark.parametrize("command", ["forecast", "curate", "probe"])
def test_record_closes_the_cassette(tmp_path, monkeypatch, command):
    monkeypatch.setenv("LLM_API_KEY", "test-key")
    monkeypatch.setenv("LLM_BASE_URL", "http://127.0.0.1:9")
    reply = "Thought: enough.\nFinal Answer: 0.4" if command == "forecast" else "Yes"
    monkeypatch.setattr(cli, "HTTPBackend", lambda *args, **kwargs: ConstantBackend(reply))
    write_market_fixture(tmp_path / "markets.jsonl")
    args = {
        "forecast": ["--dataset", str(E2E / "questions.jsonl"), "--out", str(tmp_path / "o"),
                     "--search-fixture", str(E2E / "search.jsonl"), "--cutoff", "2024-04-15", "--ensemble", "1"],
        "curate": ["--from", "2024-05-01", "--to", "2024-05-31", "--out", str(tmp_path / "dataset.jsonl"),
                   "--at", "2024-04-15T00:00:00Z", "--market-fixture", str(tmp_path / "markets.jsonl")],
        "probe": [],
    }[command]
    cassette = tmp_path / "cassette.jsonl"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main([command, *args, "--cassette", str(cassette), "--record"])
        gc.collect()
    assert rc == EXIT_OK
    assert cassette.read_text(encoding="utf-8").count("\n") >= 2
    leaks = [w for w in caught if issubclass(w.category, ResourceWarning) and "cassette.jsonl" in str(w.message)]
    assert leaks == []


# --- imports -------------------------------------------------------------------


def test_importing_the_cli_loads_neither_numpy_nor_requests():
    # only `score` needs numpy, and the live clients use the standard library
    code = "import sys, agentcast.cli; print([m for m in ('numpy', 'requests') if m in sys.modules])"
    src = Path(cli.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env={"PYTHONPATH": str(src)})
    assert done.stdout.strip() == "[]"


def test_score_report_matches_the_reference_byte_for_byte(tmp_path):
    # the reference files were written by `score` before numpy became a lazy import
    run_dir = tmp_path / "run"
    assert replay_forecast(run_dir) == EXIT_OK
    agent_path = tmp_path / "agent.jsonl"
    agent_path.write_bytes((run_dir / "forecasts.jsonl").read_bytes())
    out = tmp_path / "scores"
    argv = ["score", "--dataset", str(E2E / "questions.jsonl"), "--forecasts", str(agent_path),
            "--out", str(out), "--bins", "2"]
    assert cli.main(argv) == EXIT_OK
    reference = FIXTURES / "e2e_score"
    assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in reference.iterdir())
    for path in reference.iterdir():
        assert (out / path.name).read_bytes() == path.read_bytes(), path.name


# --- live connections ----------------------------------------------------------


def test_main_closes_every_connection_it_opened(tmp_path, loopback, capsys):
    def route(method, target):
        return 200, {}, {"id": target.rsplit("/", 1)[-1], "isResolved": True, "resolution": "YES"}

    loopback.route = route
    dataset = tmp_path / "dataset.jsonl"
    write_questions(dataset, [make_question(qid=f"m{i}", source="market") for i in range(6)])
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"market_base_url": loopback.url}))
    assert cli.main(["resolve", "--dataset", str(dataset), "--config", str(config)]) == EXIT_OK
    assert "resolved 6, pending 0, excluded 0" in capsys.readouterr().out
    assert len(loopback.requests) == 6 and 1 <= loopback.accepts <= RunConfig().in_flight
    # the server sees the client close its end of every connection
    assert loopback.wait_closed(loopback.accepts)
    gc.collect()  # an unclosed socket would warn here, and warnings are errors


# --- fixture drift ------------------------------------------------------------


def test_shipped_e2e_fixtures_match_their_generator(tmp_path, monkeypatch):
    # regenerate into a scratch dir and require byte identity with the
    # committed fixtures, so prompt or loop changes cannot slip past unnoticed
    import importlib.util

    spec = importlib.util.spec_from_file_location("generate_e2e", FIXTURES / "generate_e2e.py")
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    monkeypatch.setattr(generator, "E2E", tmp_path)
    assert generator.main() == 0
    for name in ("questions.jsonl", "search.jsonl", "cassette.jsonl"):
        assert (tmp_path / name).read_bytes() == (E2E / name).read_bytes(), f"{name} drifted"
