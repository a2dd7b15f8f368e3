"""CLI wiring: config precedence, the forecast/curate/resolve/score/probe
commands run end to end over fixtures, resume semantics, and exit codes."""

import argparse
import gc
import json
import logging
import math
import os
import subprocess
import sys
import tempfile
import threading
import time
import warnings
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

import pytest

from agentcast import cli, models
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
    RateLimiter,
    RecordingBackend,
    ReplayBackend,
    current_lane,
    fingerprint,
    in_lane,
    leakage_probe,
)
from agentcast.market import (
    MARKET_RATE_LIMIT_RPM,
    FixtureMarketClient,
    LiveMarketClient,
    classify_category,
    llm_filter,
)
from agentcast.models import (
    Category,
    Forecast,
    RecordRow,
    ValidationError,
    check_question,
    read_jsonl,
    read_questions,
    read_record_lines,
    read_records,
    record_line,
    write_questions,
)
from agentcast.react import context_estimate
from agentcast.tools import FixtureSearchProvider, SearchMemo, search

from conftest import FIXTURES, make_question
from helpers import ScriptedBackend, parse_table

E2E = FIXTURES / "e2e"


# --- configuration -------------------------------------------------------------


def test_load_config_file_values_beat_defaults(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"ensemble_size": 5, "cutoff": "2024-04-15", "workers": 2}))
    cfg = RunConfig(**load_config(path))
    assert cfg.ensemble_size == 5
    assert cfg.cutoff == "2024-04-15"
    assert cfg.workers == 2
    assert cfg.aggregator == "median"  # untouched default


def test_workers_null_in_a_config_file_leaves_the_rate_budget_to_set_the_pace(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"workers": None, "rate_limit_rpm": 30}))
    cfg = RunConfig(**load_config(path))
    assert cfg.workers is None and cfg.in_flight == 6
    path.write_text(json.dumps({"workers": 0}))
    with pytest.raises(ConfigError, match="workers must be at least 1, got 0"):
        RunConfig(**load_config(path))


@pytest.mark.parametrize(
    "rpm, in_flight",
    [
        (0.5, {1: 1, 3: 3, 5: 5}),  # below one request in flight: one whole question
        (60, {1: 10, 3: 12, 5: 10}),  # 60 rpm x 10 s / 60 = 10 requests, rounded up to whole questions
        (1e6, {1: 32, 3: 33, 5: 35}),  # capped at 32, then rounded up
        (1e308, {1: 32, 3: 33, 5: 35}),  # capped before rounding, so no overflow
    ],
)
def test_default_in_flight_covers_the_rate_budget_in_whole_questions(rpm, in_flight):
    for ensemble_size, expected in in_flight.items():
        assert RunConfig(rate_limit_rpm=rpm, ensemble_size=ensemble_size).in_flight == expected
        # a set `workers` is an override: that many questions' members
        assert RunConfig(rate_limit_rpm=rpm, ensemble_size=ensemble_size, workers=2).in_flight == 2 * ensemble_size


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
    path.write_text('{"seed": 1' + "0" * 5000 + "}")  # past the int digit limit of `json.loads`
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(path)


@pytest.mark.parametrize(
    "key, value",
    [("workers", "2"), ("temperature", "hot"), ("ensemble_size", True), ("cutoff", 20240415)],
)
def test_config_value_of_the_wrong_type_exits_1_naming_the_key(tmp_path, capsys, key, value):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({key: value}))
    with pytest.raises(ConfigError, match=f"{key} must be"):
        load_config(path)
    assert cli.main(["probe", "--config", str(path)]) == EXIT_FATAL
    assert f"{key} must be" in capsys.readouterr().err


def test_load_config_takes_ints_for_float_fields(tmp_path):
    path = tmp_path / "run.json"
    values = {"temperature": 1, "sandbox_timeout": 5, "rate_limit_rpm": 30, "context_token_limit": None}
    path.write_text(json.dumps(values))
    cfg = RunConfig(**load_config(path))
    assert (cfg.temperature, cfg.sandbox_timeout, cfg.rate_limit_rpm, cfg.context_token_limit) == (1, 5, 30, None)
    assert type(cfg.temperature) is type(cfg.sandbox_timeout) is type(cfg.rate_limit_rpm) is float
    # so `1` and `1.0` in the config make requests with one fingerprint
    messages = [Message("user", "hi")]
    assert fingerprint(ChatRequest("m", messages, temperature=cfg.temperature)) == fingerprint(
        ChatRequest("m", messages, temperature=1.0)
    )
    path.write_text('{"sandbox_timeout": 1' + "0" * 400 + "}")
    with pytest.raises(ConfigError, match="sandbox_timeout is too large for a float"):
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


@pytest.mark.parametrize(
    "values, message",
    [
        ({"ensemble_size": 0}, "ensemble size"),
        ({"workers": 0}, "workers"),
        ({"temperature": -0.1}, "temperature"),
        ({"temperature": math.inf}, "temperature"),
        ({"temperature": math.nan}, "temperature"),
        ({"aggregator": "mode"}, "unknown aggregator 'mode'"),
        ({"cutoff": "2024-13-01"}, "malformed cutoff"),
        ({"cutoff": "2999-01-01"}, "future"),
    ],
)
def test_run_config_checks_each_value_when_built(values, message):
    with pytest.raises(ConfigError, match=message):
        RunConfig(**values)


@pytest.mark.parametrize(
    "key, value",
    [
        ("max_iterations", 0),
        ("worker_iterations", 0),
        ("bins", 0),
        ("results_per_search", 0),
        ("observation_budget", -5),
        ("context_token_limit", 0),
        ("sandbox_timeout", 0),
        ("sandbox_timeout", math.nan),
        ("rate_limit_rpm", 0),
        ("rate_limit_rpm", math.nan),
        ("rate_limit_rpm", math.inf),
    ],
)
def test_an_out_of_range_config_value_exits_1_before_any_request(tmp_path, loopback, monkeypatch, capsys, key, value):
    monkeypatch.setenv("LLM_API_KEY", "key")
    path = tmp_path / "run.json"
    path.write_text(json.dumps({key: value, "llm_base_url": loopback.url}))
    assert cli.main(["probe", "--config", str(path)]) == EXIT_FATAL
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} must be")
    assert "Traceback" not in err
    assert loopback.requests == []


def test_a_flag_overrides_a_bad_file_value(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"aggregator": "mode", "ensemble_size": 0, "workers": 0, "cutoff": "2999-01-01"}))
    with pytest.raises(ConfigError):
        RunConfig(**load_config(path))
    flags = ["--aggregator", "mean", "--ensemble", "2", "--workers", "3", "--cutoff", "2024-04-15"]
    ns = cli.build_parser().parse_args(["forecast", "--dataset", "d", "--out", "o", "--config", str(path), *flags])
    cfg = resolve_config(ns)
    assert (cfg.aggregator, cfg.ensemble_size, cfg.workers, cfg.cutoff) == ("mean", 2, 3, "2024-04-15")


# the arguments each command requires, and a value for each shared flag
REQUIRED_ARGS = {
    "curate": ["--from", "2024-05-01", "--to", "2024-05-31", "--out", "d.jsonl"],
    "resolve": ["--dataset", "d.jsonl"],
    "forecast": ["--dataset", "d.jsonl", "--out", "o"],
    "score": ["--dataset", "d.jsonl", "--forecasts", "f.jsonl"],
    "probe": [],
}
SHARED_FLAGS = {
    "--config": ["run.json"],
    "--cassette": ["c.jsonl"],
    "--record": [],
    "--cutoff": ["2024-04-15"],
    "--ensemble": ["2"],
    "--aggregator": ["mean"],
    "--bins": ["5"],
    "--seed": ["4"],
    "--workers": ["9"],
}
TAKES = {
    "curate": {"--config", "--cassette", "--record", "--ensemble", "--workers"},
    "resolve": {"--config", "--ensemble", "--workers"},
    "forecast": {"--config", "--cassette", "--record", "--cutoff", "--ensemble", "--aggregator", "--seed", "--workers"},
    "score": {"--config", "--bins"},
    "probe": {"--config", "--cassette", "--record"},
}


@pytest.mark.parametrize("command", TAKES)
def test_each_command_takes_only_the_shared_flags_it_reads(command, capsys):
    parser = cli.build_parser()
    bare = vars(parser.parse_args([command, *REQUIRED_ARGS[command]]))
    run_config_fields = set(RunConfig._fields)
    for flag, value in SHARED_FLAGS.items():
        argv = [command, *REQUIRED_ARGS[command], flag, *value]
        if flag not in TAKES[command]:
            with pytest.raises(SystemExit) as exited:
                parser.parse_args(argv)
            assert exited.value.code == 2, flag
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
            continue
        ns = parser.parse_args(argv)
        [dest] = [name for name, v in vars(ns).items() if v != bare[name]]
        if flag in ("--config", "--cassette", "--record"):
            continue
        # a config flag's dest is the RunConfig field it overrides
        assert dest in run_config_fields, flag
        assert str(getattr(resolve_config(ns), dest)) == value[0]


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

    records = {r["question_id"]: r for r in read_record_lines(out / "forecasts.jsonl")}
    assert len(records) == 5
    assert records["q_eth"]["aggregate"] == 0.35
    assert records["q_un"]["declined"] and "aggregate" not in records["q_un"]
    assert records["q_btc"]["aggregate"] == 0.4
    assert all(len(r["members"]) == 3 for r in records.values())

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["questions"]["q_un"] == "declined"
    assert sum(1 for s in manifest["questions"].values() if s == "forecasted") == 4
    assert manifest["token_usage"]["calls"] == 29

    # every member forecast points at a planner transcript on disk
    for record in records.values():
        for member in record["members"]:
            assert (out / "transcripts" / member["transcript_ref"]).exists()


def test_forecast_replay_reads_a_lone_surrogate_in_a_reply_as_a_replacement_character(tmp_path, capsys):
    # the planner's final answer for q_eth ends in half an escaped pair
    lines = (E2E / "cassette.jsonl").read_text(encoding="utf-8").splitlines()
    entries = [json.loads(line) for line in lines]
    n = next(i for i, e in enumerate(entries) if e["response"]["content"].endswith("Final Answer: 0.35"))
    assert entries[n]["lane"] == ["q_eth", 0]
    entries[n]["response"]["content"] += "\ud83d"
    cassette = tmp_path / "cassette.jsonl"
    cassette.write_text("".join(json.dumps(e) + "\n" for e in entries), encoding="utf-8")
    assert "\\ud83d" in cassette.read_text(encoding="utf-8")
    out = tmp_path / "run"
    assert replay_forecast(out, cassette=cassette) == EXIT_OK
    assert "4 forecasted, 1 declined, 0 errors" in capsys.readouterr().out
    transcript = (out / "transcripts" / "q_eth" / "0.planner.transcript").read_text(encoding="utf-8")
    assert transcript.endswith("=== final (final) ===\n0.35\ufffd\n")


def test_forecast_with_a_rejected_search_key_exits_1(tmp_path, loopback, monkeypatch, capsys):
    # forecasts made without evidence are not worth a finished run
    loopback.serve((401, {}, None))
    monkeypatch.setenv("SEARCH_API_KEY", "revoked")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"search_base_url": loopback.url}))
    out = tmp_path / "run"
    args = ["forecast", "--dataset", str(E2E / "questions.jsonl"), "--out", str(out)]
    args += ["--cassette", str(E2E / "cassette.jsonl"), "--cutoff", "2024-04-15", "--config", str(config)]
    assert cli.main(args) == EXIT_FATAL
    assert capsys.readouterr().err.splitlines()[-1] == "error: authentication rejected (401)"
    assert loopback.requests and all(target.startswith("/search?") for _, target, *_ in loopback.requests)


class UncallableBackend:
    """A chat backend no request may reach."""

    def __init__(self):
        self.requests = []

    def complete(self, request: ChatRequest) -> ChatResponse:
        self.requests.append(request)
        raise AssertionError("a chat request was made")


def test_forecast_with_an_unknown_aggregator_exits_1_before_any_request(tmp_path, monkeypatch, capsys):
    backend = UncallableBackend()
    monkeypatch.setattr(cli, "build_backend", lambda ns, cfg: backend)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"aggregator": "mode"}))
    out = tmp_path / "run"
    assert replay_forecast(out, "--config", str(config)) == EXIT_FATAL
    assert "unknown aggregator 'mode'" in capsys.readouterr().err
    assert backend.requests == []
    assert not (out / "transcripts").exists()


def test_forecast_replay_with_a_lone_surrogate_in_the_config_exits_1_without_a_traceback(tmp_path):
    # "m\\ud83d" reads as "m\ufffd", which the cassette never recorded; the
    # raw surrogate once reached the manifest write and ended in a traceback
    config = tmp_path / "run.json"
    config.write_text('{"model_id": "m\\ud83d"}', encoding="utf-8")
    argv = ["forecast", "--dataset", str(E2E / "questions.jsonl"), "--out", str(tmp_path / "run"),
            "--search-fixture", str(E2E / "search.jsonl"), "--cassette", str(E2E / "cassette.jsonl"),
            "--cutoff", "2024-04-15", "--config", str(config)]
    code = "import sys, agentcast.cli; sys.exit(agentcast.cli.main(sys.argv[1:]))"
    done = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, timeout=60,
                          env={"PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])})
    assert done.returncode == EXIT_FATAL
    assert "Traceback" not in done.stderr
    errors = [line for line in done.stderr.splitlines() if line.startswith("error:")]
    assert errors == done.stderr.splitlines()[-1:]


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


@pytest.mark.parametrize("workers", ["1", "8", None])
def test_forecast_replay_writes_the_committed_records(tmp_path, workers):
    # the committed records, transcripts and indexes were written by an
    # earlier version of the code, so a change to how any of them is written
    # shows up here
    out = tmp_path / "run"
    assert replay_forecast(out, *(["--workers", workers] if workers else [])) == EXIT_OK
    golden = run_outputs(FIXTURES / "e2e_forecast")
    assert len(golden) == 25  # the records file, 5 indexes and 19 transcripts
    assert run_outputs(out) == golden
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["search_results_dropped"] == 0
    # the manifest says what pace the run kept
    in_flight = RunConfig(workers=int(workers) if workers else None).in_flight
    assert (manifest["config"]["in_flight"], manifest["config"]["rate_limit_rpm"]) == (in_flight, 60.0)


def with_late_results(tmp_path) -> Path:
    """The e2e search fixture with two results dated on or after the cutoff
    around every entry's own, so the kept results are the same."""
    late = [
        {"title": "late", "url": "https://example.org/late", "snippet": "after", "published": "2024-04-15"},
        {"title": "later", "url": "https://example.org/later", "snippet": "after", "published": "2024-05-01T09:00:00Z"},
    ]
    path = tmp_path / "search.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for line in (E2E / "search.jsonl").read_text(encoding="utf-8").splitlines():
            entry = json.loads(line)
            entry["results"] = late[:1] + entry["results"] + late[1:]
            fh.write(json.dumps(entry) + "\n")
    return path


def late_results_searched(fixture: Path, transcripts: Path) -> int:
    """Results dated on or after the cutoff among those the fixture serves
    for each query the run's transcripts show a search for."""
    served = {}
    for line in fixture.read_text(encoding="utf-8").splitlines():
        entry = json.loads(line)
        served[entry["query"]] = [r for r in entry["results"][:8] if (r.get("published") or "")[:10] >= "2024-04-15"]
    late = 0
    for transcript in transcripts.rglob("*.transcript"):
        lines = transcript.read_text(encoding="utf-8").splitlines()
        for action, given in zip(lines, lines[1:]):
            if action == "Action: web_search":
                query = given.removeprefix("Action Input:").strip().strip('"').strip()
                late += len(served.get(query, served["default"]))
    return late


@pytest.mark.parametrize("workers", ["1", "8"])
def test_search_drops_are_counted_once_per_run_and_not_logged_per_search(tmp_path, caplog, workers):
    fixture = with_late_results(tmp_path)
    out = tmp_path / "run"
    with caplog.at_level(logging.DEBUG):
        assert replay_forecast(out, "--workers", workers, "--search-fixture", str(fixture)) == EXIT_OK
    assert run_outputs(out) == run_outputs(FIXTURES / "e2e_forecast")  # the same results were kept
    dropped = late_results_searched(fixture, out / "transcripts")
    assert dropped > 0
    assert [r for r in caplog.records if r.name == "agentcast.tools"] == []
    warnings = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
    assert warnings == [f"dropped {dropped} search results published on/after 2024-04-15"]
    assert json.loads((out / "manifest.json").read_text())["search_results_dropped"] == dropped


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
    monkeypatch.setattr(cli, "build_backend", lambda ns, cfg: BarrierBackend(3))
    dataset = tmp_path / "one.jsonl"
    write_questions(dataset, [make_question()])
    out = tmp_path / "run"
    assert replay_forecast(out, "--workers", "1", dataset=dataset) == EXIT_OK
    (record,) = read_record_lines(out / "forecasts.jsonl")
    assert record["aggregate"] == 0.4 and len(record["members"]) == 3


class OpenLaneCounter:
    """Answers once the first `parties` requests are waiting at the same
    time, and every later one at once; counts the most lanes it ever held
    open together."""

    def __init__(self, parties: int):
        self.barrier = threading.Barrier(parties, timeout=5)
        self.lock = threading.Lock()
        self.calls = 0
        self.open: set = set()
        self.most = 0

    def complete(self, request):
        with self.lock:
            self.calls += 1
            first_wave = self.calls <= self.barrier.parties
            self.open.add(current_lane())
            self.most = max(self.most, len(self.open))
        try:
            if first_wave:
                self.barrier.wait()
                time.sleep(0.05)  # long enough for a lane past the cap to arrive
            return ChatResponse("Thought: enough.\nFinal Answer: 0.4")
        finally:
            with self.lock:
                self.open.discard(current_lane())


@pytest.mark.parametrize("questions", [1, 5])
def test_forecast_at_default_settings_holds_its_in_flight_lanes_and_never_more(tmp_path, monkeypatch, questions):
    dataset = tmp_path / "dataset.jsonl"
    write_questions(dataset, [make_question(qid=f"q{i}") for i in range(questions)])
    lanes = min(RunConfig().in_flight, 3 * questions)  # 3 lanes (one question) or 12 (of 15)
    backend = OpenLaneCounter(lanes)
    monkeypatch.setattr(cli, "build_backend", lambda ns, cfg: backend)
    assert replay_forecast(tmp_path / "run", dataset=dataset) == EXIT_OK
    assert backend.calls == 3 * questions
    assert backend.most == lanes


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
        monkeypatch.setattr(cli, "build_backend", lambda ns, cfg: backend)
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
    assert [r.aggregate for r in read_records(out / "forecasts.jsonl")] == [0.3] * len(dataset)
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
    (record,) = read_record_lines(out / "forecasts.jsonl")
    assert record["declined"] and record["members"][0]["reason"] == "budget"
    assert len(backend.requests) == 1  # no compacted second request was sent
    assert json.loads((out / "manifest.json").read_text())["questions"] == {dataset[0].id: "declined"}


# a member whose computation worker runs `program` once
def computation_script(program: str) -> list[str]:
    return [
        "Action: computation\nAction Input: run it",
        f"Action: python\nAction Input: {program}",
        "Final Answer: it ran",
        "Final Answer: 0.5",
    ]


def test_a_recorded_run_whose_program_raised_replays(tmp_path):
    # the traceback named the random temp dir, so the next request's
    # fingerprint changed on every run and the replay missed
    cfg = RunConfig(cutoff="2024-04-15", ensemble_size=1)
    provider = FixtureSearchProvider.from_file(E2E / "search.jsonl")
    dataset = [make_question()]
    cassette = tmp_path / "cassette.jsonl"

    def forecast(backend, out):
        runner = make_member_runner(cfg, backend, provider)
        return run_forecast(dataset, runner, out, ensemble_size=1, aggregator_mode="median", seed=0)

    recorder = RecordingBackend(ScriptedBackend(computation_script("raise RuntimeError('boom')")), cassette)
    assert forecast(recorder, tmp_path / "recorded") == {dataset[0].id: "forecasted"}
    assert forecast(ReplayBackend.from_file(cassette), tmp_path / "replayed") == {dataset[0].id: "forecasted"}
    recorded = run_outputs(tmp_path / "recorded")
    assert run_outputs(tmp_path / "replayed") == recorded
    worker = next(text for name, text in recorded.items() if "computation" in name)
    assert b'File "program.py", line 1' in worker and b"RuntimeError: boom" in worker


def live_children() -> set[int]:
    """The pids of this process's children that have not exited."""
    me = str(os.getpid())
    children = set()
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            state, ppid = stat.read_text().rsplit(")", 1)[1].split()[:2]
        except (OSError, IndexError, ValueError):
            continue
        if ppid == me and state != "Z":
            children.add(int(stat.parent.name))
    return children


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="lists children through /proc")
def test_forecast_leaves_no_process_or_sandbox_dir_behind(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    before = live_children()
    backend = ScriptedBackend(computation_script("print(6 * 7)"))
    monkeypatch.setattr(cli, "build_backend", lambda ns, cfg: backend)
    dataset = tmp_path / "one.jsonl"
    write_questions(dataset, [make_question()])
    out = tmp_path / "run"
    assert replay_forecast(out, "--ensemble", "1", dataset=dataset) == EXIT_OK
    assert "=== observation 1 ===\n42\n" in (out / "transcripts" / "q1" / "0.0.computation.transcript").read_text()
    assert live_children() <= before
    assert list(tmp_path.glob("agentcast-sandbox-*")) == []


def test_cassette_miss_starts_no_queued_member(tmp_path):
    started = []

    def run_member(question):
        started.append(question.id)
        raise CassetteMiss("f" * 64, ChatRequest("default", (Message("user", "x"),)))

    dataset = [make_question(qid="qa"), make_question(qid="qb")]
    with pytest.raises(CassetteMiss):
        run_forecast(dataset, run_member, tmp_path / "run", ensemble_size=3, aggregator_mode="median", seed=0)
    assert started == ["qa"]


def test_a_member_that_raises_marks_only_its_question_an_error(tmp_path, monkeypatch, capsys, caplog):
    started = []
    make_runner, run = cli.make_member_runner, cli.run_forecast

    def failing_runner(*args, **kwargs):
        run_member = make_runner(*args, **kwargs)

        def runner(question):
            started.append(question.id)
            if question.id == "q_fed":
                raise RuntimeError("member blew up")
            return run_member(question)

        return runner

    monkeypatch.setattr(cli, "make_member_runner", failing_runner)
    # one member run at a time, so the failing member's siblings are still queued
    monkeypatch.setattr(cli, "run_forecast", lambda *args, **kwargs: run(*args, **(kwargs | {"workers": 1})))
    out = tmp_path / "run"
    assert replay_forecast(out) == EXIT_OK
    assert "3 forecasted, 1 declined, 1 errors" in capsys.readouterr().out
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["questions"]["q_fed"] == "error"
    assert manifest["errors"] == {"q_fed": "RuntimeError: member blew up"}
    assert [r.exc_info[0] for r in caplog.records if r.levelname == "ERROR"] == [RuntimeError]
    assert started == ["q_eth"] * 3 + ["q_fed"] + ["q_launch"] * 3 + ["q_un"] * 3 + ["q_btc"] * 3
    golden = (FIXTURES / "e2e_forecast" / "forecasts.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    written = (out / "forecasts.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    assert written == [line for line in golden if '"q_fed"' not in line]


def test_run_forecast_leaves_no_question_in_the_search_memo(tmp_path):
    # the memo once counted finished members to drop a question's entries,
    # so a question whose queued members never started kept them
    cfg = RunConfig(cutoff="2024-04-15")
    backend = ReplayBackend.from_file(E2E / "cassette.jsonl")
    memo = SearchMemo(FixtureSearchProvider.from_file(E2E / "search.jsonl"))
    run_member = make_member_runner(cfg, backend, memo)

    def runner(question):
        if question.id == "q_eth":
            search(memo, "historical price data of Ethereum", cfg.cutoff_date())
            raise RuntimeError("member blew up")
        return run_member(question)

    dataset = read_questions(E2E / "questions.jsonl")
    out = tmp_path / "run"
    statuses = run_forecast(
        dataset, runner, out, ensemble_size=3, aggregator_mode="median", seed=0, workers=1, memo=memo
    )
    assert statuses["q_eth"] == "error"
    assert memo._flights == {}
    golden = (FIXTURES / "e2e_forecast" / "forecasts.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    written = (out / "forecasts.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    assert written == [line for line in golden if '"q_eth"' not in line]


class RejectsTheKey:
    """Rejects every chat request, once `parties` of them are waiting at the
    same time, so every member in flight has sent its first request."""

    def __init__(self, parties: int):
        self.barrier = threading.Barrier(parties, timeout=5)
        self.requests = []

    def complete(self, request):
        self.requests.append(request)
        self.barrier.wait()
        raise AuthError("authentication rejected (401)")


def test_forecast_with_a_rejected_key_exits_1_and_a_rerun_forecasts_everything(tmp_path, monkeypatch, capsys):
    backend = RejectsTheKey(3)
    monkeypatch.setattr(cli, "build_backend", lambda ns, cfg: backend)
    out = tmp_path / "run"
    assert replay_forecast(out, "--workers", "1") == EXIT_FATAL
    assert len(backend.requests) == 3  # the first question's members; no queued member started
    assert "authentication rejected (401)" in capsys.readouterr().err
    assert not (out / "forecasts.jsonl").exists()

    monkeypatch.undo()  # a working backend: the e2e cassette
    assert replay_forecast(out, "--workers", "1") == EXIT_OK
    assert replay_forecast(tmp_path / "fresh") == EXIT_OK
    assert run_outputs(out) == run_outputs(tmp_path / "fresh")


def test_forecast_recording_whose_write_fails_exits_1(tmp_path, monkeypatch, capsys):
    class UnwritableRecorder(RecordingBackend):
        def __init__(self, inner, path):
            super().__init__(inner, path)
            Path(path).unlink()
            Path(path).mkdir()  # every append now fails with IsADirectoryError

    live = ScriptedBackend(["Thought: enough.\nFinal Answer: 0.4"] * 15)
    monkeypatch.setenv("LLM_API_KEY", "key")
    monkeypatch.setenv("LLM_BASE_URL", "http://llm.invalid/v1")
    monkeypatch.setattr(cli, "HTTPBackend", lambda *args, **kwargs: live)
    monkeypatch.setattr(cli, "RecordingBackend", UnwritableRecorder)
    out = tmp_path / "run"
    cassette = tmp_path / "cassette.jsonl"
    assert replay_forecast(out, "--record", "--workers", "1", cassette=cassette) == EXIT_FATAL
    assert "cannot write cassette" in capsys.readouterr().err
    assert len(live.requests) <= 3  # only the members already in flight
    assert not (out / "forecasts.jsonl").exists()


def counting_runner(counter):
    cfg = RunConfig(cutoff="2024-04-15")
    backend = ReplayBackend.from_file(E2E / "cassette.jsonl")
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
    kept = [r for r in read_record_lines(out / "forecasts.jsonl") if r["question_id"] not in ("q_fed", "q_btc")]
    with open(out / "forecasts.jsonl", "w", encoding="utf-8") as fh:
        for r in kept:
            fh.write(json.dumps(r, ensure_ascii=False) + "\n")
        ghost = dict(kept[0], question_id="ghost")
        fh.write(json.dumps(ghost, ensure_ascii=False) + "\n")

    second_calls = {}
    statuses = run_forecast(
        dataset, counting_runner(second_calls), out, ensemble_size=3, aggregator_mode="median", seed=0
    )
    assert second_calls == {"q_fed": 3, "q_btc": 3}  # others resumed from disk
    assert statuses["q_eth"] == "forecasted" and statuses["q_un"] == "declined"
    assert (out / "forecasts.jsonl").read_bytes() == original  # dataset order, ghost gone


def dataset_repeating_its_first_id(tmp_path) -> Path:
    """The e2e dataset with its first line (q_eth) repeated at the end."""
    lines = (E2E / "questions.jsonl").read_text(encoding="utf-8").splitlines()
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text("\n".join([*lines, lines[0]]) + "\n", encoding="utf-8")
    return dataset


def test_forecast_exits_1_on_a_repeated_question_id_before_any_request(tmp_path, monkeypatch, capsys):
    # before, a replay died on an unrelated cassette miss and a live run
    # forecast the question twice
    backend = UncallableBackend()
    monkeypatch.setattr(cli, "build_backend", lambda ns, cfg: backend)
    dataset = dataset_repeating_its_first_id(tmp_path)
    out = tmp_path / "run"
    assert replay_forecast(out, dataset=dataset) == EXIT_FATAL
    assert capsys.readouterr().err.splitlines()[-1] == f"error: id: {dataset}:6: repeated id 'q_eth', first on line 1"
    assert backend.requests == []
    assert not (out / "transcripts").exists()


def test_forecast_exits_1_on_a_non_string_background_before_any_request(tmp_path, monkeypatch, capsys):
    # before, the number reached the planner's task prompt as "Background: 7"
    backend = UncallableBackend()
    monkeypatch.setattr(cli, "build_backend", lambda ns, cfg: backend)
    lines = (E2E / "questions.jsonl").read_text(encoding="utf-8").splitlines()
    lines[1] = json.dumps({**json.loads(lines[1]), "background": 7})
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "run"
    assert replay_forecast(out, dataset=dataset) == EXIT_FATAL
    expected = f"error: background: {dataset}:2: expected a string, got 7"
    assert capsys.readouterr().err.splitlines()[-1] == expected
    assert backend.requests == []
    assert not (out / "transcripts").exists()


def test_forecast_resume_exits_1_on_a_repeated_question_id(tmp_path, monkeypatch, capsys):
    # before, the last of the two records was kept silently
    out = tmp_path / "run"
    out.mkdir()
    lines = (FIXTURES / "e2e_forecast" / "forecasts.jsonl").read_text(encoding="utf-8").splitlines()
    records = out / "forecasts.jsonl"
    records.write_text("\n".join([lines[0], lines[0]]) + "\n", encoding="utf-8")
    backend = UncallableBackend()
    monkeypatch.setattr(cli, "build_backend", lambda ns, cfg: backend)
    assert replay_forecast(out) == EXIT_FATAL
    expected = f"error: question_id: {records}:2: repeated question_id 'q_eth', first on line 1"
    assert capsys.readouterr().err.splitlines()[-1] == expected
    assert backend.requests == []
    assert not (out / "transcripts").exists()


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


def test_curate_writes_a_lone_surrogate_in_a_question_as_a_replacement_character(tmp_path, monkeypatch):
    # a market title cut in the middle of an emoji arrives as half an escaped pair
    monkeypatch.setattr(cli, "build_backend", lambda ns, cfg: ConstantBackend("Yes"))
    market_fixture = tmp_path / "markets.json"
    market_fixture.write_text(json.dumps({"markets": [{**many_markets(1)[0], "question": "Will \ud83d ship?"}]}))
    dataset = tmp_path / "dataset.jsonl"
    assert cli.main(curate_args(market_fixture, dataset)) == EXIT_OK
    assert [q.title for q in read_questions(dataset)] == ["Will \ufffd ship?"]


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
    """Serves a market only once `parties` fetches are waiting at the same
    time; counts the most fetches it ever held open together."""

    def __init__(self, markets, parties: int):
        super().__init__(markets)
        self.barrier = threading.Barrier(parties, timeout=5)
        self.lock = threading.Lock()
        self.open = self.most = 0

    def get_market(self, market_id):
        with self.lock:
            self.open += 1
            self.most = max(self.most, self.open)
        try:
            self.barrier.wait()
            time.sleep(0.02)  # long enough for a fetch past the cap to arrive
            return super().get_market(market_id)
        finally:
            with self.lock:
                self.open -= 1


def test_curate_fills_the_rate_budget_and_resolve_fills_the_market_budget(tmp_path, monkeypatch):
    # at default settings curate keeps the rate budget's 12 markets in
    # flight: twelve judge requests, then twelve classifier requests must
    # all be waiting at once.
    in_flight = RunConfig().in_flight
    assert in_flight == 12
    markets = many_markets(in_flight)
    market_fixture = tmp_path / "markets.json"
    market_fixture.write_text(json.dumps({"markets": markets}))
    monkeypatch.setattr(cli, "build_backend", lambda ns, cfg: BarrierBackend(in_flight, "Yes"))
    dataset = tmp_path / "dataset.jsonl"
    assert cli.main(curate_args(market_fixture, dataset)) == EXIT_OK
    assert [q.id for q in read_questions(dataset)] == [m["id"] for m in markets]

    # resolve keeps the market budget's 33 fetches in flight, even when the
    # model's budget allows 3, and --workers 1 keeps 1 x ensemble 3
    assert RunConfig().in_flight_at(MARKET_RATE_LIMIT_RPM) == 33
    slow_model = tmp_path / "run.json"
    slow_model.write_text(json.dumps({"rate_limit_rpm": 6}))
    fates = ["YES", "NO", "CANCEL"]
    markets = [{"id": f"mkt{i}", "isResolved": True, "resolution": fates[i % 3]} for i in range(33)]
    for flags, width in ((["--config", str(slow_model)], 33), (["--workers", "1"], 3)):
        write_questions(dataset, [make_question(qid=m["id"], source="market") for m in markets])
        client = BarrierMarketClient(markets, width)
        monkeypatch.setattr(cli, "build_market_client", lambda ns, cfg: client)
        assert cli.main(["resolve", "--dataset", str(dataset), *flags]) == EXIT_OK
        assert client.most == width
        by_id = {q.id: q for q in read_questions(dataset)}
        assert (by_id["mkt30"].outcome, by_id["mkt31"].outcome, by_id["mkt32"].excluded) == (1, 0, True)


def test_live_market_requests_pass_the_market_budget_whatever_the_model_rpm(monkeypatch):
    budgets = []
    monkeypatch.setattr(cli, "RateLimiter", lambda rpm: budgets.append(rpm) or RateLimiter(rpm))
    ns = argparse.Namespace(market_fixture=None)
    assert isinstance(cli.build_market_client(ns, RunConfig(rate_limit_rpm=6)), LiveMarketClient)
    assert budgets == [MARKET_RATE_LIMIT_RPM]


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
    monkeypatch.setattr(cli, "build_backend", lambda ns, cfg: backend)
    dataset = tmp_path / "dataset.jsonl"
    assert cli.main(curate_args(market_fixture, dataset)) == EXIT_FATAL
    # only the three markets already in flight beside mkt0 sent a request
    assert "mkt0" in backend.markets_seen
    assert set(backend.markets_seen) <= {"mkt0", "mkt1", "mkt2"}
    assert not dataset.exists()


def test_curate_with_a_malformed_at_exits_1_before_any_request(tmp_path, monkeypatch, capsys):
    # before, --at was parsed only after every judge and classifier call
    market_fixture = tmp_path / "markets.json"
    market_fixture.write_text(json.dumps({"markets": many_markets(3)}))
    backend = UncallableBackend()
    monkeypatch.setattr(cli, "build_backend", lambda ns, cfg: backend)
    dataset = tmp_path / "dataset.jsonl"
    args = curate_args(market_fixture, dataset)
    args[args.index("--at") + 1] = "2024-04-15T25:00:00Z"
    assert cli.main(args) == EXIT_FATAL
    assert capsys.readouterr().err.splitlines()[-1] == "error: at: malformed timestamp '2024-04-15T25:00:00Z'"
    assert backend.requests == []
    assert not dataset.exists()


@pytest.mark.parametrize("at", ["2024-06-01T00:00:00Z", None], ids=["at", "now"])
def test_curate_of_a_market_closed_before_the_snapshot_exits_1_before_any_request(tmp_path, monkeypatch, capsys, at):
    # before, every market was judged and classified first, and only the
    # snapshot found that fetched_at came after close_time
    market_fixture = tmp_path / "markets.json"
    market_fixture.write_text(json.dumps({"markets": many_markets(3)}))
    backend = ScriptedBackend([])
    monkeypatch.setattr(cli, "build_backend", lambda ns, cfg: backend)
    dataset = tmp_path / "dataset.jsonl"
    args = curate_args(market_fixture, dataset)
    if at is None:
        del args[args.index("--at") : args.index("--at") + 2]
    else:
        args[args.index("--at") + 1] = at
    assert cli.main(args) == EXIT_FATAL
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith(f"error: fetched_at: fetched_at {at or ''}")
    assert last.endswith(" is after close_time 2024-05-10T12:00:00Z")
    assert backend.requests == []
    assert not dataset.exists()
    assert not dataset.with_suffix(".audit.jsonl").exists()


@pytest.mark.parametrize(
    "content", ["{not json", json.dumps({"data": []})], ids=["not-json", "no-markets-key"]
)
def test_a_malformed_market_fixture_exits_1_naming_the_file(tmp_path, monkeypatch, capsys, content):
    market_fixture = tmp_path / "markets.json"
    market_fixture.write_text(content)
    backend = UncallableBackend()
    monkeypatch.setattr(cli, "build_backend", lambda ns, cfg: backend)
    dataset = tmp_path / "dataset.jsonl"
    assert cli.main(curate_args(market_fixture, dataset)) == EXIT_FATAL
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith(f"error: markets: {market_fixture}: ")
    assert backend.requests == []
    assert not dataset.exists()


def test_a_search_fixture_line_without_a_string_query_exits_1_naming_the_line(tmp_path, monkeypatch, capsys):
    search_fixture = tmp_path / "search.jsonl"
    search_fixture.write_text('{"query": "eth", "results": []}\n{"results": []}\n')
    backend = UncallableBackend()
    monkeypatch.setattr(cli, "build_backend", lambda ns, cfg: backend)
    out = tmp_path / "run"
    assert replay_forecast(out, "--search-fixture", str(search_fixture)) == EXIT_FATAL
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith("error: query: ") and f"{search_fixture}:2: " in last
    assert backend.requests == []
    assert not out.exists()


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


def test_resolve_exits_1_on_a_repeated_question_id_and_leaves_the_dataset(tmp_path, capsys):
    dataset = dataset_repeating_its_first_id(tmp_path)
    before = dataset.read_bytes()
    market_fixture = tmp_path / "markets.json"
    market_fixture.write_text(json.dumps({"markets": [{"id": "q_eth", "isResolved": True, "resolution": "YES"}]}))
    assert cli.main(["resolve", "--dataset", str(dataset), "--market-fixture", str(market_fixture)]) == EXIT_FATAL
    assert capsys.readouterr().err.splitlines()[-1] == f"error: id: {dataset}:6: repeated id 'q_eth', first on line 1"
    assert dataset.read_bytes() == before


def surrogate_dataset(tmp_path, **fields) -> Path:
    """A one-question dataset whose line holds `fields` as written, escapes included."""
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text(json.dumps({**make_question(qid="mkt_yes").to_dict(), **fields}) + "\n", encoding="utf-8")
    return dataset


def test_resolve_writes_a_lone_surrogate_in_a_title_as_a_replacement_character(tmp_path, capsys):
    # the rewrite used to die on the unencodable title and lose the outcome it found
    dataset = surrogate_dataset(tmp_path, title="Will \ud83d ship?")
    assert "\\ud83d" in dataset.read_text(encoding="utf-8")
    market_fixture = tmp_path / "markets.json"
    market_fixture.write_text(json.dumps({"markets": [{"id": "mkt_yes", "isResolved": True, "resolution": "YES"}]}))
    assert cli.main(["resolve", "--dataset", str(dataset), "--market-fixture", str(market_fixture)]) == EXIT_OK
    assert "resolved 1, pending 0, excluded 0" in capsys.readouterr().out
    (question,) = read_questions(dataset)
    assert (question.title, question.outcome) == ("Will \ufffd ship?", 1)


def test_resolve_exits_1_on_a_lone_surrogate_in_an_id_and_leaves_the_dataset(tmp_path, capsys):
    dataset = surrogate_dataset(tmp_path, id="mkt\ud83d")
    before = dataset.read_bytes()
    market_fixture = tmp_path / "markets.json"
    market_fixture.write_text(json.dumps({"markets": []}))
    assert cli.main(["resolve", "--dataset", str(dataset), "--market-fixture", str(market_fixture)]) == EXIT_FATAL
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: id: ") and "lone surrogate" in err[0]
    assert dataset.read_bytes() == before


def test_resolve_with_a_rejected_market_request_exits_1_and_leaves_the_dataset(tmp_path, loopback, capsys):
    # this used to leave every question pending and exit 0
    loopback.serve((401, {}, None))
    dataset = tmp_path / "dataset.jsonl"
    write_questions(dataset, [make_question(qid=f"m{i}", source="market") for i in range(3)])
    before = dataset.read_bytes()
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"market_base_url": loopback.url}))
    assert cli.main(["resolve", "--dataset", str(dataset), "--config", str(config)]) == EXIT_FATAL
    assert capsys.readouterr().err.splitlines() == ["error: authentication rejected (401)"]
    assert dataset.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dataset.jsonl", "run.json"]  # no temp file left


@pytest.mark.parametrize(
    "status, error",
    [(401, "error: authentication rejected (401)"), (404, "backend error: unexpected status 404: {}")],
    ids=["401", "404"],
)
def test_curate_with_a_failed_market_listing_exits_1_before_any_chat_request(
    tmp_path, loopback, monkeypatch, capsys, status, error
):
    loopback.serve((status, {}, {}))
    backend = UncallableBackend()
    monkeypatch.setattr(cli, "HTTPBackend", lambda *args, **kwargs: backend)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"market_base_url": loopback.url}))
    out = tmp_path / "dataset.jsonl"
    argv = ["curate", "--from", "2024-05-01", "--to", "2024-05-31", "--out", str(out), "--config", str(config)]
    assert cli.main(argv) == EXIT_FATAL
    assert capsys.readouterr().err.splitlines()[-1] == error
    assert [target.split("?")[0] for _, target, *_ in loopback.requests] == ["/markets"]
    assert backend.requests == [] and not out.exists()


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


@pytest.mark.parametrize("names", [("a/run.jsonl", "b/run.jsonl"), ("crowd.jsonl",)])
def test_score_exits_1_when_two_methods_share_a_label(tmp_path, capsys, names):
    # a label is the file stem, and the dataset's crowd prices are scored as `crowd`
    paths = [tmp_path / name for name in names]
    for path in paths:
        path.parent.mkdir(exist_ok=True)
        path.write_text("")
    out = tmp_path / "scores"
    argv = ["score", "--dataset", str(E2E / "questions.jsonl"), "--forecasts", *map(str, paths), "--out", str(out)]
    assert cli.main(argv) == EXIT_FATAL
    label = Path(names[0]).stem
    assert f"method label {label!r} is taken twice" in capsys.readouterr().err
    assert not out.exists()


def test_score_nothing_resolved_exits_2(tmp_path):
    dataset = tmp_path / "dataset.jsonl"
    write_questions(dataset, [make_question(qid="open1"), make_question(qid="open2")])
    forecasts = tmp_path / "agent.jsonl"
    forecasts.write_text("")
    rc = cli.main(["score", "--dataset", str(dataset), "--forecasts", str(forecasts)])
    assert rc == EXIT_EMPTY


_ABSENT = object()


def _record(**fields):
    """One completed single-member record on q_eth, with fields replaced or, given _ABSENT, removed."""
    record = {"question_id": "q_eth", "aggregator": "median", "members": [{"member_index": 0, "forecast": 0.2}],
              "aggregate": 0.2}
    record.update(fields)
    return {key: value for key, value in record.items() if value is not _ABSENT}


def _members(*forecasts):
    return [{"member_index": i, "forecast": f} for i, f in enumerate(forecasts)]


# Malformed forecast lines and the messages `score` printed for them while the
# reader still built a ForecastRecord per line, plus the member numbering rule
# added since. Where a line has two faults the message names the one checked
# first.
MALFORMED_RECORDS = [
    ("list", [1, 2], "record: expected an object, got list"),
    ("string", "q_eth", "record: expected an object, got str"),
    ("no_question_id", _record(question_id=_ABSENT), "question_id: missing question_id"),
    ("empty_question_id", _record(question_id=""), "question_id: missing question_id"),
    ("blank_question_id", _record(question_id="  "), "question_id: missing question_id"),
    ("numeric_question_id", _record(question_id=7), "question_id: missing question_id"),
    ("members_not_a_list", _record(members={"0": 0.2}), "members: missing members list"),
    ("no_members", _record(members=_ABSENT), "members: missing members list"),
    ("empty_members", _record(members=[], aggregate=_ABSENT), "members: ensemble has no members"),
    ("member_not_an_object", _record(members=[0.2]), "members: malformed member entry 0.2"),
    ("member_without_index", _record(members=[{"forecast": 0.2}]),
     "members: malformed member entry {'forecast': 0.2}"),
    ("member_index_null", _record(members=[{"member_index": None, "forecast": 0.2}]),
     "members: member at position 0 has member_index None"),
    ("member_index_true", _record(members=[*_members(0.2), {"member_index": True, "forecast": 0.2}], aggregate=0.2),
     "members: member at position 1 has member_index True"),
    ("member_index_repeated", _record(members=[*_members(0.2), {"member_index": 0, "forecast": 0.2}]),
     "members: member at position 1 has member_index 0"),
    ("member_index_out_of_order",
     _record(members=[{"member_index": 1, "forecast": 0.2}, {"member_index": 0, "forecast": 0.4}], aggregate=0.3),
     "members: member at position 0 has member_index 1"),
    ("member_without_forecast_or_declined", _record(members=[*_members(0.2), {"member_index": 1, "transcript_ref": "x"}]),
     "members: member entry has neither forecast nor declined: {'member_index': 1, 'transcript_ref': 'x'}"),
    ("forecast_true", _record(members=_members(True)), "value: forecast must be a number, got True"),
    ("forecast_2", _record(members=_members(2)), "value: forecast must lie in [0, 1], got 2"),
    ("forecast_string", _record(members=_members("0.2")), "value: forecast must be a number, got '0.2'"),
    ("forecast_nan", _record(members=_members(float("nan"))), "value: forecast must lie in [0, 1], got nan"),
    ("forecast_null", _record(members=_members(None)), "value: forecast must be a number, got None"),
    ("unknown_aggregator", _record(aggregator="mode"), "aggregator: unknown aggregator 'mode'"),
    ("declined_with_aggregate",
     _record(members=[{"member_index": 0, "declined": True, "reason": "r"}, {"member_index": 1, "forecast": 0.4}],
             aggregate=0.4),
     "aggregate: declined record cannot carry an aggregate"),
    ("completed_without_aggregate", _record(members=_members(0.2, 0.4), aggregate=_ABSENT),
     "aggregate: missing aggregate for a completed ensemble"),
    ("aggregate_outside_member_range", _record(members=_members(0.2, 0.4), aggregate=0.5),
     "aggregate: aggregate 0.5 outside member range [0.2, 0.4]"),
    ("aggregate_true", _record(aggregate=True), "value: forecast must be a number, got True"),
    ("aggregate_negative", _record(aggregate=-0.1), "value: forecast must lie in [0, 1], got -0.1"),
    ("bad_aggregate_and_empty_question_id", _record(question_id="", aggregate=1.5),
     "value: forecast must lie in [0, 1], got 1.5"),
    ("unknown_aggregator_and_no_members", _record(aggregator="mode", members=[], aggregate=_ABSENT),
     "members: ensemble has no members"),
    ("bad_forecast_and_unknown_aggregator", _record(aggregator="mode", members=_members(-1)),
     "value: forecast must lie in [0, 1], got -1"),
    ("bad_forecast_before_a_member_without_index", _record(members=[*_members(3), {"forecast": 0.2}]),
     "value: forecast must lie in [0, 1], got 3"),
]


@pytest.mark.parametrize(
    "line, message", [row[1:] for row in MALFORMED_RECORDS], ids=[row[0] for row in MALFORMED_RECORDS]
)
def test_score_reports_a_malformed_forecast_line_as_before(tmp_path, capsys, line, message):
    path = tmp_path / "agent.jsonl"
    good = _record(members=_members(0.2, 0.4), aggregate=0.3)
    path.write_text(json.dumps(good) + "\n" + json.dumps(line) + "\n", encoding="utf-8")
    field, detail = message.split(": ", 1)
    expected = f"{field}: {path}:2: {detail}"
    capsys.readouterr()
    assert cli.main(["score", "--dataset", str(E2E / "questions.jsonl"), "--forecasts", str(path)]) == EXIT_FATAL
    assert [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")] == [f"error: {expected}"]
    for reader in (read_records, read_record_lines):
        with pytest.raises(ValidationError) as raised:
            reader(path)
        assert str(raised.value) == expected and raised.value.field_name == field
    with pytest.raises(ValidationError) as raised:
        record_line(line)
    assert str(raised.value) == message and raised.value.field_name == field


def test_record_readers_take_an_integer_probability_as_a_float(tmp_path):
    path = tmp_path / "agent.jsonl"
    path.write_text(json.dumps(_record(members=_members(1, 1.0), aggregate=1)) + "\n", encoding="utf-8")
    (record,) = read_record_lines(path)
    assert [type(m["forecast"]) for m in record["members"]] == [float, float]
    assert type(record["aggregate"]) is float and record["aggregate"] == 1.0
    (row,) = read_records(path)
    assert row == RecordRow("q_eth", False, 1.0, [1.0, 1.0])
    assert type(row.aggregate) is float and [type(v) for v in row.values] == [float, float]


def test_score_builds_no_member_or_record_objects(tmp_path, monkeypatch):
    run_dir = tmp_path / "run"
    assert replay_forecast(run_dir) == EXIT_OK
    lines_built = []
    for owner in (cli, models):
        monkeypatch.setattr(owner, "record_line", lambda raw: lines_built.append(raw))
    forecasts_built = []

    def counting(cls, value, _original=Forecast.__new__):
        forecasts_built.append(value)
        return _original(cls, value)

    monkeypatch.setattr(Forecast, "__new__", counting)
    argv = ["score", "--dataset", str(E2E / "questions.jsonl"), "--forecasts", str(run_dir / "forecasts.jsonl"),
            "--bins", "2"]
    assert cli.main(argv) == EXIT_OK
    assert lines_built == []  # score keeps rows, not record lines
    # one Forecast per crowd price and per completed aggregate, none per member
    assert 0 < len(forecasts_built) <= 2 * len(read_questions(E2E / "questions.jsonl"))


def _question(**fields):
    """One resolved question q1, with fields replaced or, given _ABSENT, removed."""
    question = {"id": "q1", "title": "Will the widget ship?", "close_time": "2024-04-30T00:00:00Z",
                "fetched_at": "2024-04-15T00:00:00Z", "crowd_prob": 0.3, "outcome": 1}
    question.update(fields)
    return {key: value for key, value in question.items() if value is not _ABSENT}


# Malformed dataset lines and the messages check_question gives for them.
# Where a line has two faults the message names the one checked first.
MALFORMED_QUESTIONS = [
    ("list", [1, 2], "record: expected an object, got list"),
    ("string", "q1", "record: expected an object, got str"),
    ("no_id", _question(id=_ABSENT), "id: missing question id"),
    ("empty_id", _question(id=""), "id: missing or empty question id"),
    ("blank_id", _question(id="  "), "id: missing or empty question id"),
    ("numeric_id", _question(id=7), "id: missing or empty question id"),
    ("no_title", _question(title=_ABSENT), "title: missing title"),
    ("blank_title", _question(title=" "), "title: missing or empty title"),
    ("null_title", _question(title=None), "title: missing or empty title"),
    ("no_close_time", _question(close_time=_ABSENT), "close_time: missing close_time"),
    ("null_close_time", _question(close_time=None), "close_time: malformed timestamp None"),
    ("bad_close_time", _question(close_time="not a date"), "close_time: malformed timestamp 'not a date'"),
    ("boolean_close_time", _question(close_time=True), "close_time: malformed timestamp True"),
    ("nan_close_time", _question(close_time=float("nan")), "close_time: malformed timestamp nan"),
    ("list_close_time", _question(close_time=[2024]), "close_time: malformed timestamp [2024]"),
    ("bad_fetched_at", _question(fetched_at="yesterday"), "fetched_at: malformed timestamp 'yesterday'"),
    ("fetched_after_close", _question(fetched_at="2024-05-01T00:00:00Z"),
     "fetched_at: fetched_at 2024-05-01T00:00:00Z is after close_time 2024-04-30T00:00:00Z"),
    ("crowd_prob_string", _question(crowd_prob="0.3"), "crowd_prob: expected a number, got '0.3'"),
    ("crowd_prob_true", _question(crowd_prob=True), "crowd_prob: expected a number, got True"),
    ("crowd_prob_1.5", _question(crowd_prob=1.5), "crowd_prob: out of range [0, 1]: 1.5"),
    ("crowd_prob_negative", _question(crowd_prob=-1), "crowd_prob: out of range [0, 1]: -1"),
    ("crowd_prob_nan", _question(crowd_prob=float("nan")), "crowd_prob: out of range [0, 1]: nan"),
    ("outcome_2", _question(outcome=2), "outcome: outcome must be 0 or 1, got 2"),
    ("outcome_half", _question(outcome=0.5), "outcome: outcome must be 0 or 1, got 0.5"),
    ("outcome_true", _question(outcome=True), "outcome: outcome must be 0 or 1, got True"),
    ("outcome_string", _question(outcome="1"), "outcome: outcome must be 0 or 1, got '1'"),
    ("excluded_string", _question(excluded="false"), "excluded: expected true or false, got 'false'"),
    ("excluded_zero", _question(excluded=0), "excluded: expected true or false, got 0"),
    ("excluded_null", _question(excluded=None), "excluded: expected true or false, got None"),
    ("no_title_and_bad_close_time", _question(title=_ABSENT, close_time="soon"), "title: missing title"),
    ("empty_id_and_bad_close_time", _question(id="", close_time="soon"),
     "close_time: malformed timestamp 'soon'"),
    ("blank_title_and_fetched_after_close", _question(title="", fetched_at="2024-05-01T00:00:00Z"),
     "title: missing or empty title"),
    ("fetched_after_close_and_bad_crowd_prob", _question(fetched_at="2024-05-01T00:00:00Z", crowd_prob=2),
     "fetched_at: fetched_at 2024-05-01T00:00:00Z is after close_time 2024-04-30T00:00:00Z"),
    ("bad_crowd_prob_and_bad_outcome", _question(crowd_prob=2, outcome=2), "crowd_prob: out of range [0, 1]: 2"),
    ("bad_outcome_and_bad_excluded", _question(outcome=2, excluded="no"), "outcome: outcome must be 0 or 1, got 2"),
    # the text fields are checked last; before, a non-string reached the agents' task prompt
    ("background_number", _question(background=7), "background: expected a string, got 7"),
    ("resolution_criteria_list", _question(resolution_criteria=["x"]),
     "resolution_criteria: expected a string, got ['x']"),
    ("source_false", _question(source=False), "source: expected a string, got False"),
    ("category_number", _question(category=42), "category: expected a string, got 42"),
    ("bad_excluded_and_bad_background", _question(excluded="no", background=7),
     "excluded: expected true or false, got 'no'"),
    ("bad_source_and_bad_category", _question(source=1, category=[]), "source: expected a string, got 1"),
]


@pytest.mark.parametrize(
    "line, message", [row[1:] for row in MALFORMED_QUESTIONS], ids=[row[0] for row in MALFORMED_QUESTIONS]
)
def test_score_reports_a_malformed_dataset_line_as_validate_question_does(tmp_path, capsys, line, message):
    field, detail = message.split(": ", 1)
    with pytest.raises(ValidationError) as raised:
        check_question(line)
    assert str(raised.value) == message and raised.value.field_name == field
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text(json.dumps(_question(id="q0")) + "\n" + json.dumps(line) + "\n", encoding="utf-8")
    forecasts = tmp_path / "agent.jsonl"
    forecasts.write_text("")
    expected = f"{field}: {dataset}:2: {detail}"
    capsys.readouterr()
    assert cli.main(["score", "--dataset", str(dataset), "--forecasts", str(forecasts)]) == EXIT_FATAL
    assert [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")] == [f"error: {expected}"]
    with pytest.raises(ValidationError) as raised:
        read_questions(dataset)
    assert str(raised.value) == expected and raised.value.field_name == field


def test_score_exits_1_on_a_repeated_question_id_in_the_dataset(tmp_path, capsys):
    # before, the last of the two lines won silently
    dataset = tmp_path / "dataset.jsonl"
    lines = [_question(id="q0", outcome=1), _question(id="q1"), _question(id="q0", outcome=0)]
    dataset.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    forecasts = tmp_path / "agent.jsonl"
    forecasts.write_text(json.dumps(_record(question_id="q0")) + "\n" + json.dumps(_record(question_id="q1")) + "\n")
    out = tmp_path / "scores"
    capsys.readouterr()
    argv = ["score", "--dataset", str(dataset), "--forecasts", str(forecasts), "--out", str(out), "--bins", "1"]
    assert cli.main(argv) == EXIT_FATAL
    assert capsys.readouterr().err.splitlines()[-1] == f"error: id: {dataset}:3: repeated id 'q0', first on line 1"
    assert not out.exists()


def test_score_exits_1_on_a_repeated_question_id_in_a_forecast_file(tmp_path, capsys):
    # before, Brier used the last record and Std averaged over both
    forecasts = tmp_path / "agent.jsonl"
    records = [_record(question_id="q_eth"), _record(question_id="q_btc"),
               _record(question_id="q_eth", members=_members(0.6, 0.9), aggregate=0.75)]
    forecasts.write_text("".join(json.dumps(record) + "\n" for record in records), encoding="utf-8")
    out = tmp_path / "scores"
    capsys.readouterr()
    argv = ["score", "--dataset", str(E2E / "questions.jsonl"), "--forecasts", str(forecasts), "--out", str(out)]
    assert cli.main(argv) == EXIT_FATAL
    expected = f"error: question_id: {forecasts}:3: repeated question_id 'q_eth', first on line 1"
    assert capsys.readouterr().err.splitlines()[-1] == expected
    assert not out.exists()


def test_score_exits_1_on_an_excluded_flag_that_is_not_a_boolean(tmp_path, capsys):
    dataset = tmp_path / "dataset.jsonl"
    lines = (E2E / "questions.jsonl").read_text(encoding="utf-8").splitlines()
    lines[2] = json.dumps({**json.loads(lines[2]), "excluded": "false"})
    dataset.write_text("\n".join(lines) + "\n", encoding="utf-8")
    forecasts = tmp_path / "agent.jsonl"
    forecasts.write_text("")
    capsys.readouterr()
    assert cli.main(["score", "--dataset", str(dataset), "--forecasts", str(forecasts)]) == EXIT_FATAL
    err = capsys.readouterr().err
    assert f"error: excluded: {dataset}:3: expected true or false, got 'false'" in err.splitlines()


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


@pytest.mark.parametrize(
    "line, message",
    [
        ("[1, 2]", "probe: expected an object, got list"),
        ('{"answer_patterns": ["beat"]}', "question: expected a non-empty string, got None"),
        ('{"question": " "}', "question: expected a non-empty string, got ' '"),
        ('{"question": "Who won?", "answer_patterns": "abc"}',
         "answer_patterns: expected a list of non-empty strings, got 'abc'"),
        ('{"question": "Who won?", "answer_patterns": ["beat", 7]}',
         "answer_patterns: expected a list of non-empty strings, got ['beat', 7]"),
        ('{"question": "Who won?", "answer_patterns": [""]}',
         "answer_patterns: expected a list of non-empty strings, got ['']"),
    ],
    ids=["not_an_object", "no_question", "blank_question", "patterns_string", "pattern_number", "pattern_empty"],
)
def test_probe_exits_1_on_a_malformed_line_before_any_request(tmp_path, monkeypatch, capsys, line, message):
    # before, these gave a traceback, or "abc" was matched a character at a
    # time so any reply with an "a" counted as Leaked
    backend = UncallableBackend()
    monkeypatch.setattr(cli, "build_backend", lambda ns, cfg: backend)
    probes = tmp_path / "probes.jsonl"
    probes.write_text('{"question": "Who won the final?", "answer_patterns": ["beat"]}\n' + line + "\n")
    assert cli.main(["probe", "--probes", str(probes)]) == EXIT_FATAL
    field, detail = message.split(": ", 1)
    assert capsys.readouterr().err.splitlines()[-1] == f"error: {field}: {probes}:2: {detail}"
    assert backend.requests == []


def test_probe_reads_lone_surrogates_as_replacement_characters(tmp_path, capsys):
    # a JSON \ud83d escape reached the request fingerprint as it was, and
    # hashing it raised UnicodeEncodeError out of cli.main
    cassette = tmp_path / "probe_cassette.jsonl"
    backend = RecordingBackend(ScriptedBackend(["The \ufffd team won the 2024 race."]), cassette)
    leakage_probe(backend, "Who won \ufffd the 2024 race?", ["\ufffd team won"])
    probes = tmp_path / "probes.jsonl"
    probes.write_text('{"question": "Who won \\ud83d the 2024 race?", "answer_patterns": ["\\ud83d team won"]}\n')
    assert cli.main(["probe", "--probes", str(probes), "--cassette", str(cassette)]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == ["Leaked\tWho won \ufffd the 2024 race?", "probe summary: Leaked: 1"]


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


# --- input encoding --------------------------------------------------------------


def copy_with_a_byte_that_is_not_utf8(source: Path, target: Path) -> Path:
    """`source` copied to `target` with a 0xff byte after the first quote of its second line."""
    first, second, rest = source.read_bytes().split(b"\n", 2)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_bytes(b"\n".join([first, second.replace(b'"', b'"\xff', 1), rest]))
    return target


PACKAGED_PROBES = Path(cli.__file__).parent / "data" / "probes.jsonl"


NOT_UTF8 = "line: {bad}:2: not valid UTF-8"


@pytest.mark.parametrize(
    "source, name, command, error",
    [
        (E2E / "questions.jsonl", "bad.jsonl", "score --dataset {bad} --forecasts {forecasts}", NOT_UTF8),
        (FIXTURES / "e2e_forecast" / "forecasts.jsonl", "bad.jsonl", "score --dataset {questions} --forecasts {bad}",
         NOT_UTF8),
        (FIXTURES / "e2e_forecast" / "forecasts.jsonl", "run/forecasts.jsonl", "forecast {forecast} --out {run}",
         NOT_UTF8),
        (E2E / "search.jsonl", "bad.jsonl", "forecast {forecast} --out {run} --search-fixture {bad}", NOT_UTF8),
        (PACKAGED_PROBES, "bad.jsonl", "probe --probes {bad} --cassette {cassette}", NOT_UTF8),
        (E2E / "cassette.jsonl", "bad.jsonl", "probe --cassette {bad}",
         "{bad}:2: corrupt cassette entry (not valid UTF-8)"),
        (None, "bad.json", "resolve --dataset {questions} --market-fixture {bad}",
         "markets: {bad}:2: not valid UTF-8"),
    ],
    ids=["dataset", "records", "rerun-records", "search-fixture", "probes", "cassette", "market-fixture"],
)
def test_an_input_that_is_not_utf8_exits_1_naming_the_line(tmp_path, monkeypatch, capsys, source, name, command, error):
    # each was a UnicodeDecodeError traceback
    if source is None:
        source = tmp_path / "markets.json"
        source.write_text(json.dumps({"markets": [{"id": "q_eth", "isResolved": False}]}, indent=2))
    bad = copy_with_a_byte_that_is_not_utf8(source, tmp_path / name)
    backend = UncallableBackend()
    monkeypatch.setattr(cli, "HTTPBackend", lambda *args, **kwargs: backend)
    questions = tmp_path / "questions.jsonl"
    questions.write_bytes((E2E / "questions.jsonl").read_bytes())
    forecast = ["--dataset", str(questions), "--cassette", str(E2E / "cassette.jsonl"), "--cutoff", "2024-04-15",
                "--search-fixture", str(E2E / "search.jsonl")]
    paths = {"bad": bad, "forecasts": FIXTURES / "e2e_forecast" / "forecasts.jsonl", "questions": questions,
             "run": tmp_path / "run", "cassette": E2E / "cassette.jsonl"}
    argv = []
    for token in command.split():  # a path stays one argument, spaces and all
        argv += forecast if token == "{forecast}" else [token.format(**paths)]
    assert cli.main(argv) == EXIT_FATAL
    assert capsys.readouterr().err.splitlines()[-1] == "error: " + error.format(bad=bad)
    assert backend.requests == []
    assert questions.read_bytes() == (E2E / "questions.jsonl").read_bytes()


# --- imports -------------------------------------------------------------------


def test_importing_the_cli_loads_neither_numpy_nor_requests(tmp_path):
    # scoring and the live clients both run on the standard library
    code = (
        "import sys, agentcast.cli\n"
        "loaded = lambda: [m for m in ('numpy', 'requests') if m in sys.modules]\n"
        "imported = loaded()\n"
        "code = agentcast.cli.main(sys.argv[1:])\n"
        "print(imported, loaded(), code, file=sys.stderr)\n"
    )
    argv = ["score", "--dataset", str(E2E / "questions.jsonl"), "--forecasts",
            str(FIXTURES / "e2e_forecast" / "forecasts.jsonl"), "--out", str(tmp_path / "scores")]
    src = Path(cli.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, check=True,
                          env={"PYTHONPATH": str(src)})
    assert done.stderr.splitlines()[-1] == f"[] [] {EXIT_OK}"


# stdlib modules that importing the cli and scoring never use
SCORE_UNUSED = ("dataclasses", "inspect", "hashlib", "subprocess", "statistics", "concurrent.futures")


@pytest.mark.parametrize("command, unused", [("score", SCORE_UNUSED), ("forecast", ("dataclasses", "statistics"))])
def test_a_command_loads_none_of_the_stdlib_modules_it_never_calls(tmp_path, command, unused):
    code = (
        "import json, sys, agentcast.cli\n"
        f"loaded = lambda: [m for m in {SCORE_UNUSED!r} if m in sys.modules]\n"
        "imported = loaded()\n"
        "code = agentcast.cli.main(sys.argv[1:])\n"
        "print(json.dumps([imported, loaded(), code]), file=sys.stderr)\n"
    )
    argv = {
        "score": ["--dataset", str(E2E / "questions.jsonl"), "--forecasts",
                  str(FIXTURES / "e2e_forecast" / "forecasts.jsonl"), "--out", str(tmp_path / "scores")],
        "forecast": ["--dataset", str(E2E / "questions.jsonl"), "--out", str(tmp_path / "run"), "--search-fixture",
                     str(E2E / "search.jsonl"), "--cassette", str(E2E / "cassette.jsonl"), "--cutoff", "2024-04-15"],
    }[command]
    src = Path(cli.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", code, command, *argv], capture_output=True, text=True, check=True,
                          env={"PYTHONPATH": str(src)}, timeout=60)
    imported, ran, exit_code = json.loads(done.stderr.splitlines()[-1])
    assert (imported, exit_code) == ([], EXIT_OK)
    assert [m for m in ran if m in unused] == []


# what reading the proxy settings loads; a run with none set loads none of it
PROXY_MODULES = ["http.client", "urllib.request", "email"]


@pytest.mark.parametrize("proxy, loaded", [(None, []), ("http://127.0.0.1:9", PROXY_MODULES)], ids=["direct", "proxy"])
def test_resolve_loads_the_proxy_modules_only_when_a_proxy_is_set(tmp_path, loopback, proxy, loaded):
    def route(method, target):
        return 200, {}, {"id": target.rsplit("/", 1)[-1], "isResolved": True, "resolution": "YES"}

    loopback.route = route
    dataset = tmp_path / "dataset.jsonl"
    write_questions(dataset, [make_question(qid=f"m{i}", source="market") for i in range(2)])
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"market_base_url": loopback.url}))
    code = (
        "import json, sys, agentcast.cli\n"
        "code = agentcast.cli.main(sys.argv[1:])\n"
        f"print(json.dumps([[m for m in {PROXY_MODULES!r} if m in sys.modules], code]), file=sys.stderr)\n"
    )
    env = {"PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    if proxy:  # no_proxy exempts the loopback market, so the proxy is read but not used
        env.update(http_proxy=proxy, no_proxy="127.0.0.1")
    argv = ["resolve", "--dataset", str(dataset), "--config", str(config)]
    done = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, check=True, env=env,
                          timeout=60)
    assert json.loads(done.stderr.splitlines()[-1]) == [loaded, EXIT_OK]
    assert "resolved 2, pending 0" in done.stdout
    assert sorted(r[1] for r in loopback.requests) == ["/market/m0", "/market/m1"]


@pytest.mark.parametrize("caller_had_it_on", [True, False])
def test_score_restores_the_collector_on_every_exit(tmp_path, monkeypatch, caller_had_it_on):
    good = _record(members=_members(0.2, 0.4), aggregate=0.3)
    malformed = tmp_path / "malformed.jsonl"
    malformed.write_text(json.dumps(good) + "\n" + json.dumps(_record(aggregate=-0.1)) + "\n", encoding="utf-8")
    unresolved = tmp_path / "unresolved.jsonl"
    write_questions(unresolved, [make_question(qid="open1")])
    questions = str(E2E / "questions.jsonl")
    # exit code, and the collector's state each time the drop rule ran
    runs = [
        (["--dataset", questions, "--forecasts", str(FIXTURES / "e2e_forecast" / "forecasts.jsonl")], EXIT_OK, [False]),
        (["--dataset", questions, "--forecasts", str(malformed)], EXIT_FATAL, []),
        (["--dataset", str(unresolved), "--forecasts", str(malformed)], EXIT_EMPTY, []),
    ]
    seen = []
    apply_drop_rule = cli.apply_drop_rule

    def watched(*args):
        seen.append(gc.isenabled())
        return apply_drop_rule(*args)

    monkeypatch.setattr(cli, "apply_drop_rule", watched)
    was_enabled = gc.isenabled()
    try:
        for args, code, while_scoring in runs:
            seen.clear()
            gc.enable() if caller_had_it_on else gc.disable()
            assert cli.main(["score", *args]) == code
            assert seen == while_scoring
            assert gc.isenabled() is caller_had_it_on
    finally:
        gc.enable() if was_enabled else gc.disable()


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
    argv = ["resolve", "--dataset", str(dataset), "--config", str(config), "--workers", "1"]
    assert cli.main(argv) == EXIT_OK
    assert "resolved 6, pending 0, excluded 0" in capsys.readouterr().out
    # --workers 1 keeps 1 x ensemble markets in flight, so at most that many connections
    assert len(loopback.requests) == 6 and 1 <= loopback.accepts <= RunConfig().ensemble_size
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


# --- exit ----------------------------------------------------------------------


def run_cli_child(code: str, *argv: str, **env: str) -> subprocess.CompletedProcess:
    src = Path(cli.__file__).resolve().parents[1]
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, check=True,
                          env={"PYTHONPATH": str(src), **env}, timeout=60)


def test_exit_hooks_registered_before_main_see_the_collector_frozen(tmp_path):
    code = (
        "import atexit, gc, sys\n"
        "freezes, freeze = [], gc.freeze\n"
        "gc.freeze = lambda: freezes.append(1) or freeze()\n"
        "atexit.register(lambda: print('at exit', len(freezes), gc.get_freeze_count() > 0, file=sys.stderr))\n"
        "import agentcast.cli\n"
        "codes = [agentcast.cli.main(sys.argv[1:]) for _ in range(2)]\n"
        "print(codes, len(freezes), file=sys.stderr)\n"
    )
    argv = ["score", "--dataset", str(E2E / "questions.jsonl"), "--forecasts",
            str(FIXTURES / "e2e_forecast" / "forecasts.jsonl"), "--out", str(tmp_path / "scores")]
    lines = run_cli_child(code, *argv).stderr.splitlines()
    # nothing frozen until exit, and then once however often main ran
    assert lines[-2:] == [f"[{EXIT_OK}, {EXIT_OK}] 0", "at exit 1 True"]


# the committed cassette stands in for the live model, so the recording run
# makes the same calls the committed run did
RECORD_FROM_THE_COMMITTED_CASSETTE = (
    "import sys\n"
    "from agentcast import cli, llm\n"
    "cli.HTTPBackend = lambda *args, **kwargs: llm.ReplayBackend.from_file(sys.argv[1])\n"
    "sys.exit(cli.main(sys.argv[2:]))\n"
)


def test_a_recording_process_leaves_a_whole_cassette_at_exit(tmp_path):
    out = tmp_path / "run"
    cassette = tmp_path / "cassette.jsonl"
    run_cli_child(
        RECORD_FROM_THE_COMMITTED_CASSETTE, str(E2E / "cassette.jsonl"),
        "forecast", "--dataset", str(E2E / "questions.jsonl"), "--out", str(out), "--search-fixture",
        str(E2E / "search.jsonl"), "--cutoff", "2024-04-15", "--cassette", str(cassette), "--record",
        LLM_API_KEY="key", LLM_BASE_URL="http://127.0.0.1:9",
    )
    entries = [json.loads(line) for line in cassette.read_text(encoding="utf-8").splitlines()]
    assert len(entries) == json.loads((out / "manifest.json").read_text())["token_usage"]["calls"] == 29
    committed = [json.loads(line) for line in (E2E / "cassette.jsonl").read_text(encoding="utf-8").splitlines()]
    keys = lambda lines: sorted((str(e["lane"]), e["fingerprint"]) for e in lines)
    assert keys(entries) == keys(committed)  # every committed fingerprint, made again
    assert run_outputs(out) == run_outputs(FIXTURES / "e2e_forecast")
