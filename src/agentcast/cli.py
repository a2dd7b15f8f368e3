"""Operator CLI: curate a dataset from a prediction market, resolve outcomes,
run forecasting agents over it, score the results, and probe a model for
training-data leakage past the cutoff.

Exit codes: 0 success, 1 fatal configuration or API error, 2 empty result
(nothing fetched, nothing scorable, no probes).
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import logging
import math
import os
import sys
import time
from contextlib import closing
from datetime import date
from pathlib import Path
from typing import Any, Callable, NamedTuple

from .hierarchy import (
    TranscriptTree,
    default_planner,
    forecast_one,
    save_transcript_tree,
    single_agent_config,
    write_tree_index,
)
from .llm import (
    DEFAULT_TEMPERATURE,
    AuthError,
    Backend,
    BackendError,
    CassetteError,
    CassetteMiss,
    RateLimiter,
    RecordingBackend,
    ReplayBackend,
    HTTPBackend,
    UsageMeter,
    close_connections,
    fan_out,
    in_lane,
    leakage_probe,
)
from .market import (
    DEFAULT_MARKET_BASE_URL,
    MARKET_RATE_LIMIT_RPM,
    FixtureMarketClient,
    LiveMarketClient,
    MarketClient,
    MarketError,
    backfill_resolutions,
    category_frequencies,
    curate_markets,
    fetch_window,
    render_category_table,
)
from .metrics import (
    CalibrationReport,
    MetricError,
    ScoreRow,
    TooFewForecasts,
    aggregate,
    apply_drop_rule,
    brier,
    accuracy,
    calibration_index,
    ensemble_std,
    render_calibration_table,
    render_score_table,
)
from .models import (
    AGGREGATORS,
    Declined,
    Forecast,
    Question,
    RecordRow,
    ValidationError,
    format_timestamp,
    loads,
    parse_timestamp,
    read_checked,
    read_questions,
    read_record_lines,
    read_records,
    record_line,
    utc_now,
    write_jsonl,
    write_questions,
    write_records,
)
from .tools import (
    DEFAULT_OBSERVATION_BUDGET,
    DEFAULT_RESULTS_PER_SEARCH,
    FixtureSearchProvider,
    LiveSearchProvider,
    SearchMemo,
    SearchProvider,
)

logger = logging.getLogger(__name__)


class ConfigError(Exception):
    """Bad flags, config file, or environment; the run cannot start."""


EXIT_OK = 0
EXIT_FATAL = 1
EXIT_EMPTY = 2


# --- configuration -----------------------------------------------------------


# the model latency, in seconds, at which the default in-flight still keeps
# the rate budget busy, and the most requests that default ever asks for
_LATENCY_CEILING_S = 10
_MAX_IN_FLIGHT = 32


class _RunConfigFields(NamedTuple):
    model_id: str = "default"
    temperature: float = DEFAULT_TEMPERATURE
    ensemble_size: int = 3
    aggregator: str = "median"
    bins: int = 10
    seed: int = 0
    workers: int | None = None
    max_iterations: int = 10
    worker_iterations: int = 10
    observation_budget: int = DEFAULT_OBSERVATION_BUDGET
    results_per_search: int = DEFAULT_RESULTS_PER_SEARCH
    context_token_limit: int | None = None
    sandbox_timeout: float = 10.0
    rate_limit_rpm: float = 60.0
    llm_base_url: str | None = None
    search_base_url: str | None = None
    market_base_url: str = DEFAULT_MARKET_BASE_URL
    cutoff: str | None = None


class RunConfig(_RunConfigFields):
    """Run-wide knobs: defaults < JSON config file < flags, checked once on the merged values."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.ensemble_size < 1:
            raise ConfigError(f"ensemble size must be at least 1, got {self.ensemble_size}")
        if self.workers is not None and self.workers < 1:
            raise ConfigError(f"workers must be at least 1, got {self.workers}")
        if not 0 <= self.temperature < math.inf:
            raise ConfigError(f"temperature must be finite and non-negative, got {self.temperature}")
        for key in ("max_iterations", "worker_iterations", "bins", "results_per_search", "observation_budget"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be at least 1, got {getattr(self, key)}")
        if self.context_token_limit is not None and self.context_token_limit < 1:
            raise ConfigError(f"context_token_limit must be at least 1 or null, got {self.context_token_limit}")
        for key in ("sandbox_timeout", "rate_limit_rpm"):
            if not 0 < getattr(self, key) < math.inf:
                raise ConfigError(f"{key} must be finite and positive, got {getattr(self, key)}")
        if self.aggregator not in AGGREGATORS:
            raise ConfigError(f"unknown aggregator {self.aggregator!r} (expected one of {', '.join(AGGREGATORS)})")
        if self.cutoff and (cutoff := self.cutoff_date()) > date.today():
            raise ConfigError(f"cutoff {cutoff} lies in the future")
        return self

    @property
    def in_flight(self) -> int:
        """Requests forecast and curate keep in flight against the model's
        budget: 12 at 60 rpm with an ensemble of 3."""
        return self.in_flight_at(self.rate_limit_rpm)

    def in_flight_at(self, rate_limit_rpm: float) -> int:
        """Requests to keep in flight against a budget of `rate_limit_rpm`.
        With `workers` set, that many questions times their ensemble members.
        Unset, enough to keep the budget busy at a latency of
        `_LATENCY_CEILING_S` by Little's law, at most `_MAX_IN_FLIGHT`, then
        rounded up to whole questions."""
        if self.workers is not None:
            return self.workers * self.ensemble_size
        # capped before rounding, so a huge finite rpm cannot overflow
        requests = min(_MAX_IN_FLIGHT, rate_limit_rpm * _LATENCY_CEILING_S / 60)
        return math.ceil(requests / self.ensemble_size) * self.ensemble_size

    def cutoff_date(self) -> date:
        if not self.cutoff:
            raise ConfigError("no cutoff date configured (use --cutoff or the config file)")
        try:
            return date.fromisoformat(self.cutoff)
        except ValueError:
            raise ConfigError(f"malformed cutoff date {self.cutoff!r} (expected YYYY-MM-DD)") from None


# the JSON values each RunConfig annotation accepts; true and false fit none
_JSON_TYPES = {"str": str, "int": int, "float": (int, float), "None": type(None)}


def load_config(path: str | Path) -> dict:
    try:
        raw = loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except ValueError as exc:  # bad JSON, bytes that are not UTF-8, or an int past the digit limit
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    # each field's annotation as written, such as "int | None"
    types = {name: hint.__forward_arg__ for name, hint in _RunConfigFields.__annotations__.items()}
    unknown = sorted(set(raw) - set(types))
    if unknown:
        raise ConfigError(f"unknown config keys in {path}: {', '.join(unknown)}")
    for key, value in raw.items():
        accepted = tuple(_JSON_TYPES[name] for name in types[key].split(" | "))
        if isinstance(value, bool) or not isinstance(value, accepted):
            raise ConfigError(f"config {path}: {key} must be {types[key]}, got {json.dumps(value)}")
        if types[key] == "float":
            try:
                raw[key] = float(value)  # so `1` and `1.0` make the same requests
            except OverflowError:
                raise ConfigError(f"config {path}: {key} is too large for a float") from None
    return raw


def resolve_config(ns: argparse.Namespace) -> RunConfig:
    """Lay every RunConfig field a flag set (not None) over the file's values, then check them once."""
    values = load_config(ns.config) if ns.config else {}
    for name in RunConfig._fields:
        if getattr(ns, name, None) is not None:
            values[name] = getattr(ns, name)
    return RunConfig(**values)


def _require_env(name: str) -> str:
    value = os.environ.get(name, "")
    if not value:
        raise ConfigError(f"environment variable {name} is not set")
    return value


def build_backend(ns: argparse.Namespace, cfg: RunConfig) -> Backend:
    """Replay when a cassette is given (unless recording), else live HTTP,
    optionally wrapped to record."""
    if ns.cassette and not ns.record:
        return ReplayBackend.from_file(ns.cassette)
    api_key = _require_env("LLM_API_KEY")
    base_url = cfg.llm_base_url or os.environ.get("LLM_BASE_URL", "")
    if not base_url:
        raise ConfigError("no LLM base URL (set LLM_BASE_URL or llm_base_url in the config)")
    backend = HTTPBackend(base_url, api_key, rate_limiter=RateLimiter(cfg.rate_limit_rpm))
    if ns.record:
        if not ns.cassette:
            raise ConfigError("--record needs --cassette PATH to write to")
        return RecordingBackend(backend, ns.cassette)
    return backend


def build_search_provider(ns: argparse.Namespace, cfg: RunConfig) -> SearchProvider:
    if ns.search_fixture:
        return FixtureSearchProvider.from_file(ns.search_fixture)
    api_key = _require_env("SEARCH_API_KEY")
    if not cfg.search_base_url:
        raise ConfigError("no search base URL (set search_base_url in the config)")
    return LiveSearchProvider(
        cfg.search_base_url, api_key, rate_limiter=RateLimiter(cfg.rate_limit_rpm)
    )


def build_market_client(ns: argparse.Namespace, cfg: RunConfig) -> MarketClient:
    if ns.market_fixture:
        return FixtureMarketClient.from_file(ns.market_fixture)
    return LiveMarketClient(cfg.market_base_url, rate_limiter=RateLimiter(MARKET_RATE_LIMIT_RPM))


# --- forecast ------------------------------------------------------------------

MemberRunner = Callable[[Question], "tuple[Forecast | Declined, TranscriptTree]"]


def run_forecast(
    dataset: list[Question],
    run_member: MemberRunner,
    out_dir: str | Path,
    *,
    ensemble_size: int,
    aggregator_mode: str,
    seed: int,
    workers: int = 1,
    config_echo: dict | None = None,
    usage: UsageMeter | None = None,
    memo: SearchMemo | None = None,
) -> dict[str, str]:
    """Run the ensemble over every question and persist records, transcripts
    and a manifest.

    Every (question, member) pair is one task; `workers` is how many run at
    once, and results come back in dataset and member order. Each member
    runs in its own lane, so record/replay stays deterministic at any
    `workers`. A question's record and transcript index are built once its
    last member is back; then `memo`, the search memo its members share,
    forgets it, whether the question ended in a record or an error.

    A member that raises a backend error ends the run: queued members do
    not start and the error propagates. Any other failure marks only its
    question as an error, and that question's queued members do not start.

    Questions that already have a record in the output file are skipped.
    New and kept records alike go through `record_line`, so they are checked
    as `score` checks them and written in one form. The records file and the
    manifest are written only once every question is back, so a run that is
    interrupted or ends on a fatal error adds no records, and its rerun starts
    every question that had none. The records file is rewritten in dataset
    order, which keeps reruns byte-identical regardless of worker scheduling.
    The manifest's token usage is read from `usage` and its count of search
    results dropped at the cutoff from `memo`.
    Returns question id -> terminal status (forecasted, declined or error).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records_path = out_dir / "forecasts.jsonl"
    transcripts_dir = out_dir / "transcripts"
    started = time.monotonic()

    results: dict[str, dict] = {}
    if records_path.exists():
        ids = {q.id for q in dataset}
        results = {r["question_id"]: r for r in read_record_lines(records_path) if r["question_id"] in ids}
    errors: dict[str, str] = {}
    pending = [q for q in dataset if q.id not in results]

    def run_one(job: tuple[Question, int]) -> tuple[Forecast | Declined, str, list[dict]] | None:
        question, m = job
        if question.id in errors:
            return None  # a sibling member failed; the question is an error already
        try:
            with in_lane(question.id, m):
                outcome, tree = run_member(question)
            ref, entries = save_transcript_tree(tree, transcripts_dir, question.id, m)
        except BackendError:
            raise  # a rejected key or a cassette fault ends the run
        except Exception as exc:
            logger.exception("question %s failed", question.id)
            errors.setdefault(question.id, f"{type(exc).__name__}: {exc}")
            return None
        return outcome, ref, entries

    def finish(question: Question, outcomes: list[tuple[Forecast | Declined, str, list[dict]]]) -> None:
        write_tree_index(transcripts_dir, question.id, [e for *_, entries in outcomes for e in entries])
        members = [
            {"member_index": m, "transcript_ref": ref}
            | ({"forecast": o.value} if isinstance(o, Forecast) else {"declined": True, "reason": o.reason})
            for m, (o, ref, _) in enumerate(outcomes)
        ]
        record = {"question_id": question.id, "aggregator": aggregator_mode, "members": members}
        forecasts = [o for o, _, _ in outcomes if isinstance(o, Forecast)]
        if len(forecasts) == len(outcomes):
            record["aggregate"] = aggregate(forecasts, aggregator_mode, seed=f"{seed}:{question.id}").value
        results[question.id] = record_line(record)

    jobs = [(q, m) for q in pending for m in range(ensemble_size)]
    with closing(fan_out(run_one, jobs, workers)) as outcomes:
        for question in pending:
            members = [next(outcomes) for _ in range(ensemble_size)]
            if question.id not in errors:
                finish(question, members)
            if memo:
                memo.forget(question.id)

    statuses = {
        q.id: "error" if q.id not in results else "declined" if results[q.id]["declined"] else "forecasted"
        for q in dataset
    }
    write_records(records_path, [results[q.id] for q in dataset if q.id in results])
    manifest = {
        "config": config_echo or {},
        "questions": statuses,
        "errors": errors,
        "token_usage": {
            "calls": usage.calls if usage else 0,
            "prompt_tokens": usage.prompt_tokens if usage else 0,
            "completion_tokens": usage.completion_tokens if usage else 0,
        },
        "search_results_dropped": memo.dropped if memo else 0,
        "wall_time_s": round(time.monotonic() - started, 3),
        "finished_at": format_timestamp(utc_now()),
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
    )
    return statuses


def make_member_runner(
    cfg: RunConfig, backend: Backend, search: SearchProvider, *, single_agent: bool = False
) -> MemberRunner:
    """Build the per-member forecasting callable exactly as the forecast
    command wires it; the fixture generator uses this too, so recorded
    cassettes replay against identical request fingerprints.

    The forecast command passes a `SearchMemo` as `search`, and the same
    memo to `run_forecast`, so members of one question that search
    identically make one provider request and get identical results."""
    build = single_agent_config if single_agent else default_planner
    config = build(search, cfg)
    return lambda question: forecast_one(config, backend, question)


def cmd_forecast(ns: argparse.Namespace) -> int:
    cfg = resolve_config(ns)
    cutoff = cfg.cutoff_date()
    dataset = read_questions(ns.dataset)
    if not dataset:
        print("dataset is empty; nothing to forecast", file=sys.stderr)
        return EXIT_EMPTY
    backend = UsageMeter(build_backend(ns, cfg))
    memo = SearchMemo(build_search_provider(ns, cfg))
    run_member = make_member_runner(cfg, backend, memo, single_agent=ns.single_agent)

    config_echo = {
        "cutoff": cutoff.isoformat(),
        "ensemble_size": cfg.ensemble_size,
        "aggregator": cfg.aggregator,
        "seed": cfg.seed,
        "model_id": cfg.model_id,
        "temperature": cfg.temperature,
        "single_agent": bool(ns.single_agent),
        "in_flight": cfg.in_flight,
        "rate_limit_rpm": cfg.rate_limit_rpm,
    }
    statuses = run_forecast(
        dataset,
        run_member,
        ns.out,
        ensemble_size=cfg.ensemble_size,
        aggregator_mode=cfg.aggregator,
        seed=cfg.seed,
        workers=cfg.in_flight,
        config_echo=config_echo,
        usage=backend,
        memo=memo,
    )
    if memo.dropped:
        logger.warning("dropped %d search results published on/after %s", memo.dropped, cutoff)
    counts = {status: sum(1 for s in statuses.values() if s == status) for status in set(statuses.values())}
    print(
        f"forecast complete: {counts.get('forecasted', 0)} forecasted, "
        f"{counts.get('declined', 0)} declined, {counts.get('error', 0)} errors "
        f"-> {Path(ns.out) / 'forecasts.jsonl'}"
    )
    return EXIT_OK


# --- curate / resolve ------------------------------------------------------------


def cmd_curate(ns: argparse.Namespace) -> int:
    cfg = resolve_config(ns)
    try:
        from_date = date.fromisoformat(ns.from_date)
        to_date = date.fromisoformat(ns.to_date)
    except ValueError as exc:
        raise ConfigError(f"malformed window date: {exc}") from None
    if from_date > to_date:
        raise ConfigError(f"empty window: {from_date} is after {to_date}")
    at = parse_timestamp(ns.at, "at") if ns.at else utc_now()
    client = build_market_client(ns, cfg)
    # a market that closed before `at` fails here, after paging and before any request
    fetched = fetch_window(client, from_date, to_date, at)
    if not fetched:
        write_questions(ns.out, [])
        print(f"no binary markets close in [{from_date}, {to_date}]; wrote empty dataset", file=sys.stderr)
        return EXIT_EMPTY
    curated = curate_markets(build_backend(ns, cfg), fetched, model_id=cfg.model_id, workers=cfg.in_flight)
    questions = []
    audit = []
    for question, (verdict, category) in zip(fetched, curated):
        audit.append(
            {
                "market_id": question.id,
                "question": question.title,
                "verdict": verdict.verdict,
                "judge_reply": verdict.judge_reply,
            }
        )
        if verdict.keep:
            questions.append(question._replace(category=category))
    write_questions(ns.out, questions)
    audit_path = Path(ns.out).with_suffix(".audit.jsonl")
    write_jsonl(audit_path, audit)
    print(f"fetched {len(fetched)} binary markets, kept {len(questions)}, dropped {len(fetched) - len(questions)}")
    print(render_category_table(category_frequencies(questions)), end="")
    print(f"dataset -> {ns.out}\naudit -> {audit_path}")
    return EXIT_OK


def cmd_resolve(ns: argparse.Namespace) -> int:
    cfg = resolve_config(ns)
    client = build_market_client(ns, cfg)
    # the market API's budget sets this pace, not the model's
    summary = backfill_resolutions(client, ns.dataset, workers=cfg.in_flight_at(MARKET_RATE_LIMIT_RPM))
    print(f"resolved {summary.resolved}, pending {summary.pending}, excluded {summary.excluded}")
    return EXIT_OK


# --- score -----------------------------------------------------------------------


def cmd_score(ns: argparse.Namespace) -> int:
    # Reading leaves tens of thousands of long-lived rows for the cyclic
    # collector to walk again and again, while scoring frees what it makes by
    # reference count; so the collector is off while scoring, then restored
    # as the caller had it.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return run_score(ns)
    finally:
        if was_enabled:
            gc.enable()


def run_score(ns: argparse.Namespace) -> int:
    cfg = resolve_config(ns)
    dataset = read_questions(ns.dataset)
    outcomes = {q.id: q.outcome for q in dataset if q.outcome is not None and not q.excluded}
    unresolved = sum(1 for q in dataset if q.outcome is None and not q.excluded)
    excluded = sum(1 for q in dataset if q.excluded)
    if unresolved or excluded:
        print(f"skipping {unresolved} unresolved and {excluded} excluded questions", file=sys.stderr)
    if not outcomes:
        print("no resolved questions; nothing to score", file=sys.stderr)
        return EXIT_EMPTY

    method_maps: dict[str, dict[str, Forecast | Declined]] = {}
    method_records: dict[str, list[RecordRow]] = {}

    crowd_available = any(q.crowd_prob is not None for q in dataset if q.id in outcomes)
    if crowd_available:
        method_maps["crowd"] = {
            q.id: (Forecast(q.crowd_prob) if q.crowd_prob is not None else Declined("no crowd price"))
            for q in dataset
            if q.id in outcomes
        }

    for path in ns.forecasts:
        label = Path(path).stem
        if label in method_maps:
            raise ConfigError(f"method label {label!r} is taken twice; give each --forecasts file its own stem")
        records = read_records(path)
        fmap: dict[str, Forecast | Declined] = {}
        for record in records:
            if record.question_id not in outcomes:
                continue
            fmap[record.question_id] = Declined("declined") if record.declined else Forecast(record.aggregate)
        missing = set(outcomes) - set(fmap)
        if missing:
            print(f"{label}: no record for {len(missing)} resolved questions; treating as declined", file=sys.stderr)
            for qid in missing:
                fmap[qid] = Declined("missing")
        method_maps[label] = fmap
        method_records[label] = records

    scored, dropped = apply_drop_rule(method_maps, outcomes)
    sample = next(iter(scored.values()))
    if len(sample) == 0:
        print(f"all {len(dropped)} questions were dropped; nothing to score", file=sys.stderr)
        return EXIT_EMPTY
    survivors = set(sample.question_ids)

    rows = []
    reports: list[CalibrationReport] = []
    score_lines = []
    for label in method_maps:
        sset = scored[label]
        std = None
        if label in method_records:
            completed = (r.values for r in method_records[label] if r.question_id in survivors and not r.declined)
            std = ensemble_std(completed)
        row = ScoreRow(method_label=label, brier=brier(sset), accuracy=accuracy(sset), std=std)
        rows.append(row)
        score_lines.append(
            {
                "method": label,
                "brier": row.brier,
                "accuracy": row.accuracy,
                "std": std,
                "n": len(sset),
            }
        )
        try:
            reports.append(calibration_index(sset, k=cfg.bins))
        except TooFewForecasts as exc:
            print(f"{label}: cannot compute calibration ({exc})", file=sys.stderr)

    score_table = render_score_table(rows)
    calibration_table = render_calibration_table(reports)
    print(f"scored {len(sample)} questions ({len(dropped)} dropped by the decline rule)\n")
    print(score_table)
    print(calibration_table, end="")

    if ns.out:
        out_dir = Path(ns.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "report.txt").write_text(score_table + "\n" + calibration_table, encoding="utf-8")
        write_jsonl(out_dir / "scores.jsonl", score_lines)
        write_jsonl(
            out_dir / "calibration.jsonl",
            (
                {
                    "method": report.method_label,
                    "k": report.k,
                    "index": report.index,
                    "bins": [
                        {"count": b.count, "mean_forecast": b.mean_forecast, "observed_freq": b.observed_freq}
                        for b in report.bins
                    ],
                }
                for report in reports
            ),
        )
        print(f"report -> {out_dir / 'report.txt'}")
    return EXIT_OK


# --- probe -----------------------------------------------------------------------


def check_probe(raw: Any) -> tuple[str, list[str]]:
    """One probe line: an object with a non-empty question and, optionally,
    answer_patterns as a list of non-empty strings (an empty pattern would
    match every reply)."""
    if not isinstance(raw, dict):
        raise ValidationError("probe", f"expected an object, got {type(raw).__name__}")
    question = raw.get("question")
    if not isinstance(question, str) or not question.strip():
        raise ValidationError("question", f"expected a non-empty string, got {question!r}")
    patterns = raw.get("answer_patterns", [])
    if not isinstance(patterns, list) or not all(isinstance(p, str) and p for p in patterns):
        raise ValidationError("answer_patterns", f"expected a list of non-empty strings, got {patterns!r}")
    return question, patterns


def cmd_probe(ns: argparse.Namespace) -> int:
    from importlib import resources

    cfg = resolve_config(ns)
    with resources.as_file(resources.files("agentcast").joinpath("data/probes.jsonl")) as packaged:
        probes = read_checked(ns.probes or packaged, check_probe)
    if not probes:
        print("no probes to run", file=sys.stderr)
        return EXIT_EMPTY
    counts: dict[str, int] = {}
    backend = build_backend(ns, cfg)
    for question, patterns in probes:
        result, _reply = leakage_probe(backend, question, patterns, model_id=cfg.model_id, temperature=cfg.temperature)
        counts[result.value] = counts.get(result.value, 0) + 1
        print(f"{result.value}\t{question}")
    summary = ", ".join(f"{k}: {v}" for k, v in sorted(counts.items()))
    print(f"probe summary: {summary}")
    return EXIT_OK


# --- argument parsing ---------------------------------------------------------------


# the flags several commands share; a config flag's dest is its RunConfig field
_SHARED_FLAGS = {
    "--config": {"help": "JSON config file"},
    "--cassette": {"help": "cassette file: replay from it, or record into it with --record"},
    "--record": {"action": "store_true", "help": "record live responses into --cassette"},
    "--cutoff": {"help": "forecast cutoff date (YYYY-MM-DD)"},
    "--ensemble": {"dest": "ensemble_size", "type": int, "help": "ensemble members per question"},
    "--aggregator": {"choices": AGGREGATORS, "help": "ensemble aggregation"},
    "--bins": {"type": int, "help": "calibration bin count"},
    "--seed": {"type": int, "help": "seed for sampled aggregation"},
    "--workers": {
        "type": int,
        "help": "questions (forecast) or N x ensemble markets (curate, resolve) in flight "
        "(default: enough to fill rate_limit_rpm, or the market API's budget for resolve)",
    },
}


def _add_shared(parser: argparse.ArgumentParser, *flags: str) -> None:
    """Add --config and the given shared flags; argparse rejects the flags a command does not read."""
    for flag in ("--config", *flags):
        parser.add_argument(flag, **_SHARED_FLAGS[flag])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agentcast",
        description="Forecasting agents over prediction-market questions: curate, resolve, forecast, score, probe.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("curate", help="fetch and filter markets into a dataset")
    p.add_argument("--from", dest="from_date", required=True, help="window start (YYYY-MM-DD, close date)")
    p.add_argument("--to", dest="to_date", required=True, help="window end (YYYY-MM-DD, inclusive)")
    p.add_argument("--out", required=True, help="dataset JSONL to write")
    p.add_argument("--at", help="snapshot timestamp (defaults to now, UTC)")
    p.add_argument("--market-fixture", help="serve markets from a fixture file instead of the live API")
    _add_shared(p, "--cassette", "--record", "--ensemble", "--workers")
    p.set_defaults(func=cmd_curate)

    p = sub.add_parser("resolve", help="backfill outcomes for a dataset")
    p.add_argument("--dataset", required=True, help="dataset JSONL to update in place")
    p.add_argument("--market-fixture", help="serve markets from a fixture file")
    _add_shared(p, "--ensemble", "--workers")
    p.set_defaults(func=cmd_resolve)

    p = sub.add_parser("forecast", help="run the agent ensemble over a dataset")
    p.add_argument("--dataset", required=True, help="dataset JSONL to forecast")
    p.add_argument("--out", required=True, help="output directory (records, transcripts, manifest)")
    p.add_argument("--search-fixture", help="serve search results from a fixture file")
    p.add_argument("--single-agent", action="store_true", help="flat agent with raw tools (ablation)")
    _add_shared(p, "--cassette", "--record", "--cutoff", "--ensemble", "--aggregator", "--seed", "--workers")
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("score", help="score forecast records against resolved outcomes")
    p.add_argument("--dataset", required=True, help="resolved dataset JSONL")
    p.add_argument("--forecasts", nargs="+", required=True, help="forecast record files (label = file stem)")
    p.add_argument("--out", help="directory for report.txt and score files")
    _add_shared(p, "--bins")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("probe", help="check a model for knowledge past the cutoff")
    p.add_argument("--probes", help="probe questions JSONL (default: packaged probes)")
    _add_shared(p, "--cassette", "--record")
    p.set_defaults(func=cmd_probe)

    return parser


def main(argv: list[str] | None = None) -> int:
    # At exit the interpreter's collector walks every object the run made,
    # though nothing needs it to: every file, socket, child process and temp
    # dir is closed before main returns. It skips frozen objects. Unregistering
    # first keeps one hook however often main runs in a process.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
    except (
        ConfigError,
        CassetteError,
        CassetteMiss,
        AuthError,
        ValidationError,
        MetricError,
        MarketError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FATAL
    except BackendError as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return EXIT_FATAL
    finally:
        close_connections()


if __name__ == "__main__":
    sys.exit(main())
