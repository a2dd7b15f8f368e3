"""Operator CLI: curate a dataset from a prediction market, resolve outcomes,
run forecasting agents over it, score the results, and probe a model for
training-data leakage past the cutoff.

Exit codes: 0 success, 1 fatal configuration or API error, 2 empty result
(nothing fetched, nothing scorable, no probes).
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass, fields, replace
from datetime import date
from importlib import resources
from pathlib import Path
from typing import Callable

from .hierarchy import (
    TranscriptTree,
    default_planner,
    forecast_one,
    save_transcript_tree,
    single_agent_config,
    write_tree_index,
)
from .llm import (
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
    in_lane,
    leakage_probe,
)
from .market import (
    DEFAULT_MARKET_BASE_URL,
    FixtureMarketClient,
    LiveMarketClient,
    MarketClient,
    MarketError,
    backfill_resolutions,
    category_frequencies,
    curate_markets,
    fetch_window,
    render_category_table,
    snapshot,
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
    Declined,
    Forecast,
    ForecastRecord,
    MemberForecast,
    Question,
    ValidationError,
    format_timestamp,
    parse_timestamp,
    read_jsonl,
    read_questions,
    read_records,
    utc_now,
    write_jsonl,
    write_records,
)
from .tools import FixtureSearchProvider, LiveSearchProvider, Sandbox, SearchProvider

logger = logging.getLogger(__name__)


class ConfigError(Exception):
    """Bad flags, config file, or environment; the run cannot start."""


EXIT_OK = 0
EXIT_FATAL = 1
EXIT_EMPTY = 2


# --- configuration -----------------------------------------------------------


@dataclass
class RunConfig:
    """Run-wide knobs, loadable from a JSON config file; flags win over file
    values, file values win over these defaults."""

    model_id: str = "default"
    temperature: float = 0.5
    ensemble_size: int = 3
    aggregator: str = "median"
    bins: int = 10
    seed: int = 0
    workers: int = 1
    max_iterations: int = 10
    worker_iterations: int = 10
    observation_budget: int = 4000
    results_per_search: int = 8
    context_token_limit: int | None = None
    sandbox_timeout: float = 10.0
    rate_limit_rpm: float = 60.0
    llm_base_url: str | None = None
    search_base_url: str | None = None
    market_base_url: str = DEFAULT_MARKET_BASE_URL
    cutoff: str | None = None

    @property
    def in_flight(self) -> int:
        """Requests kept in flight: `workers` questions times their ensemble
        members in forecast, and that many markets in curate and resolve."""
        return self.workers * self.ensemble_size

    def cutoff_date(self) -> date:
        if not self.cutoff:
            raise ConfigError("no cutoff date configured (use --cutoff or the config file)")
        try:
            parsed = date.fromisoformat(self.cutoff)
        except ValueError:
            raise ConfigError(f"malformed cutoff date {self.cutoff!r} (expected YYYY-MM-DD)") from None
        if parsed > date.today():
            raise ConfigError(f"cutoff {parsed} lies in the future")
        return parsed


def load_config(path: str | Path) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    known = {f.name for f in fields(RunConfig)}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError(f"unknown config keys in {path}: {', '.join(unknown)}")
    try:
        return RunConfig(**raw)
    except TypeError as exc:
        raise ConfigError(f"bad config {path}: {exc}") from None


_FLAG_OVERRIDES = ("cutoff", "aggregator", "bins", "seed", "workers")


def resolve_config(ns: argparse.Namespace) -> RunConfig:
    cfg = load_config(ns.config) if getattr(ns, "config", None) else RunConfig()
    if getattr(ns, "ensemble", None) is not None:
        cfg = replace(cfg, ensemble_size=ns.ensemble)
    for name in _FLAG_OVERRIDES:
        value = getattr(ns, name, None)
        if value is not None:
            cfg = replace(cfg, **{name: value})
    if cfg.ensemble_size < 1:
        raise ConfigError(f"ensemble size must be at least 1, got {cfg.ensemble_size}")
    if cfg.workers < 1:
        raise ConfigError(f"workers must be at least 1, got {cfg.workers}")
    if not 0 <= cfg.temperature < math.inf:
        raise ConfigError(f"temperature must be finite and non-negative, got {cfg.temperature}")
    return cfg


def _require_env(name: str) -> str:
    value = os.environ.get(name, "")
    if not value:
        raise ConfigError(f"environment variable {name} is not set")
    return value


def build_backend(ns: argparse.Namespace, cfg: RunConfig) -> UsageMeter:
    """Replay when a cassette is given (unless recording), else live HTTP,
    optionally wrapped to record."""
    cassette = getattr(ns, "cassette", None)
    record = getattr(ns, "record", False)
    if cassette and not record:
        return UsageMeter(ReplayBackend.from_file(cassette))
    api_key = _require_env("LLM_API_KEY")
    base_url = cfg.llm_base_url or os.environ.get("LLM_BASE_URL", "")
    if not base_url:
        raise ConfigError("no LLM base URL (set LLM_BASE_URL or llm_base_url in the config)")
    backend: Backend = HTTPBackend(
        base_url, api_key, rate_limiter=RateLimiter(cfg.rate_limit_rpm)
    )
    if record:
        if not cassette:
            raise ConfigError("--record needs --cassette PATH to write to")
        backend = RecordingBackend(backend, cassette)
    return UsageMeter(backend)


def build_search_provider(ns: argparse.Namespace, cfg: RunConfig) -> SearchProvider:
    fixture = getattr(ns, "search_fixture", None)
    if fixture:
        return FixtureSearchProvider.from_file(fixture)
    api_key = _require_env("SEARCH_API_KEY")
    if not cfg.search_base_url:
        raise ConfigError("no search base URL (set search_base_url in the config)")
    return LiveSearchProvider(
        cfg.search_base_url, api_key, rate_limiter=RateLimiter(cfg.rate_limit_rpm)
    )


def build_market_client(ns: argparse.Namespace, cfg: RunConfig) -> MarketClient:
    fixture = getattr(ns, "market_fixture", None)
    if fixture:
        return FixtureMarketClient.from_file(fixture)
    return LiveMarketClient(cfg.market_base_url)


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
) -> dict[str, str]:
    """Run the ensemble over every question and persist records, transcripts
    and a manifest.

    Every (question, member) pair is one task; `workers` is how many run at
    once, in dataset and member order. Each member runs in its own lane, so
    record/replay stays deterministic at any `workers`. A question's record
    and transcript index are built when its last member finishes.

    Questions that already have a record in the output file are skipped, so an
    interrupted run resumes where it stopped. The records file is rewritten in
    dataset order, which keeps reruns byte-identical regardless of worker
    scheduling. Returns question id -> terminal status (forecasted, declined
    or error).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records_path = out_dir / "forecasts.jsonl"
    transcripts_dir = out_dir / "transcripts"
    started = time.monotonic()

    existing: dict[str, ForecastRecord] = {}
    if records_path.exists():
        existing = {r.question_id: r for r in read_records(records_path)}
        existing = {qid: r for qid, r in existing.items() if qid in {q.id for q in dataset}}
    statuses: dict[str, str] = {
        qid: ("declined" if record.declined else "forecasted") for qid, record in existing.items()
    }
    errors: dict[str, str] = {}
    pending = [q for q in dataset if q.id not in existing]
    results: dict[str, ForecastRecord] = dict(existing)

    missed = threading.Event()

    def run_one(question: Question, m: int) -> tuple[MemberForecast, list[dict]] | None:
        if missed.is_set():
            return None  # the run is aborting on a cassette miss
        try:
            with in_lane(question.id, m):
                outcome, tree = run_member(question)
        except CassetteMiss:
            missed.set()
            raise
        ref, entries = save_transcript_tree(tree, transcripts_dir, question.id, m)
        return MemberForecast(member_index=m, forecast=outcome, transcript_ref=ref), entries

    def finish(question: Question, outcomes: list[tuple[MemberForecast, list[dict]]]) -> None:
        write_tree_index(transcripts_dir, question.id, [e for _, entries in outcomes for e in entries])
        members = tuple(member for member, _ in outcomes)
        if any(isinstance(m.forecast, Declined) for m in members):
            results[question.id] = ForecastRecord(question.id, members, aggregator_mode, None)
            statuses[question.id] = "declined"
            return
        values = [m.forecast for m in members if isinstance(m.forecast, Forecast)]
        agg = aggregate(values, aggregator_mode, seed=f"{seed}:{question.id}")
        results[question.id] = ForecastRecord(question.id, members, aggregator_mode, agg)
        statuses[question.id] = "forecasted"

    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        tasks = {pool.submit(run_one, q, m): (q, m) for q in pending for m in range(ensemble_size)}
        done: dict[str, list] = {q.id: [None] * ensemble_size for q in pending}
        for future in as_completed(tasks):
            question, m = tasks[future]
            if statuses.get(question.id) == "error":
                continue
            try:
                done[question.id][m] = future.result()
                if all(done[question.id]):
                    finish(question, done[question.id])
            except CassetteMiss:
                raise
            except Exception as exc:
                logger.error("question %s failed: %s", question.id, exc)
                statuses[question.id] = "error"
                errors[question.id] = str(exc)
                for sibling, (q, _) in tasks.items():
                    if q is question:
                        sibling.cancel()
    finally:
        # a cassette miss (or an interrupt) must not start the queued members
        pool.shutdown(cancel_futures=True)

    write_records(records_path, [results[q.id] for q in dataset if q.id in results])
    manifest = {
        "config": config_echo or {},
        "questions": {q.id: statuses.get(q.id, "error") for q in dataset},
        "errors": errors,
        "token_usage": {
            "calls": usage.calls if usage else 0,
            "prompt_tokens": usage.prompt_tokens if usage else 0,
            "completion_tokens": usage.completion_tokens if usage else 0,
        },
        "wall_time_s": round(time.monotonic() - started, 3),
        "finished_at": format_timestamp(utc_now()),
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
    )
    return statuses


def make_member_runner(
    cfg: RunConfig,
    backend: Backend,
    provider: SearchProvider,
    *,
    single_agent: bool = False,
) -> MemberRunner:
    """Build the per-member forecasting callable exactly as the forecast
    command wires it; the fixture generator uses this too, so recorded
    cassettes replay against identical request fingerprints."""
    build = single_agent_config if single_agent else default_planner
    config = build(provider, Sandbox(timeout=cfg.sandbox_timeout), cfg.cutoff_date(), cfg)
    return lambda question: forecast_one(config, backend, question)


def cmd_forecast(ns: argparse.Namespace) -> int:
    cfg = resolve_config(ns)
    cutoff = cfg.cutoff_date()
    dataset = read_questions(ns.dataset)
    if not dataset:
        print("dataset is empty; nothing to forecast", file=sys.stderr)
        return EXIT_EMPTY
    backend = build_backend(ns, cfg)
    try:
        provider = build_search_provider(ns, cfg)
        run_member = make_member_runner(cfg, backend, provider, single_agent=ns.single_agent)

        config_echo = {
            "cutoff": cutoff.isoformat(),
            "ensemble_size": cfg.ensemble_size,
            "aggregator": cfg.aggregator,
            "seed": cfg.seed,
            "model_id": cfg.model_id,
            "temperature": cfg.temperature,
            "single_agent": bool(ns.single_agent),
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
        )
    finally:
        backend.close()
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
    client = build_market_client(ns, cfg)
    fetched = fetch_window(client, from_date, to_date)
    if not fetched:
        snapshot([], utc_now(), ns.out)
        print(f"no binary markets close in [{from_date}, {to_date}]; wrote empty dataset", file=sys.stderr)
        return EXIT_EMPTY
    backend = build_backend(ns, cfg)
    try:
        curated = curate_markets(backend, fetched, model_id=cfg.model_id, workers=cfg.in_flight)
    finally:
        backend.close()
    kept = []
    audit = []
    categories = {}
    for record, (verdict, category) in zip(fetched, curated):
        audit.append(
            {
                "market_id": record.market_id,
                "question": record.question_text,
                "verdict": verdict.verdict,
                "judge_reply": verdict.judge_reply,
            }
        )
        if verdict.keep:
            kept.append(record)
            categories[record.market_id] = category
    at = parse_timestamp(ns.at, "at") if ns.at else utc_now()
    questions = snapshot(kept, at, ns.out, categories=categories)
    audit_path = Path(ns.out).with_suffix(".audit.jsonl")
    write_jsonl(audit_path, audit)
    print(f"fetched {len(fetched)} binary markets, kept {len(questions)}, dropped {len(fetched) - len(questions)}")
    print(render_category_table(category_frequencies(questions)), end="")
    print(f"dataset -> {ns.out}\naudit -> {audit_path}")
    return EXIT_OK


def cmd_resolve(ns: argparse.Namespace) -> int:
    cfg = resolve_config(ns)
    client = build_market_client(ns, cfg)
    summary = backfill_resolutions(client, ns.dataset, workers=cfg.in_flight)
    print(f"resolved {summary.resolved}, pending {summary.pending}, excluded {summary.excluded}")
    return EXIT_OK


# --- score -----------------------------------------------------------------------


def cmd_score(ns: argparse.Namespace) -> int:
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
    method_records: dict[str, list[ForecastRecord]] = {}
    order: list[str] = []

    crowd_available = any(q.crowd_prob is not None for q in dataset if q.id in outcomes)
    if crowd_available:
        method_maps["crowd"] = {
            q.id: (Forecast(q.crowd_prob) if q.crowd_prob is not None else Declined("no crowd price"))
            for q in dataset
            if q.id in outcomes
        }
        order.append("crowd")

    for path in ns.forecasts:
        label = Path(path).stem
        records = read_records(path)
        fmap: dict[str, Forecast | Declined] = {}
        for record in records:
            if record.question_id not in outcomes:
                continue
            fmap[record.question_id] = Declined("declined") if record.declined else record.aggregate
        missing = set(outcomes) - set(fmap)
        if missing:
            print(f"{label}: no record for {len(missing)} resolved questions; treating as declined", file=sys.stderr)
            for qid in missing:
                fmap[qid] = Declined("missing")
        method_maps[label] = fmap
        method_records[label] = records
        order.append(label)

    scored, dropped = apply_drop_rule(method_maps, outcomes)
    sample = next(iter(scored.values()))
    if len(sample) == 0:
        print(f"all {len(dropped)} questions were dropped; nothing to score", file=sys.stderr)
        return EXIT_EMPTY
    survivors = {p.question_id for p in sample.pairs}

    rows = []
    reports: list[CalibrationReport] = []
    score_lines = []
    for label in order:
        sset = scored[label]
        std = None
        if label in method_records:
            surviving_records = [r for r in method_records[label] if r.question_id in survivors]
            std = ensemble_std(surviving_records)
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


def cmd_probe(ns: argparse.Namespace) -> int:
    cfg = resolve_config(ns)
    if ns.probes:
        probes_path = Path(ns.probes)
        probes = [raw for _, raw in read_jsonl(probes_path)]
    else:
        ref = resources.files("agentcast").joinpath("data/probes.jsonl")
        probes = [json.loads(line) for line in ref.read_text(encoding="utf-8").splitlines() if line.strip()]
    if not probes:
        print("no probes to run", file=sys.stderr)
        return EXIT_EMPTY
    backend = build_backend(ns, cfg)
    counts: dict[str, int] = {}
    try:
        for probe in probes:
            question = probe["question"]
            patterns = probe.get("answer_patterns", [])
            result, _reply = leakage_probe(
                backend, question, patterns, model_id=cfg.model_id, temperature=cfg.temperature
            )
            counts[result.value] = counts.get(result.value, 0) + 1
            print(f"{result.value}\t{question}")
    finally:
        backend.close()
    summary = ", ".join(f"{k}: {v}" for k, v in sorted(counts.items()))
    print(f"probe summary: {summary}")
    return EXIT_OK


# --- argument parsing ---------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--cassette", help="cassette file: replay from it, or record into it with --record")
    parser.add_argument("--record", action="store_true", help="record live responses into --cassette")
    parser.add_argument("--cutoff", help="forecast cutoff date (YYYY-MM-DD)")
    parser.add_argument("--ensemble", type=int, help="ensemble members per question")
    parser.add_argument("--aggregator", choices=("mean", "median", "sampled"), help="ensemble aggregation")
    parser.add_argument("--bins", type=int, help="calibration bin count")
    parser.add_argument("--seed", type=int, help="seed for sampled aggregation")
    parser.add_argument(
        "--workers",
        type=int,
        help="forecast: questions in flight, each running its ensemble members concurrently; "
        "curate and resolve: N x ensemble markets in flight; score and probe ignore it",
    )


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
    _add_common(p)
    p.set_defaults(func=cmd_curate)

    p = sub.add_parser("resolve", help="backfill outcomes for a dataset")
    p.add_argument("--dataset", required=True, help="dataset JSONL to update in place")
    p.add_argument("--market-fixture", help="serve markets from a fixture file")
    _add_common(p)
    p.set_defaults(func=cmd_resolve)

    p = sub.add_parser("forecast", help="run the agent ensemble over a dataset")
    p.add_argument("--dataset", required=True, help="dataset JSONL to forecast")
    p.add_argument("--out", required=True, help="output directory (records, transcripts, manifest)")
    p.add_argument("--search-fixture", help="serve search results from a fixture file")
    p.add_argument("--single-agent", action="store_true", help="flat agent with raw tools (ablation)")
    _add_common(p)
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("score", help="score forecast records against resolved outcomes")
    p.add_argument("--dataset", required=True, help="resolved dataset JSONL")
    p.add_argument("--forecasts", nargs="+", required=True, help="forecast record files (label = file stem)")
    p.add_argument("--out", help="directory for report.txt and score files")
    _add_common(p)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("probe", help="check a model for knowledge past the cutoff")
    p.add_argument("--probes", help="probe questions JSONL (default: packaged probes)")
    _add_common(p)
    p.set_defaults(func=cmd_probe)

    return parser


def main(argv: list[str] | None = None) -> int:
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
