"""Roll traced spans and stub counters up into the per-layer metrics.

One call of `iteration_layers` covers one timed iteration: the trace files of
its agentcast processes, the stub's snapshot for that iteration and the
processes' spawn and exit times as the benchmark saw them. It returns scalar
values (aggregated across iterations by their median) and samples (pooled
across iterations for percentiles).
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

from launcher import LAYERS

LAYER_NAMES = ("cli", "hierarchy", "react", "llm", "tools", "models", "metrics", "market")
BACKENDS = ("HTTPBackend.complete", "ReplayBackend.complete")
PROVIDERS = ("LiveSearchProvider.search", "FixtureSearchProvider.search")


def union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


class Spans:
    """The spans of one process, indexed for self time and parent lookups."""

    def __init__(self, trace: dict):
        self.trace = trace
        self.rows = [dict(zip(("id", "parent", "name", "t0", "t1", "tid", "error", "note"), s)) for s in trace["spans"]]
        self.by_id = {r["id"]: r for r in self.rows}
        self.child_time: dict[int, float] = defaultdict(float)
        for r in self.rows:
            if r["parent"] is not None:
                self.child_time[r["parent"]] += r["t1"] - r["t0"]

    def self_time(self, r: dict) -> float:
        return (r["t1"] - r["t0"]) - self.child_time[r["id"]]

    def parent_name(self, r: dict) -> str | None:
        parent = self.by_id.get(r["parent"])
        return parent["name"] if parent else None


def iteration_layers(traces: list[dict], stub: dict | None, processes: list[tuple[float, float]], items: int) -> tuple[dict, dict]:
    """(values, samples) for one traced iteration."""
    procs = [Spans(t) for t in traces]
    rows = [(p, r) for p in procs for r in p.rows]
    wall = processes[-1][1] - processes[0][0]
    lo, hi = processes[0][0], processes[-1][1]

    def named(*names):
        return [(p, r) for p, r in rows if r["name"] in names]

    def total(*names):
        """Inclusive time of the outermost spans among names."""
        return sum(r["t1"] - r["t0"] for p, r in named(*names) if p.parent_name(r) not in names)

    def count(*names):
        return len(named(*names))

    counters = stub["counters"] if stub else None
    intervals = stub["intervals"] if stub else {"chat": [], "search": [], "market": []}
    accepts = stub["accepts"] if stub else {}

    def stub_count(key, endpoint):
        return counters[key][endpoint] if counters else 0

    def gaps(endpoint):
        return counters["retry_gaps"][endpoint] if counters else []

    v: dict[str, float] = {}
    s: dict[str, list[float]] = {}

    # Layer self times. cli is the part of the wall no top-level span covers
    # (interpreter start-up, imports, argument parsing, exit), less the time
    # the launcher spent writing spans, so with one thread per process the
    # layers plus trace.write_s add up to the traced wall exactly.
    selfs = dict.fromkeys(LAYER_NAMES, 0.0)
    for p, r in rows:
        selfs[LAYERS[r["name"]]] += p.self_time(r)
    covered = sum(union_length([(r["t0"], r["t1"]) for r in p.rows if r["parent"] is None], lo, hi) for p in procs)
    v["trace.write_s"] = sum(t["write_s"] for t in traces)
    selfs["cli"] = wall - covered - v["trace.write_s"]
    for layer in LAYER_NAMES:
        v[f"{layer}.self_s"] = selfs[layer]
    v["trace.wall_s"] = wall

    # cli
    v["cli.import_s"] = sum(t["import_s"] for t in traces)
    first: dict[str, float] = {}
    last: dict[str, float] = {}
    for p, r in named("forecast_one"):
        first[r["note"]] = min(first.get(r["note"], r["t0"]), r["t0"])
    for p, r in named("write_tree_index"):
        last[r["note"]] = max(last.get(r["note"], r["t1"]), r["t1"])
    s["cli.question_s"] = [last[q] - first[q] for q in first if q in last]
    chat = [(a, b) for a, b, _ in intervals["chat"]]
    search = [(a, b) for a, b, _ in intervals["search"]]
    sandbox = [(r["t0"], r["t1"]) for p, r in named("execute_code")]
    v["cli.inflight.mean"] = sum(b - a for a, b in chat) / wall
    v["cli.local_share"] = 1.0 - union_length(chat + search + sandbox, lo, hi) / wall

    # hierarchy
    s["hierarchy.member_s"] = [r["t1"] - r["t0"] for p, r in named("forecast_one")]
    agents = [r["note"] for p, r in named("run_react") if r["note"]]
    v["hierarchy.worker_runs"] = sum(1 for a in agents if a[0] not in ("planner", "single"))
    v["hierarchy.transcript_write_s"] = total("save_transcript_tree", "write_tree_index")

    # react
    v["react.steps"] = sum(a[1] for a in agents)
    v["react.malformed"] = sum(1 for p, r in named("parse_emission") if r["note"])
    v["react.forced_finals"] = sum(1 for a in agents if a[2] != "final")
    v["react.assemble_s"] = sum(r["t1"] - r["t0"] for p, r in named("assemble_messages") if p.parent_name(r) != "compact_steps")
    v["react.compactions"] = count("compact_steps")
    v["react.compact_s"] = total("compact_steps")
    v["react.parse_s"] = total("parse_emission")

    # llm
    calls = named(*BACKENDS)
    chat_requests = stub_count("requests", "chat")
    v["llm.calls"] = len(calls)
    v["llm.wait_s"] = total("HTTPBackend.complete")
    v["llm.service_s"] = sum(b - a for a, b in chat)
    v["llm.client_overhead_ms"] = (
        1000 * (v["llm.wait_s"] - v["llm.service_s"] - sum(gaps("chat"))) / chat_requests if chat_requests else 0.0
    )
    v["llm.connections_per_call"] = accepts.get("chat", 0) / chat_requests if chat_requests else 0.0
    v["llm.retries"] = stub_count("retries", "chat")
    v["llm.retry_gap_s"] = statistics.fmean(gaps("chat")) if gaps("chat") else 0.0
    v["llm.ratelimit_wait_s"] = total("RateLimiter.acquire")
    v["llm.prompt_tokens_per_call"] = sum(r["note"] or 0 for p, r in calls) / 4 / len(calls) if calls else 0.0
    v["llm.fingerprint_s"] = total("fingerprint")
    v["llm.cassette_load_s"] = total("load_cassette")

    # tools
    searches = sorted(named("search"), key=lambda pr: pr[1]["t0"])
    seen = set()
    repeats = 0
    dropped = 0
    provided: dict[tuple[int, int], int] = defaultdict(int)
    for p, r in named(*PROVIDERS):
        if r["error"] is None:
            provided[(id(p), r["parent"])] += r["note"]
    for p, r in searches:
        key = tuple(r["note"][:3])
        repeats += key in seen
        seen.add(key)
        if r["error"] is None:
            dropped += provided[(id(p), r["id"])] - r["note"][3]
    v["tools.search_calls"] = len(searches)
    v["tools.search_s"] = total("search")
    v["tools.search_repeat_share"] = repeats / len(searches) if searches else 0.0
    v["tools.search_errors"] = sum(1 for p, r in searches if r["error"])
    v["tools.search_dropped"] = dropped
    v["tools.search_retry_gap_s"] = statistics.fmean(gaps("search")) if gaps("search") else 0.0
    v["tools.sandbox_calls"] = len(sandbox)
    s["tools.sandbox_s"] = [b - a for a, b in sandbox]

    # models and metrics
    v["models.read_questions_s"] = total("read_questions")
    v["models.read_records_s"] = total("read_records")
    v["models.write_s"] = total("write_questions", "write_records", "write_jsonl")
    v["metrics.drop_rule_s"] = total("apply_drop_rule")
    v["metrics.score_s"] = total("brier", "accuracy")
    v["metrics.calibration_s"] = total("calibration_index")
    v["metrics.ensemble_std_s"] = total("ensemble_std")

    # market
    v["market.fetch_window_s"] = total("fetch_window")
    v["market.pages"] = counters["pages"] if counters else 0
    v["market.judge_calls"] = counters["chat_kinds"].get("judge", 0) if counters else 0
    v["market.judge_s"] = total("llm_filter")
    v["market.classify_s"] = total("classify_category")
    v["market.backfill_s"] = total("backfill_resolutions")
    v["market.retry_gap_s"] = statistics.fmean(gaps("market")) if gaps("market") else 0.0

    v["llm_calls_per_item"] = chat_requests / items
    v["search_calls_per_item"] = stub_count("requests", "search") / items
    return v, s


def summarize(iterations: list[tuple[dict, dict]]) -> tuple[dict[str, float], dict[str, int]]:
    """Median of each scalar across iterations; p50 and p90 of pooled samples.
    Returns (values, sample counts)."""
    values: dict[str, float] = {}
    counts: dict[str, int] = {}
    for name in iterations[0][0]:
        series = [it[0][name] for it in iterations]
        values[name] = statistics.median(series)
        counts[name] = len(series)
    for name in iterations[0][1]:
        pooled = [x for it in iterations for x in it[1][name]]
        values[f"{name}.p50"] = percentile(pooled, 0.5)
        values[f"{name}.p90"] = percentile(pooled, 0.9)
        counts[f"{name}.p50"] = counts[f"{name}.p90"] = len(pooled)
    return values, counts
