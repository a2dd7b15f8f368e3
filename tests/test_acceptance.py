"""The acceptance gate: nine release criteria, one test per criterion.

Each test pins the behavior and tolerances the package must ship with; the
terminal summary hook in conftest prints one PASS/FAIL line per criterion.
Everything here runs offline: model traffic replays from the committed
cassette and search results come from fixture files.
"""

import json
import random
import socket
import time
from dataclasses import replace
from datetime import date, timedelta
from pathlib import Path

from agentcast import cli
from agentcast.cli import RunConfig
from agentcast.hierarchy import (
    default_planner,
    forecast_one,
    render_task_prompt,
    single_agent_config,
)
from agentcast.llm import ScriptedBackend
from agentcast.metrics import (
    ScoredSet,
    ScoreRow,
    UniverseMismatch,
    accuracy,
    apply_drop_rule,
    brier,
    calibration_index,
    ensemble_std,
    parse_table,
    render_calibration_table,
    render_score_table,
)
from agentcast.models import Declined, Forecast, check_record, read_record_lines
from agentcast.react import (
    ActionEmission,
    FinalEmission,
    History,
    MalformedEmission,
    assemble_messages,
    context_estimate,
    extract_probability,
    parse_emission,
)
from agentcast.tools import SearchResult, make_search_tool

import pytest

from conftest import FIXTURES, make_question
from oracles import (
    oracle_accuracy,
    oracle_brier,
    oracle_calibration,
    oracle_drop_rule,
    oracle_ensemble_std,
)
from test_react import MALFORMED_CASES

E2E = FIXTURES / "e2e"
TOLERANCE = 1e-12


def scored(pairs, label="method"):
    return ScoredSet(label, [q for q, _, _ in pairs], [f for _, f, _ in pairs], [o for _, _, o in pairs])


# --- criterion 1: the scoring agrees with brute-force loops ----------------------


def test_criterion_1_scoring_matches_brute_force_oracles():
    rng = random.Random(20240415)
    started = time.monotonic()
    for _ in range(1000):
        n = rng.randint(1, 1000)
        triples = [(f"q{i:04d}", rng.random(), rng.randint(0, 1)) for i in range(n)]
        pairs = [(f, o) for _, f, o in triples]
        sset = scored(triples)
        assert abs(brier(sset) - oracle_brier(pairs)) <= TOLERANCE
        assert abs(accuracy(sset) - oracle_accuracy(pairs)) <= TOLERANCE
        k = min(n, rng.choice((2, 5, 10, 20)))
        report = calibration_index(sset, k=k)
        assert abs(report.index - oracle_calibration(triples, k)) <= TOLERANCE

        member_lists = [
            [rng.random() for _ in range(rng.randint(2, 7))] for _ in range(min(n, 40))
        ]
        rows = [
            check_record(
                {
                    "question_id": f"q{i:04d}",
                    "members": [{"member_index": j, "forecast": v} for j, v in enumerate(values)],
                    "aggregator": "median",
                    "aggregate": sorted(values)[len(values) // 2],
                }
            )
            for i, values in enumerate(member_lists)
        ]
        assert abs(ensemble_std(r.values for r in rows) - oracle_ensemble_std(member_lists)) <= TOLERANCE
    assert time.monotonic() - started < 10.0


# --- criterion 2: exact anchor values -------------------------------------------


def test_criterion_2_scoring_anchor_values():
    # a constant 0.5 forecast scores a Brier of exactly 0.25 on any outcomes
    coin = scored([(f"q{i}", 0.5, i % 2) for i in range(40)])
    assert brier(coin) == 0.25
    assert accuracy(coin) == 0.5  # 0.5 predicts NO, so it hits the even half

    assert abs(brier(scored([("a", 0.35, 0)])) - 0.1225) <= TOLERANCE

    assert accuracy(scored([("a", 0.35, 0), ("b", 0.8, 1)])) == 1.0
    assert accuracy(scored([("a", 0.55, 0), ("b", 0.45, 1)])) == 0.0

    # one bin whose mean forecast equals its observed frequency: index exactly 0
    perfect = calibration_index(scored([("a", 0.5, 1), ("b", 0.5, 0)]), k=1)
    assert perfect.index == 0.0


# --- criterion 3: the calibration index behaves like a calibration measure -------


def test_criterion_3_calibration_index_behavior():
    started = time.monotonic()
    rng = random.Random(7)
    triples = []
    for i in range(10_000):
        f = rng.random()
        triples.append((f"q{i:05d}", f, 1 if rng.random() < f else 0))
    well_calibrated = calibration_index(scored(triples), k=10).index
    assert well_calibrated < 0.005  # outcomes drawn from the forecasts themselves

    confident_wrong = scored([(f"q{i}", 0.99, 0) for i in range(100)])
    assert calibration_index(confident_wrong, k=10).index > 0.9
    assert time.monotonic() - started < 5.0


# --- criterion 4: emission grammar and probability extraction --------------------


def test_criterion_4_emission_grammar_and_probability_extraction():
    tools = ("web_search", "python")

    action = parse_emission(
        "Thought: Do I need to use a tool? Yes\nAction: web_search\nAction Input: ETH price history",
        tools,
    )
    assert action == ActionEmission("Do I need to use a tool? Yes", "web_search", "ETH price history")

    final = parse_emission("Thought: Do I need to use a tool? No\nFinal Answer: 0.35", tools)
    assert final == FinalEmission("Do I need to use a tool? No", "0.35")

    # first decisive keyword wins, and multi-line action input survives
    assert isinstance(parse_emission("Final Answer: 0.2\nAction: python\nAction Input: x", tools), FinalEmission)
    program = parse_emission("Action: python\nAction Input: import math\nprint(math.pi)", tools)
    assert program.action_input == "import math\nprint(math.pi)"

    assert len(MALFORMED_CASES) == 20
    for text, expected_reason in MALFORMED_CASES:
        parsed = parse_emission(text, tools)
        assert isinstance(parsed, MalformedEmission), f"should be malformed: {text!r}"
        assert parsed.reason is expected_reason, f"{text!r} -> {parsed.reason}"

    assert extract_probability("0.35") == Forecast(0.35)
    assert extract_probability("I give it 35%.") == Forecast(0.35)
    assert extract_probability("roughly 72.5 percent") == Forecast(0.725)
    assert extract_probability("40") == Forecast(0.4)  # bare (1, 100] read as percent
    assert extract_probability("0.999") == Forecast(0.99)  # clamped into [0.01, 0.99]
    assert extract_probability("0.001") == Forecast(0.01)
    for refusal in ("I cannot answer this.", "", "about -0.2", "250", "250%"):
        assert isinstance(extract_probability(refusal), Declined), refusal


# --- criterion 5: deterministic end-to-end replay --------------------------------


def _replay(out_dir):
    return cli.main(
        [
            "forecast",
            "--dataset",
            str(E2E / "questions.jsonl"),
            "--out",
            str(out_dir),
            "--search-fixture",
            str(E2E / "search.jsonl"),
            "--cassette",
            str(E2E / "cassette.jsonl"),
            "--cutoff",
            "2024-04-15",
        ]
    )


def test_criterion_5_deterministic_end_to_end_replay(tmp_path, monkeypatch):
    def no_network(*args, **kwargs):
        raise AssertionError("network access attempted during replay")

    monkeypatch.setattr(socket, "socket", no_network)
    started = time.monotonic()

    assert _replay(tmp_path / "a") == 0
    assert _replay(tmp_path / "b") == 0
    first = (tmp_path / "a" / "forecasts.jsonl").read_bytes()
    assert first == (tmp_path / "b" / "forecasts.jsonl").read_bytes()

    records = {r["question_id"]: r for r in read_record_lines(tmp_path / "a" / "forecasts.jsonl")}
    assert len(records) == 5
    assert all(len(r["members"]) == 3 for r in records.values())
    assert records["q_eth"]["aggregate"] == 0.35
    assert records["q_un"]["declined"]

    # the transcript tree must match the planner's delegations: every child
    # task is literally an Action Input line in its parent's transcript
    transcripts = tmp_path / "a" / "transcripts"
    child_count = 0
    for qdir in sorted(transcripts.iterdir()):
        entries = [json.loads(line) for line in (qdir / "index.jsonl").read_text().splitlines()]
        planner_text = {e["file"]: (qdir / e["file"]).read_text() for e in entries if e["parent"] is None}
        for entry in entries:
            if entry["parent"] is None:
                continue
            child_count += 1
            assert f"Action Input: {entry['task']}" in planner_text[entry["parent"]]
            assert (qdir / entry["file"]).exists()
    assert child_count == 4  # q_eth m0+m1, q_fed m0, q_launch m0

    assert time.monotonic() - started < 30.0


# --- criterion 6: the decline drop rule is plain set algebra ----------------------


def test_criterion_6_decline_drop_rule_set_algebra():
    rng = random.Random(20240601)
    universe = {f"q{i:03d}" for i in range(100)}
    outcomes = {qid: rng.randint(0, 1) for qid in universe}

    declined_by_method = {}
    method_maps = {}
    for label in ("crowd", "flat", "hierarchical"):
        declined = {qid for qid in universe if rng.random() < 0.2}
        declined_by_method[label] = declined
        method_maps[label] = {
            qid: (Declined("member declined") if qid in declined else Forecast(rng.uniform(0.01, 0.99)))
            for qid in universe
        }

    scored_sets, dropped = apply_drop_rule(method_maps, outcomes)
    survivors_oracle, dropped_oracle = oracle_drop_rule(declined_by_method, universe)
    assert dropped == dropped_oracle
    for label, sset in scored_sets.items():
        assert set(sset.question_ids) == survivors_oracle
        # surviving forecasts are untouched by the drop
        for question_id, forecast, outcome in zip(sset.question_ids, sset.forecasts, sset.outcomes):
            assert forecast == method_maps[label][question_id].value
            assert outcome == outcomes[question_id]

    # methods answering different question sets cannot be compared at all
    lopsided = {
        "a": {"q1": Forecast(0.5), "q2": Forecast(0.5)},
        "b": {"q1": Forecast(0.5)},
    }
    with pytest.raises(UniverseMismatch):
        apply_drop_rule(lopsided, {"q1": 1, "q2": 0})


# --- criterion 7: every outbound search is date-restricted ------------------------


class CaptureProvider:
    """Logs every call and returns results straddling the cutoff."""

    def __init__(self, results):
        self.calls = []
        self._results = results

    def search(self, query, before_date, limit):
        self.calls.append((query, before_date, limit))
        return list(self._results)


def test_criterion_7_every_search_is_date_restricted():
    rng = random.Random(99)
    words = ("rates", "election", "launch", "grid", "storm", "index", "vote", "cup")
    for _ in range(100):
        cutoff = date(2023, 1, 1) + timedelta(days=rng.randrange(500))
        provider = CaptureProvider(
            [
                SearchResult("early report", "https://e.org/1", "written before the cutoff", cutoff - timedelta(days=30)),
                SearchResult("undated page", "https://e.org/2", "no publication date at all", None),
                SearchResult("boundary day", "https://e.org/3", "published on the cutoff itself", cutoff),
                SearchResult("late leak", "https://e.org/4", "published after the cutoff", cutoff + timedelta(days=1)),
            ]
        )
        tool = make_search_tool(provider, cutoff, k=rng.randint(2, 10))
        query = " ".join(rng.choice(words) for _ in range(3))
        observation = tool.invoke(query)

        assert len(provider.calls) == 1
        sent_query, sent_before, sent_limit = provider.calls[0]
        assert sent_query == query
        assert sent_before == cutoff  # the restriction is on the wire, not just local
        assert sent_limit >= 2

        # post-filter: anything published on or after the cutoff never reaches
        # the agent, undated results are kept
        assert "early report" in observation
        assert "undated page" in observation
        assert "boundary day" not in observation
        assert "late leak" not in observation


# --- criterion 8: hierarchy survives a context budget that sinks a flat agent ----


BIG_SNIPPET = "Quarterly figures, filings, and commentary. " * 16  # ~700 chars each


def _ablation_fixture():
    from agentcast.tools import FixtureSearchProvider

    results = [
        SearchResult(f"source {i}", f"https://example.org/{i}", BIG_SNIPPET, date(2024, 3, 1))
        for i in range(8)
    ]
    return FixtureSearchProvider({"default": results})


def test_criterion_8_context_budget_ablation(tmp_path):
    cutoff = date(2024, 4, 15)
    question = make_question(
        qid="q_budget",
        title="Will the index close higher this quarter?",
        close="2024-06-30T00:00:00+00:00",
        fetched="2024-04-15T00:00:00+00:00",
    )
    task = render_task_prompt(question)

    # pick a per-agent budget that admits one raw search observation but not two
    flat = single_agent_config(_ablation_fixture(), RunConfig(cutoff=cutoff.isoformat()))
    base = context_estimate(assemble_messages(History(flat, task)))
    limit = base + 1500  # one ~1000-token observation fits, two cannot

    flat = replace(flat, context_token_limit=limit)
    assert flat.on_budget_exceeded == "fail"
    flat_backend = ScriptedBackend(
        [
            "Thought: gather evidence\nAction: web_search\nAction Input: first angle",
            "Thought: need a second angle\nAction: web_search\nAction Input: second angle",
        ]
    )
    flat_result, flat_tree = forecast_one(flat, flat_backend, question)
    assert flat_result == Declined("budget")
    assert len(flat_tree.planner.steps) == 2  # both observations landed, then the guard fired

    # same budget per agent, but each delegation runs in a fresh context and
    # the planner only ever sees the workers' short summaries
    planner = default_planner(_ablation_fixture(), RunConfig(cutoff=cutoff.isoformat(), context_token_limit=limit))
    hier_backend = ScriptedBackend(
        [
            "Thought: split the research\nAction: web_research\nAction Input: first angle",
            "Thought: search it\nAction: web_search\nAction Input: first angle",
            "Thought: enough\nFinal Answer: Coverage of the first angle is mildly positive.",
            "Thought: now the second\nAction: web_research\nAction Input: second angle",
            "Thought: search it\nAction: web_search\nAction Input: second angle",
            "Thought: enough\nFinal Answer: The second angle shows no red flags.",
            "Thought: both summaries in hand\nFinal Answer: 0.6",
        ]
    )
    hier_result, hier_tree = forecast_one(planner, hier_backend, question)
    assert hier_result == Forecast(0.6)
    assert len(hier_tree.children) == 2
    for child in hier_tree.children:
        # each worker carried a full-size observation under the same limit
        assert any(len(step.observation) > 3000 for step in child.transcript.steps)
    for step in hier_tree.planner.steps:
        assert len(step.observation) < 400  # the planner never saw raw search output


# --- criterion 9: report tables use the fixed layout ------------------------------


def test_criterion_9_report_table_format():
    rows = [
        ScoreRow(method_label="crowd", brier=0.104975, accuracy=0.75, std=None),
        ScoreRow(method_label="agents", brier=0.133125, accuracy=0.75, std=0.0298765),
    ]
    table = render_score_table(rows)
    lines = table.splitlines()
    assert [c for c in lines[0].split("  ") if c.strip()] == ["Method", "Brier", "Acc %", "Std"]

    parsed = {row["Method"]: row for row in parse_table(table)}
    assert parsed["crowd"]["Brier"] == "0.105"  # three decimals
    assert parsed["crowd"]["Acc %"] == "75.0"  # one decimal
    assert parsed["crowd"]["Std"] == ""  # blank when there is no ensemble
    assert parsed["agents"]["Brier"] == "0.133"
    assert parsed["agents"]["Std"] == "0.030"

    report = calibration_index(scored([(f"q{i}", 0.99, 0) for i in range(10)]), k=2)
    cal_table = render_calibration_table([replace(report, method_label="agents")])
    cal_lines = cal_table.splitlines()
    assert [c for c in cal_lines[0].split("  ") if c.strip()] == ["Method", "Calibration Index"]
    cal_parsed = parse_table(cal_table)
    assert cal_parsed[0]["Method"] == "agents"
    assert cal_parsed[0]["Calibration Index"] == "0.980"  # (0.99 - 0)^2 to three decimals
