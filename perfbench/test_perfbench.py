"""Tests of the benchmark itself: stub determinism, the expected-output
functions against a real small agentcast run, and output checks that reject
perturbed outputs."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from datetime import date
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from rollup import iteration_layers, union_length  # noqa: E402
from stub import LoopbackStub, StubCore, Throttle  # noqa: E402
from workloads import CUTOFF, CuratePlan, CurateSpec, ForecastPlan, ForecastSpec, ScorePlan, ScoreSpec  # noqa: E402

ROOT = HERE.parent
SMALL = ForecastSpec(questions=2, compute_members=1, malformed_members=1, declining_questions=1, timestamped_queries=1)


def _chat_body(messages: list[dict]) -> bytes:
    return json.dumps({"model": "default", "messages": messages, "temperature": 0.5}).encode()


def _planner_request(plan: ForecastPlan, qid: str) -> list[dict]:
    title = next(q["title"] for q in plan.questions if q["id"] == qid)
    return [
        {"role": "system", "content": "planner\nweb_research: ...\ncomputation: ..."},
        {"role": "user", "content": f"{title}\nBackground: None"},
    ]


def _replay_sequence(core: StubCore, plan: ForecastPlan) -> list:
    qid = plan.questions[0]["id"]
    first = _chat_body(_planner_request(plan, qid))
    sequence = [("chat", "POST", "/v1/chat/completions", first)] * 4
    query = plan.query(qid, 0, 0, 0)
    sequence += [("search", "GET", f"/search?q={query.replace(' ', '+')}&num=8&before={CUTOFF}", b"")] * 3
    return [core.handle(ep, method, target, body, now=float(i)) for i, (ep, method, target, body) in enumerate(sequence)]


def test_stub_gives_same_replies_and_counters_for_same_sequence():
    plan = ForecastPlan(SMALL, seed=3)
    throttles = {"chat": Throttle(2), "search": Throttle(2)}
    first, second = StubCore(plan, throttles, CUTOFF), StubCore(plan, throttles, CUTOFF)
    replies = _replay_sequence(first, plan)
    assert replies == _replay_sequence(second, plan)
    assert first.counters.as_dict() == second.counters.as_dict()
    statuses = [status for status, _, _ in replies]
    # the 2nd first attempt is throttled and its retry is served the same variant
    assert statuses[:4] == [200, 429, 200, 200]
    contents = [r[2]["choices"][0]["message"]["content"] for r in replies[:4] if r[0] == 200]
    assert len(set(contents)) == 3  # occurrences 0, 1, 2 are the three members
    assert first.counters.retry_gaps["chat"] == [1.0]
    assert first.counters.throttled["search"] == 1 and first.counters.retries["search"] == 1
    assert not first.counters.unexpected


def test_stub_flags_requests_outside_the_plan():
    plan = ForecastPlan(SMALL, seed=3)
    core = StubCore(plan, {}, CUTOFF)
    status, _, _ = core.handle("chat", "POST", "/v1/chat/completions", _chat_body([{"role": "user", "content": "hello"}]), 0.0)
    assert status == 404 and core.counters.unexpected


def _agentcast(args: list[str], env: dict, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "agentcast.cli", *args], env=env, cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.fixture
def child_env(tmp_path):
    return {
        "PATH": os.environ.get("PATH", os.defpath),
        "PYTHONPATH": str(ROOT / "src"),
        "TMPDIR": str(tmp_path),
        "LLM_API_KEY": "test",
        "SEARCH_API_KEY": "test",
        "NO_PROXY": "127.0.0.1",
        "no_proxy": "127.0.0.1",
    }


def _config(stub: LoopbackStub, path: Path) -> Path:
    path.write_text(json.dumps({
        "llm_base_url": stub.urls["chat"] + "/v1",
        "search_base_url": stub.urls["search"],
        "market_base_url": stub.urls["market"],
        "rate_limit_rpm": 1_000_000,
    }))
    return path


def test_forecast_expectation_matches_a_real_run_and_rejects_a_perturbed_one(tmp_path, child_env):
    plan = ForecastPlan(SMALL, seed=5)
    plan.write_dataset(tmp_path / "dataset.jsonl")
    stub = LoopbackStub(StubCore(plan, {"chat": Throttle(7)}, CUTOFF), {}).start()
    try:
        config = _config(stub, tmp_path / "config.json")
        out = tmp_path / "run"
        proc = _agentcast(["forecast", "--dataset", str(tmp_path / "dataset.jsonl"), "--out", str(out),
                           "--config", str(config), "--cutoff", CUTOFF], child_env, tmp_path)
        snapshot = stub.snapshot()
    finally:
        stub.stop()
    assert proc.returncode == 0, proc.stderr
    assert snapshot["counters"]["unexpected"] == []
    assert snapshot["counters"]["throttled"]["chat"] >= 1
    assert snapshot["counters"]["timestamped_served"] >= 1
    assert plan.check(out).failed == 0, plan.check(out).problems

    records = out / "forecasts.jsonl"
    lines = records.read_text().splitlines()
    victim = next(i for i, line in enumerate(lines) if not json.loads(line)["declined"])
    record = json.loads(lines[victim])
    record["members"][0]["forecast"] = round(1 - record["members"][0]["forecast"], 2)
    lines[victim] = json.dumps(record)
    records.write_text("\n".join(lines) + "\n")
    assert plan.check(out).failed == 1


def test_curate_expectation_matches_a_real_run_and_rejects_a_perturbed_one(tmp_path, child_env):
    spec = CurateSpec(total_markets=40, targets=8, out_of_window=8, judge_no=2, judge_unparsable=2,
                      resolved_yes=2, resolved_no=2, resolved_other=1)
    plan = CuratePlan(spec, seed=2, today=date.today())
    stub = LoopbackStub(StubCore(plan, {"market": Throttle(1000)}), {}).start()
    dataset = tmp_path / "dataset.jsonl"
    try:
        config = str(_config(stub, tmp_path / "config.json"))
        lo, hi = plan.window
        curate = _agentcast(["curate", "--from", lo.isoformat(), "--to", hi.isoformat(), "--out", str(dataset),
                             "--config", config], child_env, tmp_path)
        resolve = _agentcast(["resolve", "--dataset", str(dataset), "--config", config], child_env, tmp_path)
    finally:
        stub.stop()
    assert curate.returncode == 0 and resolve.returncode == 0, curate.stderr + resolve.stderr
    assert plan.check(dataset).failed == 0, plan.check(dataset).problems
    rows = [json.loads(x) for x in dataset.read_text().splitlines()]
    rows[0]["category"] = "Sports" if rows[0]["category"] != "Sports" else "Social Sciences"
    dataset.write_text("".join(json.dumps(r) + "\n" for r in rows))
    assert plan.check(dataset).failed == 1


def test_score_reference_matches_a_real_run_and_rejects_a_perturbed_one(tmp_path, child_env):
    plan = ScorePlan(ScoreSpec(questions=300, declines_per_file=6, excluded=3, unresolved=3), seed=4)
    dataset, files = plan.write(tmp_path)
    out = tmp_path / "report"
    proc = _agentcast(["score", "--dataset", str(dataset), "--forecasts", *map(str, files), "--out", str(out)],
                      child_env, tmp_path)
    assert proc.returncode == 0, proc.stderr
    reference = plan.reference()
    assert plan.check(out, reference).failed == 0, plan.check(out, reference).problems
    scores = [json.loads(x) for x in (out / "scores.jsonl").read_text().splitlines()]
    scores[1]["brier"] += 1e-7
    (out / "scores.jsonl").write_text("".join(json.dumps(s) + "\n" for s in scores))
    assert plan.check(out, reference).failed == 300


def test_layer_self_times_add_up_to_the_process_wall():
    spans = [
        [1, None, "run_react", 1.0, 5.0, 7, None, ["planner", 2, "final"]],
        [2, 1, "assemble_messages", 1.5, 2.0, 7, None, None],
        [3, 1, "HTTPBackend.complete", 2.0, 4.0, 7, None, 10],
        [4, None, "write_records", 5.5, 6.0, 7, None, None],
    ]
    trace = {"import_s": 0.5, "write_s": 0.25, "spans": spans}
    values, _ = iteration_layers([trace], None, [(0.0, 7.5)], items=1)
    selfs = sum(values[f"{layer}.self_s"] for layer in ("cli", "hierarchy", "react", "llm", "tools", "models", "metrics", "market"))
    assert selfs + values["trace.write_s"] == pytest.approx(values["trace.wall_s"]) == pytest.approx(7.5)
    assert values["react.self_s"] == pytest.approx(2.0)
    assert values["cli.self_s"] == pytest.approx(7.5 - 4.5 - 0.25)
    assert union_length([(0, 2), (1, 3), (5, 6)], 0, 5.5) == pytest.approx(3.5)
