"""Planner/worker wiring: delegation as tool calls, transcript trees, depth."""

import threading
from concurrent.futures import ThreadPoolExecutor
from datetime import date

import pytest

from agentcast.hierarchy import (
    NO_FINAL_ANSWER,
    as_tool,
    default_planner,
    forecast_one,
    render_task_prompt,
    save_transcript_tree,
    single_agent_config,
    write_tree_index,
)
from agentcast.cli import RunConfig
from agentcast.llm import CassetteMiss, ChatRequest, ChatResponse, Message, ScriptedBackend, TransportError
from agentcast.models import Declined, Forecast, read_jsonl
from agentcast.react import ReactConfig
from agentcast.tools import ToolSpec

from conftest import make_question

CUTOFF = date(2024, 4, 15)


class StaticProvider:
    def __init__(self, snippet="nothing of note"):
        self.snippet = snippet
        self.calls = []

    def search(self, query, before_date, limit):
        self.calls.append((query, before_date, limit))
        from agentcast.tools import SearchResult

        return [SearchResult("Result", "https://e.org", self.snippet)]


def research_agent(observation_budget=4000, snippet="nothing of note", max_iterations=10):
    """A web_research worker wrapped as a planner tool, and its search provider."""
    provider = StaticProvider(snippet)
    from agentcast.tools import make_search_tool

    config = ReactConfig(
        system_prompt="You research.",
        tools=(make_search_tool(provider, CUTOFF),),
        agent_id="web_research",
        max_iterations=max_iterations,
    )
    return as_tool(config, "Research things.", observation_budget), provider


def test_worker_agents_cannot_hold_other_agents():
    agent_tool = ToolSpec("inner_agent", "d", lambda s: s, kind="agent")
    config = ReactConfig(system_prompt="p", tools=(agent_tool,), agent_id="w")
    with pytest.raises(ValueError, match="two levels"):
        as_tool(config, "d", 4000)


def planner_over(*workers):
    """A planner whose tools are the given worker tools."""
    return ReactConfig(system_prompt="You plan.", tools=workers, agent_id="planner")


def test_planner_config_validation():
    # a planner with no workers, or with two workers of one name, is rejected
    agent, _ = research_agent()
    with pytest.raises(ValueError, match="at least one tool"):
        planner_over()
    with pytest.raises(ValueError, match="duplicate"):
        planner_over(agent, agent)


def test_as_tool_returns_final_answer_text():
    agent, provider = research_agent()
    backend = ScriptedBackend(
        [
            "Action: web_research\nAction Input: find eth price history",
            "Thought: search\nAction: web_search\nAction Input: eth price history",
            "Final Answer: Prices ranged 2900-3300 in April.",
            "Final Answer: 0.5",
        ]
    )
    assert (agent.name, agent.kind) == ("web_research", "agent")
    _, tree = forecast_one(planner_over(agent), backend, make_question())
    observation = tree.planner.steps[0].observation
    assert observation == "Prices ranged 2900-3300 in April."
    assert provider.calls[0][0] == "eth price history"
    (child,) = tree.children
    assert (child.transcript.agent_id, child.task) == ("web_research", "find eth price history")
    assert child.transcript.final.kind == "final"


def test_as_tool_truncates_to_observation_budget():
    agent, _ = research_agent(observation_budget=50)
    backend = ScriptedBackend(
        ["Action: web_research\nAction Input: task", f"Final Answer: {'w' * 500}", "Final Answer: 0.5"]
    )
    _, tree = forecast_one(planner_over(agent), backend, make_question())
    observation = tree.planner.steps[0].observation
    assert len(observation) == 50
    assert observation.endswith("[truncated]")


def test_as_tool_reports_worker_failures_as_bracketed_text():
    agent, _ = research_agent()
    backend = ScriptedBackend(["Action: web_research\nAction Input: t", TransportError("down"), "Final Answer: 0.5"])
    _, tree = forecast_one(planner_over(agent), backend, make_question())
    assert tree.planner.steps[0].observation.startswith("[subagent error: backend:")

    # a worker that burns its iterations and produces nothing usable
    worker, _ = research_agent(max_iterations=1)
    no_answer = ScriptedBackend(
        ["Action: web_research\nAction Input: t", "Action: web_search\nAction Input: a", "no thoughts", "Final Answer: 0.5"]
    )
    _, tree = forecast_one(planner_over(worker), no_answer, make_question())
    assert tree.planner.steps[0].observation.startswith("[subagent error: truncated:")


def test_worker_cassette_miss_ends_the_member():
    agent, _ = research_agent()
    miss = CassetteMiss("f" * 64, ChatRequest("default", (Message("user", "x"),)))
    backend = ScriptedBackend(["Action: web_research\nAction Input: t", miss, "Final Answer: 0.6"])
    with pytest.raises(CassetteMiss):
        forecast_one(planner_over(agent), backend, make_question())
    assert len(backend.requests) == 2  # the planner never answered around a tool error


def test_render_task_prompt_with_and_without_optionals():
    q = make_question(
        title="Will ETH close above 3700?",
        close="2024-04-30T00:00:00+00:00",
        fetched="2024-04-15T00:00:00+00:00",
    )
    assert render_task_prompt(q) == (
        "Will ETH close above 3700?\n"
        "Background: None\n"
        "Resolution criteria: None\n"
        "Closure time: April 30, 2024"
    )
    q2 = make_question(
        title="T?",
        background="Context here.",
        resolution_criteria="Resolves YES if X.",
        close="2024-05-05T10:00:00+00:00",
    )
    text = render_task_prompt(q2)
    assert "Background: Context here." in text
    assert "Resolution criteria: Resolves YES if X." in text
    assert "Closure time: May 5, 2024" in text


def two_worker_planner(snippet="nothing of note"):
    provider = StaticProvider(snippet)
    return default_planner(provider, RunConfig(cutoff=CUTOFF.isoformat())), provider


def test_forecast_one_builds_transcript_tree():
    planner, provider = two_worker_planner("ETH price data through April 2024")
    backend = ScriptedBackend(
        [
            # planner delegates
            "Thought: need research\nAction: web_research\nAction Input: eth price history",
            # the worker searches twice, then reports
            "Thought: search\nAction: web_search\nAction Input: eth price",
            "Thought: refine\nAction: web_search\nAction Input: eth price april",
            "Final Answer: ETH hovered near 3100 in mid-April.",
            # planner concludes
            "Thought: enough\nFinal Answer: 0.35",
        ]
    )
    question = make_question(title="Will ETH close above 3700?")
    result, tree = forecast_one(planner, backend, question)
    assert result == Forecast(0.35)
    assert tree.task == render_task_prompt(question)
    assert tree.planner.agent_id == "planner"
    assert len(tree.planner.steps) == 1
    assert tree.planner.steps[0].observation == "ETH hovered near 3100 in mid-April."
    (child,) = tree.children
    assert child.transcript.agent_id == "web_research"
    assert child.task == "eth price history"  # the planner's Action Input verbatim
    assert child.parent_step == 0
    assert len(child.transcript.steps) == 2
    assert provider.calls == [("eth price", CUTOFF, 8), ("eth price april", CUTOFF, 8)]


def test_default_planner_takes_cutoff_and_sandbox_timeout_from_the_run_config():
    provider = StaticProvider()
    cfg = RunConfig(cutoff="2023-11-30", sandbox_timeout=0.5)
    backend = ScriptedBackend(
        [
            "Action: web_research\nAction Input: look it up",
            "Action: web_search\nAction Input: rainfall",
            "Final Answer: wet",
            "Action: computation\nAction Input: spin",
            "Action: python\nAction Input: while True: pass",
            "Final Answer: no result",
            "Final Answer: 0.5",
        ]
    )
    _, tree = forecast_one(default_planner(provider, cfg), backend, make_question())
    assert provider.calls == [("rainfall", cfg.cutoff_date(), cfg.results_per_search)]
    assert [child.transcript.agent_id for child in tree.children] == ["web_research", "computation"]
    assert tree.children[1].transcript.steps[0].observation == "execution timed out after 0.5s"


def test_forecast_one_planner_never_sees_raw_tools():
    planner, _ = two_worker_planner()
    backend = ScriptedBackend(
        [
            # the planner tries to call the raw search tool directly
            "Action: web_search\nAction Input: eth",
            "Final Answer: 0.5",
        ]
    )
    result, tree = forecast_one(planner, backend, make_question())
    assert result == Forecast(0.5)
    assert "UnknownTool" in tree.planner.steps[0].observation
    assert tree.children == ()


def test_forecast_one_single_has_flat_tree():
    provider = StaticProvider()
    config = single_agent_config(provider, RunConfig(cutoff=CUTOFF.isoformat()))
    backend = ScriptedBackend(
        ["Action: web_search\nAction Input: q", "Final Answer: 0.25"]
    )
    result, tree = forecast_one(config, backend, make_question())
    assert result == Forecast(0.25)
    assert tree.children == ()
    assert tree.planner.agent_id == "single"
    assert provider.calls  # raw tool reachable directly


def test_single_agent_is_told_to_use_its_own_tools():
    config = single_agent_config(StaticProvider(), RunConfig(cutoff=CUTOFF.isoformat()))
    backend = ScriptedBackend(["Final Answer: 0.4"])
    forecast_one(config, backend, make_question())
    system = backend.requests[0].messages[0]
    assert system.role == "system"
    assert "<one of: web_search, python>" in system.content
    assert "Use the tools listed below yourself" in system.content
    assert "cannot browse" not in system.content and "Delegate" not in system.content


def test_single_agent_default_guard_fails_hard():
    provider = StaticProvider()
    config = single_agent_config(provider, RunConfig(cutoff=CUTOFF.isoformat()))
    assert config.on_budget_exceeded == "fail"
    names = [tool.name for tool in config.tools]
    assert "web_search" in names and "python" in names


class MemberBackend:
    """One member's backend: its planner delegates once. Every request waits
    for the other member's matching request, so the two members start, run
    their workers and finish in step."""

    def __init__(self, name, barrier):
        self.name = name
        self.barrier = barrier

    def complete(self, request):
        self.barrier.wait()
        if "<one of: web_search>" in request.messages[0].content:
            return ChatResponse(f"Final Answer: {self.name} found it")
        if len(request.messages) == 2:
            return ChatResponse(f"Action: web_research\nAction Input: research for {self.name}")
        return ChatResponse("Final Answer: 0.5")


def test_concurrent_members_keep_their_own_workers():
    # two members share one planner config and are inside worker runs at the
    # same time; each tree holds only the worker run its own planner started,
    # made on its own backend
    planner, _ = two_worker_planner()
    barrier = threading.Barrier(2, timeout=5)
    names = ("alpha", "beta")
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = [
            pool.submit(forecast_one, planner, MemberBackend(name, barrier), make_question(qid=name))
            for name in names
        ]
        trees = [future.result()[1] for future in futures]
    for name, tree in zip(names, trees):
        (child,) = tree.children
        assert child.task == f"research for {name}"
        assert child.transcript.final.answer_text == f"{name} found it"
        assert tree.planner.steps[0].observation == f"{name} found it"


def test_save_transcript_tree_layout(tmp_path):
    planner, _ = two_worker_planner()
    backend = ScriptedBackend(
        [
            "Action: web_research\nAction Input: look things up",
            "Action: web_search\nAction Input: things",
            "Final Answer: found things",
            "Final Answer: 0.6",
        ]
    )
    _, tree = forecast_one(planner, backend, make_question(qid="q77"))
    ref, entries = save_transcript_tree(tree, tmp_path, "q77", member_index=1)
    write_tree_index(tmp_path, "q77", entries)
    assert ref == "q77/1.planner.transcript"
    assert (tmp_path / "q77" / "1.planner.transcript").exists()
    assert (tmp_path / "q77" / "1.0.web_research.transcript").exists()
    index = [raw for _, raw in read_jsonl(tmp_path / "q77" / "index.jsonl")]
    assert index[0]["file"] == "1.planner.transcript" and index[0]["parent"] is None
    assert index[1]["parent"] == "1.planner.transcript"
    assert index[1]["parent_step"] == 0
    assert index[1]["agent_id"] == "web_research"
