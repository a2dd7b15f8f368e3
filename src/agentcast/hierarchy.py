"""Two-level agent hierarchy: a planner that can only delegate, and low-level
worker agents that hold the raw tools.

The planner sees each worker as just another tool; invoking it runs a full
inner ReAct loop and hands back that agent's final answer as the observation
text. Raw observations (search snippets, program output) never reach the
planner's context, which is what keeps long research runs inside the context
budget. Depth is exactly two: workers cannot hold other agents as tools.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path
from typing import Callable

from . import prompts
from .llm import Backend, DEFAULT_TEMPERATURE
from .models import Declined, Forecast, Question, Transcript, write_jsonl
from .react import ReactConfig, RunOutcome, render_transcript_text, run_react
from .tools import (
    DEFAULT_OBSERVATION_BUDGET,
    Sandbox,
    SearchProvider,
    ToolRegistry,
    ToolSpec,
    make_code_tool,
    make_search_tool,
    truncate_text,
)

logger = logging.getLogger(__name__)

NO_FINAL_ANSWER = "[subagent gave no final answer]"


@dataclass(frozen=True)
class LowLevelAgent:
    """A worker agent exposed to the planner as a tool.

    observation_budget caps how much of the worker's final answer the planner
    gets to see.
    """

    name: str
    description: str
    config: ReactConfig
    observation_budget: int = DEFAULT_OBSERVATION_BUDGET

    def __post_init__(self):
        for tool in self.config.tools:
            if tool.kind != "raw":
                raise ValueError(
                    f"worker agent {self.name!r} holds non-raw tool {tool.name!r}; "
                    "the hierarchy is exactly two levels deep"
                )


@dataclass(frozen=True)
class PlannerConfig:
    """The high-level agent: delegates to workers, emits the probability."""

    system_prompt: str
    subagents: tuple[LowLevelAgent, ...]
    model_id: str = "default"
    temperature: float = DEFAULT_TEMPERATURE
    max_iterations: int = 10
    max_completion_tokens: int | None = None
    context_token_limit: int | None = None
    on_budget_exceeded: str = "compact"

    def __post_init__(self):
        object.__setattr__(self, "subagents", tuple(self.subagents))
        if not self.subagents:
            raise ValueError("a planner needs at least one subagent")
        names = [a.name for a in self.subagents]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate subagent names: {names}")


ChildSink = Callable[[str, str, Transcript], None]


def as_tool(agent: LowLevelAgent, backend: Backend, on_child: ChildSink | None = None) -> ToolSpec:
    """Wrap a worker agent as a planner-invocable tool.

    The action input becomes the worker's task; the observation is the
    worker's final answer text (truncated to the agent's observation budget),
    never a probability the planner could just copy. Worker failures come
    back as bracketed error observations so the planner can route around them.
    """

    def invoke(task: str) -> str:
        outcome = run_react(agent.config, backend, task)
        if on_child is not None:
            on_child(agent.name, task, outcome.transcript)
        final = outcome.transcript.final
        if final.kind in ("final", "truncated_finalized") and final.answer_text.strip():
            return truncate_text(final.answer_text, agent.observation_budget)
        if isinstance(outcome.result, Declined) and outcome.result.reason:
            return f"[subagent error: {outcome.result.reason}]"
        return NO_FINAL_ANSWER

    return ToolSpec(name=agent.name, description=agent.description, invoke=invoke, kind="agent")


# --- transcript trees ---------------------------------------------------------


@dataclass(frozen=True)
class ChildTranscript:
    agent_name: str
    task: str
    parent_step: int
    transcript: Transcript


@dataclass(frozen=True)
class TranscriptTree:
    """The planner transcript plus every worker run it triggered, with each
    child linked to the planner step that invoked it."""

    task: str
    planner: Transcript
    children: tuple[ChildTranscript, ...] = ()


def render_task_prompt(question: Question) -> str:
    """The task text the planner is given for one question."""
    ct = question.close_time
    close = f"{ct.strftime('%B')} {ct.day}, {ct.year}"
    return (
        f"{question.title}\n"
        f"Background: {question.background or 'None'}\n"
        f"Resolution criteria: {question.resolution_criteria or 'None'}\n"
        f"Closure time: {close}"
    )


def _attach_parent_steps(planner: Transcript, pending: list[tuple[str, str, Transcript]]) -> tuple[ChildTranscript, ...]:
    """Children are produced in invocation order, which is exactly the order
    of the planner's tool-calling steps; malformed steps call nothing."""
    action_steps = [i for i, step in enumerate(planner.steps) if step.action]
    children = []
    for i, (name, task, transcript) in enumerate(pending):
        parent_step = action_steps[i] if i < len(action_steps) else -1
        children.append(ChildTranscript(name, task, parent_step, transcript))
    return tuple(children)


def forecast_one(
    planner: PlannerConfig,
    backend: Backend,
    question: Question,
) -> tuple[Forecast | Declined, TranscriptTree]:
    """Run the full hierarchy on one question. The cutoff is already inside
    the workers' search tools, so no request can leave without it."""
    pending: list[tuple[str, str, Transcript]] = []

    def sink(name: str, task: str, transcript: Transcript) -> None:
        pending.append((name, task, transcript))

    registry = ToolRegistry(as_tool(agent, backend, on_child=sink) for agent in planner.subagents)
    config = ReactConfig(
        system_prompt=planner.system_prompt,
        tools=registry,
        agent_id="planner",
        model_id=planner.model_id,
        temperature=planner.temperature,
        max_iterations=planner.max_iterations,
        max_completion_tokens=planner.max_completion_tokens,
        context_token_limit=planner.context_token_limit,
        on_budget_exceeded=planner.on_budget_exceeded,
    )
    task = render_task_prompt(question)
    outcome = run_react(config, backend, task)
    children = _attach_parent_steps(outcome.transcript, pending)
    return outcome.result, TranscriptTree(task=task, planner=outcome.transcript, children=children)


def forecast_one_single(
    config: ReactConfig,
    backend: Backend,
    question: Question,
) -> tuple[Forecast | Declined, TranscriptTree]:
    """Flat-agent variant used for ablations: all raw tools on one agent."""
    task = render_task_prompt(question)
    outcome = run_react(config, backend, task)
    return outcome.result, TranscriptTree(task=task, planner=outcome.transcript)


# --- default wiring ------------------------------------------------------------


def default_planner(
    search_provider: SearchProvider,
    sandbox: Sandbox,
    cutoff: date,
    *,
    model_id: str = "default",
    temperature: float = DEFAULT_TEMPERATURE,
    results_per_search: int = 8,
    observation_budget: int = DEFAULT_OBSERVATION_BUDGET,
    max_iterations: int = 10,
    worker_iterations: int = 10,
    context_token_limit: int | None = None,
) -> PlannerConfig:
    """The standard two-worker setup: web research and computation."""
    search_tool = make_search_tool(
        search_provider, cutoff, k=results_per_search, observation_budget=observation_budget
    )
    code_tool = make_code_tool(sandbox, observation_budget=observation_budget)
    web = LowLevelAgent(
        name="web_research",
        description=(
            "A research assistant with date-restricted web search. "
            "Input: a specific research task; output: a factual summary of findings."
        ),
        config=ReactConfig(
            system_prompt=prompts.WEB_RESEARCH_PROMPT,
            tools=ToolRegistry([search_tool]),
            agent_id="web_research",
            model_id=model_id,
            temperature=temperature,
            max_iterations=worker_iterations,
            context_token_limit=context_token_limit,
        ),
        observation_budget=observation_budget,
    )
    computation = LowLevelAgent(
        name="computation",
        description=(
            "A computation assistant that writes and runs Python. "
            "Input: a quantitative task; output: the computed results."
        ),
        config=ReactConfig(
            system_prompt=prompts.COMPUTATION_PROMPT,
            tools=ToolRegistry([code_tool]),
            agent_id="computation",
            model_id=model_id,
            temperature=temperature,
            max_iterations=worker_iterations,
            context_token_limit=context_token_limit,
        ),
        observation_budget=observation_budget,
    )
    return PlannerConfig(
        system_prompt=prompts.PLANNER_PROMPT,
        subagents=(web, computation),
        model_id=model_id,
        temperature=temperature,
        max_iterations=max_iterations,
        context_token_limit=context_token_limit,
    )


def single_agent_config(
    search_provider: SearchProvider,
    sandbox: Sandbox,
    cutoff: date,
    *,
    model_id: str = "default",
    temperature: float = DEFAULT_TEMPERATURE,
    results_per_search: int = 8,
    observation_budget: int = DEFAULT_OBSERVATION_BUDGET,
    max_iterations: int = 10,
    context_token_limit: int | None = None,
    on_budget_exceeded: str = "fail",
) -> ReactConfig:
    """One agent holding both raw tools; by default the context guard fails
    hard instead of compacting, which is the ablation configuration."""
    return ReactConfig(
        system_prompt=prompts.PLANNER_PROMPT,
        tools=ToolRegistry(
            [
                make_search_tool(
                    search_provider, cutoff, k=results_per_search, observation_budget=observation_budget
                ),
                make_code_tool(sandbox, observation_budget=observation_budget),
            ]
        ),
        agent_id="single",
        model_id=model_id,
        temperature=temperature,
        max_iterations=max_iterations,
        context_token_limit=context_token_limit,
        on_budget_exceeded=on_budget_exceeded,
    )


# --- persistence ----------------------------------------------------------------


def save_transcript_tree(
    tree: TranscriptTree,
    transcripts_dir: str | Path,
    question_id: str,
    member_index: int,
) -> tuple[str, list[dict]]:
    """Write one member's transcript files under transcripts_dir/question_id/.

    Returns the planner transcript's reference (relative to transcripts_dir)
    and the index entries describing every file written.
    """
    qdir = Path(transcripts_dir) / question_id
    qdir.mkdir(parents=True, exist_ok=True)
    planner_name = f"{member_index}.planner.transcript"
    (qdir / planner_name).write_text(render_transcript_text(tree.planner, tree.task), encoding="utf-8")
    entries = [
        {
            "file": planner_name,
            "agent_id": tree.planner.agent_id,
            "member_index": member_index,
            "parent": None,
            "parent_step": None,
            "task": tree.task,
        }
    ]
    for j, child in enumerate(tree.children):
        child_name = f"{member_index}.{j}.{child.agent_name}.transcript"
        (qdir / child_name).write_text(
            render_transcript_text(child.transcript, child.task), encoding="utf-8"
        )
        entries.append(
            {
                "file": child_name,
                "agent_id": child.transcript.agent_id,
                "member_index": member_index,
                "parent": planner_name,
                "parent_step": child.parent_step,
                "task": child.task,
            }
        )
    return f"{question_id}/{planner_name}", entries


def write_tree_index(transcripts_dir: str | Path, question_id: str, entries: list[dict]) -> None:
    """Write the per-question transcript index (one JSONL line per file)."""
    write_jsonl(Path(transcripts_dir) / question_id / "index.jsonl", entries)
