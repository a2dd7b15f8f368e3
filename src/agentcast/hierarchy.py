"""Two-level agent hierarchy: a planner that can only delegate, and low-level
worker agents that hold the raw tools.

Every ensemble member is one `run_react` call on one `ReactConfig`; the
planner and the flat ablation agent differ only in the tools their configs
hold. The planner's tools are its workers: invoking one runs a full inner
ReAct loop and hands back that agent's final answer as the observation text.
Raw observations (search snippets, program output) never reach the planner's
context, which is what keeps long research runs inside the context budget.
Depth is exactly two: workers cannot hold other agents as tools.
"""

from __future__ import annotations

import contextvars
import logging
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from . import prompts
from .llm import Backend
from .models import Declined, Forecast, Question, Transcript, write_jsonl
from .react import ReactConfig, render_transcript_text, run_react
from .tools import SearchProvider, ToolSpec, make_code_tool, make_search_tool, truncate_text

if TYPE_CHECKING:
    from .cli import RunConfig

logger = logging.getLogger(__name__)


# The backend of the running `forecast_one` call and the worker runs it has
# collected, as (task, transcript). Set and reset by each call, so
# concurrent members share neither; threads do not inherit it.
_member_run: contextvars.ContextVar[tuple[Backend, list[tuple[str, Transcript]]]] = (
    contextvars.ContextVar("agentcast_member_run")
)


def as_tool(config: ReactConfig, description: str, observation_budget: int) -> ToolSpec:
    """Wrap a worker agent as a planner-invocable tool named after its
    `agent_id`.

    The worker may hold only raw tools: the hierarchy is exactly two levels
    deep. The action input becomes the worker's task; the observation is the
    worker's final answer text (truncated to `observation_budget`), never a
    probability the planner could just copy. A worker run that ends with no
    answer text always declines with a reason, such as a blown budget or a
    chat call that failed after its retries; it comes back as a bracketed
    error observation naming that reason, so the planner can route around
    it. Any other
    backend error in the worker (a rejected key, a cassette miss or a failed
    cassette write) propagates and ends the run. The worker runs on the
    backend of the `forecast_one` call that invoked it, and its transcript
    joins that call's tree.
    """
    for tool in config.tools:
        if tool.kind != "raw":
            raise ValueError(
                f"worker agent {config.agent_id!r} holds non-raw tool {tool.name!r}; "
                "the hierarchy is exactly two levels deep"
            )

    def invoke(task: str) -> str:
        backend, children = _member_run.get()
        outcome = run_react(config, backend, task)
        children.append((task, outcome.transcript))
        answer = outcome.transcript.final.answer_text
        if answer.strip():
            return truncate_text(answer, observation_budget)
        return f"[subagent error: {outcome.result.reason}]"

    return ToolSpec(name=config.agent_id, description=description, invoke=invoke, kind="agent")


# --- transcript trees ---------------------------------------------------------


class ChildTranscript(NamedTuple):
    task: str
    parent_step: int
    transcript: Transcript


class TranscriptTree(NamedTuple):
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


def _attach_parent_steps(planner: Transcript, pending: list[tuple[str, Transcript]]) -> tuple[ChildTranscript, ...]:
    """Children are produced in invocation order, which is exactly the order
    of the planner's tool-calling steps; malformed steps call nothing."""
    action_steps = [i for i, step in enumerate(planner.steps) if step.action]
    children = []
    for i, (task, transcript) in enumerate(pending):
        parent_step = action_steps[i] if i < len(action_steps) else -1
        children.append(ChildTranscript(task, parent_step, transcript))
    return tuple(children)


def forecast_one(
    config: ReactConfig,
    backend: Backend,
    question: Question,
) -> tuple[Forecast | Declined, TranscriptTree]:
    """Run one ensemble member on one question: a planner whose tools are
    workers, or the flat agent whose tools are raw.

    Workers invoked during the run use `backend`, and their transcripts
    become the tree's children. The cutoff is already inside the search
    tools, so no request can leave without it.
    """
    task = render_task_prompt(question)
    pending: list[tuple[str, Transcript]] = []
    token = _member_run.set((backend, pending))
    try:
        outcome = run_react(config, backend, task)
    finally:
        _member_run.reset(token)
    children = _attach_parent_steps(outcome.transcript, pending)
    return outcome.result, TranscriptTree(task=task, planner=outcome.transcript, children=children)


# --- default wiring ------------------------------------------------------------

# (name, system prompt, description) of each worker, in the planner's tool order
_WORKERS = (
    (
        "web_research",
        prompts.WEB_RESEARCH_PROMPT,
        "A research assistant with date-restricted web search. "
        "Input: a specific research task; output: a factual summary of findings.",
    ),
    (
        "computation",
        prompts.COMPUTATION_PROMPT,
        "A computation assistant that writes and runs Python. "
        "Input: a quantitative task; output: the computed results.",
    ),
)


def _raw_tools(provider: SearchProvider, cfg: RunConfig) -> tuple[ToolSpec, ToolSpec]:
    """The search tool bound to the cutoff, then the code tool."""
    return (
        make_search_tool(
            provider, cfg.cutoff_date(), k=cfg.results_per_search, observation_budget=cfg.observation_budget
        ),
        make_code_tool(cfg.sandbox_timeout, observation_budget=cfg.observation_budget),
    )


def _agent_config(
    agent_id: str,
    system_prompt: str,
    tools: tuple[ToolSpec, ...],
    cfg: RunConfig,
    max_iterations: int,
    on_budget_exceeded: str = "compact",
) -> ReactConfig:
    """One agent's config; model, temperature and context budget come from `cfg`."""
    return ReactConfig(
        system_prompt=system_prompt,
        tools=tools,
        agent_id=agent_id,
        model_id=cfg.model_id,
        temperature=cfg.temperature,
        max_iterations=max_iterations,
        context_token_limit=cfg.context_token_limit,
        on_budget_exceeded=on_budget_exceeded,
    )


def default_planner(provider: SearchProvider, cfg: RunConfig) -> ReactConfig:
    """The standard planner: its tools are two workers, web research holding
    search and computation holding the sandbox. The planner runs for
    `cfg.max_iterations`, each worker for `cfg.worker_iterations`; every agent
    compacts its history when it exceeds the context budget."""
    workers = tuple(
        as_tool(_agent_config(name, prompt, (tool,), cfg, cfg.worker_iterations), description, cfg.observation_budget)
        for (name, prompt, description), tool in zip(_WORKERS, _raw_tools(provider, cfg))
    )
    return _agent_config("planner", prompts.PLANNER_PROMPT, workers, cfg, cfg.max_iterations)


def single_agent_config(provider: SearchProvider, cfg: RunConfig) -> ReactConfig:
    """One agent holding both raw tools, for `cfg.max_iterations`. Its context
    guard fails hard instead of compacting, which is the ablation
    configuration."""
    tools = _raw_tools(provider, cfg)
    return _agent_config("single", prompts.SINGLE_AGENT_PROMPT, tools, cfg, cfg.max_iterations, "fail")


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
    files = [(planner_name, tree.task, tree.planner, None, None)]
    for j, child in enumerate(tree.children):
        child_name = f"{member_index}.{j}.{child.transcript.agent_id}.transcript"
        files.append((child_name, child.task, child.transcript, planner_name, child.parent_step))
    entries = []
    for name, task, transcript, parent, parent_step in files:
        (qdir / name).write_text(render_transcript_text(transcript, task), encoding="utf-8")
        entries.append(
            {
                "file": name,
                "agent_id": transcript.agent_id,
                "member_index": member_index,
                "parent": parent,
                "parent_step": parent_step,
                "task": task,
            }
        )
    return f"{question_id}/{planner_name}", entries


def write_tree_index(transcripts_dir: str | Path, question_id: str, entries: list[dict]) -> None:
    """Write the per-question transcript index (one JSONL line per file)."""
    write_jsonl(Path(transcripts_dir) / question_id / "index.jsonl", entries)
