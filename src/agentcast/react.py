"""The ReAct loop: parse model emissions against a strict block grammar,
dispatch tool calls, feed observations back, and extract a probability from
the final answer.

The grammar is line-anchored: "Thought:", "Action:", "Action Input:",
"Final Answer:" and "Observation:" are only recognized at the start of a
line. The first "Action:" or "Final Answer:" line decides what an emission
is; malformed emissions get a corrective observation instead of crashing the
run, so the model can repair its own formatting.
"""

from __future__ import annotations

import logging
import re
from enum import Enum
from itertools import chain
from typing import NamedTuple, Union

from .llm import (
    Backend,
    BackendError,
    CallFailed,
    ChatRequest,
    DEFAULT_TEMPERATURE,
    Message,
)
from .models import AgentStep, Declined, FinalState, Forecast, Transcript
from .tools import ToolSpec

logger = logging.getLogger(__name__)

THOUGHT_KEY = "Thought:"
ACTION_KEY = "Action:"
INPUT_KEY = "Action Input:"
FINAL_KEY = "Final Answer:"
OBSERVATION_KEY = "Observation:"
_ALL_KEYS = (THOUGHT_KEY, ACTION_KEY, INPUT_KEY, FINAL_KEY, OBSERVATION_KEY)

FINALIZE_INSTRUCTION = "Do not use a tool; give Final Answer:"

OMITTED_MARKER = "[earlier steps omitted]"

# every request stops before the model can write its own observation
STOP_SEQUENCES = (OBSERVATION_KEY,)


class MalformedReason(Enum):
    NO_KEYWORD = "NoKeyword"
    UNKNOWN_TOOL = "UnknownTool"
    MISSING_INPUT = "MissingInput"


class ActionEmission(NamedTuple):
    thought: str
    action: str
    action_input: str


class FinalEmission(NamedTuple):
    thought: str
    answer_text: str


class MalformedEmission(NamedTuple):
    reason: MalformedReason
    detail: str = ""


ParsedEmission = Union[ActionEmission, FinalEmission, MalformedEmission]


def _is_keyword_line(line: str) -> bool:
    return any(line.startswith(key) for key in _ALL_KEYS)


def _collect_block(lines: list[str], start: int, first_fragment: str) -> str:
    """Gather a block's text: the remainder of its keyword line plus following
    lines up to the next keyword line."""
    parts = [first_fragment]
    for line in lines[start:]:
        if _is_keyword_line(line):
            break
        parts.append(line)
    return "\n".join(parts).strip()


def _collect_thought(lines: list[str], end: int) -> str:
    parts = []
    for line in lines[:end]:
        if line.startswith(THOUGHT_KEY):
            parts.append(line[len(THOUGHT_KEY) :].lstrip())
        else:
            parts.append(line)
    return "\n".join(parts).strip()


def parse_emission(text: str, tool_names: tuple[str, ...]) -> ParsedEmission:
    """Classify one model emission.

    The first line starting with "Action:" or "Final Answer:" is decisive.
    No such line -> Malformed(NoKeyword). An action whose name is not in
    tool_names -> Malformed(UnknownTool); an action with no nonempty
    "Action Input:" block before the next keyword -> Malformed(MissingInput).
    """
    lines = text.split("\n")
    decisive = None
    for i, line in enumerate(lines):
        if line.startswith(ACTION_KEY) or line.startswith(FINAL_KEY):
            decisive = i
            break
    if decisive is None:
        return MalformedEmission(MalformedReason.NO_KEYWORD, "no Action or Final Answer line")
    thought = _collect_thought(lines, decisive)
    line = lines[decisive]
    if line.startswith(FINAL_KEY):
        answer = _collect_block(lines, decisive + 1, line[len(FINAL_KEY) :])
        return FinalEmission(thought=thought, answer_text=answer)
    name = line[len(ACTION_KEY) :].strip()
    if name not in tool_names:
        return MalformedEmission(MalformedReason.UNKNOWN_TOOL, name or "(empty)")
    action_input = None
    for j in range(decisive + 1, len(lines)):
        candidate = lines[j]
        if candidate.startswith(INPUT_KEY):
            action_input = _collect_block(lines, j + 1, candidate[len(INPUT_KEY) :])
            break
        if _is_keyword_line(candidate):
            break
    if not action_input:
        return MalformedEmission(MalformedReason.MISSING_INPUT, name)
    return ActionEmission(thought=thought, action=name, action_input=action_input)


def render_emission(emission: ActionEmission | FinalEmission) -> str:
    """Inverse of parse_emission for well-formed emissions."""
    prefix = f"{THOUGHT_KEY} {emission.thought}\n" if emission.thought else ""
    if isinstance(emission, FinalEmission):
        return f"{prefix}{FINAL_KEY} {emission.answer_text}"
    return f"{prefix}{ACTION_KEY} {emission.action}\n{INPUT_KEY} {emission.action_input}"


# --- probability extraction -------------------------------------------------

_NUMBER_RE = re.compile(r"(-?)(\d+(?:\.\d+)?|\.\d+)\s*(%?)")

PROB_FLOOR = 0.01
PROB_CEILING = 0.99


def extract_probability(answer_text: str) -> Forecast | Declined:
    """Read a probability out of free-form final-answer text.

    The first numeric token wins. A trailing % divides by 100; a bare value
    in (1, 100] is read as a percentage. Results are clamped into
    [0.01, 0.99]. No numeric token, a negative value, or a value past 100
    means the answer is not a usable probability -> Declined.
    """
    match = _NUMBER_RE.search(answer_text or "")
    if match is None:
        return Declined("no numeric token in final answer")
    sign, digits, percent = match.groups()
    if sign:
        return Declined(f"negative value {sign}{digits}")
    value = float(digits)
    if percent:
        value /= 100.0
    elif value > 1.0:
        if value > 100.0:
            return Declined(f"numeric token {digits} out of range")
        value /= 100.0
    if value > 1.0:
        return Declined(f"numeric token {digits}% out of range")
    return Forecast(min(PROB_CEILING, max(PROB_FLOOR, value)))


# --- configuration and context assembly --------------------------------------

BUDGET_POLICIES = ("compact", "fail")


class _ReactConfigFields(NamedTuple):
    system_prompt: str
    tools: tuple[ToolSpec, ...]
    agent_id: str = "agent"
    model_id: str = "default"
    temperature: float = DEFAULT_TEMPERATURE
    max_iterations: int = 10
    context_token_limit: int | None = None
    on_budget_exceeded: str = "compact"


class ReactConfig(_ReactConfigFields):
    """Everything one agent run needs besides the backend and the task."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not self.tools:
            raise ValueError("an agent needs at least one tool")
        names = [tool.name for tool in self.tools]
        if len(set(names)) < len(names):
            raise ValueError(f"duplicate tool name among {names}")
        if self.on_budget_exceeded not in BUDGET_POLICIES:
            raise ValueError(f"unknown budget policy {self.on_budget_exceeded!r}")
        return self


def render_tool_instructions(tools: tuple[ToolSpec, ...]) -> str:
    names = ", ".join(tool.name for tool in tools)
    lines = [f"{tool.name}: {tool.description}" for tool in tools]
    return (
        "You can use these tools:\n\n"
        + "\n".join(lines)
        + "\n\nRespond in exactly this format. To use a tool:\n\n"
        + f"{THOUGHT_KEY} <your reasoning>\n"
        + f"{ACTION_KEY} <one of: {names}>\n"
        + f"{INPUT_KEY} <input for the tool>\n\n"
        + "When you are ready to answer:\n\n"
        + f"{THOUGHT_KEY} <your reasoning>\n"
        + f"{FINAL_KEY} <your answer>"
    )


def estimate_tokens(text: str) -> int:
    """Crude chars/4 token estimate; only relative sizes matter here."""
    return (len(text) + 3) // 4


def _render_step_as_assistant(step: AgentStep) -> str:
    if step.action:
        return render_emission(ActionEmission(step.thought, step.action, step.action_input))
    return step.thought


def _head_messages(config: ReactConfig, task: str) -> tuple[Message, Message]:
    system = config.system_prompt + "\n\n" + render_tool_instructions(config.tools)
    return Message("system", system), Message("user", task)


def _step_messages(step: AgentStep) -> tuple[Message, Message]:
    return (
        Message("assistant", _render_step_as_assistant(step)),
        Message("user", f"{OBSERVATION_KEY} {step.observation}"),
    )


def context_estimate(messages: tuple[Message, ...]) -> int:
    return sum(estimate_tokens(m.content) for m in messages)


# stands in for every dropped step of a compacted history
_MARKER_PAIR = _step_messages(AgentStep(OMITTED_MARKER, "", "", OMITTED_MARKER))
_MARKER_COST = context_estimate(_MARKER_PAIR)


class History:
    """One run's context, each part rendered and priced once: the head
    (system prompt with tool instructions, then the task) when the history
    is made, and each step's assistant/user pair when the step is appended.
    `total` is the estimate of the head plus every step."""

    def __init__(self, config: ReactConfig, task: str):
        self.head = _head_messages(config, task)
        self.total = context_estimate(self.head)
        self.steps: list[AgentStep] = []
        self.pairs: list[tuple[Message, Message]] = []
        self.costs: list[int] = []

    def append(self, step: AgentStep) -> None:
        pair = _step_messages(step)
        cost = context_estimate(pair)
        self.steps.append(step)
        self.pairs.append(pair)
        self.costs.append(cost)
        self.total += cost


def assemble_messages(history: History, dropped: int = 0) -> tuple[Message, ...]:
    """Build the request messages from the history's rendered parts: the
    head, then one assistant/user pair per step, with the `dropped` oldest
    steps replaced by one marker pair."""
    marker = _MARKER_PAIR if dropped else ()
    return tuple(chain(history.head, marker, *history.pairs[dropped:]))


def compact_steps(history: History, limit: int) -> int:
    """How many of the oldest steps to drop so the context fits `limit`.

    Dropped steps are replaced by one marker step so the model knows history
    is missing; the two most recent steps are always kept verbatim. Every
    step was priced when it was appended, so this walks the cached costs from
    the oldest step, subtracting each from the running total as it drops,
    and renders nothing.
    """
    costs = history.costs
    total = history.total
    dropped = 0
    while len(costs) - dropped > 2 and total + (_MARKER_COST if dropped else 0) > limit:
        total -= costs[dropped]
        dropped += 1
    return dropped


# --- the loop -----------------------------------------------------------------


def corrective_observation(reason: MalformedReason, tool_names: tuple[str, ...]) -> str:
    names = ", ".join(tool_names)
    return (
        f"format error: {reason.value}. Reply in exactly this format. To use a tool:\n"
        f"{THOUGHT_KEY} <your reasoning>\n"
        f"{ACTION_KEY} <one of: {names}>\n"
        f"{INPUT_KEY} <input for the tool>\n"
        f"Or, to answer:\n"
        f"{THOUGHT_KEY} <your reasoning>\n"
        f"{FINAL_KEY} <your answer>"
    )


class RunOutcome(NamedTuple):
    result: Forecast | Declined
    transcript: Transcript


def _prepare_messages(config: ReactConfig, history: History) -> tuple[Message, ...] | None:
    """Assemble the next request under the budget policy. The history's
    running total is the context estimate, so the check prices nothing. Over
    the limit, fail mode returns None and compact mode drops the oldest steps
    that `compact_steps` picks from the cached costs."""
    limit = config.context_token_limit
    if limit is None or history.total <= limit:
        return assemble_messages(history)
    if config.on_budget_exceeded == "fail":
        return None
    return assemble_messages(history, compact_steps(history, limit))


def run_react(config: ReactConfig, backend: Backend, task: str) -> RunOutcome:
    """Run one agent to completion.

    Ends with a Forecast or Declined plus the full transcript. The model gets
    max_iterations emissions; if it still has not answered, one more turn
    asks for the final answer with tools forbidden, and its reply is read as
    the answer whatever its form. A chat call that fails after its retries
    (CallFailed) declines the run rather than killing the batch; every other
    backend error, here or inside a tool, propagates.
    """
    history = History(config, task)
    tools = {tool.name: tool for tool in config.tools}
    tool_names = tuple(tools)

    def finish(result: Forecast | Declined, final: FinalState) -> RunOutcome:
        return RunOutcome(result, Transcript(config.agent_id, tuple(history.steps), final))

    # the turn after the last iteration is the forced finalization, which always returns
    for turn in range(config.max_iterations + 1):
        finalizing = turn == config.max_iterations
        messages = _prepare_messages(config, history)
        if messages is None:
            return finish(Declined("budget"), FinalState("truncated"))
        if finalizing:
            messages += (Message("user", FINALIZE_INSTRUCTION),)
        request = ChatRequest(
            model_id=config.model_id,
            messages=messages,
            temperature=config.temperature,
            stop_sequences=STOP_SEQUENCES,
        )
        try:
            content = backend.complete(request).content
        except CallFailed as exc:
            logger.warning("agent %s: backend failure: %s", config.agent_id, exc)
            return finish(Declined(f"backend: {exc}"), FinalState("truncated"))
        parsed = parse_emission(content, tool_names)
        if finalizing:
            answer = parsed.answer_text if isinstance(parsed, FinalEmission) else content.strip()
            result = extract_probability(answer)
            if isinstance(result, Forecast):
                return finish(result, FinalState("truncated_finalized", answer))
            return finish(Declined(f"truncated: {result.reason}"), FinalState("truncated"))
        if isinstance(parsed, FinalEmission):
            return finish(extract_probability(parsed.answer_text), FinalState("final", parsed.answer_text))
        if isinstance(parsed, ActionEmission):
            tool = tools[parsed.action]  # parse_emission passes only these names
            try:
                observation = tool.invoke(parsed.action_input)
            except BackendError:
                raise  # a worker's rejected key or cassette fault ends the run
            except Exception as exc:  # tool bugs become observations, not crashes
                logger.warning("agent %s: tool %s raised: %s", config.agent_id, parsed.action, exc)
                observation = f"tool error: {exc}"
            history.append(AgentStep(parsed.thought, parsed.action, parsed.action_input, observation))
        else:
            history.append(
                AgentStep(
                    thought=content,
                    action="",
                    action_input="",
                    observation=corrective_observation(parsed.reason, tool_names),
                )
            )


# --- transcript rendering ------------------------------------------------------


def render_transcript_text(transcript: Transcript, task: str) -> str:
    """Deterministic plain-text form of one agent run, for the transcript files."""
    parts = [f"=== agent {transcript.agent_id} ===", "=== task ===", task]
    for i, step in enumerate(transcript.steps, start=1):
        parts.append(f"=== emission {i} ===")
        parts.append(_render_step_as_assistant(step))
        parts.append(f"=== observation {i} ===")
        parts.append(step.observation)
    parts.append(f"=== final ({transcript.final.kind}) ===")
    parts.append(transcript.final.answer_text)
    return "\n".join(parts) + "\n"
