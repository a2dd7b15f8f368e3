"""Emission grammar, probability extraction, and the agent loop itself."""

import random

import pytest

from agentcast import react
from agentcast.llm import AuthError, CassetteMiss, Message, TransportError
from agentcast.models import AgentStep, Declined, FinalState, Forecast
from agentcast.react import (
    ActionEmission,
    FinalEmission,
    FINALIZE_INSTRUCTION,
    History,
    MalformedEmission,
    MalformedReason,
    OMITTED_MARKER,
    ReactConfig,
    assemble_messages,
    compact_steps,
    context_estimate,
    corrective_observation,
    estimate_tokens,
    extract_probability,
    parse_emission,
    render_emission,
    render_transcript_text,
    run_react,
)
from agentcast.tools import ToolSpec

from helpers import ScriptedBackend

TOOLS = ("Google Search Snippets", "web_search", "python")


def parse(text, tools=TOOLS):
    return parse_emission(text, tools)


# --- the well-formed fixtures: a search step, a second search step, and a
# --- bare final answer, as a tool-driven forecasting exchange actually looks


def test_parse_search_action_block():
    text = (
        "Thought: Do I need to use a tool? Yes\n"
        "Action: Google Search Snippets\n"
        'Action Input: "historical price data of Ethereum"'
    )
    parsed = parse(text)
    assert parsed == ActionEmission(
        thought="Do I need to use a tool? Yes",
        action="Google Search Snippets",
        action_input='"historical price data of Ethereum"',
    )


def test_parse_second_search_action_block():
    text = (
        "Thought: Do I need to use a tool? Yes\n"
        "Action: Google Search Snippets\n"
        "Action Input: Ethereum historical price data 2021 2022 2023"
    )
    parsed = parse(text)
    assert parsed.action_input == "Ethereum historical price data 2021 2022 2023"


def test_parse_final_answer_block():
    text = "Thought: Do I need to use a tool? No\nFinal Answer: 0.35"
    parsed = parse(text)
    assert parsed == FinalEmission(thought="Do I need to use a tool? No", answer_text="0.35")


def test_parse_final_answer_with_trailing_prose():
    parsed = parse("Final Answer: 0.35\nGiven the current trend the move looks unlikely.")
    assert isinstance(parsed, FinalEmission)
    assert parsed.answer_text.startswith("0.35")
    assert extract_probability(parsed.answer_text) == Forecast(0.35)


def test_first_decisive_keyword_wins():
    text = "Final Answer: 0.2\nAction: web_search\nAction Input: q"
    assert isinstance(parse(text), FinalEmission)
    text = "Action: web_search\nAction Input: q\nFinal Answer: 0.2"
    parsed = parse(text)
    assert isinstance(parsed, ActionEmission)
    assert parsed.action_input == "q"  # the later Final Answer line ends the input block


def test_multiline_action_input_is_preserved():
    program = "Action: python\nAction Input: import math\nprint(math.sqrt(2))"
    parsed = parse(program)
    assert parsed.action_input == "import math\nprint(math.sqrt(2))"


def test_action_name_is_trimmed():
    parsed = parse("Action:   web_search  \nAction Input: q")
    assert parsed.action == "web_search"


# --- the malformed corpus: twenty ways a model mangles the grammar, each
# --- pinned to the reason the parser must report

MALFORMED_CASES = [
    # no decisive keyword at a line start
    ("", MalformedReason.NO_KEYWORD),
    ("   ", MalformedReason.NO_KEYWORD),
    ("The probability is around 0.4, maybe less.", MalformedReason.NO_KEYWORD),
    ("Thought: I should look this up first.", MalformedReason.NO_KEYWORD),
    ("Thought: step one\nThought: step two", MalformedReason.NO_KEYWORD),
    ("action: web_search\naction input: q", MalformedReason.NO_KEYWORD),  # lowercase
    ("ACTION: web_search\nACTION INPUT: q", MalformedReason.NO_KEYWORD),  # uppercase
    ("  Action: web_search\n  Action Input: q", MalformedReason.NO_KEYWORD),  # indented
    ("I choose Action: web_search now", MalformedReason.NO_KEYWORD),  # mid-line
    ("Observation: no results", MalformedReason.NO_KEYWORD),
    ("Action web_search\nAction Input: q", MalformedReason.NO_KEYWORD),  # missing colon
    ("final answer: 0.35", MalformedReason.NO_KEYWORD),
    # decisive Action line, but the tool name is not registered
    ("Action: calculator\nAction Input: 2+2", MalformedReason.UNKNOWN_TOOL),
    ("Action: Web_Search\nAction Input: q", MalformedReason.UNKNOWN_TOOL),  # wrong case
    ("Action:\nAction Input: q", MalformedReason.UNKNOWN_TOOL),  # empty name
    ("Action: web search\nAction Input: q", MalformedReason.UNKNOWN_TOOL),  # wrong name
    ("Thought: hmm\nAction: bogus", MalformedReason.UNKNOWN_TOOL),  # name checked first
    # registered tool, but no usable input block
    ("Action: web_search", MalformedReason.MISSING_INPUT),
    ("Action: web_search\nAction Input:", MalformedReason.MISSING_INPUT),
    ("Action: web_search\nThought: wait\nAction Input: q", MalformedReason.MISSING_INPUT),
]


def test_malformed_corpus_reports_the_right_reason():
    assert len(MALFORMED_CASES) == 20
    for text, expected in MALFORMED_CASES:
        parsed = parse(text)
        assert isinstance(parsed, MalformedEmission), f"not malformed: {text!r}"
        assert parsed.reason is expected, f"{text!r}: got {parsed.reason}, want {expected}"


def test_render_parse_round_trip_on_random_emissions():
    rng = random.Random(1234)
    words = ["price", "data", "market", "close", "trend", "rate", "q4", "2024"]

    def text(n):
        return " ".join(rng.choice(words) for _ in range(rng.randint(1, n)))

    for _ in range(200):
        thought = text(6) if rng.random() < 0.8 else ""
        if rng.random() < 0.5:
            lines = [text(5) for _ in range(rng.randint(1, 3))]
            emission = ActionEmission(thought, rng.choice(TOOLS), "\n".join(lines))
        else:
            emission = FinalEmission(thought, f"0.{rng.randint(1, 99):02d} {text(3)}")
        assert parse(render_emission(emission)) == emission


# --- probability extraction ---------------------------------------------------


def test_extract_probability_paths():
    assert extract_probability("0.35") == Forecast(0.35)
    assert extract_probability("The probability is 0.35.") == Forecast(0.35)
    assert extract_probability("35%") == Forecast(0.35)
    assert extract_probability("I estimate 35 percent, roughly") == Forecast(0.35)
    assert extract_probability("around 72.5% likely") == Forecast(0.725)
    assert extract_probability(".6") == Forecast(0.6)
    assert extract_probability("1") == Forecast(0.99)  # 1 is a probability, clamped
    assert extract_probability("0") == Forecast(0.01)
    assert extract_probability("0.999") == Forecast(0.99)
    assert extract_probability("0.001") == Forecast(0.01)
    assert extract_probability("0.5% chance") == Forecast(0.01)
    assert extract_probability("100") == Forecast(0.99)  # bare (1, 100] read as percent
    assert extract_probability("40") == Forecast(0.4)
    assert extract_probability("0.35The search results say so") == Forecast(0.35)


def test_extract_probability_declines():
    assert extract_probability("I cannot answer this.") == Declined("no numeric token in final answer")
    assert isinstance(extract_probability(""), Declined)
    assert isinstance(extract_probability("about -0.2"), Declined)
    assert isinstance(extract_probability("250"), Declined)
    assert isinstance(extract_probability("250%"), Declined)


def test_extract_probability_first_token_wins():
    assert extract_probability("0.3 or maybe 0.7") == Forecast(0.3)
    assert extract_probability("between 20% and 40%") == Forecast(0.2)


# --- loop plumbing --------------------------------------------------------------


def echo_tools(observations=None):
    log = []

    def invoke(text):
        log.append(text)
        if observations:
            return observations.pop(0)
        return f"observed:{text}"

    tools = (ToolSpec("web_search", "search the web", invoke),)
    return tools, log


def config(tools, **kwargs):
    defaults = dict(system_prompt="You forecast.", tools=tools, agent_id="t")
    defaults.update(kwargs)
    return ReactConfig(**defaults)


def test_react_config_rejects_duplicate_tool_names_and_keeps_tool_order():
    def tool(name):
        return ToolSpec(name, "d", lambda s: s)

    backend = ScriptedBackend(["Final Answer: 0.5"])
    run_react(config((tool("b"), tool("a"))), backend, "task")
    assert "<one of: b, a>" in backend.requests[0].messages[0].content
    with pytest.raises(ValueError, match="duplicate tool name"):
        config((tool("a"), tool("b"), tool("a")))


def test_run_react_action_then_final():
    tools, log = echo_tools()
    backend = ScriptedBackend(
        [
            "Thought: look it up\nAction: web_search\nAction Input: eth price",
            "Thought: enough\nFinal Answer: 0.35",
        ]
    )
    outcome = run_react(config(tools), backend, "Will ETH close above 3700?")
    assert outcome.result == Forecast(0.35)
    assert log == ["eth price"]
    transcript = outcome.transcript
    assert transcript.final.kind == "final"
    assert transcript.final.answer_text == "0.35"
    assert len(transcript.steps) == 1
    assert transcript.steps[0].observation == "observed:eth price"
    # second request carries the first exchange verbatim
    second = backend.requests[1]
    assert second.messages[2].content == "Thought: look it up\nAction: web_search\nAction Input: eth price"
    assert second.messages[3].content == "Observation: observed:eth price"
    assert second.stop_sequences == ("Observation:",)


def test_run_react_corrects_malformed_emission():
    tools, _ = echo_tools()
    backend = ScriptedBackend(["Let me think about this.", "Final Answer: 0.6"])
    outcome = run_react(config(tools), backend, "task")
    assert outcome.result == Forecast(0.6)
    step = outcome.transcript.steps[0]
    assert step.action == ""
    assert step.thought == "Let me think about this."
    assert step.observation == corrective_observation(MalformedReason.NO_KEYWORD, ("web_search",))
    assert "format error: NoKeyword" in step.observation
    assert "web_search" in step.observation


def test_run_react_forced_finalization_after_cap():
    tools, _ = echo_tools()
    backend = ScriptedBackend(
        [
            "Action: web_search\nAction Input: a",
            "Action: web_search\nAction Input: b",
            "Final Answer: 0.7",
        ]
    )
    outcome = run_react(config(tools, max_iterations=2), backend, "task")
    assert outcome.result == Forecast(0.7)
    assert outcome.transcript.final.kind == "truncated_finalized"
    final_request = backend.requests[-1]
    assert final_request.messages[-1].content == FINALIZE_INSTRUCTION
    assert len(outcome.transcript.steps) == 2


def test_run_react_finalization_accepts_bare_number():
    tools, _ = echo_tools()
    backend = ScriptedBackend(["Action: web_search\nAction Input: a", "0.8, most likely"])
    outcome = run_react(config(tools, max_iterations=1), backend, "task")
    assert outcome.result == Forecast(0.8)
    assert outcome.transcript.final.kind == "truncated_finalized"


def test_run_react_declines_when_finalization_fails():
    tools, _ = echo_tools()
    backend = ScriptedBackend(["Action: web_search\nAction Input: a", "I really cannot say."])
    outcome = run_react(config(tools, max_iterations=1), backend, "task")
    assert outcome.result == Declined("truncated: no numeric token in final answer")
    assert outcome.transcript.final.kind == "truncated"


def test_a_failed_finalization_request_declines_with_the_backend_reason():
    tools, _ = echo_tools()
    backend = ScriptedBackend(["Action: web_search\nAction Input: a", TransportError("socket closed")])
    outcome = run_react(config(tools, max_iterations=1), backend, "task")
    assert outcome.result == Declined("backend: socket closed")
    assert outcome.transcript.final == FinalState("truncated")
    assert len(outcome.transcript.steps) == 1
    assert backend.requests[-1].messages[-1] == Message("user", FINALIZE_INSTRUCTION)


def test_a_finalization_over_the_limit_declines_with_budget_in_fail_mode():
    tools, _ = echo_tools(["x" * 4000])
    cfg = config(tools, max_iterations=1, context_token_limit=300, on_budget_exceeded="fail")
    backend = ScriptedBackend(["Action: web_search\nAction Input: q", "unused"])
    outcome = run_react(cfg, backend, "task")
    assert outcome.result == Declined("budget")
    assert outcome.transcript.final == FinalState("truncated")
    assert len(outcome.transcript.steps) == 1
    assert len(backend.requests) == 1  # the finalization request never went out


def test_run_react_declines_on_backend_failure():
    tools, _ = echo_tools()
    backend = ScriptedBackend([TransportError("socket closed")])
    outcome = run_react(config(tools), backend, "task")
    assert isinstance(outcome.result, Declined)
    assert outcome.result.reason.startswith("backend:")
    assert outcome.transcript.final.kind == "truncated"
    # a rejected key is not one failed call: it ends the run
    with pytest.raises(AuthError):
        run_react(config(tools), ScriptedBackend([AuthError("bad key")]), "task")


def test_run_react_propagates_cassette_miss():
    tools, _ = echo_tools()
    backend = ScriptedBackend([CassetteMiss("feed" * 16, None or make_dummy_request())])
    with pytest.raises(CassetteMiss):
        run_react(config(tools), backend, "task")


def make_dummy_request():
    from agentcast.llm import ChatRequest, Message

    return ChatRequest(model_id="m", messages=(Message("user", "x"),))


def test_run_react_tool_exception_becomes_observation():
    def invoke(text):
        raise RuntimeError("tool blew up")

    tools = (ToolSpec("web_search", "d", invoke),)
    backend = ScriptedBackend(
        ["Action: web_search\nAction Input: q", "Final Answer: 0.5"]
    )
    outcome = run_react(config(tools), backend, "task")
    assert outcome.result == Forecast(0.5)
    assert outcome.transcript.steps[0].observation == "tool error: tool blew up"


def test_unknown_tool_gets_corrective_observation_not_a_call():
    tools, log = echo_tools()
    backend = ScriptedBackend(
        ["Action: calculator\nAction Input: 2+2", "Final Answer: 0.4"]
    )
    outcome = run_react(config(tools), backend, "task")
    assert log == []
    assert "UnknownTool" in outcome.transcript.steps[0].observation


# --- context budget --------------------------------------------------------------


def test_estimate_tokens_chars_over_four():
    assert estimate_tokens("") == 0
    assert estimate_tokens("abcd") == 1
    assert estimate_tokens("abcde") == 2
    assert estimate_tokens("x" * 400) == 100
    assert estimate_tokens("x" * 401) == 101


def make_steps(n, obs_chars=400):
    from agentcast.models import AgentStep

    return [AgentStep(f"thought {i}", "web_search", f"query {i}", "o" * obs_chars) for i in range(n)]


MARKER = AgentStep(OMITTED_MARKER, "", "", OMITTED_MARKER)


def history_of(cfg, task, steps=()):
    history = History(cfg, task)
    for step in steps:
        history.append(step)
    return history


def compacted_view(cfg, task, steps):
    """The steps a compacted request shows: the marker, then the kept ones."""
    dropped = compact_steps(history_of(cfg, task, steps), cfg.context_token_limit)
    return [MARKER] + steps[dropped:] if dropped else list(steps)


def test_compact_drops_oldest_and_keeps_recent_two():
    tools, _ = echo_tools()
    cfg = config(tools, context_token_limit=400)
    steps = make_steps(6)
    history = history_of(cfg, "task", steps)
    dropped = compact_steps(history, 400)
    assert 0 < dropped <= len(steps) - 2
    messages = assemble_messages(history, dropped)
    assert messages[2:4] == (Message("assistant", OMITTED_MARKER), Message("user", f"Observation: {OMITTED_MARKER}"))
    # the most recent steps verbatim, with nothing of the dropped ones
    assert messages[4:] == assemble_messages(history_of(cfg, "task", steps[dropped:]))[2:]


def quadratic_compact(cfg, task, steps):
    """Reference: reassemble and re-estimate the whole context after every
    dropped step, as compaction first did."""
    kept, dropped = list(steps), 0
    while len(kept) > 2:
        view = [MARKER] + kept if dropped else kept
        if context_estimate(assemble_messages(history_of(cfg, task, view))) <= cfg.context_token_limit:
            break
        kept.pop(0)
        dropped += 1
    return [MARKER] + kept if dropped else kept


@pytest.mark.parametrize("n", [10, 50, 200])
def test_compact_matches_quadratic_reference(n):
    tools, _ = echo_tools()
    rng = random.Random(n)
    steps = [
        AgentStep(f"thought {i}", "web_search", f"query {i}", "o" * rng.randrange(0, 900)) for i in range(n)
    ]
    full = context_estimate(assemble_messages(history_of(config(tools), "task", steps)))
    for limit in (0, 100, full // 3, full // 2, full - 1, full):
        cfg = config(tools, context_token_limit=limit)
        assert compacted_view(cfg, "task", steps) == quadratic_compact(cfg, "task", steps), limit


def long_run_script(n, rng):
    """n emissions for a run of n steps: mostly searches, some malformed
    emissions and unknown tools, with observations of varied size."""
    emissions, observations = [], []
    for i in range(n):
        roll = rng.random()
        if roll < 0.1:
            emissions.append(f"thinking out loud {i}")
        elif roll < 0.15:
            emissions.append(f"Action: calculator\nAction Input: {i}+1")
        else:
            emissions.append(f"Thought: step {i}\nAction: web_search\nAction Input: query {i}")
            observations.append("r" * rng.choice([0, 3, 40, 400, 1200, 3000]))
    return emissions, observations


def compacted(request):
    return request.messages[2:3] == (Message("assistant", OMITTED_MARKER),)


def expected_request(cfg, task, steps):
    """A request rebuilt from the full step list with the quadratic
    reference: None when fail mode blows the budget."""
    limit = cfg.context_token_limit
    view = list(steps)
    if limit is not None and context_estimate(assemble_messages(history_of(cfg, task, view))) > limit:
        if cfg.on_budget_exceeded == "fail":
            return None
        view = quadratic_compact(cfg, task, view)
    return assemble_messages(history_of(cfg, task, view))


@pytest.mark.parametrize("policy", ["compact", "fail"])
@pytest.mark.parametrize("limit", [None, 0, 350, 1200, 4000, 20000])
def test_every_request_matches_one_rebuilt_from_the_full_step_list(policy, limit):
    n = 60
    rng = random.Random(f"{policy}-{limit}")
    emissions, observations = long_run_script(n, rng)
    tools, _ = echo_tools(observations)
    cfg = config(tools, max_iterations=n, context_token_limit=limit, on_budget_exceeded=policy)
    backend = ScriptedBackend(emissions + ["Final Answer: 0.4"])
    outcome = run_react(cfg, backend, "a long task")
    steps = list(outcome.transcript.steps)
    for i, request in enumerate(backend.requests[:n]):
        assert request.messages == expected_request(cfg, "a long task", steps[:i]), i
    if outcome.result == Declined("budget"):
        # the request the budget blocked was never sent
        assert expected_request(cfg, "a long task", steps) is None
        assert len(backend.requests) == len(steps)
    else:
        # the run reached the forced final request
        assert outcome.transcript.final.kind == "truncated_finalized"
        assert len(backend.requests) == n + 1 and len(steps) == n
        assert backend.requests[-1].messages[-1] == Message("user", FINALIZE_INSTRUCTION)
        assert backend.requests[-1].messages[:-1] == expected_request(cfg, "a long task", steps)
    if policy == "compact" and limit in (350, 1200, 4000):
        assert any(map(compacted, backend.requests))


@pytest.mark.parametrize("policy", ["compact", "fail"])
def test_a_request_exactly_at_the_limit_is_sent_whole(policy):
    def run(limit):
        tools, _ = echo_tools(["x" * 400, "y" * 400])
        cfg = config(tools, max_iterations=3, context_token_limit=limit, on_budget_exceeded=policy)
        emissions = ["Action: web_search\nAction Input: a", "Action: web_search\nAction Input: b"]
        backend = ScriptedBackend(emissions + ["Final Answer: 0.3"])
        return run_react(cfg, backend, "task"), backend.requests

    _, unlimited = run(None)
    outcome, requests = run(context_estimate(unlimited[2].messages))
    assert outcome.result == Forecast(0.3)
    assert requests == unlimited


def test_a_compacting_run_renders_each_step_once(monkeypatch):
    n = 60
    renders = []
    render = react._render_step_as_assistant

    def counted(step):
        renders.append(step)
        return render(step)

    monkeypatch.setattr(react, "_render_step_as_assistant", counted)
    emissions, observations = long_run_script(n, random.Random(7))
    tools, _ = echo_tools(observations)
    cfg = config(tools, max_iterations=n, context_token_limit=1500)
    backend = ScriptedBackend(emissions + ["Final Answer: 0.4"])
    outcome = run_react(cfg, backend, "task")
    render_transcript_text(outcome.transcript, "task")
    assert len(outcome.transcript.steps) == n
    assert sum(map(compacted, backend.requests)) > n // 2
    # once for the requests and once for the transcript text
    assert len(renders) <= n + len(outcome.transcript.steps)


def test_budget_fail_mode_declines_with_budget_reason():
    tools, _ = echo_tools([("x" * 4000)])
    cfg = config(tools, context_token_limit=300, on_budget_exceeded="fail")
    backend = ScriptedBackend(["Action: web_search\nAction Input: q", "unused"])
    outcome = run_react(cfg, backend, "task")
    assert outcome.result == Declined("budget")
    assert outcome.transcript.final.kind == "truncated"
    assert len(backend.requests) == 1  # the second request never went out


def test_budget_compact_mode_keeps_running():
    tools, _ = echo_tools(["x" * 4000, "y" * 4000, "done"])
    cfg = config(tools, context_token_limit=1500, on_budget_exceeded="compact")
    backend = ScriptedBackend(
        [
            "Action: web_search\nAction Input: a",
            "Action: web_search\nAction Input: b",
            "Action: web_search\nAction Input: c",
            "Final Answer: 0.45",
        ]
    )
    outcome = run_react(cfg, backend, "task")
    assert outcome.result == Forecast(0.45)
    # some later request saw the omission marker instead of the oldest step
    assert any(
        any(OMITTED_MARKER in m.content for m in request.messages) for request in backend.requests
    )
    # but the transcript still holds every real step
    assert len(outcome.transcript.steps) == 3


def test_assemble_messages_shape():
    tools, _ = echo_tools()
    cfg = config(tools)
    messages = assemble_messages(history_of(cfg, "the task", make_steps(2, obs_chars=10)))
    assert [m.role for m in messages] == ["system", "user", "assistant", "user", "assistant", "user"]
    assert "You forecast." in messages[0].content
    assert "web_search: search the web" in messages[0].content
    assert messages[1].content == "the task"
    assert messages[3].content.startswith("Observation: ")


def test_render_transcript_text_is_deterministic():
    tools, _ = echo_tools()
    backend = ScriptedBackend(
        ["Action: web_search\nAction Input: q", "Final Answer: 0.35"]
    )
    outcome = run_react(config(tools), backend, "task text")
    text = render_transcript_text(outcome.transcript, "task text")
    assert "=== agent t ===" in text
    assert "=== emission 1 ===" in text
    assert "=== final (final) ===" in text
    assert text == render_transcript_text(outcome.transcript, "task text")
