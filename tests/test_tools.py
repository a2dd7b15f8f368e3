"""Tool layer: date-restricted search, the sandbox, observation rendering."""

import json
import time
from datetime import date

import pytest

from agentcast.tools import (
    ExecResult,
    FixtureSearchProvider,
    LiveSearchProvider,
    ProviderError,
    Sandbox,
    SandboxTimeout,
    SearchResult,
    ToolRegistry,
    ToolSpec,
    execute_code,
    make_code_tool,
    make_search_tool,
    render_observation,
    search,
    truncate_text,
)

from conftest import FakeResponse

CUTOFF = date(2024, 4, 15)


class CaptureProvider:
    """Records every outbound request; serves whatever it was given."""

    def __init__(self, results=()):
        self.results = list(results)
        self.calls = []

    def search(self, query, before_date, limit):
        self.calls.append((query, before_date, limit))
        return self.results[:limit]


def result(title="T", snippet="S", published=None):
    return SearchResult(title=title, url="https://example.org", snippet=snippet, published=published)


def test_search_sends_before_date_on_every_request():
    provider = CaptureProvider([result()])
    search(provider, "ethereum price", CUTOFF)
    search(provider, "other query", CUTOFF, k=3)
    assert [(q, b) for q, b, _ in provider.calls] == [
        ("ethereum price", CUTOFF),
        ("other query", CUTOFF),
    ]
    assert provider.calls[0][2] == 8  # default result count
    assert provider.calls[1][2] == 3


def test_search_filters_results_dated_on_or_after_cutoff():
    provider = CaptureProvider(
        [
            result("before", published=date(2024, 4, 14)),
            result("on cutoff", published=date(2024, 4, 15)),
            result("after", published=date(2024, 5, 1)),
            result("undated"),
        ]
    )
    kept = search(provider, "q", CUTOFF)
    assert [r.title for r in kept] == ["before", "undated"]


def test_search_rejects_empty_query_and_missing_cutoff():
    provider = CaptureProvider()
    with pytest.raises(ValueError, match="empty"):
        search(provider, "   ", CUTOFF)
    with pytest.raises(ValueError, match="before_date"):
        search(provider, "q", None)
    assert provider.calls == []


def test_fixture_provider_round_trips_file(tmp_path):
    path = tmp_path / "search.jsonl"
    lines = [
        {
            "query": "ethereum price",
            "results": [
                {"title": "ETH today", "url": "u", "snippet": "price data", "published": "2024-04-10"}
            ],
        },
        {"query": "default", "results": [{"title": "fallback", "url": "u", "snippet": "s"}]},
    ]
    path.write_text("\n".join(json.dumps(l) for l in lines), encoding="utf-8")
    provider = FixtureSearchProvider.from_file(path)
    hit = provider.search("ethereum price", CUTOFF, 8)
    assert hit[0].title == "ETH today" and hit[0].published == date(2024, 4, 10)
    assert provider.search("unknown", CUTOFF, 8)[0].title == "fallback"
    assert provider.calls[0] == ("ethereum price", CUTOFF, 8)


def dated_fixture(tmp_path, published_values):
    path = tmp_path / "search.jsonl"
    results = [
        {"title": f"r{i}", "url": f"u{i}", "snippet": "s", "published": value}
        for i, value in enumerate(published_values)
    ]
    path.write_text(json.dumps({"query": "q", "results": results}), encoding="utf-8")
    return FixtureSearchProvider.from_file(path)


def test_search_reads_timestamped_dates_against_the_cutoff(tmp_path):
    provider = dated_fixture(tmp_path, ["2024-04-14T10:15:00Z", "2024-04-15T00:30:00Z", "2024-04-13"])
    assert [r.title for r in search(provider, "q", CUTOFF)] == ["r0", "r2"]
    assert provider.search("q", CUTOFF, 8)[0].published == date(2024, 4, 14)


def test_unreadable_search_date_drops_only_that_result(monkeypatch):
    raw = [{"title": f"r{i}", "published": p} for i, p in enumerate(["2024-04-10", "last Tuesday", None])]
    response = FakeResponse(200, payload={"results": raw})
    monkeypatch.setattr("requests.get", lambda *args, **kwargs: response)
    provider = LiveSearchProvider("https://search.example", "key")
    assert [r.title for r in search(provider, "q", CUTOFF)] == ["r0", "r2"]


def test_live_search_honors_retry_after(monkeypatch):
    responses = [FakeResponse(429, {"Retry-After": "0.05"}), FakeResponse(200, payload={"results": []})]
    monkeypatch.setattr("requests.get", lambda *args, **kwargs: responses.pop(0))
    sleeps = []
    provider = LiveSearchProvider("https://search.example", "key", sleep=sleeps.append)
    assert provider.search("q", CUTOFF, 8) == []
    assert sleeps == [0.05]


def test_render_search_observation():
    text = render_observation([result("A", "first"), result("B", "second")])
    assert text == "A — first\nB — second"
    assert render_observation([]) == "no results"


def test_observation_budget_truncates_with_marker():
    huge = [result("T", "x" * 10_000)]
    text = render_observation(huge, observation_budget=120)
    assert len(text) == 120
    assert text.endswith("[truncated]")
    assert truncate_text("short", 100) == "short"


def test_search_tool_invocation():
    provider = CaptureProvider([result("Title", "Snippet")])
    tool = make_search_tool(provider, CUTOFF, k=5)
    assert tool.kind == "raw"
    assert "before 2024-04-15" in tool.description
    obs = tool.invoke('"quoted query"')
    assert obs == "Title — Snippet"
    assert provider.calls[0] == ("quoted query", CUTOFF, 5)
    assert tool.invoke("   ") == "search error: empty query"


def test_search_tool_surfaces_provider_failure_as_observation():
    class FailingProvider:
        def search(self, query, before_date, limit):
            raise ProviderError("quota exhausted")

    tool = make_search_tool(FailingProvider(), CUTOFF)
    assert tool.invoke("q") == "search error: quota exhausted"


# --- sandbox -----------------------------------------------------------------


def test_execute_code_captures_stdout_and_wall_time():
    sandbox = Sandbox()
    outcome = execute_code(sandbox, "print(6 * 7)")
    assert outcome.stdout.strip() == "42"
    assert outcome.exit_status == 0
    assert outcome.wall_time >= 0.0


def test_execute_code_nonzero_exit_keeps_error_tail():
    outcome = execute_code(Sandbox(), "raise RuntimeError('math is hard')")
    assert outcome.exit_status != 0
    assert "math is hard" in outcome.stderr


def test_execute_code_cannot_read_api_keys(monkeypatch):
    monkeypatch.setenv("LLM_API_KEY", "llm-secret-4711")
    monkeypatch.setenv("SEARCH_API_KEY", "search-secret-0815")
    program = "import os\nprint(os.environ.get('LLM_API_KEY'), os.environ.get('SEARCH_API_KEY'))\nprint(dict(os.environ))"
    outcome = execute_code(Sandbox(), program)
    assert outcome.exit_status == 0
    assert "llm-secret-4711" not in outcome.stdout + outcome.stderr
    assert "search-secret-0815" not in outcome.stdout + outcome.stderr


def test_execute_code_timeout_enforced_with_grace():
    sandbox = Sandbox(timeout=0.5)
    start = time.monotonic()
    with pytest.raises(SandboxTimeout, match="timed out after 0.5s"):
        execute_code(sandbox, "while True: pass")
    assert time.monotonic() - start < 1.5  # timeout plus a second of grace


def test_execute_code_output_capped():
    outcome = execute_code(Sandbox(output_cap=100), "print('y' * 10_000)")
    assert len(outcome.stdout) == 100


def test_sandbox_template_validation():
    with pytest.raises(ValueError, match="placeholder"):
        Sandbox(command_template="python3")
    with pytest.raises(ValueError, match="timeout"):
        Sandbox(timeout=0)


def test_code_tool_invocation_strips_fences_and_reports_errors():
    tool = make_code_tool(Sandbox())
    assert tool.invoke("```python\nprint('ok')\n```").strip() == "ok"
    assert tool.invoke("print(1/0)").startswith("exit status 1")
    assert "ZeroDivisionError" in tool.invoke("print(1/0)")
    assert tool.invoke("  ") == "execution error: empty program"
    timeout_tool = make_code_tool(Sandbox(timeout=0.5))
    assert timeout_tool.invoke("while True: pass") == "execution timed out after 0.5s"


def test_render_exec_observation():
    assert render_observation(ExecResult("out\n", "", 0, 0.1)) == "out\n"
    assert render_observation(ExecResult("", "", 0, 0.1)) == "(no output)"
    failed = render_observation(ExecResult("partial", "Traceback...", 2, 0.1))
    assert "partial" in failed and "exit status 2" in failed and "Traceback" in failed


# --- registry ------------------------------------------------------------------


def noop_tool(name, kind="raw"):
    return ToolSpec(name=name, description="d", invoke=lambda s: s, kind=kind)


def test_registry_rejects_duplicates_and_preserves_order():
    registry = ToolRegistry([noop_tool("a"), noop_tool("b")])
    assert registry.names() == ("a", "b")
    assert registry.get("a").name == "a"
    assert registry.get("missing") is None
    with pytest.raises(ValueError, match="duplicate"):
        registry.register(noop_tool("a"))
    assert len(registry) == 2


def test_tool_spec_validation():
    with pytest.raises(ValueError, match="name"):
        noop_tool("bad\nname")
    with pytest.raises(ValueError, match="kind"):
        noop_tool("x", kind="meta")
