"""Tool layer: date-restricted search, the sandbox, observation rendering."""

import json
import os
import signal
import sys
import time
from datetime import date
from pathlib import Path

import pytest

from agentcast.tools import (
    FixtureSearchProvider,
    LiveSearchProvider,
    ProviderError,
    SANDBOX_OUTPUT_CAP,
    SandboxTimeout,
    SearchResult,
    ToolSpec,
    execute_code,
    make_code_tool,
    make_search_tool,
    search,
    truncate_text,
)

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


def test_unreadable_search_date_drops_only_that_result(loopback):
    raw = [{"title": f"r{i}", "published": p} for i, p in enumerate(["2024-04-10", "last Tuesday", None])]
    loopback.serve((200, {}, {"results": raw}))
    provider = LiveSearchProvider(loopback.url, "key")
    assert [r.title for r in search(provider, "q", CUTOFF)] == ["r0", "r2"]


def test_non_object_search_entry_drops_only_that_entry(loopback):
    valid = {"title": "T", "url": "https://e.org", "snippet": "s", "published": "2024-04-10"}
    loopback.serve((200, {}, {"results": ["just a string", 7, valid]}))
    provider = LiveSearchProvider(loopback.url, "key")
    assert search(provider, "q", CUTOFF) == [SearchResult("T", "https://e.org", "s", date(2024, 4, 10))]


def test_live_search_honors_retry_after(loopback):
    loopback.serve((429, {"Retry-After": "0.05"}, {}), (200, {}, {"results": []}))
    sleeps = []
    provider = LiveSearchProvider(loopback.url, "key", sleep=sleeps.append)
    assert provider.search("q", CUTOFF, 8) == []
    assert sleeps == [0.05]


def test_live_search_sends_the_cutoff_and_the_key(loopback):
    loopback.serve((200, {}, {"results": []}))
    LiveSearchProvider(loopback.url + "/v1", "key").search("rain in may", CUTOFF, 8)
    method, target, headers, body = loopback.requests[0]
    assert (method, target, body) == ("GET", "/v1/search?q=rain+in+may&num=8&before=2024-04-15", b"")
    assert headers["Authorization"] == "Bearer key"


@pytest.mark.parametrize(
    "body",
    ["<html>busy</html>", [{"title": "T"}], {"items": []}, {"results": "none"}],
    ids=["not-json", "not-an-object", "no-results", "results-not-a-list"],
)
def test_unusable_search_body_becomes_a_search_error(loopback, body):
    loopback.serve((200, {}, body))
    tool = make_search_tool(LiveSearchProvider(loopback.url, "key"), CUTOFF)
    assert tool.invoke("q").startswith("search error: malformed search payload")


def test_render_search_observation():
    tool = make_search_tool(CaptureProvider([result("A", "first"), result("B", "second")]), CUTOFF)
    assert tool.invoke("q") == "A — first\nB — second"
    assert make_search_tool(CaptureProvider(), CUTOFF).invoke("q") == "no results"


def test_observation_budget_truncates_with_marker():
    huge = [result("T", "x" * 10_000)]
    text = make_search_tool(CaptureProvider(huge), CUTOFF, observation_budget=120).invoke("q")
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
    outcome = execute_code("print(6 * 7)", 10.0)
    assert outcome.stdout.strip() == "42"
    assert outcome.exit_status == 0
    assert outcome.wall_time >= 0.0


def test_execute_code_nonzero_exit_keeps_error_tail():
    outcome = execute_code("raise RuntimeError('math is hard')", 10.0)
    assert outcome.exit_status != 0
    assert "math is hard" in outcome.stderr


def test_execute_code_cannot_read_api_keys(monkeypatch):
    monkeypatch.setenv("LLM_API_KEY", "llm-secret-4711")
    monkeypatch.setenv("SEARCH_API_KEY", "search-secret-0815")
    program = "import os\nprint(os.environ.get('LLM_API_KEY'), os.environ.get('SEARCH_API_KEY'))\nprint(dict(os.environ))"
    outcome = execute_code(program, 10.0)
    assert outcome.exit_status == 0
    assert "llm-secret-4711" not in outcome.stdout + outcome.stderr
    assert "search-secret-0815" not in outcome.stdout + outcome.stderr


def test_execute_code_runs_the_interpreter_in_isolated_mode():
    outcome = execute_code("import os, sys\nprint(sys.flags.isolated, os.getcwd() in sys.path)", 10.0)
    assert outcome.exit_status == 0
    assert outcome.stdout.split() == ["1", "False"]


def test_execute_code_timeout_enforced_with_grace():
    start = time.monotonic()
    with pytest.raises(SandboxTimeout, match="timed out after 0.5s"):
        execute_code("while True: pass", 0.5)
    assert time.monotonic() - start < 1.5  # timeout plus a second of grace


def _alive(pid):
    """True while `pid` runs; a zombie waiting to be reaped counts as gone."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    stat = Path(f"/proc/{pid}/stat")
    try:
        return stat.read_text().rsplit(")", 1)[1].split()[0] != "Z"
    except (FileNotFoundError, IndexError):
        return not sys.platform.startswith("linux")


@pytest.mark.parametrize("ends", ["timeout", "exit"])
def test_execute_code_leaves_no_grandchild_running(tmp_path, ends):
    pid_file = tmp_path / "grandchild.pid"
    program = (
        "import pathlib, subprocess, time\n"
        "child = subprocess.Popen(['sleep', '30'], stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)\n"
        f"pathlib.Path({str(pid_file)!r}).write_text(str(child.pid))\n"
        + ("time.sleep(30)\n" if ends == "timeout" else "")
    )
    try:
        if ends == "timeout":
            with pytest.raises(SandboxTimeout):
                execute_code(program, 2.0)
        else:
            assert execute_code(program, 5.0).exit_status == 0
        pid = int(pid_file.read_text())
        deadline = time.monotonic() + 5
        while _alive(pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _alive(pid)
    finally:
        if pid_file.exists() and _alive(int(pid_file.read_text())):
            os.kill(int(pid_file.read_text()), signal.SIGKILL)


def test_execute_code_timeout_holds_against_a_process_that_left_the_group(tmp_path):
    # the grandchild starts its own session, so killing the program's group
    # misses it, and it keeps the inherited stdout pipe open
    pid_file = tmp_path / "escaped.pid"
    program = (
        "import pathlib, subprocess, time\n"
        "child = subprocess.Popen(['sleep', '30'], start_new_session=True)\n"
        f"pathlib.Path({str(pid_file)!r}).write_text(str(child.pid))\n"
        "time.sleep(30)\n"
    )
    try:
        start = time.monotonic()
        with pytest.raises(SandboxTimeout):
            execute_code(program, 1.0)
        assert time.monotonic() - start < 2.5  # timeout plus grace
    finally:
        if pid_file.exists() and _alive(int(pid_file.read_text())):
            os.kill(int(pid_file.read_text()), signal.SIGKILL)


def test_execute_code_output_capped():
    outcome = execute_code(f"print('y' * {SANDBOX_OUTPUT_CAP + 2000})", 10.0)
    assert outcome.stdout == "y" * SANDBOX_OUTPUT_CAP


def test_code_tool_invocation_strips_fences_and_reports_errors():
    tool = make_code_tool(10.0)
    assert tool.invoke("```python\nprint('ok')\n```").strip() == "ok"
    assert tool.invoke("print(1/0)").startswith("exit status 1")
    assert "ZeroDivisionError" in tool.invoke("print(1/0)")
    assert tool.invoke("  ") == "execution error: empty program"
    timeout_tool = make_code_tool(0.5)
    assert timeout_tool.invoke("while True: pass") == "execution timed out after 0.5s"


def test_render_exec_observation():
    tool = make_code_tool(10.0)
    assert tool.invoke("print('out')") == "out\n"
    assert tool.invoke("x = 1") == "(no output)"
    failed = tool.invoke("print('partial')\nraise SystemExit('Traceback...')")
    assert "partial" in failed and "exit status 1" in failed and "Traceback" in failed
    assert len(make_code_tool(10.0, observation_budget=50).invoke("print('z' * 500)")) == 50


# --- tool spec -------------------------------------------------------------------


def noop_tool(name, kind="raw"):
    return ToolSpec(name=name, description="d", invoke=lambda s: s, kind=kind)


def test_tool_spec_validation():
    with pytest.raises(ValueError, match="name"):
        noop_tool("bad\nname")
    with pytest.raises(ValueError, match="kind"):
        noop_tool("x", kind="meta")
