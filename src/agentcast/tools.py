"""Agent action space: date-restricted web search and sandboxed code
execution, behind one uniform tool contract (text in, observation text out).

Every search request carries the run's cutoff date so agents can only see
what was knowable at forecast time; results that slip through with a later
publication date are filtered out again locally.
"""

from __future__ import annotations

import logging
import os
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from datetime import date
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterable, Protocol

from .llm import BackendError, RateLimiter, RetryPolicy, send_with_retry
from .models import ValidationError, parse_timestamp, read_jsonl

logger = logging.getLogger(__name__)

DEFAULT_RESULTS_PER_SEARCH = 8
DEFAULT_OBSERVATION_BUDGET = 4000
TRUNCATION_MARKER = "[truncated]"

TOOL_KINDS = ("raw", "agent")


@dataclass(frozen=True)
class ToolSpec:
    """One invocable tool: a name the model writes after "Action:", a
    description for the prompt, and the callable that produces the
    observation. kind separates raw tools from subagents wrapped as tools."""

    name: str
    description: str
    invoke: Callable[[str], str]
    kind: str = "raw"

    def __post_init__(self):
        if not self.name or "\n" in self.name:
            raise ValueError(f"bad tool name {self.name!r}")
        if self.kind not in TOOL_KINDS:
            raise ValueError(f"unknown tool kind {self.kind!r}")


# --- web search -----------------------------------------------------------


class ProviderError(Exception):
    """Search provider failure after retries."""


@dataclass(frozen=True)
class SearchResult:
    title: str
    url: str
    snippet: str
    published: date | None = None


class SearchProvider(Protocol):
    def search(self, query: str, before_date: date, limit: int) -> list[SearchResult]: ...


def _parse_result(raw: dict) -> SearchResult:
    published = raw.get("published")
    return SearchResult(
        title=str(raw.get("title", "")),
        url=str(raw.get("url", "")),
        snippet=str(raw.get("snippet", "")),
        published=parse_timestamp(published, "published").date() if published else None,
    )


def _parse_results(raws: Iterable[Any]) -> list[SearchResult]:
    """Parse results one at a time: an entry that is not an object, or a
    result with an unreadable date, is dropped on its own (for the date,
    because its position against the cutoff is unknown)."""
    results = []
    for raw in raws:
        if not isinstance(raw, dict):
            logger.warning("dropped search result that is not an object: %.200r", raw)
            continue
        try:
            results.append(_parse_result(raw))
        except ValidationError as exc:
            logger.warning("dropped search result %r: %s", raw.get("url", ""), exc)
    return results


class LiveSearchProvider:
    """HTTP search adapter. Sends the cutoff as a query parameter on every
    request through `llm.send_with_retry`; every failure, including a body
    with no `results` list, raises ProviderError. Never called in replay
    runs."""

    def __init__(
        self,
        base_url: str,
        api_key: str,
        *,
        retry: RetryPolicy = RetryPolicy(),
        rate_limiter: RateLimiter | None = None,
        sleep: Callable[[float], None] = time.sleep,
        timeout: float = 30.0,
    ):
        self._url = base_url.rstrip("/") + "/search"
        self._headers = {"Authorization": f"Bearer {api_key}"}
        self._send = partial(send_with_retry, timeout=timeout, retry=retry, sleep=sleep, rate_limiter=rate_limiter)

    def search(self, query: str, before_date: date, limit: int) -> list[SearchResult]:
        params = {"q": query, "num": str(limit), "before": before_date.isoformat()}
        try:
            payload = self._send(self._url, self._headers, params=params)
        except BackendError as exc:
            raise ProviderError(f"search failed: {exc}") from exc
        if not isinstance(payload, dict) or not isinstance(payload.get("results"), list):
            raise ProviderError(f"malformed search payload: {str(payload)[:200]}")
        return _parse_results(payload["results"])


class FixtureSearchProvider:
    """Serves canned results from a JSONL file; the offline stand-in for the
    live provider.

    Each line is {"query": ..., "results": [{title, url, snippet, published}]}.
    Lookup is by exact query text, falling back to a "default" entry, then to
    no results. Calls are logged on `.calls` as (query, before_date, limit).
    """

    def __init__(self, entries: dict[str, list[SearchResult]]):
        self._entries = entries
        self.calls: list[tuple[str, date, int]] = []

    @classmethod
    def from_file(cls, path: str | Path) -> "FixtureSearchProvider":
        entries: dict[str, list[SearchResult]] = {}
        for _, raw in read_jsonl(path):
            entries[raw["query"]] = _parse_results(raw.get("results", []))
        return cls(entries)

    def search(self, query: str, before_date: date, limit: int) -> list[SearchResult]:
        self.calls.append((query, before_date, limit))
        results = self._entries.get(query)
        if results is None:
            results = self._entries.get("default", [])
        return results[:limit]


def search(
    provider: SearchProvider,
    query: str,
    before_date: date,
    k: int = DEFAULT_RESULTS_PER_SEARCH,
) -> list[SearchResult]:
    """Run one date-restricted search.

    The provider request carries before_date; results that still report a
    publication date on or after it are dropped here as a second line of
    defense. Undated results are kept.
    """
    if not query.strip():
        raise ValueError("empty search query")
    if not isinstance(before_date, date):
        raise ValueError(f"before_date must be a date, got {before_date!r}")
    results = provider.search(query, before_date, k)
    kept = [r for r in results if r.published is None or r.published < before_date]
    dropped = len(results) - len(kept)
    if dropped:
        logger.warning("dropped %d search results published on/after %s", dropped, before_date)
    return kept[:k]


# --- sandboxed code execution ----------------------------------------------


class SandboxTimeout(Exception):
    def __init__(self, seconds: float):
        super().__init__(f"execution timed out after {seconds:g}s")
        self.seconds = seconds


@dataclass(frozen=True)
class ExecResult:
    stdout: str
    stderr: str
    exit_status: int
    wall_time: float


# characters of stdout (the head) and of stderr (the tail) a program may
# return, so one chatty program cannot flood an agent's context
SANDBOX_OUTPUT_CAP = 8000


_SANDBOX_ENV = ("PATH", "LANG")


def execute_code(program: str, timeout: float) -> ExecResult:
    """Run model-written Python with this interpreter, under a wall-clock cap
    of `timeout` seconds, and capture its output.

    The program gets a fresh temp directory as cwd, deleted afterwards, and
    an environment holding only PATH and LANG, so it cannot read the API
    keys of the process that runs it. The interpreter runs in isolated mode
    (`-I`), so it ignores PYTHON* variables and the user site-packages, and
    the program's directory is not on sys.path. It runs in its own process
    group, which is killed when the call ends, so no process it started
    outlives the call. Raises SandboxTimeout when the wall clock cap is hit;
    nonzero exits come back as a normal ExecResult.
    """
    with tempfile.TemporaryDirectory(prefix="agentcast-sandbox-") as workdir:
        program_path = Path(workdir) / "program.py"
        program_path.write_text(program, encoding="utf-8")
        start = time.monotonic()
        with subprocess.Popen(
            [sys.executable, "-I", str(program_path)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            cwd=workdir,
            env={name: os.environ[name] for name in _SANDBOX_ENV if name in os.environ},
            start_new_session=True,
        ) as proc:
            # On the way out, Popen closes the pipes and reaps the killed
            # program without reading on: a process that left the group may
            # still hold a pipe open, so reading to EOF could wait forever.
            try:
                stdout, stderr = proc.communicate(timeout=timeout)
            except subprocess.TimeoutExpired:
                raise SandboxTimeout(timeout) from None
            finally:
                _kill_group(proc.pid)  # the program if it overran, and whatever it left running
        wall = time.monotonic() - start
        return ExecResult(
            stdout=stdout[:SANDBOX_OUTPUT_CAP],
            stderr=stderr[-SANDBOX_OUTPUT_CAP:],
            exit_status=proc.returncode,
            wall_time=wall,
        )


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # the group has already exited


# --- observation rendering --------------------------------------------------


def truncate_text(text: str, budget: int) -> str:
    """Cap text at budget characters, ending with a visible truncation marker."""
    if len(text) <= budget:
        return text
    keep = max(0, budget - len(TRUNCATION_MARKER))
    return text[:keep] + TRUNCATION_MARKER


def _render_search_results(results: list[SearchResult]) -> str:
    if not results:
        return "no results"
    return "\n".join(f"{r.title} — {r.snippet}" for r in results)


def _render_exec(result: ExecResult) -> str:
    if result.exit_status == 0:
        return result.stdout if result.stdout.strip() else "(no output)"
    parts = []
    if result.stdout.strip():
        parts.append(result.stdout)
    parts.append(f"exit status {result.exit_status}")
    if result.stderr.strip():
        parts.append(result.stderr[-2000:])
    return "\n".join(parts)


# --- tool factories ----------------------------------------------------------


def _strip_code_fences(text: str) -> str:
    stripped = text.strip()
    if stripped.startswith("```"):
        first_newline = stripped.find("\n")
        if first_newline != -1:
            stripped = stripped[first_newline + 1 :]
        if stripped.endswith("```"):
            stripped = stripped[:-3]
    return stripped


def make_search_tool(
    provider: SearchProvider,
    cutoff: date,
    *,
    k: int = DEFAULT_RESULTS_PER_SEARCH,
    observation_budget: int = DEFAULT_OBSERVATION_BUDGET,
) -> ToolSpec:
    """Search tool bound to a cutoff date. The action input is the query."""

    def invoke(action_input: str) -> str:
        query = action_input.strip().strip('"').strip()
        if not query:
            return "search error: empty query"
        try:
            results = search(provider, query, cutoff, k)
        except ProviderError as exc:
            return f"search error: {exc}"
        return truncate_text(_render_search_results(results), observation_budget)

    return ToolSpec(
        name="web_search",
        description=(
            f"Search the web for snippets published before {cutoff.isoformat()}. "
            "Input: a search query."
        ),
        invoke=invoke,
        kind="raw",
    )


def make_code_tool(timeout: float, *, observation_budget: int = DEFAULT_OBSERVATION_BUDGET) -> ToolSpec:
    """Code-execution tool whose programs run for at most `timeout` seconds.
    The action input is a Python program."""

    def invoke(action_input: str) -> str:
        program = _strip_code_fences(action_input)
        if not program.strip():
            return "execution error: empty program"
        try:
            result = execute_code(program, timeout)
        except SandboxTimeout as exc:
            return str(exc)
        return truncate_text(_render_exec(result), observation_budget)

    return ToolSpec(
        name="python",
        description=(
            "Run a Python program in an isolated sandbox and observe its output. "
            "Input: Python source code."
        ),
        invoke=invoke,
        kind="raw",
    )
