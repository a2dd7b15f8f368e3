"""Agent action space: date-restricted web search and sandboxed code
execution, behind one uniform tool contract (text in, observation text out).

Every search request carries the run's cutoff date so agents can only see
what was knowable at forecast time; results that slip through with a later
publication date are filtered out again locally.
"""

from __future__ import annotations

import logging
import os
import site
import sys
import tempfile
import threading
import time
from collections import namedtuple
from datetime import date
from functools import partial
from pathlib import Path
from typing import IO, TYPE_CHECKING, Any, Callable, Iterable, NamedTuple, Protocol

from .llm import CallFailed, RateLimiter, RetryPolicy, TransportError, current_lane, send_with_retry
from .models import ValidationError, parse_timestamp, read_checked

if TYPE_CHECKING:  # imported where used, so runs without a search skip it
    from concurrent.futures import Future

logger = logging.getLogger(__name__)

DEFAULT_RESULTS_PER_SEARCH = 8
DEFAULT_OBSERVATION_BUDGET = 4000
TRUNCATION_MARKER = "[truncated]"

TOOL_KINDS = ("raw", "agent")


class ToolSpec(namedtuple("ToolSpec", "name description invoke kind")):
    """One invocable tool: a name the model writes after "Action:", a
    description for the prompt, and the callable that produces the
    observation. kind separates raw tools from subagents wrapped as tools."""

    __slots__ = ()

    def __new__(cls, name: str, description: str, invoke: Callable[[str], str], kind: str = "raw"):
        if not name or "\n" in name:
            raise ValueError(f"bad tool name {name!r}")
        if kind not in TOOL_KINDS:
            raise ValueError(f"unknown tool kind {kind!r}")
        return super().__new__(cls, name, description, invoke, kind)


# --- web search -----------------------------------------------------------


class SearchResult(NamedTuple):
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
        published=_published_date(published) if published else None,
    )


def _published_date(value: Any) -> date:
    """The UTC date of a result's `published` value. A plain ISO date is read
    directly; anything else, errors included, as `parse_timestamp` reads it."""
    if isinstance(value, str):
        try:
            return date.fromisoformat(value)
        except ValueError:
            pass
    return parse_timestamp(value, "published").date()


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
    request through `llm.send_with_retry`, and fails as chat does: a rejected
    key raises AuthError, which ends the run, and every other failure,
    including a body with no `results` list, raises TransportError. Never
    called in replay runs."""

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
        payload = self._send(self._url, self._headers, params=params)
        if not isinstance(payload, dict) or not isinstance(payload.get("results"), list):
            raise TransportError(f"malformed search payload: {str(payload)[:200]}")
        return _parse_results(payload["results"])


def _check_fixture_line(raw: Any) -> tuple[str, list[SearchResult]]:
    if not isinstance(raw, dict) or not isinstance(raw.get("query"), str):
        raise ValidationError("query", "a search fixture line needs a string query")
    results = raw.get("results", [])
    if not isinstance(results, list):
        raise ValidationError("results", f"expected a list, got {type(results).__name__}")
    return raw["query"], _parse_results(results)


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
        return cls(dict(read_checked(path, _check_fixture_line)))

    def search(self, query: str, before_date: date, limit: int) -> list[SearchResult]:
        self.calls.append((query, before_date, limit))
        results = self._entries.get(query)
        if results is None:
            results = self._entries.get("default", [])
        return results[:limit]


def _knowable(result: SearchResult, before_date: date) -> bool:
    """Whether `search` keeps a result: it is undated or published before before_date."""
    return result.published is None or result.published < before_date


class SearchMemo:
    """A search provider that asks its inner provider once per question.

    Inside a lane, a call is keyed on (the lane's question id, query,
    before_date, limit). The first call of a key asks the provider, and
    identical calls made while it runs wait for its answer. A failure goes
    to the calls that waited on it but is not kept, so the next call asks
    again. A question's entries stay until `forget` drops them, once its
    record is built. Calls outside any lane go straight to the provider.
    `dropped` sums the results `search` drops at the cutoff from every
    call's results, asked or remembered, so a run reports one total.
    """

    def __init__(self, provider: SearchProvider):
        self._provider = provider
        self._lock = threading.Lock()
        self._flights: dict[str, dict[tuple[str, date, int], Future[list[SearchResult]]]] = {}
        self.dropped = 0

    def search(self, query: str, before_date: date, limit: int) -> list[SearchResult]:
        results = self._ask(query, before_date, limit)
        dropped = sum(1 for r in results if not _knowable(r, before_date))
        if dropped:
            with self._lock:
                self.dropped += dropped
        return results

    def _ask(self, query: str, before_date: date, limit: int) -> list[SearchResult]:
        lane = current_lane()
        if lane is None:
            return self._provider.search(query, before_date, limit)
        from concurrent.futures import Future

        key = (query, before_date, limit)
        with self._lock:
            flights = self._flights.setdefault(lane[0], {})
            flight = flights.get(key)
            leads = flight is None
            if leads:
                flight = flights[key] = Future()
        if not leads:
            return list(flight.result())
        try:
            results = self._provider.search(query, before_date, limit)
        except BaseException as exc:
            with self._lock:
                if flights.get(key) is flight:
                    del flights[key]
            flight.set_exception(exc)
            raise
        flight.set_result(results)
        return list(results)

    def forget(self, question_id: str) -> None:
        """Drop the question's entries."""
        with self._lock:
            self._flights.pop(question_id, None)


def search(
    provider: SearchProvider,
    query: str,
    before_date: date,
    k: int = DEFAULT_RESULTS_PER_SEARCH,
) -> list[SearchResult]:
    """Run one date-restricted search.

    The provider request carries before_date; results that still report a
    publication date on or after it are dropped here as a second line of
    defense. Undated results are kept. Nothing is logged per search: a
    forecast run counts the drops through its `SearchMemo` and reports the
    total once.
    """
    if not query.strip():
        raise ValueError("empty search query")
    if not isinstance(before_date, date):
        raise ValueError(f"before_date must be a date, got {before_date!r}")
    results = provider.search(query, before_date, k)
    return [r for r in results if _knowable(r, before_date)][:k]


# --- sandboxed code execution ----------------------------------------------


class SandboxTimeout(Exception):
    def __init__(self, seconds: float):
        super().__init__(f"execution timed out after {seconds:g}s")
        self.seconds = seconds


class ExecResult(NamedTuple):
    stdout: str
    stderr: str
    exit_status: int


# characters of stdout (the head) and of stderr (the tail) a program may
# return, so one chatty program cannot flood an agent's context
SANDBOX_OUTPUT_CAP = 8000


_SANDBOX_ENV = ("PATH", "LANG")

# bytes any one file a program writes may hold, its stdout and stderr
# included; a write past it fails with EFBIG (the interpreter ignores SIGXFSZ)
_FILE_SIZE_CAP = 64 * 2**20

# site-packages dirs that exist, for the bootstrap to put on the sandbox's sys.path
_SITE_PACKAGES = [path for path in site.getsitepackages() if os.path.isdir(path)]

# Run by each sandbox interpreter, which starts with -I -S, before its program
# exists. It first puts back what `site` would have: the site-packages dirs
# (but none of their .pth lines) and the exit, quit, help, copyright, credits
# and license builtins. It then reads the program from stdin up to EOF and
# runs it as `python -I program.py` would run in this directory, as
# `__main__`, with argv[0] and __file__ "program.py", and with no file growing
# past _FILE_SIZE_CAP. The parent ends the program with a NUL byte, which
# valid source cannot hold, so EOF without one means the parent is gone:
# nothing runs and the empty directory is removed. An uncaught exception is
# printed without this script's frame and exits 1; SystemExit keeps its code.
_BOOTSTRAP = f"""\
import site, sys
sys.path.extend({_SITE_PACKAGES!r})
site.setquit()
site.sethelper()
site.setcopyright()
def run():
    source = sys.stdin.buffer.read()
    if not source.endswith(b"\\0"):
        import os
        try:
            os.rmdir(os.getcwd())
        except OSError:
            pass
        return 0
    source = source[:-1]
    with open("program.py", "wb") as fh:
        fh.write(source)
    import resource
    resource.setrlimit(resource.RLIMIT_FSIZE, ({_FILE_SIZE_CAP}, {_FILE_SIZE_CAP}))
    main = type(sys)("__main__")
    main.__file__ = "program.py"
    sys.modules["__main__"] = main
    sys.argv[0] = "program.py"
    try:
        exec(compile(source, "program.py", "exec"), vars(main))
    except SystemExit:
        raise
    except BaseException as exc:
        exc.__traceback__ = exc.__traceback__.tb_next
        sys.excepthook(type(exc), exc, exc.__traceback__)
        return 1
    return 0
sys.exit(run())
"""


class _Interpreter:
    """A sandbox interpreter, started before its program: it runs the
    bootstrap in its own session and its own fresh temp dir, with only PATH
    and LANG in its environment, and waits for the program on stdin. Its
    stdout and stderr are unnamed temp files outside that dir."""

    def __init__(self):
        import subprocess
        from contextlib import ExitStack

        with ExitStack() as undo:
            self.workdir = tempfile.TemporaryDirectory(prefix="agentcast-sandbox-")
            undo.push(self.workdir)
            self.stdout = undo.enter_context(tempfile.TemporaryFile())
            self.stderr = undo.enter_context(tempfile.TemporaryFile())
            self.proc = subprocess.Popen(
                [sys.executable, "-I", "-S", "-c", _BOOTSTRAP],
                stdin=subprocess.PIPE,
                stdout=self.stdout,
                stderr=self.stderr,
                cwd=self.workdir.name,
                env={name: os.environ[name] for name in _SANDBOX_ENV if name in os.environ},
                start_new_session=True,
            )
            undo.pop_all()

    def close(self) -> None:
        """Kill its process group, reap it, and delete its dir and output files."""
        import signal

        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # the group has already exited
        with self.workdir, self.proc, self.stdout, self.stderr:
            pass


def execute_code(program: str, timeout: float) -> ExecResult:
    """Run model-written Python with this interpreter, under a wall-clock cap
    of `timeout` seconds from hand-over, and capture its output.

    The program runs as `program.py` in a fresh temp directory, deleted
    afterwards, with an empty stdin and an environment holding only PATH and
    LANG. That keeps the API keys of the process that runs it out of the
    program's own environment, but not out of its reach: nothing stops it
    from reading them in `/proc/<parent pid>/environ`. Each call starts its
    own interpreter, in isolated mode and without `site` (`-I -S`), so it
    ignores PYTHON* variables and the user site-packages, runs no `.pth` line
    or `sitecustomize`, and does not put the program's directory on sys.path;
    the bootstrap adds the site-packages dirs. It runs in its own process
    group, which is killed when the call ends, so no process left in that
    group outlives the call.
    Raises SandboxTimeout when the wall clock cap is hit; nonzero exits come
    back as a normal ExecResult. The cap is a wait on the program's pidfd,
    so no thread is started per call. The call ends when the program exits,
    even if a process it started still holds its output. Output goes to
    unnamed temp files, and only the capped head of stdout and tail of
    stderr are read back, as UTF-8 with U+FFFD for invalid bytes and with
    universal newlines. No file the program writes, those two included, may
    grow past _FILE_SIZE_CAP bytes.
    """
    import select

    interpreter = _Interpreter()
    proc = interpreter.proc
    try:
        deadline = time.monotonic() + timeout
        try:
            with proc.stdin:
                proc.stdin.write((program + "\0").encode("utf-8", "replace"))
        except BrokenPipeError:
            pass  # it died before reading its program; its exit status says how
        pidfd = os.pidfd_open(proc.pid)
        try:
            exit_wait = select.poll()  # select.select refuses descriptors >= 1024
            exit_wait.register(pidfd, select.POLLIN)
            exited = exit_wait.poll(max(0.0, deadline - time.monotonic()) * 1000)
        finally:
            os.close(pidfd)
        if not exited:
            raise SandboxTimeout(timeout)
        stdout = _read_text(interpreter.stdout, 0)[:SANDBOX_OUTPUT_CAP]
        stderr_size = os.fstat(interpreter.stderr.fileno()).st_size
        stderr = _read_text(interpreter.stderr, max(0, stderr_size - _OUTPUT_WINDOW))[-SANDBOX_OUTPUT_CAP:]
    finally:
        interpreter.close()  # kills whatever the program left in its group, and reaps it
    return ExecResult(stdout=stdout, stderr=stderr, exit_status=proc.returncode)


# bytes of output read back for each stream: SANDBOX_OUTPUT_CAP characters
# take at most 4 bytes each (a UTF-8 character, a \r\n pair or an invalid
# sequence), plus up to 3 bytes of a character the window cuts
_OUTPUT_WINDOW = 4 * SANDBOX_OUTPUT_CAP + 3


def _read_text(file: IO[bytes], offset: int) -> str:
    """Up to _OUTPUT_WINDOW bytes of `file` from `offset`, decoded as UTF-8
    with U+FFFD for invalid bytes and with universal newlines."""
    data = os.pread(file.fileno(), _OUTPUT_WINDOW, offset)
    return data.decode("utf-8", "replace").replace("\r\n", "\n").replace("\r", "\n")


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
    """Search tool bound to a cutoff date. The action input is the query. A
    search that fails (CallFailed) becomes a `search error:` observation;
    every other backend error, a rejected key included, ends the run."""

    def invoke(action_input: str) -> str:
        query = action_input.strip().strip('"').strip()
        if not query:
            return "search error: empty query"
        try:
            results = search(provider, query, cutoff, k)
        except CallFailed as exc:
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
