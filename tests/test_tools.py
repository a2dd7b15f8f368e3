"""Tool layer: date-restricted search, the sandbox, observation rendering."""

import io
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from datetime import date
from pathlib import Path

import pytest

import agentcast
from agentcast import tools
from agentcast.llm import AuthError, TransportError, in_lane
from agentcast.tools import (
    FixtureSearchProvider,
    LiveSearchProvider,
    SANDBOX_OUTPUT_CAP,
    SandboxTimeout,
    SearchMemo,
    SearchResult,
    ToolSpec,
    execute_code,
    make_code_tool,
    make_search_tool,
    search,
    truncate_text,
)
from agentcast.models import ValidationError, parse_timestamp

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


# a result's `published` value and the UTC date it stands for, or None where
# it is unreadable
PUBLISHED_DATES = [
    ("2024-04-14", date(2024, 4, 14)),
    ("20240414", date(2024, 4, 14)),
    ("2024-W15-7", date(2024, 4, 14)),
    ("2024-04-14T23:30:00-05:00", date(2024, 4, 15)),
    ("2024-04-14T23:30:00Z", date(2024, 4, 14)),
    (1713139200, date(2024, 4, 15)),
    (1713139200000, date(2024, 4, 15)),
    (" 2024-04-14 ", date(2024, 4, 14)),
    ("2024-02-30", None),
    ("garbage", None),
]


@pytest.mark.parametrize("value, expected", PUBLISHED_DATES)
def test_a_results_date_is_the_utc_date_parse_timestamp_reads(value, expected):
    if expected is None:
        with pytest.raises(ValidationError) as wanted:
            parse_timestamp(value, "published")
        with pytest.raises(ValidationError) as got:
            tools._parse_result({"published": value})
        assert str(got.value) == str(wanted.value)
    else:
        assert parse_timestamp(value, "published").date() == expected
        assert tools._parse_result({"published": value}).published == expected


def test_a_lone_surrogate_in_a_search_result_reads_as_a_replacement_character(tmp_path):
    # JSON escapes of half an emoji, as in a snippet cut mid-character; a
    # whole escaped pair is one character and stays
    path = tmp_path / "search.jsonl"
    result = r'{"title": "cut \ud83d", "url": "https://example.org/\udc00", "snippet": "half \ud83d, whole \ud83d\ude00"}'
    path.write_text('{"query": "q", "results": [%s]}\n' % result, encoding="utf-8")
    provider = FixtureSearchProvider.from_file(path)
    (hit,) = provider.search("q", CUTOFF, 8)
    assert (hit.title, hit.url, hit.snippet) == ("cut \ufffd", "https://example.org/\ufffd", "half \ufffd, whole \U0001f600")
    observation = make_search_tool(provider, CUTOFF).invoke("q")
    assert observation.encode("utf-8").decode("utf-8") == "cut \ufffd — half \ufffd, whole \U0001f600"


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


def test_a_failed_live_search_is_an_observation_and_a_rejected_key_ends_the_run(loopback):
    tool = make_search_tool(LiveSearchProvider(loopback.url, "key"), CUTOFF)
    loopback.serve((404, {}, {}))
    assert tool.invoke("q") == "search error: unexpected status 404: {}"
    loopback.serve((401, {}, {}))
    with pytest.raises(AuthError, match="401"):
        tool.invoke("q")


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
            raise TransportError("quota exhausted")

    tool = make_search_tool(FailingProvider(), CUTOFF)
    assert tool.invoke("q") == "search error: quota exhausted"


# --- search memo ---------------------------------------------------------------


class SlowProvider(CaptureProvider):
    """A CaptureProvider that takes a while to answer, under a lock."""

    def __init__(self, results=(), delay=0.0):
        super().__init__(results)
        self.delay = delay
        self.lock = threading.Lock()

    def search(self, query, before_date, limit):
        time.sleep(self.delay)
        with self.lock:
            return super().search(query, before_date, limit)


def test_memo_asks_once_for_three_concurrent_identical_searches():
    provider = SlowProvider([result("A")], delay=0.2)
    memo = SearchMemo(provider)
    barrier = threading.Barrier(3, timeout=5)
    served = [None] * 3

    def member(m):
        with in_lane("q1", m):
            barrier.wait()
            served[m] = search(memo, "same query", CUTOFF)

    threads = [threading.Thread(target=member, args=(m,)) for m in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert provider.calls == [("same query", CUTOFF, 8)]
    assert served == [[result("A")]] * 3


def test_memo_asks_once_per_question_and_key_under_thread_stress():
    questions, members, queries = 4, 3, 20
    provider = SlowProvider([result(), result("late", published=CUTOFF)])
    memo = SearchMemo(provider)
    barrier = threading.Barrier(questions * members, timeout=10)

    def member(qid, m):
        barrier.wait()
        order = list(range(queries))
        order = order[m:] + order[:m]  # siblings ask in different orders
        with in_lane(qid, m):
            for i in order:
                assert search(memo, f"query {i}", CUTOFF) == [result()]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=member, args=(f"q{q}", m)) for q in range(questions) for m in range(members)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(provider.calls) == questions * queries
    assert memo.dropped == questions * members * queries  # no count lost between threads
    for q in range(questions):
        memo.forget(f"q{q}")
    assert memo._flights == {}


def test_memo_keeps_no_failure():
    class FlakyProvider(CaptureProvider):
        def search(self, query, before_date, limit):
            if not self.calls:
                self.calls.append((query, before_date, limit))
                raise TransportError("quota exhausted")
            return super().search(query, before_date, limit)

    provider = FlakyProvider([result("A")])
    memo = SearchMemo(provider)
    with in_lane("q1", 0):
        with pytest.raises(TransportError):
            memo.search("q", CUTOFF, 8)
    with in_lane("q1", 1):
        assert memo.search("q", CUTOFF, 8) == [result("A")]
    assert len(provider.calls) == 2


def test_memo_hands_the_leaders_failure_to_a_waiting_search():
    entered, release, joined = threading.Event(), threading.Event(), threading.Event()

    class BlockingProvider(CaptureProvider):
        def search(self, query, before_date, limit):
            self.calls.append((query, before_date, limit))
            entered.set()
            release.wait(timeout=5)
            raise TransportError("quota exhausted")

    class SignallingLock:
        """The memo's lock; tells when the waiter has found the leader's flight."""

        def __init__(self):
            self.lock = threading.Lock()

        def __enter__(self):
            self.lock.acquire()

        def __exit__(self, *exc):
            self.lock.release()
            if threading.current_thread().name == "waiter":
                joined.set()

    provider = BlockingProvider()
    memo = SearchMemo(provider)
    memo._lock = SignallingLock()
    raised = [None, None]

    def member(m):
        with in_lane("q1", m):
            try:
                memo.search("q", CUTOFF, 8)
            except TransportError as exc:
                raised[m] = exc

    leader = threading.Thread(target=member, args=(0,), name="leader")
    waiter = threading.Thread(target=member, args=(1,), name="waiter")
    leader.start()
    assert entered.wait(timeout=5)
    waiter.start()
    assert joined.wait(timeout=5)
    release.set()
    for t in (leader, waiter):
        t.join(timeout=5)
    assert not leader.is_alive() and not waiter.is_alive()
    assert raised[0] is not None and raised[1] is raised[0]
    assert len(provider.calls) == 1
    assert memo._flights["q1"] == {}  # the failed key is dropped


def test_memo_asks_again_for_another_question():
    provider = CaptureProvider([result()])
    memo = SearchMemo(provider)
    for qid in ("q1", "q2"):
        with in_lane(qid, 0):
            memo.search("same query", CUTOFF, 8)
    assert len(provider.calls) == 2


def test_memo_keys_on_cutoff_and_limit_too():
    provider = CaptureProvider([result()])
    memo = SearchMemo(provider)
    with in_lane("q1", 0):
        for before, limit in ((CUTOFF, 8), (date(2024, 4, 1), 8), (CUTOFF, 3), (CUTOFF, 8)):
            memo.search("q", before, limit)
    assert provider.calls == [("q", CUTOFF, 8), ("q", date(2024, 4, 1), 8), ("q", CUTOFF, 3)]


def test_memo_drops_a_question_it_is_told_to_forget():
    provider = CaptureProvider([result()])
    memo = SearchMemo(provider)
    for qid in ("q1", "q2"):
        with in_lane(qid, 0):
            memo.search("q", CUTOFF, 8)
    with in_lane("q1", 1):
        memo.search("q", CUTOFF, 8)  # not forgotten yet: served from the memo
    assert len(provider.calls) == 2
    memo.forget("q1")
    assert list(memo._flights) == ["q2"]
    with in_lane("q1", 0):
        memo.search("q", CUTOFF, 8)
    assert len(provider.calls) == 3


def test_memo_passes_searches_outside_a_lane_straight_through():
    provider = CaptureProvider([result()])
    memo = SearchMemo(provider)
    memo.search("q", CUTOFF, 8)
    memo.search("q", CUTOFF, 8)
    assert len(provider.calls) == 2


def test_memo_still_filters_post_cutoff_results_on_every_call():
    provider = CaptureProvider([result("before", published=date(2024, 4, 1)), result("after", published=date(2024, 5, 1))])
    memo = SearchMemo(provider)
    for m in range(3):
        with in_lane("q1", m):
            assert [r.title for r in search(memo, "q", CUTOFF)] == ["before"]
    assert len(provider.calls) == 1


def test_memo_counts_what_every_search_drops_asked_or_remembered():
    provider = CaptureProvider(
        [
            result("on cutoff", published=CUTOFF),
            result("before", published=date(2024, 4, 1)),
            result("undated"),
            result("after", published=date(2024, 5, 1)),
        ]
    )
    memo = SearchMemo(provider)
    for m in range(3):
        with in_lane("q1", m):
            assert [r.title for r in search(memo, "q", CUTOFF)] == ["before", "undated"]
    search(memo, "outside any lane", CUTOFF)
    assert len(provider.calls) == 2
    assert memo.dropped == 8  # two dropped by each of four searches


# --- sandbox -----------------------------------------------------------------


def test_execute_code_captures_stdout():
    outcome = execute_code("print(6 * 7)", 10.0)
    assert outcome.stdout.strip() == "42"
    assert outcome.exit_status == 0


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


CANARY = "sk-canary-5150"


def _stdout_of_code_run_in_a_child(program: str) -> str:
    """stdout of `program` run through `execute_code` by a child interpreter
    that holds a canary LLM_API_KEY in its exec-time environment, which
    monkeypatch.setenv cannot put there. Two processes in all: the child and
    its sandbox interpreter."""
    parent_program = f"from agentcast import tools\nprint(tools.execute_code({program!r}, 10.0).stdout, end='')\n"
    env = dict(os.environ, PYTHONPATH=str(Path(agentcast.__file__).parents[1]), LLM_API_KEY=CANARY)
    done = subprocess.run([sys.executable, "-c", parent_program], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_a_key_in_the_callers_exec_time_environment_is_not_in_the_programs():
    stdout = _stdout_of_code_run_in_a_child("import os\nprint(os.environ.get('LLM_API_KEY'))\nprint(dict(os.environ))")
    assert stdout.startswith("None\n")
    assert CANARY not in stdout


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 3: the program can read its parent's /proc/<pid>/environ until the bootstrap's audit hook lands",
)
def test_a_key_in_the_callers_exec_time_environment_cannot_be_read_through_proc():
    program = "import os\nprint(open(f'/proc/{os.getppid()}/environ', 'rb').read().decode('latin-1'))"
    assert CANARY not in _stdout_of_code_run_in_a_child(program)


def test_execute_code_runs_the_interpreter_in_isolated_mode():
    outcome = execute_code("import os, sys\nprint(sys.flags.isolated, os.getcwd() in sys.path)", 10.0)
    assert outcome.exit_status == 0
    assert outcome.stdout.split() == ["1", "False"]


def _json_of_python(*args: str):
    done = subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=30)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_the_program_runs_without_site_but_has_the_site_packages_path():
    # the path `python -I` builds, minus what only a .pth line adds
    isolated_path, site_dirs = _json_of_python(
        "-I", "-c", "import json, site, sys\nprint(json.dumps([sys.path, site.getsitepackages()]))"
    )
    bare_path = _json_of_python("-I", "-S", "-c", "import json, sys\nprint(json.dumps(sys.path))")
    expected = [path for path in isolated_path if path in bare_path or path in site_dirs]
    outcome = execute_code("import json, sys\nprint(json.dumps([sys.path, sys.flags.no_site]))", 10.0)
    assert outcome.exit_status == 0, outcome.stderr
    assert json.loads(outcome.stdout) == [expected, 1]


@pytest.mark.parametrize("program, status", [("exit(3)", 3), ("quit()", 0)])
def test_the_exit_builtins_that_site_adds_still_work(program, status):
    assert execute_code(program, 10.0) == ("", "", status)


def test_a_program_imports_numpy_from_site_packages():
    import numpy

    outcome = execute_code("import numpy\nprint(numpy.__version__)", 10.0)
    assert (outcome.exit_status, outcome.stdout) == (0, f"{numpy.__version__}\n")


def test_one_code_call_starts_one_interpreter_and_leaves_nothing_behind(tmp_path, monkeypatch):
    started = []

    class CountedPopen(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(subprocess, "Popen", CountedPopen)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    assert execute_code("print('x')", 10.0) == ("x\n", "", 0)
    assert len(started) == 1
    assert not _alive(started[0].pid)
    assert list(tmp_path.glob("agentcast-sandbox-*")) == []


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
    # misses it, and it keeps the inherited output file open
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


@pytest.mark.parametrize("session", ["same-group", "setsid"])
def test_a_program_that_exits_returns_at_once_though_a_child_holds_its_output(tmp_path, session):
    # the child inherits the program's stdout; reading output to EOF waited
    # for the child and turned a finished program into a timeout
    pid_file = tmp_path / "child.pid"
    program = (
        "import pathlib, subprocess\n"
        f"child = subprocess.Popen(['sleep', '30'], start_new_session={session == 'setsid'})\n"
        f"pathlib.Path({str(pid_file)!r}).write_text(str(child.pid))\n"
        "print('hi')\n"
    )
    try:
        start = time.monotonic()
        outcome = execute_code(program, 5.0)
        assert time.monotonic() - start < 1.5
        assert (outcome.exit_status, outcome.stdout) == (0, "hi\n")
        if session == "same-group":
            pid = int(pid_file.read_text())
            deadline = time.monotonic() + 5
            while _alive(pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not _alive(pid)
    finally:
        if pid_file.exists() and _alive(int(pid_file.read_text())):
            os.kill(int(pid_file.read_text()), signal.SIGKILL)


@pytest.mark.parametrize(
    "unit",
    ["\U0001f600".encode(), b"\r\n", b"\xf0\x9f\x98", "\U0001f600\r\n\xe9\r".encode() + b"\xff"],
    ids=["four-byte", "crlf", "invalid", "mixed"],
)
@pytest.mark.parametrize("pad", [0, 1, 2, 3])
def test_output_head_and_tail_match_the_whole_decoded_stream(unit, pad):
    # `pad` ASCII bytes before and after move where the byte windows cut
    # into the first and last characters they read
    data = b"a" * pad + unit * (40_000 // len(unit)) + b"b" * pad
    program = (
        "import sys\n"
        f"data = b'a' * {pad} + {unit!r} * {40_000 // len(unit)} + b'b' * {pad}\n"
        "sys.stdout.buffer.write(data)\n"
        "sys.stderr.buffer.write(data)\n"
    )
    whole = io.TextIOWrapper(io.BytesIO(data), "utf-8", "replace", newline=None).read()
    assert len(whole) > SANDBOX_OUTPUT_CAP and len(data) > 4 * SANDBOX_OUTPUT_CAP + 3
    outcome = execute_code(program, 10.0)
    assert outcome.exit_status == 0
    # compared by first difference: pytest's diff of two long strings takes minutes
    assert _first_difference(outcome.stdout, whole[:SANDBOX_OUTPUT_CAP]) is None
    assert _first_difference(outcome.stderr, whole[-SANDBOX_OUTPUT_CAP:]) is None


def _first_difference(text: str, expected: str) -> int | None:
    """The first index where the strings differ, or None when they are equal."""
    if text == expected:
        return None
    return next((i for i, (a, b) in enumerate(zip(text, expected)) if a != b), min(len(text), len(expected)))


def test_calls_leave_no_thread_or_file_descriptor_behind():
    def open_fds():
        return len(os.listdir("/proc/self/fd")) if sys.platform.startswith("linux") else 0

    execute_code("pass", 10.0)
    threads, fds = threading.active_count(), open_fds()
    timed_out = []
    programs = ("print('x')", "raise SystemExit(2)", "while True: pass", "import sys; sys.stderr.write('e')", "pass")
    for program in programs:
        try:
            execute_code(program, 0.5)
        except SandboxTimeout:
            timed_out.append(program)
    assert timed_out == ["while True: pass"]
    assert (threading.active_count(), open_fds()) == (threads, fds)


def test_a_code_call_starts_no_thread(monkeypatch):
    def refuse(thread):
        raise AssertionError(f"a code call started thread {thread.name}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert execute_code("print('x')", 10.0) == ("x\n", "", 0)
    assert execute_code("raise SystemExit(2)", 10.0).exit_status == 2
    with pytest.raises(SandboxTimeout):
        execute_code("while True: pass", 0.5)


def test_a_program_handed_to_an_interpreter_that_died_unread_comes_back_killed(monkeypatch):
    # the interpreter's end of stdin is closed, so the hand-over meets a broken pipe
    start = tools._Interpreter

    def dead_interpreter():
        interpreter = start()
        os.killpg(interpreter.proc.pid, signal.SIGKILL)
        os.waitid(os.P_PID, interpreter.proc.pid, os.WEXITED | os.WNOWAIT)
        return interpreter

    monkeypatch.setattr(tools, "_Interpreter", dead_interpreter)
    program = "print('never')\n" + "# padding\n" * 20_000
    assert len(program.encode("utf-8")) > 2**16
    fds = len(os.listdir("/proc/self/fd"))
    assert execute_code(program, 10.0) == ("", "", -signal.SIGKILL)
    assert len(os.listdir("/proc/self/fd")) == fds


def test_execute_code_output_capped():
    outcome = execute_code(f"print('y' * {SANDBOX_OUTPUT_CAP + 2000})", 10.0)
    assert outcome.stdout == "y" * SANDBOX_OUTPUT_CAP


def test_a_program_flooding_its_output_stops_at_the_file_size_cap():
    flood = "import sys\nblock = b'y' * 2**20\nwhile True:\n    sys.stdout.buffer.write(block)\n"
    outcome = execute_code(flood, 10.0)
    assert outcome.exit_status == 1
    assert outcome.stdout == "y" * SANDBOX_OUTPUT_CAP
    assert outcome.stderr.rstrip().endswith("OSError: [Errno 27] File too large")


def test_a_program_cannot_write_a_file_past_the_file_size_cap():
    # seeking makes a sparse file, so the test writes two bytes, not 64 MB
    program = (
        "with open('data.bin', 'wb', buffering=0) as fh:\n"
        f"    fh.seek({tools._FILE_SIZE_CAP} - 1)\n"
        "    fh.write(b'a')\n"
        "    print('up to the cap')\n"
        "    fh.write(b'b')\n"
    )
    outcome = execute_code(program, 10.0)
    assert outcome.exit_status == 1
    assert outcome.stdout == "up to the cap\n"
    assert outcome.stderr.rstrip().endswith("OSError: [Errno 27] File too large")


def test_execute_code_runs_the_program_as_program_py_in_its_own_directory():
    program = "import os, sys\nprint(__name__, __file__, sys.argv, os.listdir('.'))"
    outcome = execute_code(program, 10.0)
    assert outcome.stdout == "__main__ program.py ['program.py'] ['program.py']\n"


def test_a_raising_program_shows_its_source_lines_and_no_bootstrap_frame():
    outcome = execute_code("x = 1\nraise RuntimeError('boom')", 10.0)
    assert outcome.exit_status == 1
    assert outcome.stderr.splitlines() == [
        "Traceback (most recent call last):",
        '  File "program.py", line 2, in <module>',
        "    raise RuntimeError('boom')",
        "RuntimeError: boom",
    ]


def test_a_syntax_error_is_reported_against_program_py():
    outcome = execute_code("print(", 10.0)
    assert outcome.exit_status == 1
    assert outcome.stderr.startswith('  File "program.py", line 1\n')
    assert "SyntaxError" in outcome.stderr


@pytest.mark.parametrize(
    "program, status, stderr",
    [
        ("import sys\nsys.exit(3)", 3, ""),
        ("raise SystemExit('bye')", 1, "bye\n"),
        ("import sys\nsys.exit()", 0, ""),
    ],
    ids=["int", "message", "none"],
)
def test_execute_code_keeps_system_exit_codes(program, status, stderr):
    outcome = execute_code(program, 10.0)
    assert (outcome.exit_status, outcome.stderr) == (status, stderr)


def test_two_runs_of_one_raising_program_give_identical_observations():
    # a traceback naming the random temp dir changed every observation, so a
    # recorded run whose program raised could not replay
    tool = make_code_tool(10.0)
    first = tool.invoke("def f():\n    return 1 / 0\nf()")
    assert 'File "program.py", line 3' in first and "ZeroDivisionError" in first
    assert tool.invoke("def f():\n    return 1 / 0\nf()") == first


def test_a_program_reads_an_empty_stdin():
    outcome = execute_code("import sys\nprint(repr(sys.stdin.read()))", 10.0)
    assert (outcome.exit_status, outcome.stdout) == (0, "''\n")


def test_input_in_a_program_fails_at_once_with_eof():
    observation = make_code_tool(10.0).invoke("input('number? ')")
    assert observation.startswith("number? \nexit status 1\n")
    assert "EOFError" in observation


def test_bytes_that_are_not_utf8_read_as_replacement_characters():
    outcome = execute_code('import sys\nsys.stdout.buffer.write(b"ok \\xff\\n")', 10.0)
    assert (outcome.exit_status, outcome.stdout) == (0, "ok \ufffd\n")


def test_carriage_returns_in_output_read_as_newlines():
    outcome = execute_code('import sys\nsys.stdout.write("a\\r\\nb\\rc\\n")', 10.0)
    assert (outcome.exit_status, outcome.stdout) == (0, "a\nb\nc\n")


def test_a_program_larger_than_a_pipe_buffer_runs():
    program = "print('\u00e9')\n" + "# padding\n" * 20_000
    assert len(program.encode("utf-8")) > 2**16
    outcome = execute_code(program, 10.0)
    assert (outcome.exit_status, outcome.stdout) == (0, "\u00e9\n")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in kilobytes on Linux")
def test_fifty_megabytes_of_output_are_capped_while_they_are_read():
    # before, the whole output was kept until the program ended: 50 MB on
    # stdout alone raised the caller's peak RSS from 15 MB to 162 MB
    block = "0123456789" * 100_000
    program = (
        "import sys\n"
        "block = '0123456789' * 100_000\n"
        "for _ in range(50):\n    sys.stdout.write(block)\n"
        "for _ in range(50):\n    sys.stderr.write(block)\n"
        "sys.stderr.write('end')\n"
    )
    parent_program = (
        "import json, resource\n"
        "from agentcast import tools\n"
        "tools.execute_code('pass', 10.0)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        f"outcome = tools.execute_code({program!r}, 60.0)\n"
        "grew = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before\n"
        "print(json.dumps([outcome.stdout, outcome.stderr, outcome.exit_status, grew]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(agentcast.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", parent_program], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    stdout, stderr, status, grew_kb = json.loads(done.stdout)
    assert status == 0
    assert stdout == block[:SANDBOX_OUTPUT_CAP]
    assert stderr == (block + "end")[-SANDBOX_OUTPUT_CAP:]
    assert grew_kb < 20 * 1024


def test_an_interpreter_whose_stdin_ends_without_the_nul_runs_nothing_and_removes_its_dir():
    # what an interpreter sees when its parent dies before handing over the whole program
    interpreter = tools._Interpreter()
    try:
        with interpreter.proc.stdin:
            interpreter.proc.stdin.write(b"print('ran')\n")
        assert interpreter.proc.wait(timeout=10) == 0
        assert os.fstat(interpreter.stdout.fileno()).st_size == 0
        assert os.fstat(interpreter.stderr.fileno()).st_size == 0
        assert not Path(interpreter.workdir.name).exists()
    finally:
        interpreter.close()


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
