import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from agentcast.llm import close_connections
from agentcast.models import Question, check_question

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one PASS/FAIL line per acceptance criterion after the run."""
    lines: dict[int, str] = {}
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance.py::test_criterion_" not in nodeid:
                continue
            name = nodeid.split("::")[-1].removeprefix("test_criterion_")
            number_text, _, label = name.partition("_")
            number = int(number_text)
            verdict = "PASS" if status == "passed" else "FAIL"
            if lines.get(number, "").startswith("FAIL"):
                continue  # a recorded failure wins over a later teardown report
            lines[number] = f"{verdict} criterion {number}: {label.replace('_', ' ')}"
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for number in sorted(lines):
            terminalreporter.write_line(lines[number])


# --- a loopback HTTP server for the live-client tests ---------------------------

DROP = "drop"  # a reply that closes the connection without answering


class LoopbackServer(ThreadingHTTPServer):
    """HTTP/1.1 keep-alive server on 127.0.0.1 that the live clients talk to.

    Replies are (status, headers, body): a str body goes out as text, bytes
    as they are, None as an empty body, anything else as JSON. DROP closes
    the connection without a reply. `serve` queues replies (the last one
    repeats); `route`, when set, picks the reply from (method, target)
    instead. Every request is logged on `.requests` as (method, target,
    headers, body bytes), and `.accepts` and `.closed` count the connections
    the server opened and closed. With `close_when_idle` set the server
    closes every connection after its reply without saying so, as one with a
    short idle timeout does.
    """

    daemon_threads = False  # server_close joins the connection threads

    def __init__(self):
        super().__init__(("127.0.0.1", 0), _LoopbackHandler)
        self.url = f"http://127.0.0.1:{self.server_address[1]}"
        self.replies: list = [(200, {}, {})]
        self.route = None
        self.close_when_idle = False
        self.requests: list[tuple[str, str, dict, bytes]] = []
        self.accepts = 0
        self.closed = 0
        self._changed = threading.Condition()

    def serve(self, *replies) -> None:
        self.replies = list(replies)

    def next_reply(self, method: str, target: str):
        with self._changed:
            if self.route is not None:
                return self.route(method, target)
            return self.replies.pop(0) if len(self.replies) > 1 else self.replies[0]

    def record(self, *request) -> None:
        with self._changed:
            self.requests.append(request)

    def process_request(self, request, client_address):
        with self._changed:
            self.accepts += 1
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        super().shutdown_request(request)
        with self._changed:
            self.closed += 1
            self._changed.notify_all()

    def wait_closed(self, count: int, timeout: float = 5.0) -> bool:
        """Wait until the server has closed `count` connections."""
        with self._changed:
            return self._changed.wait_for(lambda: self.closed >= count, timeout)


class _LoopbackHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True  # headers and body go out in two writes
    timeout = 10  # a connection a test forgot cannot hold up server_close for longer

    def _reply(self) -> None:
        length = int(self.headers.get("Content-Length") or 0)
        body = self.rfile.read(length) if length else b""
        self.server.record(self.command, self.path, dict(self.headers), body)
        reply = self.server.next_reply(self.command, self.path)
        if reply == DROP:
            self.close_connection = True
            return
        status, headers, payload = reply
        if payload is None:
            data, kind = b"", "text/plain"
        elif isinstance(payload, str):
            data, kind = payload.encode("utf-8"), "text/html"
        elif isinstance(payload, bytes):
            data, kind = payload, "application/json"
        else:
            data, kind = json.dumps(payload).encode("utf-8"), "application/json"
        self.send_response(status)
        self.send_header("Content-Type", kind)
        self.send_header("Content-Length", str(len(data)))
        for key, value in headers.items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(data)
        if self.server.close_when_idle:
            self.close_connection = True

    do_GET = do_POST = do_CONNECT = _reply

    def log_message(self, format, *args):
        pass


_PROXY_VARIABLES = ("http_proxy", "https_proxy", "all_proxy", "no_proxy")


@pytest.fixture
def make_loopback(monkeypatch):
    """Start loopback servers on demand. Proxy variables are cleared so the
    clients talk to them directly; at teardown the clients' idle connections
    are closed and every server is stopped."""
    for name in _PROXY_VARIABLES:
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    servers = []

    def start() -> LoopbackServer:
        server = LoopbackServer()
        threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True).start()
        servers.append(server)
        return server

    yield start
    close_connections()
    for server in servers:
        server.shutdown()
        server.server_close()


@pytest.fixture
def loopback(make_loopback) -> LoopbackServer:
    return make_loopback()


def make_question(
    qid: str = "q1",
    title: str = "Will the widget ship by June?",
    close: str = "2024-04-30T00:00:00+00:00",
    fetched: str = "2024-04-15T12:00:00+00:00",
    **kwargs,
) -> Question:
    """A checked question; `kwargs` are further dataset-line keys."""
    return check_question({"id": qid, "title": title, "close_time": close, "fetched_at": fetched, **kwargs})
