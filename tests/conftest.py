import sys
from datetime import datetime, timezone
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from agentcast.models import Category, Question

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


class FakeResponse:
    """Stands in for a `requests` response in the live-client tests."""

    def __init__(self, status_code, headers=None, payload=None):
        self.status_code = status_code
        self.headers = headers or {}
        self.payload = payload

    def json(self):
        return self.payload


def make_question(
    qid: str = "q1",
    title: str = "Will the widget ship by June?",
    close: str = "2024-04-30T00:00:00+00:00",
    fetched: str = "2024-04-15T12:00:00+00:00",
    **kwargs,
) -> Question:
    return Question(
        id=qid,
        title=title,
        close_time=datetime.fromisoformat(close),
        fetched_at=datetime.fromisoformat(fetched),
        **kwargs,
    )
