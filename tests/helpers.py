"""Stand-ins the package itself never uses: a chat backend that plays a
script, and a reader for the tables `agentcast score` renders."""

from __future__ import annotations

import re
from collections import deque
from typing import Iterable

from agentcast.llm import BackendError, ChatRequest, ChatResponse


class ScriptedBackend:
    """Returns queued replies in order; stands in for a live provider.

    Script items may be plain strings, ChatResponse objects, or exceptions
    (raised when reached). Every request is kept on `.requests`.
    """

    def __init__(self, script: Iterable[str | ChatResponse | Exception]):
        self._queue = deque(script)
        self.requests: list[ChatRequest] = []

    def complete(self, request: ChatRequest) -> ChatResponse:
        self.requests.append(request)
        if not self._queue:
            raise BackendError(f"script exhausted after {len(self.requests) - 1} replies")
        item = self._queue.popleft()
        if isinstance(item, Exception):
            raise item
        if isinstance(item, str):
            return ChatResponse(content=item)
        return item


def parse_table(text: str) -> list[dict[str, str]]:
    """Parse a rendered table back into row dicts keyed by header names.

    Columns are split on runs of two or more spaces; a trailing blank cell
    (e.g. an empty Std column) comes back as an empty string.
    """
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        return []
    header = re.split(r" {2,}", lines[0].strip())
    rows = []
    for line in lines[1:]:
        cells = re.split(r" {2,}", line.rstrip())
        while len(cells) < len(header):
            cells.append("")
        rows.append(dict(zip(header, cells)))
    return rows
