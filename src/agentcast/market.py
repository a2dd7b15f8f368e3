"""Prediction-market ingestion: fetch binary markets over a close-date
window as questions that snapshot the crowd price, filter them with an LLM
judge, classify topics, and backfill resolutions later.

The wire format follows the public Manifold-style REST API (ids, question
text, closeTime in epoch milliseconds, probability, isResolved/resolution,
before-cursor pagination); a fixture client serves the same shapes from disk
so nothing here needs a network in tests.
"""

from __future__ import annotations

import json
import logging
import time
from collections import Counter
from datetime import date, datetime
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Protocol, Sequence
from urllib.parse import quote

from .llm import (
    Backend,
    CallFailed,
    ChatRequest,
    Message,
    RateLimiter,
    RetryPolicy,
    TransportError,
    fan_out,
    in_lane,
    send_with_retry,
)
from .metrics import render_columns
from .models import (
    Category,
    Question,
    ValidationError,
    check_question,
    loads,
    parse_timestamp,
    read_questions,
    write_questions,
)

logger = logging.getLogger(__name__)

DEFAULT_MARKET_BASE_URL = "https://api.manifold.markets/v0"
DEFAULT_PAGE_SIZE = 500
# Manifold's API documentation allows 500 requests per minute per IP. A
# token bucket lets through at most twice its per-minute rate in any minute
# (a full burst, then the refill), so the market budget is half of that.
MARKET_RATE_LIMIT_RPM = 250


class MarketClient(Protocol):
    def list_markets(self, before_id: str | None, limit: int) -> list[dict]: ...

    def get_market(self, market_id: str) -> dict: ...


class LiveMarketClient:
    """Thin REST adapter over `llm.send_with_retry`, failing as chat and
    search do: a rejected key raises AuthError, which ends the run, and every
    other failure raises TransportError, including a body of the wrong JSON
    type or one that is not JSON (the transport hands it over as text). A
    `rate_limiter` gives every request, retries included, a token first; the
    CLI sizes it by `MARKET_RATE_LIMIT_RPM`."""

    def __init__(
        self,
        base_url: str = DEFAULT_MARKET_BASE_URL,
        *,
        retry: RetryPolicy = RetryPolicy(),
        sleep: Callable[[float], None] = time.sleep,
        timeout: float = 30.0,
        rate_limiter: RateLimiter | None = None,
    ):
        self._base_url = base_url.rstrip("/")
        self._send = partial(send_with_retry, timeout=timeout, retry=retry, sleep=sleep, rate_limiter=rate_limiter)

    def list_markets(self, before_id: str | None, limit: int) -> list[dict]:
        params = {"limit": str(limit)}
        if before_id is not None:
            params["before"] = before_id
        payload = self._send(self._base_url + "/markets", {}, params=params)
        if not isinstance(payload, list):
            raise TransportError(f"malformed market payload: expected a market list, got {type(payload).__name__}")
        return payload

    def get_market(self, market_id: str) -> dict:
        # one path segment, so an id holding "#", "?" or "/" cannot name another URL
        payload = self._send(self._base_url + "/market/" + quote(market_id, safe=""), {})
        if not isinstance(payload, dict):
            raise TransportError(f"malformed market payload: expected a market object, got {type(payload).__name__}")
        return payload


class FixtureMarketClient:
    """Serves canned market payloads with real cursor pagination semantics.

    Page requests are logged on `.page_requests` as (before_id, limit) so
    tests can assert the cursor sequence. An unknown id raises CallFailed,
    as a live 404 does, and a file that holds no market list raises
    ValidationError.
    """

    def __init__(self, markets: list[dict]):
        self._markets = list(markets)
        self._by_id = {str(m.get("id")): m for m in markets}
        self.page_requests: list[tuple[str | None, int]] = []

    @classmethod
    def from_file(cls, path: str | Path) -> "FixtureMarketClient":
        data = Path(path).read_bytes()
        try:
            payload = loads(data.decode("utf-8"))
        except UnicodeDecodeError as exc:
            lineno = data.count(b"\n", 0, exc.start) + 1
            raise ValidationError("markets", f"{path}:{lineno}: not valid UTF-8") from None
        except json.JSONDecodeError as exc:
            raise ValidationError("markets", f"{path}: invalid JSON ({exc})") from None
        markets = payload.get("markets") if isinstance(payload, dict) else payload
        if not isinstance(markets, list) or not all(isinstance(m, dict) for m in markets):
            raise ValidationError(
                "markets", f"{path}: expected a list of market objects, or an object with one under markets"
            )
        return cls(markets)

    def list_markets(self, before_id: str | None, limit: int) -> list[dict]:
        self.page_requests.append((before_id, limit))
        start = 0
        if before_id is not None:
            ids = [str(m.get("id")) for m in self._markets]
            if before_id not in ids:
                return []
            start = ids.index(before_id) + 1
        return self._markets[start : start + limit]

    def get_market(self, market_id: str) -> dict:
        if market_id not in self._by_id:
            raise CallFailed(f"no such market {market_id!r}")
        return self._by_id[market_id]


def _market_fields(raw: dict) -> dict:
    """The dataset fields of one binary market payload. ValidationError
    if a field is missing, the id is blank or holds U+FFFD, the
    question is not a non-blank string, closeTime does not parse, a resolved
    market has no resolution, or probability is not a JSON number in [0, 1]."""
    for key in ("id", "question", "closeTime", "probability"):
        if key not in raw:
            raise ValidationError(key, f"market payload missing {key!r}: {str(raw)[:120]}")
    market_id = str(raw["id"])
    if not market_id.strip() or "\ufffd" in market_id:
        raise ValidationError("id", f"market id {market_id!r} is blank, or holds U+FFFD or a lone surrogate")
    question = raw["question"]
    if not isinstance(question, str) or not question.strip():
        raise ValidationError("question", f"market {market_id}: question {question!r} is not a non-blank string")
    try:
        close_time = parse_timestamp(raw["closeTime"], "closeTime")
    except ValidationError as exc:
        raise ValidationError("closeTime", f"market {market_id}: {exc}") from None
    if raw.get("isResolved", False) and raw.get("resolution") is None:
        raise ValidationError("resolution", f"market {market_id}: resolved without a resolution")
    probability = raw["probability"]
    if isinstance(probability, bool) or not isinstance(probability, (int, float)) or not 0.0 <= probability <= 1.0:
        raise ValidationError(
            "probability", f"market {market_id}: probability {probability!r} is not a number in [0, 1]"
        )
    return {
        "id": market_id,
        "title": question,
        "close_time": close_time,
        "crowd_prob": probability,
        "source": "market",
    }


def fetch_window(
    client: MarketClient,
    from_date: date,
    to_date: date,
    at: datetime,
    page_size: int = DEFAULT_PAGE_SIZE,
) -> list[Question]:
    """Every binary market closing inside [from_date, to_date], as a dataset
    Question read at `at`: the crowd probability is the market price,
    fetched_at is `at`, and the category is Unknown until curation
    classifies it.

    Pages through the whole listing with the before-cursor; malformed payloads
    are skipped with a warning, non-binary markets silently. Duplicates across
    page boundaries are dropped, keeping the first occurrence. A full page
    whose last entry has no id gives no cursor and raises TransportError, as
    any other unusable reply does; a client's own failures propagate. The
    Questions are checked only once the listing is read, so a market that
    closed before `at` raises ValidationError after every page request.
    """
    if from_date > to_date:
        raise ValueError(f"empty window: {from_date} > {to_date}")
    seen: set[str] = set()
    markets: list[dict] = []
    cursor: str | None = None
    while True:
        page = client.list_markets(before_id=cursor, limit=page_size)
        if not page:
            break
        for raw in page:
            if not isinstance(raw, dict):
                logger.warning("skipping malformed market: not an object: %.200r", raw)
                continue
            if raw.get("outcomeType") != "BINARY":
                continue
            try:
                fields = _market_fields(raw)
            except ValidationError as exc:
                logger.warning("skipping malformed market: %s", exc.message)
                continue
            if fields["id"] in seen:
                continue
            seen.add(fields["id"])
            if from_date <= fields["close_time"].date() <= to_date:
                markets.append(fields)
        if len(page) < page_size:
            break
        last = page[-1]
        if not isinstance(last, dict) or last.get("id") is None:
            raise TransportError(f"cannot page past a full market page whose last entry has no id: {last!r:.200}")
        cursor = str(last["id"])
    return [check_question({**fields, "fetched_at": at}) for fields in markets]


# --- LLM curation -------------------------------------------------------------


class FilterVerdict(NamedTuple):
    verdict: str  # "keep" | "drop"
    judge_reply: str

    @property
    def keep(self) -> bool:
        return self.verdict == "keep"


FILTER_PROMPT = (
    "You are screening questions for a forecasting study. Answer with exactly "
    "one word, Yes or No. Answer Yes only if both conditions hold:\n"
    "1. The question can be answered with a definite yes or no once it resolves.\n"
    "2. The question is about an external event, not something personal or "
    "self-referential for the people trading on it.\n\n"
    "Question: {question}"
)


def _first_word(text: str) -> str:
    for token in text.replace(",", " ").replace(".", " ").split():
        return token.strip("\"'()[]:;!").casefold()
    return ""


def llm_filter(backend: Backend, question_text: str, *, model_id: str = "default") -> FilterVerdict:
    """Ask the judge whether a market belongs in the dataset.

    Keep iff the reply normalizes to "Yes". An unparsable reply is retried
    once, then dropped with a warning. A call that fails after its retries
    (CallFailed) drops the market; every other backend error (a rejected
    key, a cassette fault) propagates, since the whole run is misconfigured.
    """
    request = ChatRequest(
        model_id=model_id,
        messages=(Message("user", FILTER_PROMPT.format(question=question_text)),),
    )
    replies = []
    for _ in range(2):
        try:
            reply = backend.complete(request).content
        except CallFailed as exc:
            logger.warning("judge backend error for %r: %s", question_text[:60], exc)
            return FilterVerdict("drop", f"[backend error: {exc}]")
        replies.append(reply)
        word = _first_word(reply)
        if word == "yes":
            return FilterVerdict("keep", reply)
        if word == "no":
            return FilterVerdict("drop", reply)
    logger.warning("judge reply unparsable after retry for %r: %r", question_text[:60], replies[-1])
    return FilterVerdict("drop", replies[-1])


CATEGORY_PROMPT = (
    "Assign the following question to exactly one of these categories. "
    "Reply with the category name only.\n\n"
    "Categories:\n{labels}\n\n"
    "Question: {question}"
)


def classify_category(backend: Backend, question_text: str, *, model_id: str = "default") -> Category:
    """Classify a question into one of the fixed topic buckets.

    Replies that are not an exact label (after whitespace/case normalization)
    come back as Unknown, as do calls that fail after their retries
    (CallFailed); every other backend error propagates.
    """
    request = ChatRequest(
        model_id=model_id,
        messages=(
            Message(
                "user",
                CATEGORY_PROMPT.format(labels="\n".join(Category.labels()), question=question_text),
            ),
        ),
    )
    try:
        reply = backend.complete(request).content
    except CallFailed as exc:
        logger.warning("classifier backend error for %r: %s", question_text[:60], exc)
        return Category.UNKNOWN
    category = Category.from_label(reply.strip())
    if category is Category.UNKNOWN:
        logger.warning("unrecognized category reply %r for %r", reply.strip()[:40], question_text[:60])
    return category


def curate_markets(
    backend: Backend,
    questions: Sequence[Question],
    *,
    model_id: str = "default",
    workers: int = 1,
) -> list[tuple[FilterVerdict, Category | None]]:
    """Judge every market and classify the kept ones, `workers` markets at a
    time. Returns (verdict, category) per question in listing order; the
    category is None for a dropped market.

    Each market's requests run in lane (question id, 0), so a recorded curate
    replays the same at any `workers`. A backend error that is not a
    CallFailed stops the run: markets not started yet send no request, and
    the error propagates once the markets in flight finish.
    """

    def curate_one(question: Question) -> tuple[FilterVerdict, Category | None]:
        with in_lane(question.id, 0):
            verdict = llm_filter(backend, question.title, model_id=model_id)
            if not verdict.keep:
                return verdict, None
            return verdict, classify_category(backend, question.title, model_id=model_id)

    return list(fan_out(curate_one, questions, workers))


def category_frequencies(questions: Iterable[Question]) -> list[tuple[Category, int]]:
    """Category counts, most frequent first (ties by label)."""
    counts = Counter(q.category for q in questions)
    return sorted(counts.items(), key=lambda item: (-item[1], item[0].value))


def render_category_table(frequencies: list[tuple[Category, int]]) -> str:
    return render_columns(("Category", "Count"), [(c.value, str(count)) for c, count in frequencies])


# --- resolution ------------------------------------------------------------------


class BackfillSummary(NamedTuple):
    resolved: int
    pending: int
    excluded: int


def backfill_resolutions(client: MarketClient, dataset_path: str | Path, *, workers: int = 1) -> BackfillSummary:
    """Fill in outcomes for a dataset in place.

    YES -> 1, NO -> 0; anything else a market resolved to (cancelled,
    ambiguous, numeric) marks the question excluded. Unresolved markets stay
    pending and are retried on the next run, and so does a market whose fetch
    fails (CallFailed): one bad market never loses the outcomes found for the
    others. Any other error, a rejected key among them, propagates before
    the file is rewritten, so the dataset is left as it was.
    Open markets are fetched `workers` at a time; outcomes are applied in
    dataset order, so the rewritten file does not depend on `workers`.
    An update sets outcome 0 or 1, or excluded, on a checked question that
    had neither, which keeps it a line `check_question` accepts.
    """
    questions = read_questions(dataset_path)

    def fetch(question: Question) -> dict | None:
        try:
            return client.get_market(question.id)
        except CallFailed as exc:
            logger.warning("market %s could not be fetched (%s); leaving it pending", question.id, exc)
            return None

    open_questions = [q for q in questions if q.outcome is None and not q.excluded]
    fetched = iter(list(fan_out(fetch, open_questions, workers)))
    updated: list[Question] = []
    resolved = pending = excluded = 0
    for question in questions:
        if question.outcome is not None or question.excluded:
            resolved += question.outcome is not None
            excluded += question.excluded
            updated.append(question)
            continue
        raw = next(fetched)
        if raw is None or not raw.get("isResolved", False):
            pending += 1
            updated.append(question)
            continue
        resolution = str(raw.get("resolution", "")).upper()
        if resolution == "YES":
            resolved += 1
            updated.append(question._replace(outcome=1))
        elif resolution == "NO":
            resolved += 1
            updated.append(question._replace(outcome=0))
        else:
            excluded += 1
            logger.warning("market %s resolved %r; excluding from scoring", question.id, resolution)
            updated.append(question._replace(excluded=True))
    write_questions(dataset_path, updated)
    return BackfillSummary(resolved=resolved, pending=pending, excluded=excluded)
