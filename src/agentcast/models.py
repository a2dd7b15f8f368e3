"""Core domain types: questions, forecasts, transcripts, and their JSONL forms.

Everything downstream (agents, scoring, the CLI) moves data through the types
in this module. Serialization is line-delimited JSON with UTC timestamps at
seconds precision, chosen so that re-encoding a parsed file reproduces it
byte for byte.
"""

from __future__ import annotations

import json
import math
import os
import re
from collections import namedtuple
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, NamedTuple, TypeVar


class ValidationError(ValueError):
    """A record violated a domain invariant. Always names the offending field."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field_name = field_name
        self.message = message


_SURROGATE = re.compile("[\ud800-\udfff]")
_ESCAPED_SURROGATE = re.compile(r"\\u[dD][89a-fA-F]")


def loads(text: str) -> Any:
    """`json.loads(text)`, with each lone surrogate (a `\\ud83d` escape) in a
    string or key read as U+FFFD, which UTF-8 can write. Every JSON text from
    outside is decoded here or, line by line, in read_jsonl."""
    value = json.loads(text)
    return _without_surrogates(value) if "\\u" in text and _ESCAPED_SURROGATE.search(text) else value


def _without_surrogates(value: Any) -> Any:
    if isinstance(value, str):
        return _SURROGATE.sub("\ufffd", value)
    if isinstance(value, dict):
        return {_without_surrogates(k): _without_surrogates(v) for k, v in value.items()}
    return [_without_surrogates(v) for v in value] if isinstance(value, list) else value


class Category(Enum):
    """Topic buckets for curated questions."""

    ECONOMICS_BUSINESS = "Economics & Business"
    POLITICS_GOVERNANCE = "Politics & Governance"
    SCIENCE_TECH = "Science & Tech"
    ARTS_RECREATION = "Arts & Recreation"
    SPORTS = "Sports"
    SECURITY_DEFENSE = "Security & Defense"
    HEALTHCARE_BIOLOGY = "Healthcare & Biology"
    ENVIRONMENT_ENERGY = "Environment & Energy"
    SOCIAL_SCIENCES = "Social Sciences"
    UNKNOWN = "Unknown"

    @classmethod
    def labels(cls) -> tuple[str, ...]:
        """All assignable labels, excluding the Unknown fallback."""
        return tuple(c.value for c in cls if c is not cls.UNKNOWN)

    @classmethod
    def from_label(cls, label: str) -> "Category":
        """Map a label to a Category; anything unrecognized becomes UNKNOWN.
        Matching ignores case and runs of whitespace, and reads "and" as "&"."""
        exact = _CATEGORY_BY_VALUE.get(label)  # the label as curate writes it
        if exact is not None:
            return exact
        normalized = " ".join(str(label).split()).lower().replace(" and ", " & ")
        return _CATEGORY_BY_LABEL.get(normalized, cls.UNKNOWN)


_CATEGORY_BY_VALUE = {c.value: c for c in Category}
_CATEGORY_BY_LABEL = {c.value.lower(): c for c in Category}


# --- timestamps ---------------------------------------------------------

_EPOCH_MS_THRESHOLD = 100_000_000_000  # epoch values above this are milliseconds


def parse_timestamp(value: Any, field_name: str = "timestamp") -> datetime:
    """Parse an ISO-8601 string or epoch number into a UTC datetime.

    Fractional seconds are truncated; epoch values large enough to be
    milliseconds are divided down. Raises ValidationError on anything else.
    """
    if isinstance(value, datetime):
        return normalize_timestamp(value)
    if isinstance(value, bool):
        raise ValidationError(field_name, f"malformed timestamp {value!r}")
    if isinstance(value, (int, float)):
        if not math.isfinite(value):
            raise ValidationError(field_name, f"malformed timestamp {value!r}")
        seconds = value / 1000.0 if abs(value) >= _EPOCH_MS_THRESHOLD else value
        return datetime.fromtimestamp(int(seconds), tz=timezone.utc)
    if isinstance(value, str):
        text = value.strip()
        if text.endswith("Z"):
            text = text[:-1] + "+00:00"
        try:
            parsed = datetime.fromisoformat(text)
        except ValueError:
            raise ValidationError(field_name, f"malformed timestamp {value!r}") from None
        return normalize_timestamp(parsed)
    raise ValidationError(field_name, f"malformed timestamp {value!r}")


def normalize_timestamp(dt: datetime) -> datetime:
    """Coerce to UTC and drop sub-second precision. Naive datetimes are read as UTC."""
    if dt.tzinfo is timezone.utc and not dt.microsecond:
        return dt
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc).replace(microsecond=0)


def format_timestamp(dt: datetime) -> str:
    return normalize_timestamp(dt).strftime("%Y-%m-%dT%H:%M:%SZ")


def utc_now() -> datetime:
    return normalize_timestamp(datetime.now(timezone.utc))


# --- forecasts ----------------------------------------------------------


# A checked type subclasses a named tuple with a __new__ that checks, and may
# convert, its fields. `_replace` and `_make` skip __new__: never build one so.
class Forecast(namedtuple("Forecast", "value")):
    """A probability that the question resolves YES, in [0, 1]."""

    __slots__ = ()

    def __new__(cls, value: float):
        return super().__new__(cls, _check_probability(value))


def _check_probability(v: Any) -> float:
    """Return v as a float if it is a number in [0, 1]; raise ValidationError
    on a bool, a non-number, NaN or anything out of range."""
    if type(v) is float:
        if 0.0 <= v <= 1.0:  # also false for NaN and the infinities
            return v
    elif isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValidationError("value", f"forecast must be a number, got {v!r}")
    elif 0.0 <= v <= 1.0:
        return float(v)
    raise ValidationError("value", f"forecast must lie in [0, 1], got {v!r}")


class Declined(NamedTuple):
    """The agent produced no usable probability. Distinct from any forecast value."""

    reason: str = ""


# --- questions ----------------------------------------------------------


class Question(NamedTuple):
    """One binary question, as curated from a prediction market.

    Made by `check_question`, from a dataset line or a line `curate` is
    about to write. crowd_prob is the market price at fetch time; outcome is
    filled in by the resolve step (1 = YES, 0 = NO) and stays absent until
    then. excluded marks markets that resolved to something other than YES/NO.
    """

    id: str
    title: str
    close_time: datetime
    fetched_at: datetime
    background: str | None
    resolution_criteria: str | None
    category: Category
    crowd_prob: float | None
    outcome: int | None
    source: str
    excluded: bool

    def to_dict(self) -> dict:
        d: dict[str, Any] = {"id": self.id, "title": self.title}
        if self.background is not None:
            d["background"] = self.background
        if self.resolution_criteria is not None:
            d["resolution_criteria"] = self.resolution_criteria
        d["close_time"] = format_timestamp(self.close_time)
        d["category"] = self.category.value
        if self.crowd_prob is not None:
            d["crowd_prob"] = self.crowd_prob
        if self.outcome is not None:
            d["outcome"] = self.outcome
        if self.source:
            d["source"] = self.source
        d["fetched_at"] = format_timestamp(self.fetched_at)
        if self.excluded:
            d["excluded"] = True
        return d


def check_question(raw: Any) -> Question:
    """Check one dataset line and return it as a Question.

    A line is an object with id, title and close_time; fetched_at defaults
    to close_time. Every other field is optional and, except excluded, reads
    as absent when null. Timestamps may be ISO strings, epoch numbers or
    datetimes. Where a line has two faults the error names the one checked
    first.
    """
    if not isinstance(raw, dict):
        raise ValidationError("record", f"expected an object, got {type(raw).__name__}")
    if "id" not in raw:
        raise ValidationError("id", "missing question id")
    if "title" not in raw:
        raise ValidationError("title", "missing title")
    if "close_time" not in raw:
        raise ValidationError("close_time", "missing close_time")
    close_time = parse_timestamp(raw["close_time"], "close_time")
    fetched_raw = raw.get("fetched_at")
    fetched_at = close_time if fetched_raw is None else parse_timestamp(fetched_raw, "fetched_at")
    qid = raw["id"]
    if not isinstance(qid, str) or not qid.strip():
        raise ValidationError("id", "missing or empty question id")
    if "\ufffd" in qid:  # what a lone surrogate reads as; ids that differ in one must not merge
        raise ValidationError("id", f"question id {qid!r} holds U+FFFD or a lone surrogate")
    title = raw["title"]
    if not isinstance(title, str) or not title.strip():
        raise ValidationError("title", "missing or empty title")
    if fetched_at > close_time:
        raise ValidationError(
            "fetched_at",
            f"fetched_at {format_timestamp(fetched_at)} is after close_time {format_timestamp(close_time)}",
        )
    crowd_prob = raw.get("crowd_prob")
    if crowd_prob is not None:
        if isinstance(crowd_prob, bool) or not isinstance(crowd_prob, (int, float)):
            raise ValidationError("crowd_prob", f"expected a number, got {crowd_prob!r}")
        if not math.isfinite(crowd_prob) or not 0.0 <= crowd_prob <= 1.0:
            raise ValidationError("crowd_prob", f"out of range [0, 1]: {crowd_prob!r}")
        crowd_prob = float(crowd_prob)
    outcome = raw.get("outcome")
    if outcome is not None:
        if isinstance(outcome, bool) or outcome not in (0, 1, 0.0, 1.0):
            raise ValidationError("outcome", f"outcome must be 0 or 1, got {outcome!r}")
        outcome = int(outcome)
    excluded = raw.get("excluded", False)
    if not isinstance(excluded, bool):
        raise ValidationError("excluded", f"expected true or false, got {excluded!r}")
    background = _optional_text(raw, "background")
    resolution_criteria = _optional_text(raw, "resolution_criteria")
    source = _optional_text(raw, "source") or ""
    label = _optional_text(raw, "category")
    category = Category.UNKNOWN if label is None else Category.from_label(label)
    return Question(
        qid, title, close_time, fetched_at, background, resolution_criteria,
        category, crowd_prob, outcome, source, excluded,
    )


def _optional_text(raw: dict, key: str) -> str | None:
    value = raw.get(key)
    if value is None:
        return None
    if not isinstance(value, str):
        raise ValidationError(key, f"expected a string, got {value!r}")
    return value


# --- transcripts --------------------------------------------------------


class AgentStep(NamedTuple):
    """One emission/observation pair. Malformed emissions keep the raw text in
    `thought` with an empty action; well-formed tool calls fill all four."""

    thought: str
    action: str
    action_input: str
    observation: str


FINAL_KINDS = ("final", "truncated", "truncated_finalized")


class FinalState(namedtuple("FinalState", "kind answer_text")):
    """How a run ended: a clean final answer, a forced finalization after the
    iteration cap, or a truncation with no answer at all."""

    __slots__ = ()

    def __new__(cls, kind: str, answer_text: str = ""):
        if kind not in FINAL_KINDS:
            raise ValidationError("kind", f"unknown final kind {kind!r}")
        return super().__new__(cls, kind, answer_text)


class Transcript(namedtuple("Transcript", "agent_id steps final")):
    __slots__ = ()

    def __new__(cls, agent_id: str, steps: Iterable[AgentStep], final: FinalState):
        return super().__new__(cls, agent_id, tuple(steps), final)


# --- forecast records ---------------------------------------------------

AGGREGATORS = ("mean", "median", "sampled")


class RecordRow(NamedTuple):
    """What scoring reads from one checked forecast record."""

    question_id: str
    declined: bool
    aggregate: float | None
    values: list[float]  # the completed members' probabilities, in file order


def check_record(raw: dict) -> RecordRow:
    """Check one forecast record line and return the fields scoring uses.

    The record declined iff some member has no probability. A declined record
    has no aggregate, and a completed one has an aggregate inside its members'
    range. Members are numbered by position, so member_index i names the
    member whose planner transcript is `<i>.planner.transcript`. Where a line
    has two faults the error names the one checked first.
    """
    if not isinstance(raw, dict):
        raise ValidationError("record", f"expected an object, got {type(raw).__name__}")
    if "question_id" not in raw:
        raise ValidationError("question_id", "missing question_id")
    members = raw.get("members")
    if not isinstance(members, list):
        raise ValidationError("members", "missing members list")
    values = []
    for position, entry in enumerate(members):
        if not isinstance(entry, dict) or "member_index" not in entry:
            raise ValidationError("members", f"malformed member entry {entry!r}")
        index = entry["member_index"]
        if type(index) is not int or index != position:  # a bool is not an index
            raise ValidationError("members", f"member at position {position} has member_index {index!r}")
        if entry.get("declined"):
            continue
        if "forecast" not in entry:
            raise ValidationError("members", f"member entry has neither forecast nor declined: {entry!r}")
        values.append(_check_probability(entry["forecast"]))
    aggregate = raw.get("aggregate")
    if aggregate is not None:
        aggregate = _check_probability(aggregate)
    question_id = raw["question_id"]
    if not isinstance(question_id, str) or not question_id.strip():
        raise ValidationError("question_id", "missing question_id")
    if not members:
        raise ValidationError("members", "ensemble has no members")
    aggregator = raw.get("aggregator", "median")
    if aggregator not in AGGREGATORS:
        raise ValidationError("aggregator", f"unknown aggregator {aggregator!r}")
    declined = len(values) < len(members)
    if declined:
        if aggregate is not None:
            raise ValidationError("aggregate", "declined record cannot carry an aggregate")
    else:
        if aggregate is None:
            raise ValidationError("aggregate", "missing aggregate for a completed ensemble")
        lo, hi = min(values), max(values)
        if not lo <= aggregate <= hi:
            raise ValidationError("aggregate", f"aggregate {aggregate!r} outside member range [{lo!r}, {hi!r}]")
    return RecordRow(question_id, declined, aggregate, values)


def record_line(raw: dict) -> dict:
    """Check one forecast record and return it as `forecast` writes it:
    `declined` worked out from the members, probabilities as floats, an empty
    reason or transcript_ref left out, and unknown keys dropped."""
    row = check_record(raw)
    values = iter(row.values)
    members = []
    for entry in raw["members"]:
        member: dict[str, Any] = {"member_index": entry["member_index"]}
        if entry.get("declined"):
            member["declined"] = True
            if entry.get("reason"):
                member["reason"] = entry["reason"]
        else:
            member["forecast"] = next(values)
        if entry.get("transcript_ref"):
            member["transcript_ref"] = entry["transcript_ref"]
        members.append(member)
    line = {
        "question_id": row.question_id,
        "aggregator": raw.get("aggregator", "median"),
        "members": members,
        "declined": row.declined,
    }
    if row.aggregate is not None:
        line["aggregate"] = row.aggregate
    return line


# --- JSONL IO -----------------------------------------------------------


def write_jsonl(path: str | Path, dicts: Iterable[dict]) -> None:
    """Write one JSON object per line. The lines go to a temp file beside the
    target, which then replaces it, so a crash mid-write leaves the old file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            for d in dicts:
                fh.write(json.dumps(d, ensure_ascii=False) + "\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


_raw_decode = json.JSONDecoder().raw_decode


def read_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Yield (line_number, parsed_object) pairs; blank lines are skipped.

    Each line gives what `loads` gives for it, but a line that is just one
    value, as write_jsonl writes them, skips json.loads' whitespace passes.
    Malformed JSON, or bytes that are not UTF-8, raise ValidationError naming
    the file and line.
    """
    path = Path(path)
    # bytes that are not UTF-8 read as lone surrogates, which no UTF-8 text
    # decodes to, so only a line that is not ASCII needs the scan
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            if not line.isascii() and _SURROGATE.search(line):
                raise ValidationError("line", f"{path}:{lineno}: not valid UTF-8")
            try:
                value, end = _raw_decode(line)
            except json.JSONDecodeError:
                end = 0
            if line[end:].strip(" \t\n\r"):  # not one bare value, so json.loads decides
                try:
                    value = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ValidationError("line", f"{path}:{lineno}: invalid JSON ({exc.msg})") from None
            if "\\u" in line and _ESCAPED_SURROGATE.search(line):  # as loads does
                value = _without_surrogates(value)
            yield lineno, value


def write_questions(path: str | Path, questions: Iterable[Question]) -> None:
    write_jsonl(path, (q.to_dict() for q in questions))


_T = TypeVar("_T")


def read_checked(path: str | Path, check: Callable[[Any], _T], unique: str | None = None) -> list[_T]:
    """Check every line of a JSONL file; an error names the file and line.

    Given `unique`, a line may not repeat an earlier line's value of that key.
    """
    items = []
    first_line: dict[Any, int] = {}
    for lineno, raw in read_jsonl(path):
        try:
            item = check(raw)
            if unique is not None:
                key = raw[unique]
                if key in first_line:
                    raise ValidationError(unique, f"repeated {unique} {key!r}, first on line {first_line[key]}")
                first_line[key] = lineno
        except ValidationError as exc:
            raise ValidationError(exc.field_name, f"{Path(path)}:{lineno}: {exc.message}") from None
        items.append(item)
    return items


def read_questions(path: str | Path) -> list[Question]:
    return read_checked(path, check_question, "id")


def write_records(path: str | Path, lines: Iterable[dict]) -> None:
    write_jsonl(path, lines)


def read_records(path: str | Path) -> list[RecordRow]:
    """Check a forecast file, keeping only the fields scoring uses."""
    return read_checked(path, check_record, "question_id")


def read_record_lines(path: str | Path) -> list[dict]:
    """Check a forecast file and return its records as `forecast` writes them."""
    return read_checked(path, record_line, "question_id")
