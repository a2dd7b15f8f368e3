"""Domain type validation and JSONL round-trips."""

import ast
import json
import math
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

import agentcast
from agentcast.cli import ConfigError, RunConfig
from agentcast.hierarchy import ChildTranscript, TranscriptTree
from agentcast.llm import ChatRequest, ChatResponse, Message, RetryPolicy
from agentcast.market import BackfillSummary, FilterVerdict
from agentcast.metrics import CalibrationBin, CalibrationReport, ScoredSet, ScoreRow
from agentcast.models import (
    AgentStep,
    Category,
    Declined,
    FinalState,
    Forecast,
    RecordRow,
    Transcript,
    ValidationError,
    check_question,
    check_record,
    format_timestamp,
    loads,
    normalize_timestamp,
    parse_timestamp,
    read_jsonl,
    read_questions,
    read_record_lines,
    read_records,
    record_line,
    write_questions,
    write_records,
)
from agentcast.react import ActionEmission, FinalEmission, MalformedEmission, MalformedReason, ReactConfig
from agentcast.tools import ExecResult, SearchResult, ToolSpec

from conftest import make_question


def test_forecast_bounds():
    assert Forecast(0.0).value == 0.0
    assert Forecast(1).value == 1.0
    for bad in (-0.01, 1.01, float("nan"), float("inf"), "0.5", True):
        with pytest.raises(ValidationError, match="value"):
            Forecast(bad)


def test_declined_is_not_a_forecast_value():
    assert Declined("reason") != Forecast(0.5)
    assert Declined().reason == ""


def test_parse_timestamp_accepts_iso_and_epoch():
    dt = parse_timestamp("2024-04-30T12:34:56Z")
    assert dt == datetime(2024, 4, 30, 12, 34, 56, tzinfo=timezone.utc)
    assert parse_timestamp("2024-04-30T12:34:56+00:00") == dt
    assert parse_timestamp("2024-04-30T12:34:56.789Z") == dt
    # epoch seconds and milliseconds
    assert parse_timestamp(1714480496) == dt
    assert parse_timestamp(1714480496000) == dt
    assert parse_timestamp(1714480496789) == dt  # sub-second truncated


def test_parse_timestamp_rejects_garbage():
    for bad in ("yesterday", "2024-13-45", None, [], float("nan")):
        with pytest.raises(ValidationError, match="closeTime"):
            parse_timestamp(bad, "closeTime")


def test_format_timestamp_is_utc_seconds():
    dt = datetime(2024, 4, 30, 12, 34, 56, 789000, tzinfo=timezone.utc)
    assert format_timestamp(dt) == "2024-04-30T12:34:56Z"


def test_question_validation_names_offending_field():
    with pytest.raises(ValidationError, match="id"):
        make_question(qid="")
    with pytest.raises(ValidationError, match="title"):
        make_question(title="  ")
    with pytest.raises(ValidationError, match="crowd_prob"):
        make_question(crowd_prob=1.5)
    with pytest.raises(ValidationError, match="outcome"):
        make_question(outcome=2)
    with pytest.raises(ValidationError, match="fetched_at"):
        make_question(close="2024-04-01T00:00:00+00:00", fetched="2024-04-02T00:00:00+00:00")


def test_validate_question_minimal_raw_dict():
    q = check_question({"id": "q1", "title": "Will it?", "close_time": "2024-04-30T00:00:00Z", "outcome": 0})
    assert q.outcome == 0
    assert q.fetched_at == q.close_time  # defaulted
    assert q.category is Category.UNKNOWN
    assert q.crowd_prob is None


def test_validate_question_missing_and_malformed_fields():
    with pytest.raises(ValidationError, match="id"):
        check_question({"title": "x", "close_time": "2024-04-30T00:00:00Z"})
    with pytest.raises(ValidationError, match="close_time"):
        check_question({"id": "q", "title": "x"})
    with pytest.raises(ValidationError, match="close_time"):
        check_question({"id": "q", "title": "x", "close_time": "not a date"})


def test_category_from_label():
    assert Category.from_label("Economics & Business") is Category.ECONOMICS_BUSINESS
    assert Category.from_label("economics and business") is Category.ECONOMICS_BUSINESS
    assert Category.from_label("  Science &  Tech ") is Category.SCIENCE_TECH
    assert Category.from_label("Astrology") is Category.UNKNOWN
    assert len(Category.labels()) == 9


def test_category_from_label_maps_every_label_and_its_and_spelling():
    for category in Category:
        label = category.value
        assert Category.from_label(label) is category
        assert Category.from_label(label.upper()) is category
        assert Category.from_label(label.replace(" & ", " and ")) is category
        assert Category.from_label(f" {label.replace(' & ', '  AND  ')}\t") is category
    for unknown in ("", "Economics", "Economics &", "Business & Economics", "Sports & Sports", 42):
        assert Category.from_label(unknown) is Category.UNKNOWN


def test_normalize_timestamp_keeps_utc_whole_seconds_and_coerces_the_rest():
    utc = datetime(2024, 4, 30, 12, 34, 56, tzinfo=timezone.utc)
    assert normalize_timestamp(utc) is utc
    assert normalize_timestamp(utc.replace(microsecond=789)) == utc
    assert normalize_timestamp(utc.replace(tzinfo=None)) == utc
    plus_two = timezone(timedelta(hours=2))
    shifted = normalize_timestamp(datetime(2024, 4, 30, 14, 34, 56, 5, tzinfo=plus_two))
    assert shifted == utc and shifted.tzinfo is timezone.utc


def test_question_jsonl_round_trip_is_byte_identical(tmp_path):
    questions = [
        make_question(qid="q1", outcome=1, crowd_prob=0.62, category=Category.SPORTS.value, source="market"),
        make_question(qid="q2", title="Will prices rise? é", background="Some context."),
        make_question(qid="q3", resolution_criteria="Resolves YES if...", excluded=True),
    ]
    path = tmp_path / "questions.jsonl"
    write_questions(path, questions)
    first = path.read_bytes()
    loaded = read_questions(path)
    assert loaded == questions
    write_questions(path, loaded)
    assert path.read_bytes() == first


def test_question_without_outcome_stays_without_outcome(tmp_path):
    path = tmp_path / "q.jsonl"
    write_questions(path, [make_question(qid="q9")])
    (loaded,) = read_questions(path)
    assert loaded.outcome is None
    assert "outcome" not in loaded.to_dict()


def test_read_jsonl_names_file_and_line_on_corruption(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "ok"}\n{broken\n', encoding="utf-8")
    with pytest.raises(ValidationError, match=r"bad\.jsonl:2"):
        list(read_jsonl(path))


def test_read_jsonl_names_the_line_of_a_byte_that_is_not_utf8(tmp_path):
    # this was a UnicodeDecodeError traceback; text that is UTF-8 still reads
    # as before, and an escaped lone surrogate reads as U+FFFD
    path = tmp_path / "bad.jsonl"
    path.write_bytes('{"a": "é"}\n{"a": "\\ud83d"}\n{"a": "\xff"}\n'.encode("utf-8") + b'{"a": "\xff"}\n')
    lines = read_jsonl(path)
    assert next(lines) == (1, {"a": "é"})
    assert next(lines) == (2, {"a": "\ufffd"})
    assert next(lines) == (3, {"a": "\xff"})
    with pytest.raises(ValidationError) as raised:
        next(lines)
    assert str(raised.value) == f"line: {path}:4: not valid UTF-8"


def test_loads_reads_each_lone_surrogate_as_a_replacement_character():
    # in keys and at any depth; a whole escaped pair is one character, and an
    # escaped backslash before "ud83d" is no escape at all
    text = r'{"k\ud83d": [{"v": "a\udc00b"}, "\ud83d\ude00", "\\ud83d", 1.5, null]}'
    assert loads(text) == {"k\ufffd": [{"v": "a\ufffdb"}, "\U0001f600", "\\ud83d", 1.5, None]}
    assert loads(r'"\u00e9"') == "\xe9"


def test_only_models_decodes_json_or_names_a_surrogate():
    # every JSON text from outside is decoded by models.loads or read_jsonl,
    # which read a lone surrogate as U+FFFD; a module that decoded JSON itself
    # would need a fix of its own for every field it reads
    decoders = {"loads", "load", "JSONDecoder"}
    found = []
    for path in sorted(Path(agentcast.__file__).parent.glob("*.py")):
        if path.name == "models.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                named = node.value.id == "json" and node.attr in decoders
            elif isinstance(node, ast.ImportFrom):
                named = node.module == "json" and any(alias.name in decoders for alias in node.names)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                named = any("\ud800" <= c <= "\udfff" for c in node.value)
            else:
                named = False
            if named:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


@pytest.mark.parametrize(
    "line",
    [
        '{"a": 1}\n',
        '{"a": 1}',
        '  {"a": [1, {"b": null}]}\n',
        '{"a": 1}  \t \n',
        '[1, 2.5, "x"]\n',
        '7\n',
        'NaN\n',
        '-Infinity\n',
        '{"a": 1} {"b": 2}\n',
        '{"a": 1}\x0b\n',
        '{"a": 1,}\n',
        '\ufeff{"a": 1}\n',
        '{"a": "\x01"}\n',
        'tru\n',
        '{"k\\ud83d": ["\\udc00"]}\n',
        ' {"k\\ud83d": ["\\udc00"]}\n',
    ],
)
def test_read_jsonl_gives_what_json_loads_gives_for_each_line(tmp_path, line):
    # as models.loads gives it: json.loads with each lone surrogate as U+FFFD
    path = tmp_path / "lines.jsonl"
    path.write_text(line, encoding="utf-8")
    try:
        expected = loads(line)
    except json.JSONDecodeError as exc:
        with pytest.raises(ValidationError) as raised:
            list(read_jsonl(path))
        assert str(raised.value) == f"line: {path}:1: invalid JSON ({exc.msg})"
        return
    ((lineno, value),) = list(read_jsonl(path))
    assert lineno == 1
    if isinstance(expected, float) and math.isnan(expected):
        assert math.isnan(value)
    else:
        assert value == expected and type(value) is type(expected)


def record(members, aggregate=None, **fields):
    line = {"question_id": "q1", "aggregator": "median", "members": members, **fields}
    return line if aggregate is None else {**line, "aggregate": aggregate}


def test_record_invariants():
    members = [{"member_index": 0, "forecast": 0.3}, {"member_index": 1, "forecast": 0.5}]
    assert check_record(record(members, 0.4)) == RecordRow("q1", False, 0.4, [0.3, 0.5])

    with pytest.raises(ValidationError, match="aggregate"):
        check_record(record(members))  # missing aggregate
    with pytest.raises(ValidationError, match="aggregate"):
        check_record(record(members, 0.9))  # outside envelope
    with pytest.raises(ValidationError, match="aggregator"):
        check_record(record(members, 0.4, aggregator="average"))
    with pytest.raises(ValidationError, match="members"):
        check_record(record([], 0.4))

    declined_members = [{"member_index": 0, "declined": True, "reason": "budget"}, {"member_index": 1, "forecast": 0.5}]
    assert check_record(record(declined_members)) == RecordRow("q1", True, None, [0.5])
    with pytest.raises(ValidationError, match="aggregate"):
        check_record(record(declined_members, 0.5))


def test_record_round_trip(tmp_path):
    lines = [
        {
            "question_id": "q1",
            "aggregator": "median",
            "members": [
                {"member_index": 0, "forecast": 0.35, "transcript_ref": "q1/0.planner.transcript"},
                {"member_index": 1, "forecast": 0.4, "transcript_ref": "q1/1.planner.transcript"},
            ],
            "declined": False,
            "aggregate": 0.375,
        },
        {
            "question_id": "q2",
            "aggregator": "median",
            "members": [{"member_index": 0, "declined": True, "reason": "budget"}, {"member_index": 1, "forecast": 0.7}],
            "declined": True,
        },
    ]
    assert [record_line(line) for line in lines] == lines
    path = tmp_path / "records.jsonl"
    write_records(path, lines)
    first = path.read_bytes()
    loaded = read_record_lines(path)
    assert loaded == lines
    assert read_records(path) == [RecordRow("q1", False, 0.375, [0.35, 0.4]), RecordRow("q2", True, None, [0.7])]
    write_records(path, loaded)
    assert path.read_bytes() == first


def test_record_line_works_out_declined_and_drops_empty_fields():
    # the written form: declined from the members, floats, no empty reason or
    # transcript_ref, no unknown keys, and keys in one order
    completed = record(
        [{"forecast": 1, "member_index": 0, "transcript_ref": ""}, {"member_index": 1, "forecast": 0.5, "note": "x"}],
        0.75,
        declined=True,
    )
    line = record_line(completed)
    assert line == {
        "question_id": "q1",
        "aggregator": "median",
        "members": [{"member_index": 0, "forecast": 1.0}, {"member_index": 1, "forecast": 0.5}],
        "declined": False,
        "aggregate": 0.75,
    }
    assert list(line) == ["question_id", "aggregator", "members", "declined", "aggregate"]
    assert type(line["members"][0]["forecast"]) is float

    declined = record([{"member_index": 0, "declined": True, "reason": "", "transcript_ref": "q1/0.planner.transcript"}])
    del declined["aggregator"]  # an absent aggregator reads as the median
    assert record_line(declined) == {
        "question_id": "q1",
        "aggregator": "median",
        "members": [{"member_index": 0, "declined": True, "transcript_ref": "q1/0.planner.transcript"}],
        "declined": True,
    }


def test_write_jsonl_keeps_the_old_file_when_a_write_fails(tmp_path):
    path = tmp_path / "questions.jsonl"
    write_questions(path, [make_question(qid="q1")])
    before = path.read_bytes()

    def broken():
        yield make_question(qid="q2")
        raise RuntimeError("disk went away")

    with pytest.raises(RuntimeError, match="disk went away"):
        write_questions(path, broken())
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["questions.jsonl"]


def test_validate_question_takes_excluded_only_as_a_json_boolean():
    raw = make_question().to_dict()
    assert check_question(raw).excluded is False
    for flag in (True, False):
        assert check_question({**raw, "excluded": flag}).excluded is flag
    # "false" used to read as truthy, so score silently dropped the question
    for bad in ("false", "true", 0, 1, None, []):
        with pytest.raises(ValidationError, match=r"^excluded: expected true or false") as raised:
            check_question({**raw, "excluded": bad})
        assert raised.value.field_name == "excluded"


@pytest.mark.parametrize(
    "fields",
    [
        {},
        {"crowd_prob": 1, "outcome": 1.0},
        {"crowd_prob": None, "outcome": None, "excluded": True},
        {"fetched_at": None, "close_time": 1714435200, "category": "sports"},
        {"close_time": "2024-04-30T00:00:00.750+02:00", "fetched_at": 1713139200000, "outcome": 0.0},
        {"background": None, "resolution_criteria": None, "source": None, "category": None},
        {"background": "", "resolution_criteria": "Resolves YES if...", "source": "", "category": "Astrology"},
    ],
)
def test_check_question_returns_what_validate_question_builds(tmp_path, fields):
    # the one checker normalises every field, and its row reads back unchanged
    raw = {**make_question(crowd_prob=0.25, outcome=0).to_dict(), **fields}
    question = check_question(raw)
    close_time = parse_timestamp(raw["close_time"])
    assert question.close_time == close_time and question.close_time.tzinfo is timezone.utc
    assert question.fetched_at == (close_time if raw["fetched_at"] is None else parse_timestamp(raw["fetched_at"]))
    assert (question.crowd_prob, question.outcome) == (raw["crowd_prob"], raw["outcome"])
    assert type(question.crowd_prob) is (type(None) if raw["crowd_prob"] is None else float)
    assert type(question.outcome) is (type(None) if raw["outcome"] is None else int)
    assert question.excluded is raw.get("excluded", False)
    assert question.background == raw.get("background") and question.source == (raw.get("source") or "")
    assert question.resolution_criteria == raw.get("resolution_criteria")
    assert question.category is (Category.from_label(raw["category"]) if raw["category"] else Category.UNKNOWN)
    path = tmp_path / "questions.jsonl"
    write_questions(path, [question])
    assert read_questions(path) == [question]


@pytest.mark.parametrize("field", ["title", "background", "resolution_criteria", "source"])
def test_check_question_reads_a_lone_surrogate_in_a_text_field_as_a_replacement_character(tmp_path, field):
    # a JSON "\\ud83d" escape decodes to half a pair, which UTF-8 cannot write
    path = tmp_path / "questions.jsonl"
    path.write_text(json.dumps({**make_question().to_dict(), field: "Will \ud83d ship?"}) + "\n", encoding="utf-8")
    assert "\\ud83d" in path.read_text(encoding="utf-8")
    (question,) = read_questions(path)
    assert getattr(question, field) == "Will \ufffd ship?"
    write_questions(path, [question])
    assert read_questions(path) == [question]


def test_check_question_rejects_a_lone_surrogate_in_an_id(tmp_path):
    # it reads as U+FFFD, so "q\\ud83d" and "q\\ud83e" would merge into one id;
    # a literal U+FFFD is rejected too
    path = tmp_path / "questions.jsonl"
    line = json.dumps({**make_question().to_dict(), "id": "q\ud83d"})
    for text in (line, line.replace("\\ud83d", "\ufffd")):
        path.write_text(text + "\n", encoding="utf-8")
        with pytest.raises(ValidationError, match=r"^id: .*:1: .*lone surrogate") as raised:
            read_questions(path)
        assert raised.value.field_name == "id"


def test_check_record_rejects_malformed_members():
    for check in (check_record, record_line):
        with pytest.raises(ValidationError, match="members"):
            check({"question_id": "q", "members": [{"member_index": 0}], "aggregator": "median"})
        with pytest.raises(ValidationError, match="question_id"):
            check({"members": []})


def test_transcript_types():
    step = AgentStep("think", "web_search", "query", "obs")
    transcript = Transcript("planner", (step,), FinalState("final", "0.35"))
    assert transcript.steps[0].action == "web_search"
    with pytest.raises(ValidationError, match="kind"):
        FinalState("gave_up")


USER = (Message("user", "hi"),)
TOOL = ToolSpec("web_search", "d", str)

# A checked type's construction and the error it raises. Where a call has two
# faults the message names the one checked first.
CONSTRUCTION_CHECKS = [
    ("forecast_1.5", lambda: Forecast(1.5), ValidationError, "value: forecast must lie in [0, 1], got 1.5"),
    ("forecast_true", lambda: Forecast(True), ValidationError, "value: forecast must be a number, got True"),
    ("request_no_messages", lambda: ChatRequest("m", ()), ValueError, "a chat request needs at least one message"),
    ("request_no_messages_nan", lambda: ChatRequest("m", [], float("nan")), ValueError,
     "a chat request needs at least one message"),
    ("request_assistant_first", lambda: ChatRequest("m", (Message("assistant", "hi"),)), ValueError,
     "the first message must come from system or user"),
    ("request_nan_temperature", lambda: ChatRequest("m", USER, float("nan")), ValueError,
     "temperature must be finite and non-negative, got nan"),
    ("message_robot", lambda: Message("robot", "hi"), ValueError, "unknown message role 'robot'"),
    ("final_bogus", lambda: FinalState("bogus"), ValidationError, "kind: unknown final kind 'bogus'"),
    ("tool_empty_name", lambda: ToolSpec("", "d", str), ValueError, "bad tool name ''"),
    ("tool_newline_name", lambda: ToolSpec("a\nb", "d", str, "bogus"), ValueError, "bad tool name 'a\\nb'"),
    ("tool_kind", lambda: ToolSpec("t", "d", str, "worker"), ValueError, "unknown tool kind 'worker'"),
    ("react_iterations", lambda: ReactConfig("s", (), max_iterations=0), ValueError,
     "max_iterations must be at least 1"),
    ("react_no_tools", lambda: ReactConfig("s", ()), ValueError, "an agent needs at least one tool"),
    ("react_policy", lambda: ReactConfig("s", (TOOL,), on_budget_exceeded="shrink"), ValueError,
     "unknown budget policy 'shrink'"),
    ("config_workers", lambda: RunConfig(workers=0), ConfigError, "workers must be at least 1, got 0"),
    ("config_ensemble_and_workers", lambda: RunConfig(ensemble_size=0, workers=0), ConfigError,
     "ensemble size must be at least 1, got 0"),
]


@pytest.mark.parametrize("build, error, message", [row[1:] for row in CONSTRUCTION_CHECKS],
                         ids=[row[0] for row in CONSTRUCTION_CHECKS])
def test_a_checked_type_rejects_bad_fields_when_built(build, error, message):
    with pytest.raises(error) as raised:
        build()
    assert type(raised.value) is error and str(raised.value) == message


def test_checked_types_convert_their_fields():
    assert type(Forecast(1).value) is float
    request = ChatRequest("m", list(USER), stop_sequences=["Observation:"])
    assert request.messages == USER and request.stop_sequences == ("Observation:",)
    assert Transcript("a", [], FinalState("final")).steps == ()
    assert ScoredSet("m", ["q"], [0.5], [1]) == ScoredSet("m", ("q",), (0.5,), (1,))
    assert len(ScoredSet("m", ["q1", "q2"], [0.5, 0.5], [1, 0])) == 2  # questions, not fields


TRANSCRIPT = Transcript("a", (), FinalState("final"))

# one value of each type that cannot be changed once built
FROZEN = [
    Forecast(0.5), Declined("r"), AgentStep("t", "a", "i", "o"), FinalState("final"), TRANSCRIPT,
    Message("user", "hi"), ChatRequest("m", USER), ChatResponse("x"), RetryPolicy(),
    ScoredSet("m", ("q",), (0.5,), (1,)), CalibrationBin(1, 0.5, 1.0), CalibrationReport("m", 1, (), 0.0),
    ScoreRow("m", 0.1, 0.5), ActionEmission("t", "a", "i"), FinalEmission("t", "x"),
    MalformedEmission(MalformedReason.NO_KEYWORD), ReactConfig("s", (TOOL,)), TOOL, SearchResult("t", "u", "s"),
    ExecResult("", "", 0), ChildTranscript("t", 0, TRANSCRIPT), TranscriptTree("t", TRANSCRIPT),
    make_question(), FilterVerdict("keep", "Yes"), BackfillSummary(0, 0, 0),
]


@pytest.mark.parametrize("value", FROZEN, ids=[type(v).__name__ for v in FROZEN])
def test_a_field_cannot_be_assigned_after_building(value):
    field = value._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.extra = 1  # no instance dict either
