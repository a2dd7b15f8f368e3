"""Seeded inputs, stub plans and independent output checks for each workload.

Nothing here imports agentcast: the expected outputs are derived from the
plan the stub serves (or, for scoring, from a numpy reference), so a defect
in the program cannot also hide in its check.

Every share below is an exact count chosen by position from the seed, not a
per-item coin flip, so request counts and sleeps are the same for every seed
and only the content (titles, queries, probabilities, dates) varies.
"""

from __future__ import annotations

import json
import random
import re
import statistics
from dataclasses import dataclass, field
from datetime import date, datetime, time, timedelta, timezone
from pathlib import Path
from typing import Callable

from stub import LoopbackStub, StubCore, Throttle, transport_self_check

CUTOFF = "2024-04-15"
FETCHED_AT = "2024-04-15T00:00:00Z"
# The topic labels agentcast's classifier may answer with (models.Category).
CATEGORY_LABELS = (
    "Economics & Business",
    "Politics & Governance",
    "Science & Tech",
    "Arts & Recreation",
    "Sports",
    "Security & Defense",
    "Healthcare & Biology",
    "Environment & Energy",
    "Social Sciences",
)
# Tags the benchmark plants in its own inputs and in the tasks the stub's
# planner delegates; the stub routes replies on them, never on prompt text.
SEARCH_STEP = re.compile(r" step(?P<t>\d+)$", re.M)
QUESTION_TAG = re.compile(r"\[bq q=(?P<q>[\w-]+)\]")
TASK_TAG = re.compile(r"\[bq q=(?P<q>[\w-]+) m=(?P<m>\d+) w=(?P<w>web\d+|calc)\]")
MARKET_TAG = re.compile(r"\[bq mk=(?P<id>[\w-]+)\]")

# Fixed-length words and names keep every prompt, query and observation the
# same length whatever the seed, so compaction does the same work per seed.
_WORDS = (
    "harbor tariff merger ballot budget census strike ruling launch summit "
    "recall shares league museum canals quarry drones fields rivers cinema "
    "forest grains pledge rocket sensor tunnel vacuum wallet yields zoning"
).split()
_SYLLABLES = ("ka", "lo", "mi", "re", "tu", "sa", "ve", "no", "di", "ra")


def _entity(rng: random.Random) -> str:
    return "".join(rng.choice(_SYLLABLES) for _ in range(4)).capitalize()


def _text(rng: random.Random, words: int) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(words))


def _action(thought: str, tool: str, action_input: str) -> str:
    return f"Thought: {thought}\nAction: {tool}\nAction Input: {action_input}"


def _final(thought: str, answer: str) -> str:
    return f"Thought: {thought}\nFinal Answer: {answer}"


@dataclass(frozen=True)
class Check:
    attempted: int
    failed: int
    problems: tuple[str, ...] = ()


# --- forecast plans ------------------------------------------------------------------


@dataclass(frozen=True)
class ForecastSpec:
    """Shape of one forecast batch. Counts are exact per batch."""

    questions: int
    ensemble: int = 3
    web_delegations: int = 1
    searches_per_web: int = 2
    unique_queries: bool = False
    compute_members: int = 0
    malformed_members: int = 0
    declining_questions: int = 0
    forced_final_webs: int = 0
    worker_iterations: int = 10
    results_per_search: int = 8
    post_cutoff_per_query: int = 2
    undated_per_query: int = 1
    timestamped_queries: int = 0
    snippet_words: int = 14


@dataclass(frozen=True)
class MemberScript:
    prob: float | None  # None: the member declines
    malformed: bool
    compute: bool
    forced_webs: frozenset = frozenset()


class ForecastPlan:
    """Questions, per-member planner scripts, worker scripts and search
    results for one seed. Serves the stub and knows the expected records."""

    def __init__(self, spec: ForecastSpec, seed: int):
        self.spec = spec
        rng = random.Random(f"forecast:{seed}")
        self.questions: list[dict] = []
        self.topics: dict[str, str] = {}
        for i in range(spec.questions):
            qid = f"q{seed % 1000:03d}-{i:03d}"
            topic = f"{_entity(rng)} {rng.choice(_WORDS)}"
            close = date(2024, 6, 1) + timedelta(days=rng.randrange(120))
            self.topics[qid] = topic
            self.questions.append(
                {
                    "id": qid,
                    "title": f"Will {topic} pass {rng.randrange(100, 999)} by {close.isoformat()}? [bq q={qid}]",
                    "background": _text(rng, 12),
                    "close_time": f"{close.isoformat()}T00:00:00Z",
                    "category": rng.choice(CATEGORY_LABELS),
                    "fetched_at": FETCHED_AT,
                    "source": "market",
                }
            )
        members = [(q["id"], m) for q in self.questions for m in range(spec.ensemble)]
        compute = set(rng.sample(members, spec.compute_members))
        malformed = set(rng.sample(members, spec.malformed_members))
        declining = {qid: rng.randrange(spec.ensemble) for qid in rng.sample(list(self.topics), spec.declining_questions)}
        webs = [(qid, m, j) for qid, m in members for j in range(spec.web_delegations)]
        forced = set(rng.sample(webs, spec.forced_final_webs))
        self.members: dict[tuple[str, int], MemberScript] = {}
        for qid in self.topics:
            probs = [p / 100 for p in rng.sample(range(5, 96), spec.ensemble)]
            for m in range(spec.ensemble):
                self.members[(qid, m)] = MemberScript(
                    prob=None if declining.get(qid) == m else probs[m],
                    malformed=(qid, m) in malformed,
                    compute=(qid, m) in compute,
                    forced_webs=frozenset(j for j in range(spec.web_delegations) if (qid, m, j) in forced),
                )
        self.results: dict[str, list[dict]] = {}
        queries = sorted({self.query(qid, m, j, t) for qid, m, j in webs for t in range(self.searches(qid, m, j))})
        stamped = set(rng.sample(queries, spec.timestamped_queries))
        for query in queries:
            self.results[query] = self._results(random.Random(f"{seed}:{query}"), query, query in stamped)

    # queries and results

    def searches(self, qid: str, m: int, j: int) -> int:
        forced = j in self.members[(qid, m)].forced_webs
        return self.spec.worker_iterations if forced else self.spec.searches_per_web

    def query(self, qid: str, m: int, j: int, t: int) -> str:
        who = f" m{m}" if self.spec.unique_queries else ""
        return f"{self.topics[qid]} evidence {qid}{who} w{j} step{t}"

    def _results(self, rng: random.Random, query: str, stamped: bool) -> list[dict]:
        spec = self.spec
        cutoff = date.fromisoformat(CUTOFF)
        kinds = ["post"] * spec.post_cutoff_per_query + ["undated"] * spec.undated_per_query
        kinds += ["stamped"] if stamped else []
        kinds += ["pre"] * (spec.results_per_search - len(kinds))
        rng.shuffle(kinds)
        results = []
        for i, kind in enumerate(kinds):
            entry = {
                "title": f"{query.split(' evidence')[0]} {rng.choice(_WORDS)} report {i}",
                "url": f"https://news.example/{rng.randrange(10**8)}",
                "snippet": _text(rng, spec.snippet_words),
            }
            if kind == "pre":
                entry["published"] = (cutoff - timedelta(days=1 + rng.randrange(400))).isoformat()
            elif kind == "post":
                entry["published"] = (cutoff + timedelta(days=rng.randrange(60))).isoformat()
            elif kind == "stamped":
                day = cutoff - timedelta(days=1 + rng.randrange(30))
                entry["published"] = f"{day.isoformat()}T{rng.randrange(24):02d}:15:00Z"
            results.append(entry)
        return results

    # the stub's chat replies

    def planner_turns(self, qid: str, m: int) -> list[str]:
        script = self.members[(qid, m)]
        topic = self.topics[qid]
        turns = [
            _action("Start with evidence.", "web_research", f"Gather dated evidence on {topic}, angle {j}. [bq q={qid} m={m} w=web{j}]")
            for j in range(self.spec.web_delegations)
        ]
        if script.malformed:
            turns.insert(1, "Thought: Let me weigh what the research found before deciding.")
        if script.compute:
            turns.append(_action("Quantify it.", "computation", f"Estimate a base rate for {topic}. [bq q={qid} m={m} w=calc]"))
        if script.prob is None:
            turns.append(_final("The evidence is too thin.", "I cannot give an estimate here."))
        else:
            turns.append(_final("Combining the evidence.", f"{script.prob:.2f}"))
        return turns

    def chat(self, messages: list[dict], occurrence: int) -> tuple[str, str | None]:
        system = messages[0]["content"] if messages[0]["role"] == "system" else ""
        users = [msg["content"] for msg in messages if msg["role"] == "user"]
        assistants = [msg["content"] for msg in messages if msg["role"] == "assistant"]
        turn = len(assistants)
        task = TASK_TAG.search(users[0]) if users else None
        if task:
            qid, m, role = task["q"], int(task["m"]), task["w"]
            if (qid, m) not in self.members:
                return role, None
            if role == "calc":
                if "python" not in system:
                    return role, None
                if turn == 0:
                    program = f"print(sum(i * i for i in range({1000 + int(qid[-3:])})))"
                    return role, _action("Run the numbers.", "python", program)
                return role, _final("Done.", "The computation finished; the base rate is moderate.")
            j = int(role[3:])
            if "web_search" not in system:
                return "web", None
            # Compaction replaces old steps with one marker, so a worker's turn
            # is read from the step number of its own last planted query.
            step = SEARCH_STEP.search(assistants[-1]) if assistants else None
            turn = int(step["t"]) + 1 if step else turn
            if turn < self.searches(qid, m, j):
                return "web", _action("Look for sources.", "web_search", self.query(qid, m, j, turn))
            return "web", _final("I have enough.", f"Sources on {self.topics[qid]} were mixed across the searches reviewed.")
        question = QUESTION_TAG.search(users[0]) if users else None
        if not question or "web_research" not in system or question["q"] not in self.topics:
            return "other", None
        qid = question["q"]
        if turn == 0:
            m = occurrence
        else:
            tagged = TASK_TAG.search(assistants[0])
            if not tagged or occurrence:
                return "planner", None
            m = int(tagged["m"])
        if m >= self.spec.ensemble:
            return "planner", None
        turns = self.planner_turns(qid, m)
        return "planner", turns[turn] if turn < len(turns) else None

    def search(self, query: str, before: str, num: int) -> list[dict] | None:
        results = self.results.get(query)
        return None if results is None else results[:num]

    def market_page(self, before, limit):
        return None

    def market(self, market_id):
        return None

    # inputs and expected outputs

    def write_dataset(self, path: Path) -> None:
        path.write_text("".join(json.dumps(q) + "\n" for q in self.questions), encoding="utf-8")

    def write_fixture(self, path: Path) -> None:
        lines = [json.dumps({"query": q, "results": r}) for q, r in self.results.items()]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def expected(self) -> dict[str, dict]:
        out = {}
        for qid in self.topics:
            scripts = [self.members[(qid, m)] for m in range(self.spec.ensemble)]
            probs = sorted(s.prob for s in scripts if s.prob is not None)
            declined = len(scripts) - len(probs)
            out[qid] = {
                "status": "declined" if declined else "forecasted",
                "forecasts": probs,
                "declined": declined,
                "aggregate": None if declined else statistics.median(probs),
            }
        return out

    def check(self, out_dir: Path) -> Check:
        """Compare forecasts.jsonl and the manifest with the plan, question by
        question; member order is ignored, member values are not."""
        expected = self.expected()
        problems = []
        try:
            statuses = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))["questions"]
            lines = (out_dir / "forecasts.jsonl").read_text(encoding="utf-8").splitlines()
            records = {r["question_id"]: r for r in map(json.loads, lines)}
        except (OSError, ValueError, KeyError) as exc:
            return Check(len(expected), len(expected), (f"unreadable output: {exc}",))
        failed = 0
        for qid, want in expected.items():
            record = records.get(qid)
            got = None
            if record is not None:
                members = record["members"]
                got = {
                    "status": statuses.get(qid),
                    "forecasts": sorted(x["forecast"] for x in members if "forecast" in x),
                    "declined": sum(1 for x in members if x.get("declined")),
                    "aggregate": record.get("aggregate"),
                }
            if got != want:
                failed += 1
                problems.append(f"{qid}: expected {want}, got {got}")
        return Check(len(expected), failed, tuple(problems[:5]))


# --- curate / resolve plan -------------------------------------------------------------


@dataclass(frozen=True)
class CurateSpec:
    total_markets: int = 1100
    targets: int = 48  # binary markets inside the window
    out_of_window: int = 150  # binary markets outside it
    judge_no: int = 12
    judge_unparsable: int = 6  # first reply cannot be parsed; the retry answers
    resolved_yes: int = 15
    resolved_no: int = 13
    resolved_other: int = 4
    # kept markets left over stay unresolved


class CuratePlan:
    """A market listing with binary and non-binary markets, in and out of the
    window, plus judge, classifier and resolution outcomes."""

    def __init__(self, spec: CurateSpec, seed: int, today: date):
        self.spec = spec
        rng = random.Random(f"curate:{seed}")
        self.window = (today + timedelta(days=30), today + timedelta(days=59))
        kinds = ["target"] * spec.targets + ["outside"] * spec.out_of_window
        kinds += ["other"] * (spec.total_markets - len(kinds))
        rng.shuffle(kinds)
        self.markets: list[dict] = []
        targets = []
        for i, kind in enumerate(kinds):
            mid = f"m{seed % 1000:03d}x{i:04d}"
            text = f"Will {_entity(rng)} {_text(rng, 3)} before the deadline? [bq mk={mid}]"
            if kind == "target":
                day = self.window[0] + timedelta(days=rng.randrange(30))
                targets.append(mid)
            elif rng.random() < 0.5:
                day = self.window[1] + timedelta(days=1 + rng.randrange(200))
            else:
                day = self.window[0] - timedelta(days=1 + rng.randrange(25))
            close_ms = int(datetime.combine(day, time(12), tzinfo=timezone.utc).timestamp() * 1000)
            market = {
                "id": mid,
                "question": text,
                "closeTime": close_ms,
                "outcomeType": "MULTIPLE_CHOICE" if kind == "other" else "BINARY",
                "probability": round(rng.uniform(0.02, 0.98), 4),
                "isResolved": False,
                "resolution": None,
            }
            self.markets.append(market)
        self.by_id = {m["id"]: m for m in self.markets}
        dropped = set(rng.sample(targets, spec.judge_no))
        self.unparsable = set(rng.sample(targets, spec.judge_unparsable))
        self.kept = [mid for mid in targets if mid not in dropped]
        self.dropped = dropped
        self.categories = {mid: rng.choice(CATEGORY_LABELS) for mid in targets}
        fates = ["YES"] * spec.resolved_yes + ["NO"] * spec.resolved_no
        fates += [rng.choice(("CANCEL", "MKT")) for _ in range(spec.resolved_other)]
        fates += [None] * (len(self.kept) - len(fates))
        rng.shuffle(fates)
        for mid, fate in zip(self.kept, fates):
            if fate is not None:
                self.by_id[mid].update(isResolved=True, resolution=fate)

    def chat(self, messages: list[dict], occurrence: int) -> tuple[str, str | None]:
        text = messages[-1]["content"] if len(messages) == 1 else ""
        tag = MARKET_TAG.search(text)
        if not tag or tag["id"] not in self.categories:
            return "other", None
        mid = tag["id"]
        if sum(label in text for label in CATEGORY_LABELS) >= 5:
            return "classify", self.categories[mid] if occurrence == 0 else None
        verdict = "No, it is personal." if mid in self.dropped else "Yes."
        replies = ["Perhaps; hard to say.", verdict] if mid in self.unparsable else [verdict]
        return "judge", replies[occurrence] if occurrence < len(replies) else None

    def search(self, query, before, num):
        return None

    def market_page(self, before: str | None, limit: int) -> list[dict]:
        start = 0
        if before is not None:
            ids = [m["id"] for m in self.markets]
            if before not in ids:
                return []
            start = ids.index(before) + 1
        return self.markets[start : start + limit]

    def market(self, market_id: str) -> dict | None:
        return self.by_id.get(market_id)

    def expected(self) -> list[dict]:
        rows = []
        for mid in self.kept:
            market = self.by_id[mid]
            row = {"id": mid, "title": market["question"], "category": self.categories[mid], "crowd_prob": market["probability"]}
            if market["isResolved"]:
                if market["resolution"] in ("YES", "NO"):
                    row["outcome"] = 1 if market["resolution"] == "YES" else 0
                else:
                    row["excluded"] = True
            rows.append(row)
        return rows

    def check(self, dataset: Path) -> Check:
        """Kept ids in listing order, categories, crowd prices, outcomes and
        exclusions; fetched_at is ignored."""
        expected = self.expected()
        keys = ("id", "title", "category", "crowd_prob", "outcome", "excluded")
        try:
            lines = dataset.read_text(encoding="utf-8").splitlines()
            got = [{k: v for k, v in json.loads(line).items() if k in keys} for line in lines]
        except (OSError, ValueError) as exc:
            return Check(self.spec.targets, self.spec.targets, (f"unreadable dataset: {exc}",))
        problems = []
        failed = abs(len(got) - len(expected))
        for want, have in zip(expected, got):
            if want != have:
                failed += 1
                problems.append(f"expected {want}, got {have}")
        if failed:
            problems.insert(0, f"{len(got)} rows against {len(expected)} expected")
        return Check(self.spec.targets, min(failed, self.spec.targets), tuple(problems[:5]))


# --- scoring inputs and the numpy reference -----------------------------------------------


@dataclass(frozen=True)
class ScoreSpec:
    questions: int = 5_000
    files: tuple[str, ...] = ("alpha", "beta", "gamma")
    ensemble: int = 3
    declines_per_file: int = 100  # 2%
    excluded: int = 50
    unresolved: int = 50
    bins: int = 10


class ScorePlan:
    """A resolved dataset and several forecast files, with the scores a
    direct numpy computation gives for them."""

    def __init__(self, spec: ScoreSpec, seed: int):
        self.spec = spec
        rng = random.Random(f"score:{seed}")
        ids = [f"s{seed % 1000:03d}-{i:05d}" for i in range(spec.questions)]
        special = rng.sample(ids, spec.excluded + spec.unresolved)
        excluded, unresolved = set(special[: spec.excluded]), set(special[spec.excluded :])
        self.questions = []
        for qid in ids:
            close = date(2024, 5, 1) + timedelta(days=rng.randrange(200))
            q = {
                "id": qid,
                "title": f"Will {_entity(rng)} {_text(rng, 4)}?",
                "close_time": f"{close.isoformat()}T00:00:00Z",
                "category": rng.choice(CATEGORY_LABELS),
                "crowd_prob": round(rng.uniform(0.01, 0.99), 4),
                "fetched_at": FETCHED_AT,
                "source": "market",
            }
            if qid in excluded:
                q["excluded"] = True
            elif qid not in unresolved:
                q["outcome"] = int(rng.random() < q["crowd_prob"])
            self.questions.append(q)
        self.records: dict[str, list[dict]] = {}
        for label in spec.files:
            declined = set(rng.sample(ids, spec.declines_per_file))
            rows = []
            for qid in ids:
                values = [round(rng.uniform(0.01, 0.99), 4) for _ in range(spec.ensemble)]
                members = [{"member_index": m, "forecast": v} for m, v in enumerate(values)]
                row = {"question_id": qid, "aggregator": "median", "members": members}
                if qid in declined:
                    m = rng.randrange(spec.ensemble)
                    members[m] = {"member_index": m, "declined": True, "reason": "no numeric token in final answer"}
                    row["declined"] = True
                else:
                    row["declined"] = False
                    row["aggregate"] = statistics.median(values)
                rows.append(row)
            self.records[label] = rows

    def write(self, directory: Path) -> tuple[Path, list[Path]]:
        dataset = directory / "dataset.jsonl"
        dataset.write_text("".join(json.dumps(q) + "\n" for q in self.questions), encoding="utf-8")
        paths = []
        for label, rows in self.records.items():
            path = directory / f"{label}.jsonl"
            path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
            paths.append(path)
        return dataset, paths

    def reference(self) -> tuple[list[dict], list[dict]]:
        """(scores rows, calibration rows) computed directly with numpy."""
        import numpy as np

        outcomes = {q["id"]: q["outcome"] for q in self.questions if "outcome" in q and not q.get("excluded")}
        methods: dict[str, dict[str, float | None]] = {"crowd": {q["id"]: q["crowd_prob"] for q in self.questions if q["id"] in outcomes}}
        members: dict[str, dict[str, list[float]]] = {}
        for label, rows in self.records.items():
            methods[label] = {r["question_id"]: r.get("aggregate") for r in rows if r["question_id"] in outcomes}
            members[label] = {r["question_id"]: [m["forecast"] for m in r["members"] if "forecast" in m] for r in rows}
        dropped = {qid for fmap in methods.values() for qid, v in fmap.items() if v is None}
        survivors = sorted(set(outcomes) - dropped)
        o = np.array([outcomes[q] for q in survivors], dtype=float)
        scores, calibration = [], []
        k = self.spec.bins
        n = len(survivors)
        for label, fmap in methods.items():
            f = np.array([fmap[q] for q in survivors], dtype=float)
            std = None
            if label in members:
                std = float(np.mean([np.std(np.array(members[label][q], dtype=float)) for q in survivors]))
            scores.append(
                {
                    "method": label,
                    "brier": float(np.mean((f - o) ** 2)),
                    "accuracy": float(np.mean((f > 0.5) == (o == 1))),
                    "std": std,
                    "n": n,
                }
            )
            order = sorted(range(n), key=lambda i: (f[i], survivors[i]))
            fs, os_ = f[order], o[order]
            bins = []
            index = 0.0
            for j in range(k):
                lo, hi = (j * n) // k, ((j + 1) * n) // k
                mf, mo = float(fs[lo:hi].mean()), float(os_[lo:hi].mean())
                bins.append({"count": hi - lo, "mean_forecast": mf, "observed_freq": mo})
                index += (hi - lo) * (mf - mo) ** 2
            calibration.append({"method": label, "k": k, "index": index / n, "bins": bins})
        return scores, calibration

    def check(self, out_dir: Path, reference: tuple[list[dict], list[dict]]) -> Check:
        """scores.jsonl and calibration.jsonl against the reference, 1e-9."""
        attempted = self.spec.questions
        try:
            scores = [json.loads(x) for x in (out_dir / "scores.jsonl").read_text(encoding="utf-8").splitlines()]
            calib = [json.loads(x) for x in (out_dir / "calibration.jsonl").read_text(encoding="utf-8").splitlines()]
        except (OSError, ValueError) as exc:
            return Check(attempted, attempted, (f"unreadable output: {exc}",))
        problems = []
        if not _close(scores, reference[0]):
            problems.append(f"scores differ: {scores[:2]} vs {reference[0][:2]}")
        if not _close(calib, reference[1]):
            problems.append("calibration differs")
        return Check(attempted, attempted if problems else 0, tuple(problems))


def _close(a, b, tol: float = 1e-9) -> bool:
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k], tol) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y, tol) for x, y in zip(a, b))
    if isinstance(a, float) or isinstance(b, float):
        return isinstance(a, (int, float)) and isinstance(b, (int, float)) and abs(a - b) <= tol
    return a == b


# --- workloads ---------------------------------------------------------------------------

RunCli = Callable[[list[str], Path], None]  # run `agentcast <args>` with a log in the given dir

FAST_RPM = 1_000_000  # the token bucket never binds at this rate


@dataclass
class Workload:
    """One workload: its inputs, the stub it talks to and its output check.

    setup() generates inputs and starts the stub; commands() lists the
    agentcast invocations of one timed iteration; check() verifies it.
    """

    name: str
    seed: int
    items: int = 0
    stub: LoopbackStub | None = None
    self_check: dict = field(default_factory=dict)

    def describe(self) -> dict:
        raise NotImplementedError

    def setup(self, work: Path, run_cli: RunCli) -> None:
        raise NotImplementedError

    def commands(self, work: Path, out: Path) -> list[list[str]]:
        raise NotImplementedError

    def check(self, work: Path, out: Path) -> Check:
        raise NotImplementedError

    def close(self) -> None:
        if self.stub is not None:
            self.stub.stop()
            self.stub = None

    def check_transport(self) -> None:
        """Fail unless a keep-alive client pays no more per call than a fresh
        connection does (see stub.transport_self_check)."""
        if self.stub is None:
            return
        self.self_check = transport_self_check(self.stub.urls["chat"])
        if not self.self_check["ok"]:
            raise RuntimeError(f"stub transport self-check failed: {self.self_check}")
        self.stub.reset()

    def _start_stub(self, plan, latency: dict, throttles: dict) -> None:
        self.stub = LoopbackStub(StubCore(plan, throttles, cutoff=CUTOFF), latency).start()

    def _config(self, work: Path, **extra) -> Path:
        config = {
            "llm_base_url": self.stub.urls["chat"] + "/v1",
            "search_base_url": self.stub.urls["search"],
            "market_base_url": self.stub.urls["market"],
            "rate_limit_rpm": FAST_RPM,
            **extra,
        }
        path = work / "config.json"
        path.write_text(json.dumps(config, indent=1), encoding="utf-8")
        return path


ENSEMBLE_SPEC = ForecastSpec(
    questions=6,
    compute_members=6,
    malformed_members=3,
    declining_questions=1,
    timestamped_queries=1,
)
ENSEMBLE_LATENCY = {"chat": 0.020, "search": 0.010, "market": 0.0}
ENSEMBLE_THROTTLES = {"chat": Throttle(40), "search": Throttle(25)}


class ForecastEnsemble(Workload):
    def __init__(self, seed: int):
        super().__init__("forecast_ensemble", seed)
        self.plan = ForecastPlan(ENSEMBLE_SPEC, seed)
        self.items = ENSEMBLE_SPEC.questions

    def describe(self) -> dict:
        s = ENSEMBLE_SPEC
        members = s.questions * s.ensemble
        return {
            "why": "the default configuration, dominated by waiting: concurrency, retries, repeated searches and sandbox cost show here; compaction never runs",
            "loop": "closed loop, one client: agentcast forecast --workers 1 sends its next request when a reply arrives",
            "command": "forecast --ensemble 3 --aggregator median (planner/worker hierarchy, no context limit)",
            "latency_s": ENSEMBLE_LATENCY,
            "throttle_every_nth_first_attempt": {ep: t.period for ep, t in ENSEMBLE_THROTTLES.items()},
            "retry_after_s": 0.05,
            "shares": {
                "compute_members": f"{s.compute_members}/{members}",
                "malformed_members": f"{s.malformed_members}/{members}",
                "questions_with_a_declining_member": f"{s.declining_questions}/{s.questions}",
                "post_cutoff_results": f"{s.post_cutoff_per_query}/{s.results_per_search} per search",
                "undated_results": f"{s.undated_per_query}/{s.results_per_search} per search",
                "queries_with_a_timestamped_result": f"{s.timestamped_queries}/{s.questions * s.searches_per_web}",
            },
            "sizes": {"questions": s.questions, "ensemble": s.ensemble, "searches_per_web_worker": s.searches_per_web},
            "seed": self.seed,
        }

    def setup(self, work: Path, run_cli: RunCli) -> None:
        self.plan.write_dataset(work / "dataset.jsonl")
        self._start_stub(self.plan, ENSEMBLE_LATENCY, ENSEMBLE_THROTTLES)
        self._config(work)

    def commands(self, work: Path, out: Path) -> list[list[str]]:
        return [
            ["forecast", "--dataset", str(work / "dataset.jsonl"), "--out", str(out / "run"),
             "--config", str(work / "config.json"), "--cutoff", CUTOFF, "--ensemble", "3", "--aggregator", "median"]
        ]

    def check(self, work: Path, out: Path) -> Check:
        return self.plan.check(out / "run")


REPLAY_SPEC = ForecastSpec(
    questions=2,
    web_delegations=1,
    searches_per_web=58,
    unique_queries=True,
    malformed_members=2,
    declining_questions=1,
    forced_final_webs=1,
    worker_iterations=60,
    post_cutoff_per_query=2,
    snippet_words=2,
)
REPLAY_CONTEXT_LIMIT = 2000


class ReplayLong(Workload):
    def __init__(self, seed: int):
        super().__init__("replay_long", seed)
        self.plan = ForecastPlan(REPLAY_SPEC, seed)
        self.items = REPLAY_SPEC.questions

    def describe(self) -> dict:
        s = REPLAY_SPEC
        return {
            "why": "nothing waits: in-process overhead (context assembly, compaction, parsing, fingerprints, transcript and record writes)",
            "loop": "closed loop, no network: agentcast forecast replays a cassette with --workers 2",
            "command": "forecast --cassette (replay) --search-fixture --workers 2; set-up records the cassette with --record",
            "latency_s": {"chat": 0.0, "search": "fixture"},
            "context_token_limit": REPLAY_CONTEXT_LIMIT,
            "worker_iterations": s.worker_iterations,
            "shares": {
                "malformed_members": f"{s.malformed_members}/{s.questions * s.ensemble}",
                "questions_with_a_declining_member": f"{s.declining_questions}/{s.questions}",
                "web_workers_hitting_the_iteration_cap": f"{s.forced_final_webs}/{s.questions * s.ensemble * s.web_delegations}",
                "post_cutoff_results": f"{s.post_cutoff_per_query}/{s.results_per_search} per search",
                "compute_members": "0",
            },
            "sizes": {"questions": s.questions, "ensemble": s.ensemble, "web_delegations": s.web_delegations,
                      "searches_per_web_worker": s.searches_per_web, "unique_queries": len(self.plan.results)},
            "seed": self.seed,
        }

    def setup(self, work: Path, run_cli: RunCli) -> None:
        self.plan.write_dataset(work / "dataset.jsonl")
        self.plan.write_fixture(work / "search.jsonl")
        self._start_stub(self.plan, {}, {})
        self._config(work, worker_iterations=REPLAY_SPEC.worker_iterations, context_token_limit=REPLAY_CONTEXT_LIMIT)
        record = work / "record"
        run_cli(self._forecast(work, record) + ["--record"], work)
        recorded = self.plan.check(record)
        self.close()
        if recorded.failed:
            raise RuntimeError(f"recording run failed its check: {recorded.problems}")
        self.recorded = (record / "forecasts.jsonl").read_bytes()

    def _forecast(self, work: Path, out: Path) -> list[str]:
        return ["forecast", "--dataset", str(work / "dataset.jsonl"), "--out", str(out),
                "--config", str(work / "config.json"), "--cutoff", CUTOFF, "--ensemble", "3",
                "--aggregator", "median", "--search-fixture", str(work / "search.jsonl"),
                "--cassette", str(work / "cassette.jsonl")]

    def commands(self, work: Path, out: Path) -> list[list[str]]:
        return [self._forecast(work, out / "run") + ["--workers", "2"]]

    def check(self, work: Path, out: Path) -> Check:
        """forecasts.jsonl must be byte-identical to the recording run's."""
        try:
            replayed = (out / "run" / "forecasts.jsonl").read_bytes()
        except OSError as exc:
            return Check(self.items, self.items, (f"no replay output: {exc}",))
        want, got = self.recorded.splitlines(), replayed.splitlines()
        failed = sum(1 for a, b in zip(want, got) if a != b) + abs(len(want) - len(got))
        problems = () if replayed == self.recorded else ("replayed forecasts.jsonl differs from the recording",)
        return Check(self.items, max(failed, 1) if problems else 0, problems)


SCORE_SPEC = ScoreSpec()


class ScoreLarge(Workload):
    def __init__(self, seed: int):
        super().__init__("score_large", seed)
        self.plan = ScorePlan(SCORE_SPEC, seed)
        self.items = SCORE_SPEC.questions
        self.reference = None

    def describe(self) -> dict:
        s = SCORE_SPEC
        return {
            "why": "the only workload for the models record reader and for metrics; CPU only, no network",
            "loop": "one batch command: agentcast score --out",
            "sizes": {"questions": s.questions, "forecast_files": len(s.files), "ensemble": s.ensemble, "bins": s.bins},
            "shares": {
                "declined_records_per_file": f"{s.declines_per_file}/{s.questions}",
                "excluded_questions": f"{s.excluded}/{s.questions}",
                "unresolved_questions": f"{s.unresolved}/{s.questions}",
            },
            "latency_s": "none (no network)",
            "seed": self.seed,
        }

    def setup(self, work: Path, run_cli: RunCli) -> None:
        self.dataset, self.files = self.plan.write(work)
        self.reference = self.plan.reference()

    def commands(self, work: Path, out: Path) -> list[list[str]]:
        return [["score", "--dataset", str(self.dataset), "--forecasts", *map(str, self.files), "--out", str(out / "report")]]

    def check(self, work: Path, out: Path) -> Check:
        return self.plan.check(out / "report", self.reference)


CURATE_SPEC = CurateSpec()
CURATE_LATENCY = {"chat": 0.010, "search": 0.0, "market": 0.005}
CURATE_THROTTLES = {"chat": Throttle(40), "market": Throttle(20)}


class CurateResolve(Workload):
    def __init__(self, seed: int, today: date | None = None):
        super().__init__("curate_resolve", seed)
        self.plan = CuratePlan(CURATE_SPEC, seed, today or date.today())
        self.items = CURATE_SPEC.targets

    def describe(self) -> dict:
        s = CURATE_SPEC
        return {
            "why": "the only workload for market; many small independent chat requests instead of growing ReAct contexts",
            "loop": "closed loop, one client: agentcast curate, then agentcast resolve",
            "command": "curate --from/--to (window 30-59 days after the run date, no --at), then resolve",
            "latency_s": CURATE_LATENCY,
            "throttle_every_nth_first_attempt": {ep: t.period for ep, t in CURATE_THROTTLES.items()},
            "retry_after_s": 0.05,
            "sizes": {"markets_listed": s.total_markets, "pages_of_500": -(-s.total_markets // 500),
                      "binary_in_window": s.targets, "binary_outside_window": s.out_of_window},
            "shares": {
                "judge_no": f"{s.judge_no}/{s.targets}",
                "judge_first_reply_unparsable": f"{s.judge_unparsable}/{s.targets}",
                "resolved_yes_no_other_pending": f"{s.resolved_yes}/{s.resolved_no}/{s.resolved_other}/"
                f"{s.targets - s.judge_no - s.resolved_yes - s.resolved_no - s.resolved_other} of {s.targets - s.judge_no} kept",
            },
            "seed": self.seed,
        }

    def setup(self, work: Path, run_cli: RunCli) -> None:
        self._start_stub(self.plan, CURATE_LATENCY, CURATE_THROTTLES)
        self._config(work)

    def commands(self, work: Path, out: Path) -> list[list[str]]:
        lo, hi = self.plan.window
        dataset = str(out / "dataset.jsonl")
        config = str(work / "config.json")
        return [
            ["curate", "--from", lo.isoformat(), "--to", hi.isoformat(), "--out", dataset, "--config", config],
            ["resolve", "--dataset", dataset, "--config", config],
        ]

    def check(self, work: Path, out: Path) -> Check:
        return self.plan.check(out / "dataset.jsonl")


WORKLOADS = {
    "forecast_ensemble": ForecastEnsemble,
    "replay_long": ReplayLong,
    "score_large": ScoreLarge,
    "curate_resolve": CurateResolve,
}
