"""Regenerate the committed end-to-end fixtures in tests/fixtures/e2e/.

The cassette is produced by running the real forecast pipeline (the same
runner the CLI builds) against a scripted backend, through the recording
wrapper. Replaying the cassette therefore reproduces this exact run. The
script below is ordered to match sequential execution: questions in dataset
order, three ensemble members each, planner and worker requests interleaved.

Run from the repo root after changing prompts or the loop:

    python3 tests/fixtures/generate_e2e.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from agentcast.cli import RunConfig, make_member_runner, run_forecast
from agentcast.llm import RecordingBackend
from agentcast.models import Category, Question, check_question, read_records, write_questions
from agentcast.tools import FixtureSearchProvider, SearchMemo

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from helpers import ScriptedBackend  # noqa: E402

E2E = Path(__file__).parent / "e2e"
CUTOFF = "2024-04-15"
FETCHED = "2024-04-15T00:00:00Z"


def build_dataset() -> list[Question]:
    def q(qid, title, close, category, crowd, outcome):
        return check_question(
            {
                "id": qid,
                "title": title,
                "close_time": close,
                "category": category.value,
                "crowd_prob": crowd,
                "outcome": outcome,
                "source": "fixture",
                "fetched_at": FETCHED,
            }
        )

    return [
        q("q_eth", "Will ETH close above 3700?", "2024-04-30T00:00:00", Category.ECONOMICS_BUSINESS, 0.30, 0),
        q("q_fed", "Will the Fed cut rates at its June 2024 meeting?", "2024-06-12T18:00:00", Category.ECONOMICS_BUSINESS, 0.07, 0),
        q("q_launch", "Will another orbital test flight launch before June 2024?", "2024-05-31T23:59:59", Category.SCIENCE_TECH, 0.85, 1),
        q("q_un", "Will a new member state join the UN before May 2024?", "2024-04-30T23:59:59", Category.POLITICS_GOVERNANCE, 0.03, 0),
        q("q_btc", "Will Bitcoin close above 70000 on May 15, 2024?", "2024-05-15T00:00:00", Category.ECONOMICS_BUSINESS, 0.45, 1),
    ]


def build_search_fixture() -> list[dict]:
    return [
        {
            "query": "historical price data of Ethereum",
            "results": [
                {
                    "title": "ETH/USD daily closes",
                    "url": "https://example.org/eth-daily",
                    "snippet": "Ethereum traded in a 2900-3300 band from April 1 to April 14, closing at 3110 on April 14.",
                    "published": "2024-04-14",
                },
                {
                    "title": "Ethereum price history",
                    "url": "https://example.org/eth-history",
                    "snippet": "ETH peaked near 4800 in late 2021, fell below 1000 in mid-2022, and recovered through 2023.",
                },
            ],
        },
        {
            "query": "Ethereum historical price data 2021 2022 2023",
            "results": [
                {
                    "title": "Three years of ETH closes",
                    "url": "https://example.org/eth-3y",
                    "snippet": "Yearly closes: 3683 (2021), 1196 (2022), 2281 (2023). Largest one-week gain in 2024 so far: 11%.",
                    "published": "2024-04-01",
                }
            ],
        },
        {
            "query": "fed funds futures june 2024",
            "results": [
                {
                    "title": "Rate expectations tracker",
                    "url": "https://example.org/fedwatch",
                    "snippet": "Futures pricing as of April 12 implies roughly a one-in-ten chance of a cut at the June meeting.",
                    "published": "2024-04-12",
                }
            ],
        },
        {
            "query": "next orbital test flight schedule",
            "results": [
                {
                    "title": "Launch window filing",
                    "url": "https://example.org/faa-filing",
                    "snippet": "A regulatory filing sketches a late-May window for the next integrated test flight; the company has flown roughly every two months.",
                    "published": "2024-04-10",
                }
            ],
        },
        {
            "query": "default",
            "results": [
                {
                    "title": "No specific fixture",
                    "url": "https://example.org/none",
                    "snippet": "generic placeholder result",
                }
            ],
        },
    ]


def build_script() -> list[str]:
    """Scripted model replies, in exact sequential execution order."""
    return [
        # ---- q_eth, member 0: planner delegates research; the worker
        # ---- searches twice and summarizes; the planner lands on 0.35
        "Thought: Do I need to use a tool? Yes\n"
        "Action: web_research\n"
        "Action Input: historical price data of Ethereum",
        "Thought: Do I need to use a tool? Yes\n"
        "Action: web_search\n"
        'Action Input: "historical price data of Ethereum"',
        "Thought: Do I need to use a tool? Yes\n"
        "Action: web_search\n"
        "Action Input: Ethereum historical price data 2021 2022 2023",
        "Thought: Do I need to use a tool? No\n"
        "Final Answer: ETH traded between 2900 and 3300 through April 14, closing at 3110; "
        "the largest one-week gain this year is 11%, so reaching 3700 by April 30 would "
        "need an unusually large move.",
        "Thought: Do I need to use a tool? No\nFinal Answer: 0.35",
        # ---- q_eth, member 1: planner delegates computation
        "Thought: How large is the required move?\n"
        "Action: computation\n"
        "Action Input: Compute the percent change from 3110 to 3700.",
        "Thought: One line of arithmetic.\n"
        "Action: python\n"
        "Action Input: print(round((3700 - 3110) / 3110 * 100, 1))",
        "Thought: Done.\nFinal Answer: Moving from 3110 to 3700 is an 19.0% increase.",
        "Thought: A 19% move in two weeks is rare.\nFinal Answer: 0.35",
        # ---- q_eth, member 2: planner answers directly
        "Thought: The base rate for such a jump is low.\nFinal Answer: 0.35",
        # ---- q_fed, member 0: one research step
        "Thought: Check market-implied odds.\n"
        "Action: web_research\n"
        "Action Input: market-implied odds of a June 2024 rate cut",
        "Thought: Futures are the cleanest signal.\n"
        "Action: web_search\n"
        "Action Input: fed funds futures june 2024",
        "Thought: That settles it.\n"
        "Final Answer: Futures pricing as of April 12 implies roughly a one-in-ten chance of a June cut.",
        "Thought: Defer to the market.\nFinal Answer: 0.1",
        # ---- q_fed, members 1 and 2: direct
        "Thought: Inflation prints stayed hot through March.\nFinal Answer: 0.08",
        "Thought: Some residual chance of a surprise.\nFinal Answer: 0.12",
        # ---- q_launch, member 0: malformed first emission, then recovery
        "The cadence so far suggests another attempt is coming soon.",
        "Thought: Use the required format and delegate.\n"
        "Action: web_research\n"
        "Action Input: next orbital test flight schedule",
        "Thought: Look for filings.\n"
        "Action: web_search\n"
        "Action Input: next orbital test flight schedule",
        "Thought: A late-May window is sketched.\n"
        "Final Answer: A regulatory filing sketches a late-May window; recent cadence is roughly bimonthly.",
        "Thought: Consistent with a flight before June.\nFinal Answer: 0.8",
        # ---- q_launch, members 1 and 2: direct
        "Thought: Cadence argues for yes.\nFinal Answer: 0.75",
        "Thought: Schedule risk is real but modest.\nFinal Answer: 0.85",
        # ---- q_un: member 1 declines, so the whole record declines
        "Thought: Accession takes years; nothing is pending.\nFinal Answer: 0.05",
        "Thought: I do not want to guess here.\nFinal Answer: I cannot give a number for this one.",
        "Thought: No pending applications.\nFinal Answer: 0.05",
        # ---- q_btc: percent and decimal answer formats
        "Thought: Post-halving drift is plausible.\nFinal Answer: 40%",
        "Thought: Range-bound action is more likely.\nFinal Answer: 35%",
        "Thought: Coin flip with upward skew.\nFinal Answer: 0.5",
    ]


def main() -> int:
    E2E.mkdir(parents=True, exist_ok=True)
    dataset = build_dataset()
    write_questions(E2E / "questions.jsonl", dataset)
    with open(E2E / "search.jsonl", "w", encoding="utf-8") as fh:
        for entry in build_search_fixture():
            fh.write(json.dumps(entry, ensure_ascii=False) + "\n")

    cassette_path = E2E / "cassette.jsonl"
    if cassette_path.exists():
        cassette_path.unlink()
    cfg = RunConfig(cutoff=CUTOFF)
    backend = RecordingBackend(ScriptedBackend(build_script()), cassette_path)
    memo = SearchMemo(FixtureSearchProvider.from_file(E2E / "search.jsonl"))
    runner = make_member_runner(cfg, backend, memo)

    with tempfile.TemporaryDirectory() as out:
        statuses = run_forecast(
            dataset,
            runner,
            out,
            ensemble_size=3,
            aggregator_mode=cfg.aggregator,
            seed=cfg.seed,
            memo=memo,
        )
        records = {r.question_id: r for r in read_records(Path(out) / "forecasts.jsonl")}

    # sanity: the scripted flow must have produced exactly the intended run
    assert statuses == {
        "q_eth": "forecasted",
        "q_fed": "forecasted",
        "q_launch": "forecasted",
        "q_un": "declined",
        "q_btc": "forecasted",
    }, statuses
    assert records["q_eth"].aggregate == 0.35
    assert records["q_fed"].aggregate == 0.1
    assert records["q_launch"].aggregate == 0.8
    assert records["q_un"].declined
    assert records["q_btc"].aggregate == 0.4
    print(f"wrote {len(dataset)} questions, search fixture, and cassette under {E2E}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
