"""The traced-run launcher in perfbench/ must keep naming functions that exist
and that the commands still call; a rename otherwise breaks only traced
benchmark runs."""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from conftest import FIXTURES

ROOT = Path(__file__).resolve().parents[1]
LAUNCHER = ROOT / "perfbench" / "launcher.py"


def load_launcher():
    spec = importlib.util.spec_from_file_location("launcher", LAUNCHER)
    launcher = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(launcher)
    return launcher


def test_every_launcher_target_exists_after_importing_the_cli():
    importlib.import_module("agentcast.cli")
    missing = []
    for module_name, name, _layer, _note in load_launcher().TARGETS:
        owner = sys.modules.get(module_name)
        if "." in name:  # the launcher wraps a method where its class defines it
            cls_name, method = name.split(".")
            found = method in vars(getattr(owner, cls_name, object))
        else:
            found = callable(getattr(owner, name, None))
        if not found:
            missing.append(f"{module_name}.{name}")
    assert missing == []


def test_a_traced_score_records_the_record_reader_and_ensemble_spread(tmp_path):
    trace = tmp_path / "trace.jsonl"
    argv = [
        sys.executable,
        str(LAUNCHER),
        str(trace),
        "score",
        "--dataset",
        str(FIXTURES / "e2e" / "questions.jsonl"),
        "--forecasts",
        str(FIXTURES / "e2e_forecast" / "forecasts.jsonl"),
        "--bins",
        "2",
    ]
    done = subprocess.run(argv, capture_output=True, text=True, env={"PYTHONPATH": str(ROOT / "src")}, timeout=60)
    assert done.returncode == 0, done.stderr
    spans = json.loads(trace.read_text(encoding="utf-8").splitlines()[0])["spans"]
    names = [span[2] for span in spans]
    assert names.count("read_questions") == 1
    assert names.count("read_records") == 1 and names.count("ensemble_std") == 1


def test_a_traced_forecast_replay_records_every_search_with_its_cutoff_and_kept_count(tmp_path):
    e2e = FIXTURES / "e2e"
    trace = tmp_path / "trace.jsonl"
    argv = [
        sys.executable,
        str(LAUNCHER),
        str(trace),
        "forecast",
        "--dataset",
        str(e2e / "questions.jsonl"),
        "--out",
        str(tmp_path / "run"),
        "--search-fixture",
        str(e2e / "search.jsonl"),
        "--cassette",
        str(e2e / "cassette.jsonl"),
        "--cutoff",
        "2024-04-15",
    ]
    done = subprocess.run(argv, capture_output=True, text=True, env={"PYTHONPATH": str(ROOT / "src")}, timeout=60)
    assert done.returncode == 0, done.stderr
    spans = json.loads(trace.read_text(encoding="utf-8").splitlines()[0])["spans"]
    notes = sorted(span[7] for span in spans if span[2] == "search")
    # [query, cutoff, k, results kept] for each search the committed transcripts show
    assert notes == [
        ["Ethereum historical price data 2021 2022 2023", "2024-04-15", 8, 1],
        ["fed funds futures june 2024", "2024-04-15", 8, 1],
        ["historical price data of Ethereum", "2024-04-15", 8, 2],
        ["next orbital test flight schedule", "2024-04-15", 8, 1],
    ]
