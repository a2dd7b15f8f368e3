"""Scoring math against hand-computed values, the brute-force oracles and,
bit for bit, the numpy formulas it replaced."""

import random

import numpy as np
import pytest

from agentcast.metrics import (
    EmptyMembers,
    EmptySet,
    MetricError,
    ScoredSet,
    ScoreRow,
    TooFewForecasts,
    UniverseMismatch,
    _pairwise_sum,
    accuracy,
    aggregate,
    apply_drop_rule,
    brier,
    calibration_index,
    ensemble_std,
    parse_table,
    render_calibration_table,
    render_score_table,
)
from agentcast.models import Declined, Forecast, check_record, read_records, record_line, write_records

from oracles import (
    numpy_accuracy,
    numpy_brier,
    numpy_calibration,
    numpy_ensemble_std,
    oracle_accuracy,
    oracle_brier,
    oracle_calibration,
    oracle_drop_rule,
    oracle_ensemble_std,
)

# one small set, scored by hand:
#   squared errors: 0.04, 0.16, 0.16, 0.04, 0.49 -> mean 0.178
#   side-of-0.5 hits: 4 of 5
#   K=2 bins over sorted [0.2, 0.4 | 0.6, 0.7, 0.8]:
#     bin 1: 2 * (0.3 - 0)^2 = 0.18
#     bin 2: 3 * (0.7 - 2/3)^2 = 0.00333...
#     index = 0.18333... / 5
HAND_PAIRS = [
    ("a", 0.8, 1),
    ("b", 0.4, 0),
    ("c", 0.6, 1),
    ("d", 0.2, 0),
    ("e", 0.7, 0),
]
HAND_BRIER = 0.178
HAND_ACCURACY = 0.8
HAND_CALIBRATION = (0.18 + 3 * (0.7 - 2 / 3) ** 2) / 5


def scored_set(pairs, label="test"):
    return ScoredSet(label, [q for q, _, _ in pairs], [f for _, f, _ in pairs], [o for _, _, o in pairs])


def test_oracles_match_hand_computed_values():
    pairs = [(f, o) for _, f, o in HAND_PAIRS]
    assert abs(oracle_brier(pairs) - HAND_BRIER) < 1e-15
    assert oracle_accuracy(pairs) == HAND_ACCURACY
    assert abs(oracle_calibration(HAND_PAIRS, 2) - HAND_CALIBRATION) < 1e-15


def test_brier_and_accuracy_match_hand_values():
    s = scored_set(HAND_PAIRS)
    assert abs(brier(s) - HAND_BRIER) < 1e-12
    assert accuracy(s) == HAND_ACCURACY


def test_half_forecast_counts_as_predicting_no():
    s = scored_set([("a", 0.5, 0), ("b", 0.5, 1)])
    assert accuracy(s) == 0.5


def test_calibration_matches_hand_value():
    report = calibration_index(scored_set(HAND_PAIRS), k=2)
    assert abs(report.index - HAND_CALIBRATION) < 1e-12
    assert [b.count for b in report.bins] == [2, 3]
    assert report.bins[0].observed_freq == 0.0


def test_calibration_is_zero_for_perfectly_matched_bins():
    pairs = [(f"q{i}", 0.25, 1 if i % 4 == 0 else 0) for i in range(8)]
    pairs += [(f"r{i}", 0.75, 1 if i % 4 != 0 else 0) for i in range(8)]
    report = calibration_index(scored_set(pairs), k=2)
    assert report.index == pytest.approx(0.0, abs=1e-15)


def test_calibration_tie_break_is_deterministic():
    pairs = [(f"q{i}", 0.5, i % 2) for i in range(10)]
    a = calibration_index(scored_set(pairs), k=3)
    b = calibration_index(scored_set(list(reversed(pairs))), k=3)
    assert a == b


def test_metrics_agree_with_oracles_on_random_sets():
    rng = random.Random(42)
    for _ in range(200):
        n = rng.randint(1, 120)
        pairs = [(f"q{i}", rng.random(), rng.randint(0, 1)) for i in range(n)]
        s = scored_set(pairs)
        flat = [(f, o) for _, f, o in pairs]
        assert abs(brier(s) - oracle_brier(flat)) < 1e-12
        assert abs(accuracy(s) - oracle_accuracy(flat)) < 1e-12
        k = rng.randint(1, max(1, min(10, n)))
        assert abs(calibration_index(s, k=k).index - oracle_calibration(pairs, k)) < 1e-12


def random_values(rng, n):
    """n probabilities: mostly uniform, some on a few shared values (ties, the
    0.5 edge, both zeros), so sum order and tie-breaks both show."""
    pool = (0.0, -0.0, 0.5, 1.0, 0.1, 1e-9)
    return [rng.choice(pool) if rng.random() < 0.2 else rng.random() for _ in range(n)]


def test_pairwise_sum_matches_numpy_reduce():
    rng = random.Random(17)
    for n in [*range(1, 301), 4999]:
        # wide magnitudes and both signs, so any change of order changes bits
        values = [rng.uniform(-1, 1) * 10 ** rng.randint(-6, 6) for _ in range(n)]
        assert _pairwise_sum(values, 0, n) == float(np.add.reduce(np.array(values)))
        lo, hi = sorted(rng.sample(range(n + 1), 2)) if n > 1 else (0, 1)
        assert _pairwise_sum(values, lo, hi) == float(np.add.reduce(np.array(values[lo:hi])))


@pytest.mark.parametrize("k", [1, 2, 7, 10])
def test_metrics_match_the_numpy_formulas_bit_for_bit(k):
    rng = random.Random(f"bits:{k}")
    for n in [*range(k, 301), 4999]:
        ids = [f"q{i:04d}" for i in range(n)]
        forecasts = random_values(rng, n)
        outcomes = [rng.randint(0, 1) for _ in range(n)]
        s = ScoredSet("test", ids, forecasts, outcomes)
        assert brier(s) == numpy_brier(forecasts, outcomes)
        assert accuracy(s) == numpy_accuracy(forecasts, outcomes)
        bins, index = numpy_calibration(list(zip(ids, forecasts, outcomes)), k)
        report = calibration_index(s, k=k)
        assert [(b.count, b.mean_forecast, b.observed_freq) for b in report.bins] == bins
        assert report.index == index


def test_ensemble_std_matches_numpy_bit_for_bit():
    # 1 to 20 members crosses the 8-value pairwise boundary; 4999 ensembles
    # cross the 128-value block of the outer mean
    rng = random.Random(23)
    for size in range(1, 21):
        lists = [random_values(rng, size) for _ in range(rng.randint(1, 300))]
        assert ensemble_std(lists) == numpy_ensemble_std(lists)
        # one ensemble alone, where a last-bit slip cannot round away in the mean
        assert [ensemble_std([values]) for values in lists] == [numpy_ensemble_std([values]) for values in lists]
    lists = [random_values(rng, rng.randint(1, 20)) for _ in range(4999)]
    assert ensemble_std(lists) == numpy_ensemble_std(lists)


def test_empty_set_and_too_few_forecasts_raise():
    with pytest.raises(EmptySet):
        brier(ScoredSet("empty", (), (), ()))
    with pytest.raises(TooFewForecasts):
        calibration_index(scored_set(HAND_PAIRS), k=6)
    with pytest.raises(MetricError, match="bin count"):
        calibration_index(scored_set(HAND_PAIRS), k=0)


def test_duplicate_question_ids_rejected():
    with pytest.raises(MetricError, match="duplicate"):
        scored_set([("a", 0.2, 0), ("a", 0.3, 1)])


# --- aggregation ---------------------------------------------------------


def test_aggregate_mean_median():
    values = [Forecast(0.2), Forecast(0.5), Forecast(0.9)]
    assert aggregate(values, "mean").value == pytest.approx(1.6 / 3)
    assert aggregate(values, "median").value == 0.5
    assert aggregate([Forecast(0.2), Forecast(0.6)], "median").value == pytest.approx(0.4)


def test_aggregate_mean_stays_inside_member_envelope():
    agg = aggregate([Forecast(0.1), Forecast(0.1), Forecast(0.1)], "mean")
    assert agg.value <= 0.1


def test_aggregate_sampled_is_seed_deterministic():
    values = [Forecast(v) for v in (0.1, 0.3, 0.5, 0.7, 0.9)]
    picks = {aggregate(values, "sampled", seed="0:q1").value for _ in range(10)}
    assert len(picks) == 1
    other = aggregate(values, "sampled", seed="0:q2")
    assert other.value in (0.1, 0.3, 0.5, 0.7, 0.9)


def test_aggregate_errors():
    with pytest.raises(EmptyMembers):
        aggregate([], "mean")
    with pytest.raises(MetricError, match="seed"):
        aggregate([Forecast(0.5)], "sampled")
    with pytest.raises(MetricError, match="unknown aggregator"):
        aggregate([Forecast(0.5)], "mode")


def make_record(qid, values, aggregator="median"):
    agg = aggregate([Forecast(v) for v in values], aggregator, seed=f"0:{qid}")
    members = [{"member_index": i, "forecast": v} for i, v in enumerate(values)]
    return {"question_id": qid, "aggregator": aggregator, "members": members, "aggregate": agg.value}


def make_declined_record(qid, values, declined_at=0):
    members = [{"member_index": i, "forecast": v} for i, v in enumerate(values)]
    members[declined_at] = {"member_index": declined_at, "declined": True, "reason": "test"}
    return {"question_id": qid, "aggregator": "median", "members": members}


def completed_values(rows):
    """The member lists `score` measures: completed records only."""
    return [row.values for row in rows if not row.declined]


def test_ensemble_std_matches_oracle():
    # ragged ensembles: every run mixes 1-member and 10-or-more-member records
    for sizes in [(2, 6), (1, 1), (1, 12), (9, 9), (3, 200)]:
        rng = random.Random(f"7:{sizes}")
        lists = [[rng.random() for _ in range(rng.randint(*sizes))] for _ in range(50)]
        lists[0], lists[-1] = lists[0][:1], lists[-1] + [rng.random() for _ in range(9)]
        records = [make_record(f"q{i}", values) for i, values in enumerate(lists)]
        # declined records in between must not shift the other records' segments
        records[10:10] = [make_declined_record("d1", [0.1] * 9), make_declined_record("d2", [0.7])]
        member_lists = completed_values(check_record(r) for r in records)
        assert member_lists == lists
        assert abs(ensemble_std(member_lists) - oracle_ensemble_std(lists)) < 1e-12
        assert ensemble_std(member_lists) == numpy_ensemble_std(lists) == ensemble_std(iter(lists))


def test_ensemble_std_skips_declined_records(tmp_path):
    # a declined row keeps its completed members' values, so they reach the
    # spread only if the caller forgets to skip the row
    path = tmp_path / "agent.jsonl"
    lines = [make_record("q1", [0.2, 0.4, 0.6]), make_declined_record("q2", [0.9, 0.1, 0.9])]
    write_records(path, [record_line(line) for line in lines])
    rows = read_records(path)
    assert rows[1].values == [0.1, 0.9]
    assert ensemble_std(completed_values(rows)) == pytest.approx(oracle_ensemble_std([[0.2, 0.4, 0.6]]))
    with pytest.raises(EmptySet):
        ensemble_std(completed_values([check_record(make_declined_record("q1", [0.5, 0.5]))]))
    with pytest.raises(EmptySet):
        ensemble_std([])
    with pytest.raises(EmptyMembers):
        ensemble_std([[0.2, 0.4], []])


@pytest.mark.parametrize(
    "ids, forecasts, outcomes, message",
    [
        (("a", "b"), (0.2,), (0, 1), "ragged scored set for 'test': 2 question ids, 1 forecasts, 2 outcomes"),
        (("a",), (0.2,), (0, 1), "ragged scored set for 'test': 1 question ids, 1 forecasts, 2 outcomes"),
        (("a", "b", "c"), (0.2, float("nan"), 2.0), (0, 1, 1), "forecast out of range for b: nan"),
        (("a", "b"), (0.2, -0.1), (0, 1), "forecast out of range for b: -0.1"),
        (("a", "b"), (0.2, 1.5), (0, 1), "forecast out of range for b: 1.5"),
        (("a", "b", "c"), (0.2, 0.3, 0.4), (0, 2, -1), "outcome must be 0 or 1 for b: 2"),
        (("a", "b"), (0.2, 0.3), (0, 0.5), "outcome must be 0 or 1 for b: 0.5"),
        (("a", "b", "a", "c", "b"), (0.1,) * 5, (0,) * 5, "duplicate question ids in scored set: ['a', 'b']"),
    ],
)
def test_scored_set_rejects_a_malformed_column(ids, forecasts, outcomes, message):
    with pytest.raises(MetricError) as raised:
        ScoredSet("test", ids, forecasts, outcomes)
    assert str(raised.value) == message


# --- drop rule -----------------------------------------------------------


def test_drop_rule_drops_across_all_methods():
    methods = {
        "m1": {"q1": Forecast(0.2), "q2": Declined("x"), "q3": Forecast(0.9)},
        "m2": {"q1": Forecast(0.4), "q2": Forecast(0.5), "q3": Forecast(0.8)},
    }
    outcomes = {"q1": 0, "q2": 1, "q3": 1}
    scored, dropped = apply_drop_rule(methods, outcomes)
    assert dropped == {"q2"}
    assert list(scored["m1"].question_ids) == ["q1", "q3"]
    assert list(scored["m2"].question_ids) == ["q1", "q3"]


def test_drop_rule_matches_set_algebra_oracle():
    rng = random.Random(99)
    universe = {f"q{i:03d}" for i in range(100)}
    methods = {}
    declined_by_method = {}
    for label in ("m1", "m2", "m3"):
        declined = {qid for qid in universe if rng.random() < 0.15}
        declined_by_method[label] = declined
        methods[label] = {
            qid: (Declined("r") if qid in declined else Forecast(rng.random())) for qid in universe
        }
    outcomes = {qid: rng.randint(0, 1) for qid in universe}
    scored, dropped = apply_drop_rule(methods, outcomes)
    survivors_expected, dropped_expected = oracle_drop_rule(declined_by_method, universe)
    assert dropped == dropped_expected
    for sset in scored.values():
        assert set(sset.question_ids) == survivors_expected


def test_drop_rule_rejects_mismatched_universes():
    methods = {
        "m1": {"q1": Forecast(0.2)},
        "m2": {"q1": Forecast(0.4), "q2": Forecast(0.5)},
    }
    with pytest.raises(UniverseMismatch):
        apply_drop_rule(methods, {"q1": 0, "q2": 1})


def test_drop_rule_requires_outcomes_for_survivors():
    methods = {"m1": {"q1": Forecast(0.2)}}
    with pytest.raises(MetricError, match="q1"):
        apply_drop_rule(methods, {})


# --- tables ----------------------------------------------------------------


def test_score_table_renders_and_parses_back():
    rows = [
        ScoreRow("crowd", 0.172, 0.738, None),
        ScoreRow("median_of_3", 0.1687, 0.7241, 0.0923),
    ]
    text = render_score_table(rows)
    lines = text.splitlines()
    assert lines[0].split() == ["Method", "Brier", "Acc", "%", "Std"]
    parsed = parse_table(text)
    assert parsed[0] == {"Method": "crowd", "Brier": "0.172", "Acc %": "73.8", "Std": ""}
    assert parsed[1] == {"Method": "median_of_3", "Brier": "0.169", "Acc %": "72.4", "Std": "0.092"}


def test_calibration_table_renders_three_decimals():
    report = calibration_index(scored_set(HAND_PAIRS), k=2)
    text = render_calibration_table([report])
    parsed = parse_table(text)
    assert list(parsed[0]) == ["Method", "Calibration Index"]
    assert parsed[0]["Calibration Index"] == f"{report.index:.3f}"
