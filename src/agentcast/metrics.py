"""Forecast scoring: Brier score, accuracy, quantile-binned calibration,
ensemble aggregation, the cross-method drop rule, and report tables.

Scores are computed only over questions every method answered; any decline
anywhere removes the question from all methods so that the score sets stay
comparable.
"""

from __future__ import annotations

import math
import random
import re
import statistics
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from operator import add, sub
from typing import Iterable, Sequence

from .models import Declined, Forecast


class MetricError(ValueError):
    """Base class for scoring failures."""


class EmptySet(MetricError):
    pass


class TooFewForecasts(MetricError):
    pass


class EmptyMembers(MetricError):
    pass


class UniverseMismatch(MetricError):
    pass


@dataclass(frozen=True)
class ScoredSet:
    """All scorable questions of one method, as aligned columns: the question
    with id question_ids[i] got forecast forecasts[i] and resolved to
    outcomes[i]. Question ids must be unique."""

    method_label: str
    question_ids: tuple[str, ...]
    forecasts: tuple[float, ...]
    outcomes: tuple[int, ...]

    def __post_init__(self):
        for name in ("question_ids", "forecasts", "outcomes"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        n = len(self.question_ids)
        if len(self.forecasts) != n or len(self.outcomes) != n:
            raise MetricError(
                f"ragged scored set for {self.method_label!r}: {n} question ids, "
                f"{len(self.forecasts)} forecasts, {len(self.outcomes)} outcomes"
            )
        for qid, forecast, outcome in zip(self.question_ids, self.forecasts, self.outcomes):
            if not 0.0 <= forecast <= 1.0:  # also false for NaN
                raise MetricError(f"forecast out of range for {qid}: {forecast!r}")
            if outcome not in (0, 1):
                raise MetricError(f"outcome must be 0 or 1 for {qid}: {outcome!r}")
        counts = Counter(self.question_ids)
        if len(counts) != n:
            dupes = sorted(qid for qid, count in counts.items() if count > 1)
            raise MetricError(f"duplicate question ids in scored set: {dupes}")

    def __len__(self) -> int:
        return len(self.question_ids)


def _pairwise_sum(values: Sequence[float], lo: int, hi: int) -> float:
    """Sum values[lo:hi] in numpy's pairwise order, so the scores match the
    numpy formulas they replaced bit for bit: under 8 values add in order from
    0.0; up to 128 go into 8 interleaved accumulators combined as a tree, then
    the remainder in order; longer runs split in two at half the length
    rounded down to a multiple of 8. `np.add.reduce` over a slice is this sum.
    """
    n = hi - lo
    if n < 8:
        total = 0.0
        for i in range(lo, hi):
            total += values[i]
        return total
    if n <= 128:
        tail = hi - n % 8
        r = [reduce(add, values[lo + j : tail : 8]) for j in range(8)]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for i in range(tail, hi):
            total += values[i]
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values, lo, lo + half) + _pairwise_sum(values, lo + half, hi)


def _require_pairs(scored: ScoredSet) -> int:
    if not scored.question_ids:
        raise EmptySet(f"no scorable pairs for method {scored.method_label!r}")
    return len(scored)


def brier(scored: ScoredSet) -> float:
    """Mean squared error between forecasts and binary outcomes. Lower is better."""
    n = _require_pairs(scored)
    squares = [d * d for d in map(sub, scored.forecasts, scored.outcomes)]
    return _pairwise_sum(squares, 0, n) / n


def accuracy(scored: ScoredSet) -> float:
    """Fraction of questions where the forecast lands on the right side of 0.5.

    A forecast of exactly 0.5 counts as predicting NO.
    """
    n = _require_pairs(scored)
    return sum((f > 0.5) == (o == 1) for f, o in zip(scored.forecasts, scored.outcomes)) / n


@dataclass(frozen=True)
class CalibrationBin:
    count: int
    mean_forecast: float
    observed_freq: float


@dataclass(frozen=True)
class CalibrationReport:
    method_label: str
    k: int
    bins: tuple[CalibrationBin, ...]
    index: float


def calibration_index(scored: ScoredSet, k: int = 10) -> CalibrationReport:
    """Quantile-binned calibration: sort by forecast, split ranks into k
    near-equal bins, and average the squared gap between each bin's mean
    forecast and its observed outcome frequency, weighted by bin size.

    Zero means perfectly calibrated. Requires at least k pairs. Ties in the
    forecast value are broken by question id so the binning is deterministic.
    """
    if k < 1:
        raise MetricError(f"bin count must be positive, got {k}")
    n = _require_pairs(scored)
    if n < k:
        raise TooFewForecasts(f"{n} forecasts cannot fill {k} bins")
    # ids are unique, so the outcome never decides the order
    ordered = sorted(zip(scored.forecasts, scored.question_ids, scored.outcomes))
    f = [forecast for forecast, _, _ in ordered]
    o = [outcome for _, _, outcome in ordered]
    bins = []
    terms = []
    for j in range(k):
        # each bin sums onto its first value, in `np.add.reduceat` order
        start, end = (j * n) // k, ((j + 1) * n) // k
        count = end - start
        mean_f = (f[start] + _pairwise_sum(f, start + 1, end)) / count
        mean_o = (o[start] + _pairwise_sum(o, start + 1, end)) / count
        bins.append(CalibrationBin(count=count, mean_forecast=mean_f, observed_freq=mean_o))
        terms.append(count * ((mean_f - mean_o) * (mean_f - mean_o)))
    index = _pairwise_sum(terms, 0, k) / n
    return CalibrationReport(method_label=scored.method_label, k=k, bins=tuple(bins), index=index)


# --- ensemble aggregation -----------------------------------------------


def aggregate(members: list[Forecast], mode: str, seed: str | int | None = None) -> Forecast:
    """Combine ensemble member probabilities into one forecast.

    mode "mean" averages, "median" takes the middle value, "sampled" picks one
    member uniformly using the given seed (required, so runs replay exactly).
    """
    values = [m.value for m in members]
    if not values:
        raise EmptyMembers("cannot aggregate an empty ensemble")
    if mode == "mean":
        v = sum(values) / len(values)
        # float rounding can push the mean a hair past the member envelope
        return Forecast(min(max(v, min(values)), max(values)))
    if mode == "median":
        return Forecast(statistics.median(values))
    if mode == "sampled":
        if seed is None:
            raise MetricError("sampled aggregation requires a seed")
        rng = random.Random(seed)
        return Forecast(values[rng.randrange(len(values))])
    raise MetricError(f"unknown aggregator {mode!r}")


def ensemble_std(member_values: Iterable[list[float]]) -> float:
    """Mean over ensembles of the population standard deviation of each
    ensemble's member probabilities. Every list must be non-empty.

    Sums run in `_pairwise_sum` order, as `np.std` and `np.mean` add. Ensembles
    under 8 members, the usual case, are summed inline: that order is plain
    left to right, and a helper call per ensemble would cost more than the sum.
    """
    stds = []
    for ensemble in member_values:
        count = len(ensemble)
        if not count:
            raise EmptyMembers("cannot measure the spread of an empty ensemble")
        if count < 8:
            total = 0.0
            for value in ensemble:
                total += value
            mean = total / count
            total = 0.0
            for value in ensemble:
                deviation = value - mean
                total += deviation * deviation
        else:
            mean = _pairwise_sum(ensemble, 0, count) / count
            total = _pairwise_sum([(value - mean) * (value - mean) for value in ensemble], 0, count)
        stds.append(math.sqrt(total / count))
    if not stds:
        raise EmptySet("no completed ensembles to measure spread over")
    return _pairwise_sum(stds, 0, len(stds)) / len(stds)


# --- cross-method drop rule ---------------------------------------------


def apply_drop_rule(
    method_forecasts: dict[str, dict[str, Forecast | Declined]],
    outcomes: dict[str, int],
) -> tuple[dict[str, ScoredSet], set[str]]:
    """Build comparable scored sets: a question declined by any method is
    dropped from every method.

    All methods must cover the same question universe, and every surviving
    question needs a resolved outcome. Returns the per-method scored sets plus
    the set of dropped question ids.
    """
    if not method_forecasts:
        raise MetricError("no methods to score")
    universes = {label: frozenset(fmap) for label, fmap in method_forecasts.items()}
    reference = next(iter(universes.values()))
    for label, universe in universes.items():
        if universe != reference:
            extra = sorted(universe ^ reference)
            raise UniverseMismatch(f"method {label!r} covers a different question set (differs on {extra[:5]})")
    dropped = {
        qid
        for fmap in method_forecasts.values()
        for qid, forecast in fmap.items()
        if isinstance(forecast, Declined)
    }
    survivors = tuple(sorted(reference - dropped))
    for qid in survivors:
        if qid not in outcomes:
            raise MetricError(f"no resolved outcome for question {qid!r}")
    outcome_column = tuple(outcomes[qid] for qid in survivors)
    scored = {
        label: ScoredSet(label, survivors, tuple(fmap[qid].value for qid in survivors), outcome_column)
        for label, fmap in method_forecasts.items()
    }
    return scored, dropped


# --- report tables ------------------------------------------------------


@dataclass(frozen=True)
class ScoreRow:
    method_label: str
    brier: float
    accuracy: float
    std: float | None = None


def render_score_table(rows: list[ScoreRow]) -> str:
    """Text table of headline scores: Brier to 3 decimals, accuracy as a
    percentage to 1 decimal, ensemble spread to 3 decimals (blank when the
    method has no ensemble, e.g. the crowd)."""
    header = ("Method", "Brier", "Acc %", "Std")
    body = [
        (
            row.method_label,
            f"{row.brier:.3f}",
            f"{row.accuracy * 100:.1f}",
            "" if row.std is None else f"{row.std:.3f}",
        )
        for row in rows
    ]
    return render_columns(header, body)


def render_calibration_table(reports: list[CalibrationReport]) -> str:
    """Text table of calibration indices, 3 decimals."""
    header = ("Method", "Calibration Index")
    body = [(r.method_label, f"{r.index:.3f}") for r in reports]
    return render_columns(header, body)


def render_columns(header: tuple[str, ...], body: list[tuple[str, ...]]) -> str:
    widths = [len(h) for h in header]
    for row in body:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    for row in [header] + body:
        cells = [cell.ljust(widths[i]) for i, cell in enumerate(row)]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines) + "\n"


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
