"""Forecast scoring: Brier score, accuracy, quantile-binned calibration,
ensemble aggregation, the cross-method drop rule, and report tables.

Scores are computed only over questions every method answered; any decline
anywhere removes the question from all methods so that the score sets stay
comparable.
"""

from __future__ import annotations

import random
import re
import statistics
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from .models import Declined, Forecast

if TYPE_CHECKING:  # imported where used, so only `score` pays for numpy
    import numpy as np


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


def _arrays(scored: ScoredSet) -> tuple[np.ndarray, np.ndarray]:
    if not scored.question_ids:
        raise EmptySet(f"no scorable pairs for method {scored.method_label!r}")
    import numpy as np

    return np.array(scored.forecasts, dtype=float), np.array(scored.outcomes, dtype=float)


def brier(scored: ScoredSet) -> float:
    """Mean squared error between forecasts and binary outcomes. Lower is better."""
    import numpy as np

    f, o = _arrays(scored)
    return float(np.mean((f - o) ** 2))


def accuracy(scored: ScoredSet) -> float:
    """Fraction of questions where the forecast lands on the right side of 0.5.

    A forecast of exactly 0.5 counts as predicting NO.
    """
    import numpy as np

    f, o = _arrays(scored)
    predicted = (f > 0.5).astype(float)
    return float(np.mean(predicted == o))


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
    n = len(scored)
    if n == 0:
        raise EmptySet(f"no scorable pairs for method {scored.method_label!r}")
    if n < k:
        raise TooFewForecasts(f"{n} forecasts cannot fill {k} bins")
    import numpy as np

    # ids are unique, so the outcome never decides the order
    ordered = sorted(zip(scored.forecasts, scored.question_ids, scored.outcomes))
    f = np.array([forecast for forecast, _, _ in ordered], dtype=float)
    o = np.array([outcome for _, _, outcome in ordered], dtype=float)
    starts = np.array([(j * n) // k for j in range(k)])
    ends = np.array([((j + 1) * n) // k for j in range(k)])
    counts = ends - starts
    mean_f = np.add.reduceat(f, starts) / counts
    mean_o = np.add.reduceat(o, starts) / counts
    index = float(np.sum(counts * (mean_f - mean_o) ** 2) / n)
    bins = tuple(
        CalibrationBin(count=int(c), mean_forecast=float(mf), observed_freq=float(mo))
        for c, mf, mo in zip(counts, mean_f, mean_o)
    )
    return CalibrationReport(method_label=scored.method_label, k=k, bins=bins, index=index)


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

    All ensembles are reduced in one pass over a flat value array. Each
    segment opens with a 0.0, so `reduceat` adds its members onto a zero start
    in the same order as `np.std` on that ensemble alone, and the result
    matches the per-ensemble computation bit for bit.
    """
    flat: list[float] = []
    starts: list[int] = []
    counts: list[int] = []
    for ensemble in member_values:
        if not ensemble:
            raise EmptyMembers("cannot measure the spread of an empty ensemble")
        starts.append(len(flat))
        flat.append(0.0)
        flat.extend(ensemble)
        counts.append(len(ensemble))
    if not counts:
        raise EmptySet("no completed ensembles to measure spread over")
    import numpy as np

    values = np.array(flat, dtype=float)
    n = np.array(counts)
    means = np.add.reduceat(values, starts) / n
    deviations = values - np.repeat(means, n + 1)
    squares = deviations * deviations
    squares[starts] = 0.0
    return float(np.mean(np.sqrt(np.add.reduceat(squares, starts) / n)))


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
