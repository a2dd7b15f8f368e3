"""Independent references for the scoring math, sharing no code with the package.

The oracles are plain Python loops over (forecast, outcome) tuples, with
math.fsum for exact summation; the acceptance tests require the package's
scores to agree with them to within 1e-12. The numpy references are the
formulas the package computed its scores with before it dropped numpy; the
metric tests require the package to agree with them bit for bit.
"""

from __future__ import annotations

import math

import numpy as np


def oracle_brier(pairs: list[tuple[float, int]]) -> float:
    total = math.fsum((f - o) ** 2 for f, o in pairs)
    return total / len(pairs)


def oracle_accuracy(pairs: list[tuple[float, int]]) -> float:
    hits = 0
    for f, o in pairs:
        predicted = 1 if f > 0.5 else 0
        if predicted == o:
            hits += 1
    return hits / len(pairs)


def oracle_calibration(pairs: list[tuple[str, float, int]], k: int) -> float:
    """pairs are (question_id, forecast, outcome); sort by forecast with the
    id as tie-break, split ranks into k floor-boundary bins, sum directly."""
    ordered = sorted(pairs, key=lambda p: (p[1], p[0]))
    n = len(ordered)
    total = 0.0
    pieces = []
    for j in range(k):
        start = (j * n) // k
        end = ((j + 1) * n) // k
        members = ordered[start:end]
        count = len(members)
        if count == 0:
            continue
        mean_f = math.fsum(p[1] for p in members) / count
        mean_o = math.fsum(p[2] for p in members) / count
        pieces.append(count * (mean_f - mean_o) ** 2)
    return math.fsum(pieces) / n


def oracle_population_std(values: list[float]) -> float:
    mean = math.fsum(values) / len(values)
    variance = math.fsum((v - mean) ** 2 for v in values) / len(values)
    return math.sqrt(variance)


def oracle_ensemble_std(member_lists: list[list[float]]) -> float:
    stds = [oracle_population_std(values) for values in member_lists]
    return math.fsum(stds) / len(stds)


def oracle_drop_rule(
    declined_by_method: dict[str, set[str]], universe: set[str]
) -> tuple[set[str], set[str]]:
    """Returns (survivors, dropped) by plain set algebra."""
    dropped = set()
    for declined in declined_by_method.values():
        dropped |= declined
    return universe - dropped, dropped


# --- numpy references ---------------------------------------------------------


def numpy_brier(forecasts: list[float], outcomes: list[int]) -> float:
    f, o = np.array(forecasts, dtype=float), np.array(outcomes, dtype=float)
    return float(np.mean((f - o) ** 2))


def numpy_accuracy(forecasts: list[float], outcomes: list[int]) -> float:
    f, o = np.array(forecasts, dtype=float), np.array(outcomes, dtype=float)
    return float(np.mean((f > 0.5).astype(float) == o))


def numpy_calibration(
    pairs: list[tuple[str, float, int]], k: int
) -> tuple[list[tuple[int, float, float]], float]:
    """pairs are (question_id, forecast, outcome). Returns ([(count,
    mean_forecast, observed_freq) per bin], index)."""
    ordered = sorted((forecast, qid, outcome) for qid, forecast, outcome in pairs)
    n = len(ordered)
    f = np.array([forecast for forecast, _, _ in ordered], dtype=float)
    o = np.array([outcome for _, _, outcome in ordered], dtype=float)
    starts = np.array([(j * n) // k for j in range(k)])
    counts = np.array([((j + 1) * n) // k for j in range(k)]) - starts
    mean_f = np.add.reduceat(f, starts) / counts
    mean_o = np.add.reduceat(o, starts) / counts
    index = float(np.sum(counts * (mean_f - mean_o) ** 2) / n)
    bins = [(int(c), float(mf), float(mo)) for c, mf, mo in zip(counts, mean_f, mean_o)]
    return bins, index


def numpy_ensemble_std(member_lists: list[list[float]]) -> float:
    return float(np.mean([float(np.std(np.array(values, dtype=float))) for values in member_lists]))
