"""Forecasting agents over binary prediction-market questions.

Hierarchical ReAct agents with date-restricted search and sandboxed code
execution, a record/replay chat backend for deterministic offline runs, and a
scoring harness (Brier, accuracy, quantile-binned calibration) with a
cross-method decline rule.
"""

__version__ = "0.1.0"
