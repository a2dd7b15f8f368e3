"""Forecasting agents over binary prediction-market questions.

Hierarchical ReAct agents with date-restricted search and sandboxed code
execution, a record/replay chat backend for deterministic offline runs, and a
scoring harness (Brier, accuracy, quantile-binned calibration) with a
cross-method decline rule.
"""

from .models import (
    AgentStep,
    Category,
    Declined,
    FinalState,
    Forecast,
    ForecastRecord,
    MemberForecast,
    Question,
    Transcript,
    ValidationError,
    read_questions,
    read_records,
    write_questions,
    write_records,
)
from .llm import (
    Backend,
    BackendError,
    CassetteMiss,
    ChatRequest,
    ChatResponse,
    Message,
    ReplayBackend,
    RecordingBackend,
    ScriptedBackend,
    fingerprint,
    leakage_probe,
)
from .metrics import (
    ScoredPair,
    ScoredSet,
    accuracy,
    aggregate,
    apply_drop_rule,
    brier,
    calibration_index,
    ensemble_std,
)
from .react import ReactConfig, extract_probability, parse_emission, run_react
from .hierarchy import default_planner, forecast_one, single_agent_config
from .tools import Sandbox, SearchResult, ToolRegistry, ToolSpec, execute_code

__version__ = "0.1.0"
