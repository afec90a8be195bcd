"""``repro.runtime`` — fault-tolerant pruning runtime.

Journaled, resumable stepped-engine runs (:mod:`~repro.runtime.harness`),
structured divergence errors (:mod:`~repro.runtime.errors`), guard
helpers (:mod:`~repro.runtime.guards`), rollback/retry policy
(:mod:`~repro.runtime.retry`), post-surgery structural validation
(:mod:`~repro.runtime.validate`) and deterministic fault injection for
tests (:mod:`~repro.runtime.faults`).

The harness and validate submodules are loaded lazily:
low-level training code (``repro.core.reinforce``, ``repro.training``)
imports the error and fault-hook modules from this package, and an eager
import of anything that reaches back into ``repro.pruning`` /
``repro.core`` would cycle mid-initialisation.
"""

from __future__ import annotations

from . import faults
from .errors import (AccuracyCollapseError, DivergenceError, JournalError,
                     JournalWriteError, ResumeMismatchError)
from .faults import FaultPlan, FaultSpec, SimulatedCrash, inject
from .guards import (check_accuracy_collapse, require_all_finite,
                     require_finite)
from .journal import (FORMAT_VERSION, RunJournal, config_digest,
                      run_overview)
from .retry import RetryPolicy

__all__ = [
    "DivergenceError", "AccuracyCollapseError", "ResumeMismatchError",
    "JournalError", "JournalWriteError",
    "FaultPlan", "FaultSpec", "SimulatedCrash", "inject", "faults",
    "require_finite", "require_all_finite", "check_accuracy_collapse",
    "RunJournal", "config_digest", "FORMAT_VERSION", "run_overview",
    "RetryPolicy",
    "ResumableRunner", "RunReport", "resume",
    "SurgeryInvariantError", "mask_problems", "model_problems",
    "check_masks", "check_model",
]

_HARNESS_EXPORTS = ("ResumableRunner", "RunReport", "resume")
_VALIDATE_EXPORTS = ("SurgeryInvariantError", "mask_problems",
                     "model_problems", "check_masks", "check_model")


def __getattr__(name: str):
    if name in _HARNESS_EXPORTS:
        from . import harness
        return getattr(harness, name)
    if name in _VALIDATE_EXPORTS:
        from . import validate
        return getattr(validate, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(__all__)
