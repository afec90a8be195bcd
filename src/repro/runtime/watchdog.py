"""Cooperative per-step watchdog: wall-clock and eval-count budgets.

A hung step is the failure mode journaling alone cannot fix: the run
never reaches the next journal append, so there is nothing to resume.
:class:`StepBudget` bounds how long one step of a stepped engine may
take (wall-clock seconds) and how many reward/loss evaluations it may
burn; the harness arms a :class:`StepWatchdog` around each step and the
budget is checked *cooperatively* at the existing fault-hook sites
(:func:`repro.runtime.faults.crash_point` / ``corrupt``), which every
engine's inner loop already passes through at least once per iteration.

Exceeding a budget raises :class:`BudgetExceededError` — a
:class:`~repro.runtime.errors.DivergenceError` subclass, so the harness
journals it, rolls the model back and retries (or degrades to a fallback
engine) exactly like a NaN loss.

Determinism: tests never sleep.  A ``stall`` spec in a
:class:`~repro.runtime.faults.FaultPlan` calls :func:`advance`, moving
the watchdog's *virtual* clock forward by the stalled seconds, so a
timeout is reproduced offline in microseconds.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

from .errors import DivergenceError

__all__ = ["StepBudget", "BudgetExceededError", "StepWatchdog", "watch",
           "tick", "advance", "active"]


class BudgetExceededError(DivergenceError):
    """A step blew its wall-clock or evaluation budget.

    Journalable like any divergence (stage ``"watchdog.budget"``): the
    harness rolls back and retries, then degrades or skips.
    """

    def __init__(self, step: str, *, site: str | None = None,
                 elapsed: float | None = None, evals: int | None = None,
                 limit: float | int | None = None, what: str = "seconds"):
        self.site = site
        self.elapsed = elapsed
        self.evals = evals
        self.limit = limit
        self.what = what
        used = elapsed if what == "seconds" else evals
        where = f" at {site}" if site else ""
        super().__init__(
            "watchdog.budget", value=used, layer=step,
            detail=f"{used} {what} > budget {limit}{where}")


@dataclass(frozen=True)
class StepBudget:
    """Per-step resource ceiling enforced by the watchdog.

    Attributes
    ----------
    max_seconds:
        Wall-clock ceiling for one step (virtual-clock stalls from fault
        plans count toward it); ``None`` disables the time check.
    max_evals:
        Ceiling on watchdog ticks per step — one tick fires per
        fault-hook visit, i.e. roughly one per reward/loss evaluation;
        ``None`` disables the count check.
    """

    max_seconds: float | None = None
    max_evals: int | None = None

    def __post_init__(self):
        if self.max_seconds is not None and self.max_seconds <= 0:
            raise ValueError("max_seconds must be positive")
        if self.max_evals is not None and self.max_evals < 1:
            raise ValueError("max_evals must be >= 1")


class StepWatchdog:
    """Deadline state for one step: real clock + virtual stall offset."""

    def __init__(self, budget: StepBudget, step: str):
        self.budget = budget
        self.step = step
        self.evals = 0
        self._start = time.monotonic()
        self._stalled = 0.0

    def elapsed(self) -> float:
        """Seconds consumed so far (real time plus injected stalls)."""
        return time.monotonic() - self._start + self._stalled

    def advance(self, seconds: float) -> None:
        """Move the virtual clock forward (deterministic stall injection)."""
        self._stalled += float(seconds)

    def tick(self, site: str | None = None) -> None:
        """One cooperative deadline check; raises when over budget."""
        self.evals += 1
        budget = self.budget
        if budget.max_evals is not None and self.evals > budget.max_evals:
            raise BudgetExceededError(self.step, site=site,
                                      evals=self.evals,
                                      limit=budget.max_evals, what="evals")
        if budget.max_seconds is not None:
            elapsed = self.elapsed()
            if elapsed > budget.max_seconds:
                raise BudgetExceededError(self.step, site=site,
                                          elapsed=round(elapsed, 3),
                                          limit=budget.max_seconds,
                                          what="seconds")


_ACTIVE: StepWatchdog | None = None


def active() -> StepWatchdog | None:
    """The armed watchdog, if any (mostly for tests)."""
    return _ACTIVE


@contextmanager
def watch(budget: StepBudget | None, step: str):
    """Arm a watchdog for one step; ``budget=None`` is a no-op."""
    global _ACTIVE
    if budget is None:
        yield None
        return
    previous = _ACTIVE
    _ACTIVE = StepWatchdog(budget, step)
    try:
        yield _ACTIVE
    finally:
        _ACTIVE = previous


def tick(site: str | None = None) -> None:
    """Module-level hook the fault sites call on every visit."""
    if _ACTIVE is not None:
        _ACTIVE.tick(site)


def advance(seconds: float) -> None:
    """Advance the armed watchdog's virtual clock (stall injection)."""
    if _ACTIVE is not None:
        _ACTIVE.advance(seconds)
