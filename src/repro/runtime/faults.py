"""Deterministic fault injection for testing the fault-tolerant runtime.

Production code calls two cheap hooks at well-known *sites*:

* :func:`crash_point` — may raise :class:`SimulatedCrash` (models the
  process dying at that point);
* :func:`corrupt` — may replace a float with NaN (models numerical
  blow-up).

Both are no-ops unless a :class:`FaultPlan` has been installed with
:func:`inject`, so the hooks cost one global lookup on the happy path.
A plan triggers by *site name* and *call count*, which makes "kill the
run right after layer 2 completes" or "poison the loss on the fifth
REINFORCE iteration" deterministic and repeatable.  A third action,
``stall``, advances the :mod:`repro.runtime.watchdog` virtual clock by
``seconds`` — simulating a hung step without sleeping, so budget
timeouts are testable offline.

Every hook visit also ticks the armed step watchdog, which is how
:class:`~repro.runtime.watchdog.StepBudget` deadlines are enforced
cooperatively at these same sites.

Sites currently wired in:

==========================  ====================================================
``runtime.layer_complete``  harness, after journaling step ``k``
``reinforce.loss``          REINFORCE loss value, once per iteration
``reinforce.reward``        greedy-action reward, once per iteration
``training.loss``           fine-tune minibatch loss, once per step
``metric.select``           metric engine, before each unit's selection
==========================  ====================================================

Any action can be planted at any wired site: ``crash`` and ``stall``
fire from both hooks, ``nan`` only matters at ``corrupt`` sites (a
``crash_point`` has no value to poison).
"""

from __future__ import annotations

import math
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

from . import watchdog

__all__ = ["SimulatedCrash", "FaultSpec", "FaultPlan", "inject",
           "crash_point", "corrupt", "active_plan"]


class SimulatedCrash(RuntimeError):
    """Injected stand-in for the process dying (power loss, OOM kill...).

    Deliberately *not* a :class:`~repro.runtime.errors.DivergenceError`:
    the retry machinery must not catch it — it exists to test that a run
    killed mid-flight can be resumed from its journal.
    """

    def __init__(self, site: str, count: int):
        self.site = site
        self.count = count
        super().__init__(f"simulated crash at {site!r} (call #{count})")


@dataclass(frozen=True)
class FaultSpec:
    """One injection rule: at which calls of a site, do what.

    ``at`` is the set of 1-based call counts that trigger; an empty set
    means "every call".  ``action`` is ``"crash"``, ``"nan"`` or
    ``"stall"`` (advances the step watchdog's virtual clock by
    ``seconds``).
    """

    site: str
    action: str = "crash"
    at: frozenset[int] = frozenset()
    seconds: float = 0.0

    def __post_init__(self):
        if self.action not in ("crash", "nan", "stall"):
            raise ValueError("action must be 'crash', 'nan' or 'stall'")
        if self.action == "stall" and self.seconds <= 0:
            raise ValueError("a stall spec needs positive seconds")

    def triggers(self, count: int) -> bool:
        return not self.at or count in self.at


@dataclass
class FaultPlan:
    """A set of :class:`FaultSpec` rules plus per-site call counters."""

    specs: list[FaultSpec] = field(default_factory=list)
    _counts: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    fired: list[tuple[str, int, str]] = field(default_factory=list)

    def crash_at(self, site: str, *counts: int) -> "FaultPlan":
        self.specs.append(FaultSpec(site, "crash", frozenset(counts)))
        return self

    def nan_at(self, site: str, *counts: int) -> "FaultPlan":
        self.specs.append(FaultSpec(site, "nan", frozenset(counts)))
        return self

    def stall_at(self, site: str, *counts: int,
                 seconds: float = 3600.0) -> "FaultPlan":
        """Simulate the site hanging for ``seconds`` at the given calls.

        The stall advances the armed watchdog's virtual clock, so a
        :class:`~repro.runtime.watchdog.StepBudget` with
        ``max_seconds < seconds`` raises at this very site — no real
        time passes.
        """
        self.specs.append(FaultSpec(site, "stall", frozenset(counts),
                                    seconds=seconds))
        return self

    def _visit(self, site: str, value: float | None = None) -> float | None:
        """Advance the site counter once and apply every matching spec.

        Stalls are applied before crash/nan so a delayed call registers
        its time even when it also dies.
        """
        self._counts[site] += 1
        count = self._counts[site]
        matched = [spec for spec in self.specs
                   if spec.site == site and spec.triggers(count)]
        matched.sort(key=lambda spec: spec.action != "stall")
        for spec in matched:
            self.fired.append((site, count, spec.action))
            if spec.action == "stall":
                watchdog.advance(spec.seconds)
            elif spec.action == "crash":
                raise SimulatedCrash(site, count)
            elif spec.action == "nan":
                value = math.nan
        return value

    def visit_crash(self, site: str) -> None:
        self._visit(site)

    def visit_corrupt(self, site: str, value: float) -> float:
        return self._visit(site, value)


_ACTIVE: FaultPlan | None = None


def active_plan() -> FaultPlan | None:
    """The currently installed plan, if any (mostly for tests)."""
    return _ACTIVE


@contextmanager
def inject(plan: FaultPlan):
    """Install ``plan`` for the duration of the with-block."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = plan
    try:
        yield plan
    finally:
        _ACTIVE = previous


def crash_point(site: str) -> None:
    """Fault hook: apply the active plan, then tick the step watchdog."""
    if _ACTIVE is not None:
        _ACTIVE.visit_crash(site)
    watchdog.tick(site)


def corrupt(site: str, value: float) -> float:
    """Return ``value`` (possibly poisoned), ticking the step watchdog."""
    if _ACTIVE is not None:
        value = _ACTIVE.visit_corrupt(site, value)
    watchdog.tick(site)
    return value
