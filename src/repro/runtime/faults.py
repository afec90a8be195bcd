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
REINFORCE iteration" deterministic and repeatable.

Sites currently wired in:

==========================  ====================================================
``runtime.layer_complete``  harness, after journaling step ``k``
``reinforce.loss``          REINFORCE loss value, once per iteration
``reinforce.reward``        greedy-action reward, once per iteration
``training.loss``           fine-tune minibatch loss, once per step
==========================  ====================================================

Either action can be planted at any wired site: ``crash`` fires from
both hooks, ``nan`` only matters at ``corrupt`` sites (a
``crash_point`` has no value to poison).
"""

from __future__ import annotations

import math
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

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
    means "every call".  ``action`` is ``"crash"`` or ``"nan"``.
    """

    site: str
    action: str = "crash"
    at: frozenset[int] = frozenset()

    def __post_init__(self):
        if self.action not in ("crash", "nan"):
            raise ValueError("action must be 'crash' or 'nan'")

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

    def _visit(self, site: str, value: float | None = None) -> float | None:
        """Advance the site counter once and apply every matching spec."""
        self._counts[site] += 1
        count = self._counts[site]
        for spec in self.specs:
            if spec.site != site or not spec.triggers(count):
                continue
            self.fired.append((site, count, spec.action))
            if spec.action == "crash":
                raise SimulatedCrash(site, count)
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
    """Fault hook: apply the active plan, if any."""
    if _ACTIVE is not None:
        _ACTIVE.visit_crash(site)


def corrupt(site: str, value: float) -> float:
    """Return ``value``, poisoned if the active plan says so."""
    if _ACTIVE is not None:
        value = _ACTIVE.visit_corrupt(site, value)
    return value
