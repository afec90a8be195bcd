"""Structured failure types raised by the fault-tolerant runtime.

Every error carries enough context (stage, layer, iteration, offending
value) for the harness to journal the failure and decide between
rollback-and-retry and skip-and-continue, and for a human reading the
journal to reconstruct what went wrong without a debugger.
"""

from __future__ import annotations

__all__ = ["DivergenceError", "AccuracyCollapseError", "ResumeMismatchError",
           "JournalError", "JournalWriteError"]


class DivergenceError(RuntimeError):
    """A training signal (loss, reward, gradient, policy output) left the
    finite range, or accuracy collapsed past the configured floor.

    Parameters
    ----------
    stage:
        Where the divergence was detected, e.g. ``"reinforce.loss"``,
        ``"reinforce.reward"``, ``"training.loss"``, ``"surgery.accuracy"``.
    value:
        The offending value (NaN/Inf, or the collapsed accuracy).
    layer / iteration:
        Optional position within the whole-model run.
    """

    def __init__(self, stage: str, value: float | None = None,
                 layer: str | None = None, iteration: int | None = None,
                 detail: str = ""):
        self.stage = stage
        self.value = value
        self.layer = layer
        self.iteration = iteration
        self.detail = detail
        where = f" at layer {layer!r}" if layer else ""
        when = f" (iteration {iteration})" if iteration is not None else ""
        what = f": {detail}" if detail else f": value {value!r}"
        super().__init__(f"divergence in {stage}{where}{when}{what}")

    def as_record(self) -> dict:
        """JSON-serialisable summary for the run journal."""
        return {"stage": self.stage,
                "value": None if self.value is None else repr(self.value),
                "layer": self.layer, "iteration": self.iteration,
                "detail": self.detail, "kind": type(self).__name__}


class AccuracyCollapseError(DivergenceError):
    """Post-surgery accuracy fell below the collapse floor.

    Raised by the harness's guard after surgery + fine-tuning when
    ``after < collapse_ratio * before``; triggers rollback and retry.
    """

    def __init__(self, before: float, after: float, ratio: float,
                 layer: str | None = None):
        self.before = before
        self.after = after
        self.ratio = ratio
        super().__init__("surgery.accuracy", value=after, layer=layer,
                         detail=(f"accuracy collapsed {before:.4f} -> "
                                 f"{after:.4f} (floor {ratio:.2f}x)"))


class ResumeMismatchError(RuntimeError):
    """``resume(run_dir)`` was given inputs that do not match the journal.

    Resuming with a different config, model architecture, or layer list
    would silently produce a run that is *not* a continuation of the
    interrupted one, so the mismatch is a hard error.
    """


class JournalError(RuntimeError):
    """The run journal is missing, empty, or structurally invalid."""


class JournalWriteError(DivergenceError):
    """A journal append could not be made durable (disk full, I/O error).

    Raised by :meth:`repro.runtime.journal.RunJournal.append` when the
    write, flush or fsync fails or lands short.  The failed append is
    rolled back (the file is truncated to its pre-write length) before
    raising, so the journal never keeps a torn tail for the next reader
    to repair.  A ``DivergenceError`` subclass so callers that classify
    journalable failures treat an undurable journal like any other
    structured runtime fault.
    """

    def __init__(self, path, detail: str):
        self.path = str(path)
        super().__init__("journal.append", detail=f"{path}: {detail}")

