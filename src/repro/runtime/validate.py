"""Post-surgery structural invariant checks for pruned models.

Surgery bugs fail silently: a conv whose batch norm tracks the wrong
width, a consumer expecting channels that no longer exist, or a weight
tensor poisoned with NaN all *look* fine until some later forward pass
(or a later layer's surgery) explodes far from the cause.  The harness
therefore validates the whole model after every ``apply_step``:

* unit wiring is consistent — channel counts agree across each
  producing conv, its batch norm and every downstream consumer
  (:func:`repro.pruning.graph.validate_units`);
* keep masks are boolean-coercible, one-dimensional and keep at least
  one map;
* every parameter and buffer is finite.

A violation raises :class:`SurgeryInvariantError` — a
:class:`~repro.runtime.errors.DivergenceError` subclass, so the harness
journals it and takes the usual rollback/retry/skip path with the
pre-step model restored.
"""

from __future__ import annotations

import numpy as np

from ..pruning.graph import validate_units
from .errors import DivergenceError

__all__ = ["SurgeryInvariantError", "mask_problems", "model_problems",
           "check_model", "check_masks"]


class SurgeryInvariantError(DivergenceError):
    """A pruned model violates a structural invariant after surgery."""

    def __init__(self, problems: list[str], layer: str | None = None):
        self.problems = list(problems)
        summary = "; ".join(self.problems[:3])
        if len(self.problems) > 3:
            summary += f" (+{len(self.problems) - 3} more)"
        super().__init__("surgery.invariants", layer=layer, detail=summary)


def mask_problems(masks: dict) -> list[str]:
    """Problems with a name -> keep-mask mapping (empty when valid)."""
    problems: list[str] = []
    for name, mask in masks.items():
        array = np.asarray(mask)
        if array.ndim != 1:
            problems.append(f"mask for {name!r} is not one-dimensional")
            continue
        if array.size == 0:
            problems.append(f"mask for {name!r} is empty")
            continue
        if array.dtype != np.bool_ and \
                not np.isin(array, (0, 1)).all():
            problems.append(f"mask for {name!r} is not boolean (values "
                            f"outside {{0, 1}})")
            continue
        if not array.astype(bool).any():
            problems.append(f"mask for {name!r} keeps no feature maps")
    return problems


def model_problems(model) -> list[str]:
    """Structural problems with a pruned model (empty when healthy)."""
    problems: list[str] = []
    if hasattr(model, "prune_units"):
        problems.extend(validate_units(model.prune_units()))
    for key, value in model.state_dict().items():
        array = np.asarray(value)
        if array.dtype.kind == "f" and not np.isfinite(array).all():
            bad = int((~np.isfinite(array)).sum())
            problems.append(f"{key}: {bad}/{array.size} non-finite entries")
    return problems


def check_masks(masks: dict, layer: str | None = None) -> None:
    """Raise :class:`SurgeryInvariantError` on an invalid mask set."""
    problems = mask_problems(masks)
    if problems:
        raise SurgeryInvariantError(problems, layer=layer)


def check_model(model, layer: str | None = None) -> None:
    """Raise :class:`SurgeryInvariantError` when the model is inconsistent."""
    problems = model_problems(model)
    if problems:
        raise SurgeryInvariantError(problems, layer=layer)
