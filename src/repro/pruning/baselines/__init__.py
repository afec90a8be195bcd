"""Baseline pruners the paper compares HeadStart against."""

from .autopruner import AutoPrunerPruner, inject_gate
from .common import (Pruner, PruningContext, available_pruners, build_pruner,
                     collect_unit_outputs, mask_from_scores, register_pruner)
from .simple import APoZPruner, Li17Pruner, RandomPruner
from .thinet import ThiNetPruner

__all__ = [
    "Pruner", "PruningContext", "register_pruner", "build_pruner",
    "available_pruners", "collect_unit_outputs", "mask_from_scores",
    "RandomPruner", "Li17Pruner", "APoZPruner", "ThiNetPruner",
    "AutoPrunerPruner", "inject_gate",
]
