"""``repro.pruning`` — structured-pruning substrate and metric baselines."""

from . import baselines
from .engine import (EngineInfo, MetricEngine, MetricEngineResult,
                     PruningEngine, StepOutcome, StepSpec, StepState,
                     SteppedEngine, SteppedEngineBase, SteppedResult,
                     available_engines, build_engine)
from .graph import build_pruning_graph, describe_graph, validate_units
from .pipeline import (LayerPruneRecord, WholeModelResult, budget_keep_count,
                       prune_whole_model)
from .stats import (LayerStats, ModelStats, compression_ratio, layer_cost,
                    profile_model)
from .surgery import channel_mask, keep_indices, prune_model, prune_unit
from .unstructured import (UnstructuredMasks, magnitude_prune,
                           sparse_execution_time_factor, sparsity_of)
from .units import Consumer, ConvUnit

__all__ = [
    "baselines",
    "EngineInfo", "PruningEngine", "MetricEngine", "MetricEngineResult",
    "build_engine", "available_engines",
    "SteppedEngine", "SteppedEngineBase", "SteppedResult",
    "StepSpec", "StepOutcome", "StepState",
    "Consumer", "ConvUnit",
    "channel_mask", "prune_unit", "prune_model", "keep_indices",
    "LayerStats", "ModelStats", "layer_cost", "profile_model",
    "compression_ratio",
    "LayerPruneRecord", "WholeModelResult", "budget_keep_count",
    "prune_whole_model",
    "UnstructuredMasks", "magnitude_prune", "sparsity_of",
    "sparse_execution_time_factor",
    "build_pruning_graph", "validate_units", "describe_graph",
]
