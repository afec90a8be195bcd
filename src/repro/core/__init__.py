"""``repro.core`` — the HeadStart reinforcement-learning pruner."""

from .agent import AgentResult, LayerAgent
from .blocks import BlockAgentResult, BlockHeadStart, bypass_blocks
from .config import EvalOptions, HeadStartConfig
from .distill import DistillConfig, distill_finetune, distillation_loss
from .finetune import FinetuneConfig, finetune
from .policy import (HeadStartNetwork, bernoulli_log_prob, sample_actions,
                     threshold_action)
from .pruner import (HeadStartPruner, LayerLog, LayerPruner, MetricEngine,
                     PruneResult)
from .reinforce import ReinforceDriver, ReinforceOutcome, mask_key
from .reward import acc_term, reward, spd_term
from .scratch import resnet_like_pruned, vgg_like_pruned

__all__ = [
    "HeadStartConfig", "EvalOptions",
    "HeadStartNetwork", "sample_actions", "threshold_action",
    "bernoulli_log_prob",
    "acc_term", "spd_term", "reward",
    "LayerAgent", "AgentResult",
    "LayerPruner", "PruneResult", "LayerLog",
    "HeadStartPruner", "MetricEngine",
    "ReinforceDriver", "ReinforceOutcome", "mask_key",
    "BlockHeadStart", "BlockAgentResult", "bypass_blocks",
    "FinetuneConfig", "finetune",
    "DistillConfig", "distillation_loss", "distill_finetune",
    "vgg_like_pruned", "resnet_like_pruned",
]
