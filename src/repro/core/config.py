"""Configuration for HeadStart pruning (paper Section IV.A specifics).

Defaults follow the paper where it states values: threshold ``t = 0.5``,
``k = 3`` Monte-Carlo samples, RMSprop with weight decay 5e-4, and a
preset speedup ``sp`` of 2 or 5 depending on the experiment.  Iteration
counts are capped and the policy learning rate is raised relative to the
paper's 1e-3 because the miniature CPU setting trains for far fewer
iterations; the convergence criterion ("nearly constant loss and
reward") is the paper's.

Evaluation acceleration lives in one place: :class:`EvalOptions` on
``HeadStartConfig.eval`` holds every reward-eval knob — the static-graph
executor of :mod:`repro.nn.graph` (on by default) and its fused mode.
Resume digests ignore them: :func:`resume_relevant` strips the ``eval``
block.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

__all__ = ["EvalOptions", "HeadStartConfig", "PERF_FIELDS",
           "resume_relevant"]

#: Config fields that accelerate evaluation without changing what a run
#: computes.  They are excluded from the resume digest
#: (:func:`resume_relevant`) so a journaled run may be resumed on another
#: eval path — unfused graph eval is bit-for-bit equal to dense
#: (``tests/test_graph.py``).  ``fused`` graph eval (~1e-8 vs dense) is
#: still excluded: it rounds identically often enough for accuracy-based
#: rewards, and flipping it mid-run is an operator decision, not a
#: config change.
PERF_FIELDS = ("eval",)


def resume_relevant(config) -> dict:
    """A config dataclass's fields minus :data:`PERF_FIELDS`.

    Two runs differing only in evaluation acceleration hash equal and
    may resume each other's journals.
    """
    fields = dataclasses.asdict(config)
    for name in PERF_FIELDS:
        fields.pop(name, None)
    return fields


@dataclass(frozen=True)
class EvalOptions:
    """Every reward-evaluation knob, in one object.

    Both options are performance-only (:data:`PERF_FIELDS`): they change
    how fast rewards are computed, never which pruning decisions a run
    makes — exactly (unfused ``graph``) or to documented drift
    (``fused`` ~1e-8).  Whatever the path, the REINFORCE driver measures
    each distinct mask once per search
    (:class:`~repro.core.reinforce.ReinforceDriver`).

    Attributes
    ----------
    graph:
        Evaluate rewards through the static-graph executor
        (:func:`repro.nn.compile`): the model is traced once per layer
        agent, masks are applied at the traced unit's boundary, and the
        layers *before* the masked unit are computed once and cached
        across every candidate mask.  Unfused graph eval is bit-for-bit
        identical to the eager masked forward, which stays the automatic
        fallback for untraceable models and the reference that
        ``graph=False`` selects.
    fused:
        Fold BatchNorm into the preceding conv's weights and absorb
        trailing ReLUs into conv/linear epilogues at trace time
        (requires ``graph``).  ~1e-8 vs dense, so it defaults off.
    """

    graph: bool = True
    fused: bool = False

    def __post_init__(self):
        if self.fused and not self.graph:
            raise ValueError("fused eval requires graph eval")

    @property
    def mode(self) -> str:
        """The ``--eval-mode`` name: ``graph`` or ``dense``."""
        return "graph" if self.graph else "dense"


@dataclass(frozen=True)
class HeadStartConfig:
    """Hyper-parameters of the HeadStart reinforcement-learning pruner.

    Attributes
    ----------
    speedup:
        Target speedup ``sp`` (Eq. 1/3); compression ratio is ``1/sp``.
    mc_samples:
        ``k``, the number of Monte-Carlo action samples per iteration
        (Eq. 6); the paper uses 3.
    threshold:
        ``t`` in Eq. 10 — the binarisation threshold of the greedy
        inference action used as the REINFORCE baseline.
    lr / weight_decay / optimizer:
        Optimiser settings for the head-start (policy) network θ.  The
        paper uses RMSprop at lr=1e-3 over many GPU iterations; the
        miniature default is plain SGD with a larger step because SGD
        preserves the advantage's magnitude in the REINFORCE update
        (RMSprop's normalised steps let tiny-advantage noise move the
        policy as far as strong learning signals, which destabilises
        very short runs).  Set ``optimizer="rmsprop"``, ``lr=1e-3`` to
        recover the paper's exact setting.
    max_iterations:
        Upper bound on policy iterations per layer.
    min_iterations:
        Iterations guaranteed before the convergence check may stop
        training (the policy needs a few updates to move at all).
    patience / tolerance:
        Training stops once the best observed reward has not improved by
        more than ``tolerance`` for ``patience`` consecutive iterations —
        the "nearly constant loss and reward" criterion.
    use_best_action:
        When True (default) the returned inception is the
        highest-reward action observed during training; when False it is
        the thresholded policy output at convergence (pure Eq. 10).
    noise_size:
        Side of the Gaussian noise map fed to the policy network.
    hidden_channels:
        Width of the policy network's three convolutions.
    eval_batch:
        Number of calibration images used per reward evaluation
        (at least one).
    baseline:
        Variance-reduction baseline: ``"greedy"`` uses R(A^I) (Eq. 9),
        ``"mean"`` uses the batch mean reward, ``"none"`` disables the
        baseline (Eq. 7) — the ablation knob.
    exploration:
        Floor/ceiling on the *sampling* probabilities so a saturated
        policy keeps exploring bit flips (the gradient uses the true
        probabilities).  0 disables it.
    exchange_proposals:
        Evaluate one swap mutation of the greedy action per iteration
        (a kept map exchanged with a dropped one) for the candidate pool
        only — it never enters the policy gradient.  Swaps keep the
        survivor count fixed, so they explore *which* maps survive
        without paying the jagged SPD penalty; this stabilises very
        short miniature-scale runs.
    acc_weight / spd_weight:
        Scales on the two reward terms (paper default 1, 1); setting one
        to zero gives the ACC-only / SPD-only reward ablations.
    seed:
        Seed for policy initialisation and action sampling.
    eval:
        Evaluation fast-path settings (:class:`EvalOptions`).
    """

    speedup: float = 2.0
    mc_samples: int = 3
    threshold: float = 0.5
    lr: float = 0.3
    weight_decay: float = 5e-4
    optimizer: str = "sgd"
    max_iterations: int = 60
    min_iterations: int = 15
    patience: int = 10
    tolerance: float = 1e-3
    use_best_action: bool = True
    noise_size: int = 8
    hidden_channels: int = 8
    eval_batch: int = 128
    baseline: str = "greedy"
    exploration: float = 0.05
    exchange_proposals: bool = True
    acc_weight: float = 1.0
    spd_weight: float = 1.0
    seed: int = 0
    eval: EvalOptions = EvalOptions()

    def __post_init__(self):
        if self.speedup < 1.0:
            raise ValueError("speedup must be >= 1")
        if self.mc_samples < 1:
            raise ValueError("need at least one Monte-Carlo sample")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold must lie strictly between 0 and 1")
        if self.baseline not in ("greedy", "mean", "none"):
            raise ValueError("baseline must be 'greedy', 'mean' or 'none'")
        if self.optimizer not in ("sgd", "rmsprop"):
            raise ValueError("optimizer must be 'sgd' or 'rmsprop'")
        if not 0.0 <= self.exploration < 0.5:
            raise ValueError("exploration must lie in [0, 0.5)")
        if self.eval_batch < 1:
            raise ValueError("eval_batch must be >= 1")
        if not isinstance(self.eval, EvalOptions):
            raise TypeError("eval must be an EvalOptions")

