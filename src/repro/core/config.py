"""Configuration for HeadStart pruning (paper Section IV.A specifics).

Defaults follow the paper where it states values: threshold ``t = 0.5``,
``k = 3`` Monte-Carlo samples, RMSprop with weight decay 5e-4, and a
preset speedup ``sp`` of 2 or 5 depending on the experiment.  Iteration
counts are capped and the policy learning rate is raised relative to the
paper's 1e-3 because the miniature CPU setting trains for far fewer
iterations; the convergence criterion ("nearly constant loss and
reward") is the paper's.

Evaluation acceleration lives in one place: :class:`EvalOptions` on
``HeadStartConfig.eval`` holds every reward-eval knob — memoization,
the static-graph executor of :mod:`repro.nn.graph` (on by default) and
the worker pool.  Resume digests ignore all of them:
:func:`resume_relevant` strips the ``eval`` block, and the flat names
configs were journaled with before the block existed.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

__all__ = ["EvalOptions", "HeadStartConfig", "PERF_FIELDS",
           "resume_relevant"]

#: Config fields that accelerate evaluation without changing what a run
#: computes.  They are excluded from the resume digest
#: (:func:`resume_relevant`) so a journaled run may be resumed with
#: caching toggled or resized — the fast path is bit-for-bit equivalent
#: by contract (``tests/test_evalcache.py``, ``tests/test_graph.py``),
#: except ``fused`` and ``mask_batch`` graph eval (~1e-8 and last-ulp
#: vs dense), which are still excluded because they round identically
#: often enough for accuracy-based rewards, and flipping them mid-run
#: is an operator decision, not a config change.  The flat names are
#: the spellings configs were journaled with before the ``eval`` block
#: existed; stripping them keeps those journals hashing equal.
PERF_FIELDS = ("eval_cache", "cache_size", "compressed_eval",
               "workers", "task_seconds", "task_retries", "eval")


def resume_relevant(config) -> dict:
    """A config's fields minus the performance knobs (resume digest view).

    Accepts any dataclass; fields named in :data:`PERF_FIELDS` are
    dropped so two runs differing only in evaluation acceleration hash
    equal and may resume each other's journals — including a run
    journaled before the ``eval`` block existed.
    """
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        fields = dataclasses.asdict(config)
    elif isinstance(config, dict):
        fields = dict(config)
    else:
        return config
    for name in PERF_FIELDS:
        fields.pop(name, None)
    return fields


@dataclass(frozen=True)
class EvalOptions:
    """Every reward-evaluation knob, in one object.

    All options are performance-only (:data:`PERF_FIELDS`): they change
    how fast rewards are computed, never which pruning decisions a run
    makes — exactly (``cache``, ``workers``, unfused ``graph``) or to
    documented drift (``fused`` ~1e-8, ``mask_batch``).

    Attributes
    ----------
    cache:
        Memoize reward evaluations on the exact binary mask
        (:class:`~repro.core.evalcache.EvalCache`).  Bit-for-bit
        neutral.
    cache_size:
        LRU bound on distinct masks each per-layer cache retains
        (0 disables the bound).
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
    mask_batch:
        Score a whole batch of candidate masks in one forward by
        folding the masks into the batch dimension (requires
        ``graph``).
    workers:
        Number of pool worker processes scoring candidate masks in
        parallel (:class:`repro.runtime.pool.EvalPool`); 0 evaluates
        serially in-process.  Bit-for-bit neutral.
    task_seconds:
        Per-task wall-clock timeout inside the pool (``None`` disables).
    task_retries:
        Bounded attempts per pool task beyond the first; exhausted
        tasks degrade to in-process serial evaluation.
    """

    cache: bool = True
    cache_size: int = 256
    graph: bool = True
    fused: bool = False
    mask_batch: bool = False
    workers: int = 0
    task_seconds: float | None = None
    task_retries: int = 2

    def __post_init__(self):
        if self.cache_size < 0:
            raise ValueError("cache_size must be >= 0 (0 means unbounded)")
        if self.fused and not self.graph:
            raise ValueError("fused eval requires graph eval")
        if self.mask_batch and not self.graph:
            raise ValueError("mask_batch eval requires graph eval")
        if self.workers < 0:
            raise ValueError("workers must be >= 0 (0 means serial)")
        if self.task_seconds is not None and self.task_seconds <= 0:
            raise ValueError("task_seconds must be positive (or None)")
        if self.task_retries < 0:
            raise ValueError("task_retries must be >= 0")

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
        Number of calibration images used per reward evaluation.
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
        Evaluation fast-path settings (:class:`EvalOptions`); accepts
        an ``EvalOptions`` or an equivalent plain dict (the journaled
        form).
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
        # Journal round-trips store the eval block as a plain dict
        # (dataclasses.asdict); coerce it back so attribute access and
        # validation behave identically either way.
        if isinstance(self.eval, dict):
            object.__setattr__(self, "eval", EvalOptions(**self.eval))
        elif not isinstance(self.eval, EvalOptions):
            raise TypeError("eval must be an EvalOptions (or its dict form)")

