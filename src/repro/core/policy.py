"""The head-start (policy) network — paper Section III.A.

"The intrinsic structure of the head-start network is composed of three
convolution layers and one fully connected layer"; its input is a noise
map following a Gaussian distribution and its output is the vector of
per-feature-map keep probabilities (sigmoid).
"""

from __future__ import annotations

import numpy as np

from ..nn.modules import Conv2d, Flatten, Linear, Module, ReLU, Sequential
from ..nn.tensor import Tensor
from ..obs import label_modules

__all__ = ["HeadStartNetwork", "sample_actions", "threshold_action",
           "bernoulli_log_prob"]


class HeadStartNetwork(Module):
    """Policy network mapping a Gaussian noise map to keep probabilities.

    Parameters
    ----------
    num_maps:
        Number of feature maps (or residual blocks) the action covers.
    noise_size:
        Side length of the square noise map input.
    hidden_channels:
        Width of the three internal convolutions.

    Under a profiler its ops are named ``policy.body.<i>``, apart from
    the pruned model's.
    """

    def __init__(self, num_maps: int, noise_size: int = 8,
                 hidden_channels: int = 8,
                 keep_ratio: float | None = None,
                 rng: np.random.Generator | None = None):
        super().__init__()
        if num_maps < 1:
            raise ValueError("num_maps must be positive")
        rng = rng or np.random.default_rng()
        self.num_maps = num_maps
        self.noise_size = noise_size
        h = hidden_channels
        self.body = Sequential(
            Conv2d(1, h, 3, padding=1, rng=rng), ReLU(),
            Conv2d(h, h, 3, padding=1, rng=rng), ReLU(),
            Conv2d(h, h, 3, padding=1, rng=rng), ReLU(),
            Flatten(),
            Linear(h * noise_size * noise_size, num_maps, rng=rng))
        if keep_ratio is not None:
            self._warm_start(keep_ratio, rng)
        label_modules(self, "policy")

    def _warm_start(self, keep_ratio: float, rng: np.random.Generator) -> None:
        """Bias the output so roughly ``keep_ratio`` of maps start above 0.5.

        Without this, the initial thresholded action (Eq. 10) keeps
        either all or almost no maps, making the greedy REINFORCE
        baseline degenerate until the policy has drifted to the right
        sparsity.  Warm-starting puts the initial inception at the
        target compression so training refines *which* maps survive.
        """
        keep_ratio = float(np.clip(keep_ratio, 0.02, 0.98))
        head = self.body[-1]
        spread = rng.normal(size=self.num_maps)
        cut = np.quantile(spread, 1.0 - keep_ratio)
        head.bias.data = (spread - cut).astype(head.bias.data.dtype)
        # Shrink the data-dependent part so the bias dominates initially.
        head.weight.data *= 0.1

    def sample_noise(self, rng: np.random.Generator) -> Tensor:
        """Draw the Gaussian noise map the policy conditions on."""
        noise = rng.normal(size=(1, 1, self.noise_size, self.noise_size))
        return Tensor(noise.astype(np.float64))

    def forward(self, noise: Tensor) -> Tensor:
        """Keep probabilities ``p_theta`` of shape (num_maps,)."""
        logits = self.body(noise)
        return logits.reshape(self.num_maps).sigmoid()


def sample_actions(probs: np.ndarray, k: int, rng: np.random.Generator,
                   exploration: float = 0.0) -> np.ndarray:
    """Eq. (6): draw ``k`` binary actions ``A^s ~ Bernoulli(p_theta)``.

    ``exploration`` clips the sampling probabilities into
    ``[exploration, 1 - exploration]`` so a saturated policy keeps
    proposing single-bit flips instead of freezing on one action (the
    REINFORCE gradient still uses the unclipped ``p_theta``).

    Actions that would prune *every* map are repaired by keeping the
    highest-probability map, so the pruned network stays connected.
    """
    probs = np.asarray(probs)
    if exploration > 0.0:
        sampling = np.clip(probs, exploration, 1.0 - exploration)
    else:
        sampling = probs
    actions = (rng.random((k, probs.size)) < sampling).astype(np.float64)
    empty = actions.sum(axis=1) == 0
    if empty.any():
        actions[empty, int(probs.argmax())] = 1.0
    return actions


def threshold_action(probs: np.ndarray, threshold: float = 0.5) -> np.ndarray:
    """Eq. (10): the greedy inference action ``A^I = phi_t(p_theta)``."""
    probs = np.asarray(probs)
    action = (probs >= threshold).astype(np.float64)
    if action.sum() == 0:
        action[int(probs.argmax())] = 1.0
    return action


def bernoulli_log_prob(probs: Tensor, action: np.ndarray,
                       eps: float = 1e-8) -> Tensor:
    """``log p_theta(A)`` for a binary action under independent Bernoullis.

    Differentiable in ``probs`` — this is the term whose gradient REINFORCE
    scales by the centred reward (Eq. 7-9).
    """
    action = np.asarray(action, dtype=np.float64)
    clipped = probs.clip(eps, 1.0 - eps)
    keep = Tensor(action)
    return (keep * clipped.log() + (1.0 - keep) * (1.0 - clipped).log()).sum()
