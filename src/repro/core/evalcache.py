"""Action-mask reward memoization for the REINFORCE hot loop.

Near convergence the head-start policy saturates and the same binary
actions are sampled over and over; every one of those repeats used to
pay a full masked forward pass over the calibration batch.  An
:class:`EvalCache` is an exact-key LRU memo of rewards: the key is the
binary mask itself (``action > 0.5`` as packed bytes), so two actions
hit the same entry iff they describe the same inception.  The
:class:`~repro.core.reinforce.ReinforceDriver` consults it through
:meth:`EvalCache.lookup` / :meth:`EvalCache.insert`.

Determinism contract — what makes the cache journal-safe:

* the reward function whose values it holds must be *pure* for the
  lifetime of the cache (same mask, same reward).  That holds inside one layer's RL
  loop: the model is restored after every masked evaluation and the
  calibration batch is fixed.  It does **not** hold across layers
  (surgery changes the model), which is why callers create one cache
  per :class:`~repro.core.reinforce.ReinforceDriver` run and never
  persist or share it;
* a hit returns the exact float previously computed, so a cached run's
  rewards — and therefore its policy updates, RNG stream, journal
  payloads and final state dict — are bit-for-bit identical to an
  uncached run at the same seed (``tests/test_evalcache.py`` locks
  this down);
* cache state never enters the run journal or the resume digest: a
  resumed run rebuilds its caches empty and still reproduces the
  uninterrupted run exactly, because misses recompute the same values
  hits would have returned.

Hit/miss/eviction counts stream to :mod:`repro.obs` under
``evalcache/*`` (see ``docs/PERFORMANCE.md``).
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from ..obs import get_recorder

__all__ = ["EvalCache", "mask_key"]


def mask_key(action: np.ndarray) -> bytes:
    """Canonical cache key of a binary action: the packed boolean mask.

    Float and boolean encodings of the same mask (``0.0/1.0`` vs
    ``False/True``) map to the same key; ``np.packbits`` keeps keys
    8x smaller than raw boolean bytes for wide layers.
    """
    mask = np.asarray(action) > 0.5
    return np.packbits(mask).tobytes()


class EvalCache:
    """Exact-key LRU memo of a deterministic reward function's values.

    The caller computes each miss itself: :meth:`lookup` answers (and
    counts) a request, :meth:`insert` stores the value computed for it.

    Parameters
    ----------
    maxsize:
        LRU bound on distinct masks retained; 0 or negative disables
        bounding (every distinct mask is kept).
    scope:
        Attribute attached to the emitted ``evalcache/*`` counters so
        per-layer caches are distinguishable in a metrics stream.
    """

    def __init__(self, maxsize: int = 256, scope: str = ""):
        self.maxsize = int(maxsize)
        self.scope = scope
        self._store: OrderedDict[bytes, float] = OrderedDict()
        self.hits = 0
        self.misses = 0

    # -- the memo ------------------------------------------------------------
    def lookup(self, action: np.ndarray) -> float | None:
        """Cached value for ``action``, or ``None``; counts the hit/miss.

        A miss is counted here, not at :meth:`insert`, so every request
        counts once whether or not its value is then stored.
        """
        key = mask_key(action)
        if key in self._store:
            self.hits += 1
            self._store.move_to_end(key)
            get_recorder().counter("evalcache/hits", 1, scope=self.scope)
            return self._store[key]
        self.misses += 1
        get_recorder().counter("evalcache/misses", 1, scope=self.scope)
        return None

    def insert(self, action: np.ndarray, value: float) -> None:
        """Store a value computed elsewhere (the miss was counted at lookup)."""
        self._store[mask_key(action)] = value
        if self.maxsize > 0 and len(self._store) > self.maxsize:
            self._store.popitem(last=False)
            get_recorder().counter("evalcache/evictions", 1,
                                   scope=self.scope)

    # -- introspection ------------------------------------------------------
    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, action) -> bool:
        """Membership by action array or by a precomputed ``mask_key``."""
        key = action if isinstance(action, bytes) else mask_key(action)
        return key in self._store

    @property
    def requests(self) -> int:
        """Total lookups served (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache (0 when unused)."""
        return self.hits / self.requests if self.requests else 0.0
