"""Dataset containers and mini-batch loading.

A :class:`Dataset` is anything indexable returning ``(image, label)``
pairs with NCHW-style ``float32`` images.  :class:`DataLoader` produces
shuffled mini-batches as stacked numpy arrays.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

__all__ = ["Dataset", "ArrayDataset", "Subset", "DataLoader", "as_arrays",
           "as_dataset"]


class Dataset:
    """Minimal dataset interface: ``__len__`` and ``__getitem__``."""

    def __len__(self) -> int:
        raise NotImplementedError

    def __getitem__(self, index: int) -> tuple[np.ndarray, int]:
        raise NotImplementedError


class ArrayDataset(Dataset):
    """Dataset backed by in-memory arrays of images and integer labels."""

    def __init__(self, images: np.ndarray, labels: np.ndarray):
        images = np.asarray(images, dtype=np.float32)
        labels = np.asarray(labels, dtype=np.int64)
        if len(images) != len(labels):
            raise ValueError(
                f"images ({len(images)}) and labels ({len(labels)}) differ in length")
        if images.ndim != 4:
            raise ValueError(f"expected NCHW images, got shape {images.shape}")
        if labels.ndim != 1:
            raise ValueError(
                f"expected one class label per image, got shape {labels.shape}")
        self.images = images
        self.labels = labels

    def __len__(self) -> int:
        return len(self.images)

    def __getitem__(self, index: int) -> tuple[np.ndarray, int]:
        return self.images[index], int(self.labels[index])

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1 if len(self.labels) else 0


class Subset(Dataset):
    """View of a dataset restricted to the given indices."""

    def __init__(self, base: Dataset, indices: Sequence[int]):
        self.base = base
        self.indices = list(indices)

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, index: int) -> tuple[np.ndarray, int]:
        return self.base[self.indices[index]]


def as_arrays(data, limit: int | None = None
              ) -> tuple[np.ndarray, np.ndarray]:
    """Coerce calibration data to stacked ``(images, labels)`` arrays.

    Accepts a :class:`Dataset` (``ArrayDataset``'s backing arrays are
    used directly, anything else is stacked item by item), an
    ``(images, labels)`` pair of array-likes, or a single ``(N, ...)``
    images/labels pair already stacked.  ``limit`` caps the number of
    examples (the usual ``eval_batch`` truncation).  This is the single
    coercion path shared by every pruning engine, so Datasets and raw
    arrays are interchangeable everywhere.
    """
    if isinstance(data, tuple) and len(data) == 2:
        images, labels = data
        images = np.asarray(images)
        labels = np.asarray(labels)
    elif isinstance(data, ArrayDataset):
        images, labels = data.images, data.labels
    elif isinstance(data, Dataset) or (hasattr(data, "__len__")
                                       and hasattr(data, "__getitem__")):
        size = len(data) if limit is None else min(len(data), limit)
        images = np.stack([data[i][0] for i in range(size)])
        labels = np.array([data[i][1] for i in range(size)])
    else:
        raise TypeError(
            f"cannot coerce {type(data).__name__} to calibration arrays; "
            "pass a Dataset or an (images, labels) tuple")
    if len(images) != len(labels):
        raise ValueError(
            f"images ({len(images)}) and labels ({len(labels)}) "
            "differ in length")
    if limit is not None:
        images = images[:limit]
        labels = labels[:limit]
    return images, labels


def as_dataset(data) -> Dataset:
    """Coerce ``data`` to a :class:`Dataset` (inverse of :func:`as_arrays`)."""
    if isinstance(data, Dataset):
        return data
    return ArrayDataset(*as_arrays(data))


class DataLoader:
    """Iterate a dataset in mini-batches of stacked arrays.

    Parameters
    ----------
    dataset:
        Source of ``(image, label)`` pairs.
    batch_size:
        Mini-batch size; the final batch may be smaller unless
        ``drop_last`` is set.
    shuffle:
        Reshuffle indices at the start of every epoch.
    rng:
        Generator for the shuffle order (required when ``shuffle=True``
        for deterministic experiments).
    """

    def __init__(self, dataset: Dataset, batch_size: int = 32,
                 shuffle: bool = False, rng: np.random.Generator | None = None,
                 drop_last: bool = False):
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        self.dataset = dataset
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.rng = rng or np.random.default_rng()
        self.drop_last = drop_last

    def __len__(self) -> int:
        n = len(self.dataset)
        if self.drop_last:
            return n // self.batch_size
        return (n + self.batch_size - 1) // self.batch_size

    def __iter__(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        indices = np.arange(len(self.dataset))
        if self.shuffle:
            self.rng.shuffle(indices)
        for start in range(0, len(indices), self.batch_size):
            batch = indices[start:start + self.batch_size]
            if self.drop_last and len(batch) < self.batch_size:
                break
            images = np.stack([self.dataset[i][0] for i in batch])
            labels = np.array([self.dataset[i][1] for i in batch], dtype=np.int64)
            yield images, labels
