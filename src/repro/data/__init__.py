"""``repro.data`` — datasets, loaders and synthetic data generation.

The synthetic generators stand in for CIFAR-100 and CUB-200-2011 (see
DESIGN.md for the substitution rationale).
"""

from .datasets import (ArrayDataset, DataLoader, Dataset, Subset, as_arrays,
                       as_dataset)
from .synthetic import (SyntheticImageTask, SyntheticSpec, make_cifar100_like,
                        make_cub200_like)

__all__ = [
    "Dataset", "ArrayDataset", "Subset", "DataLoader", "as_arrays",
    "as_dataset",
    "SyntheticSpec", "SyntheticImageTask", "make_cifar100_like",
    "make_cub200_like",
]
