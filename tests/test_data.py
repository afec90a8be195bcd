"""Unit tests for datasets, loaders and the synthetic generators."""

import numpy as np
import pytest

from repro.data import (ArrayDataset, DataLoader, Subset, SyntheticSpec,
                        make_cifar100_like, make_cub200_like)


class TestArrayDataset:
    def test_basic(self, rng):
        ds = ArrayDataset(rng.normal(size=(10, 3, 4, 4)), np.arange(10) % 3)
        assert len(ds) == 10
        image, label = ds[4]
        assert image.shape == (3, 4, 4)
        assert label == 1
        assert ds.num_classes == 3

    def test_length_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            ArrayDataset(rng.normal(size=(5, 3, 4, 4)), np.zeros(4))

    def test_non_nchw_raises(self, rng):
        with pytest.raises(ValueError):
            ArrayDataset(rng.normal(size=(5, 4, 4)), np.zeros(5))

    def test_label_maps_raise(self, rng):
        with pytest.raises(ValueError, match="one class label per image"):
            ArrayDataset(rng.normal(size=(5, 3, 4, 4)), np.zeros((5, 4, 4)))

    def test_subset(self, rng):
        ds = ArrayDataset(rng.normal(size=(10, 1, 2, 2)), np.arange(10))
        sub = Subset(ds, [7, 3])
        assert len(sub) == 2
        assert sub[0][1] == 7
        assert sub[1][1] == 3


class TestDataLoader:
    def make_dataset(self, n=10):
        images = np.arange(n, dtype=np.float32).reshape(n, 1, 1, 1)
        return ArrayDataset(np.broadcast_to(images, (n, 1, 2, 2)).copy(),
                            np.arange(n))

    def test_batching(self):
        loader = DataLoader(self.make_dataset(10), batch_size=4)
        batches = list(loader)
        assert [len(b[1]) for b in batches] == [4, 4, 2]
        assert len(loader) == 3

    def test_drop_last(self):
        loader = DataLoader(self.make_dataset(10), batch_size=4, drop_last=True)
        assert [len(b[1]) for b in loader] == [4, 4]
        assert len(loader) == 2

    def test_no_shuffle_preserves_order(self):
        loader = DataLoader(self.make_dataset(6), batch_size=3)
        labels = np.concatenate([l for _, l in loader])
        assert np.array_equal(labels, np.arange(6))

    def test_shuffle_is_deterministic_under_seed(self):
        ds = self.make_dataset(20)
        order1 = np.concatenate([l for _, l in DataLoader(
            ds, 5, shuffle=True, rng=np.random.default_rng(3))])
        order2 = np.concatenate([l for _, l in DataLoader(
            ds, 5, shuffle=True, rng=np.random.default_rng(3))])
        assert np.array_equal(order1, order2)
        assert not np.array_equal(order1, np.arange(20))

    def test_shuffle_differs_between_epochs(self):
        loader = DataLoader(self.make_dataset(20), 20, shuffle=True,
                            rng=np.random.default_rng(0))
        first = next(iter(loader))[1].copy()
        second = next(iter(loader))[1].copy()
        assert not np.array_equal(first, second)

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            DataLoader(self.make_dataset(4), batch_size=0)


class TestSyntheticSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(num_classes=1)
        with pytest.raises(ValueError):
            SyntheticSpec(image_size=2)
        with pytest.raises(ValueError):
            SyntheticSpec(num_classes=4, num_superclasses=8)


class TestSyntheticTasks:
    def test_geometry(self):
        task = make_cifar100_like(num_classes=5, image_size=10,
                                  train_per_class=4, test_per_class=2, seed=0)
        assert len(task.train) == 20
        assert len(task.test) == 10
        image, label = task.train[0]
        assert image.shape == (3, 10, 10)
        assert 0 <= label < 5

    def test_determinism(self):
        a = make_cifar100_like(num_classes=3, image_size=8, seed=5)
        b = make_cifar100_like(num_classes=3, image_size=8, seed=5)
        assert np.allclose(a.train.images, b.train.images)
        assert np.array_equal(a.train.labels, b.train.labels)

    def test_seeds_differ(self):
        a = make_cifar100_like(num_classes=3, image_size=8, seed=1)
        b = make_cifar100_like(num_classes=3, image_size=8, seed=2)
        assert not np.allclose(a.train.images, b.train.images)

    def test_standardised(self):
        task = make_cifar100_like(num_classes=4, image_size=8,
                                  train_per_class=25, seed=0)
        assert abs(task.train.images.mean()) < 0.05
        assert abs(task.train.images.std() - 1.0) < 0.1

    def test_all_classes_present(self):
        task = make_cifar100_like(num_classes=7, image_size=8, seed=0)
        assert set(task.train.labels) == set(range(7))
        assert set(task.test.labels) == set(range(7))

    def test_classes_are_separable(self):
        """A nearest-prototype classifier should beat chance by a lot."""
        task = make_cifar100_like(num_classes=5, image_size=8,
                                  train_per_class=10, test_per_class=10,
                                  noise=0.3, seed=3)
        prototypes = np.stack([
            task.train.images[task.train.labels == c].mean(axis=0)
            for c in range(5)])
        flat_test = task.test.images.reshape(len(task.test), -1)
        flat_proto = prototypes.reshape(5, -1)
        distances = ((flat_test[:, None] - flat_proto[None]) ** 2).sum(axis=2)
        accuracy = (distances.argmin(axis=1) == task.test.labels).mean()
        assert accuracy > 0.6

    def test_fine_grained_is_harder(self):
        """CUB-like classes (shared superclasses) are more similar."""
        coarse = make_cifar100_like(num_classes=8, image_size=12, seed=0)
        fine = make_cub200_like(num_classes=8, image_size=12,
                                num_superclasses=2, fine_grain_scale=0.2,
                                seed=0)

        def mean_pairwise_prototype_similarity(task):
            protos = task.prototypes.reshape(len(task.prototypes), -1)
            protos = protos / np.linalg.norm(protos, axis=1, keepdims=True)
            sims = protos @ protos.T
            off_diagonal = sims[~np.eye(len(sims), dtype=bool)]
            return off_diagonal.mean()

        assert mean_pairwise_prototype_similarity(fine) > \
            mean_pairwise_prototype_similarity(coarse)

    def test_cub_like_defaults(self):
        task = make_cub200_like(num_classes=6, image_size=16,
                                train_per_class=3, test_per_class=2, seed=0)
        assert task.spec.num_superclasses == 5
        assert len(task.train) == 18
