"""Unit tests for training loops, metrics, and gradient checking."""

import tracemalloc

import numpy as np
import pytest

from repro.nn import Tensor, accuracy, check_gradients, topk_accuracy
from repro.models import lenet, resnet20, vgg11
from repro.training import (TrainConfig, evaluate, evaluate_dataset, fit,
                            train_epoch)
from repro.data import ArrayDataset, DataLoader
from repro.nn.optim import SGD


class TestMetrics:
    def test_accuracy(self):
        logits = np.array([[2.0, 1.0], [0.0, 3.0], [5.0, 0.0]])
        assert accuracy(logits, np.array([0, 1, 1])) == pytest.approx(2 / 3)

    def test_accuracy_accepts_tensor(self):
        logits = Tensor(np.array([[1.0, 0.0]]))
        assert accuracy(logits, np.array([0])) == 1.0

    def test_topk(self):
        logits = np.array([[5.0, 4.0, 0.0, 0.0],
                           [0.0, 1.0, 2.0, 3.0]])
        assert topk_accuracy(logits, np.array([1, 0]), k=2) == 0.5
        assert topk_accuracy(logits, np.array([1, 0]), k=4) == 1.0

    def test_topk_clamps_k(self):
        logits = np.array([[1.0, 0.0]])
        assert topk_accuracy(logits, np.array([0]), k=10) == 1.0


class TestEvaluate:
    def test_matches_dataset_variant(self, trained_lenet, tiny_task):
        direct = evaluate(trained_lenet, tiny_task.test.images,
                          tiny_task.test.labels)
        via_dataset = evaluate_dataset(trained_lenet, tiny_task.test)
        assert direct == pytest.approx(via_dataset)

    def test_batch_size_invariant(self, trained_lenet, tiny_task):
        a = evaluate(trained_lenet, tiny_task.test.images,
                     tiny_task.test.labels, batch_size=4)
        b = evaluate(trained_lenet, tiny_task.test.images,
                     tiny_task.test.labels, batch_size=64)
        assert a == pytest.approx(b)

    def test_restores_training_mode(self, trained_lenet, tiny_task):
        trained_lenet.train()
        evaluate(trained_lenet, tiny_task.test.images[:4],
                 tiny_task.test.labels[:4])
        assert trained_lenet.training
        trained_lenet.eval()

    def test_label_maps_raise(self, trained_lenet, tiny_task):
        images = tiny_task.test.images[:4]
        with pytest.raises(ValueError, match="one class label per image"):
            evaluate(trained_lenet, images, np.zeros((4, 12, 12), np.int64))

    def test_empty_input(self, trained_lenet):
        result = evaluate(trained_lenet, np.zeros((0, 3, 12, 12),
                                                  dtype=np.float32),
                          np.zeros(0, dtype=np.int64))
        assert result == 0.0


class TestFit:
    def test_learns_above_chance(self, tiny_task):
        model = lenet(num_classes=6, input_size=12,
                      rng=np.random.default_rng(21))
        history = fit(model, tiny_task.train, tiny_task.test,
                      TrainConfig(epochs=5, batch_size=24, lr=0.05, seed=0))
        chance = 1.0 / 6
        assert history.final_test_accuracy > chance + 0.2
        assert len(history.train_loss) == 5
        assert len(history.test_accuracy) == 5

    def test_loss_decreases(self, tiny_task):
        model = lenet(num_classes=6, input_size=12,
                      rng=np.random.default_rng(22))
        history = fit(model, tiny_task.train, None,
                      TrainConfig(epochs=4, batch_size=24, lr=0.05, seed=0))
        assert history.train_loss[-1] < history.train_loss[0]
        assert history.test_accuracy == []

    def test_deterministic_under_seed(self, tiny_task):
        runs = []
        for _ in range(2):
            model = lenet(num_classes=6, input_size=12,
                          rng=np.random.default_rng(5))
            history = fit(model, tiny_task.train, None,
                          TrainConfig(epochs=2, batch_size=24, seed=3))
            runs.append(history.train_loss)
        assert runs[0] == runs[1]

    def test_history_properties(self):
        from repro.training import History
        history = History(test_accuracy=[0.3, 0.6, 0.5])
        assert history.final_test_accuracy == 0.5
        assert history.best_test_accuracy == 0.6
        assert np.isnan(History().final_test_accuracy)

    def test_train_epoch_returns_loss_and_accuracy(self, tiny_task):
        model = lenet(num_classes=6, input_size=12,
                      rng=np.random.default_rng(3))
        loader = DataLoader(tiny_task.train, batch_size=24, shuffle=True,
                            rng=np.random.default_rng(0))
        optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
        loss, acc = train_epoch(model, loader, optimizer)
        assert np.isfinite(loss)
        assert 0.0 <= acc <= 1.0


def _train_peak_over_forward(build, batch: int, batches: int = 3) -> float:
    """Traced peak of ``train_epoch`` over one forward's live memory.

    Everything from the model build on is traced, and one warm-up step
    first allocates gradients, velocities and memoized conv indices, so
    both figures are steady-state: a forward keeps its graph alive, and
    the epoch's peak above its starting point is what SGD adds to it.
    """
    rng = np.random.default_rng(0)
    images = rng.standard_normal((batch * batches, 3, 12, 12))
    labels = rng.integers(0, 10, batch * batches)
    tracemalloc.start()
    try:
        model = build()
        optimizer = SGD(model.parameters(), lr=0.01, momentum=0.9)
        warm_up = ArrayDataset(images[:batch], labels[:batch])
        train_epoch(model, DataLoader(warm_up, batch_size=batch), optimizer)
        before = tracemalloc.get_traced_memory()[0]
        logits = model(Tensor(images[:batch].astype(np.float32)))
        forward = tracemalloc.get_traced_memory()[0] - before
        del logits
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        loader = DataLoader(ArrayDataset(images, labels), batch_size=batch)
        train_epoch(model, loader, optimizer)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return peak / forward


class TestTrainingMemory:
    """Backward frees each step's graph before the next forward builds one.

    Before the engine released graphs, ``train_epoch`` held the previous
    step's whole graph through the next forward: 2.26x (resnet20) and
    2.44x (vgg11) one forward's live memory.
    """

    @pytest.mark.parametrize("build", [
        lambda: resnet20(10, width_multiplier=0.5,
                         rng=np.random.default_rng(0)),
        lambda: vgg11(10, input_size=12, width_multiplier=0.25,
                      rng=np.random.default_rng(0)),
    ], ids=["resnet20", "vgg11"])
    def test_train_epoch_peaks_at_one_graph(self, build):
        assert _train_peak_over_forward(build, batch=32) <= 1.5


class TestGradCheckUtility:
    def test_detects_wrong_gradient(self):
        """check_gradients must fail on an intentionally broken backward."""
        def broken(x):
            out = x * 2
            # Sabotage: wrong backward closure scaling.
            original = out._backward
            def bad(g):
                original(g * 0.5)
            out._backward = bad
            return out

        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(AssertionError):
            check_gradients(broken, [x])

    def test_reports_missing_gradient(self):
        def disconnect(x):
            return Tensor(x.data * 2, requires_grad=True) * 1.0

        x = Tensor(np.ones(2), requires_grad=True)
        with pytest.raises((AssertionError, RuntimeError)):
            check_gradients(disconnect, [x])
