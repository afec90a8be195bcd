"""Unit tests for the Module system (registration, state, containers)."""

import numpy as np
import pytest

from repro.nn import (BatchNorm2d, Conv2d, Dropout, Flatten,
                      GlobalAvgPool2d, Identity, Linear, MaxPool2d, Module,
                      Parameter, ReLU, Sequential, Sigmoid, Tanh, Tensor)


def make_rng():
    return np.random.default_rng(0)


class TestRegistration:
    def test_parameters_registered(self):
        conv = Conv2d(2, 3, 3, rng=make_rng())
        names = [n for n, _ in conv.named_parameters()]
        assert names == ["weight", "bias"]

    def test_no_bias(self):
        conv = Conv2d(2, 3, 3, bias=False, rng=make_rng())
        assert conv.bias is None
        assert [n for n, _ in conv.named_parameters()] == ["weight"]

    def test_submodules_registered(self):
        seq = Sequential(Conv2d(1, 2, 3, rng=make_rng()), ReLU())
        assert len(list(seq.named_modules())) == 3  # seq + 2 children

    def test_nested_parameter_names(self):
        seq = Sequential(Sequential(Linear(2, 2, rng=make_rng())))
        names = [n for n, _ in seq.named_parameters()]
        assert names == ["0.0.weight", "0.0.bias"]

    def test_parameter_reassignment_updates_registry(self):
        lin = Linear(2, 3, rng=make_rng())
        new = Parameter(np.zeros((3, 2), dtype=np.float32))
        lin.weight = new
        assert dict(lin.named_parameters())["weight"] is new

    def test_num_parameters(self):
        lin = Linear(4, 3, rng=make_rng())
        assert lin.num_parameters() == 4 * 3 + 3

    def test_buffers_registered(self):
        bn = BatchNorm2d(3)
        names = [n for n, _ in bn.named_buffers()]
        assert set(names) == {"running_mean", "running_var"}


class TestModes:
    def test_train_eval_recursive(self):
        seq = Sequential(BatchNorm2d(2), Sequential(Dropout(0.5)))
        seq.eval()
        assert all(not m.training for m in seq.modules())
        seq.train()
        assert all(m.training for m in seq.modules())

    def test_zero_grad(self):
        lin = Linear(2, 2, rng=make_rng())
        out = lin(Tensor(np.ones((1, 2), dtype=np.float32)))
        out.sum().backward()
        assert lin.weight.grad is not None
        lin.zero_grad()
        assert lin.weight.grad is None


class TestStateDict:
    def test_roundtrip(self):
        model = Sequential(Conv2d(2, 3, 3, rng=make_rng()), BatchNorm2d(3))
        state = model.state_dict()
        twin = Sequential(Conv2d(2, 3, 3, rng=np.random.default_rng(42)),
                          BatchNorm2d(3))
        twin.load_state_dict(state)
        for (_, a), (_, b) in zip(model.named_parameters(), twin.named_parameters()):
            assert np.allclose(a.data, b.data)

    def test_state_dict_copies(self):
        lin = Linear(2, 2, rng=make_rng())
        state = lin.state_dict()
        state["weight"][...] = 0.0
        assert not np.allclose(lin.weight.data, 0.0)

    def test_shape_mismatch_raises(self):
        lin = Linear(2, 2, rng=make_rng())
        state = lin.state_dict()
        state["weight"] = np.zeros((3, 3))
        with pytest.raises(ValueError):
            lin.load_state_dict(state)

    def test_missing_key_raises(self):
        lin = Linear(2, 2, rng=make_rng())
        with pytest.raises(KeyError):
            lin.load_state_dict({"weight": np.zeros((2, 2))})

    def test_buffers_in_state(self):
        bn = BatchNorm2d(2)
        bn.running_mean[...] = 7.0
        state = bn.state_dict()
        twin = BatchNorm2d(2)
        twin.load_state_dict(state)
        assert np.allclose(twin.running_mean, 7.0)


class TestLayers:
    def test_conv_output_shape(self):
        conv = Conv2d(3, 8, 3, stride=2, padding=1, rng=make_rng())
        out = conv(Tensor(np.zeros((2, 3, 8, 8), dtype=np.float32)))
        assert out.shape == (2, 8, 4, 4)

    def test_linear_shape(self):
        lin = Linear(6, 4, rng=make_rng())
        out = lin(Tensor(np.zeros((3, 6), dtype=np.float32)))
        assert out.shape == (3, 4)

    def test_batchnorm_eval_after_train(self):
        bn = BatchNorm2d(2)
        x = Tensor(np.random.default_rng(0).normal(
            size=(16, 2, 3, 3)).astype(np.float32))
        bn.train()
        bn(x)
        bn.eval()
        out = bn(x)
        assert out.shape == x.shape

    def test_activations(self):
        x = Tensor(np.array([[-1.0, 1.0]]))
        assert np.allclose(ReLU()(x).data, [[0.0, 1.0]])
        assert np.allclose(Sigmoid()(x).data,
                           1 / (1 + np.exp([[1.0, -1.0]])))
        assert np.allclose(Tanh()(x).data, np.tanh([[-1.0, 1.0]]))

    def test_pools(self):
        x = Tensor(np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4))
        assert MaxPool2d(2)(x).shape == (1, 1, 2, 2)
        assert GlobalAvgPool2d()(x).shape == (1, 1)

    def test_flatten(self):
        x = Tensor(np.zeros((2, 3, 4, 4)))
        assert Flatten()(x).shape == (2, 48)

    def test_identity(self):
        x = Tensor(np.ones(3))
        assert Identity()(x) is x

    def test_dropout_eval_identity(self):
        drop = Dropout(0.9, rng=make_rng())
        drop.eval()
        x = Tensor(np.ones((4, 4)))
        assert drop(x) is x

    def test_repr_contains_geometry(self):
        assert "Conv2d(3, 8" in repr(Conv2d(3, 8, 3, rng=make_rng()))
        assert "Linear(4, 2" in repr(Linear(4, 2, rng=make_rng()))


class TestSequential:
    def test_forward_order(self):
        seq = Sequential(Flatten(), Linear(4, 2, rng=make_rng()))
        out = seq(Tensor(np.zeros((3, 1, 2, 2), dtype=np.float32)))
        assert out.shape == (3, 2)

    def test_indexing(self):
        relu = ReLU()
        seq = Sequential(Flatten(), relu)
        assert seq[1] is relu

    def test_setitem_replaces(self):
        seq = Sequential(ReLU(), ReLU())
        ident = Identity()
        seq[0] = ident
        assert seq[0] is ident
        assert dict(seq.named_modules())["0"] is ident

    def test_len_and_iter(self):
        seq = Sequential(ReLU(), Tanh(), Sigmoid())
        assert len(seq) == 3
        assert [type(m).__name__ for m in seq] == ["ReLU", "Tanh", "Sigmoid"]

    def test_forward_not_implemented_on_base(self):
        with pytest.raises(NotImplementedError):
            Module()(Tensor(np.ones(1)))


class TestUpsample:
    def test_shape_and_values(self):
        from repro.nn import Upsample
        x = Tensor(np.arange(4, dtype=np.float64).reshape(1, 1, 2, 2))
        out = Upsample(2)(x)
        assert out.shape == (1, 1, 4, 4)
        assert np.allclose(out.data[0, 0, :2, :2], 0.0)
        assert np.allclose(out.data[0, 0, 2:, 2:], 3.0)

    def test_scale_one_identity(self):
        from repro.nn import Upsample
        x = Tensor(np.ones((1, 2, 3, 3)))
        assert Upsample(1)(x) is x

    def test_invalid_scale(self):
        from repro.nn import Upsample
        with pytest.raises(ValueError):
            Upsample(0)

    def test_gradient(self):
        from repro.nn import functional as F
        from repro.nn import check_gradients
        x = Tensor(np.random.default_rng(0).normal(size=(2, 2, 3, 3)),
                   requires_grad=True)
        check_gradients(lambda t: F.upsample_nearest(t, 3), [x])

    def test_gradient_sums_over_block(self):
        from repro.nn import functional as F
        x = Tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
        F.upsample_nearest(x, 2).sum().backward()
        assert np.allclose(x.grad, 4.0)


class TestDtypeFlow:
    """float32 activations become float64 at the first BatchNorm.

    ``var + eps`` (eval) and ``Tensor.mean``'s ``/ float(count)`` (train)
    combine float32 data with a 0-d float64 array, which NumPy >= 2
    promotes to float64 (NEP 50); NumPy 1.x kept float32.  The graph
    executor's dtype replication, the benchmark digests and the committed
    ``BENCH_reinforce.json`` all assume the float64 flow.
    """

    @pytest.mark.parametrize("training", [True, False])
    def test_float32_images_give_float64_logits(self, training):
        rng = make_rng()
        conv = Conv2d(3, 4, 3, padding=1, rng=rng)
        model = Sequential(conv, BatchNorm2d(4), ReLU(), GlobalAvgPool2d(),
                           Linear(4, 2, rng=rng)).train(training)
        images = Tensor(rng.normal(size=(2, 3, 6, 6)).astype(np.float32))
        assert conv(images).dtype == np.float32
        assert model(images).dtype == np.float64
