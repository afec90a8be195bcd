"""Unit tests for LeNet, AlexNet and the model registry."""

import numpy as np
import pytest

from repro.nn import Linear, Tensor, no_grad
from repro.models import (AlexNet, LeNet, alexnet, available_models,
                          build_model, lenet)


class TestLeNet:
    def test_forward_shape(self):
        model = lenet(num_classes=7, input_size=16,
                      rng=np.random.default_rng(0))
        with no_grad():
            out = model(Tensor(np.zeros((2, 3, 16, 16), dtype=np.float32)))
        assert out.shape == (2, 7)

    def test_prune_units(self):
        model = lenet(num_classes=4, input_size=16,
                      rng=np.random.default_rng(0))
        units = model.prune_units()
        assert [u.name for u in units] == ["conv1", "conv2"]
        assert units[0].consumers[0].module is model.conv2
        assert isinstance(units[1].consumers[0].module, Linear)
        assert units[1].consumers[0].spatial == (16 // 4) ** 2

    def test_width_multiplier(self):
        model = LeNet(num_classes=4, input_size=16, width_multiplier=2.0,
                      rng=np.random.default_rng(0))
        assert model.conv1.out_channels == 12


class TestAlexNet:
    def test_forward_shape(self):
        model = alexnet(num_classes=6, input_size=16,
                        rng=np.random.default_rng(0))
        with no_grad():
            out = model(Tensor(np.zeros((2, 3, 16, 16), dtype=np.float32)))
        assert out.shape == (2, 6)

    def test_five_prunable_units(self):
        model = alexnet(num_classes=4, input_size=16,
                        rng=np.random.default_rng(0))
        units = model.prune_units()
        assert len(units) == 5
        # Chain: unit i's consumer is unit i+1's conv.
        for a, b in zip(units, units[1:]):
            assert a.consumers[0].module is b.conv

    def test_width_multiplier_default_compact(self):
        model = AlexNet(num_classes=4, input_size=16,
                        rng=np.random.default_rng(0))
        assert model._records[0][1].out_channels == 16  # 64 * 0.25


class TestRegistry:
    def test_available_models(self):
        names = available_models()
        for expected in ("vgg16", "resnet56", "resnet110", "lenet", "alexnet"):
            assert expected in names

    def test_build_all_models(self):
        for name in available_models():
            model = build_model(name, num_classes=4, input_size=16,
                                width_multiplier=0.125,
                                rng=np.random.default_rng(0))
            model.eval()
            with no_grad():
                out = model(Tensor(np.zeros((1, 3, 16, 16), dtype=np.float32)))
            assert out.shape == (1, 4), name

    @pytest.mark.parametrize("name", ["vggnet-9000", "googlenet",
                                      "mobilenet"])
    def test_unknown_model_raises(self, name):
        with pytest.raises(ValueError, match="unknown model"):
            build_model(name)

    def test_deterministic_under_seed(self):
        a = build_model("lenet", rng=np.random.default_rng(5))
        b = build_model("lenet", rng=np.random.default_rng(5))
        assert np.allclose(a.conv1.weight.data, b.conv1.weight.data)
