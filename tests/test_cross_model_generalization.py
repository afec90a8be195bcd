"""Generalisation tests: HeadStart on every architecture family.

The paper claims HeadStart "could be well generalized to various
cutting-edge DCNN models" (abstract) and names LeNet/AlexNet/VGG as
layer-wise targets and ResNet for both layer- and block-wise pruning.
These tests run the agent once per family at miniature scale.
"""

import numpy as np
import pytest

from repro.core import HeadStartConfig, LayerAgent
from repro.models import alexnet, lenet, resnet20, vgg11
from repro.pruning import profile_model, prune_unit
from repro.training import TrainConfig, evaluate_dataset, fit


def quick_config(**overrides):
    defaults = dict(speedup=2.0, max_iterations=8, min_iterations=4,
                    patience=4, eval_batch=24, seed=0, mc_samples=2)
    defaults.update(overrides)
    return HeadStartConfig(**defaults)


def build(name):
    rng = np.random.default_rng(11)
    if name == "lenet":
        return lenet(num_classes=6, input_size=12, rng=rng)
    if name == "alexnet":
        return alexnet(num_classes=6, input_size=12, rng=rng)
    if name == "vgg11":
        return vgg11(num_classes=6, input_size=12, width_multiplier=0.125,
                     rng=rng)
    if name == "resnet20":
        return resnet20(num_classes=6, width_multiplier=0.25, rng=rng)
    raise ValueError(name)


FAMILIES = ("lenet", "alexnet", "vgg11", "resnet20")


@pytest.mark.parametrize("family", FAMILIES)
def test_headstart_generalizes_across_families(family, tiny_task):
    model = build(family)
    fit(model, tiny_task.train, None,
        TrainConfig(epochs=3, batch_size=24, lr=0.05, seed=0))
    before = profile_model(model, (3, 12, 12))

    unit = model.prune_units()[0]
    images = tiny_task.train.images[:24]
    labels = tiny_task.train.labels[:24]
    result = LayerAgent(model, unit, images, labels, quick_config()).run()
    prune_unit(unit, result.keep_mask)

    after = profile_model(model, (3, 12, 12))
    assert after.flops < before.flops, family
    accuracy = evaluate_dataset(model, tiny_task.test)
    assert 0.0 <= accuracy <= 1.0
    assert np.isfinite(result.inception_accuracy)
