"""Property-based tests: surgery invariants across models and masks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Tensor, no_grad
from repro.models import alexnet, lenet, resnet20, vgg11
from repro.pruning import channel_mask, profile_model, prune_unit


def build(name):
    rng = np.random.default_rng(7)
    if name == "lenet":
        return lenet(num_classes=4, input_size=12, rng=rng)
    if name == "alexnet":
        return alexnet(num_classes=4, input_size=12, rng=rng)
    if name == "vgg11":
        return vgg11(num_classes=4, input_size=12, width_multiplier=0.125,
                     rng=rng)
    if name == "resnet20":
        return resnet20(num_classes=4, width_multiplier=0.25, rng=rng)
    raise ValueError(name)


MODELS = ("lenet", "alexnet", "vgg11", "resnet20")


@pytest.mark.parametrize("name", MODELS)
def test_mask_equals_surgery_on_every_unit(name, rng):
    """For every prunable unit of every model family, masked evaluation
    must equal physical pruning exactly."""
    x = rng.normal(size=(2, 3, 12, 12)).astype(np.float32)
    reference = build(name)
    n_units = len(reference.prune_units())
    for index in range(n_units):
        masked_model = build(name)
        pruned_model = build(name)
        unit_m = masked_model.prune_units()[index]
        unit_p = pruned_model.prune_units()[index]
        mask = np.ones(unit_m.num_maps, dtype=bool)
        mask[:: 2] = False
        if not mask.any():
            mask[0] = True
        masked_model.eval(), pruned_model.eval()
        with no_grad():
            with channel_mask(unit_m, mask):
                masked_out = masked_model(Tensor(x)).data.copy()
            prune_unit(unit_p, mask)
            pruned_out = pruned_model(Tensor(x)).data
        assert np.allclose(masked_out, pruned_out, atol=1e-5), \
            f"{name} unit {index}"


@pytest.mark.parametrize("name", MODELS)
def test_surgery_reduces_cost_monotonically(name):
    model = build(name)
    costs = [profile_model(model, (3, 12, 12)).flops]
    for unit in model.prune_units()[:-1]:
        mask = np.zeros(unit.num_maps, dtype=bool)
        mask[: max(1, unit.num_maps // 2)] = True
        prune_unit(unit, mask)
        costs.append(profile_model(model, (3, 12, 12)).flops)
    assert all(a >= b for a, b in zip(costs, costs[1:]))


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 16 - 1),
       st.integers(min_value=1, max_value=15))
def test_random_mask_surgery_keeps_model_runnable(mask_bits, keep_floor):
    """Any non-empty random mask leaves a runnable, finite model."""
    model = lenet(num_classes=4, input_size=12,
                  rng=np.random.default_rng(0))
    unit = model.prune_units()[1]  # 16 maps
    mask = np.array([(mask_bits >> i) & 1 for i in range(unit.num_maps)],
                    dtype=bool)
    if not mask.any():
        mask[keep_floor % unit.num_maps] = True
    prune_unit(unit, mask)
    x = Tensor(np.random.default_rng(1).normal(
        size=(2, 3, 12, 12)).astype(np.float32))
    model.eval()
    with no_grad():
        out = model(x)
    assert out.shape == (2, 4)
    assert np.all(np.isfinite(out.data))


@settings(max_examples=15, deadline=None)
@given(st.lists(st.booleans(), min_size=6, max_size=6))
def test_mask_context_is_always_reversible(bits):
    """channel_mask restores the exact weights for arbitrary masks."""
    model = lenet(num_classes=4, input_size=12,
                  rng=np.random.default_rng(0))
    unit = model.prune_units()[0]
    mask = np.array(bits, dtype=bool)
    if not mask.any():
        mask[0] = True
    before = {name: value.copy() for name, value in model.state_dict().items()}
    with channel_mask(unit, mask):
        pass
    after = model.state_dict()
    for name in before:
        assert np.array_equal(before[name], after[name]), name
