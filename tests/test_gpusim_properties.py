"""Property-based tests for the latency model."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim import GTX_1080TI, TX2_GPU, DeviceSpec, layer_latency
from repro.pruning.stats import LayerStats


def make_stats(flops, channels=32, params=1000):
    return LayerStats(name="conv", kind="Conv2d",
                      input_shape=(1, 3, 8, 8),
                      output_shape=(1, channels, 8, 8),
                      params=params, flops=int(flops))


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=1e3, max_value=1e12),
       st.floats(min_value=1e3, max_value=1e12))
def test_more_work_is_never_faster(flops_a, flops_b):
    lower, higher = sorted([flops_a, flops_b])
    fast = layer_latency(make_stats(lower), GTX_1080TI)
    slow = layer_latency(make_stats(higher), GTX_1080TI)
    assert slow.total_s >= fast.total_s - 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=2048),
       st.integers(min_value=1, max_value=2048))
def test_wider_layer_never_lower_utilisation(channels_a, channels_b):
    thin, wide = sorted([channels_a, channels_b])
    assert TX2_GPU.utilisation(1e9, wide) >= TX2_GPU.utilisation(1e9, thin)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=1e6, max_value=1e12))
def test_utilisation_bounded(flops):
    for device in (GTX_1080TI, TX2_GPU):
        util = device.utilisation(flops, channels=64)
        assert 0.0 < util <= 1.0


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=64))
def test_batch_amortises_overhead(batch):
    single = layer_latency(make_stats(1e8), GTX_1080TI, 1)
    batched = layer_latency(make_stats(1e8), GTX_1080TI, batch)
    # Per-image time never exceeds the single-image time.
    assert batched.total_s / batch <= single.total_s + 1e-12
