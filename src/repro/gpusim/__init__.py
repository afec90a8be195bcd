"""``repro.gpusim`` — analytical GPGPU/CPU inference latency model.

Stands in for the paper's GTX 1080Ti / Jetson TX2 testbed (see DESIGN.md
for the substitution rationale).
"""

from .device import (CORTEX_A57, DEVICES, GTX_1080TI, TX2_GPU, XEON_E5_2620,
                     DeviceSpec, available_devices, get_device)
from .latency import (LatencyReport, LayerLatency, estimate_fps,
                      estimate_latency, layer_latency, speedup_over)

__all__ = [
    "DeviceSpec", "DEVICES", "get_device", "available_devices",
    "GTX_1080TI", "TX2_GPU", "XEON_E5_2620", "CORTEX_A57",
    "LayerLatency", "LatencyReport", "layer_latency", "estimate_latency",
    "estimate_fps", "speedup_over",
]
