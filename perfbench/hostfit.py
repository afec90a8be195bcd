"""Figure-6 host table: a roofline fitted to this host's conv times.

``repro.gpusim`` predicts Figure 6 from datasheet device specs.  This
module gives that model a measured anchor: it fits a host device by
least squares to the per-conv forward times the profiler measured in the
traced sample's inference phase, for the original and its half-width
pruned copy,

    t = MACs / peak + bytes / bandwidth + overhead

with MACs from :func:`repro.pruning.stats.profile_model` and bytes from
:func:`repro.gpusim.latency.layer_bytes`, the accounting ``gpusim`` uses.
The terms add rather than take a maximum so the fit stays linear;
non-negative least squares keeps every coefficient physical.  The fit's
R², each conv's residual and the speedup it predicts are then set
against the measured ``host_speedup``.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import nnls

from repro.gpusim.latency import layer_bytes
from repro.pruning.stats import profile_model


def conv_rows(ops: dict, models: dict, input_shape, batch: int) -> list[dict]:
    """One row per conv that ran in the inference phase.

    ``ops`` is the inference recorder's op table, keyed by the labels
    ``<prefix>.<module path>``; ``models`` maps each prefix to its model.
    """
    rows = []
    for prefix, model in models.items():
        for layer in profile_model(model, input_shape).layers:
            stats = ops.get(f"{prefix}.{layer.name}", {}).get("forward")
            if layer.kind != "Conv2d" or not stats:
                continue
            rows.append({
                "model": prefix, "layer": layer.name,
                "macs": layer.flops * batch,
                "bytes": layer_bytes(layer.input_shape, layer.output_shape,
                                     layer.params, batch),
                "measured_ms": stats["total_s"] / stats["count"] * 1e3})
    return rows


def fit(rows: list[dict]) -> dict:
    """Fit peak MAC/s, bandwidth and per-layer overhead; add predictions."""
    design = np.array([[row["macs"], row["bytes"], 1.0] for row in rows])
    measured = np.array([row["measured_ms"] for row in rows]) / 1e3
    scale = design.max(axis=0)
    scale[scale == 0] = 1.0
    coef, _ = nnls(design / scale, measured)
    coef = coef / scale
    predicted = design @ coef
    total = float(np.sum((measured - measured.mean()) ** 2))
    r2 = 1.0 - float(np.sum((measured - predicted) ** 2)) / total \
        if total > 0 else 0.0
    for row, value in zip(rows, predicted):
        row["predicted_ms"] = float(value) * 1e3
        row["residual_pct"] = 100.0 * (row["predicted_ms"]
                                       - row["measured_ms"]) \
            / row["measured_ms"]

    def ratio(key: str) -> float:
        original = sum(r[key] for r in rows if r["model"] == "original")
        pruned = sum(r[key] for r in rows if r["model"] == "pruned")
        return original / pruned if pruned else 0.0

    residuals = np.abs([row["residual_pct"] for row in rows])
    return {
        "peak_gmacs_per_s": 1.0 / coef[0] / 1e9 if coef[0] else 0.0,
        "bandwidth_gb_per_s": 1.0 / coef[1] / 1e9 if coef[1] else 0.0,
        "overhead_us": float(coef[2]) * 1e6,
        "r2": r2,
        "residual_abs_median_pct": float(np.median(residuals)),
        "residual_abs_max_pct": float(np.max(residuals)),
        "pred_conv_speedup": ratio("predicted_ms"),
        "measured_conv_speedup": ratio("measured_ms"),
        "rows": rows,
    }


def host_table(result: dict, host_speedup: float) -> str:
    """The Figure-6 host table as plain text."""
    lines = [f"{'model':<9} {'conv':<28} {'MMAC':>8} {'KB':>8} "
             f"{'meas ms':>8} {'pred ms':>8} {'resid %':>8}"]
    for row in result["rows"]:
        lines.append(f"{row['model']:<9} {row['layer']:<28} "
                     f"{row['macs'] / 1e6:8.2f} {row['bytes'] / 1e3:8.1f} "
                     f"{row['measured_ms']:8.3f} {row['predicted_ms']:8.3f} "
                     f"{row['residual_pct']:8.1f}")
    lines.append(
        f"host fit: peak {result['peak_gmacs_per_s']:.2f} GMAC/s, "
        f"bandwidth {result['bandwidth_gb_per_s']:.2f} GB/s, overhead "
        f"{result['overhead_us']:.1f} us/layer, R2 {result['r2']:.3f}")
    lines.append(
        f"speedup: predicted conv {result['pred_conv_speedup']:.2f}x, "
        f"measured conv {result['measured_conv_speedup']:.2f}x, "
        f"measured whole model {host_speedup:.2f}x")
    return "\n".join(lines)
