"""EXPERIMENTS.md generator: render saved benchmark records to markdown.

Every benchmark saves an :class:`~repro.analysis.records.ExperimentRecord`
under ``benchmarks/results/``; :func:`render_experiments_markdown` turns
that directory into the paper-vs-measured report, so EXPERIMENTS.md is
always regenerable from the latest runs:

    python -m repro report    # --results DIR and --out FILE override
"""

from __future__ import annotations

from pathlib import Path

from .records import ExperimentRecord

__all__ = ["render_record", "render_experiments_markdown",
           "write_experiments_markdown"]

# Paper reference points shown next to each experiment.
_PAPER_NOTES = {
    "figure3": "Paper: HeadStart clearly above Li'17/APoZ/Random without "
               "fine-tuning; largest reported gap +20.28 pp over Li'17 at "
               "conv3_1, sp=4; baselines drop toward random at high sp.",
    "table1": "Paper: Li'17 inceptions collapse to single digits mid-network "
              "(e.g. 2.48 % at conv3_3) while HeadStart stays >52 %; final "
              "accuracies 76.23 % (HeadStart) vs 71.84 % (Li'17).",
    "table2": "Paper (CUB-200, sp=2): HeadStart 76.23 % at 47.11 % "
              "compression vs ThiNet 73.00, AutoPruner 73.45, Li'17 71.84, "
              "Random 70.25, from-scratch 28.88.",
    "table3": "Paper (CIFAR-100, sp=5): HeadStart 71.49 % at 22.09 % "
              "compression vs Li'17 70.79, APoZ 69.37, Random 68.79, "
              "from-scratch 70.04.",
    "table4": "Paper: ResNet-110 -> <10,10,7> keeps 74.33 % (original "
              "74.70 %) at ~half the FLOPs; beats ResNet-56 (72.98 %) and "
              "from-scratch (72.90 %).",
    "figure4_5": "Paper: learnt <10,10,7> redistributes params/FLOPs across "
                 "groups versus the symmetric <9,9,9> at comparable totals.",
    "figure6": "Paper speedups: TX2 — VGG 2.00x/2.25x, ResNet 1.96x/1.68x; "
               "1080Ti — VGG 1.03x/1.79x, ResNet 1.89x/1.88x; CPUs >1.5x; "
               "pruned VGG at ~24 fps on TX2 for CUB-scale images.",
    "ablation_baseline": "Paper Eq. 8-9: a baseline 'can significantly "
                         "expedite the learning speed'.",
    "ablation_mc_samples": "Paper uses k=3 Monte-Carlo samples 'for a more "
                           "precise estimation'.",
    "ablation_reward": "Paper Eq. 4: the reward must balance ACC and SPD.",
    "ablation_inception": "Paper Section I: higher initial accuracy induces "
                          "higher final accuracy with shortened fine-tuning.",
    "figure1": "Paper Figure 1: structured pruning is directly amenable to "
               "GPGPUs; unstructured sparsity needs cuSPARSE/accelerators.",
    "layer_sensitivity": "Paper Section V.A: lower layers are more "
                         "sensitive to speedup scaling than higher layers.",
    "ablation_distill": "Extension: distillation from the original model "
                        "as the recovery mechanism.",
}

_ORDER = ["figure1", "figure3", "table1", "table2", "table3", "table4",
          "figure4_5", "figure6", "layer_sensitivity",
          "ablation_baseline", "ablation_mc_samples", "ablation_reward",
          "ablation_inception", "ablation_distill"]


def _format_value(value, depth=0) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    if isinstance(value, dict) and depth < 1:
        inner = ", ".join(f"{k}: {_format_value(v, depth + 1)}"
                          for k, v in value.items())
        return f"{{{inner}}}"
    if isinstance(value, list) and len(value) > 6:
        head = ", ".join(_format_value(v, depth + 1) for v in value[:6])
        return f"[{head}, ... ({len(value)} items)]"
    return str(value)


def render_record(record: ExperimentRecord) -> str:
    """One markdown section for a saved record."""
    lines = [f"### {record.experiment}: {record.description}", ""]
    note = _PAPER_NOTES.get(record.experiment)
    if note:
        lines += [f"*{note}*", ""]
    if record.parameters:
        lines.append("Parameters: " + _format_value(record.parameters))
        lines.append("")
    if record.shape_checks:
        lines.append("| shape check | outcome |")
        lines.append("|---|---|")
        for name, passed in record.shape_checks.items():
            lines.append(f"| {name} | {'PASS' if passed else 'FAIL'} |")
        lines.append("")
    if record.results:
        lines.append("Measured:")
        lines.append("")
        lines.append("```")
        for key, value in record.results.items():
            lines.append(f"{key}: {_format_value(value)}")
        lines.append("```")
        lines.append("")
    return "\n".join(lines)


def render_experiments_markdown(results_dir: str | Path) -> str:
    """Render every record in ``results_dir`` into one markdown document."""
    results_dir = Path(results_dir)
    records = {}
    for path in sorted(results_dir.glob("*.json")):
        record = ExperimentRecord.load(path)
        records[record.experiment] = record

    lines = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        "Auto-generated from the JSON records under `benchmarks/results/` "
        "(regenerate with `python -m repro report` after running "
        "`pytest benchmarks/ --benchmark-only`).",
        "",
        "All accuracy experiments run on the miniature synthetic stand-ins "
        "described in DESIGN.md, so absolute numbers differ from the paper; "
        "each section lists the paper's reference values and the qualitative "
        "shape checks the run asserted.",
        "",
    ]
    ordered = [records[name] for name in _ORDER if name in records]
    ordered += [record for name, record in sorted(records.items())
                if name not in _ORDER]
    for record in ordered:
        lines.append(render_record(record))
    if not ordered:
        lines.append("*(no records found — run the benchmarks first)*")
    return "\n".join(lines)


def write_experiments_markdown(results_dir: str | Path,
                               output: str | Path) -> Path:
    """Render and write the report; returns the output path."""
    output = Path(output)
    output.write_text(render_experiments_markdown(results_dir))
    return output
