"""Table 1: whole-model layer-by-layer pruning log on the CUB stand-in.

HeadStart and Li'17 prune the same trained VGG-16 layer by layer at a
50 % per-layer budget (sp=2) with fine-tuning after each layer.  The
regenerated table reports, per layer: surviving maps, model params/FLOPs,
inception accuracy (before fine-tuning) and accuracy after fine-tuning.

Paper shape: HeadStart's inception accuracy is dramatically higher than
Li'17's at every layer (Li'17 drops to single digits mid-network), its
learnt map counts hover near — not exactly at — the 50 % budget, and the
post-fine-tune accuracy stays above Li'17's.
"""

import numpy as np

from conftest import INPUT_SHAPE, clone, run_once
from repro.analysis import ExperimentRecord, Table
from repro.core import FinetuneConfig, HeadStartConfig
from repro.pruning import build_engine

SPEEDUP = 2.0
FINETUNE = dict(epochs=2, batch_size=16, lr=0.01, max_grad_norm=5.0)


def _run(name, original, task):
    """One arm: the same layer engine protocol for HeadStart and Li'17.

    Both arms decide on the first 96 training images and measure their
    inception accuracy there (Li'17's L1 ranking reads no data).
    """
    engine = build_engine(
        name, clone(original), task.train,
        config=HeadStartConfig(speedup=SPEEDUP, max_iterations=30,
                               min_iterations=15, patience=8,
                               eval_batch=96, seed=0),
        test_set=task.test, finetune_config=FinetuneConfig(**FINETUNE),
        input_shape=INPUT_SHAPE)
    result = engine.run_steps()
    rows = [{"layer": log.name, "maps_before": log.maps_before,
             "maps_after": log.maps_after,
             "params_m": log.params_m, "flops_b": log.flops_b,
             "inception": log.inception_accuracy,
             "finetuned": log.finetuned_accuracy}
            for log in result.layers]
    return rows, result.final_accuracy


def test_table1_whole_model_log(benchmark, cub_vgg, cub_task, record_path):
    def experiment():
        headstart_rows, headstart_final = _run("headstart", cub_vgg,
                                               cub_task)
        li17_rows, li17_final = _run("li17", cub_vgg, cub_task)
        return headstart_rows, headstart_final, li17_rows, li17_final

    headstart_rows, headstart_final, li17_rows, li17_final = \
        run_once(benchmark, experiment)

    table = Table(["LAYER", "#MAPS", "LI'17 #AFTER", "OURS #AFTER",
                   "LI'17 INC", "OURS INC", "LI'17 W/FT", "OURS W/FT"],
                  title="Table 1: whole-model pruning log, CUB stand-in, "
                        "sp=2 (accuracies %)")
    for li_row, hs_row in zip(li17_rows, headstart_rows):
        table.add_row([hs_row["layer"], hs_row["maps_before"],
                       li_row["maps_after"], hs_row["maps_after"],
                       100 * li_row["inception"], 100 * hs_row["inception"],
                       100 * li_row["finetuned"], 100 * hs_row["finetuned"]])
    print("\n" + table.render())

    record = ExperimentRecord(
        "table1", "Whole-model layer-by-layer pruning log (sp=2)",
        parameters={"speedup": SPEEDUP, "finetune": FINETUNE},
        results={"headstart": headstart_rows, "li17": li17_rows,
                 "headstart_final": headstart_final,
                 "li17_final": li17_final})

    mean_inc_hs = np.mean([r["inception"] for r in headstart_rows])
    mean_inc_li = np.mean([r["inception"] for r in li17_rows])
    record.check("headstart_inceptions_beat_li17", mean_inc_hs > mean_inc_li)
    record.check("headstart_final_beats_li17",
                 headstart_final >= li17_final - 0.02)
    # HeadStart learns map counts near (but not pinned to) the budget.
    deviations = [abs(r["maps_after"] - r["maps_before"] / SPEEDUP)
                  / (r["maps_before"] / SPEEDUP) for r in headstart_rows]
    record.check("learnt_maps_near_budget", float(np.mean(deviations)) < 0.5)
    record.save(record_path / "table1.json")
    assert record.all_checks_passed, record.shape_checks
