"""Whole-model HeadStart pruning of VGG-16 with fine-tuning between
layers — the protocol behind the paper's Table 1/2, at miniature scale.

Prints the per-layer log (surviving maps, inception accuracy, accuracy
after fine-tuning) for HeadStart, and the final comparison against Li'17
pruning and training the pruned architecture from scratch.

Takes a few minutes on one CPU core.

    python examples/vgg_whole_model_pruning.py
"""

import copy
import time

import numpy as np

from repro import (FinetuneConfig, HeadStartConfig, TrainConfig,
                   evaluate_dataset, fit)
from repro.analysis import Table
from repro.core import vgg_like_pruned
from repro.data import make_cub200_like
from repro.models import vgg16
from repro.pruning import build_engine, profile_model


def main():
    # Fine-grained CUB-200 stand-in (the Table 1/2 dataset).
    task = make_cub200_like(num_classes=10, image_size=16,
                            train_per_class=16, test_per_class=8,
                            num_superclasses=4, seed=2)
    input_shape = (3, 16, 16)

    def train_fresh():
        model = vgg16(num_classes=10, input_size=16, width_multiplier=0.25,
                      rng=np.random.default_rng(0))
        fit(model, task.train, None,
            TrainConfig(epochs=8, batch_size=32, lr=0.05, seed=0))
        return model

    print("training the original VGG-16 ...")
    original = train_fresh()
    original_accuracy = evaluate_dataset(original, task.test)
    original_stats = profile_model(original, input_shape)

    finetune = FinetuneConfig(epochs=2, batch_size=32, lr=0.02)
    config = HeadStartConfig(speedup=2.0, max_iterations=30,
                             min_iterations=15, patience=8,
                             eval_batch=96, seed=0)

    # --- HeadStart: iterative layer pruning with fine-tuning -------------
    print("HeadStart whole-model pruning (sp=2) ...")
    headstart_model = copy.deepcopy(original)
    started = time.time()
    result = build_engine("headstart", headstart_model, task.train,
                          config=config, test_set=task.test,
                          finetune_config=finetune,
                          input_shape=input_shape).run_steps()
    print(f"done in {time.time() - started:.0f}s\n")

    layer_table = Table(
        ["LAYER", "#MAPS", "#MAPS AFTER", "ACC. (%, INC)", "ACC. (%, W/FT)"],
        title="HeadStart per-layer log (cf. paper Table 1)")
    for log in result.layers:
        layer_table.add_row([log.name, log.maps_before, log.maps_after,
                             100 * log.inception_accuracy,
                             100 * log.finetuned_accuracy])
    print(layer_table.render(), "\n")

    # --- Li'17 under the same protocol ------------------------------------
    print("Li'17 whole-model pruning under the same budget ...")
    li17_model = copy.deepcopy(original)
    li17_accuracy = build_engine(
        "li17", li17_model, task.train, config=config, test_set=task.test,
        finetune_config=finetune).run_steps().final_accuracy

    # --- From scratch: same architecture, fresh weights --------------------
    print("training the HeadStart-pruned architecture from scratch ...")
    scratch = vgg_like_pruned(original, result.masks,
                              rng=np.random.default_rng(7))
    fit(scratch, task.train, None,
        TrainConfig(epochs=10, batch_size=32, lr=0.05, seed=0))
    scratch_accuracy = evaluate_dataset(scratch, task.test)

    # --- Final comparison (cf. paper Table 2) ------------------------------
    table = Table(["METHOD", "#PARAMS (M)", "#FLOPS (M)", "ACC. (%)",
                   "COMP. RATIO (%)"],
                  title="Whole-model pruning results (cf. paper Table 2)")
    hs_stats = profile_model(headstart_model, input_shape)
    li_stats = profile_model(li17_model, input_shape)
    table.add_row(["VGG-16 ORI.", original_stats.params_m,
                   original_stats.flops / 1e6, 100 * original_accuracy, 100.0])
    table.add_row(["LI'17", li_stats.params_m, li_stats.flops / 1e6,
                   100 * li17_accuracy,
                   100 * li_stats.params / original_stats.params])
    table.add_row(["HEADSTART", hs_stats.params_m, hs_stats.flops / 1e6,
                   100 * result.final_accuracy,
                   100 * hs_stats.params / original_stats.params])
    table.add_row(["FROM SCRATCH", hs_stats.params_m, hs_stats.flops / 1e6,
                   100 * scratch_accuracy,
                   100 * hs_stats.params / original_stats.params])
    print("\n" + table.render())


if __name__ == "__main__":
    main()
