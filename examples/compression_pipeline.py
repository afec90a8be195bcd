"""Structured against unstructured compression (the paper's Figure 1).

Trains a VGG, HeadStart-prunes it at sp=2, and compares it with an
unstructured-pruning foil at the same weight sparsity — reporting
parameters, fp32 storage, accuracy and modelled fps at every stage.
The foil zeroes weights but keeps the dense shapes, so it gains no
dense-kernel speedup.

    python examples/compression_pipeline.py
"""

import copy

import numpy as np

from repro.analysis import Table
from repro.core import FinetuneConfig, HeadStartConfig, HeadStartPruner
from repro.data import make_cifar100_like
from repro.gpusim import TX2_GPU, estimate_fps
from repro.models import vgg16
from repro.pruning import magnitude_prune, profile_model, sparsity_of
from repro.training import TrainConfig, evaluate_dataset, fit


def main():
    task = make_cifar100_like(num_classes=10, image_size=16,
                              train_per_class=20, test_per_class=10,
                              noise=0.6, seed=7)
    shape = (3, 16, 16)

    print("training VGG-16 (width x0.25) ...")
    model = vgg16(num_classes=10, input_size=16, width_multiplier=0.25,
                  rng=np.random.default_rng(0))
    fit(model, task.train, None,
        TrainConfig(epochs=12, batch_size=32, lr=0.03, max_grad_norm=5.0,
                    seed=0))

    table = Table(["STAGE", "#PARAMS (M)", "STORAGE (KB)", "ACC. (%)",
                   "TX2 FPS"],
                  title="Compression pipeline (fp32 storage)")

    def add_row(stage, m):
        stats = profile_model(m, shape)
        table.add_row([stage, stats.params_m, stats.params * 4 / 1024,
                       100 * evaluate_dataset(m, task.test),
                       estimate_fps(stats, shape, TX2_GPU)])

    add_row("original", model)

    # Structured HeadStart pruning at sp=2.
    print("HeadStart pruning (sp=2) ...")
    pruned = copy.deepcopy(model)
    HeadStartPruner(
        pruned, task.train, None,
        config=HeadStartConfig(speedup=2.0, max_iterations=25,
                               min_iterations=12, patience=8,
                               eval_batch=96, seed=0),
        finetune_config=FinetuneConfig(epochs=2, batch_size=16, lr=0.01,
                                       max_grad_norm=5.0)).run()
    add_row("headstart sp=2", pruned)

    # Foil: unstructured pruning at the structured run's weight sparsity
    # keeps the dense shapes, so fps does not move (paper Figure 1).
    foil = copy.deepcopy(model)
    pruned_params = profile_model(pruned, shape).params
    target_sparsity = 1.0 - pruned_params / profile_model(model, shape).params
    masks = magnitude_prune(foil, min(0.95, max(0.0, target_sparsity)))
    # Masked fine-tuning (Han'15): train, then re-zero pruned connections.
    for _ in range(2):
        fit(foil, task.train, None,
            TrainConfig(epochs=1, batch_size=16, lr=0.01, max_grad_norm=5.0,
                        seed=0))
        masks.apply()
    print(f"unstructured foil at {sparsity_of(foil):.0%} weight sparsity "
          "(fine-tuned with masks re-applied)")
    add_row("unstructured (dense kernels)", foil)
    print("\nNote: at this miniature 16px geometry the TX2 model is "
          "dispatch-overhead bound, so fps barely moves; the paper-scale "
          "speedups are reproduced by examples/gpu_inference_speedup.py. "
          "The unstructured row keeps the dense shapes: same storage, "
          "same fps — Figure 1's point.")

    print("\n" + table.render())


if __name__ == "__main__":
    main()
