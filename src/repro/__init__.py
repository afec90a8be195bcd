"""HeadStart (DAC 2019) reproduction.

Reinforcement-learning structured pruning of deep convolutional
networks, rebuilt from scratch on a numpy substrate:

* :mod:`repro.nn`       — autograd + NN framework (PyTorch stand-in)
* :mod:`repro.data`     — synthetic CIFAR-100 / CUB-200 stand-ins
* :mod:`repro.models`   — VGG, ResNet, LeNet, AlexNet
* :mod:`repro.pruning`  — surgery, accounting, metric baselines
* :mod:`repro.core`     — the HeadStart RL pruner itself
* :mod:`repro.gpusim`   — analytical GPGPU/CPU latency model
* :mod:`repro.analysis` — tables and experiment records

Quickstart::

    from repro import (make_cifar100_like, vgg16, fit, TrainConfig,
                       HeadStartPruner, HeadStartConfig)
    task = make_cifar100_like()
    model = vgg16(num_classes=task.spec.num_classes,
                  input_size=task.spec.image_size, width_multiplier=0.25)
    fit(model, task.train, task.test, TrainConfig(epochs=10))
    result = HeadStartPruner(model, task.train, task.test,
                             HeadStartConfig(speedup=2.0)).run()
"""

from . import (analysis, core, data, gpusim, models, nn, obs, pruning,
               runtime, utils)
from .core import (BlockHeadStart, FinetuneConfig, HeadStartConfig,
                   HeadStartPruner, LayerAgent, finetune)
from .runtime import ResumableRunner, RetryPolicy
from .data import make_cifar100_like, make_cub200_like
from .models import build_model, resnet56, resnet110, vgg16
from .pruning import compression_ratio, profile_model
from .training import TrainConfig, evaluate, evaluate_dataset, fit

__version__ = "1.0.0"

__all__ = [
    "nn", "data", "models", "pruning", "core", "gpusim", "analysis", "utils",
    "runtime", "obs",
    "HeadStartConfig", "HeadStartPruner", "LayerAgent", "BlockHeadStart",
    "FinetuneConfig", "finetune", "ResumableRunner", "RetryPolicy",
    "make_cifar100_like", "make_cub200_like",
    "vgg16", "resnet56", "resnet110", "build_model",
    "profile_model", "compression_ratio",
    "TrainConfig", "fit", "evaluate", "evaluate_dataset",
    "__version__",
]
