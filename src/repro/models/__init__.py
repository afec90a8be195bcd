"""``repro.models`` — the DCNN architectures evaluated in the paper."""

from .alexnet import AlexNet, alexnet
from .lenet import LeNet, lenet
from .registry import MODEL_BUILDERS, available_models, build_model
from .resnet import BasicBlock, ResNet, resnet20, resnet56, resnet110
from .vgg import VGG, VGG_PLANS, vgg11, vgg16

__all__ = [
    "VGG", "VGG_PLANS", "vgg11", "vgg16",
    "ResNet", "BasicBlock", "resnet20", "resnet56", "resnet110",
    "LeNet", "lenet", "AlexNet", "alexnet",
    "MODEL_BUILDERS", "build_model", "available_models",
]
