"""From-scratch differentiable sentence classifiers and their training.

The classifier kinds differ only through their entry in ``KINDS``
(:mod:`qfs.neural.models`). Finite-difference gradient checks live with
the tests.
"""

from .models import KINDS, TrainConfig, forward
from .serialize import load_params, save_params
from .training import LabeledExample, train

__all__ = [
    "KINDS",
    "LabeledExample",
    "TrainConfig",
    "forward",
    "load_params",
    "save_params",
    "train",
]
