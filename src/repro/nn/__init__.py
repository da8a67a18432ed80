"""From-scratch neural-network stack: autograd, modules, distributions, optim.

This package replaces PyTorch for the reproduction (see DESIGN.md,
"Substitutions").  Everything is float64 numpy underneath.
"""

from . import functional, init
from .autograd import Tensor, as_tensor, is_grad_enabled, no_grad
from .distributions import (Categorical, DiagGaussian, gaussian_kl, gaussian_kl_grad_mean_q,
                            gaussian_log_prob, gaussian_sample)
from .modules import MLP, Linear, Module, Parameter, activation
from .optim import SGD, Adam, Optimizer, clip_grad_norm
from .serialization import load_module, load_state, save_module

__all__ = [
    "Tensor", "as_tensor", "no_grad", "is_grad_enabled",
    "functional", "init",
    "Module", "Parameter", "Linear", "MLP", "activation",
    "DiagGaussian", "Categorical", "gaussian_sample", "gaussian_log_prob", "gaussian_kl",
    "gaussian_kl_grad_mean_q",
    "Optimizer", "SGD", "Adam", "clip_grad_norm",
    "save_module", "load_state", "load_module",
]
