"""Adam parameter updates with decoupled weight decay.

Weight decay is applied only to parameters with ndim >= 2 (weight matrices
and embedding tables), never to bias vectors. Gradient clipping is a
separate step so gradient-checking code can run without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import UsageError
from .numerics import Tensor

Array = np.ndarray

BETA1 = 0.9  # Adam's first-moment decay
BETA2 = 0.999  # Adam's second-moment decay
EPS = 1e-8  # Adam's denominator floor


@dataclass
class OptimizerState:
    lr: float
    weight_decay: float = 0.0
    step_count: int = 0
    moments: dict[str, tuple[Array, Array]] = field(default_factory=dict)


def make_optimizer(lr: float, weight_decay: float = 0.0) -> OptimizerState:
    if not lr > 0:  # NaN too
        raise UsageError(f"learning rate must be positive, got {lr}")
    return OptimizerState(lr=lr, weight_decay=weight_decay)


def global_grad_norm(params: dict[str, Tensor]) -> float:
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    return math.sqrt(total)


def clip_gradients(params: dict[str, Tensor], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clip norm.
    """
    norm = global_grad_norm(params)
    if norm > max_norm > 0:
        scale = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad *= scale
    return norm


def step(params: dict[str, Tensor], state: OptimizerState) -> None:
    """Apply one in-place update to every parameter, then clear gradients."""
    state.step_count += 1
    t = state.step_count
    for name, p in params.items():
        if not p.requires_grad:
            raise UsageError(f"parameter {name!r} does not require gradients")
        if p.grad is None:
            raise UsageError(f"parameter {name!r} has no gradient; run backward first")
        g = p.grad
        if name not in state.moments:
            state.moments[name] = (np.zeros_like(p.values), np.zeros_like(p.values))
        m, v = state.moments[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        m_hat = m / (1.0 - BETA1**t)
        v_hat = v / (1.0 - BETA2**t)
        p.values -= state.lr * m_hat / (np.sqrt(v_hat) + EPS)
        if state.weight_decay > 0.0 and p.values.ndim >= 2:
            p.values -= state.lr * state.weight_decay * p.values
    for p in params.values():
        p.grad[...] = 0.0
