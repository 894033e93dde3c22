"""Adaptive-moment gradient descent over parameter groups."""

from __future__ import annotations

import math

import numpy as np

from .layers import ParamGroup


class Adam:
    """Adam with bias correction.  A tensor whose grad is None, one that no
    loss reached (the feature group in ``tune``), is left untouched.

    Default rate 1e-3 for base training; head tuning uses 5e-4.
    """

    def __init__(self, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        if not (lr > 0 and math.isfinite(lr)):
            raise ValueError(f"learning rate must be finite and positive, got {lr}")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._state: dict[int, dict] = {}

    def step(self, groups: list[ParamGroup]) -> None:
        for group in groups:
            for param in group.params.values():
                if param.grad is None:
                    continue
                state = self._state.get(id(param))
                if state is None:
                    state = {
                        "m": np.zeros_like(param.data),
                        "v": np.zeros_like(param.data),
                        "t": 0,
                    }
                    self._state[id(param)] = state
                state["t"] += 1
                g = param.grad
                state["m"] = self.beta1 * state["m"] + (1 - self.beta1) * g
                state["v"] = self.beta2 * state["v"] + (1 - self.beta2) * g * g
                m_hat = state["m"] / (1 - self.beta1 ** state["t"])
                v_hat = state["v"] / (1 - self.beta2 ** state["t"])
                param.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
