"""Adaptive-moment gradient descent over one flat parameter buffer."""

from __future__ import annotations

import math

import numpy as np


ADAM_BLOCK = 8192  # values stepped at a time, so the scratch rows stay in cache


class Adam:
    """Adam with bias correction (Kingma & Ba 2015) over one flat buffer of
    parameter values, `data`, and its gradient buffer, `grad`.  A step runs
    a fixed sequence of in-place ufuncs, block by block, in the evaluation
    order of the formula m = b1*m + (1 - b1)*g, v = b2*v + (1 - b2)*g*g,
    data -= lr*m̂ / (√v̂ + eps), so it rounds as the formula does.  Default
    rate 1e-3 for base training; head tuning uses 5e-4."""

    def __init__(self, data: np.ndarray, grad: np.ndarray, lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        if not (lr > 0 and math.isfinite(lr)):
            raise ValueError(f"learning rate must be finite and positive, got {lr}")
        self.data, self.grad = data, grad
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m, self.v = np.zeros((2, len(data)))  # one allocation, as in flat
        self._scratch = np.empty((2, min(len(data), ADAM_BLOCK)))

    def step(self) -> None:
        self.t += 1
        m_scale, v_scale = 1 - self.beta1 ** self.t, 1 - self.beta2 ** self.t
        for lo in range(0, len(self.data), ADAM_BLOCK):
            g, m, v = (a[lo : lo + ADAM_BLOCK] for a in (self.grad, self.m, self.v))
            update, denom = self._scratch[:, : len(g)]
            m *= self.beta1
            m += np.multiply(1 - self.beta1, g, out=update)
            v *= self.beta2
            np.multiply(1 - self.beta2, g, out=update)
            v += np.multiply(update, g, out=update)
            np.divide(m, m_scale, out=update)  # m-hat
            update *= self.lr
            np.divide(v, v_scale, out=denom)  # v-hat
            np.sqrt(denom, out=denom)
            denom += self.eps
            update /= denom
            self.data[lo : lo + ADAM_BLOCK] -= update
