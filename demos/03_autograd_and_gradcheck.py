"""The reverse-mode core: build a loss, backpropagate, then verify every
layer against central finite differences.

Run:  python demos/03_autograd_and_gradcheck.py
"""

import numpy as np

from hatenet.autograd import Tensor, conv1d, maxpool1d
from hatenet.gradcheck import run_all

rng = np.random.default_rng(0)
# a batch of 2 inputs of 3 channels by 10 steps; the input is a constant
x = rng.standard_normal((2, 3, 10))
filters = Tensor(rng.standard_normal((2, 3, 3)))
bias = Tensor(np.zeros(2))

pooled = maxpool1d(conv1d(x, filters, bias, pad=1), rate=2)
loss = (pooled.reshape(-1) * rng.standard_normal(20)).sum()
loss.backward()

print(f"scalar loss {loss.data:.4f}; gradient shapes after backward():")
print(f"  d loss / d filters: {filters.grad.shape}")
print(f"  d loss / d bias:    {bias.grad.shape}")
print("  the input stack is a constant and gets no gradient")

print("\nfinite-difference verification of every registered layer (3 trials):")
for report in run_all(trials=3):
    print(f"  {report}")
