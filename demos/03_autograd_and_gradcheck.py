"""The reverse-mode core: build a loss, backpropagate, then verify every
layer against central finite differences.

Run:  python demos/03_autograd_and_gradcheck.py
"""

import numpy as np

from hatenet.autograd import IdBatch, Tensor, conv1d, maxpool1d
from hatenet.gradcheck import run_all

rng = np.random.default_rng(0)
# a batch of 2 inputs of 10 steps over 4 distinct rows of 3 channels; a
# step is an id into the rows, -1 a zero step, and the input is a constant
x = IdBatch(np.array([[-1, -1, 0, 1, 0, 2, -1, 3, 1, 0],
                      [2, 2, 2, 3, 0, 1, 1, 0, -1, 3]]),
            rng.standard_normal((4, 3)))
# 2 filters of width 3, stored tap-major: (C_in, W, C_out)
taps = Tensor(rng.standard_normal((3, 3, 2)))
bias = Tensor(np.zeros(2))

pooled = maxpool1d(conv1d(x, taps, bias, pad=1), rate=2)
loss = (pooled.reshape(-1) * rng.standard_normal(20)).sum()
loss.backward()

print(f"scalar loss {loss.data:.4f}; gradient shapes after backward():")
print(f"  d loss / d taps:    {taps.grad.shape}")
print(f"  d loss / d bias:    {bias.grad.shape}")
print("  the input is a constant and gets no gradient; each of its 4 rows")
print("  is multiplied by all the taps in one product, not once per step")

print("\nfinite-difference verification of every registered layer (3 trials):")
for report in run_all(trials=3):
    print(f"  {report}")
