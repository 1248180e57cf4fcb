"""Why the all-linear stack degenerates: two stride-1 convolutions with
nothing (or only an eval-mode batch norm, a per-channel affine map) between
them equal a single convolution with a larger receptive field.

The composed kernel of a 3x3 pair is the full convolution of the two
kernels summed over the shared channel: a 5x5. A ReLU in between breaks the
algebra, and the same probe harness reports the deviation.

Run:  python demos/04_linear_collapse.py
"""

import numpy as np

from propmod import collapse_check
from propmod.autograd import seeded_rng
from propmod.layers import BatchNormState

rng = seeded_rng(0, "demo4")
first = rng.standard_normal((3, 2, 3, 3))
second = rng.standard_normal((4, 3, 3, 3))

print("identity first kernel: the composed kernel is the second, zero-padded")
delta = np.zeros((2, 2, 3, 3))
delta[0, 0, 1, 1] = delta[1, 1, 1, 1] = 1.0
report = collapse_check(delta, rng.standard_normal((2, 2, 3, 3)))
print(f"  composed shape {report.kernel.shape}, border ring all zero:",
      bool((report.kernel[:, :, 0, :] == 0).all()))

for label, interior in [
    ("no interior", None),
    ("eval-mode BN", BatchNormState(gamma=rng.standard_normal(3) + 2.0,
                                    beta=rng.standard_normal(3),
                                    running_mean=rng.standard_normal(3),
                                    running_var=np.abs(rng.standard_normal(3)) + 0.3)),
    ("ReLU", "relu"),
]:
    report = collapse_check(first, second, interior=interior, probes=10)
    print(f"{label:>13}: {report}")
