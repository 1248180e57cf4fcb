"""Tour of the numeric core: convolution against its oracle, ReLU identities,
and the finite-difference gradient checker on a hand-built graph.

Run:  python demos/01_kernels_and_autograd.py
"""

import numpy as np

from propmod import ParamStore, Tensor, gradcheck
from propmod.autograd import Tape, seeded_rng
from propmod.kernels import conv2d, conv2d_naive, relu

rng = seeded_rng(0, "demo1")

# -- the production convolution unfolds each image to a patch matrix and
#    runs one batched matmul; the six-deep loop reference stays around purely
#    to keep it honest -------------------------------------------------------
x = rng.standard_normal((1, 2, 5, 5))
k = rng.standard_normal((3, 2, 3, 3))
fast = conv2d(x, k, stride=1, padding=1)
slow = conv2d_naive(x, k, stride=1, padding=1)
print("conv2d vs naive loop, max |diff|:", np.abs(fast - slow).max())

# -- ReLU basics --------------------------------------------------------------
v = np.array([-1.0, 0.0, 2.0])
print("relu([-1, 0, 2]) =", relu(v))
z = rng.standard_normal(6)
print("relu(x) + relu(-x) == |x|:", np.array_equal(relu(z) + relu(-z), np.abs(z)))

# -- a tiny graph, differentiated in reverse and checked numerically ----------
store = ParamStore("double")
store.register("w", rng.standard_normal((4, 2, 3, 3)) * 0.5)
inp = rng.standard_normal((2, 2, 6, 6))


def loss_builder(tape: Tape):
    out = tape.conv2d(tape.constant(Tensor(inp)), tape.param("w"), stride=1, padding=1)
    return tape.sum(tape.relu(out))


tape = Tape(store, training=True)
grads = tape.backward(loss_builder(tape))
print("gradient shape for w:", grads["w"].shape)

result = gradcheck(loss_builder, store, eps=1e-5)
print(f"gradcheck: max rel err {result.max_rel_err:.3e} "
      f"over {result.checked} coordinates ({result.skipped} near a ReLU kink skipped)")
