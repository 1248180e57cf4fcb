"""Dense tensor container shared by every kernel and layer.

Activations use NCHW layout, convolution kernels OIHW. Exactly two
precisions exist: "single" (float32, the training default) and "double"
(float64, used by every oracle and gradient-check path). An operation never
mixes the two; attempting to raises :class:`PrecisionError`.

Tensors are immutable once constructed. A ``Tensor`` stands where that
has to be enforced on an array from elsewhere: input entering a tape
(``Tape.constant``) and the values in a ``ParamStore``. Op outputs
(``Node.data``) are plain read-only arrays, since kernels always allocate
fresh outputs, which is what makes every op pure and bit-reproducible.
Convolution kernels pass between functions as bare OIHW arrays; stride and
padding are arguments of the call that runs them.
"""

from __future__ import annotations

import numpy as np

PRECISION_DTYPES = {"single": np.float32, "double": np.float64}
_NAME_OF_DTYPE = {np.dtype(np.float32): "single", np.dtype(np.float64): "double"}

MAX_RANK = 4


class ShapeError(ValueError):
    """Operand shapes are incompatible. The message names both shapes."""


class PrecisionError(TypeError):
    """An operation would mix single- and double-precision tensors."""


def dtype_for(precision: str) -> np.dtype:
    try:
        return np.dtype(PRECISION_DTYPES[precision])
    except KeyError:
        raise ValueError(f"unknown precision {precision!r}; expected 'single' or 'double'") from None


class Tensor:
    """Immutable dense array of rank <= 4 in one of the two precisions."""

    __slots__ = ("data",)

    def __init__(self, data, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in _NAME_OF_DTYPE:
            # Python lists / int arrays default to double, the oracle precision.
            arr = arr.astype(np.float64)
        if not arr.flags.c_contiguous:  # ascontiguousarray would promote 0-d to 1-d
            arr = np.ascontiguousarray(arr)
        if arr.ndim > MAX_RANK:
            raise ShapeError(f"rank {arr.ndim} exceeds maximum {MAX_RANK}: shape {arr.shape}")
        if arr.ndim and min(arr.shape) < 1:
            raise ShapeError(f"zero-sized extent in shape {arr.shape}")
        if arr.base is None or arr.flags.owndata:
            arr.setflags(write=False)
        else:  # a view into caller-owned memory: copy so immutability holds
            arr = arr.copy()
            arr.setflags(write=False)
        self.data = arr

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def precision(self) -> str:
        return _NAME_OF_DTYPE[self.data.dtype]

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def astype(self, precision: str) -> "Tensor":
        return Tensor(self.data.astype(dtype_for(precision)))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, precision={self.precision})"


def check_same_precision(*arrays) -> np.dtype:
    """Verify all operands share one dtype; returns it."""
    dtype = arrays[0].dtype
    for a in arrays[1:]:
        if a.dtype != dtype:
            names = sorted({_NAME_OF_DTYPE.get(np.dtype(b.dtype), str(b.dtype)) for b in arrays})
            raise PrecisionError(f"mixed precisions in one op: {names}")
    return dtype
