"""Dense DNN layers with explicit forward/backward passes (no autograd).

The recommendation models of the paper pair sparse embedding layers with
dense MLP stacks (Figure 1: a bottom MLP over continuous features and a top
MLP over the feature interaction).  These layers are implemented from
scratch on NumPy with hand-derived gradients so the whole training loop —
dense and sparse — is self-contained and verifiable by finite differences.

A layer's backward consumes what its forward saved: ``Linear`` keeps its
input, ``ReLU`` its mask and ``Sigmoid`` its output from ``forward`` until
the ``backward`` that reads them, which drops them (PyTorch's default for
saved tensors); a forward-only pass through an :class:`MLP` drops them
with :meth:`MLP.release`.  So no activation outlives its step, and a
second ``backward`` without a ``forward`` raises.

Every layer also reports its forward/backward FLOP counts; the performance
model (:mod:`repro.sim.gpu`, :mod:`repro.sim.cpu`) consumes those to place
the DNN portion of training on the roofline.
"""

from __future__ import annotations

from typing import Literal, Sequence, overload

import numpy as np

__all__ = ["Linear", "ReLU", "Sigmoid", "MLP"]


class Linear:
    """Fully-connected layer ``y = x @ W + b``.

    Parameters are stored as ``W`` with shape ``(in_features, out_features)``
    and ``b`` with shape ``(out_features,)``; gradients accumulate into
    ``dW``/``db`` on :meth:`backward`.  The first accumulation after
    :meth:`zero_grad` writes the product straight into ``dW``/``db``; later
    ones add a fresh ``(in, out)`` product to them.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator | None = None,
        dtype: np.dtype = np.float64,
    ) -> None:
        if in_features <= 0 or out_features <= 0:
            raise ValueError("layer dimensions must be positive")
        rng = rng or np.random.default_rng(0)
        # He initialization keeps ReLU stacks trainable at RM4 depths.
        scale = np.sqrt(2.0 / in_features)
        self.W = (rng.standard_normal((in_features, out_features)) * scale).astype(dtype)
        self.b = np.zeros(out_features, dtype=dtype)
        self.dW = np.zeros_like(self.W)
        self.db = np.zeros_like(self.b)
        self._zeroed = True
        self._x: np.ndarray | None = None

    @property
    def in_features(self) -> int:
        return self.W.shape[0]

    @property
    def out_features(self) -> int:
        return self.W.shape[1]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Compute ``x @ W + b``, saving ``x`` for the backward pass."""
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"expected input (batch, {self.in_features}), got {x.shape}"
            )
        self._x = x
        return x @ self.W + self.b

    def backward(self, dout: np.ndarray) -> np.ndarray:
        """Accumulate ``dW``/``db`` and return the input gradient."""
        self.accumulate_grads(dout)
        return dout @ self.W.T

    def accumulate_grads(self, dout: np.ndarray) -> None:
        """Accumulate ``dW``/``db`` only: the whole backward of a layer
        whose input is data, which needs no ``dout @ W.T``.  Drops the
        saved input."""
        x = self._x
        if x is None:
            raise RuntimeError("backward called before forward")
        self._x = None
        if self._zeroed:
            # Just zeroed: 0 + r is r (bar -0.0), so write it in place
            # instead of building an (in, out) temporary to add.
            np.matmul(x.T, dout, out=self.dW)
            np.sum(dout, axis=0, out=self.db)
            self._zeroed = False
        else:
            self.dW += x.T @ dout
            self.db += dout.sum(axis=0)

    def release(self) -> None:
        """Drop the input saved for a backward that will not run."""
        self._x = None

    def zero_grad(self) -> None:
        """Reset accumulated parameter gradients to zero."""
        self.dW.fill(0.0)
        self.db.fill(0.0)
        self._zeroed = True

    def parameters(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """``(param, grad)`` pairs for the optimizer."""
        return [(self.W, self.dW), (self.b, self.db)]

    def forward_flops(self, batch: int) -> int:
        """Multiply-accumulate count of the forward GEMM (2 flops per MAC)."""
        return 2 * batch * self.in_features * self.out_features

    def backward_flops(self, batch: int) -> int:
        """FLOPs of the two backward GEMMs (weight grad + input grad)."""
        return 4 * batch * self.in_features * self.out_features


class ReLU:
    """Rectified linear activation, ``y = max(x, 0)``."""

    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return x * self._mask

    def backward(self, dout: np.ndarray) -> np.ndarray:
        mask = self._mask
        if mask is None:
            raise RuntimeError("backward called before forward")
        self._mask = None
        return dout * mask

    def release(self) -> None:
        self._mask = None

    def zero_grad(self) -> None:  # pragma: no cover - stateless
        pass

    def parameters(self) -> list[tuple[np.ndarray, np.ndarray]]:
        return []

    def forward_flops(self, batch: int) -> int:
        return 0

    def backward_flops(self, batch: int) -> int:
        return 0


class Sigmoid:
    """Logistic activation, used standalone when a probability is needed.

    The training path prefers the fused
    :func:`repro.model.loss.bce_with_logits` for numerical stability; this
    layer exists for inference-style probability outputs.
    """

    def __init__(self) -> None:
        self._y: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        # Piecewise-stable sigmoid avoids overflow for large |x|; evaluated
        # (and cached for backward) in float64, returned in x's dtype.
        # repro-lint: ignore[dtype-discipline] — inference-only layer
        y = np.empty_like(x, dtype=np.float64)
        pos = x >= 0
        y[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        y[~pos] = ex / (1.0 + ex)
        self._y = y
        return y.astype(x.dtype)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        y = self._y
        if y is None:
            raise RuntimeError("backward called before forward")
        self._y = None
        return dout * y * (1.0 - y)

    def zero_grad(self) -> None:  # pragma: no cover - stateless
        pass

    def parameters(self) -> list[tuple[np.ndarray, np.ndarray]]:
        return []

    def forward_flops(self, batch: int) -> int:
        return 0

    def backward_flops(self, batch: int) -> int:
        return 0


class MLP:
    """A stack of :class:`Linear` layers with ReLU between them.

    ``sizes`` lists every layer width including input and output, e.g.
    ``MLP((256, 128, 64))`` is the paper's RM1 bottom MLP.  The final layer
    is linear (no activation) so it can feed either the interaction stage or
    the logit loss directly.
    """

    def __init__(
        self,
        sizes: Sequence[int],
        rng: np.random.Generator | None = None,
        dtype: np.dtype = np.float64,
    ) -> None:
        if len(sizes) < 2:
            raise ValueError("MLP needs at least input and output sizes")
        rng = rng or np.random.default_rng(0)
        self.layers: list[Linear | ReLU] = []
        for depth, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            self.layers.append(Linear(fan_in, fan_out, rng=rng, dtype=dtype))
            if depth < len(sizes) - 2:
                self.layers.append(ReLU())
        self.sizes = tuple(int(s) for s in sizes)

    @property
    def in_features(self) -> int:
        return self.sizes[0]

    @property
    def out_features(self) -> int:
        return self.sizes[-1]

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    @overload
    def backward(
        self, dout: np.ndarray, input_grad: Literal[True] = ...
    ) -> np.ndarray: ...

    @overload
    def backward(self, dout: np.ndarray, input_grad: Literal[False]) -> None: ...

    def backward(
        self, dout: np.ndarray, input_grad: bool = True
    ) -> np.ndarray | None:
        """Accumulate every layer's ``dW``/``db``; return the input gradient.

        ``input_grad=False`` — the MLP reads data, as DLRM's bottom MLP
        does — leaves out the first layer's input-gradient GEMM and returns
        ``None``; the parameter gradients are the same either way.
        """
        first, *rest = self.layers
        for layer in reversed(rest):
            dout = layer.backward(dout)
        assert isinstance(first, Linear)
        if input_grad:
            return first.backward(dout)
        first.accumulate_grads(dout)
        return None

    def release(self) -> None:
        """Drop every layer's saved activation (a forward-only pass)."""
        for layer in self.layers:
            layer.release()

    def zero_grad(self) -> None:
        for layer in self.layers:
            layer.zero_grad()

    def parameters(self) -> list[tuple[np.ndarray, np.ndarray]]:
        params: list[tuple[np.ndarray, np.ndarray]] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params

    def forward_flops(self, batch: int) -> int:
        """Total forward FLOPs for a mini-batch of ``batch`` samples."""
        return sum(layer.forward_flops(batch) for layer in self.layers)

    def backward_flops(self, batch: int) -> int:
        """Total backward FLOPs for a mini-batch of ``batch`` samples."""
        return sum(layer.backward_flops(batch) for layer in self.layers)

    def parameter_bytes(self, itemsize: int = 4) -> int:
        """Model-parameter footprint, used for memory-traffic rooflines."""
        count = 0
        for layer in self.layers:
            if isinstance(layer, Linear):
                count += layer.W.size + layer.b.size
        return count * itemsize
