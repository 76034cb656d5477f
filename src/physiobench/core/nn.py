"""Parameter containers and layer modules on top of the tensor engine."""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from . import tensor as T
from .tensor import Tensor


class Parameter(Tensor):
    """A trainable tensor: always requires grad.

    Without an explicit ``dtype`` its data takes ``T.default_dtype()``, so a
    model's dtype is the default at the time it was built.
    """

    __slots__ = ()

    def __init__(self, data, dtype=None):
        super().__init__(data, requires_grad=True,
                         dtype=T.default_dtype() if dtype is None else dtype)


class Module:
    """Base class with automatic child/parameter registration.

    Assigning a Parameter or Module to an attribute registers it;
    ``named_parameters`` walks the tree yielding '/'-joined paths.
    """

    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_children", {})
        object.__setattr__(self, "_buffers", {})
        object.__setattr__(self, "training", True)

    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self._params[name] = value
        elif isinstance(value, Module):
            self._children[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Track non-trainable state (e.g. running statistics) so it rides
        along in state_dict round trips."""
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, p in self._params.items():
            yield (f"{prefix}{name}", p)
        for name, child in self._children.items():
            yield from child.named_parameters(prefix=f"{prefix}{name}/")

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        for name, b in self._buffers.items():
            yield (f"{prefix}{name}", b)
        for name, child in self._children.items():
            yield from child.named_buffers(prefix=f"{prefix}{name}/")

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def num_params(self) -> int:
        return sum(p.size for p in self.parameters())

    def zero_grad(self) -> None:
        """Drop every parameter's gradient; the next backward hands each one
        a new array, and an optimizer reads a missing gradient as zeros."""
        for p in self.parameters():
            p.grad = None

    def train(self, mode: bool = True) -> "Module":
        object.__setattr__(self, "training", mode)
        for child in self._children.values():
            child.train(mode)
        return self

    def state_dict(self) -> dict[str, np.ndarray]:
        state = {name: p.data.copy() for name, p in self.named_parameters()}
        state.update({name: b.copy() for name, b in self.named_buffers()})
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        own: dict[str, np.ndarray] = {n: p.data for n, p in self.named_parameters()}
        own.update(self.named_buffers())
        missing = sorted(set(own) - set(state))
        extra = sorted(set(state) - set(own))
        if missing or extra:
            raise KeyError(f"state dict mismatch: missing={missing}, unexpected={extra}")
        for name, dst in own.items():
            arr = np.asarray(state[name], dtype=dst.dtype)
            if arr.shape != dst.shape:
                raise ValueError(f"shape mismatch for {name}: {arr.shape} vs {dst.shape}")
            dst[...] = arr

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError


class ModuleList(Module):
    """Ordered list of child modules, registered as "0", "1", ..."""

    def __init__(self, modules=()):
        super().__init__()
        for i, module in enumerate(modules):
            setattr(self, str(i), module)

    def __iter__(self):
        return iter(self._children.values())

    def __len__(self):
        return len(self._children)

    def __getitem__(self, idx):
        return list(self._children.values())[idx]


# ---------------------------------------------------------------------
# initializers
# ---------------------------------------------------------------------

_INIT_BLOCK = 1 << 20  # float64 draws per block


def _uniform(rng: np.random.Generator, bound: float,
             shape: tuple[int, ...]) -> np.ndarray:
    """U(-bound, bound) in the default dtype, drawn block by block.

    The values are those of ``rng.uniform(-bound, bound, size=shape)`` cast
    to the default dtype (consecutive draws continue one stream), but only
    one block of float64 draws exists at a time.
    """
    out = np.empty(shape, dtype=T.default_dtype())
    flat = out.reshape(-1)
    for start in range(0, flat.size, _INIT_BLOCK):
        block = flat[start:start + _INIT_BLOCK]
        block[...] = rng.uniform(-bound, bound, size=block.size)
    return out


def kaiming_uniform(rng: np.random.Generator, shape: tuple[int, ...],
                    fan_in: int) -> np.ndarray:
    """He-uniform: U(-sqrt(6/fan_in), +sqrt(6/fan_in)), suited to relu nets."""
    return _uniform(rng, math.sqrt(6.0 / fan_in), shape)


def xavier_uniform(rng: np.random.Generator, shape: tuple[int, ...],
                   fan_in: int, fan_out: int) -> np.ndarray:
    """Glorot-uniform: U(-sqrt(6/(fan_in+fan_out)), +...)."""
    return _uniform(rng, math.sqrt(6.0 / (fan_in + fan_out)), shape)


# ---------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------

class Conv1d(Module):
    def __init__(self, rng: np.random.Generator, in_channels: int, out_channels: int,
                 kernel_size: int, stride: int = 1, padding: str = "same",
                 init: str = "kaiming"):
        super().__init__()
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel_size
        shape = (out_channels, in_channels, kernel_size)
        if init == "kaiming":
            w = kaiming_uniform(rng, shape, fan_in)
        elif init == "xavier":
            w = xavier_uniform(rng, shape, fan_in, out_channels * kernel_size)
        else:
            raise ValueError(f"unknown init {init!r}")
        self.weight = Parameter(w)
        self.bias = Parameter(np.zeros(out_channels))

    def forward(self, x: Tensor, relu: bool = False) -> Tensor:
        return T.conv1d(x, self.weight, self.bias, stride=self.stride,
                        padding=self.padding, relu=relu)


class Dense(Module):
    def __init__(self, rng: np.random.Generator, in_features: int, out_features: int,
                 init: str = "xavier"):
        super().__init__()
        shape = (in_features, out_features)
        if init == "xavier":
            w = xavier_uniform(rng, shape, in_features, out_features)
        elif init == "kaiming":
            w = kaiming_uniform(rng, shape, in_features)
        else:
            raise ValueError(f"unknown init {init!r}")
        self.weight = Parameter(w)
        self.bias = Parameter(np.zeros(out_features))

    def forward(self, x: Tensor) -> Tensor:
        return T.dense(x, self.weight, self.bias)


class BatchNorm1d(Module):
    """Channel-wise batch norm for [B,C,L] with running statistics, at
    ``T.batchnorm1d``'s momentum and eps."""

    def __init__(self, channels: int):
        super().__init__()
        self.gamma = Parameter(np.ones(channels))
        self.beta = Parameter(np.zeros(channels))
        # buffers share the parameter dtype so mixed-precision math never upcasts
        self.register_buffer("running_mean",
                             np.zeros(channels, dtype=self.gamma.data.dtype))
        self.register_buffer("running_var",
                             np.ones(channels, dtype=self.gamma.data.dtype))

    def forward(self, x: Tensor, relu: bool = False) -> Tensor:
        return T.batchnorm1d(x, self.gamma, self.beta,
                             self.running_mean, self.running_var,
                             training=self.training, relu=relu)


class LayerNorm(Module):
    """Layer norm over the last axis, at ``T.layer_norm``'s eps."""

    def __init__(self, features: int):
        super().__init__()
        self.gamma = Parameter(np.ones(features))
        self.beta = Parameter(np.zeros(features))

    def forward(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.gamma, self.beta)
