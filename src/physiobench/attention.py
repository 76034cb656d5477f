"""Shape-preserving attention blocks for 1D feature maps and token streams.

Three blocks operate directly on conv feature maps [B,C,L]:

* :class:`SEBlock` — per-channel sigmoid gate from a squeezed global average.
* :class:`NLBlock` — embedded-Gaussian non-local attention over positions
  with a residual output projection.
* :class:`CBAMBlock` — channel gate (shared MLP over avg+max pools) followed
  by a spatial gate (conv over stacked channel-mean/max maps).

The fourth mechanism is a stand-alone transformer encoder over tokens
[B,L,d]: :class:`MsaLayer` / :class:`MsaEncoder`, configured by
:class:`MsaConfig` whose hyperparameter domain matches the benchmark's grid
search (see :func:`msa_grid`).

NL and MSA share one primitive, :func:`physiobench.core.tensor.attention`,
which computes the [B,(H,)L,L] weights in blocks of (batch, head) items,
never all at once, and differentiates them analytically; neither block
chains matmul and softmax itself.  The whole weights array is built only
for a block made with ``record_attention=True``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import product

import numpy as np

from .core import nn
from .core import tensor as T
from .core.tensor import Tensor


class AttentionKind(str, Enum):
    NONE = "none"
    SE = "se"
    NL = "nl"
    CBAM = "cbam"
    MSA = "msa"

    def __str__(self) -> str:  # serialize as the bare name
        return self.value


MSA_D_MODEL_CHOICES = (16, 32, 64)
MSA_N_HEADS_CHOICES = (2, 4, 6, 8)
MSA_D_FF_CHOICES = (32, 64, 128)
MSA_N_LAYERS_CHOICES = (1, 2, 3)

SE_RATIO = 16       # SE bottleneck C -> C/16
CBAM_RATIO = 16     # CBAM channel-MLP bottleneck
CBAM_KERNEL = 7     # CBAM spatial conv width


@dataclass(frozen=True)
class MsaConfig:
    """Encoder hyperparameters, restricted to the benchmark grid domain.

    Combinations where ``d_model`` is not divisible by ``n_heads`` cannot be
    instantiated (head width d_k = d_model/n_heads must be an integer);
    callers sweeping the raw grid should treat the ValueError as an invalid
    cell rather than a crash.
    """

    d_model: int
    n_heads: int
    d_ff: int
    n_layers: int

    def __post_init__(self):
        if self.d_model not in MSA_D_MODEL_CHOICES:
            raise ValueError(f"d_model must be one of {MSA_D_MODEL_CHOICES}, got {self.d_model}")
        if self.n_heads not in MSA_N_HEADS_CHOICES:
            raise ValueError(f"n_heads must be one of {MSA_N_HEADS_CHOICES}, got {self.n_heads}")
        if self.d_ff not in MSA_D_FF_CHOICES:
            raise ValueError(f"d_ff must be one of {MSA_D_FF_CHOICES}, got {self.d_ff}")
        if self.n_layers not in MSA_N_LAYERS_CHOICES:
            raise ValueError(f"n_layers must be one of {MSA_N_LAYERS_CHOICES}, got {self.n_layers}")
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model={self.d_model} is not divisible by n_heads={self.n_heads}")

    @property
    def d_k(self) -> int:
        return self.d_model // self.n_heads


def msa_grid() -> list[tuple[int, int, int, int]]:
    """All (d_model, n_heads, d_ff, n_layers) grid cells, 3*4*3*3 = 108.

    The full cross product is enumerated; cells violating head divisibility
    are included (a sweep reports them as invalid rather than hiding them).
    """
    return list(product(MSA_D_MODEL_CHOICES, MSA_N_HEADS_CHOICES,
                        MSA_D_FF_CHOICES, MSA_N_LAYERS_CHOICES))


# ---------------------------------------------------------------------
# feature-map blocks ([B,C,L] in, same shape out)
# ---------------------------------------------------------------------

class SEBlock(nn.Module):
    """Squeeze-and-excitation channel gate.

    Global-average squeeze to [B,C], two dense layers (C -> C/r -> C) with
    relu then sigmoid, and a per-channel rescale of the input.
    """

    def __init__(self, rng: np.random.Generator, channels: int,
                 reduction_ratio: int = SE_RATIO):
        super().__init__()
        if reduction_ratio < 1:
            raise ValueError(f"reduction_ratio must be >= 1, got {reduction_ratio}")
        if reduction_ratio > channels:
            raise ValueError(
                f"reduction_ratio {reduction_ratio} exceeds channel count {channels}")
        self.channels = channels
        self.reduction_ratio = reduction_ratio
        mid = channels // reduction_ratio
        self.fc1 = nn.Dense(rng, channels, mid, init="kaiming")
        self.fc2 = nn.Dense(rng, mid, channels)

    def forward(self, x: Tensor) -> Tensor:
        squeezed = T.global_pool(x, "avg")                  # [B,C]
        gate = T.sigmoid(self.fc2(T.relu(self.fc1(squeezed))))
        return x * gate.reshape(x.shape[0], self.channels, 1)


class NLBlock(nn.Module):
    """Non-local block: position-pairwise attention with a residual add.

    theta/phi/g are 1x1 convs to C/2 channels; attention is
    softmax(theta^T phi) rows over positions (or a 1/L dot-product
    normalizer when ``normalizer='dot'``), computed by ``T.attention`` with
    scale 1 (softmax) or scale 1/L and no softmax (dot); the attended g is
    projected back to C channels by a final 1x1 conv, zero-initialized by
    default so the freshly built block is the exact identity.
    """

    def __init__(self, rng: np.random.Generator, channels: int,
                 zero_init: bool = True, normalizer: str = "softmax",
                 record_attention: bool = False):
        super().__init__()
        if channels < 2:
            raise ValueError(f"non-local block needs at least 2 channels, got {channels}")
        if normalizer not in ("softmax", "dot"):
            raise ValueError(f"normalizer must be 'softmax' or 'dot', got {normalizer!r}")
        self.channels = channels
        self.normalizer = normalizer
        self.record_attention = record_attention
        embed = channels // 2
        self.theta = nn.Conv1d(rng, channels, embed, 1, padding="valid", init="xavier")
        self.phi = nn.Conv1d(rng, channels, embed, 1, padding="valid", init="xavier")
        self.g = nn.Conv1d(rng, channels, embed, 1, padding="valid", init="xavier")
        self.proj = nn.Conv1d(rng, embed, channels, 1, padding="valid", init="xavier")
        if zero_init:
            self.proj.weight.data[...] = 0.0
        self.last_attention: np.ndarray | None = None

    def forward(self, x: Tensor) -> Tensor:
        L = x.shape[2]
        theta = T.transpose(self.theta(x), 0, 2, 1)         # [B,L,E]
        phi = T.transpose(self.phi(x), 0, 2, 1)             # [B,L,E]
        g = T.transpose(self.g(x), 0, 2, 1)                 # [B,L,E]
        softmax = self.normalizer == "softmax"
        scale = 1.0 if softmax else 1.0 / L
        y = T.attention(theta, phi, g, scale, softmax=softmax)
        if self.record_attention:
            self.last_attention = T.attention_weights(theta.data, phi.data, scale, softmax)
        return x + self.proj(T.transpose(y, 0, 2, 1))


class CBAMBlock(nn.Module):
    """Channel gate then spatial gate, both sigmoid-bounded.

    Channel stage: shared MLP applied to global-avg and global-max squeezes,
    summed, sigmoid, per-channel rescale.  Spatial stage: channel-mean and
    channel-max maps stacked to [B,2,L], convolved (odd kernel, same
    padding) to one map, sigmoid, broadcast rescale.
    """

    def __init__(self, rng: np.random.Generator, channels: int,
                 reduction_ratio: int = CBAM_RATIO, spatial_kernel: int = CBAM_KERNEL):
        super().__init__()
        if reduction_ratio < 1 or reduction_ratio > channels:
            raise ValueError(
                f"reduction_ratio must be in [1, {channels}], got {reduction_ratio}")
        if spatial_kernel % 2 == 0:
            raise ValueError(f"spatial_kernel must be odd, got {spatial_kernel}")
        self.channels = channels
        mid = channels // reduction_ratio
        self.mlp1 = nn.Dense(rng, channels, mid, init="kaiming")
        self.mlp2 = nn.Dense(rng, mid, channels)
        self.spatial_conv = nn.Conv1d(rng, 2, 1, spatial_kernel,
                                      padding="same", init="xavier")

    def _mlp(self, v: Tensor) -> Tensor:
        return self.mlp2(T.relu(self.mlp1(v)))

    def forward(self, x: Tensor) -> Tensor:
        B, C, L = x.shape
        cgate = T.sigmoid(self._mlp(T.global_pool(x, "avg"))
                          + self._mlp(T.global_pool(x, "max")))  # [B,C]
        gated = x * cgate.reshape(B, C, 1)
        maps = T.concat([T.reduce_mean(gated, axis=1, keepdims=True),
                         T.reduce_max(gated, axis=1, keepdims=True)], axis=1)
        sgate = T.sigmoid(self.spatial_conv(maps))               # [B,1,L]
        return gated * sgate


# ---------------------------------------------------------------------
# token-space encoder ([B,L,d] in, same shape out)
# ---------------------------------------------------------------------

def sinusoidal_encoding(length: int, d_model: int) -> np.ndarray:
    """Fixed sin/cos positional table of shape [length, d_model]."""
    pos = np.arange(length, dtype=np.float64)[:, None]
    idx = np.arange(d_model, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * np.floor(idx / 2.0) / d_model)
    table = np.where(idx.astype(int) % 2 == 0, np.sin(angle), np.cos(angle))
    return table


class MsaLayer(nn.Module):
    """One encoder layer: multi-head attention and feed-forward sublayers,
    each wrapped as layer_norm(residual + sublayer(x)).  The heads attend
    through ``T.attention`` with scale 1/sqrt(d_k)."""

    def __init__(self, rng: np.random.Generator, d_model: int, n_heads: int,
                 d_ff: int, record_attention: bool = False):
        super().__init__()
        if d_model % n_heads != 0:
            raise ValueError(f"d_model={d_model} not divisible by n_heads={n_heads}")
        self.d_model = d_model
        self.n_heads = n_heads
        self.d_k = d_model // n_heads
        self.record_attention = record_attention
        self.wq = nn.Dense(rng, d_model, d_model)
        self.wk = nn.Dense(rng, d_model, d_model)
        self.wv = nn.Dense(rng, d_model, d_model)
        self.wo = nn.Dense(rng, d_model, d_model)
        self.ln1 = nn.LayerNorm(d_model)
        self.ff1 = nn.Dense(rng, d_model, d_ff, init="kaiming")
        self.ff2 = nn.Dense(rng, d_ff, d_model)
        self.ln2 = nn.LayerNorm(d_model)
        self.last_attention: np.ndarray | None = None

    def _split_heads(self, t: Tensor, B: int, L: int) -> Tensor:
        return T.transpose(t.reshape(B, L, self.n_heads, self.d_k), 0, 2, 1, 3)

    def forward(self, x: Tensor) -> Tensor:
        B, L, d = x.shape
        q = self._split_heads(self.wq(x), B, L)              # [B,H,L,dk]
        k = self._split_heads(self.wk(x), B, L)
        v = self._split_heads(self.wv(x), B, L)
        scale = 1.0 / math.sqrt(self.d_k)
        ctx = T.attention(q, k, v, scale)                    # [B,H,L,dk]
        if self.record_attention:
            self.last_attention = T.attention_weights(q.data, k.data, scale)  # [B,H,L,L]
        ctx = T.transpose(ctx, 0, 2, 1, 3).reshape(B, L, d)
        x = self.ln1(x + self.wo(ctx))
        h = self.ff2(T.relu(self.ff1(x)))
        return self.ln2(x + h)


class MsaEncoder(nn.Module):
    """Sinusoidal positions added to the tokens, then a stack of identical
    MsaLayers."""

    def __init__(self, rng: np.random.Generator, cfg: MsaConfig):
        super().__init__()
        self.cfg = cfg
        self.layers = nn.ModuleList([
            MsaLayer(rng, cfg.d_model, cfg.n_heads, cfg.d_ff)
            for _ in range(cfg.n_layers)
        ])
        self._pe_cache: dict[int, np.ndarray] = {}

    def forward(self, tokens: Tensor) -> Tensor:
        L = tokens.shape[1]
        pe = self._pe_cache.get(L)
        if pe is None:
            pe = sinusoidal_encoding(L, self.cfg.d_model)
            self._pe_cache[L] = pe
        tokens = tokens + Tensor(pe, dtype=tokens.dtype)
        for layer in self.layers:
            tokens = layer(tokens)
        return tokens


def make_attention(rng: np.random.Generator, kind: AttentionKind,
                   channels: int) -> nn.Module:
    """Construct a feature-map attention block for the given channel width."""
    kind = AttentionKind(kind)
    if kind == AttentionKind.SE:
        return SEBlock(rng, channels)
    if kind == AttentionKind.NL:
        return NLBlock(rng, channels)
    if kind == AttentionKind.CBAM:
        return CBAMBlock(rng, channels)
    raise ValueError(f"no feature-map block for attention kind {kind.value!r}")
