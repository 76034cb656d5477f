"""Level-truncated 1D backbones with pluggable attention, plus the
parameter-count planning calculus used to pick each family's depth.

Families
--------
* ``vgg`` — plain conv stages (2–3 convs + max pool each, no norm layers),
  truncatable after any of its 5 stages; flattened dense head.
* ``resnet`` — 7-wide strided stem then 8 two-conv residual blocks with
  batch norm, downsampling at blocks 3/5/7; pooled dense head.
* ``inception`` — conv stem then up to 9 four-branch modules
  (1x1 / 1x1-3 / 1x1-5 / pool-1x1, concatenated; no norm layers, matching
  the original architecture), inter-module pools after modules 2 and 7;
  pooled dense head.
* ``msa_only`` — a stride-10 conv stem tokenizes the waveform (2000 samples
  -> 199 tokens) feeding a transformer encoder; pooled dense head.

A "module" is the attention attachment unit: a VGG stage, a residual
block, or an inception module.  Attention blocks are appended at module
outputs per :func:`attention_placement`.

All models take ``[B, 2, 2000]`` waveforms plus ``[B, 4]`` demographics
(fused after the first dense head layer) and emit a single output: a logit
for classification or a value for regression.

The planning side (:class:`LevelTable`, :func:`select_level`,
:func:`level_trend`) operates on externally supplied per-level counts; the
published counts used as planner inputs live in :data:`PUBLISHED_TABLES`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from types import MappingProxyType

import numpy as np

from .attention import AttentionKind, MsaConfig, MsaEncoder, make_attention
from .core import nn
from .core import tensor as T
from .core.tensor import Tensor
from .datapipe import DEMOGRAPHICS_DIM, IN_CHANNELS, SEGMENT_LEN, TASKS

FAMILIES = ("vgg", "resnet", "inception", "msa_only")
CNN_FAMILIES = ("vgg", "resnet", "inception")
MAX_LEVEL = MappingProxyType({"vgg": 5, "resnet": 8, "inception": 8, "msa_only": 1})
DEFAULT_LEVEL = MappingProxyType({"vgg": 5, "resnet": 6, "inception": 4, "msa_only": 1})
FRACTIONS = (0, 50, 100)

# msa_only stem: a stride-10, width-20 conv turns 2000 samples into 199 tokens
MSA_STEM_KERNEL = 20
MSA_STEM_STRIDE = 10

# (out_channels, n_convs) per VGG stage; every conv k3/s1/same + relu,
# stage ends with max pool w2/s2.
VGG_STAGES = ((64, 2), (128, 2), (256, 3), (512, 3), (512, 3))
VGG_FC_WIDTH = 4096

# (out_channels, first_conv_stride) per residual block.
RESNET_BLOCKS = ((64, 1), (64, 1), (128, 2), (128, 1),
                 (256, 2), (256, 1), (512, 2), (512, 1))

# (b1, reduce3, out3, reduce5, out5, pool_proj) per inception module.
INCEPTION_MODULES = (
    (64, 96, 128, 16, 32, 32),
    (128, 128, 192, 32, 96, 64),
    (192, 96, 208, 16, 48, 64),
    (160, 112, 224, 24, 64, 64),
    (128, 128, 256, 24, 64, 64),
    (112, 144, 288, 32, 64, 64),
    (256, 160, 320, 32, 128, 128),
    (256, 160, 320, 32, 128, 128),
    (384, 192, 384, 48, 128, 128),
)
# output channels of each inception module: its four branches concatenated
INCEPTION_WIDTHS = tuple(b1 + o3 + o5 + pp for b1, _, o3, _, o5, pp in INCEPTION_MODULES)
INCEPTION_STEM_OUT = 192
INCEPTION_POOL_AFTER = frozenset({2, 7})

GAP_FC_WIDTH = 1000  # head width for the globally pooled families


def module_channels(family: str, level: int) -> list[int]:
    """Output channel width of each attachable module, modules 1..level."""
    if family == "vgg":
        chans = [c for c, _ in VGG_STAGES]
    elif family == "resnet":
        chans = [c for c, _ in RESNET_BLOCKS]
    elif family == "inception":
        chans = list(INCEPTION_WIDTHS)
    else:
        raise ValueError(f"no CNN modules for family {family!r}")
    if not 1 <= level <= len(chans):
        raise ValueError(f"level {level} out of range 1..{len(chans)} for {family}")
    return chans[:level]


def attention_placement(n_modules: int, fraction: int) -> frozenset[int]:
    """1-based module indices that receive an attention block.

    fraction 0 -> none; 50 -> every second module (even indices); 100 -> all.
    """
    if n_modules < 1:
        raise ValueError(f"n_modules must be >= 1, got {n_modules}")
    if fraction == 0:
        return frozenset()
    if fraction == 50:
        return frozenset(range(2, n_modules + 1, 2))
    if fraction == 100:
        return frozenset(range(1, n_modules + 1))
    raise ValueError(f"fraction must be one of {FRACTIONS}, got {fraction}")


@dataclass(frozen=True)
class ModelConfig:
    """Everything needed to build one benchmark model."""

    family: str
    level: int
    attention: AttentionKind = AttentionKind.NONE
    fraction: int = 0
    msa: MsaConfig | None = None
    task: str = "classification"

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}; expected one of {TASKS}")
        object.__setattr__(self, "attention", AttentionKind(self.attention))
        if self.fraction not in FRACTIONS:
            raise ValueError(f"fraction must be one of {FRACTIONS}, got {self.fraction}")
        if not 1 <= self.level <= MAX_LEVEL[self.family]:
            raise ValueError(
                f"level {self.level} out of range 1..{MAX_LEVEL[self.family]} for {self.family}")
        if (self.attention == AttentionKind.MSA) != (self.family == "msa_only"):
            raise ValueError("attention 'msa' and family 'msa_only' imply each other")
        if self.family == "msa_only":
            if self.msa is None:
                raise ValueError("family 'msa_only' requires an MsaConfig")
            if self.fraction != 0:
                raise ValueError("fraction does not apply to msa_only; use 0")
        if self.attention == AttentionKind.NONE and self.fraction != 0:
            raise ValueError("attention 'none' requires fraction 0")


# ---------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------

class Identity(nn.Module):
    def forward(self, x: Tensor) -> Tensor:
        return x


class VggStage(nn.Module):
    def __init__(self, rng, in_ch: int, out_ch: int, n_convs: int):
        super().__init__()
        convs = []
        c = in_ch
        for _ in range(n_convs):
            convs.append(nn.Conv1d(rng, c, out_ch, 3))
            c = out_ch
        self.convs = nn.ModuleList(convs)

    def forward(self, x: Tensor) -> Tensor:
        for conv in self.convs:
            x = conv(x, relu=True)
        return T.pool1d(x, "max", 2, 2)


# Every ResNet conv (stem, block and downsample) keeps its bias although a
# BatchNorm1d follows it, which subtracts the channel mean and so gives that
# bias a zero gradient: the published level counts include these biases, and
# computed_level_table matches PUBLISHED_TABLES["resnet"] (level 1: 26,048)
# only with them.
class ResNetStem(nn.Module):
    def __init__(self, rng, in_ch: int):
        super().__init__()
        self.conv = nn.Conv1d(rng, in_ch, 64, 7, stride=2)
        self.bn = nn.BatchNorm1d(64)

    def forward(self, x: Tensor) -> Tensor:
        x = self.bn(self.conv(x), relu=True)
        return T.pool1d(x, "max", 3, 2, padding="same")


class ResNetBlock(nn.Module):
    def __init__(self, rng, in_ch: int, out_ch: int, stride: int):
        super().__init__()
        self.conv1 = nn.Conv1d(rng, in_ch, out_ch, 3, stride=stride)
        self.bn1 = nn.BatchNorm1d(out_ch)
        self.conv2 = nn.Conv1d(rng, out_ch, out_ch, 3)
        self.bn2 = nn.BatchNorm1d(out_ch)
        if stride != 1 or in_ch != out_ch:
            self.down_conv = nn.Conv1d(rng, in_ch, out_ch, 1, stride=stride)
            self.down_bn = nn.BatchNorm1d(out_ch)
        else:
            self.down_conv = None
            self.down_bn = None

    def forward(self, x: Tensor) -> Tensor:
        out = self.bn1(self.conv1(x), relu=True)
        out = self.bn2(self.conv2(out))
        skip = x if self.down_conv is None else self.down_bn(self.down_conv(x))
        return T.add(out, skip, relu=True)


class InceptionStem(nn.Module):
    def __init__(self, rng, in_ch: int):
        super().__init__()
        self.conv1 = nn.Conv1d(rng, in_ch, 64, 7, stride=2)
        self.conv2 = nn.Conv1d(rng, 64, INCEPTION_STEM_OUT, 3)

    def forward(self, x: Tensor) -> Tensor:
        x = self.conv1(x, relu=True)
        x = T.pool1d(x, "max", 3, 2, padding="same")
        x = self.conv2(x, relu=True)
        return T.pool1d(x, "max", 3, 2, padding="same")


class InceptionModule(nn.Module):
    def __init__(self, rng, in_ch: int, spec: tuple[int, ...]):
        super().__init__()
        b1, r3, o3, r5, o5, pp = spec
        self.conv_b1 = nn.Conv1d(rng, in_ch, b1, 1)
        self.conv_r3 = nn.Conv1d(rng, in_ch, r3, 1)
        self.conv_o3 = nn.Conv1d(rng, r3, o3, 3)
        self.conv_r5 = nn.Conv1d(rng, in_ch, r5, 1)
        self.conv_o5 = nn.Conv1d(rng, r5, o5, 5)
        self.conv_pp = nn.Conv1d(rng, in_ch, pp, 1)

    def forward(self, x: Tensor) -> Tensor:
        b1 = self.conv_b1(x, relu=True)
        b3 = self.conv_o3(self.conv_r3(x, relu=True), relu=True)
        b5 = self.conv_o5(self.conv_r5(x, relu=True), relu=True)
        bp = self.conv_pp(T.pool1d(x, "max", 3, 1, padding="same"), relu=True)
        return T.concat([b1, b3, b5, bp], axis=1)


def vgg_out_length(level: int) -> int:
    """Sequence length after ``level`` VGG stages, each halving (floor)."""
    out = SEGMENT_LEN
    for _ in range(level):
        out //= 2
    return out


def _backbone(family: str, level: int | None,
              rng) -> tuple[nn.Module | None, list[nn.Module]]:
    """The stem (None for VGG) and the first ``level`` blocks of a CNN;
    every block of the family when ``level`` is None."""
    blocks: list[nn.Module] = []
    if family == "vgg":
        stem = None
        c = IN_CHANNELS
        for out_ch, n_convs in VGG_STAGES[:level]:
            blocks.append(VggStage(rng, c, out_ch, n_convs))
            c = out_ch
    elif family == "resnet":
        stem = ResNetStem(rng, IN_CHANNELS)
        c = 64
        for out_ch, stride in RESNET_BLOCKS[:level]:
            blocks.append(ResNetBlock(rng, c, out_ch, stride))
            c = out_ch
    elif family == "inception":
        stem = InceptionStem(rng, IN_CHANNELS)
        c = INCEPTION_STEM_OUT
        for spec, width in zip(INCEPTION_MODULES[:level], INCEPTION_WIDTHS):
            blocks.append(InceptionModule(rng, c, spec))
            c = width
    else:
        raise ValueError(f"no CNN backbone for family {family!r}")
    return stem, blocks


# ---------------------------------------------------------------------
# the assembled model
# ---------------------------------------------------------------------

class BuiltModel(nn.Module):
    """Backbone + attention + demographics-fused head, per a ModelConfig."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        super().__init__()
        self.cfg = cfg
        if cfg.family == "msa_only":
            self._build_msa(cfg, rng)
        else:
            self._build_cnn(cfg, rng)
        self._dtype = self.parameters()[0].data.dtype

    # -- construction ---------------------------------------------------
    def _build_cnn(self, cfg: ModelConfig, rng) -> None:
        self.stem, blocks = _backbone(cfg.family, cfg.level, rng)
        self.blocks = nn.ModuleList(blocks)

        chans = module_channels(cfg.family, cfg.level)
        placed = attention_placement(cfg.level, cfg.fraction)
        attn: list[nn.Module] = []
        for i, ch in enumerate(chans, start=1):
            if i in placed:
                attn.append(make_attention(rng, cfg.attention, ch))
            else:
                attn.append(Identity())
        self.attn = nn.ModuleList(attn)

        if cfg.family == "vgg":
            flat = chans[-1] * vgg_out_length(cfg.level)
            self.head_fc1 = nn.Dense(rng, flat, VGG_FC_WIDTH, init="kaiming")
            self.head_fc2 = nn.Dense(rng, VGG_FC_WIDTH + DEMOGRAPHICS_DIM,
                                     VGG_FC_WIDTH, init="kaiming")
            self.head_out = nn.Dense(rng, VGG_FC_WIDTH, 1)
        else:
            self.head_fc1 = nn.Dense(rng, chans[-1], GAP_FC_WIDTH, init="kaiming")
            self.head_fc2 = None
            self.head_out = nn.Dense(rng, GAP_FC_WIDTH + DEMOGRAPHICS_DIM, 1)

    def _build_msa(self, cfg: ModelConfig, rng) -> None:
        d = cfg.msa.d_model
        self.stem = nn.Conv1d(rng, IN_CHANNELS, d, MSA_STEM_KERNEL,
                              stride=MSA_STEM_STRIDE, padding="valid",
                              init="xavier")
        self.encoder = MsaEncoder(rng, cfg.msa)
        self.head_fc1 = nn.Dense(rng, d, d, init="kaiming")
        self.head_fc2 = None
        self.head_out = nn.Dense(rng, d + DEMOGRAPHICS_DIM, 1)

    # -- execution --------------------------------------------------------
    def _as_input(self, value, name: str, want_ndim: int) -> Tensor:
        t = value if isinstance(value, Tensor) else Tensor(value, dtype=self._dtype)
        if t.ndim != want_ndim:
            raise T.ShapeError(f"{name} must be {want_ndim}D, got shape {t.shape}")
        return t

    def forward(self, x, demographics) -> Tensor:
        x = self._as_input(x, "waveforms", 3)
        demo = self._as_input(demographics, "demographics", 2)
        if self.cfg.family == "msa_only":
            tokens = T.transpose(self.stem(x), 0, 2, 1)
            tokens = self.encoder(tokens)
            h = T.reduce_mean(tokens, axis=1)
        else:
            h = self.stem(x) if self.stem is not None else x
            for i, (block, att) in enumerate(zip(self.blocks, self.attn), start=1):
                h = att(block(h))
                if (self.cfg.family == "inception"
                        and i in INCEPTION_POOL_AFTER and i < self.cfg.level):
                    h = T.pool1d(h, "max", 3, 2, padding="same")
            if self.cfg.family == "vgg":
                B = h.shape[0]
                h = h.reshape(B, h.shape[1] * h.shape[2])
            else:
                h = T.global_pool(h, "avg")
        h = T.relu(self.head_fc1(h))
        h = T.concat([h, demo], axis=1)
        if self.head_fc2 is not None:
            h = T.relu(self.head_fc2(h))
        return self.head_out(h)


def build_model(cfg: ModelConfig, rng=0) -> BuiltModel:
    """Materialize a config; ``rng`` is a seed or a numpy Generator."""
    return BuiltModel(cfg, np.random.default_rng(rng))


# ---------------------------------------------------------------------
# parameter accounting, read off freshly built modules
# ---------------------------------------------------------------------

def attention_param_count(kind: AttentionKind, channels: int) -> int:
    """Parameters of one feature-map attention block at ``channels`` wide."""
    return make_attention(np.random.default_rng(0), kind, channels).num_params()


# ---------------------------------------------------------------------
# level planning
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class LevelTable:
    """Per-level trainable-parameter counts plus the full-model reference."""

    family: str
    counts: tuple[int, ...]  # level i+1's count at counts[i]
    default_count: int

    def __post_init__(self):
        if not self.counts:
            raise ValueError("level table needs at least one level")
        if min(self.counts) <= 0 or self.default_count <= 0:
            raise ValueError(
                f"parameter counts must be positive, got counts {list(self.counts)} "
                f"and default {self.default_count}")

    @property
    def threshold(self) -> float:
        """Planning cutoff: one fifth of the full model's parameter count."""
        return self.default_count / 5


def select_level(table: LevelTable) -> int:
    """Smallest level count still at or above default/5; ties pick the
    shallower level."""
    eligible = [(count, level) for level, count in enumerate(table.counts, start=1)
                if count >= table.threshold]
    if not eligible:
        raise ValueError(
            f"no {table.family} level reaches threshold {table.threshold:.1f}; "
            f"largest available count is {max(table.counts)}")
    return min(eligible)[1]


def level_trend(table: LevelTable) -> str:
    """'increasing' / 'decreasing' when strictly monotone in level, else 'mixed'."""
    counts = table.counts
    if len(counts) < 2:
        raise ValueError("trend needs at least two levels")
    if all(a < b for a, b in zip(counts, counts[1:])):
        return "increasing"
    if all(a > b for a, b in zip(counts, counts[1:])):
        return "decreasing"
    return "mixed"


# Published per-level counts used as planner inputs (not produced by this
# package's own counter; head reconstructions differ — see README).
PUBLISHED_TABLES = MappingProxyType({
    "vgg": LevelTable("vgg", (
        192_128_065, 189_891_329, 130_614_785, 90_639_361, 40_567_296,
    ), 40_567_296),
    "resnet": LevelTable("resnet", (
        26_048, 51_008, 134_080, 233_152, 563_136, 957_888, 2_273_216, 3_849_152,
    ), 3_849_152),
    "inception": LevelTable("inception", (
        117_744, 297_584, 538_592, 806_504, 1_089_280, 1_404_864, 1_884_096, 2_538_432,
    ), 3_417_264),
})


def computed_level_table(family: str) -> LevelTable:
    """Level table from this package's own feature extractor, built once
    with every module and without head or attention, as in the published
    tables: level l counts the stem and the first l modules, and the full
    size counts all of them (Inception's ninth module lies past level 8)."""
    if family not in CNN_FAMILIES:
        raise ValueError(f"level tables exist for CNN families only, got {family!r}")
    stem, blocks = _backbone(family, None, np.random.default_rng(0))
    sums = tuple(accumulate((b.num_params() for b in blocks),
                            initial=0 if stem is None else stem.num_params()))
    return LevelTable(family, sums[1:MAX_LEVEL[family] + 1], sums[-1])
