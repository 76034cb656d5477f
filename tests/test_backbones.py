"""Backbone construction, parameter accounting, and level planning."""

import numpy as np
import pytest

import symbolic_counts as sym
from physiobench import backbones as bb
from physiobench.attention import AttentionKind, MsaConfig, MsaLayer
from physiobench.core import tensor as T


# ---------------------------------------------------------------------
# attention placement
# ---------------------------------------------------------------------

def test_placement_spot_values():
    assert bb.attention_placement(6, 50) == {2, 4, 6}
    assert bb.attention_placement(4, 100) == {1, 2, 3, 4}
    assert bb.attention_placement(5, 0) == frozenset()
    # a single module at 50% has no even index to attach to
    assert bb.attention_placement(1, 50) == frozenset()


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("fraction", [0, 50, 100])
def test_placement_matches_oracle(n, fraction):
    assert set(bb.attention_placement(n, fraction)) == sym.placement(n, fraction)


def test_placement_rejects_bad_args():
    with pytest.raises(ValueError):
        bb.attention_placement(4, 25)
    with pytest.raises(ValueError):
        bb.attention_placement(0, 50)


# ---------------------------------------------------------------------
# module widths and counted parameters vs the hand-derived oracle
# ---------------------------------------------------------------------

@pytest.mark.parametrize("family", bb.CNN_FAMILIES)
def test_module_channels_match_oracle(family):
    for level in range(1, bb.MAX_LEVEL[family] + 1):
        assert bb.module_channels(family, level) == sym.module_widths(family, level)


def test_module_channels_rejects_bad_args():
    with pytest.raises(ValueError):
        bb.module_channels("msa_only", 1)
    with pytest.raises(ValueError):
        bb.module_channels("vgg", 6)
    with pytest.raises(ValueError):
        bb.module_channels("resnet", 0)
    # Inception builds nine modules, but its levels stop at 8
    with pytest.raises(ValueError, match="level 9 out of range 1..8 for inception"):
        bb.module_channels("inception", 9)


FEATURE_ORACLES = {"vgg": sym.vgg_feature, "resnet": sym.resnet_feature,
                   "inception": sym.inception_feature}


@pytest.mark.parametrize("family", bb.CNN_FAMILIES)
def test_feature_counts_match_oracle(family):
    counts = bb.computed_level_table(family).counts
    for level in range(1, bb.MAX_LEVEL[family] + 1):
        assert counts[level - 1] == FEATURE_ORACLES[family](level)


@pytest.mark.parametrize("kind,oracle", [
    (AttentionKind.SE, sym.se_params),
    (AttentionKind.NL, sym.nl_params),
    (AttentionKind.CBAM, sym.cbam_params),
])
def test_attention_counts_match_oracle(kind, oracle):
    for c in {64, 128, 256, 512, 480, 512 + 20}:
        assert bb.attention_param_count(kind, c) == oracle(c)


def test_attention_count_rejects_none_and_msa():
    with pytest.raises(ValueError):
        bb.attention_param_count(AttentionKind.NONE, 64)
    with pytest.raises(ValueError):
        bb.attention_param_count(AttentionKind.MSA, 64)


@pytest.mark.parametrize("d_model", [16, 32, 64])
@pytest.mark.parametrize("d_ff", [32, 64, 128])
def test_msa_layer_count_matches_oracle(d_model, d_ff):
    layer = MsaLayer(np.random.default_rng(0), d_model, 2, d_ff)
    assert layer.num_params() == sym.msa_layer_params(d_model, d_ff)


def test_vgg_out_length():
    out = 2000
    for level in range(1, bb.MAX_LEVEL["vgg"] + 1):
        out //= 2   # each stage's max pool halves the length, floor
        assert bb.vgg_out_length(level) == out
    assert bb.vgg_out_length(1) == 1000
    assert bb.vgg_out_length(5) == 62  # 125 // 2, integer halving
    assert 512 * bb.vgg_out_length(5) == sym.vgg_flat_width(5)


CNN_MATRIX = [(f, k, fr)
              for f in bb.CNN_FAMILIES
              for k, fr in [("none", 0), ("se", 50), ("se", 100),
                            ("nl", 50), ("nl", 100), ("cbam", 50), ("cbam", 100)]]


@pytest.mark.parametrize("family,kind,fraction", CNN_MATRIX)
def test_model_counts_match_oracle(family, kind, fraction):
    # the counts count-params adds up, at every level: built backbones and
    # attention blocks without heads (VGG's heads make most levels too large
    # to build; whole built models are checked below)
    counts = bb.computed_level_table(family).counts
    for level in range(1, bb.MAX_LEVEL[family] + 1):
        total = counts[level - 1]
        if kind != "none":
            chans = bb.module_channels(family, level)
            total += sum(bb.attention_param_count(AttentionKind(kind), chans[i - 1])
                         for i in bb.attention_placement(level, fraction))
        assert total == sym.feature_and_attention_params(family, level, kind, fraction)


def test_resnet6_se50_literal():
    cfg = bb.ModelConfig(family="resnet", level=6, attention=AttentionKind.SE, fraction=50)
    assert bb.build_model(cfg, rng=0).num_params() == 1_227_121


@pytest.mark.parametrize("d_model,n_heads,d_ff,n_layers",
                         [(16, 2, 32, 1), (32, 4, 128, 2), (64, 8, 128, 3)])
def test_msa_model_counts_match_oracle(d_model, n_heads, d_ff, n_layers):
    cfg = bb.ModelConfig(family="msa_only", level=1, attention=AttentionKind.MSA,
                         msa=MsaConfig(d_model, n_heads, d_ff, n_layers))
    model = bb.build_model(cfg, rng=0)
    assert model.num_params() == sym.msa_only_params(d_model, d_ff, n_layers)


@pytest.mark.parametrize("d_model,n_heads,d_ff,n_layers",
                         [(16, 2, 32, 1), (32, 4, 128, 2)])
def test_built_msa_count_equals_closed_form(d_model, n_heads, d_ff, n_layers):
    # part by part: stem, each encoder layer, then the head
    cfg = bb.ModelConfig(family="msa_only", level=1, attention=AttentionKind.MSA,
                         msa=MsaConfig(d_model, n_heads, d_ff, n_layers))
    model = bb.build_model(cfg, rng=0)
    assert model.stem.num_params() == sym.conv(bb.IN_CHANNELS, d_model, bb.MSA_STEM_KERNEL)
    assert len(model.encoder.layers) == n_layers
    for layer in model.encoder.layers:
        assert layer.num_params() == sym.msa_layer_params(d_model, d_ff)
    assert model.head_fc1.num_params() == sym.dense(d_model, d_model)
    assert (model.head_out.num_params()
            == sym.dense(d_model + bb.DEMOGRAPHICS_DIM, 1))


# ---------------------------------------------------------------------
# built models agree with the hand-derived oracle
# ---------------------------------------------------------------------

BUILD_CASES = (
    [("resnet", lvl, k, fr) for lvl in (1, 6, 8)
     for k, fr in [("none", 0), ("se", 50), ("nl", 100), ("cbam", 50)]]
    + [("inception", lvl, k, fr) for lvl in (1, 4, 8)
       for k, fr in [("none", 0), ("se", 50), ("nl", 100), ("cbam", 50)]]
    + [("vgg", 5, "none", 0), ("vgg", 5, "se", 50), ("vgg", 5, "nl", 100),
       ("vgg", 5, "cbam", 100)]
)


@pytest.mark.parametrize("family,level,kind,fraction", BUILD_CASES)
def test_built_count_equals_closed_form(family, level, kind, fraction, float32_mode):
    cfg = bb.ModelConfig(family=family, level=level,
                         attention=AttentionKind(kind), fraction=fraction)
    model = bb.build_model(cfg, rng=0)
    assert model.num_params() == sym.model_params(family, level, kind, fraction)


def test_attention_slots_follow_placement():
    cfg = bb.ModelConfig(family="resnet", level=6, attention=AttentionKind.SE, fraction=50)
    model = bb.build_model(cfg, rng=0)
    placed = {i for i, blk in enumerate(model.attn, start=1)
              if not isinstance(blk, bb.Identity)}
    assert len(model.attn) == 6 and placed == bb.attention_placement(6, 50)


# ---------------------------------------------------------------------
# forward execution
# ---------------------------------------------------------------------

def _inputs(rng, batch=3):
    x = rng.normal(size=(batch, bb.IN_CHANNELS, bb.SEGMENT_LEN))
    demo = rng.normal(size=(batch, bb.DEMOGRAPHICS_DIM))
    return x, demo


FORWARD_CASES = [
    bb.ModelConfig(family="vgg", level=5),
    bb.ModelConfig(family="resnet", level=6, attention=AttentionKind.SE, fraction=50),
    bb.ModelConfig(family="inception", level=4, attention=AttentionKind.CBAM, fraction=100),
    bb.ModelConfig(family="resnet", level=2, attention=AttentionKind.NL, fraction=100),
    bb.ModelConfig(family="msa_only", level=1, attention=AttentionKind.MSA,
                   msa=MsaConfig(32, 4, 128, 2)),
]


@pytest.mark.parametrize("cfg", FORWARD_CASES, ids=lambda c: f"{c.family}-{c.attention.value}")
def test_forward_shapes(cfg, float32_mode):
    model = bb.build_model(cfg, rng=1)
    rng = np.random.default_rng(7)
    x, demo = _inputs(rng)
    out = model(x, demo)  # raw numpy in, auto-wrapped
    assert out.shape == (3, 1)
    assert out.data.dtype == np.float32
    assert np.all(np.isfinite(out.data))


def test_demographics_change_output(float32_mode):
    cfg = bb.ModelConfig(family="resnet", level=2)
    model = bb.build_model(cfg, rng=3)
    model.train(False)
    rng = np.random.default_rng(11)
    x, demo = _inputs(rng)
    a = model(x, demo).data
    b = model(x, demo + 1.0).data
    assert not np.allclose(a, b)


def test_forward_rejects_bad_ndim(float32_mode):
    model = bb.build_model(bb.ModelConfig(family="resnet", level=1), rng=0)
    rng = np.random.default_rng(0)
    x, demo = _inputs(rng)
    with pytest.raises(T.ShapeError):
        model(x[0], demo)
    with pytest.raises(T.ShapeError):
        model(x, demo[0])


def test_msa_stem_tokenizes_to_199(float32_mode):
    cfg = bb.ModelConfig(family="msa_only", level=1, attention=AttentionKind.MSA,
                         msa=MsaConfig(32, 4, 128, 2))
    model = bb.build_model(cfg, rng=0)
    x = T.Tensor(np.zeros((2, 2, 2000)), dtype=np.float32)
    assert model.stem(x).shape == (2, 32, 199)


def test_backward_reaches_every_parameter():
    cfg = bb.ModelConfig(family="resnet", level=2, attention=AttentionKind.SE, fraction=50)
    model = bb.build_model(cfg, rng=5)
    rng = np.random.default_rng(5)
    x, demo = _inputs(rng, batch=2)
    loss = T.reduce_mean(model(x, demo) ** 2)
    loss.backward()
    grads = [p.grad for _, p in model.named_parameters()]
    assert all(np.all(np.isfinite(g)) for g in grads)
    assert max(np.abs(g).max() for g in grads) > 0


# ---------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------

def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        bb.ModelConfig(family="alexnet", level=1)
    with pytest.raises(ValueError):
        bb.ModelConfig(family="resnet", level=0)
    with pytest.raises(ValueError):
        bb.ModelConfig(family="vgg", level=6)
    with pytest.raises(ValueError):
        bb.ModelConfig(family="resnet", level=1, task="ranking")
    with pytest.raises(ValueError):
        bb.ModelConfig(family="resnet", level=1, attention=AttentionKind.SE, fraction=25)


def test_config_msa_family_coupling():
    msa = MsaConfig(32, 4, 128, 2)
    with pytest.raises(ValueError):  # msa attention on a CNN family
        bb.ModelConfig(family="resnet", level=1, attention=AttentionKind.MSA, msa=msa)
    with pytest.raises(ValueError):  # msa_only without the msa attention kind
        bb.ModelConfig(family="msa_only", level=1, attention=AttentionKind.SE, msa=msa)
    with pytest.raises(ValueError):  # msa_only needs an MsaConfig
        bb.ModelConfig(family="msa_only", level=1, attention=AttentionKind.MSA)
    with pytest.raises(ValueError):  # fraction is meaningless for msa_only
        bb.ModelConfig(family="msa_only", level=1, attention=AttentionKind.MSA,
                       msa=msa, fraction=50)


def test_config_none_requires_fraction_zero():
    with pytest.raises(ValueError):
        bb.ModelConfig(family="vgg", level=1, fraction=50)


def test_config_coerces_string_kind():
    cfg = bb.ModelConfig(family="resnet", level=1, attention="se", fraction=100)
    assert cfg.attention is AttentionKind.SE


# ---------------------------------------------------------------------
# level planning
# ---------------------------------------------------------------------

def test_published_tables_pick_default_levels():
    for family in bb.CNN_FAMILIES:
        assert bb.select_level(bb.PUBLISHED_TABLES[family]) == bb.DEFAULT_LEVEL[family]


def test_published_trends():
    assert bb.level_trend(bb.PUBLISHED_TABLES["vgg"]) == "decreasing"
    assert bb.level_trend(bb.PUBLISHED_TABLES["resnet"]) == "increasing"
    assert bb.level_trend(bb.PUBLISHED_TABLES["inception"]) == "increasing"


def test_published_thresholds():
    assert bb.PUBLISHED_TABLES["resnet"].threshold == pytest.approx(769_830.4)
    assert bb.PUBLISHED_TABLES["inception"].threshold == pytest.approx(683_452.8)


def test_select_tie_goes_shallower():
    table = bb.LevelTable("custom", (10, 10, 50), 50)
    assert bb.select_level(table) == 1


def test_select_raises_when_nothing_reaches_threshold():
    table = bb.LevelTable("custom", (5, 8), 100)
    with pytest.raises(ValueError, match="threshold"):
        bb.select_level(table)


def test_trend_mixed_and_short():
    assert bb.level_trend(bb.LevelTable("c", (5, 9, 7), 7)) == "mixed"
    with pytest.raises(ValueError):
        bb.level_trend(bb.LevelTable("c", (5,), 5))


def test_level_table_validation():
    with pytest.raises(ValueError):
        bb.LevelTable("c", (), 1)
    for counts, default in (((5, 0, 9), 9), ((5, -1), 9), ((5, 9), 0), ((5, 9), -9)):
        with pytest.raises(ValueError, match="positive"):
            bb.LevelTable("c", counts, default)


# modules in each family's whole feature extractor; Inception's levels stop
# one short of its nine modules
ALL_MODULES = {"vgg": len(sym.VGG_STAGES), "resnet": len(sym.RESNET_BLOCKS),
               "inception": len(sym.INCEPTION_MODULES)}


@pytest.mark.parametrize("family", bb.CNN_FAMILIES)
def test_computed_table_matches_closed_form(family):
    # feature-extractor counts, the quantity the default/5 rule is stated on;
    # the full-size count is the whole extractor, every module built
    table = bb.computed_level_table(family)
    assert table.family == family
    assert len(table.counts) == bb.MAX_LEVEL[family]
    for level, count in enumerate(table.counts, start=1):
        assert count == FEATURE_ORACLES[family](level)
    assert table.default_count == FEATURE_ORACLES[family](ALL_MODULES[family])


@pytest.mark.parametrize("family", bb.CNN_FAMILIES)
def test_computed_table_builds_the_backbone_once(family, monkeypatch):
    builds = []

    def counted(*args):
        builds.append(args[:2])
        return backbone(*args)

    backbone = bb._backbone
    monkeypatch.setattr(bb, "_backbone", counted)
    bb.computed_level_table(family)
    assert builds == [(family, None)]


def test_computed_table_defaults_are_the_whole_networks():
    defaults = {f: bb.computed_level_table(f).default_count for f in bb.CNN_FAMILIES}
    assert defaults == {"vgg": 4_907_520, "resnet": 3_849_152, "inception": 3_417_264}
    assert defaults["inception"] == bb.PUBLISHED_TABLES["inception"].default_count


@pytest.mark.parametrize("family", ["resnet", "inception"])
def test_computed_table_reproduces_published_feature_counts(family):
    # the published VGG rungs include their dense heads; these two do not
    assert bb.computed_level_table(family).counts == bb.PUBLISHED_TABLES[family].counts


def test_computed_table_rejects_msa():
    with pytest.raises(ValueError):
        bb.computed_level_table("msa_only")
