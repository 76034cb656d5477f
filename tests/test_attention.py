"""Attention blocks against naive numpy references and exact gate identities."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from physiobench.attention import (MsaConfig, MsaEncoder, MsaLayer, NLBlock,
                                   CBAMBlock, SEBlock, AttentionKind,
                                   make_attention, msa_grid,
                                   sinusoidal_encoding)
from physiobench.core import tensor as T
from physiobench.core.gradcheck import grad_check
from physiobench.core.tensor import Tensor

SEEDS = range(10)


def _dense(h, layer):
    return h @ layer.weight.data + layer.bias.data


def _conv1x1(x, layer):
    # a 1x1 conv is a per-position channel mix
    w = layer.weight.data[:, :, 0]
    return np.einsum("oc,bcl->bol", w, x) + layer.bias.data[None, :, None]


def _softmax_rows(s):
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _layernorm(h, layer, eps=1e-5):
    mu = h.mean(-1, keepdims=True)
    var = h.var(-1, keepdims=True)
    return (h - mu) / np.sqrt(var + eps) * layer.gamma.data + layer.beta.data


# ---------------------------------------------------------------------
# squeeze-and-excitation
# ---------------------------------------------------------------------

def test_se_parameter_count_16_channels_ratio_4():
    blk = SEBlock(np.random.default_rng(0), 16, reduction_ratio=4)
    assert blk.num_params() == 148


def test_se_gate_matches_naive_and_is_bounded():
    rng = np.random.default_rng(1)
    blk = SEBlock(rng, 8, reduction_ratio=4)
    x = rng.normal(size=(3, 8, 12))
    out = blk(Tensor(x))
    squeezed = x.mean(axis=2)
    hidden = np.maximum(_dense(squeezed, blk.fc1), 0.0)
    gate = 1.0 / (1.0 + np.exp(-_dense(hidden, blk.fc2)))
    npt.assert_allclose(blk.last_gate, gate, rtol=1e-12)
    npt.assert_allclose(out.data, x * gate[:, :, None], rtol=1e-12)
    assert (blk.last_gate > 0).all() and (blk.last_gate < 1).all()


def test_se_gate_identity_and_annihilation():
    rng = np.random.default_rng(2)
    blk = SEBlock(rng, 6, reduction_ratio=2)
    x = rng.normal(size=(2, 6, 9))
    blk.fc2.weight.data[...] = 0.0
    blk.fc2.bias.data[...] = 60.0     # sigmoid saturates to exactly 1.0
    npt.assert_array_equal(blk(Tensor(x)).data, x)
    blk.fc2.bias.data[...] = -60.0
    assert np.abs(blk(Tensor(x)).data).max() < 1e-20


def test_se_rejects_ratio_above_channels():
    with pytest.raises(ValueError):
        SEBlock(np.random.default_rng(0), 8, reduction_ratio=16)


@pytest.mark.parametrize("seed", SEEDS)
def test_se_grad_check(seed):
    rng = np.random.default_rng(seed)
    blk = SEBlock(rng, 6, reduction_ratio=2)
    x = Tensor(rng.normal(size=(2, 6, 5)))
    probe = Tensor(rng.normal(size=(2, 6, 5)))
    assert grad_check(lambda: T.reduce_sum(blk(x) * probe), blk.parameters()) < 1e-4


# ---------------------------------------------------------------------
# non-local block
# ---------------------------------------------------------------------

def naive_nl(x, blk):
    theta = _conv1x1(x, blk.theta).transpose(0, 2, 1)       # [B,L,E]
    phi = _conv1x1(x, blk.phi)                              # [B,E,L]
    scores = theta @ phi                                    # [B,L,L]
    if blk.normalizer == "softmax":
        attn = _softmax_rows(scores)
    else:
        attn = scores / x.shape[2]
    g = _conv1x1(x, blk.g).transpose(0, 2, 1)               # [B,L,E]
    y = (attn @ g).transpose(0, 2, 1)                       # [B,E,L]
    return x + _conv1x1(y, blk.proj), attn


@pytest.mark.parametrize("normalizer", ["softmax", "dot"])
def test_nl_matches_naive_reference(normalizer):
    rng = np.random.default_rng(3)
    blk = NLBlock(rng, 8, zero_init=False, normalizer=normalizer,
                  record_attention=True)
    x = rng.normal(size=(2, 8, 16))
    out = blk(Tensor(x))
    want, attn = naive_nl(x, blk)
    npt.assert_allclose(out.data, want, atol=1e-6, rtol=1e-9)
    npt.assert_allclose(blk.last_attention, attn, atol=1e-6, rtol=1e-9)
    if normalizer == "softmax":
        npt.assert_allclose(blk.last_attention.sum(-1), 1.0, rtol=1e-12)


def test_nl_zero_init_is_exact_identity():
    rng = np.random.default_rng(4)
    blk = NLBlock(rng, 8)
    x = rng.normal(size=(2, 8, 16))
    npt.assert_array_equal(blk(Tensor(x)).data, x)


def test_nl_needs_two_channels():
    with pytest.raises(ValueError):
        NLBlock(np.random.default_rng(0), 1)


@pytest.mark.parametrize("seed", SEEDS)
def test_nl_grad_check(seed):
    rng = np.random.default_rng(seed)
    blk = NLBlock(rng, 4, zero_init=False)   # zero proj would hide theta/phi grads
    x = Tensor(rng.normal(size=(2, 4, 7)))
    probe = Tensor(rng.normal(size=(2, 4, 7)))
    assert grad_check(lambda: T.reduce_sum(blk(x) * probe), blk.parameters()) < 1e-4


# ---------------------------------------------------------------------
# CBAM
# ---------------------------------------------------------------------

def naive_cbam(x, blk):
    def mlp(v):
        return _dense(np.maximum(_dense(v, blk.mlp1), 0.0), blk.mlp2)

    cgate = 1.0 / (1.0 + np.exp(-(mlp(x.mean(2)) + mlp(x.max(2)))))
    gated = x * cgate[:, :, None]
    maps = np.stack([gated.mean(1), gated.max(1)], axis=1)   # [B,2,L]
    w = blk.spatial_conv.weight.data                         # [1,2,K]
    K = w.shape[2]
    pad = (K - 1) // 2
    padded = np.pad(maps, ((0, 0), (0, 0), (pad, K - 1 - pad)))
    L = x.shape[2]
    smap = np.zeros((x.shape[0], L))
    for t in range(L):
        smap[:, t] = (padded[:, :, t:t + K] * w[0]).sum(axis=(1, 2))
    sgate = 1.0 / (1.0 + np.exp(-(smap + blk.spatial_conv.bias.data[0])))
    return gated * sgate[:, None, :], cgate, sgate


def test_cbam_matches_naive_reference():
    rng = np.random.default_rng(5)
    blk = CBAMBlock(rng, 8, reduction_ratio=4, spatial_kernel=7)
    x = rng.normal(size=(2, 8, 16))
    out = blk(Tensor(x))
    want, cgate, sgate = naive_cbam(x, blk)
    npt.assert_allclose(out.data, want, atol=1e-10)
    npt.assert_allclose(blk.last_channel_gate, cgate, atol=1e-12)
    npt.assert_allclose(blk.last_spatial_gate[:, 0, :], sgate, atol=1e-10)


def test_cbam_gate_identity_and_annihilation():
    rng = np.random.default_rng(6)
    blk = CBAMBlock(rng, 4, reduction_ratio=2, spatial_kernel=3)
    x = rng.normal(size=(2, 4, 10))
    blk.mlp2.weight.data[...] = 0.0
    blk.mlp2.bias.data[...] = 60.0
    blk.spatial_conv.weight.data[...] = 0.0
    blk.spatial_conv.bias.data[...] = 60.0
    npt.assert_array_equal(blk(Tensor(x)).data, x)   # both gates exactly 1
    blk.spatial_conv.bias.data[...] = -60.0
    assert np.abs(blk(Tensor(x)).data).max() < 1e-20


def test_cbam_rejects_even_spatial_kernel():
    with pytest.raises(ValueError):
        CBAMBlock(np.random.default_rng(0), 8, spatial_kernel=4)


@pytest.mark.parametrize("seed", SEEDS)
def test_cbam_grad_check(seed):
    rng = np.random.default_rng(seed)
    blk = CBAMBlock(rng, 4, reduction_ratio=2, spatial_kernel=3)
    x = Tensor(rng.normal(size=(2, 4, 6)))
    probe = Tensor(rng.normal(size=(2, 4, 6)))
    assert grad_check(lambda: T.reduce_sum(blk(x) * probe), blk.parameters()) < 1e-4


# ---------------------------------------------------------------------
# multi-head self-attention
# ---------------------------------------------------------------------

def naive_msa_layer(x, layer):
    B, L, d = x.shape
    H, dk = layer.n_heads, layer.d_k

    def heads(h):
        return h.reshape(B, L, H, dk).transpose(0, 2, 1, 3)

    q, k, v = (heads(_dense(x, w)) for w in (layer.wq, layer.wk, layer.wv))
    attn = np.empty((B, H, L, L))
    for b in range(B):
        for h in range(H):
            attn[b, h] = _softmax_rows(q[b, h] @ k[b, h].T / math.sqrt(dk))
    ctx = (attn @ v).transpose(0, 2, 1, 3).reshape(B, L, d)
    x1 = _layernorm(x + _dense(ctx, layer.wo), layer.ln1)
    ff = _dense(np.maximum(_dense(x1, layer.ff1), 0.0), layer.ff2)
    return _layernorm(x1 + ff, layer.ln2), attn


def test_msa_layer_matches_naive_reference():
    rng = np.random.default_rng(7)
    layer = MsaLayer(rng, 16, 4, 32, record_attention=True)
    x = rng.normal(size=(2, 9, 16))
    out = layer(Tensor(x))
    want, attn = naive_msa_layer(x, layer)
    npt.assert_allclose(out.data, want, atol=1e-6, rtol=1e-9)
    npt.assert_allclose(layer.last_attention, attn, atol=1e-6, rtol=1e-9)
    npt.assert_allclose(layer.last_attention.sum(-1), 1.0, rtol=1e-12)
    assert layer.last_attention.shape == (2, 4, 9, 9)


def test_msa_layer_rejects_indivisible_heads():
    with pytest.raises(ValueError):
        MsaLayer(np.random.default_rng(0), 16, 3, 32)


@pytest.mark.parametrize("seed", SEEDS)
def test_msa_layer_grad_check(seed):
    rng = np.random.default_rng(seed)
    layer = MsaLayer(rng, 8, 2, 16)
    x = Tensor(rng.normal(size=(2, 5, 8)))
    probe = Tensor(rng.normal(size=(2, 5, 8)))
    assert grad_check(lambda: T.reduce_sum(layer(x) * probe),
                      layer.parameters()) < 1e-4


def _attention_block(block: str, record: bool):
    rng = np.random.default_rng(13)
    if block == "msa":
        return MsaLayer(rng, 8, 2, 16, record_attention=record)
    return NLBlock(rng, 4, zero_init=False, normalizer=block[3:], record_attention=record)


@pytest.mark.parametrize("block", ["nl-softmax", "nl-dot", "msa"])
def test_recorded_attention_is_unchanged_by_backward(block):
    # recording builds the whole weights array for the caller alone: backward
    # leaves it as it was, and the output and input gradient are those of
    # the same block built with recording off, byte for byte
    rng = np.random.default_rng(21)
    shape = (2, 6, 8) if block == "msa" else (2, 4, 7)
    x0 = rng.normal(size=shape)
    probe = Tensor(rng.normal(size=shape))       # both blocks keep the shape
    runs = []
    for record in (True, False):
        blk = _attention_block(block, record)
        x = Tensor(x0, requires_grad=True)
        out = blk(x)
        recorded = blk.last_attention
        assert (recorded is not None) == record
        before = None if recorded is None else recorded.copy()
        T.reduce_sum(out * probe).backward()
        assert blk.last_attention is recorded
        if record:
            npt.assert_array_equal(recorded, before)
        assert np.abs(x.grad).max() > 0
        runs.append((out.data.tobytes(), x.grad.tobytes()))
    assert runs[0] == runs[1]


def test_sinusoidal_encoding_closed_form():
    pe = sinusoidal_encoding(5, 6)
    assert pe.shape == (5, 6)
    npt.assert_allclose(pe[0], [0, 1, 0, 1, 0, 1], atol=1e-15)
    npt.assert_allclose(pe[3, 0], math.sin(3.0), rtol=1e-12)
    npt.assert_allclose(pe[3, 1], math.cos(3.0), rtol=1e-12)
    npt.assert_allclose(pe[2, 4], math.sin(2.0 / 10000.0 ** (4 / 6)), rtol=1e-12)


def test_encoder_adds_sinusoidal_positions_before_its_layers():
    cfg = MsaConfig(16, 2, 32, 1)
    x = np.random.default_rng(8).normal(size=(1, 7, 16))
    enc = MsaEncoder(np.random.default_rng(9), cfg)
    want = enc.layers[0](Tensor(x + sinusoidal_encoding(7, 16))).data
    npt.assert_array_equal(enc(Tensor(x)).data, want)
    assert not np.allclose(want, enc.layers[0](Tensor(x)).data)
    # cache: same length twice reuses the table
    enc(Tensor(x))
    assert len(enc._pe_cache) == 1


def test_encoder_stacks_configured_layer_count():
    enc = MsaEncoder(np.random.default_rng(10), MsaConfig(16, 4, 64, 3))
    assert len(enc.layers) == 3
    out = enc(Tensor(np.random.default_rng(11).normal(size=(2, 11, 16))))
    assert out.shape == (2, 11, 16)


# ---------------------------------------------------------------------
# configuration grid
# ---------------------------------------------------------------------

def test_msa_grid_enumerates_full_cross_product():
    grid = msa_grid()
    assert len(grid) == 108
    assert len(set(grid)) == 108
    # every grid value is in its domain, so a cell is valid when its heads divide d_model
    valid = [c for c in grid if c[0] % c[1] == 0]
    assert len(valid) == 81
    # every invalid cell is a divisibility failure, all with 6 heads
    invalid = [c for c in grid if c[0] % c[1] != 0]
    assert len(invalid) == 27
    assert all(h == 6 for _, h, _, _ in invalid)


def test_msa_config_validates_domain_and_divisibility():
    MsaConfig(32, 4, 128, 2)
    with pytest.raises(ValueError):
        MsaConfig(32, 6, 128, 2)      # 32 % 6 != 0
    with pytest.raises(ValueError):
        MsaConfig(48, 4, 128, 2)      # d_model outside the grid
    with pytest.raises(ValueError):
        MsaConfig(32, 4, 128, 4)      # depth outside the grid


def test_make_attention_factory_kinds():
    rng = np.random.default_rng(12)
    assert isinstance(make_attention(rng, AttentionKind.SE, 16), SEBlock)
    assert isinstance(make_attention(rng, AttentionKind.NL, 16), NLBlock)
    assert isinstance(make_attention(rng, AttentionKind.CBAM, 16), CBAMBlock)
    with pytest.raises(ValueError):
        make_attention(rng, AttentionKind.MSA, 16)
