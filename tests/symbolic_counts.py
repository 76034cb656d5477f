"""Hand-derived parameter arithmetic used as an independent oracle.

Everything here is computed with plain integer arithmetic from the layer
layouts written out literally — no imports from the package under test —
so agreement with both the closed-form counters and the built models is a
three-way check.
"""


def conv(cin: int, cout: int, k: int, bias: bool = True) -> int:
    return cout * (cin * k + (1 if bias else 0))


def dense(nin: int, nout: int, bias: bool = True) -> int:
    return nout * (nin + (1 if bias else 0))


def bn(c: int) -> int:
    return 2 * c


def layer_norm(d: int) -> int:
    return 2 * d


# layer layouts, written out rather than imported
VGG_STAGES = [(64, 2), (128, 2), (256, 3), (512, 3), (512, 3)]
RESNET_BLOCKS = [(64, 1), (64, 1), (128, 2), (128, 1),
                 (256, 2), (256, 1), (512, 2), (512, 1)]
INCEPTION_MODULES = [
    (64, 96, 128, 16, 32, 32),
    (128, 128, 192, 32, 96, 64),
    (192, 96, 208, 16, 48, 64),
    (160, 112, 224, 24, 64, 64),
    (128, 128, 256, 24, 64, 64),
    (112, 144, 288, 32, 64, 64),
    (256, 160, 320, 32, 128, 128),
    (256, 160, 320, 32, 128, 128),
    (384, 192, 384, 48, 128, 128),
]


def vgg_feature(level: int, cin: int = 2) -> int:
    total, c = 0, cin
    for out_ch, n_convs in VGG_STAGES[:level]:
        for _ in range(n_convs):
            total += conv(c, out_ch, 3)
            c = out_ch
    return total


def resnet_feature(level: int, cin: int = 2) -> int:
    total = conv(cin, 64, 7) + bn(64)
    c = 64
    for out_ch, stride in RESNET_BLOCKS[:level]:
        total += conv(c, out_ch, 3) + bn(out_ch) + conv(out_ch, out_ch, 3) + bn(out_ch)
        if stride != 1 or c != out_ch:
            total += conv(c, out_ch, 1) + bn(out_ch)
        c = out_ch
    return total


def inception_feature(level: int, cin: int = 2) -> int:
    total = conv(cin, 64, 7) + conv(64, 192, 3)
    c = 192
    for b1, r3, o3, r5, o5, pp in INCEPTION_MODULES[:level]:
        total += (conv(c, b1, 1) + conv(c, r3, 1) + conv(r3, o3, 3)
                  + conv(c, r5, 1) + conv(r5, o5, 5) + conv(c, pp, 1))
        c = b1 + o3 + o5 + pp
    return total


def module_widths(family: str, level: int) -> list[int]:
    if family == "vgg":
        return [ch for ch, _ in VGG_STAGES[:level]]
    if family == "resnet":
        return [ch for ch, _ in RESNET_BLOCKS[:level]]
    if family == "inception":
        return [b1 + o3 + o5 + pp
                for b1, _, o3, _, o5, pp in INCEPTION_MODULES[:level]]
    raise ValueError(family)


def placement(n_modules: int, fraction: int) -> set[int]:
    if fraction == 0:
        return set()
    if fraction == 50:
        return set(range(2, n_modules + 1, 2))
    if fraction == 100:
        return set(range(1, n_modules + 1))
    raise ValueError(fraction)


def se_params(c: int, ratio: int = 16) -> int:
    mid = c // ratio
    return dense(c, mid) + dense(mid, c)


def nl_params(c: int) -> int:
    embed = c // 2
    return 3 * conv(c, embed, 1) + conv(embed, c, 1)


def cbam_params(c: int, ratio: int = 16, spatial_kernel: int = 7) -> int:
    mid = c // ratio
    return dense(c, mid) + dense(mid, c) + conv(2, 1, spatial_kernel)


def msa_layer_params(d_model: int, d_ff: int) -> int:
    return (4 * dense(d_model, d_model) + 2 * layer_norm(d_model)
            + dense(d_model, d_ff) + dense(d_ff, d_model))


def attention_params(kind: str, c: int) -> int:
    return {"se": se_params, "nl": nl_params, "cbam": cbam_params}[kind](c)


def vgg_flat_width(level: int, length: int = 2000) -> int:
    out = length
    for _ in range(level):
        out //= 2
    return module_widths("vgg", level)[-1] * out


def feature_and_attention_params(family: str, level: int, kind: str,
                                 fraction: int) -> int:
    feature = {"vgg": vgg_feature, "resnet": resnet_feature,
               "inception": inception_feature}[family](level)
    widths = module_widths(family, level)
    extra = sum(attention_params(kind, widths[i - 1])
                for i in placement(level, fraction)) if kind != "none" else 0
    return feature + extra


def model_params(family: str, level: int, kind: str, fraction: int,
                 demo: int = 4) -> int:
    widths = module_widths(family, level)
    if family == "vgg":
        head = (dense(vgg_flat_width(level), 4096)
                + dense(4096 + demo, 4096) + dense(4096, 1))
    else:
        head = dense(widths[-1], 1000) + dense(1000 + demo, 1)
    return feature_and_attention_params(family, level, kind, fraction) + head


def msa_only_params(d_model: int, d_ff: int, n_layers: int,
                    stem_kernel: int = 20, cin: int = 2, demo: int = 4) -> int:
    return (conv(cin, d_model, stem_kernel)
            + n_layers * msa_layer_params(d_model, d_ff)
            + dense(d_model, d_model) + dense(d_model + demo, 1))
