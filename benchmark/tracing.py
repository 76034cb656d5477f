"""Per-layer tracing of physiobench from outside the package.

Every call site reaches the autodiff primitives through the module attribute
(``T.conv1d``) or, inside ``tensor.py``, through module globals, so replacing
``physiobench.core.tensor.<name>`` catches every call.  Backward time comes
from wrapping the closure stored on each returned tensor.  Module and harness
times come from wrapping ``__call__``/``step`` and the public functions.

Spans stay in memory while the benchmark runs.  A span's self time is its
duration minus the durations of the spans it directly encloses; calls are
single-threaded, so spans nest strictly.
"""

from __future__ import annotations

import time
from collections import defaultdict

# Primitives reported by name; every other core.tensor function is "other".
NAMED_PRIMITIVES = ("conv1d", "pool1d", "batchnorm1d", "matmul", "softmax",
                    "layer_norm")
TENSOR_FUNCTIONS = NAMED_PRIMITIVES + (
    "add", "mul", "power", "exp", "log", "sqrt", "activation", "relu",
    "sigmoid", "tanh", "softplus", "reduce_sum", "reduce_mean", "reduce_max",
    "reshape", "transpose", "concat", "global_pool", "dense")
CAPTURE_ATTRS = ("last_gate", "last_channel_gate", "last_spatial_gate",
                 "last_attention")
MIB = float(1 << 20)
_MISSING = object()


class Tracer:
    """Installs span-recording wrappers into the physiobench modules."""

    def __init__(self):
        self.phase = None
        self.spans: list[tuple] = []        # (name, phase, start, dur, self, bytes)
        self.tape_nodes: dict = defaultdict(int)
        self._stack: list[list[float]] = []
        self._undo: list[tuple] = []

    # -- span recording ------------------------------------------------
    def wrap(self, name, fn, after=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            phase = self.phase
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += dur
            extra = after(out, args) if after is not None else 0
            spans.append((name, phase, start, dur, dur - frame[0], extra))
            return out

        traced.traced = True
        return traced

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def install(self) -> None:
        from physiobench import attention, backbones, datapipe, harness
        from physiobench.core import nn
        from physiobench.core import tensor as T

        def primitive_after(name, count_bytes):
            def after(out, _args):
                bwd = getattr(out, "_backward", None)
                if bwd is not None and not getattr(bwd, "traced", False):
                    out._backward = self.wrap(name + ".bwd", bwd)
                return out.data.nbytes if count_bytes else 0
            return after

        for fname in TENSOR_FUNCTIONS:
            name = "core.tensor." + fname
            self._patch(T, fname, self.wrap(
                name, getattr(T, fname),
                primitive_after(name, fname in NAMED_PRIMITIVES)))

        original_topo = T.topo_order

        def topo_order(root):
            order = original_topo(root)
            self.tape_nodes[self.phase] += len(order)
            return order

        self._patch(T, "topo_order", topo_order)
        self._patch(T.Tensor, "backward",
                    self.wrap("core.tensor.tape", T.Tensor.backward))
        self._patch(nn.Module, "zero_grad",
                    self.wrap("core.nn.zero_grad", nn.Module.zero_grad))
        self._patch(nn.Module, "load_state_dict",
                    self.wrap("core.nn.load_state_dict", nn.Module.load_state_dict))

        def capture_after(_out, args):
            # SE and CBAM copy their gates on every call; NL and MSA copy the
            # attention matrix on every call when built to record it.
            return sum(getattr(args[0], a).nbytes for a in CAPTURE_ATTRS
                       if getattr(args[0], a, None) is not None)

        for cls, name in ((attention.SEBlock, "attention.se"),
                          (attention.NLBlock, "attention.nl"),
                          (attention.CBAMBlock, "attention.cbam"),
                          (attention.MsaLayer, "attention.msa")):
            self._patch(cls, "__call__",
                        self.wrap(name, nn.Module.__call__, capture_after))
        self._patch(backbones.BuiltModel, "__call__",
                    self.wrap("backbones.forward", nn.Module.__call__))
        self._patch(backbones, "build_model",
                    self.wrap("backbones.build_model", backbones.build_model))
        for cls in (harness.Adam, harness.RMSProp):
            self._patch(cls, "step", self.wrap("harness.optimizer_step", cls.step))
        for fname, name in (("train", "harness.train"),
                            ("predict", "harness.predict"),
                            ("auroc", "harness.auroc"),
                            ("bce_with_logits", "harness.loss"),
                            ("rmse_loss", "harness.loss")):
            self._patch(harness, fname, self.wrap(name, getattr(harness, fname)))
        for fname, name in (("generate_synthetic", "datapipe.generate"),
                            ("encode_dataset", "datapipe.encode"),
                            ("decode_dataset", "datapipe.decode"),
                            ("filter_segment", "datapipe.filter"),
                            ("split_by_case", "datapipe.split")):
            self._patch(datapipe, fname, self.wrap(name, getattr(datapipe, fname)))
        self._patch(datapipe.SignalDataset, "arrays",
                    self.wrap("datapipe.arrays", datapipe.SignalDataset.arrays))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)

    # -- summary -------------------------------------------------------
    def metrics(self, calls: int) -> dict[str, float]:
        """Per-layer figures over ``calls`` benchmark calls.

        Spans in the ``train`` phase are reported per training step, every
        other layer per call.  Times are self milliseconds, except
        ``harness.step_ms`` (wall of ``harness.train`` per step) and
        ``harness.predict_ms`` (wall of the ``predict`` phase's calls).
        """
        step_self = defaultdict(float)
        step_count = defaultdict(int)
        step_bytes = defaultdict(int)
        call_self = defaultdict(float)
        train_wall_s = predict_wall_s = 0.0
        for name, phase, _start, dur, self_s, nbytes in self.spans:
            if phase is not None:       # None: the benchmark's own checks
                call_self[name] += self_s
            if phase == "train":
                step_self[name] += self_s
                step_count[name] += 1
                step_bytes[name] += nbytes
                if name == "harness.train":
                    train_wall_s += dur
            elif phase == "predict" and name == "harness.predict":
                predict_wall_s += dur
        steps = step_count["harness.optimizer_step"]

        def step_ms(*names):
            return sum(step_self[n] for n in names) / steps * 1e3

        m: dict[str, float] = {}
        for p in NAMED_PRIMITIVES:
            key = "core.tensor." + p
            m[key + ".fwd_ms"] = step_ms(key)
            m[key + ".bwd_ms"] = step_ms(key + ".bwd")
            m[key + ".calls"] = step_count[key] / steps
            m[key + ".out_mb"] = step_bytes[key] / steps / MIB
        others = ["core.tensor." + f for f in TENSOR_FUNCTIONS
                  if f not in NAMED_PRIMITIVES]
        m["core.tensor.other.fwd_ms"] = step_ms(*others)
        m["core.tensor.other.bwd_ms"] = step_ms(*(f + ".bwd" for f in others))
        m["core.tensor.tape_ms"] = step_ms("core.tensor.tape")
        m["core.tensor.tape_nodes"] = self.tape_nodes["train"] / steps
        m["core.tensor.step_share"] = sum(
            v for k, v in step_self.items()
            if k.startswith("core.tensor.")) / train_wall_s
        m["core.nn.zero_grad_ms"] = step_ms("core.nn.zero_grad")
        for kind in ("se", "nl", "msa"):
            m[f"attention.{kind}.fwd_ms"] = step_ms("attention." + kind)
        m["attention.capture_mb"] = sum(
            step_bytes["attention." + k] for k in ("se", "nl", "cbam", "msa")
        ) / steps / MIB
        m["backbones.forward_ms"] = step_ms("backbones.forward")
        m["harness.step_ms"] = train_wall_s / steps * 1e3
        for name in ("loss", "optimizer_step"):
            m[f"harness.{name}_ms"] = step_ms("harness." + name)
        m["harness.train_self_ms"] = step_ms("harness.train")
        m["harness.predict_ms"] = predict_wall_s / calls * 1e3
        for name in ("core.nn.load_state_dict", "backbones.build_model",
                     "harness.auroc", "datapipe.generate", "datapipe.encode",
                     "datapipe.decode", "datapipe.filter", "datapipe.split",
                     "datapipe.arrays"):
            m[name + "_ms"] = call_self[name] / calls * 1e3
        return m

    def dump(self) -> list[dict]:
        return [{"name": n, "phase": p, "start": s, "dur": d, "self": st,
                 "bytes": b} for n, p, s, d, st, b in self.spans]
