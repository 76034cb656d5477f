"""Central-difference gradient verification for the tensor engine."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .nn import Parameter
from .tensor import Tensor


def grad_check(f: Callable[[], Tensor], params: Sequence[Parameter],
               step: float = 1e-5) -> float:
    """Compare analytic gradients of scalar ``f()`` against central differences.

    Returns the worst relative error over every element of every parameter,
    where rel = |analytic - numeric| / max(|analytic|, |numeric|, 1e-4).
    The 1e-4 floor keeps the metric absolute near zero: a central difference
    with h=1e-5 carries ~1e-10 of roundoff, which would otherwise swamp
    parameters whose true gradient vanishes (e.g. a bias that only shifts
    softmax logits by a per-row constant).
    Float64 data is assumed; float32 noise swamps the difference entirely.
    A parameter that the backward does not reach has zero analytic gradient.
    """
    out = f()
    if out.size != 1:
        raise ValueError(f"grad_check needs a scalar objective, got shape {out.shape}")
    for p in params:
        if p.data.dtype != np.float64:
            raise ValueError("grad_check requires float64 parameters")
        p.grad = None
    out.backward()
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad
                for p in params]

    worst = 0.0
    for p, ga in zip(params, analytic):
        flat = p.data.reshape(-1)
        gflat = ga.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + step
            up = f().item()
            flat[i] = saved - step
            down = f().item()
            flat[i] = saved
            numeric = (up - down) / (2.0 * step)
            denom = max(abs(gflat[i]), abs(numeric), 1e-4)
            worst = max(worst, abs(gflat[i] - numeric) / denom)
    return worst
