"""Scalar reference forms of the engine's link arithmetic.

``Nlm`` keeps every link's EMAs as columns and folds a whole epoch at
once. Here one link's EMAs are a value: ``ema_update`` folds one sample
into it and ``composite_score`` weighs it, so a link driven alone through
``sample_stable`` and ``ema_update`` must give, bit for bit, what the
table gives it. A link's stream is its PCG64 ``(state, inc)``;
``generator_at`` and ``stream_of`` turn it into a numpy ``Generator`` and
back, so the reference draws with numpy's own code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from edgesim.net_model import EMA_HORIZONS_S, EmaWeights, _check_order, _decay, _fold


@dataclass(frozen=True, slots=True)
class EmaState:
    """Smoothed latency over the three horizons, in ms."""

    ema_1m: float = 0.0
    ema_5m: float = 0.0
    ema_15m: float = 0.0
    last_update: float = 0.0
    initialized: bool = False


def ema_update(state: EmaState, sample_ms: float, now_s: float) -> EmaState:
    """Fold one latency sample into the EMAs using continuous-time decay.

    Each horizon h decays as ``ema <- sample + (ema - sample) * exp(-dt/h)``,
    which makes the result independent of tick granularity for a constant
    sample stream.
    """
    if not state.initialized:
        return EmaState(sample_ms, sample_ms, sample_ms, now_s, True)
    _check_order(now_s, state.last_update)
    dt = now_s - state.last_update
    emas = [
        _fold(ema, sample_ms, _decay(dt, h))
        for ema, h in zip((state.ema_1m, state.ema_5m, state.ema_15m), EMA_HORIZONS_S)
    ]
    return EmaState(emas[0], emas[1], emas[2], now_s, True)


def composite_score(state: EmaState, weights: EmaWeights) -> float:
    """Weighted sum of the three EMAs; lower is a better link, and +inf
    before any sample, so such a link ranks last."""
    if not state.initialized:
        return math.inf
    return (
        weights.w_1m * state.ema_1m
        + weights.w_5m * state.ema_5m
        + weights.w_15m * state.ema_15m
    )


def stream_of(rng: np.random.Generator) -> tuple[int, int]:
    """The PCG64 ``(state, inc)`` a ``Generator`` draws its next value from."""
    words = rng.bit_generator.state["state"]
    return words["state"], words["inc"]


def generator_at(stream: tuple[int, int]) -> np.random.Generator:
    """A ``Generator`` whose next draws are those of the PCG64 ``stream``."""
    bits = np.random.PCG64(0)
    state, inc = stream
    bits.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return np.random.Generator(bits)
