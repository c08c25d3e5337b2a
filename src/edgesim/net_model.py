"""Link latency modeling: heavy-tailed samplers, multi-horizon EMAs, and
the cluster-wide network latency matrix (NLM).

Latency draws come from an alpha-stable law fitted offline to 5G
measurements. Each link keeps load-average style EMAs over 1/5/15 minute
horizons; their weighted sum is the composite score used to rank links.
One floor, at which draws are clamped, and one budget, against which
scores are classified, hold for every link of the matrix.

A link's random stream is the two 128-bit words ``(state, inc)`` of a
numpy ``PCG64``, which the matrix derives from its seed and the link's
sorted endpoints (``substreams``) and keeps in a column. Its one
``PCG64`` is set to a link's words to draw the link's row, so no link
holds a generator of its own, and the uniforms are those
``np.random.Generator.random`` gives on that stream.
"""

from __future__ import annotations

import functools
import hashlib
import math
from array import array
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, TimeRegressionError
from .profiler_health import PASS, classify

#: EMA horizons in seconds (1, 5, 15 minutes).
EMA_HORIZONS_S = (60.0, 300.0, 900.0)

DEFAULT_FLOOR_MS = 0.1
DEFAULT_LINK_BUDGET_MS = 50.0

#: Latencies in a link's row of the ``Nlm`` draw buffer, computed together
#: when the row is refilled. An ``Nlm`` reads it when it is built.
_BLOCK_CAP = 64

#: Most rows ``Nlm._refill`` draws and transforms in one batch. Each
#: temporary of a batch is then 64-128 KB (128 * _BLOCK_CAP latencies or
#: their uniform pairs); at 512 rows they were 256-512 KB, which raised
#: the peak RSS of a large matrix's first probe by 0.4 MB.
_REFILL_CHUNK = 128

#: numpy's ``PCG64``: a 128-bit LCG ``state <- state * _PCG_MULT + inc``,
#: stepped once per 64-bit output.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK_64 = (1 << 64) - 1
_MASK_128 = (1 << 128) - 1


@dataclass(frozen=True)
class StableParams:
    """Parameters of an alpha-stable law, S1 parameterization.

    ``location`` is the mean when ``alpha > 1`` and ``beta == 0``.
    """

    alpha: float
    beta: float = 0.0
    scale: float = 1.0
    location: float = 0.0

    def validate(self) -> None:
        if not (0.0 < self.alpha <= 2.0):
            raise ConfigurationError(f"alpha must be in (0, 2], got {self.alpha}")
        if not (-1.0 <= self.beta <= 1.0):
            raise ConfigurationError(f"beta must be in [-1, 1], got {self.beta}")
        if not (self.scale > 0.0):
            raise ConfigurationError(f"scale must be > 0, got {self.scale}")


def _cms_standard(alpha: float, beta: float, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Chambers-Mallows-Stuck transform of (uniform, exponential) pairs.

    ``u`` is uniform on (-pi/2, pi/2), ``w`` exponential(1). Returns draws
    from the standard stable law (scale 1, location 0) in S1 form.
    """
    if alpha == 2.0:
        return 2.0 * np.sin(u) * np.sqrt(w)
    if alpha == 1.0:
        if beta == 0.0:
            return np.tan(u)
        bu = math.pi / 2.0 + beta * u
        return (2.0 / math.pi) * (
            bu * np.tan(u) - beta * np.log((math.pi / 2.0) * w * np.cos(u) / bu)
        )
    if beta == 0.0:
        return (
            np.sin(alpha * u)
            / np.cos(u) ** (1.0 / alpha)
            * (np.cos((1.0 - alpha) * u) / w) ** ((1.0 - alpha) / alpha)
        )
    theta0 = math.atan(beta * math.tan(math.pi * alpha / 2.0)) / alpha
    factor = (1.0 + beta**2 * math.tan(math.pi * alpha / 2.0) ** 2) ** (1.0 / (2.0 * alpha))
    return (
        factor
        * np.sin(alpha * (u + theta0))
        / np.cos(u) ** (1.0 / alpha)
        * (np.cos(u - alpha * (u + theta0)) / w) ** ((1.0 - alpha) / alpha)
    )


def sample_stable_many(
    params: StableParams,
    rng: np.random.Generator,
    n: int,
    floor_ms: float = DEFAULT_FLOOR_MS,
) -> np.ndarray:
    """Draw ``n`` latencies in ms, clamped below at ``floor_ms``.

    Consumes exactly 2n uniforms from ``rng`` in (u, w) pair order, and
    every transform is elementwise, so a vectorized call returns exactly
    (bit for bit) the values of n successive scalar calls on the same
    stream, and splitting n draws into blocks of any sizes changes none of
    them. ``Nlm`` relies on this to draw in rows. Clamping (rather
    than resampling) keeps the draw count deterministic.
    """
    params.validate()
    return _transform(params, rng.random((n, 2)), floor_ms)


#: ``np.random.SeedSequence``'s hash constants. Its output for a given
#: entropy is fixed (NEP 19), so ``substreams`` can compute it on arrays.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4


def substreams(master_seed: int, labels: Sequence[str]) -> list[tuple[int, int]]:
    """One independent PCG64 stream per label, derived from the master seed.

    Label ``l`` gets the ``(state, inc)`` that
    ``PCG64(SeedSequence([master_seed, *words]))`` starts from, where
    ``words`` are the four little-endian 64-bit words of ``sha256(l)``.
    The seeding of all labels is computed in one pass, and no generator
    is built.
    """
    digests = b"".join(hashlib.sha256(label.encode()).digest() for label in labels)
    entropy = _entropy(master_seed, np.frombuffer(digests, dtype="<u8").reshape(-1, 4))
    # one list per word, not one per label: fewer objects for the collector
    return list(map(pcg64_stream, *_seed_states(*entropy).T.tolist()))


def _entropy(master_seed: int, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The uint32 words of ``[master_seed, *row]`` for every row of the
    uint64 array ``values``, split as SeedSequence splits ints: row i's
    words are ``words[i][keep[i]]``."""
    seed_words = np.array(_uint32_words(master_seed), dtype=np.uint32)
    halves = np.ascontiguousarray(values, dtype="<u8").view("<u4")  # low half first
    words = np.hstack([np.tile(seed_words, (len(halves), 1)), halves])
    # a value below 2^32 is one word, so its zero high half goes
    keep = np.ones(words.shape, dtype=bool)
    keep[:, len(seed_words) + 1 :: 2] = halves[:, 1::2] != 0
    return words, keep


def _uint32_words(value: int) -> list[int]:
    """``value`` as SeedSequence splits an int: low uint32 word first, 0 as [0]."""
    if not isinstance(value, (int, np.integer)):
        raise TypeError("seed must be integer")
    if value < 0:
        raise ValueError("expected non-negative integer")
    value = int(value)
    return [(value >> shift) & _MASK32 for shift in range(0, max(value.bit_length(), 1), 32)]


def _seed_states(words: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """``SeedSequence(words[i][keep[i]]).generate_state(4, np.uint64)`` for
    every row i of the uint32 array ``words``, as an (n, 4) array.

    Rows with the same number of entropy words are mixed together.
    """
    lengths = keep.sum(axis=1)
    states = np.empty((len(words), 4), dtype=np.uint64)
    for length in set(lengths.tolist()):
        rows = lengths == length
        states[rows] = _mix(words[rows][keep[rows]].reshape(-1, length))
    return states


def _mix(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence's ``mix_entropy`` then ``generate_state(4, np.uint64)``
    on each row of ``entropy``, computed column by column.

    Every operand is a uint32 array or ``np.uint32``, so the arithmetic
    wraps the same way on every numpy version, without overflow warnings.
    The hash constants do not depend on the data; they advance as Python
    ints, one step per ``hashmix``.
    """
    const = _INIT_A

    def hashmix(value: np.ndarray, mult: int) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> _XSHIFT)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> _XSHIFT)

    columns = list(entropy.T)
    zero = np.zeros(len(entropy), dtype=np.uint32)
    pool = [
        hashmix(columns[i] if i < len(columns) else zero, _MULT_A) for i in range(_POOL_SIZE)
    ]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src], _MULT_A))
    for column in columns[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(column, _MULT_A))
    const = _INIT_B
    state = np.column_stack([hashmix(pool[i % _POOL_SIZE], _MULT_B) for i in range(8)])
    # pairs of uint32 words read as little-endian uint64, as SeedSequence does
    return state.astype("<u4").view("<u8").astype(np.uint64)


def pcg64_stream(s0: int, s1: int, s2: int, s3: int) -> tuple[int, int]:
    """The ``(state, inc)`` that ``PCG64`` starts from when its seed
    sequence generates the 64-bit words ``s0..s3``, by PCG's own seeding:
    ``s0 s1`` (high word first) is the initial state and ``s2 s3`` the
    sequence; ``inc`` is odd, and the state is stepped in twice."""
    initstate, initseq = s0 << 64 | s1, s2 << 64 | s3
    inc = (initseq << 1 | 1) & _MASK_128
    return ((inc + initstate) * _PCG_MULT + inc) & _MASK_128, inc


@functools.cache
def _advance(steps: int) -> tuple[int, int]:
    """``(a, c)`` such that a stream's state after ``steps`` outputs is
    ``a * state + c * inc`` mod 2**128: the LCG step composed ``steps``
    times by Horner's rule."""
    a, c = 1, 0
    for _ in range(steps):
        a, c = a * _PCG_MULT & _MASK_128, (c * _PCG_MULT + 1) & _MASK_128
    return a, c


_advance(2 * _BLOCK_CAP)  # a row's advance, computed at import, not in a run's setup


def _stream_at(words: array, i: int) -> tuple[int, int]:
    """The ``(state, inc)`` of stream ``i`` in the uint64 column ``words``."""
    state_hi, state_lo, inc_hi, inc_lo = words[4 * i : 4 * i + 4]
    return state_hi << 64 | state_lo, inc_hi << 64 | inc_lo


def _transform(params: StableParams, draws: np.ndarray, floor_ms: float) -> np.ndarray:
    """Latencies from rows of (u, w) uniform pairs; elementwise, so rows
    from different streams may share one call."""
    u = math.pi * (draws[:, 0] - 0.5)
    # tiny floor keeps the w=0 corner (probability 2^-53) off the division path
    w = np.maximum(-np.log(1.0 - draws[:, 1]), 1e-300)
    x = _cms_standard(params.alpha, params.beta, u, w)
    if params.alpha == 1.0 and params.beta != 0.0:
        shift = params.location + (2.0 / math.pi) * params.beta * params.scale * math.log(params.scale)
    else:
        shift = params.location
    out = params.scale * x + shift
    return np.maximum(out, floor_ms)


def sample_stable(
    params: StableParams,
    rng: np.random.Generator,
    floor_ms: float = DEFAULT_FLOOR_MS,
) -> float:
    """Draw a single latency in ms from the stable law."""
    return float(sample_stable_many(params, rng, 1, floor_ms=floor_ms)[0])


def _decay(dt_s: float, horizon_s: float) -> float:
    """Share of the old EMA kept after ``dt_s`` seconds on one horizon."""
    return math.exp(-dt_s / horizon_s)


def _fold(ema, sample, decay):
    """``sample + (ema - sample) * decay``: one IEEE subtract, multiply and
    add per value, so Python floats and numpy arrays give the same bits."""
    return sample + (ema - sample) * decay


def _check_order(now_s: float, last_s: float) -> None:
    if now_s < last_s:
        raise TimeRegressionError(f"update at t={now_s} precedes last update t={last_s}")


@dataclass(frozen=True)
class EmaWeights:
    """Horizon weights for the composite score; longer horizons weigh more."""

    w_1m: float = 0.2
    w_5m: float = 0.3
    w_15m: float = 0.5

    def validate(self) -> None:
        ws = (self.w_1m, self.w_5m, self.w_15m)
        if any(w < 0 for w in ws):
            raise ConfigurationError(f"EMA weights must be >= 0, got {ws}")
        if abs(sum(ws) - 1.0) > 1e-9:
            raise ConfigurationError(f"EMA weights must sum to 1, got {sum(ws)}")
        if not (self.w_1m <= self.w_5m <= self.w_15m):
            raise ConfigurationError(
                f"EMA weights must be non-decreasing with horizon, got {ws}"
            )


class Nlm:
    """Network latency matrix over all edge<->edge and edge<->device pairs.

    A link is its stable law and the PCG64 stream, ``(state, inc)``, its
    draws come from: the stream ``substreams`` gives the matrix's ``seed``
    for the label ``link:<lo>:<hi>`` of its sorted endpoints, kept as four
    words of the uint64 column ``_streams`` (state high and low, then
    inc) and advanced past every drawn row; the matrix's one bit generator,
    shared by all its links, draws the rows. Every draw is clamped at the
    matrix's ``floor_ms``, and every score is classified against its
    ``budget_ms``. Links are numbered in the order they are added, and
    both orders of a pair map to one number, so coverage is symmetric by
    construction. The EMAs, last update time and
    latest sample of every link are columns indexed by that number:
    ``array`` columns, so a single link is read and written as cheaply as
    a Python float, which ``probe_all`` views as numpy arrays to fold a
    whole epoch at once. So is the draw buffer: row i holds ``_BLOCK_CAP``
    latencies of link i's stream, the next one at column ``_cursor[i]``;
    a row whose cursor is the width is empty. Owned by the event loop;
    queries are pure reads.
    """

    def __init__(
        self,
        weights: EmaWeights | None = None,
        floor_ms: float = DEFAULT_FLOOR_MS,
        budget_ms: float = DEFAULT_LINK_BUDGET_MS,
        *,
        seed: int,
    ):
        self.weights = weights or EmaWeights()
        self.weights.validate()
        self.floor_ms = floor_ms
        self.budget_ms = budget_ms
        self.seed = seed
        self._number: dict[tuple[str, str], int] = {}
        self._params: list[StableParams] = []
        self._streams = array("Q")  # four words per link
        self._emas = tuple(array("d") for _ in EMA_HORIZONS_S)
        self._last_update = array("d")
        self._latest_ms = array("d")
        self._initialized = array("B")
        self._columns = (*self._emas, self._last_update, self._latest_ms, self._initialized)
        self._width = _BLOCK_CAP
        self._draws = array("d")
        self._cursor = array("q")
        self._bits = np.random.PCG64(0)  # set to a link's stream before each of its rows
        self._rng = np.random.Generator(self._bits)

    def add_link(self, a: str, b: str, params: StableParams) -> None:
        """Register a link between ``a`` and ``b`` drawing from ``params``."""
        self.add_links([(a, b, params)])

    def add_links(self, entries: Iterable[tuple[str, str, StableParams]]) -> None:
        """Register links in order, as ``add_link`` on each entry in turn.

        A pair, in either order, is registered once. Every entry is checked
        and every stream derived before anything changes, so a bad entry
        raises with the matrix as it was; then each column grows once.
        """
        entries = list(entries)
        checked = set()
        labels, seen = [], set()
        for a, b, params in entries:
            if a == b:
                raise ConfigurationError(f"link endpoints must differ, got {a!r} twice")
            if params not in checked:
                params.validate()
                checked.add(params)
            lo, hi = (a, b) if a < b else (b, a)
            label = f"link:{lo}:{hi}"
            if (a, b) in self._number or label in seen:
                raise ConfigurationError(f"link between {lo!r} and {hi!r} registered twice")
            seen.add(label)
            labels.append(label)
        streams = substreams(self.seed, labels)
        for (a, b, params), (state, inc) in zip(entries, streams):
            self._number[(a, b)] = self._number[(b, a)] = len(self._params)
            self._params.append(params)
            self._streams.extend((state >> 64, state & _MASK_64, inc >> 64, inc & _MASK_64))
        added = len(entries)
        # frombytes, not extend: extend(bytes(n)) appends n values
        for column in self._columns:
            column.frombytes(bytes(column.itemsize * added))
        # the draw buffer grows a row at a time, as fast: a zero block of
        # every new row at once is megabytes, and freeing it raises glibc's
        # mmap threshold, which added 1.5 MB to cluster-scale's peak RSS
        row = bytes(8 * self._width)
        for _ in range(added):
            self._draws.frombytes(row)
        self._cursor.extend(array("q", [self._width]) * added)

    def _index(self, a: str, b: str) -> int:
        try:
            return self._number[(a, b)]
        except KeyError:
            raise ConfigurationError(f"no link registered between {a!r} and {b!r}") from None

    def pairs(self) -> list[tuple[str, str]]:
        """Canonical (sorted) endpoint pairs, one per physical link."""
        return sorted(k for k in self._number if k[0] < k[1])

    def observe(self, a: str, b: str, sample_ms: float, now_s: float) -> None:
        """Record a measured latency on a link, folded in place into its row."""
        i = self._index(a, b)
        if self._initialized[i]:
            last = self._last_update[i]
            _check_order(now_s, last)
            dt = now_s - last
            for column, h in zip(self._emas, EMA_HORIZONS_S):
                column[i] = _fold(column[i], sample_ms, _decay(dt, h))
        else:
            for column in self._emas:
                column[i] = sample_ms
            self._initialized[i] = True
        self._last_update[i] = now_s
        self._latest_ms[i] = sample_ms

    def sample_and_observe(self, a: str, b: str, now_s: float) -> float:
        """Draw one latency from the link's stream and fold it into the EMAs.
        The cursor moves only once the fold has succeeded, so a leg that
        raises ``TimeRegressionError`` leaves the next draw where it was."""
        i = self._index(a, b)
        cursor = self._cursor[i]
        if cursor == self._width:
            self._refill([i])
            cursor = 0
        sample = self._draws[i * self._width + cursor]
        self.observe(a, b, sample, now_s)
        self._cursor[i] = cursor + 1
        return sample

    def probe_all(self, now_s: float) -> None:
        """Draw one latency on every link and fold it in, in one pass.

        Each link gets the values ``sample_and_observe`` would give it:
        empty rows are refilled first, then every link takes the value at
        its cursor; ``exp`` is ``math.exp`` once per distinct elapsed time
        and horizon, and the fold is the same IEEE arithmetic on arrays.
        Raises ``TimeRegressionError`` if a link was updated after
        ``now_s``, changing nothing.
        """
        _check_order(now_s, self._last_sampled())
        empty = np.flatnonzero(np.frombuffer(self._cursor, dtype=np.int64) == self._width)
        if len(empty):
            self._refill(empty.tolist())
        # numpy views of the columns; nothing below raises, so no view
        # outlives the call to block a later add_link from growing them
        n = len(self._params)
        cursor = np.frombuffer(self._cursor, dtype=np.int64)
        samples = np.frombuffer(self._draws).reshape(n, self._width)[np.arange(n), cursor]
        cursor += 1
        initialized = np.frombuffer(self._initialized, dtype=bool)
        last = np.frombuffer(self._last_update)
        distinct, rows = np.unique(now_s - last, return_inverse=True)
        for column, h in zip(self._emas, EMA_HORIZONS_S):
            emas = np.frombuffer(column)
            decay = np.array([_decay(dt, h) for dt in distinct.tolist()])[rows]
            # a link never sampled before takes the sample as every EMA
            emas[:] = np.where(initialized, _fold(emas, samples, decay), samples)
        last[:] = now_s
        np.frombuffer(self._latest_ms)[:] = samples
        initialized[:] = True

    def _last_sampled(self) -> float:
        """The latest update time of any sampled link, -inf before any."""
        last = np.frombuffer(self._last_update)
        return last[np.frombuffer(self._initialized, dtype=bool)].max(initial=-math.inf).item()

    def _refill(self, rows: list[int]) -> None:
        """Fill the rows of the links numbered ``rows`` and rewind their
        cursors.

        Each link draws a row's width of (u, w) pairs from its own stream,
        so its row holds that stream's next scalar draws, and stores the
        stream advanced past them. The transform is elementwise, so the
        links sharing params share one call per ``_REFILL_CHUNK`` rows.
        """
        groups: dict[StableParams, list[int]] = {}
        for i in rows:
            groups.setdefault(self._params[i], []).append(i)
        width = self._width
        table = np.frombuffer(self._draws).reshape(-1, width)
        for params, members in groups.items():
            for start in range(0, len(members), _REFILL_CHUNK):
                chunk = members[start : start + _REFILL_CHUNK]
                uniforms = np.empty((len(chunk), width, 2))
                for row, i in enumerate(chunk):
                    self._draw(i, uniforms[row])
                    self._cursor[i] = 0
                uniforms = uniforms.reshape(-1, 2)
                table[chunk] = _transform(params, uniforms, self.floor_ms).reshape(-1, width)

    def _draw(self, i: int, out: np.ndarray) -> None:
        """Fill ``out`` with the next uniforms of link ``i``'s stream:
        ``Generator.random`` on the matrix's bit generator, set to the
        stream. Each takes one 64-bit output, so the stream's words in
        ``_streams`` are advanced by ``out.size`` steps in place."""
        state, inc = _stream_at(self._streams, i)
        self._bits.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        a, c = _advance(out.size)
        state = (a * state + c * inc) & _MASK_128
        self._streams[4 * i] = state >> 64
        self._streams[4 * i + 1] = state & _MASK_64
        self._rng.random(out=out)

    def score(self, a: str, b: str) -> float:
        """Composite score of the link, +inf while unsampled so that it ranks
        last; ``ConfigurationError`` if the link was never registered."""
        return self._score(self._index(a, b))

    def _score(self, i: int) -> float:
        w, (e1, e5, e15) = self.weights, self._emas  # the scalar reference's order: the same bits
        score = w.w_1m * e1[i] + w.w_5m * e5[i] + w.w_15m * e15[i]
        return score if self._initialized[i] else math.inf

    def snapshot(self) -> dict[str, dict]:
        """Serializable view of every canonical link, sorted by endpoints."""
        return {f"{a}|{b}": self._view(a, b) for a, b in self.pairs()}

    def _view(self, a: str, b: str) -> dict:
        """A link's score and its status, classified when read against the
        matrix's budget; pass before any sample."""
        i = self._index(a, b)
        score = self._score(i) if self._initialized[i] else None
        return {
            "score_ms": score,
            "latest_ms": None if score is None else self._latest_ms[i],
            "status": PASS if score is None else classify(score, self.budget_ms),
            "budget_ms": self.budget_ms,
        }

