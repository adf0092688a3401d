"""Brownian paths summarized by polynomial coefficients per interval.

Each interval of length ``dt`` carries a coefficient triple ``(w, h, k)``:
``w`` is the plain Brownian increment over the interval and ``h``, ``k`` are
the first two coefficients of the centred path expanded in shifted Legendre
polynomials, scaled so that per coordinate, independently,

    w ~ N(0, dt),    h ~ N(0, dt/12),    k ~ N(0, dt/720).

The triple is equivalent to the increment together with its running time
integrals,

    i1 = dt*w/2 + dt*h
    i2 = dt**2 * (w/6 + h/2 + k),

and in that form increments compose exactly across adjacent intervals.  A
coarse increment and its recursive refinement therefore describe one and the
same underlying path, which is what lets a fine reference solution and a
coarse solution be driven by identical noise.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BrownianIncrement",
    "TimeIntegrals",
    "BrownianPath",
    "DyadicBrownianTree",
    "sample_increment",
    "zero_increment",
    "to_time_integrals",
    "from_time_integrals",
    "combine",
    "refine",
    "bridge_matrices",
    "keyed_generator",
]

_MASK64 = 0xFFFFFFFFFFFFFFFF

# Coefficient variances on a unit interval.
_VAR_H = 1.0 / 12.0
_VAR_K = 1.0 / 720.0

# Stream tags 0-3 are reserved by this module; see keyed_generator.
_STREAM_STEP = 0
_STREAM_STEP_HALF = 1
_STREAM_TREE_ROOT = 2
_STREAM_TREE_SPLIT = 3


def _as_coeff(name: str, value) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        raise ValueError(f"{name} must have a trailing coordinate axis, got a scalar")
    return arr


@dataclass(frozen=True, eq=False)
class BrownianIncrement:
    """Coefficient triple of one Brownian interval.

    ``w``, ``h`` and ``k`` have shape ``(..., d)``; leading axes are batch
    axes and every operation in this module broadcasts over them.  ``halves``
    optionally carries the two half-interval increments produced by
    :func:`refine`, for steppers that consume sub-interval noise.  Instances
    are immutable and safe to share across threads.
    """

    dt: float
    w: np.ndarray
    h: np.ndarray
    k: np.ndarray
    halves: tuple["BrownianIncrement", "BrownianIncrement"] | None = field(
        default=None, repr=False
    )

    def __post_init__(self) -> None:
        if not self.dt > 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        object.__setattr__(self, "dt", float(self.dt))
        for name in ("w", "h", "k"):
            object.__setattr__(self, name, _as_coeff(name, getattr(self, name)))
        shapes = {self.w.shape, self.h.shape, self.k.shape}
        if len(shapes) != 1:
            raise ValueError(f"coefficient shapes disagree: {sorted(shapes)}")

    @classmethod
    def _trusted(cls, dt, w, h, k, halves=None) -> "BrownianIncrement":
        """Build from arrays this module made, skipping ``__post_init__``'s checks."""
        inc = object.__new__(cls)
        vars(inc).update(dt=float(dt), w=w, h=h, k=k, halves=halves)
        return inc

    def with_halves(
        self, halves: tuple["BrownianIncrement", "BrownianIncrement"]
    ) -> "BrownianIncrement":
        """This increment carrying ``halves``, the two parts :func:`refine` made of it."""
        return self._trusted(self.dt, self.w, self.h, self.k, halves)


@dataclass(frozen=True, eq=False)
class TimeIntegrals:
    """Increment plus first and second running time integrals of an interval."""

    dt: float
    w: np.ndarray
    i1: np.ndarray
    i2: np.ndarray

    def __post_init__(self) -> None:
        if not self.dt > 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        object.__setattr__(self, "dt", float(self.dt))
        for name in ("w", "i1", "i2"):
            object.__setattr__(self, name, _as_coeff(name, getattr(self, name)))
        if not (self.w.shape == self.i1.shape == self.i2.shape):
            raise ValueError("w, i1, i2 shapes disagree")


def sample_increment(
    rng: np.random.Generator,
    dt: float,
    d: int,
    *,
    shape: tuple[int, ...] = (),
) -> BrownianIncrement:
    """Draw the coefficients of one interval of length ``dt``.

    Every coordinate is independent, with w ~ N(0, dt), h ~ N(0, dt/12) and
    k ~ N(0, dt/720).  ``shape`` prepends batch axes to the ``(d,)``
    coefficient vectors, drawn in one block so the generator state advances
    deterministically.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if d < 1:
        raise ValueError(f"dimension must be at least 1, got {d}")
    z = rng.standard_normal((3, *shape, d))
    z[0] *= math.sqrt(dt)
    z[1] *= math.sqrt(dt * _VAR_H)
    z[2] *= math.sqrt(dt * _VAR_K)
    return BrownianIncrement._trusted(dt, z[0], z[1], z[2])


def zero_increment(dt: float, d: int, *, shape: tuple[int, ...] = ()) -> BrownianIncrement:
    """Increment of a path that is identically zero on the interval."""
    z = np.zeros((*shape, d))
    return BrownianIncrement(dt, z, z.copy(), z.copy())


def to_time_integrals(inc: BrownianIncrement) -> TimeIntegrals:
    """Map (w, h, k) to the increment's running time integrals."""
    dt = inc.dt
    i1 = dt * (0.5 * inc.w + inc.h)
    i2 = dt * dt * (inc.w / 6.0 + 0.5 * inc.h + inc.k)
    return TimeIntegrals(dt, inc.w, i1, i2)


def from_time_integrals(ti: TimeIntegrals) -> BrownianIncrement:
    """Invert :func:`to_time_integrals`."""
    dt = ti.dt
    h = ti.i1 / dt - 0.5 * ti.w
    k = ti.i2 / (dt * dt) - ti.w / 6.0 - 0.5 * h
    return BrownianIncrement(dt, ti.w, h, k)


def combine(left: BrownianIncrement, right: BrownianIncrement) -> BrownianIncrement:
    """Compose two adjacent increments into one over the union interval.

    Exact and associative: the time integrals of the union are linear in
    those of the parts.  The result carries no ``halves``.
    """
    if left.w.shape != right.w.shape:
        raise ValueError(
            f"cannot combine increments of shapes {left.w.shape} and {right.w.shape}"
        )
    a = to_time_integrals(left)
    b = to_time_integrals(right)
    dt_r = right.dt
    w = a.w + b.w
    i1 = a.i1 + b.i1 + dt_r * a.w
    i2 = a.i2 + b.i2 + dt_r * a.i1 + 0.5 * dt_r * dt_r * a.w
    return from_time_integrals(TimeIntegrals(left.dt + right.dt, w, i1, i2))


# Covariance of (w, i1, i2) on a unit interval.
_UNIT_COV = np.array(
    [
        [1.0, 1.0 / 2.0, 1.0 / 6.0],
        [1.0 / 2.0, 1.0 / 3.0, 1.0 / 8.0],
        [1.0 / 6.0, 1.0 / 8.0, 1.0 / 20.0],
    ]
)


@functools.lru_cache(maxsize=None)
def bridge_matrices(ratio: float) -> tuple[np.ndarray, np.ndarray]:
    """Conditional map for the left part of an interval split, scale-free.

    For a split of ``[0, s]`` at ``a = ratio*s``, write the normalized
    vector of an interval of length ``t`` as x̂ = (w/t^0.5, i1/t^1.5,
    i2/t^2.5).  Then x̂_left | x̂_parent ~ N(A x̂_parent, L Lᵀ) with (A, L)
    independent of ``s``; this returns that pair.  Cross-covariances come
    from integrating the Brownian kernel min(r, t) over the two intervals.
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"split ratio must lie strictly inside (0, 1), got {ratio}")
    a = float(ratio)
    # Cov((w_L, i1_L, i2_L), (w, i1, i2)) for a parent of unit length.
    cov_lp = np.array(
        [
            [a, a - a**2 / 2, a**2 / 2 - a**3 / 3 + a * (1 - a) ** 2 / 2],
            [a**2 / 2, a**2 / 2 - a**3 / 6, a**2 / 4 - a**3 / 6 + a**4 / 24],
            [a**3 / 6, a**3 / 6 - a**4 / 24, a**3 / 12 - a**4 / 24 + a**5 / 120],
        ]
    )
    d_left = np.array([a**0.5, a**1.5, a**2.5])
    cross = cov_lp / d_left[:, None]
    a_mat = np.linalg.solve(_UNIT_COV, cross.T).T
    cond = _UNIT_COV - a_mat @ cross.T
    cond = 0.5 * (cond + cond.T)
    try:
        l_mat = np.linalg.cholesky(cond)
    except np.linalg.LinAlgError:
        # Extreme ratios leave the conditional covariance barely positive;
        # fall back to a symmetric square root with clipped spectrum.
        vals, vecs = np.linalg.eigh(cond)
        l_mat = vecs * np.sqrt(np.clip(vals, 0.0, None))
    a_mat.setflags(write=False)
    l_mat.setflags(write=False)
    return a_mat, l_mat


# (w, h, k) -> (w, i1/dt, i2/dt**2) on any interval; see to_time_integrals.
_TO_INTEGRALS = np.array(
    [
        [1.0, 0.0, 0.0],
        [1.0 / 2.0, 1.0, 0.0],
        [1.0 / 6.0, 1.0 / 2.0, 1.0],
    ]
)


@functools.lru_cache(maxsize=None)
def _refine_map(ratio: float) -> np.ndarray:
    """The 6x6 map from (parent w, h, k, sqrt(dt)*z) to (left w, h, k, right w, h, k).

    Coefficients scale as sqrt(dt), so the map is independent of the
    parent's length.  The left rows are the bridge of :func:`bridge_matrices`
    conjugated into coefficient form; the right rows solve the composition
    rule of :func:`combine` for the right part.
    """
    a_mat, l_mat = bridge_matrices(ratio)
    t_inv = np.linalg.inv(_TO_INTEGRALS)
    r, q = float(ratio), 1.0 - float(ratio)
    # left coefficients from the normalized bridge x̂_L = A x̂_P + L z
    left = np.sqrt(r) * t_inv @ np.hstack([a_mat @ _TO_INTEGRALS, l_mat])
    # time integrals of both children in units of the parent's length
    ti_left = np.diag([1.0, r, r * r]) @ _TO_INTEGRALS @ left
    shift = np.array([[1.0, 0.0, 0.0], [q, 1.0, 0.0], [0.5 * q * q, q, 1.0]])
    ti_right = np.hstack([_TO_INTEGRALS, np.zeros((3, 3))]) - shift @ ti_left
    right = t_inv @ np.diag([1.0, 1.0 / q, 1.0 / (q * q)]) @ ti_right
    full = np.vstack([left, right])
    full.setflags(write=False)
    return full


def refine(
    inc: BrownianIncrement,
    rng: np.random.Generator,
    *,
    ratio: float = 0.5,
) -> tuple[BrownianIncrement, BrownianIncrement]:
    """Split one interval into two that compose back to it exactly.

    The left part is drawn from the exact conditional Gaussian law of its
    (w, i1, i2) given the parent's, and the right part is then fixed by the
    composition rule, so ``combine(left, right)`` reproduces ``inc`` up to
    rounding.  ``ratio`` is the fraction of ``inc.dt`` given to the left
    part.  Both steps are linear, so the children come from one
    precomputed map per ratio applied to the parent's coefficients and
    ``rng``'s standard normals of shape ``(3, *batch, d)``.
    """
    full = _refine_map(ratio)
    s = inc.dt
    stacked = np.empty((6, *inc.w.shape))
    stacked[0], stacked[1], stacked[2] = inc.w, inc.h, inc.k
    rng.standard_normal(out=stacked[3:])
    stacked[3:] *= np.sqrt(s)
    out = (full @ stacked.reshape(6, -1)).reshape(stacked.shape)
    dt_l = ratio * s
    left = BrownianIncrement._trusted(dt_l, out[0], out[1], out[2])
    right = BrownianIncrement._trusted(s - dt_l, out[3], out[4], out[5])
    return left, right


def keyed_generator(seed: int, stream: int, *index: int) -> np.random.Generator:
    """Counter-based generator keyed by (seed, stream, index).

    Output depends only on the key, never on creation order, which makes
    dyadic refinement and parallel chains order-independent.  Stream tags
    0-3 are reserved by this module; other modules should key their draws
    with tags >= 8.
    """
    ss = np.random.SeedSequence(
        entropy=int(seed) & _MASK64, spawn_key=(int(stream), *map(int, index))
    )
    return np.random.Generator(np.random.Philox(ss))


# SeedSequence's hash constants (numpy.random.bit_generator).  _keyed below
# replays its mixing to get the Philox key keyed_generator would use; NumPy
# keeps SeedSequence's output fixed across releases, and the tests compare
# the two draw for draw.
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715

# Keys are derived for blocks of this many consecutive indices at a time; a
# block is 4 KB, and at most 256 blocks are cached.
_KEY_BLOCK = 256


def _hash_consts(init: int, mult: int, n: int) -> list[int]:
    """The first ``n`` values of a hash-constant sequence, ``init`` included."""
    out = [init]
    for _ in range(n - 1):
        out.append(out[-1] * mult & _M32)
    return out


# hashmix calls 0-3 take the seed words, 4-15 the pool cross-mix, 16-19 the
# stream word and 20-23 the index word; each xors constant i, multiplies by i+1.
_CONSTS_A = _hash_consts(_INIT_A, _MULT_A, 25)
_CONSTS_B = _hash_consts(_INIT_B, _MULT_B, 5)
_INDEX_XOR = np.array(_CONSTS_A[20:24], dtype=np.uint32)[:, None]
_INDEX_MUL = np.array(_CONSTS_A[21:25], dtype=np.uint32)[:, None]
_OUT_XOR = np.array(_CONSTS_B[0:4], dtype=np.uint32)[:, None]
_OUT_MUL = np.array(_CONSTS_B[1:5], dtype=np.uint32)[:, None]
_SHIFT = np.uint32(16)


def _hashmix(value: int, call: int) -> int:
    value = (value ^ _CONSTS_A[call]) * _CONSTS_A[call + 1] & _M32
    return value ^ value >> 16


def _mix(x: int, y: int) -> int:
    r = (_MIX_L * x - _MIX_R * y) & _M32
    return r ^ r >> 16


def _stream_pool(seed: int, stream: int) -> np.ndarray:
    """``_MIX_L`` times each pool word of ``SeedSequence(seed, spawn_key=(stream, i))``
    before the index word ``i`` mixes in, as a (4, 1) uint32 column.

    ``seed`` is already masked to 64 bits, whose two words are padded with
    zeros to the pool size of four.
    """
    pool = [_hashmix(word, i) for i, word in enumerate((seed & _M32, seed >> 32, 0, 0))]
    call = 4
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], call))
                call += 1
    for dst in range(4):
        pool[dst] = _mix(pool[dst], _hashmix(stream, call + dst))
    return np.array([_MIX_L * p & _M32 for p in pool], dtype=np.uint32)[:, None]


@functools.lru_cache(maxsize=256)
def _key_block(seed: int, stream: int, block: int) -> np.ndarray:
    """Philox keys of ``keyed_generator(seed, stream, i)`` for the ``_KEY_BLOCK``
    indices ``i`` of ``block``, as a read-only (_KEY_BLOCK, 2) uint64 array.

    The index word is mixed into the seed-and-stream pool, and the pool is
    expanded into four output words, as ``SeedSequence.generate_state(2, np.uint64)``
    does, for the whole block at once in wrapping uint32 arithmetic.
    """
    start = block * _KEY_BLOCK
    v = np.arange(start, start + _KEY_BLOCK, dtype=np.uint32)[None, :] ^ _INDEX_XOR
    v *= _INDEX_MUL
    v ^= v >> _SHIFT
    v *= np.uint32(_MIX_R)
    np.subtract(_stream_pool(seed, stream), v, out=v)
    v ^= v >> _SHIFT
    v ^= _OUT_XOR
    v *= _OUT_MUL
    v ^= v >> _SHIFT
    # output words pair up little-endian into the two 64-bit key words
    keys = np.ascontiguousarray(v.T, dtype="<u4").view("<u8").astype(np.uint64)
    keys.setflags(write=False)
    return keys


_ZERO4 = np.zeros(4, dtype=np.uint64)


class _ThreadGenerator(threading.local):
    """One Philox generator per thread, made on the thread's first keyed draw
    (so importing this module does not load ``numpy.random``).

    Every draw resets its whole state first, so no draw depends on what an
    earlier one left behind, and threads never share it.
    """

    bit_generator: np.random.Philox | None = None
    generator: np.random.Generator | None = None


_THREAD_GENERATOR = _ThreadGenerator()


def _keyed(seed: int, stream: int, index: int) -> np.random.Generator:
    """A generator drawing what ``keyed_generator(seed, stream, index)`` draws.

    It is this thread's one reused generator, so it is valid only until the
    next ``_keyed`` call on the thread.  Its Philox is reset to the key and a
    zero counter with an empty buffer, the state a fresh Philox starts in;
    the key comes from a cached block, so no ``SeedSequence`` is built.  An
    index of 2**32 or more takes two spawn-key words and goes to
    ``keyed_generator`` itself.
    """
    index = int(index)
    if not 0 <= index <= _M32:
        return keyed_generator(seed, stream, index)
    block, row = divmod(index, _KEY_BLOCK)
    local = _THREAD_GENERATOR
    if local.generator is None:
        local.bit_generator = np.random.Philox(0)
        local.generator = np.random.Generator(local.bit_generator)
    local.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZERO4, "key": _key_block(int(seed) & _MASK64, stream, block)[row]},
        "buffer": _ZERO4,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return local.generator


@dataclass(frozen=True)
class BrownianPath:
    """Seed-addressed noise for a stepwise simulation.

    The increment of step ``i`` depends only on ``(seed, i)`` and the call
    arguments, never on access order, so restarted or parallel consumers see
    identical noise.  ``shape`` prepends batch axes, giving independent paths
    that share one seed.
    """

    seed: int
    d: int
    shape: tuple[int, ...] = ()

    def increment(
        self,
        index: int,
        dt: float,
        *,
        with_halves: bool = False,
    ) -> BrownianIncrement:
        g = _keyed(self.seed, _STREAM_STEP, index)
        inc = sample_increment(g, dt, self.d, shape=self.shape)
        if with_halves:
            inc = inc.with_halves(refine(inc, _keyed(self.seed, _STREAM_STEP_HALF, index)))
        return inc


@dataclass(frozen=True)
class DyadicBrownianTree:
    """Dyadic refinement tree of one path over ``[0, horizon]``.

    Nodes are heap-indexed: the root interval is node 1 and node ``i`` splits
    into ``2*i`` and ``2*i + 1``.  The root draw and the bridge noise of each
    split are keyed by the node index alone, so any traversal order (or a
    partial traversal) reconstructs the same path.
    """

    seed: int
    d: int
    horizon: float
    shape: tuple[int, ...] = ()

    def root(self) -> BrownianIncrement:
        g = _keyed(self.seed, _STREAM_TREE_ROOT, 1)
        return sample_increment(g, self.horizon, self.d, shape=self.shape)

    def split(
        self, inc: BrownianIncrement, index: int
    ) -> tuple[BrownianIncrement, BrownianIncrement]:
        """Split node ``index`` (holding ``inc``) into its two children."""
        return refine(inc, _keyed(self.seed, _STREAM_TREE_SPLIT, index))
