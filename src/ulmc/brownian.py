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

Noise is addressed, not drawn in sequence.  The ``seed`` of a path or tree
is its 128-bit Philox4x64 key; the harness packs it from the run seed, a tag
and a chunk with :func:`chunk_key`.  Each draw starts Philox at the 64-bit
counter words ``(0, 0, index, stream)``, low word first: ``index`` is the
step or tree node and ``stream`` names what is drawn.  A draw advances only
the low word, so draws at distinct addresses never share a block, and no
key is hashed.
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
    "to_time_integrals",
    "from_time_integrals",
    "combine",
    "refine",
    "bridge_matrices",
    "chunk_key",
    "keyed_generator",
]

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF

# Width of the counter word that holds a draw's step or node index.
_INDEX_BITS = 64

# Coefficient variances on a unit interval.
_VAR_H = 1.0 / 12.0
_VAR_K = 1.0 / 720.0

# Counter word 3 of a draw, naming what is drawn; word 2 is the step or node.
_STREAM_STEP = 0
_STREAM_STEP_HALF = 1
_STREAM_TREE_ROOT = 2
_STREAM_TREE_SPLIT = 3


def _check_interval(record, names: tuple[str, str, str]) -> None:
    """Check and normalize a frozen interval record in place: a positive
    ``dt`` and three float arrays ``names`` of one shape with a coordinate axis."""
    if not record.dt > 0.0:
        raise ValueError(f"dt must be positive, got {record.dt}")
    object.__setattr__(record, "dt", float(record.dt))
    for name in names:
        arr = np.asarray(getattr(record, name), dtype=float)
        if arr.ndim == 0:
            raise ValueError(f"{name} must have a trailing coordinate axis, got a scalar")
        object.__setattr__(record, name, arr)
    shapes = {getattr(record, name).shape for name in names}
    if len(shapes) != 1:
        raise ValueError(f"{', '.join(names)} shapes disagree: {sorted(shapes)}")


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
        _check_interval(self, ("w", "h", "k"))

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
        _check_interval(self, ("w", "i1", "i2"))


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


@functools.cache
def bridge_matrices() -> tuple[np.ndarray, np.ndarray]:
    """Conditional map for the left half of an interval split, scale-free.

    For a split of ``[0, s]`` at ``a = s/2``, write the normalized vector
    of an interval of length ``t`` as x̂ = (w/t^0.5, i1/t^1.5, i2/t^2.5).
    Then x̂_left | x̂_parent ~ N(A x̂_parent, L Lᵀ) with (A, L) independent
    of ``s``; this returns that pair.  Cross-covariances come from
    integrating the Brownian kernel min(r, t) over the two intervals.
    """
    a = 0.5
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
    l_mat = np.linalg.cholesky(0.5 * (cond + cond.T))
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


@functools.cache
def _refine_map() -> np.ndarray:
    """The 6x6 map from (parent w, h, k, sqrt(dt)*z) to (left w, h, k, right w, h, k).

    Coefficients scale as sqrt(dt), so the map is independent of the
    parent's length.  The left rows are the bridge of :func:`bridge_matrices`
    conjugated into coefficient form; the right rows solve the composition
    rule of :func:`combine` for the right part.
    """
    a_mat, l_mat = bridge_matrices()
    t_inv = np.linalg.inv(_TO_INTEGRALS)
    r = q = 0.5
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


def refine(inc: BrownianIncrement, rng: np.random.Generator) -> tuple[BrownianIncrement, BrownianIncrement]:
    """Split one interval at its midpoint into two that compose back to it exactly.

    The left half is drawn from the exact conditional Gaussian law of its
    (w, i1, i2) given the parent's, and the right half is then fixed by the
    composition rule, so ``combine(left, right)`` reproduces ``inc`` up to
    rounding.  Tree nodes, stepper halves and the fine reference all split
    so.  Both steps are linear: the children come from one precomputed map
    applied to the parent's coefficients and ``rng``'s standard normals of
    shape ``(3, *batch, d)``.
    """
    full = _refine_map()
    s = inc.dt
    stacked = np.empty((6, *inc.w.shape))
    stacked[0], stacked[1], stacked[2] = inc.w, inc.h, inc.k
    rng.standard_normal(out=stacked[3:])
    stacked[3:] *= np.sqrt(s)
    out = (full @ stacked.reshape(6, -1)).reshape(stacked.shape)
    dt_l = 0.5 * s
    left = BrownianIncrement._trusted(dt_l, out[0], out[1], out[2])
    right = BrownianIncrement._trusted(s - dt_l, out[3], out[4], out[5])
    return left, right


def chunk_key(seed: int, tag: int, chunk: int) -> int:
    """The 128-bit Philox key of work unit ``(tag, chunk)`` under ``seed``.

    The low key word is ``seed`` modulo 2**64, the high one holds ``tag`` in
    its low half and ``chunk`` in its high half.  Distinct keys give
    independent Philox streams, so no hash is needed.
    """
    if not (0 <= tag <= _MASK32 and 0 <= chunk <= _MASK32):
        raise ValueError(f"tag and chunk must lie in [0, 2**32), got {tag} and {chunk}")
    return int(seed) & _MASK64 | int(tag) << 64 | int(chunk) << 96


def keyed_generator(seed: int, tag: int, chunk: int) -> np.random.Generator:
    """A fresh Philox generator keyed by :func:`chunk_key`, counter at zero.

    Output depends only on the key, never on creation order, which makes
    parallel chunks order-independent.
    """
    return np.random.Generator(np.random.Philox(key=chunk_key(seed, tag, chunk)))


# Each thread's one Philox generator; every draw resets its whole state first,
# so no draw depends on what an earlier one left behind.
_LOCAL = threading.local()


class _KeyedNoise:
    """Base of the noise sources: ``seed`` is their Philox key, taken modulo 2**128."""

    @functools.cached_property
    def _key(self) -> tuple[int, int]:
        key = int(self.seed)
        return key & _MASK64, key >> 64 & _MASK64

    def _keyed(self, stream: int, index: int) -> np.random.Generator:
        """A generator drawing what ``Philox(key=seed, counter=(0, 0, index, stream))`` draws.

        It is this thread's one reused generator, made on the thread's first
        draw (so importing this module does not load ``numpy.random``) and
        valid only until its next.  Its Philox is reset to the key and counter
        with an empty buffer, the state a fresh Philox starts in.
        """
        index = int(index)
        if not 0 <= index < 1 << _INDEX_BITS:
            raise ValueError(f"noise index must lie in [0, 2**{_INDEX_BITS}), got {index}")
        gen = getattr(_LOCAL, "generator", None)
        if gen is None:
            gen = _LOCAL.generator = np.random.Generator(np.random.Philox(key=0))
        gen.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": (0, 0, index, stream), "key": self._key},
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        return gen


@dataclass(frozen=True)
class BrownianPath(_KeyedNoise):
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
        g = self._keyed(_STREAM_STEP, index)
        inc = sample_increment(g, dt, self.d, shape=self.shape)
        if with_halves:
            inc = inc.with_halves(refine(inc, self._keyed(_STREAM_STEP_HALF, index)))
        return inc


@dataclass(frozen=True)
class DyadicBrownianTree(_KeyedNoise):
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
        g = self._keyed(_STREAM_TREE_ROOT, 1)
        return sample_increment(g, self.horizon, self.d, shape=self.shape)

    def split(
        self, inc: BrownianIncrement, index: int
    ) -> tuple[BrownianIncrement, BrownianIncrement]:
        """Split node ``index`` (holding ``inc``) into its two children."""
        return refine(inc, self._keyed(_STREAM_TREE_SPLIT, index))

    def walk(self, depth: int):
        """Every node down to level ``depth``, depth first, as ``(level, increment, halves)``.

        A node is split before it is yielded, so ``halves`` holds its two
        children (None at level ``depth``), and the children come next, left
        first: the nodes of each level arrive in time order.
        """
        stack = [(0, 1, self.root())]
        while stack:
            level, index, inc = stack.pop()
            halves = self.split(inc, index) if level < depth else None
            yield level, inc, halves
            if halves is not None:
                stack += [(level + 1, 2 * index + 1, halves[1]), (level + 1, 2 * index, halves[0])]
