"""Experiment drivers: convergence, contraction, stationarity, and mixing.

Every study here is deterministic given its seed and arguments.  Work is cut
into fixed-size chunks of paths or chains, each chunk draws its noise from
generators keyed by (seed, tag, chunk), and per-chunk results are folded in
chunk order.  The ``threads`` argument therefore changes wall time, never
output; it caps the chunk workers, and chunks too narrow to gain from
threads run serially.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .brownian import (
    BrownianPath,
    DyadicBrownianTree,
    combine,
    keyed_generator,
)
from .integrators import (
    STEPPERS,
    DivergenceError,
    PhaseState,
    SolverConfig,
    quicsort_step,
)
from .metrics import (
    EmpiricalDistribution,
    energy_distance_sq,
    subsample,
    wasserstein2,
)
from .potentials import QuadraticPotential, sample_prior

__all__ = [
    "CHUNK",
    "ConvergenceReport",
    "MixingReport",
    "OrderFit",
    "StationaryReport",
    "compare_study",
    "contract_csv",
    "contractivity_study",
    "convergence_csv",
    "fit_order",
    "gaussian_ground_truth",
    "level_grid_problems",
    "long_run_ground_truth",
    "mixing_csv",
    "mixing_study",
    "stationary_csv",
    "stationary_study",
    "strong_error_study",
    "write_json_report",
    "write_text_report",
]

# Paths and chains are processed in fixed chunks of this many so that the
# noise stream layout never depends on the thread count.
CHUNK = 64

# Chunks go to a thread pool only when a chunk's arrays are wide enough for
# NumPy to run long with the interpreter lock released: a chunk state of at
# least _POOL_MIN_STATE elements (CHUNK * d; noise, steppers and a quadratic
# gradient all work at this width) or, for a dataset posterior, gradient
# logits of at least _POOL_MIN_LOGITS elements (CHUNK * rows).  Narrower
# chunks are many short calls that hold the lock, so threads only contend for
# it.  Break-even measured on 2 cores: d of about 56 and about 550 rows.
_POOL_MIN_STATE = 4096
_POOL_MIN_LOGITS = 32768

_CSV_VERSION = "ulmc-csv v1"

# Stream tags for keyed_generator draws made by this module (brownian.py
# reserves tags 0-3 for itself).
_TAG_CONVERGE_X = 8
_TAG_CONVERGE_V = 9
_TAG_CONVERGE_TREE = 10
_TAG_MIXING_X = 12
_TAG_MIXING_V = 13
_TAG_MIXING_PATH = 14
_TAG_CONTRACT_INIT = 16
_TAG_CONTRACT_PATH = 17
_TAG_STATIONARY_X = 18
_TAG_STATIONARY_V = 19
_TAG_STATIONARY_PATH = 20
_TAG_TRUTH = 21
_TAG_SUBSAMPLE_REF = 22
_TAG_SUBSAMPLE_EMP = 23
_TAG_TRUTH_X = 24
_TAG_TRUTH_V = 25
_TAG_TRUTH_PATH = 26


def _child_seed(seed: int, tag: int, chunk: int) -> int:
    """Derive an independent 64-bit seed for one (tag, chunk) work unit."""
    ss = np.random.SeedSequence(
        entropy=int(seed) & 0xFFFFFFFFFFFFFFFF, spawn_key=(int(tag), int(chunk))
    )
    return int(ss.generate_state(1, np.uint64)[0])


def _chunk_sizes(total: int) -> list[int]:
    return [min(CHUNK, total - start) for start in range(0, total, CHUNK)]


def _chunk_workers(pot, threads: int, n_chunks: int) -> int:
    """How many threads run the ``n_chunks`` chunks of a study on ``pot``.

    ``threads`` is an upper bound: chunks too narrow to release the
    interpreter lock for long (see ``_POOL_MIN_STATE``) run serially.
    """
    dataset = getattr(pot, "dataset", None)
    rows = dataset.n_rows if dataset is not None else 0
    if CHUNK * pot.meta.d < _POOL_MIN_STATE and CHUNK * rows < _POOL_MIN_LOGITS:
        return 1
    return min(threads, n_chunks)


def _map_chunks(worker: Callable[[int], object], n_chunks: int, threads: int) -> list:
    """Run chunk workers on up to ``threads`` threads, returning results in order."""
    if threads > 1 and n_chunks > 1:
        with ThreadPoolExecutor(max_workers=min(threads, n_chunks)) as pool:
            return list(pool.map(worker, range(n_chunks)))
    return [worker(c) for c in range(n_chunks)]


def _default_initial(pot) -> Callable[[np.random.Generator, tuple[int, ...]], np.ndarray]:
    """Initial-position sampler: the dataset prior when there is one, else N(0, I)."""
    dataset = getattr(pot, "dataset", None)
    if dataset is not None:
        return lambda rng, shape: sample_prior(dataset, rng, shape=shape)
    d = pot.meta.d
    return lambda rng, shape: rng.standard_normal((*shape, d))


def _initial_state(cfg, pot, initial, seed, tag_x, tag_v, chunk, size) -> PhaseState:
    d = pot.meta.d
    x0 = np.asarray(initial(keyed_generator(seed, tag_x, chunk), (size,)), dtype=float)
    if x0.shape != (size, d):
        raise ValueError(f"initial sampler returned shape {x0.shape}, expected {(size, d)}")
    v0 = math.sqrt(cfg.u) * keyed_generator(seed, tag_v, chunk).standard_normal((size, d))
    return PhaseState(x0, v0)


def _finite(state: PhaseState) -> bool:
    return bool(np.isfinite(state.x).all() and np.isfinite(state.v).all())


def _divergence(name: str, step: int, h: float, state: PhaseState, chunk: int) -> DivergenceError:
    """The error for a non-finite ``state`` of ``chunk``, one chain per row."""
    ok_x, ok_v = np.isfinite(state.x), np.isfinite(state.v)
    bad = ~(ok_x & ok_v).all(axis=-1)
    max_x, max_v = (
        float(np.abs(a[ok]).max()) if ok.any() else None
        for a, ok in ((state.x, ok_x), (state.v, ok_v))
    )
    return DivergenceError(
        name, step, step * h, chunk=chunk, chain=chunk * CHUNK + int(np.argmax(bad)),
        max_abs_x=max_x, max_abs_v=max_v,
    )


@dataclass(frozen=True)
class OrderFit:
    """Least-squares line through (log2 N, log2 S); |slope| is the order."""

    slope: float
    intercept: float

    @property
    def order(self) -> float:
        return abs(self.slope)


def fit_order(rows: Iterable[tuple[float, float]]) -> OrderFit:
    """Fit log2(error) against log2(step count) by ordinary least squares.

    ``rows`` holds (step count, error) pairs; at least three are required
    and both entries must be positive.
    """
    pts = [(float(n), float(err)) for n, err in rows]
    if len(pts) < 3:
        raise ValueError("need at least 3 (step count, error) rows to fit an order")
    if any(n <= 0 or err <= 0 for n, err in pts):
        raise ValueError("step counts and errors must be positive to fit in log space")
    x = np.log2([n for n, _ in pts])
    y = np.log2([err for _, err in pts])
    xc = x - x.mean()
    slope = float(np.dot(xc, y - y.mean()) / np.dot(xc, xc))
    intercept = float(y.mean() - slope * x.mean())
    return OrderFit(slope=slope, intercept=intercept)


@dataclass(frozen=True)
class ConvergenceReport:
    """Strong-error table S_{N,J} per method with fitted log-log slopes."""

    methods: tuple[str, ...]
    step_counts: tuple[int, ...]
    errors: dict[str, tuple[float, ...]]
    fits: dict[str, OrderFit]
    paths: int
    horizon: float
    fine_level: int
    seed: int

    def __post_init__(self) -> None:
        if any(b <= a for a, b in zip(self.step_counts, self.step_counts[1:])):
            raise ValueError("step counts must be strictly increasing")
        for method in self.methods:
            errs = self.errors[method]
            if len(errs) != len(self.step_counts):
                raise ValueError("need one error per step count per method")
            if any(not math.isfinite(e) or e < 0.0 for e in errs):
                raise ValueError("errors must be finite and nonnegative")

    @property
    def fit_range(self) -> tuple[int, int]:
        return self.step_counts[0], self.step_counts[-1]

    def rows(self) -> Iterator[tuple[str, int, float]]:
        for method in self.methods:
            for n, err in zip(self.step_counts, self.errors[method]):
                yield method, n, err

    def to_dict(self) -> dict:
        return {
            "kind": "converge",
            "methods": list(self.methods),
            "step_counts": list(self.step_counts),
            "errors": {m: list(v) for m, v in self.errors.items()},
            "fits": {
                m: {"slope": f.slope, "intercept": f.intercept, "order": f.order}
                for m, f in self.fits.items()
            },
            "fit_range": list(self.fit_range),
            "paths": self.paths,
            "horizon": self.horizon,
            "fine_level": self.fine_level,
            "seed": self.seed,
        }


class _LevelRun:
    """One stepper consuming tree nodes of a fixed depth, left to right."""

    __slots__ = ("method", "stepper", "wants_halves", "state", "steps", "h", "chunk")

    def __init__(self, method: str, state: PhaseState, h: float, chunk: int):
        self.method = method
        self.stepper = STEPPERS[method]
        self.wants_halves = getattr(self.stepper, "needs_halves", False)
        self.state = state
        self.steps = 0
        self.h = h
        self.chunk = chunk

    def advance(self, cfg, pot, inc) -> None:
        state = self.stepper(cfg, pot, self.state, inc)
        self.steps += 1
        if not _finite(state):
            raise _divergence(self.method, self.steps, self.h, state, self.chunk)
        self.state = state


def _check_recombines(inc, children) -> None:
    back = combine(children[0], children[1])
    tol = 1e-10 * math.sqrt(inc.dt)
    for got, want in ((back.w, inc.w), (back.h, inc.h), (back.k, inc.k)):
        if not np.allclose(got, want, rtol=1e-9, atol=tol):
            raise RuntimeError("tree split does not recombine to its parent increment")


def _descend(tree, cfg, pot, index, inc, depth, fine_depth, by_depth, validate) -> None:
    """Depth-first walk of the dyadic tree, stepping each run at its depth.

    Children are generated before the runs at this depth advance so that a
    stepper needing refined halves can take them from the same split the
    walk uses; left-to-right recursion visits every depth in time order.
    """
    children = None
    if depth < fine_depth:
        children = tree.split(inc, index)
        if validate:
            _check_recombines(inc, children)
    for run in by_depth.get(depth, ()):
        run.advance(cfg, pot, inc.with_halves(children) if run.wants_halves else inc)
    if children is not None:
        _descend(tree, cfg, pot, 2 * index, children[0], depth + 1, fine_depth, by_depth, validate)
        _descend(tree, cfg, pot, 2 * index + 1, children[1], depth + 1, fine_depth, by_depth, validate)


def level_grid_problems(
    methods: Sequence[str], coarse_levels: Sequence[int], fine_level: int
) -> list[str]:
    """Why a strong-error study cannot run on this level grid; empty if it can.

    Each entry reads ``"<setting>: <problem>"``, naming the setting to change.
    Methods not in ``STEPPERS`` are left to the caller to report.
    """
    levels = sorted({int(lvl) for lvl in coarse_levels})
    fine_level = int(fine_level)
    if not levels:
        return ["levels: need at least one coarse level"]
    if levels[0] < 0:
        return ["levels: coarse levels are exponents of two and must be nonnegative"]
    if fine_level < levels[-1]:
        return [
            "fine_level: must be at least the finest coarse level so the fine "
            "increments combine dyadically onto every coarse grid"
        ]
    if fine_level in levels:
        return [
            f"levels: method '{m}' needs increments refined into halves, so its "
            f"coarse levels must stay strictly below fine_level {fine_level}"
            for m in dict.fromkeys(methods)
            if getattr(STEPPERS.get(m), "needs_halves", False)
        ]
    return []


def strong_error_study(
    cfg: SolverConfig,
    pot,
    methods: Sequence[str],
    horizon: float,
    paths: int,
    coarse_levels: Sequence[int],
    fine_level: int,
    seed: int,
    *,
    initial: Callable | None = None,
    threads: int = 1,
    validate_path: bool = False,
) -> ConvergenceReport:
    """Strong L2 errors against a shared-path fine reference.

    For each path a dyadic refinement tree supplies, at every requested
    level n, the 2**n interval increments of one Brownian path over
    [0, horizon].  Each method at each coarse level and the reference
    (the two-gradient stepper at ``fine_level``) consume the same tree, so
    differences measure integrator error alone.  The reported error for a
    method at step count N = 2**n is

        S = sqrt(mean over paths of |X_N(horizon) - X_fine(horizon)|^2)

    with positions compared at the final time.  Initial positions come
    from ``initial`` (default: the dataset prior when the potential has
    one, else standard normal) and initial velocities from N(0, u I),
    shared by all methods on a given path.

    ``validate_path`` rechecks on every split that the two children
    recombine to their parent increment.
    """
    method_list = tuple(dict.fromkeys(str(m) for m in methods))
    if not method_list:
        raise ValueError("need at least one method")
    unknown = [m for m in method_list if m not in STEPPERS]
    if unknown:
        raise ValueError(f"unknown methods {unknown}; choose from {sorted(STEPPERS)}")
    if paths < 2:
        raise ValueError("need at least 2 paths for a Monte Carlo error estimate")
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    problems = level_grid_problems(method_list, coarse_levels, fine_level)
    if problems:
        raise ValueError(problems[0])
    levels = tuple(sorted({int(lvl) for lvl in coarse_levels}))
    fine_level = int(fine_level)
    if initial is None:
        initial = _default_initial(pot)

    d = pot.meta.d
    sizes = _chunk_sizes(int(paths))
    keys = [(m, lvl) for m in method_list for lvl in levels]

    def run_chunk(chunk: int) -> dict[tuple[str, int], float]:
        size = sizes[chunk]
        state0 = _initial_state(cfg, pot, initial, seed, _TAG_CONVERGE_X, _TAG_CONVERGE_V, chunk, size)
        tree = DyadicBrownianTree(
            _child_seed(seed, _TAG_CONVERGE_TREE, chunk), d, float(horizon), shape=(size,)
        )
        runs: dict[tuple[str, int], _LevelRun] = {}
        by_depth: dict[int, list[_LevelRun]] = {}
        for m, lvl in keys:
            run = _LevelRun(m, state0, horizon / 2.0**lvl, chunk)
            runs[(m, lvl)] = run
            by_depth.setdefault(lvl, []).append(run)
        fine_run = _LevelRun("quicsort", state0, horizon / 2.0**fine_level, chunk)
        by_depth.setdefault(fine_level, []).append(fine_run)
        _descend(tree, cfg, pot, 1, tree.root(), 0, fine_level, by_depth, validate_path)
        ref = fine_run.state.x
        return {key: float(np.sum((runs[key].state.x - ref) ** 2)) for key in keys}

    totals = {key: 0.0 for key in keys}
    for part in _map_chunks(run_chunk, len(sizes), _chunk_workers(pot, threads, len(sizes))):
        for key, val in part.items():
            totals[key] += val

    step_counts = tuple(2**lvl for lvl in levels)
    errors = {
        m: tuple(math.sqrt(totals[(m, lvl)] / paths) for lvl in levels)
        for m in method_list
    }
    fits = {}
    if len(levels) >= 3:
        for m in method_list:
            if all(e > 0.0 for e in errors[m]):
                fits[m] = fit_order(zip(step_counts, errors[m]))
    return ConvergenceReport(
        methods=method_list,
        step_counts=step_counts,
        errors=errors,
        fits=fits,
        paths=int(paths),
        horizon=float(horizon),
        fine_level=fine_level,
        seed=int(seed),
    )


def _transformed_distance(cfg: SolverConfig, a: PhaseState, b: PhaseState) -> float:
    """L2 coupling distance in the contraction coordinates (w, z) = (0, gamma)."""
    dx = b.x - a.x
    dv = b.v - a.v
    z = cfg.gamma * dx + dv
    w_part = math.sqrt(float(np.mean(np.sum(dv * dv, axis=-1))))
    z_part = math.sqrt(float(np.mean(np.sum(z * z, axis=-1))))
    return w_part + z_part


def contractivity_study(
    cfg: SolverConfig,
    pot,
    h: float,
    n_steps: int,
    n_pairs: int,
    seed: int,
    *,
    initial_pairs: tuple[PhaseState, PhaseState] | None = None,
) -> np.ndarray:
    """Transformed distance between synchronously coupled chains, per step.

    Runs ``n_pairs`` chain pairs that share every increment and differ only
    in their initial conditions, recording after each step the distance
    sqrt(mean |dv|^2) + sqrt(mean |gamma dx + dv|^2).  Requires the regime
    in which geometric decay is guaranteed: gamma >= 2 sqrt(u M1) and
    h <= 0.1 / gamma.  Returns an array of length ``n_steps + 1`` whose
    first entry is the initial distance.
    """
    meta = pot.meta
    gamma_floor = 2.0 * math.sqrt(cfg.u * meta.M1)
    if cfg.gamma < gamma_floor * (1.0 - 1e-12):
        raise ValueError(
            f"contraction needs gamma >= 2*sqrt(u*M1) = {gamma_floor:.6g}, got {cfg.gamma:.6g}"
        )
    h_ceil = 0.1 / cfg.gamma
    if h <= 0.0 or h > h_ceil * (1.0 + 1e-12):
        raise ValueError(f"contraction needs 0 < h <= 0.1/gamma = {h_ceil:.6g}, got {h:.6g}")
    if n_steps < 1 or n_pairs < 1:
        raise ValueError("need at least one step and one pair")

    d = meta.d
    if initial_pairs is None:
        g = keyed_generator(seed, _TAG_CONTRACT_INIT, 0)
        scale = math.sqrt(cfg.u)
        state_a = PhaseState(g.standard_normal((n_pairs, d)), scale * g.standard_normal((n_pairs, d)))
        state_b = PhaseState(g.standard_normal((n_pairs, d)), scale * g.standard_normal((n_pairs, d)))
    else:
        state_a, state_b = initial_pairs
        for s in (state_a, state_b):
            if s.x.shape != (n_pairs, d) or s.v.shape != (n_pairs, d):
                raise ValueError(f"initial pair states must have shape {(n_pairs, d)}")

    path = BrownianPath(_child_seed(seed, _TAG_CONTRACT_PATH, 0), d, shape=(n_pairs,))
    out = np.empty(n_steps + 1)
    out[0] = _transformed_distance(cfg, state_a, state_b)
    for i in range(n_steps):
        inc = path.increment(i, h)
        state_a = quicsort_step(cfg, pot, state_a, inc)
        state_b = quicsort_step(cfg, pot, state_b, inc)
        if not (_finite(state_a) and _finite(state_b)):
            raise DivergenceError("quicsort", i + 1, (i + 1) * h)
        out[i + 1] = _transformed_distance(cfg, state_a, state_b)
    return out


@dataclass(frozen=True)
class MixingReport:
    """Sampling-quality metrics against a reference cloud per checkpoint."""

    method: str
    step_size: float
    n_chains: int
    checkpoints: tuple[int, ...]
    grad_evals: tuple[int, ...]
    energy: tuple[float, ...]
    w2: tuple[float, ...]
    seed: int

    def __post_init__(self) -> None:
        n = len(self.checkpoints)
        if len(self.grad_evals) != n or len(self.energy) != n or len(self.w2) != n:
            raise ValueError("per-checkpoint fields must share one length")
        if any(b < a for a, b in zip(self.grad_evals, self.grad_evals[1:])):
            raise ValueError("gradient evaluation counts must be nondecreasing")

    def rows(self) -> Iterator[tuple[str, int, float, float]]:
        for ge, e, w in zip(self.grad_evals, self.energy, self.w2):
            yield self.method, ge, e, w

    def to_dict(self) -> dict:
        return {
            "kind": "mixing",
            "method": self.method,
            "step_size": self.step_size,
            "n_chains": self.n_chains,
            "checkpoints": list(self.checkpoints),
            "grad_evals": list(self.grad_evals),
            "energy": list(self.energy),
            "w2": list(self.w2),
            "seed": self.seed,
        }


def _resolve_stepper(stepper) -> tuple[str, Callable]:
    if isinstance(stepper, str):
        if stepper not in STEPPERS:
            raise ValueError(f"unknown method '{stepper}'; choose from {sorted(STEPPERS)}")
        return stepper, STEPPERS[stepper]
    for name, fn in STEPPERS.items():
        if fn is stepper:
            return name, fn
    name = getattr(stepper, "__name__", "custom")
    return name.removesuffix("_step"), stepper


def _evolve_positions(
    cfg, pot, name, fn, n_chains, h, record, seed, tags, initial, threads
) -> dict[int, np.ndarray]:
    """Advance chunked chains, returning position clouds at the recorded steps."""
    tag_x, tag_v, tag_path = tags
    d = pot.meta.d
    needs_halves = getattr(fn, "needs_halves", False)
    sizes = _chunk_sizes(int(n_chains))
    wanted = frozenset(record)
    last = max(record)

    def run_chunk(chunk: int) -> dict[int, np.ndarray]:
        size = sizes[chunk]
        state = _initial_state(cfg, pot, initial, seed, tag_x, tag_v, chunk, size)
        path = BrownianPath(_child_seed(seed, tag_path, chunk), d, shape=(size,))
        snaps: dict[int, np.ndarray] = {}
        if 0 in wanted:
            snaps[0] = state.x.copy()
        for step in range(1, last + 1):
            inc = path.increment(step - 1, h, with_halves=needs_halves)
            state = fn(cfg, pot, state, inc)
            if not _finite(state):
                raise _divergence(name, step, h, state, chunk)
            if step in wanted:
                snaps[step] = state.x.copy()
        return snaps

    parts = _map_chunks(run_chunk, len(sizes), _chunk_workers(pot, threads, len(sizes)))
    return {step: np.concatenate([p[step] for p in parts], axis=0) for step in sorted(wanted)}


def mixing_study(
    cfg: SolverConfig,
    pot,
    stepper,
    n_chains: int,
    h: float,
    checkpoints: Sequence[int],
    ground_truth,
    seed: int,
    *,
    initial: Callable | None = None,
    threads: int = 1,
    metric_cap: int = 2048,
) -> MixingReport:
    """Independent chains measured against a reference cloud as they run.

    At every checkpoint (a step index; 0 means the initial cloud) the
    current positions across all chains form an empirical distribution and
    both the energy distance and the 2-Wasserstein distance to
    ``ground_truth`` are recorded, together with the cumulative number of
    gradient evaluations spent (per-step cost of the method times steps
    times chains).  The transport metric solves an exact assignment, so
    clouds larger than ``metric_cap`` are subsampled for it (deterministic
    in the seed); the energy distance always uses the full clouds.
    """
    name, fn = _resolve_stepper(stepper)
    cps = tuple(int(c) for c in checkpoints)
    if not cps or any(c < 0 for c in cps) or any(b <= a for a, b in zip(cps, cps[1:])):
        raise ValueError("checkpoints must be strictly increasing step indices >= 0")
    if n_chains < 1:
        raise ValueError("need at least one chain")
    if h <= 0.0:
        raise ValueError("step size must be positive")
    gt = (
        ground_truth
        if isinstance(ground_truth, EmpiricalDistribution)
        else EmpiricalDistribution(np.asarray(ground_truth, dtype=float))
    )
    if initial is None:
        initial = _default_initial(pot)

    clouds = _evolve_positions(
        cfg, pot, name, fn, n_chains, h, cps, seed,
        (_TAG_MIXING_X, _TAG_MIXING_V, _TAG_MIXING_PATH), initial, threads,
    )

    evals_per_step = int(getattr(fn, "gradient_evals", 1))
    gt_cmp = gt
    if gt.n > metric_cap:
        gt_cmp = subsample(gt, metric_cap, keyed_generator(seed, _TAG_SUBSAMPLE_REF, 0))
    grad, energy, w2s = [], [], []
    for ci, step in enumerate(cps):
        emp = EmpiricalDistribution(clouds[step])
        grad.append(step * evals_per_step * int(n_chains))
        energy.append(math.sqrt(max(energy_distance_sq(emp, gt), 0.0)))
        m = min(emp.n, gt_cmp.n, metric_cap)
        emp_w = emp if emp.n == m else subsample(emp, m, keyed_generator(seed, _TAG_SUBSAMPLE_EMP, ci))
        gt_w = gt_cmp if gt_cmp.n == m else subsample(gt_cmp, m, keyed_generator(seed, _TAG_SUBSAMPLE_REF, 1 + ci))
        w2s.append(wasserstein2(emp_w, gt_w))
    return MixingReport(
        method=name,
        step_size=float(h),
        n_chains=int(n_chains),
        checkpoints=cps,
        grad_evals=tuple(grad),
        energy=tuple(energy),
        w2=tuple(w2s),
        seed=int(seed),
    )


def compare_study(
    cfg: SolverConfig,
    pot,
    n_chains: int,
    h: float,
    checkpoints: Sequence[int],
    ground_truth,
    seed: int,
    *,
    methods: Sequence[str] = ("quicsort", "ubu", "euler"),
    initial: Callable | None = None,
    threads: int = 1,
    metric_cap: int = 2048,
) -> dict[str, MixingReport]:
    """Mixing studies across methods at matched gradient budgets.

    ``h`` and ``checkpoints`` describe the two-gradient method's grid; a
    one-gradient method runs at h/2 for twice the steps, so at every
    checkpoint all methods have spent identical gradient budgets and
    reached the same physical time.
    """
    cps = tuple(int(c) for c in checkpoints)
    reports: dict[str, MixingReport] = {}
    for m in dict.fromkeys(methods):
        name, fn = _resolve_stepper(m)
        evals = int(getattr(fn, "gradient_evals", 1))
        if evals not in (1, 2):
            raise ValueError(f"cannot budget-match method '{name}' with {evals} gradients per step")
        scale = 2 // evals
        reports[name] = mixing_study(
            cfg, pot, name, n_chains, h * evals / 2.0,
            tuple(c * scale for c in cps), ground_truth, seed,
            initial=initial, threads=threads, metric_cap=metric_cap,
        )
    return reports


@dataclass(frozen=True)
class StationaryReport:
    """Long-run moment statistics pooled over chains and kept steps."""

    mean_x_sq: float
    mean_v_sq: float
    v_l2: float
    v_l4: float
    v_l6: float
    n_chains: int
    burn_in: int
    kept: int
    step_size: float
    seed: int

    def rows(self) -> Iterator[tuple[str, float]]:
        yield "mean_x_sq", self.mean_x_sq
        yield "mean_v_sq", self.mean_v_sq
        yield "v_l2", self.v_l2
        yield "v_l4", self.v_l4
        yield "v_l6", self.v_l6

    def to_dict(self) -> dict:
        return {
            "kind": "stationary",
            "mean_x_sq": self.mean_x_sq,
            "mean_v_sq": self.mean_v_sq,
            "v_l2": self.v_l2,
            "v_l4": self.v_l4,
            "v_l6": self.v_l6,
            "n_chains": self.n_chains,
            "burn_in": self.burn_in,
            "kept": self.kept,
            "step_size": self.step_size,
            "seed": self.seed,
        }


def stationary_study(
    cfg: SolverConfig,
    pot,
    h: float,
    n_chains: int,
    burn_in: int,
    kept: int,
    seed: int,
    *,
    stepper="quicsort",
    initial: Callable | None = None,
    threads: int = 1,
) -> StationaryReport:
    """Empirical stationary moments from long chains after burn-in.

    After ``burn_in`` steps each chain contributes every one of its next
    ``kept`` states.  Velocity norms follow the pooled per-coordinate
    convention: the L_{2p} statistic is sqrt(d) times the 2p-th root of the
    pooled per-coordinate moment, which for a Gaussian stationary law gives
    sqrt(u d), 3^(1/4) sqrt(u d), 15^(1/6) sqrt(u d) at p = 1, 2, 3.
    """
    name, fn = _resolve_stepper(stepper)
    if n_chains < 1:
        raise ValueError("need at least one chain")
    if burn_in < 0 or kept < 1:
        raise ValueError("burn_in must be >= 0 and kept >= 1")
    if h <= 0.0:
        raise ValueError("step size must be positive")
    if initial is None:
        initial = _default_initial(pot)

    d = pot.meta.d
    needs_halves = getattr(fn, "needs_halves", False)
    sizes = _chunk_sizes(int(n_chains))
    add_all = np.add.reduce

    def run_chunk(chunk: int) -> list[float]:
        size = sizes[chunk]
        state = _initial_state(
            cfg, pot, initial, seed, _TAG_STATIONARY_X, _TAG_STATIONARY_V, chunk, size
        )
        path = BrownianPath(_child_seed(seed, _TAG_STATIONARY_PATH, chunk), d, shape=(size,))
        sum_x2 = sum_v2 = sum_v4 = sum_v6 = 0.0
        for step in range(burn_in + kept):
            inc = path.increment(step, h, with_halves=needs_halves)
            state = fn(cfg, pot, state, inc)
            if step < burn_in:
                if not _finite(state):
                    raise _divergence(name, step + 1, h, state, chunk)
                continue
            # add.reduce over all axes is np.sum without its dispatch
            v2 = state.v * state.v
            v4 = v2 * v2
            x2_step = float(add_all(state.x * state.x, axis=None))
            v2_step = float(add_all(v2, axis=None))
            # a non-finite entry makes these sums non-finite, so only then (or
            # when a square overflows) is the state checked entry by entry
            if not math.isfinite(x2_step + v2_step) and not _finite(state):
                raise _divergence(name, step + 1, h, state, chunk)
            sum_x2 += x2_step
            sum_v2 += v2_step
            sum_v4 += float(add_all(v4, axis=None))
            sum_v6 += float(add_all(v4 * v2, axis=None))
        return [sum_x2, sum_v2, sum_v4, sum_v6]

    totals = np.zeros(4)
    for part in _map_chunks(run_chunk, len(sizes), _chunk_workers(pot, threads, len(sizes))):
        totals += part

    pooled = totals / (float(kept) * n_chains * d)
    return StationaryReport(
        mean_x_sq=float(d * pooled[0]),
        mean_v_sq=float(d * pooled[1]),
        v_l2=math.sqrt(d * pooled[1]),
        v_l4=math.sqrt(d) * pooled[2] ** 0.25,
        v_l6=math.sqrt(d) * pooled[3] ** (1.0 / 6.0),
        n_chains=int(n_chains),
        burn_in=int(burn_in),
        kept=int(kept),
        step_size=float(h),
        seed=int(seed),
    )


def gaussian_ground_truth(pot: QuadraticPotential, n: int, seed: int) -> EmpiricalDistribution:
    """Exact draws from the Gaussian position law exp(-f) of a quadratic f."""
    if n < 1:
        raise ValueError("need at least one draw")
    rng = keyed_generator(seed, _TAG_TRUTH, 0)
    z = rng.standard_normal((int(n), pot.meta.d))
    return EmpiricalDistribution(pot.center + z / np.sqrt(pot.curvatures))


def long_run_ground_truth(
    cfg: SolverConfig,
    pot,
    n_samples: int,
    h: float,
    n_steps: int,
    seed: int,
    *,
    initial: Callable | None = None,
    threads: int = 1,
) -> EmpiricalDistribution:
    """Reference cloud for targets without exact samplers.

    Runs ``n_samples`` independent chains with the two-gradient stepper at a
    small step size for ``n_steps`` steps and keeps one final position per
    chain.  A stand-in for an exact sampler; make ``h`` small and
    ``n_steps * h`` comfortably longer than the mixing time.
    """
    if n_samples < 1 or n_steps < 1:
        raise ValueError("need at least one sample and one step")
    if h <= 0.0:
        raise ValueError("step size must be positive")
    if initial is None:
        initial = _default_initial(pot)
    clouds = _evolve_positions(
        cfg, pot, "quicsort", quicsort_step, n_samples, h, (int(n_steps),), seed,
        (_TAG_TRUTH_X, _TAG_TRUTH_V, _TAG_TRUTH_PATH), initial, threads,
    )
    return EmpiricalDistribution(clouds[int(n_steps)])


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def convergence_csv(report: ConvergenceReport) -> str:
    lines = [f"# {_CSV_VERSION} converge", "method,N,rms_error"]
    lines += [f"{m},{n},{_fmt(e)}" for m, n, e in report.rows()]
    return "\n".join(lines) + "\n"


def mixing_csv(reports, kind: str = "sample") -> str:
    """CSV for one or more mixing reports; kind is 'sample' or 'compare'."""
    if kind not in ("sample", "compare"):
        raise ValueError("kind must be 'sample' or 'compare'")
    if isinstance(reports, MixingReport):
        reports = [reports]
    elif isinstance(reports, Mapping):
        reports = list(reports.values())
    lines = [f"# {_CSV_VERSION} {kind}", "method,grad_evals,energy_dist,w2"]
    for rep in reports:
        lines += [f"{m},{ge},{_fmt(e)},{_fmt(w)}" for m, ge, e, w in rep.rows()]
    return "\n".join(lines) + "\n"


def contract_csv(distances) -> str:
    lines = [f"# {_CSV_VERSION} contract", "step,distance"]
    lines += [f"{i},{_fmt(v)}" for i, v in enumerate(np.asarray(distances, dtype=float))]
    return "\n".join(lines) + "\n"


def stationary_csv(report: StationaryReport) -> str:
    lines = [f"# {_CSV_VERSION} stationary", "statistic,value"]
    lines += [f"{name},{_fmt(value)}" for name, value in report.rows()]
    return "\n".join(lines) + "\n"


def write_text_report(path, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8", newline="\n")


def write_json_report(path, payload: dict) -> None:
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8", newline="\n"
    )
