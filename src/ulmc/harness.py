"""Experiment drivers: convergence, contraction, stationarity, and mixing.

Every study here is deterministic given its seed and arguments, which its
``*_problems`` function checks first: each setting alone, then, once all hold,
combined rules and a :class:`Plan` of the run against ``_BOUNDS``.  Work is cut
into fixed-size chunks of paths or chains, each chunk draws its initial state
(positions from the dataset prior or N(0, I), velocities from N(0, u I)) and
its noise from generators keyed by (seed, tag, chunk), and per-chunk results
are folded in chunk order; only the contraction study steps all its pairs as
one chunk 0, with N(0, I) positions on any target, both chains of a pair
stacked in one state.  Chains step on a keyed path through
:meth:`ChainRunner.run`, or, in the convergence study, on the nodes of
:meth:`DyadicBrownianTree.walk` at their level.  Mixing studies measure a
run's checkpoints on helper threads while later runs evolve, gathering the
distances in submission order.  ``threads`` caps the threads alive at once,
the calling thread among them, and changes wall time, never output: a run's
chunks take the threads its pending measurements leave, and chunks too narrow
to gain from threads run in the calling thread (OpenBLAS's own threads, which
a logistic gradient may use, are not counted).  Studies return report objects
(``rows()`` and ``to_dict()``); :mod:`ulmc.cli` writes them as CSV and JSON.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import math
import threading
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .brownian import (
    _INDEX_BITS,
    BrownianPath,
    DyadicBrownianTree,
    chunk_key,
    keyed_generator,
)
from .integrators import (
    CHUNK,
    STEPPER_SPECS,
    ChainRunner,
    DivergenceError,
    PhaseState,
    SolverConfig,
)
from .metrics import (
    EmpiricalDistribution,
    _as_dist,
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
    "contract_problems",
    "contractivity_study",
    "converge_problems",
    "fit_order",
    "gaussian_ground_truth",
    "ground_truth_problems",
    "long_run_ground_truth",
    "mixing_problems",
    "mixing_study",
    "stationary_problems",
    "stationary_study",
    "strong_error_study",
]

# Chunks go to a thread pool only when a chunk's arrays are wide enough for
# NumPy to run long with the interpreter lock released: a chunk state of at
# least _POOL_MIN_STATE elements (CHUNK * d; noise, steppers and a quadratic
# gradient all work at this width) or, for a dataset posterior, gradient
# logits of at least _POOL_MIN_LOGITS elements (CHUNK * rows).  Narrower
# chunks are many short calls that hold the lock, so threads only contend for
# it.  Break-even measured on 2 cores: d of about 56 and about 550 rows.
_POOL_MIN_STATE = 4096
_POOL_MIN_LOGITS = 32768

# A checkpoint's exact W2 uses at most this many points of each cloud, subsampled by seed.
_METRIC_CAP = 2048

# The most steps a run may plan over its chunks of paths or chains: chunks
# times the longest run's steps (converge's reference, stationary's burn-in and
# kept steps, a mixing study's steps to its last checkpoint summed over its
# runs, at least one each, the long-run reference's steps).  One tree split and one
# two-gradient step on a chunk took about 80 us on the cheapest target measured
# (d = 2 quadratic, one thread, 2 cores), so this many take about a day.
_MAX_CHUNK_STEPS = 2**30

# The most steps a contraction run may take.  It keeps one distance per step
# in an array, in the JSON report's list and in the CSV, about 100 bytes each
# in all, so this many make reports of about 100 MB (2**30 would make 100 GB).
_MAX_CONTRACT_STEPS = 2**20

# The most chunks a chain or path study may cut its chains or paths into.  A
# run keeps one chunk size, one queued job and one result per chunk, about
# 150 bytes in all (tracemalloc), and a one-step chunk took about 110 us:
# ``stationary --chains 4194304 --burn-in 0 --kept 1 --dimension 2`` makes
# this many chunks and took 7 s (one thread, 2 cores).  One step on each of
# 2**30 chunks fits the step plan, but its bookkeeping alone would be 160 GB.
_MAX_CHUNKS = 2**16

# The most floats of position clouds a run may hold at once: a mixing study's
# chains times d at every checkpoint of every run, whose clouds wait for their
# measurements, or a reference cloud's samples times d.  At this bound (128
# MB of floats) evolving 65,536 chains at d = 64 to four checkpoints raised
# peak RSS by 263 MB, as each checkpoint's chunk copies are joined into one
# cloud, and exact draws of 2**18 samples at d = 64 raised it by 390 MB.
_MAX_CLOUD_ENTRIES = 2**24

# The most floats of state one chunk may keep: its rows times the target's
# dimension, for each run a converge chunk steps and each node on its tree
# walk's stack, and contract's one (2, pairs, d) state.  A step holds about 18
# arrays of a state's shape at once: a stationary chunk of 64 chains at
# d = 65,536 (this bound) raised peak RSS to 614 MB, and at d = 262,144 to
# 2.3 GB, and contract at this bound (524,288 pairs at d = 4) to 517 MB (one
# thread, 2 cores).
_MAX_CHUNK_ENTRIES = 2**22

# The most distance terms, point pairs times the dimension, that one checkpoint
# measurement may sum: the energy distance reads every pair within the cloud,
# between the cloud and the reference, and, the first time, within the
# reference.  A distance took about 5.2 ns at d = 1 and 0.7 ns per coordinate
# at d >= 10 (one thread, 2 cores), so this many take at most about 90 s.
_MAX_DISTANCE_WORK = 2**34

# The bounds of every plan, in the order checked: (a Plan field, the constant
# bounding it, read at each check, and the problem past it).  README lists them.
_BOUNDS = (
    ("chunk_steps", "_MAX_CHUNK_STEPS", "{run} would take {steps} steps on each of {chunks} chunks of {unit}, "
     "above the {limit} a run may plan (about a day)"),
    ("chunks", "_MAX_CHUNKS", "{run} would cut {count} {unit} into {chunks} chunks of {chunk}, "
     "above the {limit} a run may plan"),
    ("held", "_MAX_CLOUD_ENTRIES", "{run} would hold {held} floats of positions at once, "
     "above the {limit} a run may hold"),
    ("state", "_MAX_CHUNK_ENTRIES", "a chunk of {rows} {unit} would keep {state} floats of state, "
     "above the {limit} a chunk may hold"),
    ("terms", "_MAX_DISTANCE_WORK", "a checkpoint's energy distance would sum {terms} distance terms "
     "(point pairs times the dimension), above the {limit} a measurement may plan"),
)

_MIN_STEP = math.ulp(0.0)  # the smallest positive float; shorter steps are 0

# Tags of the work units this module keys with chunk_key.  A chain study's
# triple keys its initial positions, its initial velocities and its noise
# (converge's noise is a dyadic tree, the others' a path).
_TAGS_CONVERGE = (8, 9, 10)
_TAGS_MIXING = (12, 13, 14)
_TAGS_STATIONARY = (18, 19, 20)
_TAGS_TRUTH = (24, 25, 26)
_TAG_CONTRACT_INIT = 16
_TAG_CONTRACT_PATH = 17
_TAG_TRUTH = 21
_TAG_SUBSAMPLE_REF = 22
_TAG_SUBSAMPLE_EMP = 23


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


class _WorkQueue:
    """Jobs run by ``threads - 1`` helper threads and, once it gathers, the
    calling thread, so ``threads`` threads work in all; results come back in
    submission order.  A helper that cannot start leaves its jobs to the caller.

    Helpers start with the first job and take jobs from one queue as soon
    as they are submitted, so the caller can do other work (evolve the next
    clouds) while they run.  A job is skipped when an earlier-submitted job
    has raised; jobs leave the queue in submission order, so every job
    before the earliest failure still runs and :meth:`gather` raises what a
    serial loop would.  Leaving the ``with`` block by an exception drops
    the jobs not yet started and joins the helpers, so none outlives it.
    """

    _STOP = None  # one per consumer ends its loop

    def __init__(self, threads: int):
        import queue  # loaded by the first study, so a run refused at validation never pays for it

        self._jobs = queue.SimpleQueue()
        self._results: list = []
        self._failed: list[int] = []  # indices of raising jobs; -1 drops every pending job
        self._threads = threads
        self.helpers: list[threading.Thread] = []

    def __enter__(self) -> "_WorkQueue":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self._failed.append(-1)
        self._close(serve=False)

    def submit(self, fn: Callable, item) -> None:
        self._results.append(None)
        self._jobs.put((len(self._results) - 1, fn, item))
        if len(self._results) == 1:
            for _ in range(self._threads - 1):
                # a copy of the caller's context carries its np.errstate to the helper
                helper = threading.Thread(target=contextvars.copy_context().run, args=(self._serve,), daemon=True)
                try:
                    helper.start()
                except RuntimeError:  # no thread to be had: the calling thread serves the jobs left
                    break
                self.helpers.append(helper)

    def _serve(self) -> None:
        while (job := self._jobs.get()) is not self._STOP:
            index, fn, item = job
            if self._failed and min(self._failed) < index:
                continue
            try:
                self._results[index] = fn(item)
            except BaseException as exc:  # re-raised by gather in the calling thread
                self._results[index] = exc
                self._failed.append(index)

    def _close(self, *, serve: bool) -> None:
        """Queue one stop marker per consumer, the calling thread too if it is to
        ``serve`` the jobs left, and join the helpers."""
        for _ in range(len(self.helpers) + serve):
            self._jobs.put(self._STOP)
        if serve:
            self._serve()
        for helper in self.helpers:
            helper.join()
        self.helpers = []

    def gather(self) -> list:
        """Every job's result in submission order, after the calling thread has
        worked through the queue beside the helpers; raises the earliest
        failure in submission order."""
        self._close(serve=True)
        if self._failed:
            raise self._results[min(self._failed)]
        return self._results


def _map_chunks(worker: Callable[[int], object], n_chunks: int, threads: int) -> list:
    """``[worker(chunk) for chunk in range(n_chunks)]`` on up to ``threads``
    threads, the calling thread among them, in chunk order."""
    with _WorkQueue(min(threads, n_chunks)) as pool:
        for chunk in range(n_chunks):
            pool.submit(worker, chunk)
        return pool.gather()


def _initial_state(cfg, pot, seed, tags, chunk, size) -> PhaseState:
    """Positions from the dataset prior when ``pot`` has one, else N(0, I), and
    velocities from N(0, u I), keyed by the first two of a study's ``tags``."""
    d = pot.meta.d
    g = keyed_generator(seed, tags[0], chunk)
    dataset = getattr(pot, "dataset", None)
    x0 = g.standard_normal((size, d)) if dataset is None else sample_prior(dataset, g, shape=(size,))
    v0 = math.sqrt(cfg.u) * keyed_generator(seed, tags[1], chunk).standard_normal((size, d))
    return PhaseState(x0, v0)


def _chunked(cfg, pot, n, seed, tags, threads, body: Callable) -> list:
    """``body(chunk, state, key)`` for each chunk of ``n`` paths or chains, in chunk order:
    ``state`` is the chunk's keyed initial state and ``key`` its noise key, so every
    run on a chunk starts alike and reads one noise."""
    sizes = _chunk_sizes(int(n))

    def run_chunk(chunk: int):
        state = _initial_state(cfg, pot, seed, tags, chunk, sizes[chunk])
        return body(chunk, state, chunk_key(seed, tags[2], chunk))

    return _map_chunks(run_chunk, len(sizes), _chunk_workers(pot, threads, len(sizes)))


def _run_chains(cfg, pot, method, n_chains, h, n_steps, seed, tags, threads, observe, start):
    """Step chunked chains on keyed paths, returning each chunk's ``start()`` in
    chunk order after ``observe(it, step, state)`` has seen states 0 to ``n_steps``."""

    def run_chunk(chunk: int, state: PhaseState, key: int):
        result = start()
        run = ChainRunner(method, state, chunk, functools.partial(observe, result))
        run.run(cfg, pot, BrownianPath(key, pot.meta.d, shape=(len(state.x),)), itertools.repeat(h, n_steps))
        return result

    return _chunked(cfg, pot, n_chains, seed, tags, threads, run_chunk)


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

    ``rows`` holds (step count, error) pairs; at least three are required,
    both entries must be positive and at least two step counts must differ.
    """
    pts = [(float(n), float(err)) for n, err in rows]
    if len(pts) < 3:
        raise ValueError("need at least 3 (step count, error) rows to fit an order")
    if any(n <= 0 or err <= 0 for n, err in pts):
        raise ValueError("step counts and errors must be positive to fit in log space")
    if len({n for n, _ in pts}) < 2:
        raise ValueError("need at least 2 distinct step counts to fit an order")
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
        fits = {m: {**asdict(f), "order": f.order} for m, f in self.fits.items()}
        return {"kind": "converge", **asdict(self), "fits": fits, "fit_range": self.fit_range}


def _unmet(*rules: tuple[bool, str]) -> list[str]:
    """The problem of every ``(condition, problem)`` rule whose condition is false."""
    return [problem for holds, problem in rules if not holds]


def _require(problems: list[str]) -> None:
    """Raise the first of ``problems``, if any, as a ValueError."""
    if problems:
        raise ValueError(problems[0])


@dataclass(frozen=True)
class Plan:
    """A run's size in closed form, as ``_BOUNDS`` reads it, and the words of its
    problems; ``names`` maps the field of each bound the run can break to the
    setting that bound names."""

    names: dict[str, str]
    run: str
    unit: str
    count: int
    rows: int
    steps: int
    chunks: int
    state: int
    held: int = 0
    terms: int = 0

    @property
    def chunk_steps(self) -> int:
        return self.chunks * self.steps


def _chunk_plan(step_name, count_name, run, unit, n, steps, width, held=0, terms=0, /, **names) -> Plan:
    """The plan of ``steps`` steps on each chunk of ``n`` ``unit``, ``width`` floats a row; its bounds name the settings
    ``step_name`` (steps), ``count_name`` (chunks and clouds), ``dimension`` (state) and, by field, ``names``."""
    chunks, rows = (-(-n // CHUNK), min(n, CHUNK)) if steps else (0, 0)  # no steps make no chunks
    names = {"chunk_steps": step_name, "chunks": count_name, "held": count_name, "state": "dimension", **names}
    return Plan(names, run, unit, n, rows, steps, chunks, rows * width, held, terms)


def _power(n: int):
    """``n``, written as a power of two when it is one above 1."""
    return f"2**{n.bit_length() - 1}" if n > 1 and not n & (n - 1) else n


def _plan_problems(plan: Plan, plans: dict | None = None, role: str = "runs") -> list[str]:
    """The problem of the first bound of ``_BOUNDS`` that ``plan`` breaks, if
    any; ``plans``, if given, keeps ``plan`` as its ``role``."""
    if plans is not None:
        plans[role] = plan
    for field, bound, reason in _BOUNDS:
        limit = globals()[bound]
        if getattr(plan, field) > limit:
            words = {**vars(plan), "steps": _power(plan.steps), "limit": _power(limit), "chunk": CHUNK}
            return [f"{plan.names[field]}: {reason.format(**words)}"]
    return []


def _method_problems(key: str, methods: Sequence[str]) -> list[str]:
    if not methods:
        return [f"{key}: need at least one method"]
    return [
        f"{key}: unknown method '{m}'; choose from {sorted(STEPPER_SPECS)}"
        for m in dict.fromkeys(methods)
        if m not in STEPPER_SPECS
    ]


def converge_problems(
    methods: Sequence[str], horizon: float, paths: int, coarse_levels: Sequence[int], fine_level: int, d: int,
    plans: dict | None = None,
) -> list[str]:
    """Why :func:`strong_error_study` cannot run on these arguments on a
    ``d``-dimensional target; empty if it can.

    Each entry reads ``"<setting>: <problem>"``, naming the CLI setting to
    change; the study raises the first.  Every study has such a function: it
    checks each setting on its own and, once all hold, the rules that combine
    them and a :class:`Plan`, kept in ``plans``, if given, by role.
    """
    levels = sorted({int(lvl) for lvl in coarse_levels})
    problems = _method_problems("methods", methods) + _unmet(
        (paths >= 2, "paths: need at least 2 for a Monte Carlo error estimate"),
        (0.0 < horizon < math.inf, "horizon: must be positive and finite"),
        (
            fine_level <= _INDEX_BITS,
            f"fine_level: tree node indices below 2**fine_level must fit the "
            f"{_INDEX_BITS}-bit noise index, so it can be at most {_INDEX_BITS}",
        ),
        (bool(levels), "levels: need at least one coarse level"),
        (all(lvl >= 0 for lvl in levels), "levels: coarse levels are exponents of two and must be nonnegative"),
    )
    if problems:
        return problems
    # a chunk row keeps each method's state at each level, the reference's and one tree node per level
    width = (len(dict.fromkeys(methods)) * len(levels) + fine_level + 2) * d
    # the rules that combine settings, then the plan, which reads 2**fine_level, once they hold
    return _unmet(
        (  # halvings round, and below this horizon the shortest finest step is 0
            horizon >= math.ldexp(_MIN_STEP, fine_level),
            f"horizon: must be at least 2**fine_level * {_MIN_STEP:g}, or the finest steps underflow to 0",
        ),
        (
            fine_level >= levels[-1],
            "fine_level: must be at least the finest coarse level so the fine "
            "increments combine dyadically onto every coarse grid",
        ),
    ) + [
        f"levels: method '{m}' needs increments refined into halves, so its "
        f"coarse levels must stay strictly below fine_level {fine_level}"
        for m in dict.fromkeys(methods)
        if fine_level == levels[-1] and STEPPER_SPECS[m].needs_halves
    ] or _plan_problems(_chunk_plan("fine_level", "paths", "the reference", "paths", paths, 1 << fine_level, width), plans)


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
    threads: int = 1,
) -> ConvergenceReport:
    """Strong L2 errors against a shared-path fine reference.

    For each path a dyadic refinement tree supplies, at every requested
    level n, the 2**n interval increments of one Brownian path over
    [0, horizon].  Each method at each coarse level and the reference
    (the two-gradient stepper at ``fine_level``) consume the same tree, so
    differences measure integrator error alone; a two-gradient run at
    ``fine_level`` is the reference itself and errs by exactly 0.  The
    reported error for a method at step count N = 2**n is

        S = sqrt(mean over paths of |X_N(horizon) - X_fine(horizon)|^2)

    with positions compared at the final time.  Initial positions come
    from the dataset prior when the potential has one, else N(0, I), and
    initial velocities from N(0, u I), shared by all methods on a given path.
    """
    method_list = tuple(dict.fromkeys(str(m) for m in methods))
    _require(converge_problems(method_list, horizon, paths, coarse_levels, fine_level, pot.meta.d))
    levels = tuple(sorted({int(lvl) for lvl in coarse_levels}))
    fine_level = int(fine_level)

    keys = [(m, lvl) for m in method_list for lvl in levels]
    ref_key = ("quicsort", fine_level)

    def run_chunk(chunk: int, state0: PhaseState, key: int) -> dict[tuple[str, int], float]:
        tree = DyadicBrownianTree(key, pot.meta.d, float(horizon), shape=(len(state0.x),))
        runs = {
            (m, lvl): ChainRunner(m, state0, chunk)
            for m, lvl in dict.fromkeys([*keys, ref_key])
        }
        by_level: dict[int, list[ChainRunner]] = {}
        for (_, lvl), run in runs.items():
            by_level.setdefault(lvl, []).append(run)
        for level, inc, halves in tree.walk(fine_level):
            for run in by_level.get(level, ()):
                run.advance(cfg, pot, inc.with_halves(halves) if run.needs_halves else inc)
        ref = runs[ref_key].state.x
        sums = {k: float(np.sum((runs[k].state.x - ref) ** 2)) for k in keys}
        for k, total in sums.items():
            if not math.isfinite(total):  # the states are finite, their squared distance is not
                raise runs[k]._divergence(runs[k].state)
        return sums

    parts = _chunked(cfg, pot, paths, seed, _TAGS_CONVERGE, threads, run_chunk)
    step_counts = tuple(2**lvl for lvl in levels)
    errors = {
        m: tuple(math.sqrt(sum(part[(m, lvl)] for part in parts) / paths) for lvl in levels)
        for m in method_list
    }
    for m in method_list:  # finite chunk sums can still overflow when added up
        for lvl, err in zip(levels, errors[m]):
            if not math.isfinite(err):
                raise DivergenceError(m, 2**lvl, float(horizon), finite_state=True)
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
    """L2 coupling distance in the contraction coordinates (w, z) = (0, gamma).

    Silent on states that are not finite or whose distance overflows: the
    distance is then not finite, which the caller reports.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        dx = b.x - a.x
        dv = b.v - a.v
        z = cfg.gamma * dx + dv
        w_part = math.sqrt(float(np.mean(np.sum(dv * dv, axis=-1))))
        z_part = math.sqrt(float(np.mean(np.sum(z * z, axis=-1))))
    return w_part + z_part


def contract_problems(cfg: SolverConfig, pot, h: float, n_steps: int, n_pairs: int, plans=None) -> list[str]:
    """Why :func:`contractivity_study` cannot run on these arguments; empty if it can."""
    gamma_floor = 2.0 * math.sqrt(cfg.u * pot.meta.M1)
    h_ceil = 0.1 / cfg.gamma
    return _unmet(
        (
            cfg.gamma >= gamma_floor * (1.0 - 1e-12),
            f"gamma: contraction is only guaranteed for gamma >= 2*sqrt(u*M1) "
            f"= {gamma_floor:.6g}, got {cfg.gamma:.6g}",
        ),
        (
            0.0 < h <= h_ceil * (1.0 + 1e-12),
            f"h: contraction is only guaranteed for 0 < h <= 0.1/gamma = {h_ceil:.6g}, got {h:.6g}",
        ),
        (n_steps >= 1, "steps: need at least one step"),
        (
            n_steps <= _MAX_CONTRACT_STEPS,
            f"steps: the reports keep one distance per step, so a run may take at most "
            f"2**{_MAX_CONTRACT_STEPS.bit_length() - 1}",
        ),
        (n_pairs >= 1, "pairs: need at least one pair"),
    ) or _plan_problems(
        # all pairs step as one (2, pairs, d) state, one chunk's; once it fits, their time is planned in chunks
        Plan({"state": "pairs"}, "the pairs", "pairs", n_pairs, n_pairs, 0, 1, 2 * n_pairs * pot.meta.d), plans, "state"
    ) or _plan_problems(_chunk_plan("steps", "pairs", "the pairs", "pairs", n_pairs, n_steps, 0), plans)


def contractivity_study(
    cfg: SolverConfig,
    pot,
    h: float,
    n_steps: int,
    n_pairs: int,
    seed: int,
) -> np.ndarray:
    """Transformed distance between synchronously coupled chains, per step.

    Runs ``n_pairs`` chain pairs that share every increment and differ only
    in their initial conditions, recording after each step the distance
    sqrt(mean |dv|^2) + sqrt(mean |gamma dx + dv|^2).  Requires the regime
    in which geometric decay is guaranteed: gamma >= 2 sqrt(u M1) and
    h <= 0.1 / gamma.  Returns an array of length ``n_steps + 1`` whose
    first entry is the initial distance; a distance that is not finite, the
    initial one included, raises :class:`DivergenceError`.
    """
    _require(contract_problems(cfg, pot, h, n_steps, n_pairs))
    d = pot.meta.d
    g = keyed_generator(seed, _TAG_CONTRACT_INIT, 0)
    x_a, v_a, x_b, v_b = (g.standard_normal((n_pairs, d)) for _ in range(4))
    # both chains of every pair in one (2, pairs, d) state: the shared (pairs, d)
    # increment broadcasts over them, and a divergence names the pair as its chain
    state = PhaseState(np.stack([x_a, x_b]), math.sqrt(cfg.u) * np.stack([v_a, v_b]))
    out = np.empty(n_steps + 1)

    def record(step: int, pair: PhaseState) -> bool:
        out[step] = _transformed_distance(cfg, *(PhaseState(x, v) for x, v in zip(*pair)))
        # a non-finite entry makes the distance non-finite, so a finite one
        # vouches for the state; one that overflows on a finite state diverges
        return math.isfinite(out[step])

    path = BrownianPath(chunk_key(seed, _TAG_CONTRACT_PATH, 0), d, shape=(n_pairs,))
    ChainRunner("quicsort", state, 0, record).run(cfg, pot, path, itertools.repeat(h, n_steps))
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
        return {"kind": "mixing", **asdict(self)}


def _evolve_positions(cfg, pot, method, n_chains, h, record, seed, tags, threads) -> dict[int, np.ndarray]:
    """Advance chunked chains, returning position clouds at the recorded steps."""
    wanted = frozenset(record)

    def observe(snaps: dict, step: int, state: PhaseState) -> None:
        if step in wanted:
            snaps[step] = state.x.copy()

    parts = _run_chains(cfg, pot, method, n_chains, h, max(wanted), seed, tags, threads, observe, dict)
    return {step: np.concatenate([p[step] for p in parts], axis=0) for step in sorted(wanted)}


def _mixing_runs(methods: str | Sequence[str], h: float, checkpoints: Sequence[int]) -> list[tuple]:
    """The ``(method, step, checkpoints)`` runs of a mixing study whose methods are known.

    One name (``sample``) runs at ``h``.  A sequence of names (``compare``)
    runs each name once at the step that spends the gradients of one
    two-gradient step of ``h``: a one-gradient method at h/2, to twice each
    checkpoint, so at every checkpoint all methods have spent one budget.
    """
    cps = tuple(int(c) for c in checkpoints)
    if isinstance(methods, str):
        return [(methods, h, cps)]
    ratios = {m: 2 // STEPPER_SPECS[m].gradient_evals for m in dict.fromkeys(methods)}
    return [(m, h / k, tuple(k * c for c in cps)) for m, k in ratios.items()]


def mixing_problems(
    methods: str | Sequence[str], n_chains: int, h: float, checkpoints: Sequence[int], d: int,
    truth_samples=None, truth_h=None, truth_steps=None, plans: dict | None = None,
) -> list[str]:
    """Why :func:`mixing_study` or :func:`compare_study` cannot run on a
    ``d``-dimensional target; empty if it can.

    ``methods`` is one stepper name, the ``method`` of a mixing study, or the sequence
    of names a comparison runs; ``truth_samples``, ``truth_h`` and ``truth_steps``, as
    :func:`ground_truth_problems` takes them, add their reference.  The plan and the
    underflow check read the runs of :func:`_mixing_runs`.  A run to checkpoint 0
    still draws each chunk's initial state, so the plan counts it as one step.  Every
    run's clouds wait for their measurements, so the plan holds the chains' positions
    at every checkpoint of every run.
    """
    key, names = ("method", [methods]) if isinstance(methods, str) else ("methods", methods)
    cps = list(checkpoints)
    problems = _method_problems(key, names) + _unmet(
        (n_chains >= 1, "chains: need at least 1"),
        (0.0 < h < math.inf, "h: step size must be positive and finite"),
        (
            bool(cps) and cps[0] >= 0 and all(b > a for a, b in zip(cps, cps[1:])),
            "checkpoints: must be strictly increasing step indices >= 0",
        ),
    ) + ([] if truth_samples is None else _reference_problems(truth_samples, truth_h, truth_steps))
    if problems:
        return problems
    runs = _mixing_runs(methods, h, cps)
    steps = sum(max([*run_cps, 1]) for _, _, run_cps in runs)
    held = n_chains * d * sum(len(run_cps) for _, _, run_cps in runs)
    step_name = "checkpoints" if cps[-1] > 0 else "chains"
    plan = _chunk_plan(step_name, "chains", "the runs to the last checkpoint", "chains", n_chains, steps, d, held)
    # a stepper on halves steps over half steps, the shortest intervals it sees
    problems = _plan_problems(plan, plans) + [
        f"h: {m} would step over intervals that underflow to 0"
        for m, step, _ in runs
        if not (0.5 * step if STEPPER_SPECS[m].needs_halves else step) > 0.0
    ]
    if truth_samples is not None and not problems:
        problems = _plan_problems(_reference_plan(d, truth_samples, truth_steps, n_chains), plans, "reference")
    return problems


def _mixing_reports(cfg, pot, methods, n_chains, h, checkpoints, ground_truth, seed, threads) -> list[MixingReport]:
    """One report per run of :func:`_mixing_runs`, in run order, once :func:`mixing_problems` holds.

    The calling thread evolves each run's clouds in turn, with the chunk rule,
    on the ``threads`` the measurement helpers leave: all of them until the
    first measurement is submitted.  As soon as a run's clouds exist, each of
    its checkpoints is one measurement job, with the inputs a serial loop
    would give it, including the keyed subsamples; ``min(threads, jobs) - 1``
    helper threads start on them, whatever the cloud size, while the calling
    thread evolves the next run, and after the last run the calling thread
    takes the unstarted ones itself, so no more than ``threads`` threads are
    alive at once.  Results are gathered in submission order.  A divergence
    drops the pending measurements and raises.

    Every run draws its initial state from the same keyed streams, so a run
    whose checkpoint-0 cloud equals the first run's resubmits that run's job:
    its distances are still called once per run and checkpoint, in the same
    order, but the clouds keep what they measured, so they are computed once.
    """
    gt = _as_dist(ground_truth)
    _require(mixing_problems(methods, n_chains, h, checkpoints, pot.meta.d, gt.n))
    runs = _mixing_runs(methods, h, checkpoints)
    gt_cmp = gt if gt.n <= _METRIC_CAP else subsample(gt, _METRIC_CAP, keyed_generator(seed, _TAG_SUBSAMPLE_REF, 0))
    first = None  # the first run's checkpoint-0 job

    def measure(job) -> tuple[float, float]:
        emp, emp_w, gt_w = job
        return math.sqrt(energy_distance_sq(emp, gt)), wasserstein2(emp_w, gt_w)

    n_jobs = sum(len(cps) for _, _, cps in runs)
    with _WorkQueue(min(threads, n_jobs)) as measuring:
        for method, step_size, cps in runs:
            free = threads - len(measuring.helpers)
            clouds = _evolve_positions(cfg, pot, method, n_chains, step_size, cps, seed, _TAGS_MIXING, free)
            for ci, step in enumerate(cps):
                emp = EmpiricalDistribution(clouds[step])
                m = min(emp.n, gt_cmp.n)
                emp_w = emp if emp.n == m else subsample(emp, m, keyed_generator(seed, _TAG_SUBSAMPLE_EMP, ci))
                gt_w = gt_cmp if gt_cmp.n == m else subsample(gt_cmp, m, keyed_generator(seed, _TAG_SUBSAMPLE_REF, 1 + ci))
                job = (emp, emp_w, gt_w)
                if step == 0:
                    first = first or job
                    if np.array_equal(emp.samples, first[0].samples):
                        job = first  # the same clouds, so the job's distances are memo hits
                measuring.submit(measure, job)
        measured = iter(measuring.gather())
    reports = []
    for method, step_size, cps in runs:
        energy, w2s = zip(*(next(measured) for _ in cps))
        reports.append(
            MixingReport(
                method=method,
                step_size=float(step_size),
                n_chains=int(n_chains),
                checkpoints=cps,
                grad_evals=tuple(c * STEPPER_SPECS[method].gradient_evals * int(n_chains) for c in cps),
                energy=energy,
                w2=w2s,
                seed=int(seed),
            )
        )
    return reports


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
    threads: int = 1,
) -> MixingReport:
    """Independent chains measured against a reference cloud as they run.

    At every checkpoint (a step index; 0 means the initial cloud) the
    current positions across all chains form an empirical distribution and
    both the energy distance and the 2-Wasserstein distance to
    ``ground_truth`` are recorded, together with the cumulative number of
    gradient evaluations spent (per-step cost of the method times steps
    times chains).  The transport metric solves an exact assignment, so
    clouds larger than ``_METRIC_CAP`` points are subsampled for it
    (deterministic in the seed); the energy distance uses the full clouds.
    """
    (report,) = _mixing_reports(cfg, pot, stepper, n_chains, h, checkpoints, ground_truth, seed, threads)
    return report


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
    threads: int = 1,
) -> dict[str, MixingReport]:
    """Mixing studies across methods at matched gradient budgets.

    ``h`` and ``checkpoints`` describe the two-gradient method's grid; a
    one-gradient method runs at h/2 for twice the steps, so at every
    checkpoint all methods have spent identical gradient budgets and
    reached the same physical time.  Every method's report equals its
    :func:`mixing_study`; the checkpoints of all methods share one pool of
    distance workers.
    """
    reports = _mixing_reports(cfg, pot, methods, n_chains, h, checkpoints, ground_truth, seed, threads)
    return {rep.method: rep for rep in reports}


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
        return {"kind": "stationary", **asdict(self)}


def stationary_problems(h: float, n_chains: int, burn_in: int, kept: int, d: int, plans=None) -> list[str]:
    """Why :func:`stationary_study` cannot run on these arguments on a
    ``d``-dimensional target; empty if it can."""
    step_name = "kept" if kept >= burn_in else "burn_in"
    return _unmet(
        (0.0 < h < math.inf, "h: step size must be positive and finite"),
        (n_chains >= 1, "chains: need at least 1"),
        (burn_in >= 0, "burn_in: must be nonnegative"),
        (kept >= 1, "kept: need at least one kept step"),
    ) or _plan_problems(_chunk_plan(step_name, "chains", "burn_in + kept", "chains", n_chains, burn_in + kept, d), plans)


def stationary_study(
    cfg: SolverConfig,
    pot,
    h: float,
    n_chains: int,
    burn_in: int,
    kept: int,
    seed: int,
    *,
    threads: int = 1,
) -> StationaryReport:
    """Empirical stationary moments from long ``quicsort`` chains after burn-in.

    After ``burn_in`` steps each chain contributes every one of its next
    ``kept`` states.  Velocity norms follow the pooled per-coordinate
    convention: the L_{2p} statistic is sqrt(d) times the 2p-th root of the
    pooled per-coordinate moment, which for a Gaussian stationary law gives
    sqrt(u d), 3^(1/4) sqrt(u d), 15^(1/6) sqrt(u d) at p = 1, 2, 3.
    """
    d = pot.meta.d
    _require(stationary_problems(h, n_chains, burn_in, kept, d))
    add_all = np.add.reduce

    def observe(sums: list, step: int, state: PhaseState) -> bool | None:  # sums of x^2, v^2, v^4, v^6
        if step <= burn_in:
            return None  # the runner checks the state
        # add.reduce over all axes is np.sum without its dispatch
        v2 = state.v * state.v
        v4 = v2 * v2
        sums[0] += float(add_all(state.x * state.x, axis=None))
        sums[1] += float(add_all(v2, axis=None))
        sums[2] += float(add_all(v4, axis=None))
        sums[3] += float(add_all(v4 * v2, axis=None))
        # a non-finite entry makes its sum non-finite, so finite sums vouch for
        # a finite state; a non-finite sum is a divergence even when the state
        # is finite and only its powers overflow
        s0, s1, s2, s3 = sums
        return math.isfinite(s0) and math.isfinite(s1) and math.isfinite(s2) and math.isfinite(s3)

    parts = _run_chains(
        cfg, pot, "quicsort", n_chains, h, burn_in + kept, seed, _TAGS_STATIONARY, threads, observe,
        lambda: [0.0, 0.0, 0.0, 0.0],
    )
    totals = sum(parts, np.zeros(4))
    if not np.isfinite(totals).all():  # finite chunk sums can still overflow when added up
        raise DivergenceError("quicsort", burn_in + kept, (burn_in + kept) * h, finite_state=True)
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


def _reference_problems(n_samples, h, n_steps) -> list[str]:
    """The problems of a reference cloud's settings, each on its own."""
    return _unmet(
        (n_samples >= 1, "truth_samples: need at least one sample"),
        (h is None or 0.0 < h < math.inf, "truth_h: step size must be positive and finite"),
        (n_steps is None or n_steps >= 1, "truth_steps: need at least one step"),
    )


def _reference_plan(d, t, n_steps=None, n=0) -> Plan:
    """The plan of a reference cloud of ``t`` points; clouds of ``n`` points measured against it
    add one checkpoint's energy distance terms: pairs within and across both, the reference's once."""
    run = "the reference draws" if n_steps is None else "the reference run"
    terms = (n * n + n * t + t * t) * d if n else 0
    terms_name = "chains" if n >= t else "truth_samples"  # the larger cloud's count
    return _chunk_plan("truth_steps", "truth_samples", run, "chains", t, n_steps or 0, d, t * d, terms, terms=terms_name)


def ground_truth_problems(n_samples: int, d: int, h: float | None = None, n_steps: int | None = None) -> list[str]:
    """Why a reference cloud of ``n_samples`` points in ``d`` dimensions cannot be
    built; empty if it can.

    ``h`` and ``n_steps`` are the run of :func:`long_run_ground_truth`; leave
    them out for the exact draws of :func:`gaussian_ground_truth`.
    """
    return _reference_problems(n_samples, h, n_steps) or _plan_problems(_reference_plan(d, n_samples, n_steps))


def gaussian_ground_truth(pot: QuadraticPotential, n: int, seed: int) -> EmpiricalDistribution:
    """Exact draws from the Gaussian position law exp(-f) of a quadratic f."""
    _require(ground_truth_problems(n, pot.meta.d))
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
    threads: int = 1,
) -> EmpiricalDistribution:
    """Reference cloud for targets without exact samplers.

    Runs ``n_samples`` independent chains with the two-gradient stepper at a
    small step size for ``n_steps`` steps and keeps one final position per
    chain.  A stand-in for an exact sampler; make ``h`` small and
    ``n_steps * h`` comfortably longer than the mixing time.
    """
    _require(ground_truth_problems(n_samples, pot.meta.d, h, n_steps))
    clouds = _evolve_positions(cfg, pot, "quicsort", n_samples, h, (int(n_steps),), seed, _TAGS_TRUTH, threads)
    return EmpiricalDistribution(clouds[int(n_steps)])
