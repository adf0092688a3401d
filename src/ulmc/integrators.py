"""One-step update kernels for underdamped Langevin dynamics.

The dynamics integrated here are

    dx_t = v_t dt,    dv_t = -gamma v_t dt - u grad f(x_t) dt + sqrt(2 gamma u) dW_t.

Three steppers share one interface ``step(cfg, pot, state, inc)`` and one
noise representation (:class:`~ulmc.brownian.BrownianIncrement`):

* :func:`quicsort_step` -- five-stage, two-gradient scheme built from the
  phi functions below, third order in the strong sense on smooth strongly
  convex potentials;
* :func:`ubu_step` -- exact Ornstein-Uhlenbeck half-flows around a full
  gradient kick, one gradient per step, second order;
* :func:`euler_step` -- exponential Euler, gradient frozen over the step,
  first order.

The OU flows need the stochastic convolution integral of exp(-gamma t)
against dW, which the coefficient triple does not carry exactly.  Both
baselines substitute the piecewise-linear path implied by (w, h, k) (a jump
h+6k, a constant rate (w-12k)/dt, a jump 6k-h) and integrate the kernel
against it in closed form.  The substitution error is of higher order than
either baseline's own accuracy, and it keeps all methods driven by one
shared path so that fine and coarse runs stay coupled.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .brownian import BrownianIncrement, BrownianPath

__all__ = [
    "SolverConfig",
    "PhaseState",
    "StepperSpec",
    "ChainRunner",
    "DivergenceError",
    "phi0",
    "phi1",
    "phi2",
    "quicsort_step",
    "ubu_step",
    "euler_step",
    "simulate",
    "STEPPERS",
    "STEPPER_SPECS",
    "LAMBDA_PLUS",
    "LAMBDA_MINUS",
]

LAMBDA_PLUS = (3.0 + math.sqrt(3.0)) / 6.0
LAMBDA_MINUS = (3.0 - math.sqrt(3.0)) / 6.0
_TINY = np.finfo(float).tiny  # the smallest normal float


@dataclass(frozen=True)
class SolverConfig:
    """Friction ``gamma`` and mass-like constant ``u`` of the dynamics.

    ``sigma = sqrt(2 * gamma * u)`` is the matching diffusion coefficient.
    """

    gamma: float
    u: float = 1.0

    def __post_init__(self) -> None:
        for key in ("u", "gamma"):  # auto gamma derives from u: name u first
            if not 0.0 < getattr(self, key) < math.inf:
                raise ValueError(f"{key}: must be positive and finite, got {getattr(self, key)}")
        if not 2.0 * self.gamma * self.u < math.inf:
            raise ValueError(f"gamma: 2*gamma*u must be finite for sigma, got gamma {self.gamma} and u {self.u}")

    @property
    def sigma(self) -> float:
        return math.sqrt(2.0 * self.gamma * self.u)


class PhaseState(NamedTuple):
    """Position and velocity, each of shape (..., d)."""

    x: np.ndarray
    v: np.ndarray


class DivergenceError(RuntimeError):
    """A state became non-finite during simulation, or ``finite_state`` but
    too large for the moments observed of it to be finite.

    A chunked run also names the ``chunk``, the global index of the first
    non-finite ``chain`` (of a finite state, the first holding its largest
    entry), and the largest finite ``|x|`` and ``|v|`` of the chunk's state
    (None when no entry is finite).
    """

    def __init__(
        self,
        method: str,
        step: int,
        time: float,
        *,
        chunk: int | None = None,
        chain: int | None = None,
        max_abs_x: float | None = None,
        max_abs_v: float | None = None,
        finite_state: bool = False,
    ):
        self.method = method
        self.step = step
        self.time = time
        self.chunk = chunk
        self.chain = chain
        self.max_abs_x = max_abs_x
        self.max_abs_v = max_abs_v
        self.finite_state = finite_state
        what = "overflowing moments of a finite state" if finite_state else "non-finite state"
        msg = f"{what} after step {step} (t = {time:g}) of {method}"
        if chunk is not None:
            mags = ["none" if m is None else f"{m:.6g}" for m in (max_abs_x, max_abs_v)]
            msg += (
                f" in chunk {chunk}, first at chain {chain}; "
                f"largest finite |x| {mags[0]}, |v| {mags[1]}"
            )
        super().__init__(msg)


_SERIES_BELOW = 0.03  # _exprel2 uses its series below this argument


def _exprel2_over_sq(a):
    """(exp(-a) + a - 1) / a**2 for 0 <= a < 0.03: Horner form of
    1/2 - a/6 + ... - a^5/5040 + a^6/40320."""
    return (
        1.0 / 2
        + a * (-1.0 / 6 + a * (1.0 / 24 + a * (-1.0 / 120
        + a * (1.0 / 720 + a * (-1.0 / 5040 + a / 40320)))))
    )


def _exprel2(a):
    """exp(-a) + a - 1 without cancellation for small a >= 0."""
    a = np.asarray(a, dtype=float)
    small = a < _SERIES_BELOW
    safe = np.where(small, 1.0, a)
    direct = np.expm1(-safe) + safe
    return np.where(small, a * a * _exprel2_over_sq(a), direct)


def phi0(gamma: float, h: float, x) -> np.ndarray | float:
    """exp(-x*gamma*h)."""
    with np.errstate(over="ignore"):  # x*gamma*h = inf gives the limit 0
        return np.exp(-np.asarray(x, dtype=float) * gamma * h)


def phi1(gamma: float, h: float, x) -> np.ndarray | float:
    """(1 - exp(-x*gamma*h)) / gamma, evaluated stably."""
    with np.errstate(over="ignore"):  # x*gamma*h = inf gives the limit 1/gamma
        return -np.expm1(-np.asarray(x, dtype=float) * gamma * h) / gamma


def phi2(gamma: float, h: float, x) -> np.ndarray | float:
    """(exp(-x*gamma*h) + x*gamma*h - 1) / gamma**2, evaluated stably."""
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):  # an overflowing product is inf, often in a discarded branch
        a = x * gamma * h
        if _TINY <= gamma * gamma < math.inf:
            phi = _exprel2(a) / gamma**2
        else:
            # gamma**2 overflows, or is subnormal or zero: take the series' a**2 / gamma**2
            # as (x*h)**2 and divide the direct form by gamma twice
            phi = np.where(a < _SERIES_BELOW, (x * h) ** 2 * _exprel2_over_sq(a), _exprel2(a) / gamma / gamma)
        overflowed = a == math.inf
        if overflowed.any():  # there exp(-a) is 0, so phi2 is a/gamma**2 - 1/gamma**2
            phi = np.where(overflowed, x * h / gamma - 1.0 / gamma / gamma, phi)
    return phi


def _scalar(value: float) -> np.ndarray:
    """``value`` as a read-only 0-d array.

    NumPy multiplies a 0-d float64 array into an array to the same bits as
    the Python float, with about half the call overhead.
    """
    arr = np.array(value, dtype=float)
    arr.setflags(write=False)
    return arr


_SIX = _scalar(6.0)
_TWELVE = _scalar(12.0)


class _StepScalars(NamedTuple):
    """Scalar factors the steppers apply to arrays, for one (gamma, u, h).

    Each is formed from the phi values left to right, exactly as the
    stepper formulas read, so every product rounds as it did inline.
    Names give the product, e.g. ``phi1_third_uh`` is ``phi1_third * u * h``
    and ``half_phi0_plus_uh`` is ``0.5 * phi0_plus * u * h``.  All are 0-d
    arrays (see :func:`_scalar`).
    """

    dt: np.ndarray
    sigma: np.ndarray
    phi0_one: np.ndarray
    phi1_plus: np.ndarray
    phi1_minus: np.ndarray
    phi1_one: np.ndarray
    phi2_one: np.ndarray
    phi2_minus_h: np.ndarray
    phi2_plus_h: np.ndarray
    phi1_one_h: np.ndarray
    phi2_one_h: np.ndarray
    phi1_third_uh: np.ndarray
    half_phi0_plus_uh: np.ndarray
    half_phi0_minus_uh: np.ndarray
    half_phi1_plus_uh: np.ndarray
    half_phi1_minus_uh: np.ndarray
    phi2_one_u: np.ndarray
    phi1_one_u: np.ndarray


@functools.lru_cache(maxsize=512)
def _step_scalars(gamma: float, u: float, h: float) -> _StepScalars:
    phi0_plus, phi0_minus, phi0_one = (float(phi0(gamma, h, x)) for x in (LAMBDA_PLUS, LAMBDA_MINUS, 1.0))
    phi1_plus, phi1_minus, phi1_third, phi1_one = (
        float(phi1(gamma, h, x)) for x in (LAMBDA_PLUS, LAMBDA_MINUS, 1.0 / 3.0, 1.0)
    )
    phi2_plus, phi2_minus, phi2_one = (float(phi2(gamma, h, x)) for x in (LAMBDA_PLUS, LAMBDA_MINUS, 1.0))
    products = dict(
        dt=h,
        sigma=math.sqrt(2.0 * gamma * u),
        phi0_one=phi0_one,
        phi1_plus=phi1_plus,
        phi1_minus=phi1_minus,
        phi1_one=phi1_one,
        phi2_one=phi2_one,
        phi2_minus_h=phi2_minus / h,
        phi2_plus_h=phi2_plus / h,
        phi1_one_h=phi1_one / h,
        phi2_one_h=phi2_one / h,
        phi1_third_uh=phi1_third * u * h,
        half_phi0_plus_uh=0.5 * phi0_plus * u * h,
        half_phi0_minus_uh=0.5 * phi0_minus * u * h,
        half_phi1_plus_uh=0.5 * phi1_plus * u * h,
        half_phi1_minus_uh=0.5 * phi1_minus * u * h,
        phi2_one_u=phi2_one * u,
        phi1_one_u=phi1_one * u,
    )
    return _StepScalars(**{name: _scalar(value) for name, value in products.items()})


def quicsort_step(cfg: SolverConfig, pot, state: PhaseState, inc: BrownianIncrement) -> PhaseState:
    """One five-stage step; exactly two gradient evaluations.

    The stage positions sit at fractions lambda_minus and lambda_plus of the
    step, and the gradient terms combine with weights that cancel the
    quadrature error of the underlying two-point Gauss rule, giving third
    order pathwise accuracy from only (w, h, k).
    """
    s = _step_scalars(cfg.gamma, cfg.u, inc.dt)
    k6 = _SIX * inc.k
    v1 = state.v + s.sigma * (inc.h + k6)
    c = s.sigma * (inc.w - _TWELVE * inc.k)
    x1 = state.x + s.phi1_minus * v1 + s.phi2_minus_h * c
    g1 = pot.gradient(x1)
    x2 = state.x + s.phi1_plus * v1 - s.phi1_third_uh * g1 + s.phi2_plus_h * c
    g2 = pot.gradient(x2)
    v2 = (
        s.phi0_one * v1
        - s.half_phi0_plus_uh * g1
        - s.half_phi0_minus_uh * g2
        + s.phi1_one_h * c
    )
    x_new = (
        state.x
        - s.half_phi1_plus_uh * g1
        - s.half_phi1_minus_uh * g2
        + s.phi1_one * v1
        + s.phi2_one_h * c
    )
    v_new = v2 - s.sigma * (inc.h - k6)
    return PhaseState(x_new, v_new)


def _ou_noise(s: _StepScalars, inc: BrownianIncrement) -> tuple[np.ndarray, np.ndarray]:
    """sigma times the position and velocity convolutions of one interval's
    piecewise-linear path surrogate against the OU kernel."""
    k6 = _SIX * inc.k
    jump = inc.h + k6
    rate = (inc.w - _TWELVE * inc.k) / s.dt
    conv = s.phi0_one * jump + s.phi1_one * rate + (k6 - inc.h)
    tconv = s.phi1_one * jump + s.phi2_one * rate
    return s.sigma * tconv, s.sigma * conv


def _ou_flow(cfg: SolverConfig, state: PhaseState, inc: BrownianIncrement) -> PhaseState:
    """Exact flow of dx = v dt, dv = -gamma v dt + sigma dW over one interval,
    with dW taken from the increment's piecewise-linear path surrogate."""
    s = _step_scalars(cfg.gamma, cfg.u, inc.dt)
    noise_x, noise_v = _ou_noise(s, inc)
    x_new = state.x + s.phi1_one * state.v + noise_x
    v_new = s.phi0_one * state.v + noise_v
    return PhaseState(x_new, v_new)


def ubu_step(cfg: SolverConfig, pot, state: PhaseState, inc: BrownianIncrement) -> PhaseState:
    """Half OU flow, full-step gradient kick, half OU flow; one gradient.

    Needs ``inc.halves`` (see :meth:`ulmc.brownian.BrownianPath.increment`
    with ``with_halves=True``): the halves are consumed left to right.
    """
    if inc.halves is None:
        raise ValueError("ubu_step needs an increment refined into halves")
    left, right = inc.halves
    mid = _ou_flow(cfg, state, left)
    kicked = PhaseState(mid.x, mid.v - cfg.u * inc.dt * pot.gradient(mid.x))
    return _ou_flow(cfg, kicked, right)


def euler_step(cfg: SolverConfig, pot, state: PhaseState, inc: BrownianIncrement) -> PhaseState:
    """Exponential Euler: freeze the gradient at the left endpoint and
    integrate the resulting linear SDE exactly; one gradient."""
    s = _step_scalars(cfg.gamma, cfg.u, inc.dt)
    g = pot.gradient(state.x)
    noise_x, noise_v = _ou_noise(s, inc)
    x_new = state.x + s.phi1_one * state.v - s.phi2_one_u * g + noise_x
    v_new = s.phi0_one * state.v - s.phi1_one_u * g + noise_v
    return PhaseState(x_new, v_new)


class StepperSpec(NamedTuple):
    """What a study needs to know of a stepper besides its formula."""

    gradient_evals: int
    needs_halves: bool = False


STEPPERS: dict[str, Callable] = {
    "quicsort": quicsort_step,
    "ubu": ubu_step,
    "euler": euler_step,
}

# Beside STEPPERS, whose values stay plain callables that can be wrapped by name.
STEPPER_SPECS: dict[str, StepperSpec] = {
    "quicsort": StepperSpec(gradient_evals=2),
    "ubu": StepperSpec(gradient_evals=1, needs_halves=True),
    "euler": StepperSpec(gradient_evals=1),
}

# Studies run their chains in chunks of this many, so that the noise stream
# layout never depends on the thread count.
CHUNK = 64


def _finite(state: PhaseState) -> bool:
    return bool(np.isfinite(state.x).all() and np.isfinite(state.v).all())


class ChainRunner:
    """The chains of one study chunk, stepped by the stepper named ``method``.

    A divergence names time ``steps * h`` and chain ``chunk * CHUNK + row``;
    leading axes may stack states whose rows are the same chains.
    ``observe(step, state)`` sees each new state first and may return True
    to vouch that it is finite, which skips the divergence check, or False
    to reject it as diverged even if it is finite (its moments overflow).
    """

    __slots__ = ("method", "stepper", "needs_halves", "state", "steps", "h", "chunk", "observe")

    def __init__(self, method: str, state: PhaseState, h: float, chunk: int, observe=None):
        if method not in STEPPER_SPECS:
            raise ValueError(f"unknown method '{method}'; choose from {sorted(STEPPERS)}")
        self.method = method
        self.needs_halves = STEPPER_SPECS[method].needs_halves
        self.stepper = STEPPERS[method]
        self.state = state
        self.steps = 0
        self.h = h
        self.chunk = chunk
        self.observe = observe

    def run(self, cfg: SolverConfig, pot, path: BrownianPath, dts) -> None:
        """Show ``observe`` the starting state, then step on increment ``i`` of
        ``path`` over ``dts[i]`` for each ``i``, refined into halves only if
        the stepper needs them.

        A finite starting state that ``observe`` rejects diverges at step 0;
        one that is not finite is left to the first step, which names it.
        """
        if self.observe is not None and self.observe(self.steps, self.state) is False and _finite(self.state):
            raise self._divergence(self.state)
        for i, dt in enumerate(dts):
            self.advance(cfg, pot, path.increment(i, dt, with_halves=self.needs_halves))

    def advance(self, cfg: SolverConfig, pot, inc: BrownianIncrement) -> None:
        """Step once on ``inc``; raise :class:`DivergenceError` on a non-finite
        state or one that ``observe`` rejects."""
        state = self.stepper(cfg, pot, self.state, inc)
        self.steps += 1
        verdict = None if self.observe is None else self.observe(self.steps, state)
        if verdict is False or verdict is None and not _finite(state):
            raise self._divergence(state)
        self.state = state

    def _divergence(self, state: PhaseState) -> DivergenceError:
        ok_x, ok_v = np.isfinite(state.x), np.isfinite(state.v)
        bad = ~(ok_x & ok_v).all(axis=-1)
        finite = not bad.any()
        # argmax names the first non-finite chain or, of a finite state that
        # observe rejected, the first chain holding its largest entry, its
        # row taken modulo the row count of a stacked state
        worst = np.atleast_1d(np.maximum(np.abs(state.x), np.abs(state.v)).max(axis=-1) if finite else bad)
        max_x, max_v = (
            float(np.abs(a[ok]).max()) if ok.any() else None
            for a, ok in ((state.x, ok_x), (state.v, ok_v))
        )
        return DivergenceError(
            self.method, self.steps, self.steps * self.h, chunk=self.chunk,
            chain=self.chunk * CHUNK + int(np.argmax(worst)) % worst.shape[-1],
            max_abs_x=max_x, max_abs_v=max_v, finite_state=finite,
        )


def simulate(
    cfg: SolverConfig,
    pot,
    initial: PhaseState,
    path: BrownianPath,
    times,
    stepper: str = "quicsort",
) -> list[PhaseState]:
    """Fold the stepper named ``stepper`` over the partition ``times``, noise from ``path``.

    ``times`` must be strictly increasing; the state at ``times[0]`` is
    ``initial`` and the returned list is index-aligned with ``times``.  Step
    ``i`` consumes the path increment with index ``i``, so reruns and other
    steppers on the same seed see identical noise.  Constant step size is
    the tested regime; irregular partitions are accepted but the accuracy
    guarantees are stated for uniform ones.  A non-finite state aborts with
    :class:`DivergenceError` naming the step.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 1:
        raise ValueError("times must be a nonempty 1-d array")
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")
    state = PhaseState(np.asarray(initial.x, dtype=float), np.asarray(initial.v, dtype=float))
    out = []
    runner = ChainRunner(stepper, state, math.nan, 0, lambda step, new: out.append(new))
    try:
        runner.run(cfg, pot, path, np.diff(times))
    except DivergenceError as exc:  # steps may be uneven: name the partition's time
        raise DivergenceError(stepper, exc.step, float(times[exc.step])) from None
    return out
