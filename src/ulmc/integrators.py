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
    "StepCoefficients",
    "DivergenceError",
    "phi0",
    "phi1",
    "phi2",
    "step_coefficients",
    "quicsort_step",
    "ubu_step",
    "euler_step",
    "simulate",
    "STEPPERS",
    "LAMBDA_PLUS",
    "LAMBDA_MINUS",
]

LAMBDA_PLUS = (3.0 + math.sqrt(3.0)) / 6.0
LAMBDA_MINUS = (3.0 - math.sqrt(3.0)) / 6.0


@dataclass(frozen=True)
class SolverConfig:
    """Friction ``gamma`` and mass-like constant ``u`` of the dynamics.

    ``sigma = sqrt(2 * gamma * u)`` is the matching diffusion coefficient.
    """

    gamma: float
    u: float = 1.0

    def __post_init__(self) -> None:
        if not (self.gamma > 0 and self.u > 0):
            raise ValueError(f"need gamma > 0 and u > 0, got {self.gamma}, {self.u}")

    @property
    def sigma(self) -> float:
        return math.sqrt(2.0 * self.gamma * self.u)


class PhaseState(NamedTuple):
    """Position and velocity, each of shape (..., d)."""

    x: np.ndarray
    v: np.ndarray


class DivergenceError(RuntimeError):
    """A state became non-finite during simulation.

    A chunked run also names the ``chunk``, the global index of the first
    non-finite ``chain``, and the largest finite ``|x|`` and ``|v|`` of the
    chunk's state (None when no entry is finite).
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
    ):
        self.method = method
        self.step = step
        self.time = time
        self.chunk = chunk
        self.chain = chain
        self.max_abs_x = max_abs_x
        self.max_abs_v = max_abs_v
        msg = f"non-finite state after step {step} (t = {time:g}) of {method}"
        if chunk is not None:
            mags = ["none" if m is None else f"{m:.6g}" for m in (max_abs_x, max_abs_v)]
            msg += (
                f" in chunk {chunk}, first at chain {chain}; "
                f"largest finite |x| {mags[0]}, |v| {mags[1]}"
            )
        super().__init__(msg)


def _exprel2(a):
    """exp(-a) + a - 1 without cancellation for small a >= 0."""
    a = np.asarray(a, dtype=float)
    small = a < 0.03
    safe = np.where(small, 1.0, a)
    direct = np.expm1(-safe) + safe
    # Horner form of a^2/2 - a^3/6 + ... - a^7/5040 + a^8/40320
    series = a * a * (
        1.0 / 2
        + a * (-1.0 / 6 + a * (1.0 / 24 + a * (-1.0 / 120
        + a * (1.0 / 720 + a * (-1.0 / 5040 + a / 40320)))))
    )
    return np.where(small, series, direct)


def phi0(gamma: float, h: float, x) -> np.ndarray | float:
    """exp(-x*gamma*h)."""
    return np.exp(-np.asarray(x, dtype=float) * gamma * h)


def phi1(gamma: float, h: float, x) -> np.ndarray | float:
    """(1 - exp(-x*gamma*h)) / gamma, evaluated stably."""
    return -np.expm1(-np.asarray(x, dtype=float) * gamma * h) / gamma


def phi2(gamma: float, h: float, x) -> np.ndarray | float:
    """(exp(-x*gamma*h) + x*gamma*h - 1) / gamma**2, evaluated stably."""
    return _exprel2(np.asarray(x, dtype=float) * gamma * h) / gamma**2


@dataclass(frozen=True)
class StepCoefficients:
    """phi values of one (gamma, h) pair at the stage points of the schemes."""

    h: float
    lambda_plus: float
    lambda_minus: float
    phi0_plus: float
    phi0_minus: float
    phi0_one: float
    phi1_plus: float
    phi1_minus: float
    phi1_third: float
    phi1_one: float
    phi2_plus: float
    phi2_minus: float
    phi2_one: float


@functools.lru_cache(maxsize=512)
def step_coefficients(gamma: float, h: float) -> StepCoefficients:
    """Evaluate and cache the phi values a step of size ``h`` needs."""
    if not (gamma > 0 and h > 0):
        raise ValueError("need gamma > 0 and h > 0")
    return StepCoefficients(
        h=h,
        lambda_plus=LAMBDA_PLUS,
        lambda_minus=LAMBDA_MINUS,
        phi0_plus=float(phi0(gamma, h, LAMBDA_PLUS)),
        phi0_minus=float(phi0(gamma, h, LAMBDA_MINUS)),
        phi0_one=float(phi0(gamma, h, 1.0)),
        phi1_plus=float(phi1(gamma, h, LAMBDA_PLUS)),
        phi1_minus=float(phi1(gamma, h, LAMBDA_MINUS)),
        phi1_third=float(phi1(gamma, h, 1.0 / 3.0)),
        phi1_one=float(phi1(gamma, h, 1.0)),
        phi2_plus=float(phi2(gamma, h, LAMBDA_PLUS)),
        phi2_minus=float(phi2(gamma, h, LAMBDA_MINUS)),
        phi2_one=float(phi2(gamma, h, 1.0)),
    )


def quicsort_step(cfg: SolverConfig, pot, state: PhaseState, inc: BrownianIncrement) -> PhaseState:
    """One five-stage step; exactly two gradient evaluations.

    The stage positions sit at fractions lambda_minus and lambda_plus of the
    step, and the gradient terms combine with weights that cancel the
    quadrature error of the underlying two-point Gauss rule, giving third
    order pathwise accuracy from only (w, h, k).
    """
    co = step_coefficients(cfg.gamma, inc.dt)
    h = inc.dt
    u = cfg.u
    sigma = cfg.sigma
    v1 = state.v + sigma * (inc.h + 6.0 * inc.k)
    c = sigma * (inc.w - 12.0 * inc.k)
    x1 = state.x + co.phi1_minus * v1 + (co.phi2_minus / h) * c
    g1 = pot.gradient(x1)
    x2 = state.x + co.phi1_plus * v1 - co.phi1_third * u * h * g1 + (co.phi2_plus / h) * c
    g2 = pot.gradient(x2)
    v2 = (
        co.phi0_one * v1
        - 0.5 * co.phi0_plus * u * h * g1
        - 0.5 * co.phi0_minus * u * h * g2
        + (co.phi1_one / h) * c
    )
    x_new = (
        state.x
        - 0.5 * co.phi1_plus * u * h * g1
        - 0.5 * co.phi1_minus * u * h * g2
        + co.phi1_one * v1
        + (co.phi2_one / h) * c
    )
    v_new = v2 - sigma * (inc.h - 6.0 * inc.k)
    return PhaseState(x_new, v_new)


quicsort_step.gradient_evals = 2


def _ou_flow(cfg: SolverConfig, state: PhaseState, inc: BrownianIncrement) -> PhaseState:
    """Exact flow of dx = v dt, dv = -gamma v dt + sigma dW over one interval,
    with dW taken from the increment's piecewise-linear path surrogate."""
    co = step_coefficients(cfg.gamma, inc.dt)
    jump = inc.h + 6.0 * inc.k
    rate = (inc.w - 12.0 * inc.k) / inc.dt
    conv = co.phi0_one * jump + co.phi1_one * rate + (6.0 * inc.k - inc.h)
    tconv = co.phi1_one * jump + co.phi2_one * rate
    x_new = state.x + co.phi1_one * state.v + cfg.sigma * tconv
    v_new = co.phi0_one * state.v + cfg.sigma * conv
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


ubu_step.gradient_evals = 1
ubu_step.needs_halves = True


def euler_step(cfg: SolverConfig, pot, state: PhaseState, inc: BrownianIncrement) -> PhaseState:
    """Exponential Euler: freeze the gradient at the left endpoint and
    integrate the resulting linear SDE exactly; one gradient."""
    co = step_coefficients(cfg.gamma, inc.dt)
    g = pot.gradient(state.x)
    jump = inc.h + 6.0 * inc.k
    rate = (inc.w - 12.0 * inc.k) / inc.dt
    conv = co.phi0_one * jump + co.phi1_one * rate + (6.0 * inc.k - inc.h)
    tconv = co.phi1_one * jump + co.phi2_one * rate
    x_new = state.x + co.phi1_one * state.v - co.phi2_one * cfg.u * g + cfg.sigma * tconv
    v_new = co.phi0_one * state.v - co.phi1_one * cfg.u * g + cfg.sigma * conv
    return PhaseState(x_new, v_new)


euler_step.gradient_evals = 1

STEPPERS: dict[str, Callable] = {
    "quicsort": quicsort_step,
    "ubu": ubu_step,
    "euler": euler_step,
}


def simulate(
    cfg: SolverConfig,
    pot,
    initial: PhaseState,
    path: BrownianPath,
    times,
    stepper: Callable = quicsort_step,
) -> list[PhaseState]:
    """Fold ``stepper`` over the partition ``times``, noise from ``path``.

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
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")
    needs_halves = getattr(stepper, "needs_halves", False)
    name = getattr(stepper, "__name__", str(stepper))
    state = PhaseState(np.asarray(initial.x, dtype=float), np.asarray(initial.v, dtype=float))
    out = [state]
    for i in range(times.size - 1):
        inc = path.increment(i, times[i + 1] - times[i], with_halves=needs_halves)
        state = stepper(cfg, pot, state, inc)
        if not (np.all(np.isfinite(state.x)) and np.all(np.isfinite(state.v))):
            raise DivergenceError(name, i + 1, float(times[i + 1]))
        out.append(state)
    return out
