"""Run the ``ulmc`` CLI once, stamping set-up time and optionally tracing layers.

Usage: python3 perfbench/shim.py RESULT_JSON TRACE ULMC_ARGS...

The package is imported from the repository's ``src/``.  Before ``cli.main``
runs, the harness entry points the CLI calls are wrapped so the first call
into ``harness`` is stamped on the monotonic clock; the launcher compares the
stamp with its own launch time to get set-up time.

With TRACE = 1 the public functions of every layer are also wrapped in spans,
from here and not from ``src/``, and each span's self time (its duration
minus that of the spans nested in it) is added to its layer.  Spans need one
thread, so the traced run must use ``--threads 1``.  The wrappers use
``functools.wraps`` so the ``gradient_evals`` and ``needs_halves`` attributes
the harness reads from steppers survive.

RESULT_JSON receives the stamp, and with tracing the self times, the span
totals and the call counts, even when the CLI fails.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

STUDIES = (
    "strong_error_study",
    "stationary_study",
    "compare_study",
    "mixing_study",
    "contractivity_study",
)
GROUND_TRUTH = ("gaussian_ground_truth", "long_run_ground_truth")


class Recorder:
    """Exclusive-time spans of one thread, summed per layer."""

    def __init__(self) -> None:
        self.first_harness_call: float | None = None
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self._open: list[list[float]] = []  # [start, time inside child spans]
        self._thread = threading.get_ident()

    def stamp(self, fn):
        @functools.wraps(fn)
        def stamped(*args, **kwargs):
            if self.first_harness_call is None:
                self.first_harness_call = time.monotonic()
            return fn(*args, **kwargs)

        return stamped

    def span(self, layer: str, fn, count: str | None = None):
        count = count or layer

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != self._thread:
                raise RuntimeError("layer spans need a single-threaded run (--threads 1)")
            frame = [time.monotonic(), 0.0]
            self._open.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.monotonic() - frame[0]
                self._open.pop()
                self.self_s[layer] += duration - frame[1]
                self.total_s[layer] += duration
                self.calls[count] += 1
                if self._open:
                    self._open[-1][1] += duration

        return traced

    def to_dict(self) -> dict:
        return {
            "first_harness_call": self.first_harness_call,
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "calls": dict(self.calls),
        }


def install(rec: Recorder, trace: bool) -> None:
    """Wrap the layer functions the CLI and harness reach, in place."""
    from ulmc import brownian, cli, harness, integrators, metrics, potentials

    for name in STUDIES + GROUND_TRUTH:
        fn = getattr(cli, name)
        if trace:
            layer = "harness.ground_truth" if name in GROUND_TRUTH else "harness.study"
            fn = rec.span(layer, fn)
        setattr(cli, name, rec.stamp(fn))
    if not trace:
        return

    # compare_study reaches mixing_study through the harness module
    harness.mixing_study = rec.span("harness.study", harness.mixing_study)

    map_chunks = harness._map_chunks

    @functools.wraps(map_chunks)
    def counted_map_chunks(worker, n_chunks, threads):
        rec.calls["harness.chunks"] += n_chunks
        return map_chunks(worker, n_chunks, threads)

    harness._map_chunks = counted_map_chunks

    # harness and cli share this dict and look steppers up in it at call time
    for name, fn in list(integrators.STEPPERS.items()):
        integrators.STEPPERS[name] = rec.span("integrators.step", fn, f"integrators.step_calls.{name}")
    harness.quicsort_step = integrators.STEPPERS["quicsort"]

    for cls in (potentials.QuadraticPotential, potentials.LogisticPosterior):
        cls.gradient = rec.span("potentials.grad", cls.gradient)
    brownian.DyadicBrownianTree.split = rec.span("brownian.split", brownian.DyadicBrownianTree.split)
    brownian.BrownianPath.increment = rec.span("brownian.increment", brownian.BrownianPath.increment)

    harness.wasserstein2 = rec.span("metrics.w2", metrics.wasserstein2)
    harness.energy_distance_sq = rec.span("metrics.energy", metrics.energy_distance_sq)

    for name in ("write_text_report", "write_json_report"):
        setattr(cli, name, rec.span("cli.report_write", getattr(cli, name)))


def main() -> int:
    result_path, trace, cli_args = Path(sys.argv[1]), sys.argv[2] == "1", sys.argv[3:]
    sys.path.insert(0, str(SRC))
    from ulmc import cli

    rec = Recorder()
    install(rec, trace)
    run = rec.span("cli", cli.main) if trace else cli.main
    try:
        return run(cli_args)
    finally:
        result_path.write_text(json.dumps(rec.to_dict()), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
