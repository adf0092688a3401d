"""Mutant catalogue: each named text mutant of ``src/`` must fail the fast tests.

Usage: python3 tools/mutants.py

The script copies ``src/``, ``tests/``, ``demos/``, ``perfbench/``,
``pyproject.toml`` and ``README.md`` (the tests read the benchmark's workloads
and README's table of bounds) to a fresh temporary directory, removed
afterwards, runs the fast suite (``pytest -m "not slow" -x -q``) there once
unmutated, which must pass, and then once per mutant with that one edit
applied.  A mutant is killed when the suite fails.  A mutant that survives
is a gap in the tests unless it is listed as equivalent, with the reason no
test can tell it apart.  The repository itself is never edited.  Exit status
0 means every mutant was killed or is a listed equivalent.

Standard library only; the copy is run with bytecode writing off, so an edit
that keeps a file's size within one second can never reuse stale bytecode.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "demos", "perfbench", "pyproject.toml", "README.md")


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    old: str  # must occur exactly once in the file
    new: str
    equivalent: str | None = None  # why no test can kill it, for a known equivalent


MUTANTS = (
    Mutant(
        "counter words swapped",
        "src/ulmc/brownian.py",
        '"counter": (0, 0, index, stream)',
        '"counter": (0, 0, stream, index)',
    ),
    Mutant(
        "tag and chunk swapped in the key",
        "src/ulmc/brownian.py",
        "int(tag) << 64 | int(chunk) << 96",
        "int(chunk) << 64 | int(tag) << 96",
    ),
    Mutant(
        "noise index bound dropped",
        "src/ulmc/brownian.py",
        "if not 0 <= index < 1 << _INDEX_BITS:",
        "if not 0 <= index:",
    ),
    Mutant(
        "earliest failure not raised first",
        "src/ulmc/harness.py",
        "raise self._results[min(self._failed)]",
        "raise self._results[self._failed[0]]",
    ),
    Mutant(
        "chunk fold order reversed",
        "src/ulmc/harness.py",
        "math.sqrt(sum(part[(m, lvl)] for part in parts) / paths)",
        "math.sqrt(sum(part[(m, lvl)] for part in reversed(parts)) / paths)",
    ),
    Mutant(
        "tree walk yields its right child first",
        "src/ulmc/brownian.py",
        "stack += [(level + 1, 2 * index + 1, halves[1]), (level + 1, 2 * index, halves[0])]",
        "stack += [(level + 1, 2 * index, halves[0]), (level + 1, 2 * index + 1, halves[1])]",
    ),
    Mutant(
        "halves drawn for every runner",
        "src/ulmc/integrators.py",
        "path.increment(i, dt, with_halves=self.needs_halves)",
        "path.increment(i, dt, with_halves=True)",
    ),
    Mutant(
        "contract pairs stacked with b first",
        "src/ulmc/harness.py",
        "PhaseState(np.stack([x_a, x_b]), math.sqrt(cfg.u) * np.stack([v_a, v_b]))",
        "PhaseState(np.stack([x_b, x_a]), math.sqrt(cfg.u) * np.stack([v_b, v_a]))",
    ),
    Mutant(
        "euler position kick uses phi1 for phi2",
        "src/ulmc/integrators.py",
        "x_new = state.x + s.phi1_one * state.v - s.phi2_one_u * g + noise_x",
        "x_new = state.x + s.phi1_one * state.v - s.phi1_one_u * g + noise_x",
    ),
    Mutant(
        "compare steps one-gradient methods at h",
        "src/ulmc/harness.py",
        "return [(m, h / k, tuple(k * c for c in cps)) for m, k in ratios.items()]",
        "return [(m, h, tuple(k * c for c in cps)) for m, k in ratios.items()]",
    ),
    Mutant(
        "mixing plan drops the initial draw of a run to checkpoint 0",
        "src/ulmc/harness.py",
        "steps = sum(max([*run_cps, 1]) for _, _, run_cps in runs)",
        "steps = sum(max([*run_cps, 0]) for _, _, run_cps in runs)",
    ),
    Mutant(  # the state plan is still kept, but its problem is dropped
        "contract pairs bound dropped",
        "src/ulmc/harness.py",
        'plans, "state"\n    ) or ',
        'plans, "state"\n    ) and [] or ',
    ),
    Mutant(
        "refine map shift drops the half in its corner",
        "src/ulmc/brownian.py",
        "[0.5 * q * q, q, 1.0]",
        "[q * q, q, 1.0]",
    ),
    Mutant(  # past the step bound's row a run has at most 2**30 chunks, so this row never fires
        "chunk count bound dropped",
        "src/ulmc/harness.py",
        '("chunks", "_MAX_CHUNKS",',
        '("chunks", "_MAX_CHUNK_STEPS",',
    ),
    Mutant(
        "mixing clouds counted for one run only",
        "src/ulmc/harness.py",
        "held = n_chains * d * sum(len(run_cps) for _, _, run_cps in runs)",
        "held = n_chains * d * len(cps)",
    ),
    Mutant(
        "reference cloud held without its dimension",
        "src/ulmc/harness.py",
        "n_steps or 0, d, t * d, terms,",
        "n_steps or 0, d, t, terms,",
    ),
    Mutant(
        "mean-distance blocks capped by rows only",
        "src/ulmc/metrics.py",
        "rows = max(1, min(_BLOCK_ROWS, _BLOCK_ENTRIES // ys.shape[0]))",
        "rows = _BLOCK_ROWS",
    ),
    Mutant(
        "sample checks the methods compare runs",
        "src/ulmc/cli.py",
        "_mixing_problems(rc, pot, rc.method, plans))",
        "_mixing_problems(rc, pot, rc.methods, plans))",
    ),
    Mutant(
        "distance work bound dropped",
        "src/ulmc/harness.py",
        "terms = (n * n + n * t + t * t) * d if n else 0",
        "terms = 0",
    ),
    Mutant(
        "reference distance terms always named by the reference's size",
        "src/ulmc/harness.py",
        'terms_name = "chains" if n >= t else "truth_samples"',
        'terms_name = "truth_samples"',
    ),
    Mutant(
        "contract pair-steps bound dropped",
        "src/ulmc/harness.py",
        ' or _plan_problems(_chunk_plan("steps", "pairs"',
        ' or [] and _plan_problems(_chunk_plan("steps", "pairs"',
    ),
    Mutant(
        "dimension bound dropped",
        "src/ulmc/cli.py",
        "if rc.dimension > _MAX_DIMENSION:",
        "if False:",
    ),
    Mutant(  # every chunked plan keeps no state; contract's state plan is its own
        "chunk state bound dropped",
        "src/ulmc/harness.py",
        "chunks, rows * width, held, terms)",
        "chunks, 0, held, terms)",
    ),
    Mutant(
        "level range bound dropped",
        "src/ulmc/cli.py",
        "if hi - lo > _INDEX_BITS:",
        "if False:",
    ),
    Mutant(
        "experiment choices dropped",
        "src/ulmc/cli.py",
        "choices=EXPERIMENTS, ",
        "",
    ),
    Mutant(
        "threads bound dropped",
        "src/ulmc/cli.py",
        "elif rc.threads > _MAX_THREADS:",
        "elif False:",
    ),
    Mutant(
        "contract state bound dropped to one chain of each pair",
        "src/ulmc/harness.py",
        "1, 2 * n_pairs * pot.meta.d)",
        "1, n_pairs * pot.meta.d)",
    ),
    Mutant(
        "stationary plan built and checked while a setting fails",
        "src/ulmc/harness.py",
        ') or _plan_problems(_chunk_plan(step_name, "chains", "burn_in + kept"',
        ') + _plan_problems(_chunk_plan(step_name, "chains", "burn_in + kept"',
    ),
    Mutant(
        "a helper that failed to start is joined",
        "src/ulmc/harness.py",
        "                    break\n                self.helpers.append(helper)",
        "                    self.helpers.append(helper)\n"
        "                    break\n                self.helpers.append(helper)",
    ),
)


def _run_suite(copy: Path) -> tuple[bool, float]:
    """Run the fast suite in ``copy``; return whether it passed and its wall time."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-m", "not slow", "-x", "-q", "-p", "no:cacheprovider"]
    start = time.monotonic()
    done = subprocess.run(cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return done.returncode == 0, time.monotonic() - start


def _copy_tree(copy: Path) -> None:
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, copy / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(src, copy / name)


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="ulmc-mutants-") as scratch:
        copy = Path(scratch)
        _copy_tree(copy)
        passed, wall = _run_suite(copy)
        print(f"unmutated fast suite: {'passed' if passed else 'FAILED'} in {wall:.1f} s")
        if not passed:
            return 1
        gaps = killed = 0
        for mutant in MUTANTS:
            target = copy / mutant.path
            text = target.read_text(encoding="utf-8")
            if text.count(mutant.old) != 1:
                print(f"{mutant.name}: its text does not occur exactly once in {mutant.path}")
                return 1
            target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
            try:
                survived, wall = _run_suite(copy)
            finally:
                target.write_text(text, encoding="utf-8")
            if not survived:
                killed += 1
                verdict = "killed"
            elif mutant.equivalent:
                verdict = f"survived, equivalent: {mutant.equivalent}"
            else:
                gaps += 1
                verdict = "SURVIVED"
            print(f"{mutant.name}: {verdict} ({wall:.1f} s)")
        print(f"{killed} of {len(MUTANTS)} mutants killed, {gaps} unexplained survivors")
        return 1 if gaps else 0


if __name__ == "__main__":
    sys.exit(main())
