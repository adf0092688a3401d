"""Tests for the command-line entry point: config handling, outputs, exit codes."""

import argparse
import gc
import json
import os
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ulmc
from ulmc import cli, harness
from ulmc.cli import DEFAULTS, RunConfig, main, _parser, _resolve
from ulmc.harness import _chunk_workers
from ulmc.potentials import QuadraticPotential, synthetic_dataset

SMALL_CONVERGE = """\
# quick settings for a toy run
levels = 2:4
fine_level = 8
paths = 8
horizon = 1.0
dimension = 2
"""


def _default_config(experiment="sample", **overrides):
    args = _parser().parse_args([experiment])
    rc, diags = _resolve(args)
    assert diags == []
    for key, value in overrides.items():
        setattr(rc, key, value)
    return rc


def _write(path, text):
    path.write_text(text)
    return str(path)


def test_converge_end_to_end(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = _write(tmp_path / "run.cfg", SMALL_CONVERGE)
    assert main(["converge", "--config", cfg, "--seed", "5", "--out", "conv"]) == 0
    out = capsys.readouterr().out
    assert "quicsort" in out and "slope" in out

    lines = (tmp_path / "conv.csv").read_text().splitlines()
    assert lines[0] == "# ulmc-csv v2 converge"
    assert lines[1] == "method,N,rms_error"
    assert len(lines) == 2 + 3 * 3  # three methods, three levels

    report = json.loads((tmp_path / "conv.json").read_text())
    assert report["experiment"] == "converge"
    assert set(report["report"]["fits"]) == {"quicsort", "ubu", "euler"}
    assert report["config"]["seed"] == 5
    assert report["config"]["gamma_resolved"] == 2.0


def test_same_seed_reruns_are_byte_identical(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = _write(tmp_path / "run.cfg", SMALL_CONVERGE)
    argv = ["converge", "--config", cfg, "--seed", "7", "--out", "one"]
    assert main(argv) == 0
    csv_first = (tmp_path / "one.csv").read_bytes()
    json_first = (tmp_path / "one.json").read_bytes()
    assert main(argv) == 0
    assert (tmp_path / "one.csv").read_bytes() == csv_first
    assert (tmp_path / "one.json").read_bytes() == json_first


def test_flags_override_config_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = _write(tmp_path / "run.cfg", SMALL_CONVERGE + "seed = 11\nkept = 50\n")
    argv = ["converge", "--config", cfg, "--paths", "6", "--kept", "10", "--fine-level", "7"]
    assert main(argv + ["--out", "o"]) == 0
    report = json.loads((tmp_path / "o.json").read_text())
    assert report["config"]["paths"] == 6  # flag beats the file's 8
    assert report["config"]["kept"] == 10  # a flag for every setting, not just some
    assert report["config"]["fine_level"] == 7
    assert report["config"]["seed"] == 11  # file beats the default 2024


def test_missing_dataset_exits_2_naming_path(capsys):
    code = main(["sample", "--dataset", "/nowhere/data.csv"])
    assert code == 2
    err = capsys.readouterr().err
    assert "/nowhere/data.csv" in err


def test_config_file_diagnostics_are_line_precise(tmp_path, capsys):
    cfg = _write(
        tmp_path / "bad.cfg",
        "chains = 64\ngama = 2.0\nh = fast\nnot a setting\nchains = 32\n",
    )
    code = main(["sample", "--config", cfg])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{cfg}:2: unknown key 'gama'" in err
    assert f"{cfg}:3" in err and "'h'" in err
    assert f"{cfg}:4" in err and "key = value" in err
    assert f"{cfg}:5: duplicate key 'chains'" in err


def test_converge_levels_reaching_fine_level_exits_2(capsys):
    # the default fine_level is 14 and ubu needs halves of every coarse step
    assert main(["converge", "--levels", "3:14"]) == 2
    err = capsys.readouterr().err
    assert "ulmc: levels:" in err and "'ubu'" in err and "Traceback" not in err


def test_converge_refuses_a_reference_too_long_to_run(tmp_path, monkeypatch, capsys):
    # 2**40 reference steps would run for weeks; the plan is refused before any runs
    def must_not_run(*args, **kwargs):
        raise AssertionError("the study ran")

    monkeypatch.setattr(cli, "strong_error_study", must_not_run)
    argv = ["converge", "--fine-level", "40", "--levels", "3:5", "--paths", "2",
            "--dimension", "2", "--out", str(tmp_path / "run")]
    start = time.monotonic()
    assert main(argv) == 2
    assert time.monotonic() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("ulmc: fine_level: the reference would take 2**40 steps") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("fine_level", ["1500", "65"])
def test_converge_fine_level_beyond_the_noise_index_exits_2(fine_level, tmp_path, capsys):
    argv = ["converge", "--fine-level", fine_level, "--levels", "3:5", "--paths", "2",
            "--dimension", "2", "--out", str(tmp_path / "run")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "ulmc: fine_level: " in err and "at most 64" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_dataset_with_nan_feature_exits_2_naming_it(tmp_path, capsys):
    data = _write(tmp_path / "nan.csv", "1,0.5,2.0\n0,nan,1.0\n1,0.3,0.2\n")
    assert main(["sample", "--dataset", data]) == 2
    err = capsys.readouterr().err
    assert "features must be finite" in err
    assert "variance" not in err


def test_missing_config_file_exits_2(capsys):
    assert main(["sample", "--config", "/nowhere/run.cfg"]) == 2
    assert "/nowhere/run.cfg" in capsys.readouterr().err


def test_validate_default_config_is_clean():
    for experiment in ("converge", "sample", "contract", "stationary", "compare"):
        rc = _default_config(experiment)
        assert cli._validate(rc)[0] == []


def test_validate_reports_all_violations_at_once():
    rc = _default_config("sample", h=0.0, chains=0, method="leapfrog")
    diags = cli._validate(rc)[0]
    assert len(diags) == 3
    assert any("step size" in d for d in diags)
    assert any("chains" in d for d in diags)
    assert any("leapfrog" in d for d in diags)


def test_validate_zero_step_size():
    diags = cli._validate(_default_config("sample", h=0.0))[0]
    assert len(diags) == 1
    assert "h" in diags[0] and "positive" in diags[0]


def test_validate_contract_precondition_cites_bound():
    rc = _default_config("contract", gamma=1.0, h=0.04)
    diags = cli._validate(rc)[0]
    assert len(diags) == 1
    assert "2*sqrt(u*M1)" in diags[0]


def test_contract_run_writes_distances(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = _write(tmp_path / "c.cfg", "steps = 40\npairs = 100\ndimension = 1\n")
    assert main(["contract", "--config", cfg, "--h", "0.05", "--seed", "3", "--out", "ct"]) == 0
    lines = (tmp_path / "ct.csv").read_text().splitlines()
    assert lines[0] == "# ulmc-csv v2 contract"
    assert lines[1] == "step,distance"
    assert len(lines) == 2 + 41
    dist = [float(line.split(",")[1]) for line in lines[2:]]
    assert dist[-1] < dist[0]
    assert "per-step factor" in capsys.readouterr().out


def test_stationary_run_writes_statistics(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = _write(tmp_path / "s.cfg", "burn_in = 50\nkept = 200\nchains = 16\ndimension = 2\n")
    assert main(["stationary", "--config", cfg, "--seed", "3", "--out", "st"]) == 0
    lines = (tmp_path / "st.csv").read_text().splitlines()
    assert lines[0] == "# ulmc-csv v2 stationary"
    names = [line.split(",")[0] for line in lines[2:]]
    assert names == ["mean_x_sq", "mean_v_sq", "v_l2", "v_l4", "v_l6"]


def test_compare_budgets_align_in_output(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = _write(
        tmp_path / "m.cfg",
        "chains = 64\ncheckpoints = 0,2,5\ntruth_samples = 256\nh = 0.2\ndimension = 2\n",
    )
    assert main(["compare", "--config", cfg, "--seed", "3", "--out", "cmp"]) == 0
    budgets = {}
    for line in (tmp_path / "cmp.csv").read_text().splitlines()[2:]:
        method, evals, _, _ = line.split(",")
        budgets.setdefault(method, []).append(int(evals))
    assert budgets["quicsort"] == budgets["ubu"] == budgets["euler"]


def _table_run(experiment, **overrides):
    """The CSV text and payload of ``experiment``'s table entry on a tiny config."""
    rc = _default_config(experiment, **{**_TINY, **overrides})
    diags, pot, solver = cli._validate(rc)
    assert diags == []
    header, rows, payload, _ = cli.EXPERIMENTS[experiment][0](rc, pot, solver)
    return cli._csv(experiment, header, rows), payload


def test_convergence_csv_schema():
    text, payload = _table_run("converge", levels=(2, 3, 4, 5), fine_level=6)
    lines = text.splitlines()
    assert lines[0] == "# ulmc-csv v2 converge"
    assert lines[1] == "method,N,rms_error"
    assert len(lines) == 2 + 12
    method, n, err = lines[2].split(",")
    assert method == "quicsort" and int(n) == 4
    assert float(err) == payload["errors"]["quicsort"][0]
    assert text.endswith("\n")


def test_mixing_csv_schema():
    text, _ = _table_run("compare", methods=("quicsort",), chains=64, checkpoints=(0, 3))
    lines = text.splitlines()
    assert lines[0] == "# ulmc-csv v2 compare"
    assert lines[1] == "method,grad_evals,energy_dist,w2"
    assert lines[2].startswith("quicsort,0,")


def test_contract_and_stationary_csv():
    text = cli._csv("contract", "step,distance", enumerate([1.0, 0.5, 0.25]))
    assert text.splitlines()[0] == "# ulmc-csv v2 contract"
    assert text.splitlines()[2] == "0,1"
    assert text.splitlines()[3] == "1,0.5"
    stat, _ = _table_run("stationary")
    lines = stat.splitlines()
    assert lines[0] == "# ulmc-csv v2 stationary"
    assert lines[1] == "statistic,value"
    assert lines[2].startswith("mean_x_sq,")


def test_report_files_are_reproducible(tmp_path):
    text, payload = _table_run("converge", levels=(2, 3, 4), fine_level=5)
    path = tmp_path / "converge.csv"
    cli.write_text_report(path, text)
    first = path.read_bytes()
    cli.write_text_report(path, text)
    assert path.read_bytes() == first
    assert b"\r" not in first

    jpath = tmp_path / "converge.json"
    cli.write_json_report(jpath, {"config": {"seed": 42, "gamma": 2.0}, "report": payload})
    loaded = json.loads(jpath.read_text())
    assert loaded["config"]["seed"] == 42
    assert loaded["report"]["fits"]["quicsort"]["order"] == payload["fits"]["quicsort"]["order"]
    assert jpath.read_text().endswith("\n")


@pytest.mark.parametrize("argv, setting", [
    (["contract", "--steps", "10000000000000", "--pairs", "2"], "steps"),
    (["stationary", "--kept", "1000000000000", "--chains", "2"], "kept"),
    (["sample", "--checkpoints", "0,1000000000000", "--chains", "2", "--truth-samples", "4"], "checkpoints"),
])
def test_plans_too_long_to_run_exit_2_naming_the_setting(argv, setting, tmp_path, capsys):
    start = time.monotonic()
    assert main([*argv, "--dimension", "2", "--out", str(tmp_path / "run")]) == 2
    assert time.monotonic() - start < 2.0
    err = capsys.readouterr().err
    assert err.startswith(f"ulmc: {setting}: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, setting", [
    # a run to checkpoint 0 still draws every chunk's initial state
    (["sample", "--chains", "1000000000000", "--checkpoints", "0", "--truth-samples", "4", "--threads", "1"], "chains"),
    # contract holds all its pairs in one state
    (["contract", "--pairs", "1000000000000", "--steps", "2"], "pairs"),
    # one step on each of 2**30 chunks fits the step plan, but not the chunk bound
    (["sample", "--chains", "68719476736", "--checkpoints", "0,1", "--truth-samples", "4", "--threads", "1"], "chains"),
    (["stationary", "--chains", "68719476736", "--burn-in", "0", "--kept", "1", "--threads", "1"], "chains"),
    (["converge", "--paths", "68719476736", "--levels", "0", "--fine-level", "0", "--methods", "euler",
      "--threads", "1"], "paths"),
    # position clouds: the reference's samples times d, the chains' at every checkpoint
    (["sample", "--truth-samples", "1000000000000", "--chains", "4", "--checkpoints", "0,1"], "truth_samples"),
    (["sample", "--chains", "4194304", "--dimension", "1000", "--checkpoints", "0,1", "--truth-samples", "4",
      "--threads", "1"], "chains"),
    # one checkpoint's energy distance sums the pairs of the cloud, or of the reference
    (["sample", "--chains", "4194304", "--dimension", "1", "--checkpoints", "0", "--truth-samples", "4",
      "--threads", "1"], "chains"),
    (["sample", "--truth-samples", "200000", "--dimension", "2", "--chains", "64", "--checkpoints", "0",
      "--threads", "1"], "truth_samples"),
    # all pairs step as one state, planned as chunks of 64 pairs times the steps
    (["contract", "--pairs", "1048576", "--dimension", "2", "--steps", "1048576"], "steps"),
    # the target is built before any plan, and a chunk's state is bounded
    (["stationary", "--dimension", "100000000000", "--threads", "1"], "dimension"),
    (["stationary", "--dimension", "20000000", "--chains", "1", "--burn-in", "0", "--kept", "1", "--threads", "1"],
     "dimension"),
    (["stationary", "--dimension", "1048576", "--chains", "64", "--burn-in", "0", "--kept", "1", "--threads", "1"],
     "dimension"),
    (["converge", "--dimension", "65536", "--paths", "64", "--levels", "3:5", "--fine-level", "8", "--threads", "1"],
     "dimension"),
    # a level range is listed as it is parsed
    (["converge", "--levels", "0:100000000000"], "flag --levels"),
    # 65,536 chunks would each get a thread
    (["stationary", "--dimension", "64", "--chains", "4194304", "--burn-in", "0", "--kept", "1",
      "--threads", "100000"], "threads"),
    # contract's (2, pairs, d) state is held like a chunk's
    (["contract", "--pairs", "1048576", "--dimension", "4", "--steps", "1", "--threads", "1"], "pairs"),
])
def test_runs_too_wide_to_hold_exit_2_at_once(argv, setting, tmp_path):
    # in a child with its address space capped at 2 GiB, so a run that slips
    # past validation fails or times out instead of filling the machine; d = 2
    # unless the case sets it
    code = (
        "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31)); "
        f"from ulmc.cli import main; sys.exit(main({[argv[0], '--dimension', '2', *argv[1:], '--out', 'run']!r}))"
    )
    proc = _run_python(code, tmp_path, timeout=10)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"ulmc: {setting}: ") and proc.stderr.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, step", [
    # u = 1/M1 = 1e307: |v| near 1e154, so squared errors and distances overflow
    (["converge", "--levels", "0:2", "--fine-level", "5", "--paths", "4", "--dimension", "2"], 1),
    (["contract", "--dimension", "50", "--steps", "3", "--pairs", "4"], 0),
])
def test_overflow_on_a_finite_state_exits_3(argv, step, tmp_path, capsys):
    assert main([*argv, "--curvature", "1e-307", "--out", str(tmp_path / "run")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"ulmc: overflowing moments of a finite state after step {step} ")
    assert "of quicsort in chunk 0, first at chain" in err and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_sample_on_dataset_posterior(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    loads = []
    real_load = cli.load_dataset

    def counting_load(*args, **kwargs):
        loads.append(args)
        return real_load(*args, **kwargs)

    monkeypatch.setattr(cli, "load_dataset", counting_load)
    rng = np.random.default_rng(8)
    feats = rng.standard_normal((40, 2))
    labels = np.sign(feats[:, 0] + 0.1 * rng.standard_normal(40))
    table = np.column_stack([labels, feats])
    np.savetxt(tmp_path / "data.csv", table, delimiter=",")
    cfg = _write(
        tmp_path / "d.cfg",
        "chains = 32\ncheckpoints = 0,3\ntruth_samples = 64\ntruth_steps = 40\nh = 0.2\n",
    )
    code = main([
        "sample", "--config", cfg, "--dataset", str(tmp_path / "data.csv"),
        "--seed", "4", "--out", "ds",
    ])
    assert code == 0
    report = json.loads((tmp_path / "ds.json").read_text())
    assert report["report"]["method"] == "quicsort"
    assert report["config"]["dataset"].endswith("data.csv")
    assert report["config"]["u_resolved"] < 1.0  # auto policy scales by 1/M1
    assert len(loads) == 1  # validation and the run share one potential


def test_divergence_exits_3_with_context(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = _write(
        tmp_path / "div.cfg",
        "method = euler\ncurvature = 100\ngamma = 0.1\nu = 1.0\nh = 2.0\n"
        "chains = 8\ncheckpoints = 0,400\ntruth_samples = 64\ndimension = 2\n",
    )
    code = main(["sample", "--config", cfg, "--out", "div"])
    assert code == 3
    err = capsys.readouterr().err
    assert "euler" in err
    assert "step" in err
    # eight chains are one chunk; the message names it, the chain and the magnitudes
    assert re.search(r"in chunk 0, first at chain [0-7]; largest finite \|x\| \S+, \|v\| \S+$", err.strip())


def test_threads_auto_follows_cpu_affinity(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert _default_config("stationary").threads == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert _default_config("stationary").threads == 8


def test_threads_are_bounded_and_auto_stays_within_the_bound(monkeypatch):
    # validated only, so no thread is started
    most = cli._MAX_THREADS
    assert most == 256
    for threads, diags in [(most, []), (most + 1, [f"threads: may be at most {most}"]),
                           (100000, [f"threads: may be at most {most}"])]:
        assert cli._validate(_default_config("stationary", threads=threads))[0] == diags
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4 * most)), raising=False)
    rc = _default_config("stationary")
    assert rc.threads == most and cli._validate(rc)[0] == []
    # the widest run a valid configuration can ask for pools at most that many threads
    assert _chunk_workers(QuadraticPotential(1.0, d=64), most, 2**16) == most


def test_subcommand_required(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    # an unknown experiment is a usage error, before any setting is resolved
    with pytest.raises(SystemExit) as exc:
        main(["bogus", "--out", "run"])
    assert exc.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, config, err",
    [
        (["converge", "--levels", "5:3"], None,
         "ulmc: flag --levels: bad value for 'levels': empty level range '5:3'\n"),
        (["stationary"], "standardize = maybe\n",
         "ulmc: {cfg}:1: bad value for 'standardize': expected true/false, got 'maybe'\n"),
        (["stationary", "--seed", "-1"], None, "ulmc: seed: must be nonnegative\n"),
        (["stationary", "--threads", "0"], None, "ulmc: threads: must be at least 1\n"),
    ],
    ids=["levels", "standardize", "seed", "threads"],
)
def test_bad_setting_exits_2_naming_it(argv, config, err, tmp_path, capsys):
    cfg = _write(tmp_path / "run.cfg", config) if config else None
    argv = argv + ["--config", cfg] if cfg else argv
    assert main(argv + ["--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == err.format(cfg=cfg)
    assert sorted(p.name for p in tmp_path.iterdir()) == (["run.cfg"] if cfg else [])


def test_unknown_flag_value_exits_2(capsys):
    code = main(["converge", "--gamma", "brisk"])
    assert code == 2
    assert "gamma" in capsys.readouterr().err


def test_run_config_round_trips_to_dict():
    rc = _default_config("converge")
    payload = asdict(rc)
    assert payload["experiment"] == "converge"
    assert payload["levels"] == list(range(3, 10))
    assert isinstance(payload["checkpoints"], list)
    assert set(payload) == {f for f in DEFAULTS} | {"experiment"}


# ---------------------------------------------------------------------------
# SciPy stays off the start-up path: only sample and compare load it.

def _run_python(code, cwd, timeout=120):
    """Run ``code`` in a fresh interpreter that imports this checkout's ulmc."""
    src = str(Path(ulmc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=timeout,
    )


_BLOCK_SCIPY = "import sys; sys.modules['scipy'] = None; from ulmc.cli import main; "


def test_import_does_not_load_scipy(tmp_path):
    code = "import sys, ulmc, ulmc.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    proc = _run_python(code, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_runs_without_distances_need_no_scipy(tmp_path):
    _write(tmp_path / "run.cfg", SMALL_CONVERGE + "steps = 5\npairs = 8\nburn_in = 5\nkept = 10\n")
    runs = [
        f"main(['{experiment}', '--config', 'run.cfg', '--out', '{experiment}'])"
        for experiment in ("converge", "stationary", "contract")
    ]
    proc = _run_python(_BLOCK_SCIPY + f"sys.exit(max([{', '.join(runs)}]))", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == [
        "contract.csv", "converge.csv", "stationary.csv",
    ]


def test_compare_without_scipy_exits_2_before_running(tmp_path):
    proc = _run_python(_BLOCK_SCIPY + "sys.exit(main(['compare', '--out', 'cmp']))", tmp_path)
    assert proc.returncode == 2
    assert "ulmc: scipy:" in proc.stderr and "SciPy" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_compare_loads_only_the_two_compiled_distance_kernels(tmp_path):
    # scipy.optimize and scipy.spatial would bring scipy.linalg, scipy.special and more
    argv = ["compare", "--dimension", "2", "--chains", "4", "--checkpoints", "0,2",
            "--truth-samples", "8", "--out", "cmp"]
    code = (
        f"import json, sys; from ulmc.cli import main; code = main({argv!r}); "
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy')))); sys.exit(code)"
    )
    proc = _run_python(code, tmp_path)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout.splitlines()[-1]))
    assert not loaded & {"scipy.optimize", "scipy.spatial", "scipy.linalg"}
    assert {"scipy.optimize._lsap", "scipy.spatial._distance_pybind"} <= loaded
    assert (tmp_path / "cmp.csv").is_file()


def _loaded_after(argv, modules, cwd):
    """Which of ``modules`` a fresh interpreter has loaded after ``main(argv)``."""
    code = (
        f"import json, sys; from ulmc.cli import main; code = main({argv!r}); "
        f"print(json.dumps([m for m in {modules!r} if m in sys.modules])); sys.exit(code)"
    )
    proc = _run_python(code, cwd)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_converge_on_a_dataset_does_not_load_numpy_ma(tmp_path):
    # np.unique reaches np.ma.is_masked, which imports numpy.ma
    data = synthetic_dataset(rows=20, d_feat=2, seed=3)
    np.savetxt(tmp_path / "d.csv", np.column_stack([data.labels, data.features]), delimiter=",")
    argv = ["converge", "--dataset", "d.csv", "--levels", "2:3", "--fine-level", "5", "--paths", "4", "--out", "cv"]
    assert _loaded_after(argv, ["numpy.ma"], tmp_path) == []


def test_pooled_compare_loads_neither_concurrent_futures_nor_logging(tmp_path):
    # two threads send the distances to a helper
    argv = ["compare", "--chains", "128", "--threads", "2", "--out", "cmp"]
    assert _loaded_after(argv, ["concurrent.futures", "logging"], tmp_path) == []


def test_out_into_missing_directory_exits_2_before_running(tmp_path, monkeypatch, capsys):
    def must_not_run(*args, **kwargs):
        raise AssertionError("the study ran before the out directory was checked")

    monkeypatch.setattr(cli, "stationary_study", must_not_run)
    missing = tmp_path / "no" / "such"
    argv = ["stationary", "--dimension", "2", "--chains", "4", "--burn-in", "1", "--kept", "2"]
    for out in (str(missing / "x"), f"{missing}{os.sep}"):
        assert main(argv + ["--out", out]) == 2
        err = capsys.readouterr().err
        assert f"ulmc: out: directory not found: {missing}" in err
        assert "Traceback" not in err


def test_out_prefix_ending_in_a_separator_exits_2_before_running(tmp_path, monkeypatch, capsys):
    # DIR/ as a prefix would name the hidden reports DIR/.csv and DIR/.json
    def must_not_run(*args, **kwargs):
        raise AssertionError("the study ran before the out prefix was checked")

    monkeypatch.setattr(cli, "stationary_study", must_not_run)
    argv = ["stationary", "--dimension", "2", "--chains", "4", "--burn-in", "1", "--kept", "2"]
    for sep in ("/", os.sep):
        assert main(argv + ["--out", f"{tmp_path}{sep}"]) == 2
        err = capsys.readouterr().err
        assert f"ulmc: out: '{tmp_path}{sep}' ends in a path separator" in err
        assert "directory not found" not in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_unwritable_reports_exit_2_with_diagnostic(tmp_path, capsys):
    (tmp_path / "r.csv").mkdir()  # a directory where the CSV should go
    argv = ["stationary", "--dimension", "2", "--chains", "4", "--burn-in", "1", "--kept", "2"]
    assert main(argv + ["--out", str(tmp_path / "r")]) == 2
    captured = capsys.readouterr()
    assert "ulmc: out: cannot write reports:" in captured.err
    assert "wrote" not in captured.out


def test_seed_of_2_pow_64_or_more_exits_2(tmp_path, capsys):
    argv = ["stationary", "--dimension", "2", "--chains", "4", "--burn-in", "1", "--kept", "2"]
    assert main(argv + ["--seed", str(2**64 + 1), "--out", str(tmp_path / "big")]) == 2
    assert "ulmc: seed: must be below 2**64" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    assert cli._validate(_default_config("stationary", seed=2**64 - 1))[0] == []


# ---------------------------------------------------------------------------
# Each study owns its preconditions; the CLI checks only what its experiment reads.

_TINY = {
    "chains": 4, "kept": 2, "burn_in": 2, "paths": 2, "levels": (1, 2), "fine_level": 3,
    "steps": 2, "pairs": 2, "checkpoints": (0, 2), "truth_samples": 8, "truth_steps": 2,
    "dimension": 2,
}
_DATA = "<dataset>"  # replaced by a small labelled CSV

_BAD_SETTINGS = [
    ("converge", "methods", {"methods": ()}),
    ("converge", "methods", {"methods": ("quicsort", "rk4")}),
    ("converge", "paths", {"paths": 1}),
    ("converge", "horizon", {"horizon": 0.0}),
    ("converge", "levels", {"levels": ()}),
    ("converge", "levels", {"levels": (-1, 2)}),
    ("converge", "fine_level", {"fine_level": 1}),
    ("converge", "levels", {"levels": (1, 3)}),  # ubu needs halves below fine_level 3
    ("sample", "method", {"method": "leapfrog"}),
    ("sample", "chains", {"chains": 0}),
    ("sample", "h", {"h": 0.0}),
    ("sample", "checkpoints", {"checkpoints": ()}),
    ("sample", "checkpoints", {"checkpoints": (2, 2)}),
    ("sample", "checkpoints", {"checkpoints": (-1, 2)}),
    ("compare", "methods", {"methods": ()}),
    ("compare", "methods", {"methods": ("quicsort", "rk4")}),
    ("compare", "chains", {"chains": 0}),
    ("compare", "h", {"h": -1.0}),
    ("stationary", "h", {"h": 0.0}),
    ("stationary", "chains", {"chains": 0}),
    ("stationary", "burn_in", {"burn_in": -1}),
    ("stationary", "kept", {"kept": 0}),
    ("contract", "gamma", {"gamma": 1.0, "h": 0.04}),
    ("contract", "h", {"h": 0.2}),
    ("contract", "h", {"h": 0.0}),
    ("contract", "steps", {"steps": 0}),
    ("contract", "pairs", {"pairs": 0}),
    ("sample", "truth_samples", {"truth_samples": 0}),
    ("compare", "truth_samples", {"truth_samples": 0, "dataset": _DATA}),
    ("sample", "truth_h", {"truth_h": 0.0, "dataset": _DATA}),
    ("sample", "truth_steps", {"truth_steps": 0, "dataset": _DATA}),
    ("converge", "fine_level", {"fine_level": 65}),  # node indices past the 64-bit counter word
    # derived steps that underflow to 0
    ("converge", "horizon", {"horizon": 5e-324}),
    ("converge", "horizon", {"horizon": 7 * 5e-324}),  # below 2**fine_level steps of 5e-324
    ("sample", "h", {"method": "ubu", "h": 5e-324}),
    ("compare", "h", {"h": 5e-324}),  # one-gradient methods run at h/2
    ("compare", "h", {"methods": ("ubu",), "h": 1e-323}),  # and ubu on halves of that
]


@pytest.mark.parametrize(
    "experiment, setting, bad", _BAD_SETTINGS,
    ids=[f"{e}-{k}-{i}" for i, (e, k, _) in enumerate(_BAD_SETTINGS)],
)
def test_cli_first_diagnostic_is_what_the_study_raises(experiment, setting, bad, tmp_path):
    if bad.get("dataset") == _DATA:
        data = synthetic_dataset(rows=20, d_feat=2, seed=3)
        np.savetxt(tmp_path / "d.csv", np.column_stack([data.labels, data.features]), delimiter=",")
        bad = dict(bad, dataset=str(tmp_path / "d.csv"))
    rc = _default_config(experiment, **{**_TINY, **bad})
    diags, pot, solver = cli._validate(rc)
    assert diags and diags[0].startswith(f"{setting}: ")
    run, _ = cli.EXPERIMENTS[experiment]
    with pytest.raises(ValueError) as exc:
        run(rc, pot, solver)
    assert str(exc.value) == diags[0]


@pytest.mark.parametrize(
    "flag, problem",
    [("--dimension", "dimension: must be at least 1"), ("--curvature", "curvature: must be positive")],
)
def test_bad_gaussian_target_exits_2(flag, problem, capsys):
    # the diagnostic is QuadraticPotential's own ValueError (test_potentials.py)
    assert main(["stationary", flag, "0"]) == 2
    assert capsys.readouterr().err == f"ulmc: {problem}\n"


def test_settings_the_experiment_never_reads_are_not_checked(tmp_path):
    argv = ["stationary", "--dimension", "2", "--chains", "4", "--burn-in", "1", "--kept", "2"]
    assert main(argv + ["--paths", "1", "--out", str(tmp_path / "st")]) == 0
    assert (tmp_path / "st.csv").is_file()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", ["h", "horizon", "curvature", "gamma", "u", "truth_h"])
def test_non_finite_numbers_exit_2(key, value, capsys):
    flag = f"--{key.replace('_', '-')}"
    assert main(["stationary", f"{flag}={value}"]) == 2
    err = capsys.readouterr().err
    assert f"ulmc: flag {flag}: bad value for '{key}': expected a finite number" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("setting, value", [("gamma", "-1"), ("u", "0")])
def test_contract_with_bad_gamma_or_u_exits_2(setting, value, capsys):
    assert main(["contract", f"--{setting}", value]) == 2
    err = capsys.readouterr().err
    assert err == f"ulmc: {setting}: must be positive (or 'auto')\n"


@pytest.mark.parametrize(
    "argv",
    [["sample", "--chains", "4", "--truth-samples", "8"], ["contract"]],
    ids=["sample", "contract"],
)
def test_auto_policy_overflow_exits_2(argv, tmp_path, capsys):
    # u = 1/M1 overflows to inf on this finite curvature
    assert main(argv + ["--curvature", "1e-320", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err == "ulmc: u: must be positive and finite, got inf\n"
    assert list(tmp_path.iterdir()) == []


_SMALL = ["--chains", "2", "--truth-samples", "2", "--checkpoints", "0,1"]
_STATIONARY = ["stationary", "--chains", "2", "--burn-in", "1", "--kept", "2"]
_CONVERGE = ["converge", "--paths", "2", "--levels", "1:3", "--fine-level", "4"]


@pytest.mark.parametrize(
    "argv, codes",
    [
        # gamma**2 overflows in phi2, directly or through the auto gamma of a huge u
        (_STATIONARY + ["--gamma", "1e160"], (0, 3)),
        (_CONVERGE + ["--gamma", "1e160"], (0, 3)),
        (["sample", *_SMALL, "--gamma", "1e160"], (0, 3)),
        (["compare", *_SMALL, "--gamma", "1e160"], (0, 3)),
        # sigma = sqrt(2*gamma*u) overflows: a diagnostic, not a divergence at step 1
        (_STATIONARY + ["--u", "1.7e308"], (2,)),
        (_STATIONARY + ["--gamma", "1.7e308"], (2,)),
        # steps that underflow to 0
        (_CONVERGE + ["--horizon", "5e-324"], (2,)),
        (["compare", *_SMALL, "--h", "5e-324"], (2,)),
        (["compare", *_SMALL, "--h", "1e-323"], (2,)),
        (["sample", "--method", "ubu", *_SMALL, "--h", "5e-324"], (2,)),
        # finite positions whose squared distances overflow
        (["sample", *_SMALL, "--u", "1e160"], (0, 3)),
        (["compare", *_SMALL, "--u", "1e160"], (0, 3)),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_extreme_finite_settings_exit_cleanly(argv, codes, tmp_path, capsys):
    assert main(argv + ["--dimension", "2", "--out", str(tmp_path / "x")]) in codes
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if codes == (2,):
        assert re.match(r"ulmc: (gamma|horizon|h): ", err)


def test_stationary_moments_overflowing_on_a_finite_state_exit_3(tmp_path, capsys):
    # gamma*h overflows, so one step kicks |v| to about 9e159: finite, but v**2 overflows
    argv = _STATIONARY + ["--gamma", "1e200", "--h", "1e120", "--dimension", "2", "--out", str(tmp_path / "st")]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert re.fullmatch(
        r"ulmc: overflowing moments of a finite state after step 2 \(t = 2e\+120\) of quicsort "
        r"in chunk 0, first at chain [01]; largest finite \|x\| [0-9.e+]+, \|v\| 9\.[0-9]+e\+159\n",
        err,
    )
    assert list(tmp_path.iterdir()) == []


# The module names a wrapper may replace on ulmc.cli and still see every call,
# because the runs look them up at call time.
_WRAPPABLE = (
    "strong_error_study", "stationary_study", "compare_study", "mixing_study", "contractivity_study",
    "gaussian_ground_truth", "long_run_ground_truth", "write_text_report", "write_json_report",
)
_TINY_RUNS = {
    "converge": (["--levels", "1:2", "--fine-level", "3", "--paths", "2"], {"strong_error_study"}),
    "sample": (["--chains", "4", "--checkpoints", "0,1", "--truth-samples", "8"], {"mixing_study"}),
    "compare": (["--chains", "4", "--checkpoints", "0,1", "--truth-samples", "8"], {"compare_study"}),
    "contract": (["--steps", "2", "--pairs", "2"], {"contractivity_study"}),
    "stationary": (["--chains", "4", "--burn-in", "1", "--kept", "2"], {"stationary_study"}),
}


def _counted(calls, name, fn):
    def counting(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return fn(*args, **kwargs)

    return counting


@pytest.mark.parametrize("dataset", [False, True], ids=["quadratic", "dataset"])
@pytest.mark.parametrize("experiment", sorted(_TINY_RUNS))
def test_main_calls_the_wrappable_names_through_the_module(experiment, dataset, tmp_path, monkeypatch):
    calls = {}
    for name in _WRAPPABLE:
        monkeypatch.setattr(cli, name, _counted(calls, name, getattr(cli, name)))
    args, studies = _TINY_RUNS[experiment]
    argv = [experiment, *args, "--out", str(tmp_path / "run")]
    if dataset:
        data = synthetic_dataset(rows=20, d_feat=2, seed=3)
        np.savetxt(tmp_path / "d.csv", np.column_stack([data.labels, data.features]), delimiter=",")
        argv += ["--dataset", str(tmp_path / "d.csv"), "--truth-steps", "2"]
    else:
        argv += ["--dimension", "2"]
    assert main(argv) == 0
    if experiment in ("sample", "compare"):
        studies = studies | {"long_run_ground_truth" if dataset else "gaussian_ground_truth"}
    assert calls == dict.fromkeys(studies | {"write_text_report", "write_json_report"}, 1)


def test_main_freezes_the_heap_it_starts_with(tmp_path):
    # objects alive when main starts (the imports') leave every later collection
    gc.unfreeze()
    assert gc.get_freeze_count() == 0
    assert main(_STATIONARY + ["--dimension", "2", "--out", str(tmp_path / "st")]) == 0
    assert gc.get_freeze_count() > 0


@pytest.mark.parametrize("experiment", ["sample", "compare"])
def test_overflowing_distances_write_inf_not_nan(experiment, tmp_path):
    # finite positions near 6e195 whose pair distances overflow in cdist
    argv = [experiment, *_SMALL, "--u", "1e160", "--dimension", "2", "--out", str(tmp_path / "o")]
    assert main(argv) == 0
    text = (tmp_path / "o.csv").read_text()
    assert "nan" not in text
    rows = [line.split(",") for line in text.splitlines()[2:]]  # method,grad_evals,energy_dist,w2
    assert all(row[2:] == ["inf", "inf"] for row in rows if row[1] != "0")


def test_tiny_gamma_runs_without_a_false_divergence(tmp_path, capsys):
    argv = ["sample", "--gamma", "1e-300", "--chains", "4", "--truth-samples", "8",
            "--dimension", "2", "--checkpoints", "0,2", "--out", str(tmp_path / "g")]
    assert main(argv) == 0
    assert "non-finite" not in capsys.readouterr().err


def test_label_col_is_checked_only_with_a_dataset(tmp_path, capsys):
    argv = ["stationary", "--dimension", "2", "--chains", "4", "--burn-in", "1", "--kept", "2",
            "--label-col", "-1", "--out", str(tmp_path / "st")]
    assert main(argv) == 0
    data = synthetic_dataset(rows=20, d_feat=2, seed=3)
    np.savetxt(tmp_path / "d.csv", np.column_stack([data.labels, data.features]), delimiter=",")
    assert main(argv + ["--dataset", str(tmp_path / "d.csv")]) == 2
    assert "ulmc: label_col: must be nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("experiment", ["converge", "compare"])
def test_empty_method_list_exits_2(experiment, tmp_path, capsys):
    assert main([experiment, "--methods", ",", "--out", str(tmp_path / "m")]) == 2
    err = capsys.readouterr().err
    assert err == "ulmc: methods: need at least one method\n"
    assert list(tmp_path.iterdir()) == []


@settings(max_examples=50)
@given(
    experiment=st.sampled_from(list(cli.EXPERIMENTS)),
    key=st.sampled_from(sorted(DEFAULTS)),
    value=st.sampled_from(["-1", "0", "1", "nan", "inf", "-inf", "1e-300", "", "1e160", "1.7e308", "5e-324"]),
)
def test_any_one_bad_setting_exits_cleanly(experiment, key, value):
    """A tiny run with one setting replaced ends in 0, 2 or 3, never an exception."""
    entries = {k: ",".join(map(str, v)) if isinstance(v, tuple) else v for k, v in _TINY.items()}
    entries["out"] = "run"
    entries[key] = value
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp)  # every report, whatever the drawn out prefix, lands here
        Path("run.cfg").write_text("".join(f"{k} = {v}\n" for k, v in entries.items()))
        assert main([experiment, "--config", "run.cfg"]) in (0, 2, 3)


@pytest.mark.parametrize("experiment", ["sample", "compare"])
@pytest.mark.parametrize("chains", [40, 200])
def test_mixing_csv_is_the_same_at_one_and_two_threads(experiment, chains, tmp_path):
    # clouds smaller and larger than the reference; measurements go to a helper at two threads
    argv = [experiment, "--dimension", "2", "--h", "0.2", "--checkpoints", "0,2", "--chains", str(chains),
            "--truth-samples", "150", "--seed", "5"]
    csvs = []
    for threads in ("1", "2"):
        assert main([*argv, "--threads", threads, "--out", str(tmp_path / threads)]) == 0
        csvs.append((tmp_path / f"{threads}.csv").read_bytes())
    assert csvs[0] == csvs[1]


_HUGE = 2**70
_NUMBER = st.floats(-1e308, 1e308, allow_nan=False, allow_infinity=False)  # subnormals included
_NAMES = st.sampled_from(["quicsort", "ubu", "euler", "rk4", ""])
_DRAWN = {
    **{key: st.integers(-_HUGE, _HUGE) for key in (
        "seed", "threads", "label_col", "fine_level", "paths", "chains", "burn_in", "kept", "steps", "pairs",
        "dimension", "truth_samples", "truth_steps",
    )},
    **{key: _NUMBER for key in ("h", "horizon", "curvature")},
    **{key: st.just("auto") | _NUMBER for key in ("gamma", "u", "truth_h")},
    **{key: st.lists(st.integers(-_HUGE, _HUGE), max_size=4) for key in ("levels", "checkpoints")},
    "methods": st.lists(_NAMES, max_size=4),
    "method": _NAMES,
    "standardize": st.booleans(),
    "dataset": st.just(""),
    "out": st.just(""),
}
# Settings in ranges where whole configurations often pass, some of them near
# the plan bounds, so that accepted plans are drawn as well as refused ones.
_STEPPERS = st.sampled_from(["quicsort", "ubu", "euler"])
_NEAR = {
    **_DRAWN,
    **{key: st.integers(1, 2**hi) for key, hi in (
        ("threads", 2), ("paths", 23), ("chains", 23), ("kept", 31), ("steps", 21), ("pairs", 22),
        ("dimension", 20), ("truth_samples", 18), ("truth_steps", 20),
    )},
    "seed": st.integers(0, 2**64 - 1),
    "fine_level": st.integers(0, 40),
    "burn_in": st.integers(0, 2**31),
    **{key: st.floats(1e-6, 1.0) for key in ("h", "horizon", "curvature")},
    **{key: st.just("auto") | st.floats(1e-3, 1e3) for key in ("gamma", "u", "truth_h")},
    "levels": st.lists(st.integers(0, 40), min_size=1, max_size=4),
    "checkpoints": st.lists(st.integers(0, 2**31), min_size=1, max_size=4, unique=True).map(sorted),
    "methods": st.lists(_STEPPERS, min_size=1, max_size=3),
    "method": _STEPPERS,
}


@pytest.mark.parametrize("experiment", list(cli.EXPERIMENTS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_any_configuration_gets_diagnostics_not_an_exception(experiment, data):
    """Whole configurations, every setting drawn from wide ranges or from ranges
    where many pass, only validated: what comes back is "<setting>: <problem>"
    lines, nothing large is allocated, and a configuration that passes has every
    plan it checked within every bound."""
    assert set(_DRAWN) == set(_NEAR) == set(cli._SETTINGS)
    drawn = data.draw(st.sampled_from([_DRAWN, _NEAR]), label="ranges")
    rc = RunConfig(experiment=experiment, **{key: data.draw(drawn[key], label=key) for key in cli._SETTINGS})
    plans = {}
    tracemalloc.start()
    try:
        diags = cli._validate(rc, plans)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    for diag in diags:
        setting, sep, problem = diag.partition(": ")
        assert sep and problem and setting in cli._SETTINGS, diag
    if not diags:
        assert "runs" in plans
        for plan in plans.values():
            for field, bound, _ in harness._BOUNDS:
                assert getattr(plan, field) <= getattr(harness, bound), (field, plan)


def _five_subparsers() -> argparse.ArgumentParser:
    """The parser as it was before the experiment became a positional argument:
    one subparser per experiment, each declaring --config and every setting.
    Kept as the reference the one parser must parse like."""
    parser = argparse.ArgumentParser(prog="ulmc")
    sub = parser.add_subparsers(dest="experiment", required=True, metavar="|".join(cli.EXPERIMENTS))
    for name, (run, _) in cli.EXPERIMENTS.items():
        sp = sub.add_parser(name, help=run.__doc__)
        sp.add_argument("--config", help="flat key = value settings file")
        for key, (default, _, help_text) in cli._SETTINGS.items():
            action = argparse.BooleanOptionalAction if key == "standardize" else "store"
            if default:
                help_text = f"{help_text} (default {default})"
            sp.add_argument(f"--{key.replace('_', '-')}", action=action, help=help_text)
    return parser


_COUNT = st.integers(0, 10**6).map(str)
_METHOD = st.sampled_from(["quicsort", "ubu", "euler"])
_POSITIVE = st.floats(0.0, 1e6, allow_nan=False).map(repr)  # a leading '-' other than a number's reads as a flag
_INDICES = st.lists(st.integers(0, 100), min_size=1, max_size=4).map(lambda xs: ",".join(map(str, xs)))
_RAW = {
    **{key: _COUNT for key in (
        "label_col", "fine_level", "paths", "chains", "burn_in", "kept", "steps", "pairs", "dimension",
        "truth_samples", "truth_steps",
    )},
    "seed": st.integers(0, 2**64 - 1).map(str),
    "threads": st.sampled_from(["auto", "Auto"]) | st.integers(1, 256).map(str),
    "out": st.sampled_from(["", "run", "reports/run"]),
    "dataset": st.sampled_from(["", "data.csv"]),
    **{key: st.just("auto") | _POSITIVE for key in ("gamma", "u", "truth_h")},
    **{key: _POSITIVE for key in ("h", "horizon", "curvature")},
    "levels": _INDICES | st.tuples(st.integers(0, 9), st.integers(0, 9)).map(lambda r: f"{min(r)}:{max(r)}"),
    "checkpoints": _INDICES,
    "method": _METHOD,
    "methods": st.lists(_METHOD, min_size=1, max_size=3).map(",".join),
}


@pytest.mark.parametrize("experiment", list(cli.EXPERIMENTS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_one_parser_resolves_every_argv_as_the_five_subparsers_did(experiment, data):
    """Flags for a random subset of the settings, in random order, as '--key value'
    or '--key=value', with or without --config: the one parser and the reference
    give the same namespace and the same resolved settings, and the one parser
    takes the experiment anywhere among the flags."""
    assert set(_RAW) == set(cli._SETTINGS) - {"standardize"}
    keys = data.draw(st.lists(st.sampled_from(sorted(_RAW)), unique=True), label="keys")
    flags = []
    for key in keys:
        flag, raw = f"--{key.replace('_', '-')}", data.draw(_RAW[key], label=key)
        flags.append([f"{flag}={raw}"] if data.draw(st.booleans(), label=f"{key} joined") else [flag, raw])
    flags.append(data.draw(st.sampled_from([[], ["--standardize"], ["--no-standardize"]]), label="standardize"))
    with tempfile.TemporaryDirectory() as tmp:
        cfg = _write(Path(tmp) / "run.cfg", "seed = 3\nchains = 64\nstandardize = yes\n")
        if data.draw(st.booleans(), label="config"):
            flags.append(["--config", cfg])
        order = data.draw(st.permutations(range(len(flags))), label="order")
        flags = [flags[i] for i in order]
        argv = [experiment, *(word for pair in flags for word in pair)]
        expected = _five_subparsers().parse_args(argv)
        args = _parser().parse_args(argv)
        assert args == expected
        assert _resolve(args) == _resolve(expected)
        at = data.draw(st.integers(0, len(flags)), label="experiment at")
        moved = [word for pair in [*flags[:at], [experiment], *flags[at:]] for word in pair]
        assert _parser().parse_args(moved) == expected


@pytest.mark.parametrize("experiment", list(cli.EXPERIMENTS))
def test_help_names_every_experiment_and_every_setting_with_its_default(experiment, capsys):
    parser = _parser()
    assert not any(isinstance(action, argparse._SubParsersAction) for action in parser._actions)
    assert len(parser._actions) == 3 + len(cli._SETTINGS)  # --help, the experiment, --config, each setting once
    with pytest.raises(SystemExit) as exc:
        main([experiment, "--help"])
    assert exc.value.code == 0
    out = " ".join(capsys.readouterr().out.split())  # the help wraps at the terminal width
    for name, (run, _) in cli.EXPERIMENTS.items():
        assert f"{name}: {run.__doc__}" in out
    for key, default in DEFAULTS.items():
        flag = f"--{key.replace('_', '-')}"
        assert flag in out
        assert not default or f"{cli._SETTINGS[key][2]} (default {default})" in out, key
