"""Pins of the noise-stream layout: one small run per experiment, its CSV hashed.

Each case runs ``ulmc.cli.main`` on a small config and compares the SHA-256 of
the CSV it writes with a pinned digest, so any change to what the noise, the
initial laws, the chunking, the keyed W2 subsamples or the folds produce shows
here.  A deliberate layout change updates these digests together with the
``ulmc-csv`` tag (now ``v2``); an unintended one fails.

Covered: converge and contract on a logistic posterior read from a CSV (the
logistic gradient goes through BLAS at every batch shape the studies use),
contract on a quadratic target, compare with more chains than truth samples
and with fewer (the W2 subsamples keyed both ways), sample with the metric cap
patched small (subsampled clouds on a long-run reference), stationary, and
converge and compare at ``--threads 2`` with every pool threshold patched to
0, which must reproduce the one-thread digests.

Pinned with Python 3.11, NumPy 2.4.6, SciPy 1.17.1 and OpenBLAS 0.3.31
(scipy-openblas, DYNAMIC_ARCH, Haswell kernels).  Another BLAS or CPU may
round the logistic gradient's matrix products differently, and then only the
four pins that read the dataset can move: ``converge-dataset``,
``converge-dataset-pooled``, ``contract-dataset`` and ``sample-dataset-capped``.
"""

import hashlib

import numpy as np
import pytest

from ulmc import harness
from ulmc.cli import main
from ulmc.potentials import synthetic_dataset

_POOLED = {"_POOL_MIN_STATE": 0, "_POOL_MIN_LOGITS": 0}

_CONVERGE = ["--levels", "2:4", "--fine-level", "6", "--paths", "70", "--horizon", "1.0"]
_COMPARE = ["--dimension", "2", "--curvature", "2.0", "--h", "0.2", "--checkpoints", "0,2,5"]

# name: (experiment, arguments, whether it reads the dataset, harness patches, CSV SHA-256)
_PINS = {
    "converge-dataset": (
        "converge", _CONVERGE, True, {},
        "8bc24e6b5dde4533db8ca30ee86e3dd5b8088d1368fdef6a90d10fa3e0fe4547",
    ),
    "converge-dataset-pooled": (
        "converge", [*_CONVERGE, "--threads", "2"], True, _POOLED,
        "8bc24e6b5dde4533db8ca30ee86e3dd5b8088d1368fdef6a90d10fa3e0fe4547",
    ),
    "contract-dataset": (
        "contract", ["--h", "0.05", "--steps", "20", "--pairs", "70"], True, {},
        "8dc28cd17fb0585f6e0e06ab601425b9673954afc0d1bada02dd0983c8944aa5",
    ),
    "contract-quadratic": (
        "contract", ["--dimension", "3", "--h", "0.05", "--steps", "20", "--pairs", "70"], False, {},
        "b8067ee8a27fe4b9259c787444f1ade81c451583cbed9bfbe3012c4c83964736",
    ),
    "compare-chains-above-truth": (
        "compare", [*_COMPARE, "--chains", "70", "--truth-samples", "50"], False, {},
        "ee5e4ae1304404210eca62edcbfa7407ba13b331c1ebd3ff98f52c97b8c9f82c",
    ),
    "compare-chains-below-truth": (
        "compare", [*_COMPARE, "--chains", "40", "--truth-samples", "90"], False, {},
        "6d64d3feff35b6c5de9907acb71077c8bb5bccb1b650cc0f613b8e3a16f9d589",
    ),
    "compare-chains-above-truth-pooled": (
        "compare", [*_COMPARE, "--chains", "70", "--truth-samples", "50", "--threads", "2"], False, _POOLED,
        "ee5e4ae1304404210eca62edcbfa7407ba13b331c1ebd3ff98f52c97b8c9f82c",
    ),
    "sample-dataset-capped": (
        "sample",
        ["--method", "ubu", "--h", "0.2", "--chains", "70", "--checkpoints", "0,3",
         "--truth-samples", "50", "--truth-steps", "20"],
        True, {"_METRIC_CAP": 16},
        "4dd0afca7c642cdeae81895aab20c29d9382fcd8a6a6fe7815c5c375f8e00c3a",
    ),
    "stationary": (
        "stationary",
        ["--dimension", "3", "--h", "0.1", "--chains", "70", "--burn-in", "5", "--kept", "20"],
        False, {},
        "53a0314ffd4c10d00ccc063761cc23856828371995e06404ef3ef1e140af1721",
    ),
}


@pytest.mark.parametrize("name", sorted(_PINS))
def test_csv_layout_is_pinned(name, tmp_path, monkeypatch):
    experiment, args, dataset, patches, digest = _PINS[name]
    for attr, value in patches.items():
        monkeypatch.setattr(harness, attr, value)
    argv = [experiment, *args, "--seed", "11", "--out", str(tmp_path / "run")]
    if dataset:
        data = synthetic_dataset(rows=40, d_feat=3, seed=3)
        np.savetxt(tmp_path / "data.csv", np.column_stack([data.labels, data.features]), fmt="%.17g", delimiter=",")
        argv += ["--dataset", str(tmp_path / "data.csv")]
    assert main(argv) == 0
    csv = (tmp_path / "run.csv").read_bytes()
    assert csv.startswith(f"# ulmc-csv v2 {experiment}\n".encode())
    assert hashlib.sha256(csv).hexdigest() == digest
