"""Scalar potentials with gradient oracles and smoothness metadata.

A potential here is any object exposing ``value(x)``, ``gradient(x)`` and a
``meta`` attribute carrying its convexity and smoothness constants.  Both
``x`` arguments accept arbitrary leading batch axes over the trailing
coordinate axis.  Two concrete families are provided: diagonal quadratics
(whose stationary law is an exact Gaussian, convenient for calibration) and
the Bayesian logistic-regression posterior

    f(theta, b) = sum_i log(1 + exp(-y_i (<theta, x_i> + b)))
                  + ||theta||^2 / (4 V) + b^2 / 2,

where V is the pooled variance of the feature entries, corresponding to the
prior theta ~ N(0, I/(2V)), b ~ N(0, 1).
"""

from __future__ import annotations

import threading
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "PotentialMeta",
    "QuadraticPotential",
    "LogisticDataset",
    "LogisticPosterior",
    "GradientCounter",
    "logistic_potential_gradient",
    "load_dataset",
    "sample_prior",
    "synthetic_dataset",
]


@dataclass(frozen=True)
class PotentialMeta:
    """Dimension plus convexity/smoothness constants of a potential.

    ``m`` is the strong-convexity and ``M1`` the gradient Lipschitz constant.
    """

    d: int
    m: float
    M1: float

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError(f"dimension must be at least 1, got {self.d}")
        if self.m < 0 or self.M1 <= 0:
            raise ValueError("need m >= 0 and M1 > 0")
        if self.m > self.M1 + 1e-12:
            raise ValueError(f"m = {self.m} exceeds M1 = {self.M1}")


class QuadraticPotential:
    """f(x) = 1/2 sum_j lam_j (x_j - c_j)^2 with per-coordinate curvatures."""

    def __init__(self, curvatures, center=0.0, *, d: int | None = None):
        # "<setting>: <problem>" in the CLI's setting names; the CLI reports these as they are
        lam = np.asarray(curvatures, dtype=float)
        if lam.ndim == 0:
            if d is None:
                raise ValueError("dimension: a scalar curvature needs an explicit dimension d")
            if d < 1:
                raise ValueError("dimension: must be at least 1")
            lam = np.full(d, float(lam))
        if lam.ndim != 1 or lam.size == 0:
            raise ValueError("curvature: need a nonempty vector of curvatures")
        if not np.all(lam > 0):  # NaN included
            raise ValueError("curvature: must be positive")
        self.curvatures = lam
        self.center = np.broadcast_to(np.asarray(center, dtype=float), lam.shape).copy()
        self.meta = PotentialMeta(d=lam.size, m=float(lam.min()), M1=float(lam.max()))

    def value(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return 0.5 * np.sum(self.curvatures * (x - self.center) ** 2, axis=-1)

    def gradient(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.curvatures * (x - self.center)


@dataclass(frozen=True)
class LogisticDataset:
    """Binary-labelled design matrix for the logistic posterior.

    ``feature_variance`` is the pooled population variance over all
    ``m_rows * d_feat`` feature entries; pass None to have it computed.

    Construction also fixes the arrays the potential evaluates with: the
    halved label-signed design ``half_signed_design = y[:, None] * [X, 1] / 2``
    of shape ``(m_rows, d_feat + 1)``, exact since halving only lowers the
    exponent, and the prior precisions ``prior_precision`` (``1/(2V)`` per
    weight, 1 for the intercept).  Both are read-only, so threads may share
    one dataset.
    """

    features: np.ndarray
    labels: np.ndarray
    feature_variance: float | None = None
    half_signed_design: np.ndarray = field(init=False, repr=False, compare=False)
    prior_precision: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        feats = np.asarray(self.features, dtype=float)
        labs = np.asarray(self.labels, dtype=float)
        if feats.ndim != 2 or feats.shape[0] < 1:
            raise ValueError("features must be a nonempty (m_rows, d_feat) matrix")
        if labs.shape != (feats.shape[0],):
            raise ValueError("labels must be one value per feature row")
        for name, arr in (("features", feats), ("labels", labs)):
            bad_rows = np.nonzero(~np.isfinite(arr).reshape(len(arr), -1).all(axis=1))[0]
            if bad_rows.size:
                raise ValueError(
                    f"{name} must be finite, found NaN or inf in data row(s) "
                    f"{bad_rows[:5].tolist()} (counting from 0)"
                )
        if not np.all(np.isin(labs, (-1.0, 1.0))):
            bad = np.unique(labs[~np.isin(labs, (-1.0, 1.0))])
            raise ValueError(f"labels must lie in {{-1, +1}}, found {bad}")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)
        if self.feature_variance is None:
            object.__setattr__(self, "feature_variance", float(np.var(feats)))
        if not self.feature_variance > 0:
            raise ValueError("feature variance must be positive")
        signed = labs[:, None] * np.hstack([feats, np.ones((feats.shape[0], 1))])
        prec = np.full(feats.shape[1] + 1, 1.0 / (2.0 * self.feature_variance))
        prec[-1] = 1.0
        half = 0.5 * signed
        for arr in (half, prec):
            arr.setflags(write=False)
        object.__setattr__(self, "half_signed_design", half)
        object.__setattr__(self, "prior_precision", prec)

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def d_feat(self) -> int:
        return self.features.shape[1]


def _check_params(dataset: LogisticDataset, params) -> np.ndarray:
    params = np.asarray(params, dtype=float)
    if params.shape[-1] != dataset.d_feat + 1:
        raise ValueError(
            f"parameter vector must have length {dataset.d_feat + 1} "
            f"(weights plus intercept), got {params.shape[-1]}"
        )
    return params


def logistic_potential_value(dataset: LogisticDataset, params) -> np.ndarray:
    """Negative log-posterior of the logistic model, up to a constant."""
    params = _check_params(dataset, params)
    z = 2.0 * (params @ dataset.half_signed_design.T)  # y_i * (<theta, x_i> + b), exactly
    nll = np.sum(np.logaddexp(0.0, -z), axis=-1)
    prior = 0.5 * np.sum(dataset.prior_precision * params**2, axis=-1)
    return nll + prior


def logistic_potential_gradient(dataset: LogisticDataset, params) -> np.ndarray:
    """Gradient of :func:`logistic_potential_value` in (theta, b).

    With signed = 2 * half_signed_design and z = params @ signed.T the
    gradient is ``params * prior_precision - sigma(-z) @ signed``.  The sigmoid
    factor is evaluated as sigma(-z) = (1 - tanh(z/2)) / 2, which stays
    finite for logits of either sign and any magnitude; both halvings ride
    on the halved design, which is exact, so no pass over the logits scales
    them.  Every temporary belongs to this call.
    """
    params = _check_params(dataset, params)
    half = dataset.half_signed_design
    z = params @ half.T  # z/2; the .T view keeps BLAS's summation order
    np.tanh(z, out=z)
    np.subtract(1.0, z, out=z)  # now 2 sigma(-z)
    return params * dataset.prior_precision - z @ half


class LogisticPosterior:
    """Potential view of a logistic dataset, with smoothness metadata.

    The strong-convexity constant comes from the prior alone; the gradient
    Lipschitz constant adds the worst-case likelihood curvature, bounded by
    one quarter of the top eigenvalue of the Gram matrix of the rows with an
    appended intercept column.
    """

    def __init__(self, dataset: LogisticDataset):
        self.dataset = dataset
        v = dataset.feature_variance
        # labels are +-1, so 4 * half.T @ half is exactly the Gram matrix of [X, 1]
        half = dataset.half_signed_design
        gram_top = float(np.linalg.eigvalsh(4.0 * (half.T @ half))[-1])
        prior_max = max(1.0 / (2.0 * v), 1.0)
        self.meta = PotentialMeta(
            d=dataset.d_feat + 1,
            m=min(1.0 / (2.0 * v), 1.0),
            M1=0.25 * gram_top + prior_max,
        )

    def value(self, params) -> np.ndarray:
        return logistic_potential_value(self.dataset, params)

    def gradient(self, params) -> np.ndarray:
        return logistic_potential_gradient(self.dataset, params)


class GradientCounter:
    """Wrap a potential and count gradient evaluations per chain.

    Each ``gradient`` call counts once no matter how many chains it is
    vectorized over, matching the per-chain cost model of the samplers.
    The count is exact when chunk threads share the counter.  A wrapped
    potential's ``dataset`` is exposed too, so the harness draws the same
    prior initial states and sizes chunk threads the same as unwrapped.
    """

    def __init__(self, potential):
        self.potential = potential
        self.meta = potential.meta
        dataset = getattr(potential, "dataset", None)
        if dataset is not None:
            self.dataset = dataset
        self.calls = 0
        self._lock = threading.Lock()

    def value(self, x):
        return self.potential.value(x)

    def gradient(self, x):
        with self._lock:
            self.calls += 1
        return self.potential.gradient(x)


def load_dataset(path, *, label_col: int = 0, standardize: bool = False) -> LogisticDataset:
    """Read a delimited numeric file into a :class:`LogisticDataset`.

    The delimiter, comma or whitespace, is sniffed from the first data
    line.  The column ``label_col`` holds labels in {0, 1} (mapped to
    {-1, +1}) or already in {-1, +1}.  ``standardize`` rescales each feature
    column to zero mean and unit population variance before the pooled
    feature variance is computed; a constant column is an error then.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"dataset file not found: {path}")
    with open(path) as fh:
        delimiter = "," if "," in fh.readline() else None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # empty input warns before we raise
            raw = np.loadtxt(path, delimiter=delimiter, ndmin=2)
    except Exception as exc:
        raise ValueError(f"could not parse dataset file {path}: {exc}") from exc
    if raw.size == 0:
        raise ValueError(f"dataset file {path} is empty")
    if raw.shape[1] < 2:
        raise ValueError("need at least one feature column besides the labels")
    if not (-raw.shape[1] <= label_col < raw.shape[1]):
        raise ValueError(f"label column {label_col} out of range for {raw.shape[1]} columns")

    labels = raw[:, label_col]
    features = np.delete(raw, label_col % raw.shape[1], axis=1)
    values = set(labels.tolist())  # np.unique would import numpy.ma
    if values <= {0.0, 1.0}:
        labels = 2.0 * labels - 1.0
    elif not values <= {-1.0, 1.0}:
        raise ValueError(
            f"labels must lie in {{0,1}} or {{-1,+1}}, found {sorted(values)}"
        )

    if standardize:
        mean = features.mean(axis=0)
        std = features.std(axis=0)
        dead = np.nonzero(std == 0)[0]
        if dead.size:
            raise ValueError(f"cannot standardize constant feature column(s) {dead.tolist()}")
        features = (features - mean) / std
    return LogisticDataset(features, labels)


def sample_prior(
    dataset: LogisticDataset, rng: np.random.Generator, *, shape: tuple[int, ...] = ()
) -> np.ndarray:
    """Draw (theta, b) from the prior theta ~ N(0, I/(2V)), b ~ N(0, 1)."""
    z = rng.standard_normal((*shape, dataset.d_feat + 1))
    out = z.copy()
    out[..., :-1] *= 1.0 / np.sqrt(2.0 * dataset.feature_variance)
    return out


def synthetic_dataset(rows: int = 200, d_feat: int = 4, *, seed: int = 2024) -> LogisticDataset:
    """Deterministic synthetic binary-classification data.

    Rows are standard-normal feature vectors kept only when the score along
    a fixed teacher direction is at least 1 in magnitude (one score standard
    deviation), labelled by the score's sign.
    """
    if rows < 1 or d_feat < 1:
        raise ValueError("need at least one row and one feature")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    teacher = rng.standard_normal(d_feat)
    teacher /= np.linalg.norm(teacher)
    feats = np.empty((0, d_feat))
    while feats.shape[0] < rows:
        cand = rng.standard_normal((4 * rows, d_feat))
        score = cand @ teacher
        keep = np.abs(score) >= 1.0
        feats = np.vstack([feats, cand[keep]])
    feats = feats[:rows]
    return LogisticDataset(feats, np.sign(feats @ teacher))
