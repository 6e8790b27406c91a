"""Turn directories of raw signal segments into per-segment feature vectors.

Each segment is fitted on its native sample-index grid (mapped internally to
[-1, 1]); the fitted coefficients become the features. Model M1 uses the
plain ratio fit and yields (n+1)+(m+1)-1 features (the denominator's leading
coefficient is pinned to one and carries no information). Model M2 adds the
swept sine frequency for one extra feature; the fitted phase is kept in the
result metadata but not exported. A stratified, seeded split and a
nearest-centroid smoke check round out the pipeline; real classification is
left to external tools fed by the CSV files written here.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .basis import BasisSpec, Monomial
from .grid import uniform_nodes
from .minimax import ApproximationProblem, BisectionConfig, solve_minimax
from .sine_model import SineSearchSpace, fit_sine_model

__all__ = [
    "FeatureExtractionError",
    "FeatureVector",
    "SegmentFormatError",
    "SegmentSet",
    "SplitSpec",
    "extract_features",
    "load_segments",
    "read_feature_csv",
    "read_samples",
    "separability_smoke_check",
    "split",
    "write_feature_csv",
]

MODELS = ("M1", "M2")


class SegmentFormatError(ValueError):
    """A segment file could not be parsed; names the file and line."""


class FeatureExtractionError(RuntimeError):
    """A per-segment fit failed; names the class label and segment index."""


@dataclass
class SegmentSet:
    """All segments of one class, in deterministic (filename) order."""

    label: str
    segments: list[np.ndarray]

    def __post_init__(self):
        if not self.segments:
            raise ValueError(f"class {self.label!r} has no segments")
        for i, seg in enumerate(self.segments):
            arr = np.asarray(seg, dtype=float)
            if arr.ndim != 1 or arr.size == 0:
                raise ValueError(f"segment {i} of class {self.label!r} is empty")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"segment {i} of class {self.label!r} has non-finite samples")
            self.segments[i] = arr

    @property
    def lengths(self) -> list[int]:
        return [seg.size for seg in self.segments]


@dataclass
class FeatureVector:
    label: str
    segment_id: int
    model: str | None
    features: list[float]


@dataclass
class SplitSpec:
    """Per-class stratified split: floor(fraction * count) train, rest test."""

    train_fraction: float = 0.75
    seed: int = 0
    shuffle: bool = True

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must lie strictly between 0 and 1")


def read_samples(path) -> np.ndarray:
    """Read one sample file: one number per line, trailing blank lines tolerated.

    Anything else unparseable, or a file with no samples, is an error naming
    the file and line number.
    """
    lines = Path(path).read_text().splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    samples = np.empty(len(lines))
    for lineno, line in enumerate(lines, start=1):
        try:
            samples[lineno - 1] = float(line)
        except ValueError:
            raise SegmentFormatError(
                f"{path}: line {lineno}: cannot parse {line.strip()!r} as a number"
            ) from None
    if samples.size == 0:
        raise SegmentFormatError(f"{path}: no samples")
    return samples


def load_segments(path, label: str) -> SegmentSet:
    """Read one sample file per segment (see ``read_samples``).

    Files are taken in lexicographic name order for reproducibility; names
    starting with a dot are skipped.
    """
    directory = Path(path)
    files = sorted(p for p in directory.iterdir() if p.is_file() and not p.name.startswith("."))
    if not files:
        raise SegmentFormatError(f"no segment files in {directory}")
    return SegmentSet(label=label, segments=[read_samples(file) for file in files])


def _normalized_coefficients(approximant) -> tuple[np.ndarray, np.ndarray]:
    # a ratio is invariant under negating both coefficient vectors, so
    # features are always reported against a +1 leading denominator
    if approximant.B[0] < 0:
        return -approximant.A, -approximant.B
    return approximant.A, approximant.B


def extract_features(
    segment_set: SegmentSet,
    model: str,
    n: int,
    m: int,
    config: BisectionConfig | None = None,
    space: SineSearchSpace | None = None,
) -> list[FeatureVector]:
    """One feature vector per segment; any fit failure aborts with its id."""
    model = model.upper()
    if model not in MODELS:
        raise ValueError(f"model must be one of {MODELS}, got {model!r}")
    config = config if config is not None else BisectionConfig(epsilon=1e-6)
    space = space if space is not None else SineSearchSpace()
    basis = BasisSpec(Monomial(), Monomial(), n, m)
    grids = {size: uniform_nodes(0.0, float(size - 1), size)
             for size in {seg.size for seg in segment_set.segments} if size > 1}

    def fit_segment(index: int) -> FeatureVector:
        samples = segment_set.segments[index]
        size = samples.size
        try:
            if size not in grids:
                raise ValueError(f"segment has only {size} sample(s)")
            problem = ApproximationProblem(grids[size], samples, basis)
            if model == "M1":
                approximant = solve_minimax(problem, config)
                extra = []
            else:
                result = fit_sine_model(problem, space, config)
                approximant = result.best
                extra = [float(result.omega)]
        except Exception as exc:
            raise FeatureExtractionError(
                f"fit failed for segment {index} of class {segment_set.label!r}: {exc}"
            ) from exc
        numer, denom = _normalized_coefficients(approximant)
        features = [float(v) for v in numer] + [float(v) for v in denom[1:]] + extra
        return FeatureVector(
            label=segment_set.label, segment_id=index, model=model, features=features
        )

    return [fit_segment(i) for i in range(len(segment_set.segments))]


def split(
    vectors: list[FeatureVector], spec: SplitSpec | None = None
) -> tuple[list[FeatureVector], list[FeatureVector]]:
    """Stratified train/test split, deterministic for a given seed."""
    if not vectors:
        raise ValueError("nothing to split")
    spec = spec if spec is not None else SplitSpec()
    by_label: dict[str, list[FeatureVector]] = {}
    for vec in vectors:
        by_label.setdefault(vec.label, []).append(vec)
    rng = np.random.default_rng(spec.seed)
    train: list[FeatureVector] = []
    test: list[FeatureVector] = []
    for label in sorted(by_label):
        group = by_label[label]
        order = rng.permutation(len(group)) if spec.shuffle else np.arange(len(group))
        cut = int(np.floor(spec.train_fraction * len(group) + 1e-9))
        train.extend(group[i] for i in order[:cut])
        test.extend(group[i] for i in order[cut:])
    return train, test


def separability_smoke_check(train: list[FeatureVector], test: list[FeatureVector]) -> float:
    """Nearest-centroid test accuracy in train-standardized feature space.

    A sanity check that the features carry class signal at all, not a
    classifier benchmark. Standardization statistics come from the training
    vectors only.
    """
    labels = sorted({vec.label for vec in train})
    if len(labels) < 2:
        raise ValueError("need at least two classes in the training set")
    if not test:
        raise ValueError("empty test set")
    x_train = np.array([vec.features for vec in train], dtype=float)
    y_train = np.array([vec.label for vec in train])
    mean = x_train.mean(axis=0)
    std = x_train.std(axis=0)
    keep = std > 0.0
    if not np.all(keep):
        dropped = int(np.count_nonzero(~keep))
        warnings.warn(
            f"dropping {dropped} feature(s) constant on the training set", stacklevel=2
        )
    x_train = (x_train[:, keep] - mean[keep]) / std[keep]
    centroids = np.array([x_train[y_train == label].mean(axis=0) for label in labels])
    x_test = np.array([vec.features for vec in test], dtype=float)
    x_test = (x_test[:, keep] - mean[keep]) / std[keep]
    distances = np.linalg.norm(x_test[:, None, :] - centroids[None, :, :], axis=2)
    predicted = [labels[k] for k in distances.argmin(axis=1)]
    actual = [vec.label for vec in test]
    return float(np.mean([p == a for p, a in zip(predicted, actual)]))


def write_feature_csv(path, vectors: list[FeatureVector]) -> None:
    """Header label,segment_id,f1..fk; one row per segment, full precision."""
    if not vectors:
        raise ValueError("no feature vectors to write")
    width = len(vectors[0].features)
    if any(len(vec.features) != width for vec in vectors):
        raise ValueError("feature vectors have inconsistent lengths")
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["label", "segment_id"] + [f"f{i + 1}" for i in range(width)])
        for vec in vectors:
            writer.writerow([vec.label, vec.segment_id] + [repr(float(v)) for v in vec.features])


def read_feature_csv(path) -> list[FeatureVector]:
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if not header or header[:2] != ["label", "segment_id"]:
            raise ValueError(f"{path}: not a feature CSV (bad header)")
        vectors = []
        for row in reader:
            vectors.append(
                FeatureVector(
                    label=row[0],
                    segment_id=int(row[1]),
                    model=None,
                    features=[float(v) for v in row[2:]],
                )
            )
    if not vectors:
        raise ValueError(f"{path}: no feature rows")
    return vectors
