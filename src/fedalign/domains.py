"""Multi-domain datasets: synthetic generation, CSV ingestion, LODO splits.

A *domain* is one data-holding site; the simulator treats each domain as one
federated client.  Synthetic domains realize domain shift as a feature-space
rotation: every domain draws from the same two-class base family, rotates
the features by a per-domain angle about the origin, and adds isotropic
Gaussian noise.  The transform is label-preserving, so training on some
rotations and testing on a held-out one probes pure covariate-shift
generalization.

Per-domain randomness is keyed as ``(seed, domain_index)``, so adding a
domain to a spec does not perturb the data of existing domains.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyDataset,
    InconsistentDimension,
    InsufficientDomains,
    InvalidSpec,
    ParseError,
    UnknownDomain,
    is_finite_real,
    is_int,
    utf8_error,
)
from .numcore import RealMat, Rng, shuffle

__all__ = [
    "DomainDataset",
    "DomainSuite",
    "SyntheticSpec",
    "CsvSchema",
    "generate",
    "leave_one_out",
    "load_csv",
    "save_csv",
    "batch_rows",
    "minibatch",
    "rotation_matrix",
    "default_benchmark_spec",
]

FAMILIES = ("rotated_gaussians", "rotated_two_moons")

# Base geometry of the two-class families (artifact constants).  The
# Gaussian pair puts its class means at radius 2 on the x-axis; the moons
# are the standard interleaved half-circles, centered on the origin and
# scaled to a comparable radius.
_GAUSS_MEANS = np.array([[2.0, 0.0], [-2.0, 0.0]])
_GAUSS_BASE_SIGMA = 0.6
_MOON_SCALE = 2.0

# The most int64 row indices, and two-feature float64 rows, whose byte size
# numpy can express.
_MAX_INDEX_ROWS = np.iinfo(np.intp).max // np.dtype(np.int64).itemsize
_MAX_SAMPLE_ROWS = np.iinfo(np.intp).max // (2 * np.dtype(np.float64).itemsize)


@dataclass(frozen=True)
class DomainDataset:
    """Labeled matrix of finite features, tagged with the domain it came
    from."""

    domain_id: str
    features: RealMat
    labels: np.ndarray  # int64, shape (rows,)

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        # A float label would otherwise be truncated to a class, so every
        # label must survive the cast (a NaN or huge one casts to garbage).
        with np.errstate(invalid="ignore"):
            labs = np.asarray(self.labels).astype(np.int64)
        if not np.array_equal(labs, self.labels):
            raise InvalidSpec("labels must be integers")
        if feats.ndim != 2:
            raise InvalidSpec("features must be a 2-D matrix")
        if labs.shape != (feats.shape[0],):
            raise InvalidSpec("labels length must equal the number of feature rows")
        if labs.size and labs.min() < 0:
            raise InvalidSpec("labels must be nonnegative")
        if not np.isfinite(feats).all():
            raise InvalidSpec("features must be finite")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)

    @property
    def num_rows(self) -> int:
        return self.features.shape[0]

    @property
    def num_features(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class DomainSuite:
    """An ordered collection of domains sharing feature space and classes.

    ``label_names`` records how raw label values map to the dense integer
    classes (index = class id); synthetic suites use the stringified class
    index.
    """

    domains: tuple[DomainDataset, ...]
    num_classes: int
    label_names: tuple[str, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "domains", tuple(self.domains))
        if len(self.domains) < 2:
            raise InsufficientDomains(f"a suite needs >= 2 domains, got {len(self.domains)}")
        ids = [d.domain_id for d in self.domains]
        if len(set(ids)) != len(ids):
            raise InvalidSpec(f"duplicate domain ids: {ids}")
        dims = {d.num_features for d in self.domains}
        if len(dims) != 1:
            raise InconsistentDimension(f"domains disagree on feature dimension: {sorted(dims)}")
        for d in self.domains:
            if d.num_rows and d.labels.max() >= self.num_classes:
                raise InvalidSpec(f"domain {d.domain_id!r} has labels outside [0, {self.num_classes})")

    @property
    def domain_ids(self) -> tuple[str, ...]:
        return tuple(d.domain_id for d in self.domains)

    @property
    def num_features(self) -> int:
        return self.domains[0].num_features

    def by_id(self, domain_id: str) -> DomainDataset:
        for d in self.domains:
            if d.domain_id == domain_id:
                return d
        raise UnknownDomain(f"no domain {domain_id!r}; have {list(self.domain_ids)}")


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a rotated two-class multi-domain suite."""

    family: str = "rotated_two_moons"
    num_domains: int = 4
    samples_per_domain: int = 500
    rotation_degrees: tuple[float, ...] = (0.0, 15.0, 30.0, 45.0)
    noise_sigma: float = 0.3
    seed: int = 0

    def __post_init__(self):
        if not all(is_finite_real(r) for r in self.rotation_degrees):
            raise InvalidSpec("rotation_degrees must be finite real numbers")
        object.__setattr__(self, "rotation_degrees", tuple(float(r) for r in self.rotation_degrees))
        if self.family not in FAMILIES:
            raise InvalidSpec(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if not is_int(self.num_domains) or self.num_domains < 2:
            raise InvalidSpec("num_domains must be an integer >= 2")
        if not is_int(self.samples_per_domain) or self.samples_per_domain < 1:
            raise InvalidSpec("samples_per_domain must be a positive integer")
        if not is_int(self.seed) or self.seed < 0:
            raise InvalidSpec("seed must be a nonnegative integer")
        if len(self.rotation_degrees) != self.num_domains:
            raise InvalidSpec(
                f"rotation_degrees has {len(self.rotation_degrees)} entries "
                f"for {self.num_domains} domains"
            )
        if not is_finite_real(self.noise_sigma) or self.noise_sigma < 0:
            raise InvalidSpec("noise_sigma must be a finite nonnegative real")


def default_benchmark_spec(seed: int = 0) -> SyntheticSpec:
    """The 4-domain rotated two-moons benchmark: {0, 15, 30, 45} degrees,
    500 samples per domain, noise sigma 0.3.

    The interleaved moons keep the per-domain decision boundaries genuinely
    incompatible, so federated gradients actually conflict; well-separated
    Gaussian blobs make every client agree and the alignment step never
    fires.
    """
    return SyntheticSpec(seed=seed)


# Exact (cos, sin) for quarter turns, so e.g. a 180-degree rotation maps x
# to -x with no trigonometric rounding.
_QUARTER_TURNS = {0: (1.0, 0.0), 90: (0.0, 1.0), 180: (-1.0, 0.0), 270: (0.0, -1.0)}


def rotation_matrix(degrees: float) -> np.ndarray:
    """2x2 counterclockwise rotation by ``degrees`` about the origin."""
    if not is_finite_real(degrees):
        raise InvalidSpec(f"rotation angle must be a finite real, got {degrees!r}")
    d = degrees % 360.0
    if d in _QUARTER_TURNS:
        c, s = _QUARTER_TURNS[d]
    else:
        rad = math.radians(degrees)
        c, s = math.cos(rad), math.sin(rad)
    return np.array([[c, -s], [s, c]])


def _base_sample(family: str, n: int, rng: Rng) -> tuple[np.ndarray, np.ndarray]:
    """Draw the unrotated two-class base sample: class-0 rows first."""
    n1 = n // 2
    n0 = n - n1
    labels = np.concatenate([np.zeros(n0, dtype=np.int64), np.ones(n1, dtype=np.int64)])
    if family == "rotated_gaussians":
        x0 = _GAUSS_MEANS[0] + _GAUSS_BASE_SIGMA * rng.normal(size=(n0, 2))
        x1 = _GAUSS_MEANS[1] + _GAUSS_BASE_SIGMA * rng.normal(size=(n1, 2))
        return np.vstack([x0, x1]), labels
    # Two moons: half circles on angle t in [0, pi), interleaved, then
    # shifted so the configuration is centered on the origin.
    t0 = rng.uniform(0.0, math.pi, size=n0)
    t1 = rng.uniform(0.0, math.pi, size=n1)
    x0 = np.column_stack([np.cos(t0), np.sin(t0)])
    x1 = np.column_stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)])
    pts = np.vstack([x0, x1]) - np.array([0.5, 0.25])
    return _MOON_SCALE * pts, labels


def generate(spec: SyntheticSpec) -> DomainSuite:
    """Materialize a :class:`DomainSuite` from a spec; pure in ``spec``."""
    if spec.samples_per_domain > _MAX_SAMPLE_ROWS:
        # numpy refuses such a size with a ValueError; it is a request for
        # more memory than any address space holds.
        raise MemoryError(f"cannot hold {spec.samples_per_domain} samples per domain")
    domains = []
    for d in range(spec.num_domains):
        rng = Rng(spec.seed, d)
        feats, labels = _base_sample(spec.family, spec.samples_per_domain, rng)
        rot = rotation_matrix(spec.rotation_degrees[d])
        feats = feats @ rot.T
        if spec.noise_sigma > 0:
            with np.errstate(over="ignore"):
                feats = feats + spec.noise_sigma * rng.normal(size=feats.shape)
            if not np.isfinite(feats).all():
                raise InvalidSpec(f"noise_sigma {spec.noise_sigma!r} makes the noise overflow float64")
        domains.append(DomainDataset(domain_id=f"dom{d}", features=feats, labels=labels))
    return DomainSuite(domains=tuple(domains), num_classes=2, label_names=("0", "1"))


def leave_one_out(suite: DomainSuite, target: str) -> tuple[list[DomainDataset], DomainDataset]:
    """Split a suite into (source domains in original order, held-out target)."""
    target_ds = suite.by_id(target)
    sources = [d for d in suite.domains if d.domain_id != target]
    return sources, target_ds


def batch_rows(num_rows: int, batch_size: int, rng: Rng) -> np.ndarray | slice:
    """The rows of one minibatch of a dataset of ``num_rows`` rows, as a
    read-only index array: without replacement when the dataset is large
    enough (the first ``batch_size`` entries of a Fisher-Yates permutation
    of the rows), with replacement otherwise.  A full batch is the slice of
    every row in natural order, so a full-batch round reduces exactly to one
    centralized GD step; it draws nothing and holds no index per row.  The
    rows depend only on the sizes and the stream."""
    if num_rows == 0:
        raise EmptyDataset("cannot draw a batch from no rows")
    if batch_size < 1:
        raise InvalidSpec("batch_size must be >= 1")
    if batch_size == num_rows:
        return slice(None)
    if batch_size < num_rows:
        idx = shuffle(rng, num_rows, batch_size)
    else:
        if batch_size > _MAX_INDEX_ROWS:
            # numpy refuses such a size with a ValueError; it is a request
            # for more memory than any address space holds.
            raise MemoryError(f"cannot draw {batch_size} row indices")
        idx = rng.integers(0, num_rows, size=batch_size)
    idx.flags.writeable = False
    return idx


def minibatch(dataset: DomainDataset, batch_size: int, rng: Rng) -> tuple[RealMat, np.ndarray]:
    """Sample a batch: the rows (and their labels) that :func:`batch_rows`
    picks, exact and never interpolated; a full batch is views of the whole
    dataset, any other batch copies."""
    if dataset.num_rows == 0:
        raise EmptyDataset(f"domain {dataset.domain_id!r} has no rows")
    idx = batch_rows(dataset.num_rows, batch_size, rng)
    return dataset.features[idx], dataset.labels[idx]


@dataclass(frozen=True)
class CsvSchema:
    """Column names binding a CSV file to a suite layout."""

    feature_cols: tuple[str, ...]
    label_col: str
    domain_col: str

    def __post_init__(self):
        if isinstance(self.feature_cols, str):
            raise InvalidSpec("feature_cols must be a sequence of column names, not one string")
        try:
            object.__setattr__(self, "feature_cols", tuple(self.feature_cols))
        except TypeError:
            raise InvalidSpec("feature_cols must be a sequence of column names") from None
        if not self.feature_cols:
            raise InvalidSpec("schema needs at least one feature column")
        if not all(isinstance(c, str) for c in (*self.feature_cols, self.label_col, self.domain_col)):
            raise InvalidSpec("column names must be strings")


def load_csv(path: str, schema: CsvSchema) -> DomainSuite:
    """Load a UTF-8, comma-separated, headered file into a suite.

    Rows are grouped by the domain column (domains ordered by first
    appearance); raw label values map to dense class ids by first
    appearance, recorded in ``suite.label_names``.  A feature cell that is
    not a finite number, or a byte that is not UTF-8, raises
    :class:`ParseError` naming its line and column; a row shorter or longer
    than the header raises :class:`InconsistentDimension` naming its line.
    """
    by_domain: dict[str, list[list[float]]] = {}
    by_domain_labels: dict[str, list[int]] = {}
    label_ids: dict[str, int] = {}

    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            header = reader.fieldnames or []
            for col in (*schema.feature_cols, schema.label_col, schema.domain_col):
                if col not in header:
                    raise ParseError(1, col, "column missing from header")
            for row in reader:
                lineno = reader.line_num  # physical: a quoted cell may hold a newline
                # DictReader files the cells past the header under the key None.
                if None in row:
                    raise InconsistentDimension(f"line {lineno}: row is longer than the header")
                feats = []
                for col in schema.feature_cols:
                    cell = row.get(col)
                    if cell is None:
                        raise InconsistentDimension(f"line {lineno}: row is shorter than the header")
                    try:
                        value = float(cell)
                    except ValueError:
                        raise ParseError(lineno, col, f"not a number: {cell!r}") from None
                    if not math.isfinite(value):
                        raise ParseError(lineno, col, f"not a finite number: {cell!r}")
                    feats.append(value)
                raw_label, dom = row[schema.label_col], row[schema.domain_col]
                if raw_label is None or dom is None:
                    raise InconsistentDimension(f"line {lineno}: row is shorter than the header")
                if raw_label not in label_ids:
                    label_ids[raw_label] = len(label_ids)
                by_domain.setdefault(dom, []).append(feats)
                by_domain_labels.setdefault(dom, []).append(label_ids[raw_label])
    except UnicodeDecodeError:
        raise utf8_error(path) from None

    if len(by_domain) < 2:
        raise InsufficientDomains(f"file has {len(by_domain)} domain(s); need >= 2")
    if len(label_ids) < 2:
        raise InvalidSpec(f"file has {len(label_ids)} label value(s); need >= 2 classes")

    domains = tuple(
        DomainDataset(
            domain_id=dom,
            features=np.asarray(rows, dtype=np.float64),
            labels=np.asarray(by_domain_labels[dom], dtype=np.int64),
        )
        for dom, rows in by_domain.items()
    )
    names = tuple(sorted(label_ids, key=label_ids.get))
    return DomainSuite(domains=domains, num_classes=len(label_ids), label_names=names)


def save_csv(suite: DomainSuite, path: str) -> CsvSchema:
    """Write a suite as CSV (domain column, feature columns, label column).

    Floats are written with 17 significant digits, so a float64 value
    round-trips exactly through :func:`load_csv`.  Returns the schema that
    reads the file back.
    """
    feature_cols = tuple(f"x{i}" for i in range(suite.num_features))
    schema = CsvSchema(feature_cols=feature_cols, label_col="label", domain_col="domain")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["domain", *feature_cols, "label"])
        names = suite.label_names
        for d in suite.domains:
            for row, lab in zip(d.features, d.labels):
                label_out = names[lab] if names is not None else str(int(lab))
                writer.writerow([d.domain_id, *(f"{v:.17g}" for v in row), label_out])
    return schema
