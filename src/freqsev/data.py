"""Portfolio data handling: schema, CSV ingestion, preprocessing and folds,
and the readers and writers of every CSV and JSON file.

A `Dataset` is the single source for both the frequency view (response =
claim count, with exposure) and the severity view derived from it
(response = average claim amount, weighted by claim count). Continuous
columns are stored as float arrays, categorical columns as integer level
codes into the schema's level list.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._rand import substream

COLUMN_KINDS = ("continuous", "categorical", "exposure", "response")
K_OUTER = 6  # outer cross-validation folds
STRATUM_CAP = 2  # claim counts above it share one stratum


class DataError(ValueError):
    """Raised for schema violations and unparseable portfolio files."""


@dataclass(frozen=True)
class ColumnSchema:
    """Declaration of one portfolio column."""

    name: str
    kind: str
    levels: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in COLUMN_KINDS:
            raise DataError(f"unknown column kind {self.kind!r} for {self.name!r}")
        if self.kind == "categorical":
            if not self.levels:
                raise DataError(f"categorical column {self.name!r} declares no levels")
            if len(set(self.levels)) != len(self.levels):
                raise DataError(f"categorical column {self.name!r} has duplicate levels")
        elif self.levels:
            raise DataError(f"column {self.name!r} of kind {self.kind} cannot declare levels")


def validate_schema(schema: list[ColumnSchema]) -> None:
    names = [c.name for c in schema]
    if len(set(names)) != len(names):
        raise DataError("duplicate column names in schema")
    n_resp = sum(c.kind == "response" for c in schema)
    if n_resp != 1:
        raise DataError(f"schema must declare exactly one response column, got {n_resp}")
    if sum(c.kind == "exposure" for c in schema) > 1:
        raise DataError("schema declares more than one exposure column")


def load_schema(path) -> list[ColumnSchema]:
    """Read a plain-text schema file.

    One column per line: ``name:kind`` or ``name:categorical:lvl1,lvl2,...``.
    Blank lines and lines starting with ``#`` are ignored.
    """
    schema = []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(":")
            if len(parts) == 2:
                schema.append(ColumnSchema(parts[0].strip(), parts[1].strip()))
            elif len(parts) == 3:
                levels = tuple(s.strip() for s in parts[2].split(","))
                schema.append(ColumnSchema(parts[0].strip(), parts[1].strip(), levels))
            else:
                raise DataError(f"malformed schema line: {line!r}")
    validate_schema(schema)
    return schema


def write_schema(schema, path) -> None:
    """Write `schema` in the format `load_schema` reads."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for c in schema:
            fh.write(f"{c.name}:{c.kind}" + (f":{','.join(c.levels)}\n" if c.levels else "\n"))


@dataclass(frozen=True)
class Dataset:
    """Immutable typed portfolio.

    `columns` maps column name to a numpy array: float64 for continuous,
    exposure and response columns, int64 level codes for categorical
    columns. `weights` carries the claim counts used as severity weights
    (None for the frequency view).
    """

    schema: tuple[ColumnSchema, ...]
    columns: dict[str, np.ndarray]
    weights: np.ndarray | None = None

    def __post_init__(self):
        validate_schema(list(self.schema))
        n = {len(v) for v in self.columns.values()}
        if len(n) > 1:
            raise DataError("columns have inconsistent lengths")
        for col in self.schema:
            if col.name not in self.columns:
                raise DataError(f"schema column {col.name!r} missing from data")
            codes, top = self.columns[col.name], len(col.levels) - 1
            if col.kind == "categorical" and len(codes) and not (
                    0 <= codes.min() <= codes.max() <= top):
                row = int(np.flatnonzero((codes < 0) | (codes > top))[0])
                raise DataError(f"level code {codes[row]} of {col.name!r} in row {row} "
                                f"is outside 0..{top}")
        if self.weights is not None and len(self.weights) != self.n:
            raise DataError("weights length does not match data")

    # -- accessors -----------------------------------------------------

    @property
    def n(self) -> int:
        return len(next(iter(self.columns.values())))

    def column_schema(self, name: str) -> ColumnSchema:
        for col in self.schema:
            if col.name == name:
                return col
        raise DataError(f"no column named {name!r}")

    @property
    def continuous_names(self) -> list[str]:
        return [c.name for c in self.schema if c.kind == "continuous"]

    @property
    def categorical_names(self) -> list[str]:
        return [c.name for c in self.schema if c.kind == "categorical"]

    @property
    def feature_names(self) -> list[str]:
        return [c.name for c in self.schema if c.kind in ("continuous", "categorical")]

    @property
    def response_name(self) -> str:
        return next(c.name for c in self.schema if c.kind == "response")

    @property
    def response(self) -> np.ndarray:
        return self.columns[self.response_name]

    @property
    def exposure(self) -> np.ndarray | None:
        for c in self.schema:
            if c.kind == "exposure":
                return self.columns[c.name]
        return None

    def subset(self, idx) -> "Dataset":
        cols = {k: v[idx] for k, v in self.columns.items()}
        w = None if self.weights is None else self.weights[idx]
        return Dataset(self.schema, cols, w)

    def with_column(self, name: str, values: np.ndarray) -> "Dataset":
        cols = dict(self.columns)
        cols[name] = np.asarray(values)
        return Dataset(self.schema, cols, self.weights)


def load_csv(path, schema: list[ColumnSchema]) -> Dataset:
    """Read a comma-separated, UTF-8 portfolio file against a schema.

    The header row is mandatory and must contain every schema column.
    Unknown categorical labels, unparseable cells, non-finite numbers,
    non-positive exposures and negative responses (claim counts) are
    rejected with the offending row index (1-based, header excluded).
    """
    validate_schema(schema)
    header, rows = read_rows(path)
    missing = [c.name for c in schema if c.name not in header]
    if missing:
        raise DataError(f"missing columns in {path}: {missing}")
    position = {name: j for j, name in enumerate(header)}
    raw = {c.name: [] for c in schema}
    for i, row in enumerate(rows, start=1):
        for col in schema:
            cell = row[position[col.name]]
            if cell == "":
                raise DataError(f"missing value for {col.name!r} in row {i}")
            if col.kind == "categorical":
                if cell not in col.levels:
                    raise DataError(f"unknown level {cell!r} for {col.name!r} in row {i}")
                raw[col.name].append(col.levels.index(cell))
            else:
                try:
                    value = float(cell)
                except ValueError:
                    raise DataError(
                        f"unparseable value {cell!r} for {col.name!r} in row {i}"
                    ) from None
                if col.kind == "exposure" and value <= 0:
                    raise DataError(f"non-positive exposure in row {i}")
                raw[col.name].append(value)
    columns = {}
    for col in schema:
        dtype = np.int64 if col.kind == "categorical" else np.float64
        columns[col.name] = values = np.asarray(raw[col.name], dtype=dtype)
        bad = np.flatnonzero(~np.isfinite(values))
        if len(bad):
            raise DataError(f"non-finite value {values[bad[0]]} for {col.name!r} "
                            f"in row {bad[0] + 1}")
        negative = np.flatnonzero(values < 0) if col.kind == "response" else []
        if len(negative):
            raise DataError(f"negative response {values[negative[0]]} for {col.name!r} "
                            f"in row {negative[0] + 1}")
    return Dataset(tuple(schema), columns)


def load_claims_csv(path) -> dict[int, list[float]]:
    """Read a claims table CSV with columns (row_id, amount)."""
    header, rows = read_rows(path)
    if not {"row_id", "amount"} <= set(header):
        raise DataError(f"claims table {path} must have columns row_id, amount")
    r, a = header.index("row_id"), header.index("amount")
    claims: dict[int, list[float]] = {}
    for i, row in enumerate(rows, start=1):
        try:
            row_id, amount = int(row[r]), float(row[a])
        except ValueError as exc:
            raise DataError(f"{path}: row {i}: {exc}") from None
        if not math.isfinite(amount):
            raise DataError(f"{path}: row {i}: non-finite amount {amount}")
        claims.setdefault(row_id, []).append(amount)
    return claims


# -- scaling ----------------------------------------------------------


@dataclass(frozen=True)
class ScalingStats:
    """Per-continuous-variable mean and sample standard deviation.

    Computed on training rows only; `train_fold` records which fold the
    stats belong to so leakage can be audited.
    """

    means: dict[str, float]
    stds: dict[str, float]
    train_fold: object = None


def scaling_stats(dataset: Dataset, rows=None, train_fold=None) -> ScalingStats:
    """Compute normalization stats on the given training rows (all rows
    when `rows` is None). Uses the sample (n-1) standard deviation."""
    means, stds = {}, {}
    for name in dataset.continuous_names:
        x = dataset.columns[name] if rows is None else dataset.columns[name][rows]
        mu = float(np.mean(x))
        sigma = float(np.std(x, ddof=1))
        if sigma <= 0:
            raise DataError(
                f"continuous column {name!r} is constant on the training rows; "
                "remove it before normalization"
            )
        means[name] = mu
        stds[name] = sigma
    return ScalingStats(means, stds, train_fold)


def normalize_continuous(dataset: Dataset, stats: ScalingStats) -> Dataset:
    """Center and scale every continuous column with the training stats."""
    cols = dict(dataset.columns)
    for name in dataset.continuous_names:
        cols[name] = (dataset.columns[name] - stats.means[name]) / stats.stds[name]
    return Dataset(dataset.schema, cols, dataset.weights)


# -- one-hot ----------------------------------------------------------


def one_hot(dataset: Dataset) -> tuple[np.ndarray, list[tuple[str, int]]]:
    """One-hot encode all categorical columns.

    Returns the stacked {0,1} matrix of width sum(L_j) and the block
    structure [(name, L_j), ...] in schema order.
    """
    blocks, structure = [], []
    for name in dataset.categorical_names:
        levels = dataset.column_schema(name).levels
        codes = dataset.columns[name]
        block = np.zeros((dataset.n, len(levels)))
        block[np.arange(dataset.n), codes] = 1.0
        blocks.append(block)
        structure.append((name, len(levels)))
    if not blocks:
        return np.zeros((dataset.n, 0)), []
    return np.hstack(blocks), structure


def distinct_rows(n: int, columns, radices) -> tuple[np.ndarray, np.ndarray]:
    """The first index of each distinct row of n rows of code `columns`,
    each column's codes below its radix, in lexicographic order of the
    rows, and each row's index among them: by `np.unique` of each row's
    mixed-radix int64 key, made dense on the way wherever it could overflow."""
    key, bound = np.zeros(n, dtype=np.int64), 1
    for column, radix in zip(columns, radices):
        if bound * radix > 2**62:
            values, key = np.unique(key, return_inverse=True)
            bound = len(values)
        key = key * radix + column
        bound *= radix
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    return first, inverse


def bin_codes(cuts, values) -> np.ndarray:
    """`np.searchsorted(cuts, values, side="left")` for sorted `cuts`: the
    number of cuts below each value, and all of them for NaN. A branch-free
    binary search over the cuts padded with +inf to a power of two: each
    level compares every value with the cut that its code bits so far point
    to, and appends the outcome as the next bit."""
    cuts, values = np.asarray(cuts, dtype=float), np.asarray(values, dtype=float)
    size = 1 << len(cuts).bit_length()  # more than the cuts, so +inf ends the search
    padded = np.full(size, np.inf)
    padded[: len(cuts)] = cuts
    codes = np.zeros(values.shape, dtype=np.intp)
    probe, above = np.empty(values.shape), np.empty(values.shape, dtype=bool)
    step = size >> 1
    while step:
        padded[step - 1 :: 2 * step].take(codes, out=probe, mode="clip")
        np.greater(values, probe, out=above)
        codes <<= 1
        codes += above
        step >>= 1
    nan = np.isnan(values)
    if nan.any():
        codes[nan] = len(cuts)
    return codes


# -- severity view ----------------------------------------------------


def severity_view(dataset: Dataset, claims: dict[int, list[float]]) -> Dataset:
    """Derive the severity dataset: claimants only, response = average
    claim amount, weight = claim count, exposure dropped.

    Rows whose claim amounts are all non-positive are excluded with a
    warning; individual non-positive amounts are dropped likewise. A claim
    whose row id is not a row of `dataset` raises `DataError`.
    """
    outside = sorted(int(r) for r in claims if not 0 <= r < dataset.n)
    if outside:
        raise DataError(f"claims name rows {outside[:5]} outside the {dataset.n}-row portfolio")
    keep_rows, responses, weights = [], [], []
    rejected = 0
    for i in range(dataset.n):
        amounts = [a for a in claims.get(i, []) if a > 0]
        rejected += len(claims.get(i, [])) - len(amounts)
        if not amounts:
            continue
        keep_rows.append(i)
        responses.append(float(np.mean(amounts)))
        weights.append(len(amounts))
    if rejected:
        warnings.warn(f"excluded {rejected} non-positive claim amounts from severity view")
    idx = np.asarray(keep_rows, dtype=np.int64)
    new_schema = []
    for col in dataset.schema:
        if col.kind in ("continuous", "categorical"):
            new_schema.append(col)
    new_schema.append(ColumnSchema("avg_claim_amount", "response"))
    cols = {c.name: dataset.columns[c.name][idx] for c in new_schema[:-1]}
    cols["avg_claim_amount"] = np.asarray(responses)
    return Dataset(tuple(new_schema), cols, np.asarray(weights, dtype=np.float64))


# -- folds ------------------------------------------------------------


@dataclass(frozen=True)
class FoldPlan:
    """Outer 6-way stratified partition plus derived inner assignments.

    `outer` assigns each row to a subset in 0..k_outer-1. Inner 5-fold
    labels for outer fold l are the outer subsets themselves, restricted
    to the rows outside l.
    """

    outer: np.ndarray
    k_outer: int
    strat_key: np.ndarray
    seed: int

    def test_rows(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.outer == fold)

    def train_rows(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.outer != fold)

    def inner_folds(self, fold: int) -> list[int]:
        """The inner cross-validation folds for outer fold `fold`."""
        return [k for k in range(self.k_outer) if k != fold]

    def inner_train_rows(self, fold: int, inner: int) -> np.ndarray:
        """Training rows of inner fold `inner` of outer fold `fold`: the
        rows in neither; `test_rows(inner)` validates them."""
        return np.flatnonzero((self.outer != fold) & (self.outer != inner))


def stratification_key(dataset: Dataset) -> np.ndarray:
    """Claim count capped at `STRATUM_CAP`; severity views stratify on
    weights."""
    if dataset.weights is not None:
        counts = dataset.weights
    else:
        counts = dataset.response
    return np.minimum(np.asarray(counts, dtype=np.int64), STRATUM_CAP)


def stratified_folds(dataset: Dataset, seed: int = 0) -> FoldPlan:
    """Partition rows into `K_OUTER` disjoint subsets, stratified on the
    capped claim count so each subset mirrors the global claim-count mix.

    Deterministic under `seed`. Classes smaller than `K_OUTER` are merged
    into the next lower class with a warning.
    """
    key = stratification_key(dataset)
    classes, counts = np.unique(key, return_counts=True)
    for cls, cnt in zip(classes, counts):
        if cnt < K_OUTER and cls > 0:
            warnings.warn(
                f"claim-count class {cls} has only {cnt} rows; merging into class {cls - 1}"
            )
            key = np.where(key == cls, cls - 1, key)
    rng = substream(seed, "folds")
    outer = np.empty(dataset.n, dtype=np.int64)
    start = rng.integers(K_OUTER)
    pos = 0
    for cls in np.unique(key):
        rows = np.flatnonzero(key == cls)
        rng.shuffle(rows)
        # deal round-robin with a rotating offset so small classes do not
        # always favor subset 0
        assignment = (np.arange(len(rows)) + start + pos) % K_OUTER
        outer[rows] = assignment
        pos += len(rows)
    return FoldPlan(outer, K_OUTER, key, seed)


# -- synthetic portfolios ---------------------------------------------


@dataclass(frozen=True)
class PortfolioSpec:
    """Generator spec for synthetic portfolios with log-linear truth.

    Continuous covariates are uniform on the given ranges; categorical
    covariates are drawn with the given level probabilities. Linear
    predictors are log-linear: intercept + sum of continuous coefficients
    times the value + per-level categorical coefficients.
    """

    n: int
    continuous: dict[str, tuple[float, float]] = field(default_factory=dict)
    categorical: dict[str, dict[str, float]] = field(default_factory=dict)
    freq_intercept: float = -2.0
    freq_coefs: dict[str, object] = field(default_factory=dict)
    sev_intercept: float = 7.0
    sev_coefs: dict[str, object] = field(default_factory=dict)
    exposure_range: tuple[float, float] = (0.5, 1.0)
    sev_shape: float = 2.0


@dataclass(frozen=True)
class SyntheticPortfolio:
    dataset: Dataset
    claims: dict[int, list[float]]
    true_rate: np.ndarray
    true_severity: np.ndarray


def _linear_predictor(spec, columns, intercept, coefs):
    eta = np.full(spec.n, intercept)
    for name, coef in coefs.items():
        if name in spec.continuous:
            eta += coef * columns[name]
        else:
            levels = list(spec.categorical[name])
            per_level = np.asarray([coef.get(lvl, 0.0) for lvl in levels])
            eta += per_level[columns[name]]
    return eta


def generate_synthetic_portfolio(spec: PortfolioSpec, seed: int = 0) -> SyntheticPortfolio:
    """Simulate a portfolio with Poisson claim counts of mean e*exp(eta)
    and gamma claim amounts of mean exp(zeta); returns the ground truth
    rates and severities for oracle tests."""
    rng = substream(seed, "synthetic")
    columns: dict[str, np.ndarray] = {}
    schema: list[ColumnSchema] = []
    for name, (lo, hi) in spec.continuous.items():
        columns[name] = rng.uniform(lo, hi, spec.n)
        schema.append(ColumnSchema(name, "continuous"))
    for name, level_probs in spec.categorical.items():
        levels = tuple(level_probs)
        probs = np.asarray(list(level_probs.values()), dtype=float)
        probs = probs / probs.sum()
        columns[name] = rng.choice(len(levels), size=spec.n, p=probs).astype(np.int64)
        schema.append(ColumnSchema(name, "categorical", levels))
    exposure = rng.uniform(*spec.exposure_range, spec.n)
    eta = _linear_predictor(spec, columns, spec.freq_intercept, spec.freq_coefs)
    zeta = _linear_predictor(spec, columns, spec.sev_intercept, spec.sev_coefs)
    true_rate = np.exp(eta)
    true_sev = np.exp(zeta)
    counts = rng.poisson(exposure * true_rate)

    claims: dict[int, list[float]] = {}
    for i in np.flatnonzero(counts):
        scale = true_sev[i] / spec.sev_shape
        claims[i] = list(rng.gamma(spec.sev_shape, scale, int(counts[i])))

    schema.append(ColumnSchema("exposure", "exposure"))
    schema.append(ColumnSchema("claim_count", "response"))
    columns["exposure"] = exposure
    columns["claim_count"] = counts.astype(np.float64)
    dataset = Dataset(tuple(schema), columns)
    return SyntheticPortfolio(dataset, claims, true_rate, true_sev)


# -- file formats -------------------------------------------------------


def read_rows(path) -> tuple[list[str], list[list[str]]]:
    """The header and rows of a CSV file as lists of strings, the inverse of
    `write_rows`; quoted cells are read as `csv.reader` reads them and blank
    lines skipped. A line of another width than the header raises `DataError`."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        rows = []
        for row in filter(None, reader):
            if len(row) != len(header):
                raise DataError(f"{path}: line {reader.line_num} has {len(row)} cells, "
                                f"the header {len(header)}")
            rows.append(row)
    return header, rows


def read_json(path, error=DataError):
    """The JSON value in `path`; `error`, naming the file, if it is not JSON."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise error(f"{path} is not JSON: {exc}") from exc


def write_rows(path, header, rows) -> None:
    """Write a CSV file: UTF-8, the header and then one line per row, a
    tuple of one cell per header name, every line ended by LF. A cell is
    written as `str(cell)`, which for a float, numpy float64 too, is
    `repr(float(x))`. Cells are not quoted: one holding a comma, a quote or
    a line break raises `DataError`, a row of another width `TypeError`."""
    fmt = ",".join(["%s"] * len(header))
    lines = [fmt % tuple(header), *map(fmt.__mod__, rows)]
    text = "\n".join(lines) + "\n"
    if (text.count(",") != len(lines) * (len(header) - 1) or text.count("\n") != len(lines)
            or '"' in text or "\r" in text):
        raise DataError(f"{path}: a cell holds a comma, a quote or a line break")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def write_json(path, payload, indent=None) -> None:
    """Write `payload` as JSON: on one line, or indented by `indent`."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=indent))


def write_csv(dataset: Dataset, path) -> None:
    """Write a Dataset back to CSV with labels for categorical columns."""
    columns = [np.asarray(c.levels)[dataset.columns[c.name]] if c.kind == "categorical"
               else np.asarray(dataset.columns[c.name], dtype=float) for c in dataset.schema]
    write_rows(path, [c.name for c in dataset.schema], zip(*(c.tolist() for c in columns)))


def write_claims_csv(claims: dict[int, list[float]], path) -> None:
    """Write a claims table CSV with columns (row_id, amount)."""
    rows = [(r, float(a)) for r in sorted(claims) for a in claims[r]]
    write_rows(path, ["row_id", "amount"], rows)
