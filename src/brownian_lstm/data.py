"""Price-series and tabular data handling.

The forecasting pipeline is: load (or synthesize) a positive price
series, min-max normalize to [0, 1], slice into sliding lookback
windows (window i predicts the value one step after it), and split
chronologically so every training target precedes every test target.

The classification pipeline loads a numeric feature table with a binary
label column, drops rows with missing cells (counting them), and
z-scores each feature column.

describe() computes the arithmetic mean and sample variance (divisor
N - 1) with two passes of correctly-rounded summation (math.fsum), so
any two-pass implementation that sums exactly produces identical bits.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import date, timedelta

import numpy as np

from .numerics import RngStream

TRADING_DAYS = 252.0
_SYNTH_START = date(2015, 1, 1)


@dataclass
class PriceSeries:
    """A dated positive price series."""

    dates: list[str]
    values: np.ndarray
    name: str = "series"

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64).ravel()
        if len(self.dates) != self.values.size:
            raise ValueError(
                f"{len(self.dates)} dates but {self.values.size} values"
            )
        if self.values.size == 0:
            raise ValueError("price series is empty")
        if not np.isfinite(self.values).all() or np.any(self.values <= 0.0):
            raise ValueError("price series values must be positive and finite")


@dataclass
class SequenceDataset:
    """Sliding-window samples: inputs (N, T, d), targets (N,).

    norm_min / norm_max carry the normalization constants so
    predictions can be mapped back to the original scale.
    """

    inputs: np.ndarray
    targets: np.ndarray
    norm_min: float = 0.0
    norm_max: float = 1.0

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.targets = np.asarray(self.targets, dtype=np.float64).ravel()
        if self.inputs.ndim != 3:
            raise ValueError(
                f"inputs must be (N, T, d), got shape {self.inputs.shape}"
            )
        if self.inputs.shape[0] != self.targets.size:
            raise ValueError(
                f"{self.inputs.shape[0]} inputs but {self.targets.size} "
                f"targets"
            )

    def __len__(self) -> int:
        return self.targets.size


@dataclass
class TabularDataset:
    """Standardized feature rows with binary labels."""

    features: np.ndarray
    labels: np.ndarray
    feature_names: list[str]
    n_dropped: int = 0

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.float64).ravel()
        if self.features.ndim != 2:
            raise ValueError(
                f"features must be (N, d), got shape {self.features.shape}"
            )
        if self.features.shape[0] != self.labels.size:
            raise ValueError(
                f"{self.features.shape[0]} rows but {self.labels.size} labels"
            )
        if not np.all((self.labels == 0.0) | (self.labels == 1.0)):
            raise ValueError("labels must be 0 or 1")

    def __len__(self) -> int:
        return self.labels.size


def _read_table(path: str, required_columns):
    """Read a CSV file: (stripped header, [(row number, stripped cells)]).

    Blank rows are skipped; the header is row 1.  Raises ValueError for
    an empty file, a missing required column, or a row whose cell count
    differs from the header's.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        lines = list(csv.reader(fh))
    if not lines:
        raise ValueError(f"{path}: file is empty")
    header = [h.strip() for h in lines[0]]
    for column in required_columns:
        if column not in header:
            raise ValueError(
                f"{path}: no '{column}' column; available columns {header}"
            )
    rows = []
    for row_no, row in enumerate(lines[1:], start=2):
        cells = [cell.strip() for cell in row]
        if not any(cells):
            continue
        if len(cells) != len(header):
            raise ValueError(
                f"{path} row {row_no}: expected {len(header)} cells, "
                f"got {len(cells)}"
            )
        rows.append((row_no, cells))
    return header, rows


def load_csv_prices(path: str, column: str = "Close") -> PriceSeries:
    """Read a dated price CSV.

    Requires a Date column of ISO-8601 dates in strictly increasing
    order and the named value column holding positive finite prices.
    Errors cite the offending row number (the header is row 1).
    """
    header, rows = _read_table(path, ("Date", column))
    date_idx = header.index("Date")
    value_idx = header.index(column)
    dates: list[str] = []
    values: list[float] = []
    previous: date | None = None
    for row_no, cells in rows:
        raw_date = cells[date_idx]
        try:
            parsed = date.fromisoformat(raw_date)
        except ValueError:
            raise ValueError(
                f"{path} row {row_no}: '{raw_date}' is not an ISO-8601 date"
            ) from None
        if previous is not None and parsed <= previous:
            raise ValueError(
                f"{path} row {row_no}: dates must be strictly increasing "
                f"({parsed} after {previous})"
            )
        previous = parsed
        raw_value = cells[value_idx]
        try:
            value = float(raw_value)
        except ValueError:
            raise ValueError(
                f"{path} row {row_no}: '{raw_value}' is not a number"
            ) from None
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(
                f"{path} row {row_no}: price {raw_value} is not positive "
                f"and finite"
            )
        dates.append(raw_date)
        values.append(value)
    if not values:
        raise ValueError(f"{path}: no data rows")
    return PriceSeries(dates=dates, values=np.asarray(values), name=path)


def minmax_normalize(values):
    """Scale to [0, 1]; returns (normalized, vmin, vmax).

    Raises ValueError for a constant series (zero range).
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    if values.size == 0:
        raise ValueError("cannot normalize an empty series")
    vmin = float(values.min())
    vmax = float(values.max())
    if vmax == vmin:
        raise ValueError("cannot normalize a constant series")
    return (values - vmin) / (vmax - vmin), vmin, vmax


def denormalize(normalized, vmin: float, vmax: float) -> np.ndarray:
    """Inverse of minmax_normalize."""
    normalized = np.asarray(normalized, dtype=np.float64)
    return normalized * (vmax - vmin) + vmin


def make_windows(values, lookback: int, norm_min: float = 0.0,
                 norm_max: float = 1.0,
                 check_unit_range: bool = True) -> SequenceDataset:
    """Slice a 1-D series into sliding windows of length lookback.

    Sample i has input values[i : i + lookback] and target
    values[i + lookback], giving len(values) - lookback samples.  With
    check_unit_range the series must already be normalized to [0, 1].
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    if lookback < 1:
        raise ValueError(f"lookback must be >= 1, got {lookback}")
    n_samples = values.size - lookback
    if n_samples < 1:
        raise ValueError(
            f"series of length {values.size} is too short for lookback "
            f"{lookback}"
        )
    if check_unit_range and (values.min() < -1e-12 or values.max() > 1.0 + 1e-12):
        raise ValueError(
            "series is not normalized to [0, 1]; normalize first or pass "
            "check_unit_range=False"
        )
    windows = np.lib.stride_tricks.sliding_window_view(values, lookback)
    inputs = np.ascontiguousarray(windows[:-1]).reshape(n_samples, lookback, 1)
    targets = values[lookback:].copy()
    return SequenceDataset(inputs=inputs, targets=targets,
                           norm_min=norm_min, norm_max=norm_max)


def chronological_split(dataset: SequenceDataset, ratio: float):
    """Split samples by time: first floor(ratio N) train, rest test."""
    if not (0.0 < ratio < 1.0):
        raise ValueError(f"split ratio must be in (0, 1), got {ratio}")
    n = len(dataset)
    n_train = int(math.floor(ratio * n))
    if n_train == 0 or n_train == n:
        raise ValueError(
            f"split ratio {ratio} leaves an empty side for {n} samples"
        )
    train = SequenceDataset(inputs=dataset.inputs[:n_train],
                            targets=dataset.targets[:n_train],
                            norm_min=dataset.norm_min,
                            norm_max=dataset.norm_max)
    test = SequenceDataset(inputs=dataset.inputs[n_train:],
                           targets=dataset.targets[n_train:],
                           norm_min=dataset.norm_min,
                           norm_max=dataset.norm_max)
    return train, test


def describe(values) -> tuple[float, float]:
    """Arithmetic mean and sample variance (divisor N - 1).

    Both passes sum with math.fsum, so the result is the correctly
    rounded two-pass answer.
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    if values.size < 2:
        raise ValueError("describe requires at least two values")
    n = values.size
    mean = math.fsum(values.tolist()) / n
    variance = math.fsum(((v - mean) ** 2 for v in values.tolist())) / (n - 1)
    return mean, variance


def synth_gbm(seed: int, n: int, s0: float = 100.0, mu: float = 0.05,
              sigma: float = 0.2) -> PriceSeries:
    """Geometric Brownian motion sampled at daily steps (dt = 1/252).

        S_{k+1} = S_k * exp((mu - sigma^2 / 2) dt + sigma sqrt(dt) Z_k)

    sigma = 0 gives the deterministic exponential trend exactly.
    """
    if n < 1:
        raise ValueError(f"need at least one point, got {n}")
    if s0 <= 0.0:
        raise ValueError(f"s0 must be positive, got {s0}")
    if sigma < 0.0:
        raise ValueError(f"sigma must be non-negative, got {sigma}")
    dt = 1.0 / TRADING_DAYS
    stream = RngStream(seed, stream_id=7)
    z = stream.standard_normals(n - 1)
    increments = (mu - 0.5 * sigma * sigma) * dt + sigma * math.sqrt(dt) * z
    log_path = np.concatenate(([0.0], np.cumsum(increments)))
    values = s0 * np.exp(log_path)
    dates = [(_SYNTH_START + timedelta(days=k)).isoformat() for k in range(n)]
    return PriceSeries(dates=dates, values=values, name=f"gbm-{seed}")


def synth_sine_trend(seed: int, n: int, s0: float = 100.0, mu: float = 0.08,
                     sigma: float = 0.08, amplitude: float = 5.0,
                     period: float = 40.0,
                     noise_std: float = 0.25) -> PriceSeries:
    """Noisy sine wave riding on a GBM trend.

    values[k] = GBM_k + amplitude * sin(2 pi k / period) + eps_k with
    eps_k ~ N(0, noise_std^2).  A learnable but non-trivial forecasting
    target: the seasonal part is predictable, the noise is not.
    """
    if period <= 0.0:
        raise ValueError(f"period must be positive, got {period}")
    if noise_std < 0.0:
        raise ValueError(f"noise_std must be non-negative, got {noise_std}")
    trend = synth_gbm(seed, n, s0=s0, mu=mu, sigma=sigma)
    k = np.arange(n)
    season = amplitude * np.sin(2.0 * math.pi * k / period)
    noise = RngStream(seed, stream_id=13).standard_normals(n) * noise_std
    values = trend.values + season + noise
    return PriceSeries(dates=trend.dates, values=values,
                       name=f"sine-trend-{seed}")


def _standardize(features: np.ndarray,
                 names: list[str]) -> np.ndarray:
    mean = features.mean(axis=0)
    std = features.std(axis=0, ddof=1)
    flat = np.flatnonzero(std == 0.0)
    if flat.size:
        raise ValueError(
            f"feature column '{names[flat[0]]}' is constant; cannot z-score"
        )
    return (features - mean) / std


def load_csv_tabular(path: str, label_column: str = "label") -> TabularDataset:
    """Read a numeric feature table with a binary label column.

    Rows containing empty cells are dropped (the count is kept on the
    dataset); non-numeric feature values raise with the row number.
    Label values must take exactly two distinct raw values, mapped to
    0 and 1 in sorted order (0/1 labels pass through unchanged).
    """
    header, table = _read_table(path, (label_column,))
    label_idx = header.index(label_column)
    feature_names = [h for i, h in enumerate(header) if i != label_idx]
    rows: list[list[float]] = []
    raw_labels: list[str] = []
    n_dropped = 0
    for row_no, cells in table:
        if any(cell == "" for cell in cells):
            n_dropped += 1
            continue
        feats = []
        for i, cell in enumerate(cells):
            if i == label_idx:
                continue
            try:
                feats.append(float(cell))
            except ValueError:
                raise ValueError(
                    f"{path} row {row_no}: '{cell}' in column "
                    f"'{header[i]}' is not a number"
                ) from None
        rows.append(feats)
        raw_labels.append(cells[label_idx])
    if not rows:
        raise ValueError(f"{path}: no usable data rows")
    distinct = sorted(set(raw_labels))
    if len(distinct) != 2:
        raise ValueError(
            f"{path}: label column must take exactly two values, found "
            f"{distinct}"
        )
    mapping = {distinct[0]: 0.0, distinct[1]: 1.0}
    if set(distinct) == {"0", "1"}:
        mapping = {"0": 0.0, "1": 1.0}
    labels = np.array([mapping[lab] for lab in raw_labels])
    features = _standardize(np.asarray(rows, dtype=np.float64), feature_names)
    return TabularDataset(features=features, labels=labels,
                          feature_names=feature_names, n_dropped=n_dropped)


def synth_tabular(seed: int, n: int, d: int,
                  positive_rate: float = 0.25) -> TabularDataset:
    """Synthetic imbalanced binary dataset with Gaussian class clouds.

    Class means sit at +/- 1/2 along the unit all-ones direction, so
    the task is learnable but noisy; labels hit positive_rate exactly
    (up to rounding) and are shuffled deterministically.  Features are
    z-scored like the CSV path.
    """
    if n < 4 or d < 1:
        raise ValueError(f"need n >= 4 and d >= 1, got n={n}, d={d}")
    if not (0.0 < positive_rate < 1.0):
        raise ValueError(
            f"positive_rate must be in (0, 1), got {positive_rate}"
        )
    n_pos = int(round(positive_rate * n))
    n_pos = min(max(n_pos, 1), n - 1)
    stream = RngStream(seed, stream_id=17)
    labels = np.zeros(n)
    labels[:n_pos] = 1.0
    labels = labels[stream.permutation(n)]
    direction = np.ones(d) / math.sqrt(d)
    shift = 0.5 * direction
    noise = stream.normals((n, d))
    features = noise + np.where(labels[:, None] == 1.0, shift, -shift)
    names = [f"x{i}" for i in range(d)]
    return TabularDataset(features=_standardize(features, names),
                          labels=labels, feature_names=names)
