"""Sequence ingestion, preprocessing, synthetic corpora, and evaluation.

Input files are delimited text with one frame per row.  numpy's C reader
parses a file when its result is sure to equal the line-by-line reference
reader's; the line reader parses the rest and names the file and line of
every format error.  Preprocessing keeps every n-th frame and
min-max-normalizes each dimension over the whole corpus into [-1, 1].  The evaluator scores a segmentation against
ground truth by normalized Hamming distance after an optimal class
alignment.
"""

from __future__ import annotations

import io
import re
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .hsmm import integer_array

__all__ = [
    "DataFormatError",
    "LoadSchema",
    "PreprocessRecord",
    "SequenceStore",
    "EvalReport",
    "load_sequences",
    "parse_label",
    "preprocess",
    "PatternSpec",
    "SyntheticSpec",
    "generate_synthetic",
    "quickstart_spec",
    "bench_base_spec",
    "evaluate_nhd",
]


class DataFormatError(ValueError):
    """A data file violates the expected layout (reported with file/line)."""


@dataclass
class LoadSchema:
    """How to read delimited sequence files.

    ``delimiter=None`` splits on any whitespace.  ``columns`` selects
    the observation columns (default: all except the label column); a
    negative entry counts from the end of each line.  ``label_column``
    optionally attaches per-frame ground truth.  It is counted from 0
    and may not be one of ``columns`` (``ValueError``), nor the column
    a negative entry reaches on some line (``DataFormatError``).
    Lines starting with ``#`` are comments.
    """

    delimiter: str | None = None
    columns: list[int] | None = None
    label_column: int | None = None

    def __post_init__(self):
        # a negative index never equals a cell's own index, so the labels
        # would also be read as observations; so would a listed column
        if self.label_column is None:
            return
        if self.label_column < 0:
            raise ValueError(f"label_column must be >= 0, got {self.label_column}")
        if self.columns is not None and self.label_column in self.columns:
            raise ValueError(
                f"label_column {self.label_column} is also listed in columns "
                f"{list(self.columns)}")


@dataclass
class PreprocessRecord:
    """What preprocessing was applied, enough to reapply it to new data."""

    downsample: int
    normalized: bool
    mins: np.ndarray | None = None
    maxs: np.ndarray | None = None

    def to_dict(self) -> dict:
        return {
            "downsample": self.downsample,
            "normalized": self.normalized,
            "mins": None if self.mins is None else np.asarray(self.mins).tolist(),
            "maxs": None if self.maxs is None else np.asarray(self.maxs).tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PreprocessRecord":
        """The record ``to_dict`` wrote; ``ValueError`` for a ``downsample``
        that is not one integer, a ``normalized`` that is not a boolean, or
        ``mins`` or ``maxs`` that are not a list of numbers."""
        if not isinstance(d["normalized"], bool):
            raise ValueError(
                f"preprocess.normalized must be true or false, got {d['normalized']!r}")
        bounds = {}
        for name in ("mins", "maxs"):
            values = d.get(name)
            if values is not None and not (isinstance(values, list) and all(
                    type(v) in (int, float) for v in values)):
                raise ValueError(f"preprocess.{name} must be a list of numbers, got {values!r}")
            bounds[name] = None if values is None else np.asarray(values, dtype=np.float64)
        return cls(
            downsample=int(integer_array("preprocess.downsample", d["downsample"], ())),
            normalized=d["normalized"], **bounds)


@dataclass
class SequenceStore:
    """Loaded sequences (each (n_dims, T)) plus provenance."""

    sequences: list
    names: list
    labels: list | None = None
    record: PreprocessRecord | None = None

    @property
    def n_dims(self) -> int:
        return self.sequences[0].shape[0]

    @property
    def total_frames(self) -> int:
        return sum(s.shape[1] for s in self.sequences)


_LABEL_BOUND = 2.0 ** 63  # int64 holds exactly the integers in [-bound, bound)

# A ``#`` after some other non-blank character of its line.  numpy's
# reader would drop it and the rest of the line; the line reader refuses
# the cell (or ignores it in an unused column).
_INLINE_COMMENT = re.compile(r"^[^\S\n]*[^\s#][^\n#]*#", re.M)

# Separators that numpy's float parser strips from a cell but ``float``
# does not, so a ``,``-delimited cell such as "1\x1c" would differ.
_UNSTRIPPED_SEPARATORS = "\x1c\x1d\x1e\x1f"


def parse_label(cell: str) -> int:
    """``int(float(cell))``; ``OverflowError`` when it does not fit in int64."""
    value = int(float(cell))
    if not -_LABEL_BOUND <= value < _LABEL_BOUND:
        raise OverflowError(f"{cell.strip()} is outside the int64 range")
    return value


def _read_lines(path, schema: LoadSchema):
    """The reference reader, one line at a time; it raises every format error."""
    rows = []
    linenos = []
    labels = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            cells = line.split(schema.delimiter)
            n_cells = len(cells)
            if schema.columns is None:
                data_idx = [i for i in range(n_cells) if i != schema.label_column]
            else:
                # a negative entry counts from the end of this line
                data_idx = [i + n_cells if -n_cells <= i < 0 else i for i in schema.columns]
                if schema.label_column in data_idx:
                    column = schema.columns[data_idx.index(schema.label_column)]
                    raise DataFormatError(
                        f"{path}:{lineno}: column {column} of {n_cells} is the "
                        f"label column {schema.label_column}")
            try:
                values = [float(cells[i]) for i in data_idx]
            except (ValueError, IndexError) as exc:
                raise DataFormatError(f"{path}:{lineno}: {exc}") from exc
            if rows and len(values) != len(rows[0]):
                raise DataFormatError(
                    f"{path}:{lineno}: expected {len(rows[0])} values, "
                    f"got {len(values)}")
            rows.append(values)
            linenos.append(lineno)
            if schema.label_column is not None:
                try:
                    labels.append(parse_label(cells[schema.label_column]))
                except (ValueError, IndexError, OverflowError) as exc:
                    raise DataFormatError(
                        f"{path}:{lineno}: bad label column: {exc}") from exc
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    seq = np.asarray(rows, dtype=np.float64).T  # (n_dims, T)
    finite = np.isfinite(seq).all(axis=0)
    if not finite.all():
        row = int(np.argmin(finite))
        raise DataFormatError(
            f"{path}:{linenos[row]}: non-finite value in {rows[row]}")
    lab = np.asarray(labels, dtype=np.int64) if schema.label_column is not None else None
    return seq, lab


def _read_fast(path, schema: LoadSchema):
    """What ``_read_lines`` returns, parsed by ``np.loadtxt``; ``None`` when unsure.

    ``None`` covers every input the line reader might refuse or read
    differently: a file numpy cannot read, a ``#`` after data on its
    line, no data rows, a non-finite value, a label that is non-finite
    or outside int64, no label column, or a negative entry in
    ``columns`` (which might name the label column).  Arrays it does
    return are byte-equal to the line reader's, in the same memory layout.
    """
    columns, label_column = schema.columns, schema.label_column
    if columns is not None and any(i < 0 for i in columns):
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, ValueError):
        return None
    if any(sep in text for sep in _UNSTRIPPED_SEPARATORS):
        return None
    if "#" in text and _INLINE_COMMENT.search(text):
        return None
    usecols = None
    if columns is not None:
        usecols = list(columns) + ([] if label_column is None else [label_column])
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
            table = np.loadtxt(io.StringIO(text), dtype=np.float64, comments="#",
                               delimiter=schema.delimiter, usecols=usecols, ndmin=2)
    except (ValueError, TypeError):
        return None
    n_rows, n_cols = table.shape
    if n_rows == 0:
        return None
    if columns is not None:
        data_idx = list(range(len(columns)))
        label_idx = len(columns)
    else:
        if label_column is not None and not -n_cols <= label_column < n_cols:
            return None
        data_idx = [i for i in range(n_cols) if i != label_column]
        label_idx = label_column
    rows = table if len(data_idx) == n_cols else np.take(table, data_idx, axis=1)
    if not np.isfinite(rows).all():
        return None
    if label_column is None:
        return rows.T, None
    labels = table[:, label_idx]
    if not ((labels >= -_LABEL_BOUND) & (labels < _LABEL_BOUND)).all():
        return None
    return rows.T, labels.astype(np.int64)


def _parse_file(path, schema: LoadSchema):
    """One file as ``(seq (n_dims, T), labels or None)``.

    numpy's C reader parses it when it can vouch for the result; anything
    else goes to the line reader, the reference and the only source of
    ``DataFormatError`` messages.
    """
    parsed = _read_fast(path, schema)
    return parsed if parsed is not None else _read_lines(path, schema)


def load_sequences(paths, schema: LoadSchema | None = None) -> SequenceStore:
    """Load delimited files, one sequence each, in path order.

    A repeated path is parsed once and shares its arrays, made read-only.
    """
    schema = schema or LoadSchema()
    parsed = {}
    sequences, names, labels = [], [], []
    for path in paths:
        name = str(path)
        if name not in parsed:
            parsed[name] = _parse_file(path, schema)
            for arr in parsed[name]:
                if arr is not None:
                    arr.flags.writeable = False
        seq, lab = parsed[name]
        sequences.append(seq)
        names.append(name)
        labels.append(lab)
    if sequences and len({s.shape[0] for s in sequences}) > 1:
        raise DataFormatError(
            f"files disagree on column count: "
            f"{ {n: s.shape[0] for n, s in zip(names, sequences)} }")
    has_labels = schema.label_column is not None
    return SequenceStore(sequences=sequences, names=names,
                         labels=labels if has_labels else None)


def preprocess(store: SequenceStore, downsample: int = 1,
               normalize: bool = True,
               record: PreprocessRecord | None = None) -> SequenceStore:
    """Downsample and min-max-normalize a store into [-1, 1].

    Normalization statistics are pooled over all sequences so duplicated
    sequences normalize identically; constant dimensions map to zero.
    Passing a ``record`` reapplies previously computed statistics
    (needed to label new data with a trained model); its ``mins`` and
    ``maxs`` must be one finite number per dimension.
    """
    if downsample < 1:
        raise ValueError(f"downsample must be >= 1, got {downsample}")
    seqs = [s[:, ::downsample] for s in store.sequences]
    labels = None
    if store.labels is not None:
        labels = [lab[::downsample] if lab is not None else None
                  for lab in store.labels]
    if not normalize:
        rec = PreprocessRecord(downsample=downsample, normalized=False)
        return SequenceStore(seqs, list(store.names), labels, rec)
    if record is not None and record.mins is not None:
        n_dims = seqs[0].shape[0]
        for name, bounds in (("mins", record.mins), ("maxs", record.maxs)):
            if np.shape(bounds) != (n_dims,):
                raise ValueError(f"normalization record covers {np.size(bounds)} dimensions, "
                                 f"data has {n_dims}: {name} has shape {np.shape(bounds)}")
            if not np.isfinite(bounds).all():
                raise ValueError(f"normalization record's {name} must be finite")
        mins, maxs = record.mins, record.maxs
    else:
        stacked = np.hstack(seqs)
        mins = stacked.min(axis=1)
        maxs = stacked.max(axis=1)
    span = maxs - mins
    safe = np.where(span > 0, span, 1.0)[:, None]
    constant = span == 0
    any_constant = constant.any()
    out = []
    for s in seqs:
        # 2 * (s - mins) / safe - 1, in that order, in one output array
        scaled = np.subtract(s, mins[:, None])
        np.multiply(scaled, 2.0, out=scaled)
        np.divide(scaled, safe, out=scaled)
        np.subtract(scaled, 1.0, out=scaled)
        if any_constant:
            scaled[constant, :] = 0.0
        out.append(scaled)
    rec = PreprocessRecord(downsample=downsample, normalized=True,
                           mins=mins.copy(), maxs=maxs.copy())
    return SequenceStore(out, list(store.names), labels, rec)


@dataclass
class PatternSpec:
    """One recurring template, a function of within-block position.

    kinds: "sine" (amplitude, period, per-dimension phase offsets),
    "ramp" (value + slope * position), "constant" (value).  ``sigma``
    is i.i.d. Gaussian observation noise.
    """

    kind: str
    amplitude: float = 1.0
    period: float = 20.0
    value: float = 0.0
    slope: float = 0.05
    sigma: float = 0.05

    def curve(self, length: int, n_dims: int) -> np.ndarray:
        pos = np.arange(length, dtype=np.float64)
        if self.kind == "sine":
            offsets = 2.0 * np.pi * np.arange(n_dims)[:, None] / max(n_dims, 1)
            return self.amplitude * np.sin(2.0 * np.pi * pos[None, :] / self.period
                                           + offsets)
        if self.kind == "ramp":
            signs = np.where(np.arange(n_dims) % 2 == 0, 1.0, -1.0)
            return self.value + signs[:, None] * self.slope * pos[None, :]
        if self.kind == "constant":
            return np.full((n_dims, length), self.value)
        raise ValueError(f"unknown pattern kind {self.kind!r}")


@dataclass
class SyntheticSpec:
    """Recipe for a labeled synthetic corpus."""

    patterns: list
    n_dims: int = 2
    n_sequences: int = 10
    seq_length: int = 200
    block_min: int = 15
    block_max: int = 25
    seq_lengths: list | None = None  # per-sequence override of seq_length

    def lengths(self) -> list[int]:
        if self.seq_lengths is not None:
            return [int(v) for v in self.seq_lengths]
        return [self.seq_length] * self.n_sequences

    def validate(self):
        if not self.patterns:
            raise ValueError("at least one pattern template is required")
        if self.block_min < 1 or self.block_max < self.block_min:
            raise ValueError(
                f"need 1 <= block_min <= block_max, got "
                f"[{self.block_min}, {self.block_max}]")
        if self.n_sequences < 1 or self.seq_length < 1 or self.n_dims < 1:
            raise ValueError("n_sequences, seq_length and n_dims must be positive")
        if self.seq_lengths is not None and (
                len(self.seq_lengths) != self.n_sequences
                or any(v < 1 for v in self.seq_lengths)):
            raise ValueError("seq_lengths must list one positive length per sequence")


def generate_synthetic(spec: SyntheticSpec, seed: int = 0) -> SequenceStore:
    """Stitch labeled sequences from the recipe's templates, reproducibly."""
    spec.validate()
    rng = np.random.default_rng(seed)
    sequences, labels, names = [], [], []
    for i, total in enumerate(spec.lengths()):
        frames = np.zeros((spec.n_dims, total))
        truth = np.zeros(total, dtype=np.int64)
        pos = 0
        while pos < total:
            nxt = int(rng.integers(0, len(spec.patterns)))
            length = int(rng.integers(spec.block_min, spec.block_max + 1))
            length = min(length, total - pos)
            pat = spec.patterns[nxt]
            block = pat.curve(length, spec.n_dims)
            if pat.sigma > 0:
                block = block + rng.normal(0.0, pat.sigma, size=block.shape)
            frames[:, pos:pos + length] = block
            truth[pos:pos + length] = nxt
            pos += length
        sequences.append(frames)
        labels.append(truth)
        names.append(f"synthetic-{i:03d}")
    return SequenceStore(sequences=sequences, names=names, labels=labels)


def quickstart_spec() -> SyntheticSpec:
    """Desk-scale corpus: three clearly separable patterns, 2,100 frames."""
    return SyntheticSpec(
        patterns=[
            PatternSpec(kind="sine", amplitude=0.8, period=14.0, sigma=0.05),
            PatternSpec(kind="constant", value=0.6, sigma=0.05),
            PatternSpec(kind="ramp", value=-0.8, slope=0.06, sigma=0.05),
        ],
        n_dims=2,
        n_sequences=10,
        seq_length=210,
        block_min=15,
        block_max=25,
    )


def bench_base_spec() -> SyntheticSpec:
    """Benchmark base: 3 sequences, 490 frames total, 11 templates.

    Mirrors the duplication-ladder methodology: the bench command
    copies these sequences to scale the frame count.
    """
    kinds = []
    for j in range(11):
        if j % 3 == 0:
            kinds.append(PatternSpec(kind="sine", amplitude=0.5 + 0.15 * j,
                                     period=10.0 + 2.0 * j, sigma=0.05))
        elif j % 3 == 1:
            kinds.append(PatternSpec(kind="constant", value=-0.9 + 0.18 * j,
                                     sigma=0.05))
        else:
            kinds.append(PatternSpec(kind="ramp", value=0.8 - 0.15 * j,
                                     slope=0.02 + 0.008 * j, sigma=0.05))
    return SyntheticSpec(patterns=kinds, n_dims=8, n_sequences=3,
                         seq_length=164, seq_lengths=[164, 163, 163],
                         block_min=15, block_max=30)


@dataclass
class EvalReport:
    """Normalized Hamming distance under the best class alignment."""

    nhd: float
    mapping: dict
    confusion: np.ndarray
    predicted_ids: np.ndarray
    truth_ids: np.ndarray

    def to_dict(self) -> dict:
        return {
            "nhd": self.nhd,
            "mapping": {str(k): (None if v is None else int(v))
                        for k, v in self.mapping.items()},
            "confusion": self.confusion.tolist(),
            "predicted_ids": self.predicted_ids.tolist(),
            "truth_ids": self.truth_ids.tolist(),
        }


def evaluate_nhd(predicted, truth) -> EvalReport:
    """Frame mismatch rate minimized over predicted->truth class mappings.

    The mapping is an optimal one-to-one assignment on the confusion
    matrix; predicted classes left unmatched count every frame as a
    mismatch.  Invariant under relabeling of either side.
    """
    predicted = np.concatenate([np.asarray(p).ravel() for p in predicted]) \
        if isinstance(predicted, (list, tuple)) else np.asarray(predicted).ravel()
    truth = np.concatenate([np.asarray(t).ravel() for t in truth]) \
        if isinstance(truth, (list, tuple)) else np.asarray(truth).ravel()
    if predicted.shape != truth.shape:
        raise ValueError(
            f"label arrays differ in length: {predicted.shape[0]} vs {truth.shape[0]}")
    if predicted.size == 0:
        raise ValueError("cannot evaluate empty label arrays")
    pred_ids, pred_index = np.unique(predicted, return_inverse=True)
    truth_ids, truth_index = np.unique(truth, return_inverse=True)
    table = np.zeros((pred_ids.size, truth_ids.size), dtype=np.int64)
    np.add.at(table, (pred_index, truth_index), 1)
    side = max(table.shape)
    padded = np.zeros((side, side), dtype=np.int64)
    padded[: table.shape[0], : table.shape[1]] = table
    rows, cols = linear_sum_assignment(padded, maximize=True)
    matched = padded[rows, cols].sum()
    mapping = {}
    for r, c in zip(rows, cols):
        if r < pred_ids.size:
            good = c < truth_ids.size and table[r, c] > 0
            mapping[int(pred_ids[r])] = int(truth_ids[c]) if good else None
    nhd = 1.0 - matched / predicted.size
    return EvalReport(nhd=float(nhd), mapping=mapping, confusion=table,
                      predicted_ids=pred_ids, truth_ids=truth_ids)
