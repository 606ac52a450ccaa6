"""Time-indexed simulation record and its canonical CSV form.

The CSV starts with ``#``-prefixed header lines (format tag, configuration
echo, seed, switch instants, pre-reset determinants), then one column-name
row, then one data row per grid point.  Floats are written with 17
significant digits so a write/read cycle reproduces every value bit-exactly.
Data rows are formatted and parsed ``BLOCK_ROWS`` at a time: one ``%`` per
block on the way out, numpy's C text reader per block on the way in.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import TraceFormatError

FORMAT_TAG = "dremobs-trace 1"


def column_names(n: int, m: int, s: int) -> list[str]:
    names = ["t", "sigma"]
    names += [f"x{i + 1}" for i in range(n)]
    names += [f"xhat{i + 1}" for i in range(n)]
    names += ["y", "ybar"]
    names += [f"z{j + 1}" for j in range(m + n)]
    names += ["delta"]
    names += [f"thetahat{i + 1}_{j + 1}" for i in range(s) for j in range(m)]
    names += [f"theta_err{i + 1}" for i in range(s)]
    names += ["x_err"]
    names += [f"exc{i + 1}" for i in range(s)]
    return names


@dataclass
class SimulationTrace:
    """One row per grid point plus switch-event markers.

    ``meta`` must contain the dimensions ``n``, ``m``, ``s``; the remaining
    entries echo the run configuration.  ``pre_reset_delta`` aligns with
    ``switch_times`` (NaN for the initial reset, which has no prior state).
    """

    meta: dict
    data: np.ndarray
    switch_times: list[float] = field(default_factory=list)
    pre_reset_delta: list[float] = field(default_factory=list)

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.ndim != 2:
            raise TraceFormatError("trace data must be a 2-D array")
        for key in ("n", "m", "s"):
            if key not in self.meta:
                raise TraceFormatError(f"trace meta is missing '{key}'")
        if self.data.shape[1] != len(self.columns):
            raise TraceFormatError(
                f"trace has {self.data.shape[1]} columns, "
                f"expected {len(self.columns)} for the declared dimensions"
            )
        if len(self.pre_reset_delta) != len(self.switch_times):
            raise TraceFormatError("pre_reset_delta must align with switch_times")
        t = self.data[:, 0]
        if t.shape[0] > 1 and np.any(np.diff(t) <= 0):
            raise TraceFormatError("time column must be strictly increasing")

    # -- schema ------------------------------------------------------------
    @property
    def n(self) -> int:
        return int(self.meta["n"])

    @property
    def m(self) -> int:
        return int(self.meta["m"])

    @property
    def num_subsystems(self) -> int:
        return int(self.meta["s"])

    @property
    def columns(self) -> list[str]:
        return column_names(self.n, self.m, self.num_subsystems)

    def _col(self, name: str) -> int:
        return self.columns.index(name)

    # -- column views --------------------------------------------------
    @property
    def t(self) -> np.ndarray:
        return self.data[:, 0]

    @property
    def sigma(self) -> np.ndarray:
        return self.data[:, 1].astype(int)

    @property
    def x(self) -> np.ndarray:
        start = 2
        return self.data[:, start : start + self.n]

    @property
    def xhat(self) -> np.ndarray:
        start = 2 + self.n
        return self.data[:, start : start + self.n]

    @property
    def y(self) -> np.ndarray:
        return self.data[:, self._col("y")]

    @property
    def ybar(self) -> np.ndarray:
        return self.data[:, self._col("ybar")]

    @property
    def z(self) -> np.ndarray:
        start = self._col("z1")
        return self.data[:, start : start + self.m + self.n]

    @property
    def delta(self) -> np.ndarray:
        return self.data[:, self._col("delta")]

    @property
    def theta_hat(self) -> np.ndarray:
        start = self._col("thetahat1_1")
        s, m = self.num_subsystems, self.m
        return self.data[:, start : start + s * m].reshape(-1, s, m)

    @property
    def theta_error(self) -> np.ndarray:
        start = self._col("theta_err1")
        return self.data[:, start : start + self.num_subsystems]

    @property
    def x_error(self) -> np.ndarray:
        return self.data[:, self._col("x_err")]

    @property
    def excitation(self) -> np.ndarray:
        start = self._col("exc1")
        return self.data[:, start : start + self.num_subsystems]


def traces_equal(a: SimulationTrace, b: SimulationTrace) -> bool:
    return (
        a.meta == b.meta
        and np.array_equal(a.data, b.data)
        and a.switch_times == b.switch_times
        and np.array_equal(
            np.asarray(a.pre_reset_delta), np.asarray(b.pre_reset_delta), equal_nan=True
        )
    )


def _format_float_list(values) -> str:
    return "[" + ",".join("%.17g" % v for v in values) + "]"


def _parse_float_list(text: str) -> list[float]:
    body = text.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise TraceFormatError(f"malformed list in trace header: {text!r}")
    body = body[1:-1].strip()
    if not body:
        return []
    return [float(tok) for tok in body.split(",")]


# Rows per formatted or parsed block: bounds the text held at once.
BLOCK_ROWS = 1024


def _header_text(trace: SimulationTrace) -> str:
    seed = trace.meta.get("seed")
    lines = [
        f"# {FORMAT_TAG}",
        "# meta: " + json.dumps(trace.meta, sort_keys=True, separators=(",", ":")),
        f"# seed: {seed if seed is not None else 'none'}",
        "# switch_times: " + _format_float_list(trace.switch_times),
        "# pre_reset_delta: " + _format_float_list(trace.pre_reset_delta),
        ",".join(trace.columns),
    ]
    return "\n".join(lines) + "\n"


def _text_blocks(trace: SimulationTrace):
    """The canonical text in pieces: the header, then the data rows a block
    at a time, each block formatted by a single ``%``."""
    yield _header_text(trace)
    width = trace.data.shape[1]
    row = ",".join(["%.17g", "%d"] + ["%.17g"] * (width - 2)) + "\n"
    for lo in range(0, trace.data.shape[0], BLOCK_ROWS):
        block = trace.data[lo : lo + BLOCK_ROWS]
        yield (row * block.shape[0]) % tuple(block.ravel().tolist())


def trace_to_string(trace: SimulationTrace) -> str:
    """Render the canonical CSV text (deterministic byte-for-byte)."""
    return "".join(_text_blocks(trace))


def write_trace(trace: SimulationTrace, path) -> None:
    """Stream the canonical CSV text to ``path``, a block of rows at a time."""
    try:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            for text in _text_blocks(trace):
                fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write trace to {path}: {exc}") from exc


def _row_error(path, rows: list[str], first: int, width: int, reason) -> TraceFormatError:
    """The error for the first malformed row of a block that did not parse."""
    for r, line in enumerate(rows, start=first):
        fields = line.rstrip("\n").split(",")
        if len(fields) != width:
            return TraceFormatError(
                f"{path}: row {r} has {len(fields)} fields, expected {width}"
            )
        for field_text in fields:
            try:
                float(field_text)
            except ValueError:
                return TraceFormatError(f"{path}: row {r} has a non-numeric field {field_text!r}")
    return TraceFormatError(f"{path}: rows {first}..{first + len(rows) - 1}: {reason}")


def _parse_rows(path, lines, width: int) -> np.ndarray:
    """The data rows left in the line iterator ``lines``, read and parsed a
    block at a time by numpy's C reader.  Comment handling is off, and blank
    rows, which the reader would skip, are rejected, so every row must be
    ``width`` numbers."""
    blocks = [np.empty((0, width))]
    first = 0
    while block := list(itertools.islice(lines, BLOCK_ROWS)):
        if "\n" in block:
            raise TraceFormatError(f"{path}: row {first + block.index(chr(10))} is blank")
        try:
            values = np.loadtxt(block, delimiter=",", comments=None, ndmin=2)
        except ValueError as exc:
            raise _row_error(path, block, first, width, exc) from None
        if values.shape != (len(block), width):
            raise _row_error(path, block, first, width, f"parsed as {values.shape}")
        blocks.append(values)
        first += len(block)
    return np.concatenate(blocks)


def _header_value(path, content: str, key: str, parse):
    try:
        return parse(content[len(key) :])
    except ValueError as exc:
        raise TraceFormatError(f"{path}: malformed '{key}' header line: {exc}") from None


def _read_lines(path, lines):
    """Header values, column names and data of the trace text in the line
    iterator ``lines``."""
    if next(lines, "").rstrip("\n") != f"# {FORMAT_TAG}":
        raise TraceFormatError(f"{path}: missing format tag '{FORMAT_TAG}'")
    meta = None
    switch_times: list[float] = []
    pre_reset: list[float] = []
    header = None
    for line in lines:
        if not line.startswith("#"):
            header = line.rstrip("\n").split(",")
            break
        content = line[1:].strip()
        if content.startswith("meta:"):
            meta = _header_value(path, content, "meta:", json.loads)
            if not isinstance(meta, dict):
                raise TraceFormatError(f"{path}: 'meta:' header line is not a JSON object")
        elif content.startswith("switch_times:"):
            switch_times = _header_value(path, content, "switch_times:", _parse_float_list)
        elif content.startswith("pre_reset_delta:"):
            pre_reset = _header_value(path, content, "pre_reset_delta:", _parse_float_list)
    if meta is None or header is None:
        raise TraceFormatError(f"{path}: incomplete trace header")
    return meta, switch_times, pre_reset, header, _parse_rows(path, lines, len(header))


def read_trace(path) -> SimulationTrace:
    """Parse a trace CSV back into an equal SimulationTrace.  The file is
    streamed: only one block of data rows is held as text at a time."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            meta, switch_times, pre_reset, header, data = _read_lines(path, iter(fh))
    except OSError as exc:
        raise OSError(f"cannot read trace from {path}: {exc}") from exc
    except UnicodeDecodeError:
        raise TraceFormatError(f"{path}: not an ASCII text file") from None
    try:
        trace = SimulationTrace(
            meta=meta, data=data, switch_times=switch_times, pre_reset_delta=pre_reset
        )
    except (TypeError, ValueError) as exc:
        raise TraceFormatError(f"{path}: {exc}") from None
    if header != trace.columns:
        raise TraceFormatError(f"{path}: column header does not match the declared dimensions")
    return trace
