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
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import TraceFormatError

FORMAT_TAG = "dremobs-trace 1"


def column_blocks(n: int, m: int, s: int) -> tuple:
    """The column blocks of a row, in order: the view's name, the prefix of
    its column names and the shape of one row of the block.  This table is
    the one statement of the layout; a column is named by its prefix and its
    1-based index within the block (``thetahat2_1``), a scalar block by its
    prefix alone."""
    return (
        ("t", "t", ()),
        ("sigma_float", "sigma", ()),
        ("x", "x", (n,)),
        ("xhat", "xhat", (n,)),
        ("y", "y", ()),
        ("ybar", "ybar", ()),
        ("z", "z", (m + n,)),
        ("delta", "delta", ()),
        ("theta_hat", "thetahat", (s, m)),
        ("theta_error", "theta_err", (s,)),
        ("x_error", "x_err", ()),
        ("excitation", "exc", (s,)),
    )


def column_names(n: int, m: int, s: int) -> list[str]:
    return [
        prefix + "_".join(str(i + 1) for i in index)
        for _, prefix, shape in column_blocks(n, m, s)
        for index in itertools.product(*map(range, shape))
    ]


@dataclass(eq=False)
class SimulationTrace:
    """One row per grid point plus switch-event markers.

    ``meta`` must contain the dimensions ``n``, ``m``, ``s``; the remaining
    entries echo the run configuration.  ``pre_reset_delta`` aligns with
    ``switch_times`` (NaN for the initial reset, which has no prior state).

    Each block of ``column_blocks`` is an attribute named after it, a view
    of ``data`` of shape (rows, *block shape) bound once when the trace is
    built: ``t``, ``sigma_float``, ``x``, ``xhat``, ``y``, ``ybar``, ``z``,
    ``delta``, ``theta_hat`` (rows, s, m), ``theta_error``, ``x_error`` and
    ``excitation``.  A write through a view lands in ``data``.  The package
    never reassigns ``data``, deep-copies or pickles a trace, so the views
    bound once stay views of ``data``.  ``sigma`` is an int copy of the
    ``sigma_float`` column, and ``columns`` holds the column names.

    ``==`` is identity, as for any object: ``traces_equal`` compares two
    traces' contents.
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
            value = self.meta[key]
            if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < 1:
                raise TraceFormatError(f"trace meta '{key}' must be an integer >= 1, got {value!r}")
        # The column count, compared before any name is built.
        rows, width = self.data.shape
        dims = self.n, self.m, self.num_subsystems
        blocks = column_blocks(*dims)
        count = sum(math.prod(shape) for _, _, shape in blocks)
        if width != count:
            raise TraceFormatError(
                f"trace has {width} columns, expected {count} for the declared dimensions"
            )
        self.columns = column_names(*dims)
        start = 0
        for view, _, shape in blocks:
            stop = start + math.prod(shape)
            setattr(self, view, self.data[:, start:stop].reshape(rows, *shape))
            start = stop
        if len(self.pre_reset_delta) != len(self.switch_times):
            raise TraceFormatError("pre_reset_delta must align with switch_times")
        if not np.isfinite(self.t).all():
            raise TraceFormatError("time column must be finite")
        if rows > 1 and np.any(np.diff(self.t) <= 0):
            raise TraceFormatError("time column must be strictly increasing")

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
    def sigma(self) -> np.ndarray:
        return self.sigma_float.astype(int)


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
    row = ",".join("%d" if name == "sigma" else "%.17g" for name in trace.columns) + "\n"
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
    except (ValueError, RecursionError) as exc:
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
    streamed: only one block of data rows is held as text at a time.  Every
    row's ``sigma`` must be a subsystem index, an integer in 1..s, and every
    data value must be finite, so no panel drawn from the trace plots
    ``nan``."""
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
    sigma, s = trace.sigma_float, trace.num_subsystems
    bad = np.flatnonzero(~np.isin(sigma, np.arange(1, s + 1)))
    if bad.size:
        raise TraceFormatError(
            f"{path}: row {bad[0]} has sigma {float(sigma[bad[0]])!r}, "
            f"expected an integer in 1..{s}"
        )
    bad = np.argwhere(~np.isfinite(trace.data))
    if bad.size:
        row, col = bad[0]
        raise TraceFormatError(
            f"{path}: row {row} has {trace.columns[col]} {float(trace.data[row, col])!r}, "
            "expected a finite number"
        )
    return trace
