"""CSV, JSON and SVG output for the CLI.

CSV files carry a `x,value` (or `x,value,reference`) header, the CLI's tables their
own, and 17 significant digits per float so 64-bit values round-trip losslessly.
Input CSVs must be ASCII, without a byte-order mark, with at most MAX_DEGREE + 1 =
2049 data rows. SVG plots are self-contained 800x500 documents of inline polylines.
The x columns (grid nodes, display grid, pixel x) repeat from command to
command, so each is converted once per process. `_template` (per x, field and
separator, CSV rows and SVG points alike; 32 entries, at most 92 kB each at N = 2049,
a three-column CSV of 24-character x fields) keeps it formatted in a template that
one `%` call over the other columns fills, giving the bytes of formatting each value
on its own; `_parse_x` keeps it parsed and read-only per tuple of x fields (8, 185 kB
for fields of up to 24 characters). A command's input is often a file that an earlier
one wrote, so `_TEXTS` keeps the columns of the last 8 texts parsed or written in a
form read_csv accepts (at most 203 kB each at N = 2049), keyed by the whole text, so
none of them is parsed again. That is 6.0 MB at most, beside the transforms' cache of
HD's generator (3N-1 floats per N). Rows are walked only to name a bad line.
"""

from __future__ import annotations

import json
import math
import sys
import threading
from contextlib import suppress
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InputError
from .grids import MAX_DEGREE

_FMT = "%.17g"
_HEADERS = ("x,value", "x,value,reference")  # the headers read_csv accepts, spaces stripped


@dataclass(frozen=True)
class CsvData:
    x: np.ndarray
    value: np.ndarray
    reference: np.ndarray | None
    from_cache: bool = False  # read_csv found the file's text in its cache and parsed nothing


_TEXTS: dict[str, CsvData] = {}  # CSV text -> its columns, least recently used first
_TEXTS_LOCK = threading.Lock()
_TEXT_ENTRIES = 8


def _remember(text: str, data: CsvData) -> None:
    """Keep data, whose arrays but x no caller holds, for text; the least recent goes first."""
    with _TEXTS_LOCK:
        _TEXTS.pop(text, None)
        if len(_TEXTS) == _TEXT_ENTRIES:
            del _TEXTS[next(iter(_TEXTS))]
        _TEXTS[text] = data


def _write_text(path, text: str) -> None:
    """Write text to the file at path, or to stdout if path is None; a file that
    cannot be written is an InputError."""
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def write_csv(path, *columns, header=None) -> None:
    """The columns that are not None, to path (stdout if None), under header;
    by default the header is x,value[,reference]. A file that read_csv accepts is
    remembered with its columns, which `%.17g` gives back bit for bit."""
    cols = [np.asarray(c, dtype=float) for c in columns if c is not None]
    if len({len(c) for c in cols}) > 1:
        raise ValueError(f"columns differ in length: {[len(c) for c in cols]}")
    header = header or ",".join(["x", "value", "reference"][:len(cols)])
    body = _template(cols[0].tobytes(), _FMT + (",%" + _FMT) * (len(cols) - 1) + "\n", "")
    text = header + "\n" + body % tuple(np.array(cols[1:]).T.ravel().tolist())
    _write_text(path, text)
    if path is not None and header in _HEADERS and header.count(",") + 1 == len(cols) \
            and 0 < len(cols[0]) <= MAX_DEGREE + 1 and np.isfinite(cols).all():
        x, value, *reference = (np.array(c) for c in cols)
        x.flags.writeable = False
        _remember(text, CsvData(x, value, reference[0] if reference else None))


@lru_cache(maxsize=32)
def _template(x: bytes, field: str, sep: str) -> str:
    """field once per value of the float64 column x, joined by sep, with the value in its
    first `%` field; a "%%" field ("%%.17g" formats as "%.17g") is left for the other columns."""
    return sep.join([field] * (len(x) // 8)) % tuple(np.frombuffer(x).tolist())


def read_csv(path) -> CsvData:
    """The columns of the CSV at path. More than MAX_DEGREE + 1 data rows are refused
    before any field is split: the CLI resamples a degree N - 1 series for display.
    A text this process read or wrote before is looked up, not parsed (from_cache)."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:  # a UTF-8 byte-order mark too
        byte = exc.object[exc.start]
        raise InputError(f"{path}: not an ASCII file (byte 0x{byte:02x})") from exc
    with _TEXTS_LOCK:
        cached = _TEXTS.get(text)
    data = cached or _parse_csv(path, text)
    _remember(text, data)
    reference = None if data.reference is None else data.reference.copy()
    return CsvData(data.x, data.value.copy(), reference, cached is not None)


def _parse_csv(path, text: str) -> CsvData:
    """The columns of the text read from path, or the InputError that read_csv raises."""
    lines = text.splitlines()
    if not lines:
        raise InputError(f"{path}: empty file")
    header = ",".join(c.strip() for c in lines[0].split(","))
    if header not in _HEADERS:
        raise InputError(f"{path}:1: expected header 'x,value[,reference]'")
    ncol = header.count(",") + 1
    rows = [line for line in lines[1:] if line.strip()]
    if not rows:
        raise InputError(f"{path}: no data rows")
    if len(rows) > MAX_DEGREE + 1:
        raise InputError(f"{path}: at most {MAX_DEGREE + 1} rows, got {len(rows)}")
    rows = [line.split(",") for line in rows]
    cols = []
    with suppress(ValueError):  # a field that is not a float
        if all(len(r) == ncol for r in rows):
            x, *rest = zip(*rows)
            cols = [_parse_x(x), *(np.array(list(map(float, c))) for c in rest)]
    if not (cols and all(np.isfinite(c).all() for c in cols)):
        _raise_row_fault(path, lines, ncol)
    return CsvData(x=cols[0], value=cols[1], reference=cols[2] if ncol == 3 else None)


@lru_cache(maxsize=8)
def _parse_x(fields: tuple) -> np.ndarray:
    """The x column parsed from its field strings, read-only since it is shared."""
    x = np.array(list(map(float, fields)))
    x.flags.writeable = False
    return x


def _raise_row_fault(path, lines, ncol: int) -> None:
    """Raise the InputError of the first data row that read_csv rejects."""
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != ncol:
            raise InputError(f"{path}:{lineno}: expected {ncol} columns, got {len(parts)}")
        try:
            row = [float(p) for p in parts]
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from exc
        if not all(map(math.isfinite, row)):
            raise InputError(f"{path}:{lineno}: non-finite value")


def _finite_or_null(value):
    """value with every non-finite float in it, at any depth, replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def write_json_report(path, report: dict) -> None:
    """report as strict JSON: a NaN or infinite float is written as null."""
    text = json.dumps(_finite_or_null(report), indent=2, sort_keys=True, allow_nan=False)
    _write_text(path, text + "\n")


# ---------------------------------------------------------------------------
# SVG

_W, _H = 800, 500
_ML, _MR, _MT, _MB = 60, 20, 30, 40
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")


def write_svg(path, series, title="") -> None:
    """series: iterable of (label, x array, y array)."""
    series = [(lbl, np.asarray(x, float), np.asarray(y, float)) for lbl, x, y in series]
    xs = np.concatenate([x[np.isfinite(x)] for _, x, _ in series] or [np.array([0.0, 1.0])])
    ys = np.concatenate([y[np.isfinite(y)] for _, _, y in series] or [np.array([0.0, 1.0])])
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    pw, ph = _W - _ML - _MR, _H - _MT - _MB

    def px(x):
        return _ML + (x - x0) / (x1 - x0) * pw

    def py(y):
        return _MT + (y1 - y) / (y1 - y0) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" fill="none" '
        'stroke="black" stroke-width="1"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_W / 2}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{title}</text>'
        )
    for val, xx, yy, anchor in (
        (x0, px(x0), _H - _MB + 16, "middle"),
        (x1, px(x1), _H - _MB + 16, "middle"),
        (y0, _ML - 6, py(y0) + 4, "end"),
        (y1, _ML - 6, py(y1) + 4, "end"),
    ):
        parts.append(
            f'<text x="{xx:.1f}" y="{yy:.1f}" text-anchor="{anchor}" '
            f'font-family="sans-serif" font-size="11">{val:.4g}</text>'
        )
    for i, (lbl, x, y) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        good = np.isfinite(x) & np.isfinite(y)
        pts = _template(px(x[good]).tobytes(), "%.2f,%%.2f", " ") % tuple(py(y[good]).tolist())
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        ly = _MT + 16 + 16 * i
        parts.append(
            f'<line x1="{_W - 150}" y1="{ly - 4}" x2="{_W - 130}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{_W - 124}" y="{ly}" font-family="sans-serif" '
            f'font-size="12">{lbl}</text>'
        )
    parts.append("</svg>")
    _write_text(path, "\n".join(parts) + "\n")


def uniform_grid(n: int) -> np.ndarray:
    """Evenly spaced interior display grid x_k = (2k + 1 - N)/N, k = 0..N-1."""
    k = np.arange(n)
    return (2.0 * k + 1.0 - n) / n
