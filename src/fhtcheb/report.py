"""CSV, JSON and SVG output for the CLI.

CSV files carry a `x,value` (or `x,value,reference`) header, the CLI's
tables their own, and 17 significant digits per float so 64-bit values
round-trip losslessly. Input CSVs must be ASCII, without a byte-order mark. SVG
plots are self-contained 800x500 documents built from inline polylines.
Each CSV body and each polyline is formatted in one `%` call over a repeated
per-value template, giving the bytes of formatting each value on its own; a
CSV is parsed in one pass, and its rows are walked only to name a bad line.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import InputError

_FMT = "%.17g"


@dataclass(frozen=True)
class CsvData:
    x: np.ndarray
    value: np.ndarray
    reference: np.ndarray | None


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
    by default the header is x,value[,reference]."""
    cols = [np.asarray(c, dtype=float) for c in columns if c is not None]
    if len({len(c) for c in cols}) > 1:
        raise ValueError(f"columns differ in length: {[len(c) for c in cols]}")
    header = header or ",".join(["x", "value", "reference"][:len(cols)])
    table = np.column_stack(cols)
    row = ",".join([_FMT] * len(cols)) + "\n"
    _write_text(path, header + "\n" + row * len(table) % tuple(table.ravel().tolist()))


def read_csv(path) -> CsvData:
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:  # a UTF-8 byte-order mark too
        byte = exc.object[exc.start]
        raise InputError(f"{path}: not an ASCII file (byte 0x{byte:02x})") from exc
    if not lines:
        raise InputError(f"{path}: empty file")
    header = [c.strip() for c in lines[0].split(",")]
    if header[:2] != ["x", "value"] or len(header) > 3 or (
        len(header) == 3 and header[2] != "reference"
    ):
        raise InputError(f"{path}:1: expected header 'x,value[,reference]'")
    ncol = len(header)
    rows = [line.split(",") for line in lines[1:] if line.strip()]
    if not rows:
        raise InputError(f"{path}: no data rows")
    ok = all(len(r) == ncol for r in rows)
    try:
        arr = np.array(list(map(float, chain.from_iterable(rows))))
    except ValueError:
        ok = False
    if not (ok and np.isfinite(arr).all()):
        _raise_row_fault(path, lines, ncol)
    arr = arr.reshape(-1, ncol)
    ref = arr[:, 2] if ncol == 3 else None
    return CsvData(x=arr[:, 0], value=arr[:, 1], reference=ref)


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
        xy = np.column_stack((px(x[good]), py(y[good])))
        pts = " ".join(["%.2f,%.2f"] * len(xy)) % tuple(xy.ravel().tolist())
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
