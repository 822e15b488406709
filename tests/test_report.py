"""The CLI's text formats, pinned against one-value-at-a-time references."""

import json
import math
import re

import numpy as np
import pytest

from fhtcheb.errors import InputError
from fhtcheb.report import (
    _H, _MB, _ML, _MR, _MT, _W, read_csv, write_csv, write_json_report, write_svg,
)

SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
           1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1.0 / 3.0]


def _reference_csv(header, cols):
    """The CSV text with every value formatted on its own."""
    rows = zip(*(np.asarray(c, dtype=float).tolist() for c in cols))
    return header + "\n" + "".join(",".join("%.17g" % v for v in row) + "\n" for row in rows)


@pytest.mark.parametrize("ncol", [2, 3])
def test_write_csv_matches_per_value_format(tmp_path, ncol):
    rng = np.random.default_rng(7)
    cols = [np.concatenate([SPECIAL, rng.standard_normal(40) * 10.0 ** rng.integers(-300, 300, 40)])
            for _ in range(ncol)]
    cols[1] = cols[1][::-1]
    p = tmp_path / "t.csv"
    write_csv(p, *cols)
    header = "x,value,reference" if ncol == 3 else "x,value"
    assert p.read_text(encoding="ascii") == _reference_csv(header, cols)


def test_write_csv_rejects_columns_of_different_lengths(tmp_path):
    with pytest.raises(ValueError, match=r"\[3, 2\]"):
        write_csv(tmp_path / "t.csv", [0.0, 0.5, 1.0], [1.0, 2.0])
    with pytest.raises(ValueError, match=r"\[2, 2, 3\]"):
        write_csv(tmp_path / "t.csv", [0.0, 0.5], [1.0, 2.0], [1.0, 2.0, 3.0])


def test_write_csv_header_and_stdout(tmp_path, capsys):
    cols = [[64, 128], [3.05, 1.0 / 3.0], [1.5, -0.0]]
    want = _reference_csv("n,norm_d,norm_m", cols)
    write_csv(tmp_path / "t.csv", *cols, header="n,norm_d,norm_m")
    write_csv(None, *cols, header="n,norm_d,norm_m")
    assert (tmp_path / "t.csv").read_text(encoding="ascii") == want == capsys.readouterr().out
    write_csv(None, cols[0], cols[1], None)  # a None column is skipped
    assert capsys.readouterr().out == _reference_csv("x,value", cols[:2])


@pytest.mark.parametrize("raw", [b"\xef\xbb\xbfx,value\n0.5,1\n", b"x,value\n0.5,1\xb5\n"])
def test_read_csv_refuses_non_ascii_naming_the_file(tmp_path, raw):
    p = tmp_path / "t.csv"
    p.write_bytes(raw)
    with pytest.raises(InputError, match=re.escape(str(p))):
        read_csv(p)


def _reference_points(series):
    """Each polyline's points with every coordinate formatted on its own."""
    xs = [a for _, x, _ in series for a in x if math.isfinite(a)]
    ys = [b for _, _, y in series for b in y if math.isfinite(b)]
    x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
    pw, ph = _W - _ML - _MR, _H - _MT - _MB
    return [
        " ".join(f"{_ML + (a - x0) / (x1 - x0) * pw:.2f},{_MT + (y1 - b) / (y1 - y0) * ph:.2f}"
                 for a, b in zip(x, y) if math.isfinite(a) and math.isfinite(b))
        for _, x, y in series
    ]


@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
def test_write_svg_points_match_per_point_format(tmp_path, scale):
    rng = np.random.default_rng(11)
    x = rng.standard_normal(60) * scale
    y = rng.standard_normal(60) * scale
    x[[3, 17]] = [math.nan, -math.inf]
    y[[5, 17, 40]] = [math.inf, math.nan, -0.0]
    series = [("a", x.tolist(), y.tolist()), ("b", np.sort(x).tolist(), (0.5 * y).tolist())]
    p = tmp_path / "p.svg"
    write_svg(p, series, title="t")
    got = re.findall(r'<polyline points="([^"]*)"', p.read_text(encoding="ascii"))
    want = _reference_points(series)
    assert got == want
    # a drops rows 3, 5 and 17; b drops 5, 17 and its sorted x's -inf and nan
    assert [len(pts.split()) for pts in got] == [57, 56]


@pytest.mark.parametrize("row, message", [
    ("0.5,1.0,2.0", "expected 2 columns, got 3"),
    ("0.5,oops", "could not convert string to float: 'oops'"),
    ("0.5,nan", "non-finite value"),
])
def test_read_csv_names_the_faulty_line(tmp_path, row, message):
    p = tmp_path / "bad.csv"
    p.write_text("x,value\n0.1,1.0\n\n  \n" + row + "\n0.9,2.0\n")
    with pytest.raises(InputError, match=re.escape(f"bad.csv:5: {message}")):
        read_csv(p)


def test_read_csv_reports_the_first_faulty_line(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("x,value\n0.1,1.0\n\n0.3,inf\n0.5,x\n0.7,1.0,2.0\n")
    with pytest.raises(InputError, match=re.escape("bad.csv:4: non-finite value")):
        read_csv(p)


@pytest.mark.parametrize("text", ["x,value\n", "x,value,reference\n\n  \n"])
def test_read_csv_header_only(tmp_path, text):
    p = tmp_path / "h.csv"
    p.write_text(text)
    with pytest.raises(InputError, match="no data rows"):
        read_csv(p)


def _strict_json(path):
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(path.read_text(), parse_constant=refuse)


def test_json_report_writes_non_finite_floats_as_null(tmp_path):
    p = tmp_path / "r.json"
    report = {"a": math.nan, "b": [1.5, math.inf, (np.float64(-math.inf), 2)],
              "c": {"d": -math.inf, "e": np.float64(0.25)}, "f": None, "g": "x", "h": 3}
    write_json_report(p, report)
    assert _strict_json(p) == {"a": None, "b": [1.5, None, [None, 2]],
                               "c": {"d": None, "e": 0.25}, "f": None, "g": "x", "h": 3}


def test_json_report_of_finite_values_unchanged(tmp_path):
    p = tmp_path / "r.json"
    report = {"n": 64, "x": [0.1, 1.0 / 3.0, 5e-324], "y": {"z": -1.7976931348623157e308}}
    write_json_report(p, report)
    assert p.read_text() == json.dumps(report, indent=2, sort_keys=True) + "\n"
