"""The CLI's text formats, pinned against one-value-at-a-time references."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fhtcheb.errors import InputError
from fhtcheb.report import (
    _H, _MB, _ML, _MR, _MT, _W, _csv_body, _parse_x, _svg_points, read_csv, write_csv,
    write_json_report, write_svg,
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


@pytest.mark.parametrize("ncol", [2, 3])
def test_write_csv_hit_writes_the_bytes_of_a_miss(tmp_path, capsys, ncol):
    rng = np.random.default_rng(ncol)
    x, other_x = np.cos(np.arange(50) * 0.1), np.linspace(-1.0, 1.0, 50)
    values = [rng.standard_normal(50) for _ in range(ncol - 1)]
    _csv_body.cache_clear()
    header = "x,value,reference" if ncol == 3 else "x,value"
    for xs in (x, other_x):  # two x columns of one length: two templates
        want = _reference_csv(header, [xs, *values])
        for name in ("miss.csv", "hit.csv"):
            write_csv(tmp_path / name, xs, *values)
            assert (tmp_path / name).read_text(encoding="ascii") == want
        write_csv(None, xs, *values)
        assert capsys.readouterr().out == want
        values = [v[::-1] for v in values]  # the template holds no value column
    info = _csv_body.cache_info()
    assert (info.misses, info.hits) == (2, 4)


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


def test_write_svg_hit_writes_the_bytes_of_a_miss(tmp_path):
    x = np.linspace(-1.0, 1.0, 30)
    y = np.sin(3.0 * x)
    y_nan = y.copy()
    y_nan[[4, 20]] = math.nan  # the same x, fewer good points: another template
    _svg_points.cache_clear()
    for ys in (y, y_nan, 2.0 * y, y_nan + 1.0):
        series = [("a", x, ys)]
        write_svg(tmp_path / "p.svg", series)
        got = re.findall(r'<polyline points="([^"]*)"', (tmp_path / "p.svg").read_text())
        assert got == _reference_points(series)
    assert len(got[0].split()) == 28
    info = _svg_points.cache_info()
    assert (info.misses, info.hits) == (2, 2)


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


def test_read_csv_names_the_faulty_line_after_a_cached_x(tmp_path):
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    good.write_text("x,value\n0.1,1.0\n0.5,2.0\n0.9,3.0\n")
    bad.write_text("x,value\n0.1,1.0\n0.5,inf\n0.9,3.0\n")
    read_csv(good)
    with pytest.raises(InputError, match=re.escape("bad.csv:3: non-finite value")):
        read_csv(bad)


def test_read_csv_x_is_shared_and_read_only(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("x,value\n0.1,1.0\n0.5,2.0\n")
    first = read_csv(p)
    with pytest.raises(ValueError, match="read-only"):
        first.x[0] = 7.0
    second = read_csv(p)
    assert second.x is first.x and second.x.tolist() == [0.1, 0.5]
    second.value[0] = 7.0  # the value column is the reader's own
    assert read_csv(p).value.tolist() == [1.0, 2.0]


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(st.lists(st.tuples(_FINITE, _FINITE, _FINITE), min_size=1, max_size=40), st.booleans())
def test_csv_round_trip_is_lossless_on_every_read(tmp_path_factory, rows, with_reference):
    cols = [np.array(c) for c in zip(*rows)][:3 if with_reference else 2]
    p = tmp_path_factory.mktemp("rt") / "t.csv"
    write_csv(p, *cols)
    for _ in range(2):  # a parse of x, then its cached copy
        data = read_csv(p)
        got = [data.x, data.value] + ([data.reference] if with_reference else [])
        for g, want in zip(got, cols):
            assert g.tobytes() == want.tobytes()
    assert _parse_x.cache_info().hits > 0


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
