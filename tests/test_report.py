"""The CLI's text formats, pinned against one-value-at-a-time references."""

import json
import math
import re
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fhtcheb.cli import main
from fhtcheb.errors import InputError
from fhtcheb.grids import MAX_DEGREE, GridKind, cgl_nodes
from fhtcheb.report import (
    _H, _MB, _ML, _MR, _MT, _TEXT_ENTRIES, _TEXTS, _W, _parse_x, _template,
    read_csv, write_csv, write_json_report, write_svg,
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
    _template.cache_clear()
    header = "x,value,reference" if ncol == 3 else "x,value"
    for xs in (x, other_x):  # two x columns of one length: two templates
        want = _reference_csv(header, [xs, *values])
        for name in ("miss.csv", "hit.csv"):
            write_csv(tmp_path / name, xs, *values)
            assert (tmp_path / name).read_text(encoding="ascii") == want
        write_csv(None, xs, *values)
        assert capsys.readouterr().out == want
        values = [v[::-1] for v in values]  # the template holds no value column
    info = _template.cache_info()
    assert (info.misses, info.hits) == (2, 4)


@pytest.mark.parametrize("rows", [1, MAX_DEGREE + 1])
@pytest.mark.parametrize("ncol", [1, 2, 3])
def test_write_csv_of_one_to_three_columns_formats_each_value(tmp_path, rows, ncol):
    # The template's rows are joined with no separator: no row lost or doubled at either end.
    rng = np.random.default_rng([rows, ncol])
    cols = [rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows) for _ in range(ncol)]
    header = ",".join(["x", "value", "reference"][:ncol])
    want = _reference_csv(header, cols)
    for _ in range(2):  # a miss, then a hit
        write_csv(tmp_path / "t.csv", *cols)
        assert (tmp_path / "t.csv").read_bytes() == want.encode("ascii")


def test_template_cache_is_bounded():
    _template.cache_clear()
    for k in range(40):
        write_csv(None, np.linspace(-1.0, 1.0, 8) + k, np.zeros(8))
    info = _template.cache_info()
    assert info.maxsize == 32 and info.currsize == 32 and info.misses == 40


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
    _template.cache_clear()
    for ys in (y, y_nan, 2.0 * y, y_nan + 1.0):
        series = [("a", x, ys)]
        write_svg(tmp_path / "p.svg", series)
        got = re.findall(r'<polyline points="([^"]*)"', (tmp_path / "p.svg").read_text())
        assert got == _reference_points(series)
    assert len(got[0].split()) == 28
    info = _template.cache_info()
    assert (info.misses, info.hits) == (2, 2)


def _svg_coordinates(text):
    """Every coordinate of a whole SVG text: the x, y, size and points attributes."""
    assert text.startswith("<svg ") and text.endswith("</svg>\n")
    values = re.findall(r' (?:x|y|x1|y1|x2|y2|width|height)="([^"]*)"', text)
    points = re.findall(r'<polyline points="([^"]*)"', text)
    return [float(v) for v in values], [[tuple(map(float, xy.split(","))) for xy in pts.split()]
                                        for pts in points]


def test_write_svg_of_a_zero_forward_collapses_the_y_range(tmp_path):
    # f = 0 and its F are 0 at every node: y1 = y0 + 1 puts both lines on the plot's bottom edge
    g = cgl_nodes(GridKind.TNODES, 64)
    write_csv(tmp_path / "f.csv", g.nodes, np.zeros(64))
    assert main(["forward", "--input", str(tmp_path / "f.csv"), "--output",
                 str(tmp_path / "F.csv"), "--plot", str(tmp_path / "F.svg")]) == 0
    values, lines = _svg_coordinates((tmp_path / "F.svg").read_text(encoding="ascii"))
    assert all(math.isfinite(v) for v in values + [c for ln in lines for xy in ln for c in xy])
    assert [len(ln) for ln in lines] == [64, 64]
    assert {y for ln in lines for _, y in ln} == {_H - _MB}


def test_write_svg_of_one_point_collapses_the_x_range(tmp_path):
    # x1 = x0 + 1 and y1 = y0 + 1 put the one point at the plot's lower left corner
    write_svg(tmp_path / "p.svg", [("a", [0.5], [2.0])])
    values, points = _svg_coordinates((tmp_path / "p.svg").read_text(encoding="ascii"))
    assert all(math.isfinite(v) for v in values)
    assert points == [[(float(_ML), float(_H - _MB))]]


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
        _TEXTS.clear()  # so the text is parsed, not found in the text cache
        data = read_csv(p)
        got = [data.x, data.value] + ([data.reference] if with_reference else [])
        for g, want in zip(got, cols):
            assert g.tobytes() == want.tobytes()
    assert _parse_x.cache_info().hits > 0


# The floats whose text is least like the others': signed zero, subnormals, extremes.
_EDGES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308,
                          1.7976931348623157e308])
_COLUMN_VALUE = st.one_of(_EDGES, _FINITE)


def _columns(data):
    return [data.x, data.value] + ([] if data.reference is None else [data.reference])


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.lists(st.tuples(_COLUMN_VALUE, _COLUMN_VALUE, _COLUMN_VALUE), min_size=1,
                max_size=40), st.booleans())
def test_cached_read_gives_the_bytes_of_a_fresh_parse(tmp_path_factory, rows, with_reference):
    cols = [np.array(c) for c in zip(*rows)][:3 if with_reference else 2]
    p = tmp_path_factory.mktemp("cache") / "t.csv"
    write_csv(p, *cols)
    cached = read_csv(p)  # the text write_csv remembered
    _TEXTS.clear()
    fresh = read_csv(p)
    assert cached.from_cache and not fresh.from_cache
    assert len(_columns(cached)) == len(_columns(fresh)) == len(cols)
    for c, f, want in zip(_columns(cached), _columns(fresh), cols):
        assert c.tobytes() == f.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed_by", ["write_csv", "read_csv"])
def test_cached_value_and_reference_are_each_reads_own(tmp_path, seed_by):
    p = tmp_path / "t.csv"
    x, v, r = np.array([0.1, 0.5, 0.9]), np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0])
    write_csv(p, x, v, r)
    if seed_by == "read_csv":
        _TEXTS.clear()
        assert not read_csv(p).from_cache  # a parse, remembered
    first, second = read_csv(p), read_csv(p)
    assert first.from_cache and second.from_cache
    for a, b in ((first.value, second.value), (first.reference, second.reference)):
        assert a.flags.writeable and b.flags.writeable and not np.shares_memory(a, b)
    first.value[:] = first.reference[:] = -7.0
    v[:] = r[:] = -8.0  # the columns written are the writer's own too
    for data in (second, read_csv(p)):
        assert data.value.tolist() == [1.0, 2.0, 3.0]
        assert data.reference.tolist() == [4.0, 5.0, 6.0]


def test_file_edited_after_write_is_parsed_again(tmp_path):
    p = tmp_path / "t.csv"
    write_csv(p, [0.1, 0.5], [1.25, 2.5])
    text = p.read_text()
    p.write_text(text.replace("1.25", "1.35"))
    data = read_csv(p)
    assert not data.from_cache and data.value.tolist() == [1.35, 2.5]
    p.write_text(text)  # back to the bytes written: its columns are still the written ones
    data = read_csv(p)
    assert data.from_cache and data.value.tolist() == [1.25, 2.5]


@pytest.mark.parametrize("raw, message", [
    (b"x,val\n0.1,1.0\n", "expected header"),
    (b"x,value\n0.1,1.0\n0.5,oops\n", "could not convert string to float"),
    (b"x,value\n0.1,1.0\n0.5,inf\n", "non-finite value"),
    (b"x,value\n" + b"0.5,1.0\n" * (MAX_DEGREE + 2), f"at most {MAX_DEGREE + 1} rows"),
    (b"x,value\n0.1,1.0\xe9\n", "not an ASCII file"),
])
def test_refused_text_is_not_cached(tmp_path, raw, message):
    p = tmp_path / "bad.csv"
    p.write_bytes(raw)
    errors = []
    for _ in range(2):
        before = dict(_TEXTS)
        with pytest.raises(InputError, match=re.escape(message)) as exc:
            read_csv(p)
        errors.append(str(exc.value))
        assert _TEXTS == before
    assert errors[0] == errors[1]


@pytest.mark.parametrize("columns, header", [
    (([0.1, 0.5], [1.0, math.inf]), None),               # a non-finite value
    (([0.1, 0.5], [1.0, math.nan], [1.0, 2.0]), None),
    ((np.linspace(-1, 1, MAX_DEGREE + 2),) * 2, None),    # over the row cap
    (([], []), None),                                    # no data rows
    (([0.1, 0.5], [1.0, 2.0], [3.0, 4.0]), "mu,measured,bound"),
    (([0.1, 0.5], [1.0, 2.0]), "x, value"),              # read_csv accepts it, but parses it
    (([0.1, 0.5], [1.0, 2.0], [3.0, 4.0], [5.0, 6.0]), None),
    (([0.1, 0.5],), None),
])
def test_write_csv_remembers_only_texts_read_csv_accepts(tmp_path, columns, header):
    p = tmp_path / "t.csv"
    before = dict(_TEXTS)
    write_csv(p, *columns, header=header)
    assert _TEXTS == before
    if header == "x, value":
        assert not read_csv(p).from_cache


def test_write_csv_to_stdout_is_not_remembered(capsys):
    before = dict(_TEXTS)
    write_csv(None, [0.1, 0.5], [1.0, 2.0])
    assert capsys.readouterr().out and _TEXTS == before


def test_text_cache_is_bounded_and_keeps_the_most_recently_used(tmp_path):
    paths = [tmp_path / f"t{k}.csv" for k in range(3 * _TEXT_ENTRIES)]
    for k, p in enumerate(paths):
        write_csv(p, [0.25, 0.75], [float(k), 1.0])
        assert len(_TEXTS) <= _TEXT_ENTRIES
        assert read_csv(paths[0]).from_cache  # a read keeps it the most recent
    assert len(_TEXTS) == _TEXT_ENTRIES
    assert not read_csv(paths[1]).from_cache  # dropped first, as the least recently used
    assert [read_csv(p).from_cache for p in paths[-_TEXT_ENTRIES + 2:]] == \
        [True] * (_TEXT_ENTRIES - 2)


def test_text_cache_under_threads(tmp_path):
    # Writers and readers of shared and own files, more threads than cores: every read
    # gives its file's columns, and the cache keeps its bound.
    def columns(k):
        return np.array([0.25, 0.75]), np.array([float(k), -float(k)])

    shared = [tmp_path / f"shared{k}.csv" for k in range(4)]
    for k, p in enumerate(shared):
        write_csv(p, *columns(k))

    def work(t):
        for i in range(40):
            own = tmp_path / f"own{t}_{i % 3}.csv"
            write_csv(own, *columns(100 * t + i))
            for p, k in ((own, 100 * t + i), (shared[i % 4], i % 4)):
                data = read_csv(p)
                assert data.value.tolist() == columns(k)[1].tolist(), (p, data.value)
                data.value[:] = math.nan  # a reader's own copy
            assert len(_TEXTS) <= _TEXT_ENTRIES
        return True

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(work, t) for t in range(8)]
            assert [f.result(timeout=60) for f in futures] == [True] * 8
    finally:
        sys.setswitchinterval(interval)
    assert len(_TEXTS) <= _TEXT_ENTRIES


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
