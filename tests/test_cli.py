import dataclasses
import json

import numpy as np
import pytest

from fhtcheb import (
    MAX_DEGREE,
    GridFn,
    GridKind,
    ResampleMode,
    WeightParam,
    cgl_nodes,
    coeffs_from_sgrid,
    cosh_forward,
    pair,
    resample,
    weight_w,
)
from fhtcheb.cli import main
from fhtcheb.cosh import SolveReport, cosh_invert_neumann
from fhtcheb.report import _parse_x, read_csv, uniform_grid, write_csv
from fhtcheb.transforms import TransformKind, build


def _write_tgrid_csv(path, n, func, reference=None):
    tg = cgl_nodes(GridKind.TNODES, n)
    write_csv(path, tg.nodes, func(tg.nodes), reference)
    return tg


def _write_oversized_csv(path):
    # T-nodes cos(m pi / n) in closed form: cgl_nodes refuses n = 2 MAX_DEGREE
    n = 2 * MAX_DEGREE
    x = np.cos(np.arange(n) * np.pi / n)
    write_csv(path, x, weight_w(x))


# (case, argv with {placeholders} for the files written below, exit code)
EXIT_CASES = [
    ("forward-ok", ["forward", "--input", "{f}"], 0),
    ("cosh-invert-direct-ok", ["cosh-invert", "--mu", "3", "--input", "{F}"], 0),
    ("neumann-not-converged", ["cosh-invert", "--method", "neumann", "--mu", "2",
                               "--tol", "1e-15", "--max-iter", "2", "--input", "{F}"], 2),
    ("missing-input", ["forward", "--input", "{dir}/missing.csv"], 3),
    ("wrong-grid", ["forward", "--input", "{offgrid}"], 3),
    ("nan-value", ["forward", "--input", "{nan}"], 3),
    ("inf-reference", ["invert", "--input", "{inf}"], 3),
    ("too-many-rows", ["forward", "--input", "{big}"], 3),
    ("mu-and-eta", ["cosh-forward", "--mu", "1", "--eta", "0.3", "--input", "{f}"], 4),
    ("eta-out-of-range", ["cosh-forward", "--eta", "0.9", "--input", "{f}"], 4),
    ("cosh-overflow", ["cosh-forward", "--mu", "800", "--input", "{f}"], 4),
    ("cond-sweep-mu-limit", ["cond-sweep", "--mu-list", "20", "--n", "64"], 4),
    ("cond-sweep-n-too-large", ["cond-sweep", "--mu-list", "1", "--n", "2050"], 4),
    ("cosh-invert-direct-mu-limit", ["cosh-invert", "--method", "direct", "--mu", "20",
                                     "--input", "{F}"], 4),
    ("size-too-small", ["null-experiment", "--mu", "3", "--sizes", "1"], 4),
    ("size-negative", ["null-experiment", "--mu", "3", "--sizes", "64,-4"], 4),
    ("size-too-large", ["null-experiment", "--mu", "3", "--sizes", "2050"], 4),
    ("mu-not-a-number", ["cosh-forward", "--mu", "abc", "--input", "{f}"], 4),
    ("unknown-flag", ["forward", "--bogus", "--input", "{f}"], 4),
    ("unknown-method", ["cosh-invert", "--method", "lu", "--mu", "3", "--input", "{F}"], 4),
    ("tol-nan", ["cosh-invert", "--method", "neumann", "--mu", "1", "--tol", "nan",
                 "--input", "{F}"], 4),
    ("tol-inf", ["cosh-invert", "--method", "neumann", "--mu", "1", "--tol", "inf",
                 "--input", "{F}"], 4),
    ("max-iter-zero", ["cosh-invert", "--method", "neumann", "--mu", "1", "--max-iter", "0",
                       "--input", "{F}"], 4),
    # checked before the input is read, so the S-grid file never reaches the solver
    ("mean-fbar-nan", ["cosh-invert", "--method", "mean_constrained", "--mu", "1",
                       "--mean-fbar", "nan", "--input", "{F}"], 4),
    ("no-weight", ["cosh-forward", "--input", "{f}"], 4),
    ("no-input", ["forward"], 3),
    ("seven-rows", ["forward", "--input", "{seven}"], 3),
    ("empty-csv", ["forward", "--input", "{empty}"], 3),
    ("wrong-header", ["forward", "--input", "{header}"], 3),
    ("utf8-bom", ["forward", "--input", "{bom}"], 3),
    ("latin1-byte", ["forward", "--input", "{latin1}"], 3),
    ("cond-sweep-no-mu-list", ["cond-sweep", "--n", "64"], 4),
    ("null-experiment-no-mu", ["null-experiment", "--sizes", "64"], 4),
    ("mu-nan", ["cosh-forward", "--mu", "nan", "--input", "{f}"], 4),
    ("output-dir-missing", ["forward", "--input", "{f}", "--output", "{dir}/nodir/F.csv"], 3),
    ("plot-dir-missing", ["forward", "--input", "{f}", "--plot", "{dir}/nodir/p.svg"], 3),
    ("cond-sweep-output-dir-missing", ["cond-sweep", "--mu-list", "1", "--n", "64",
                                       "--output", "{dir}/nodir/c.csv"], 3),
    # an empty path is refused while parsing, before the (missing) input is read
    ("forward-empty-output", ["forward", "--input", "{dir}/missing.csv", "--output", ""], 4),
    ("forward-empty-plot", ["forward", "--input", "{dir}/missing.csv", "--plot", ""], 4),
    ("forward-empty-json", ["forward", "--input", "{dir}/missing.csv", "--json", ""], 4),
    ("invert-empty-output", ["invert", "--input", "{dir}/missing.csv", "--output", ""], 4),
    ("invert-empty-plot", ["invert", "--input", "{dir}/missing.csv", "--plot", ""], 4),
    ("invert-empty-json", ["invert", "--input", "{dir}/missing.csv", "--json", ""], 4),
    ("cosh-forward-empty-output", ["cosh-forward", "--mu", "3",
                                   "--input", "{dir}/missing.csv", "--output", ""], 4),
    ("cosh-forward-empty-plot", ["cosh-forward", "--mu", "3",
                                 "--input", "{dir}/missing.csv", "--plot", ""], 4),
    ("cosh-forward-empty-json", ["cosh-forward", "--mu", "3",
                                 "--input", "{dir}/missing.csv", "--json", ""], 4),
    ("cosh-invert-empty-output", ["cosh-invert", "--mu", "3",
                                  "--input", "{dir}/missing.csv", "--output", ""], 4),
    ("cosh-invert-empty-plot", ["cosh-invert", "--mu", "3",
                                "--input", "{dir}/missing.csv", "--plot", ""], 4),
    ("cosh-invert-empty-json", ["cosh-invert", "--mu", "3",
                                "--input", "{dir}/missing.csv", "--json", ""], 4),
    ("verify-empty-json", ["verify", "--json", ""], 4),
    ("cond-sweep-empty-output", ["cond-sweep", "--mu-list", "1", "--n", "64", "--output", ""], 4),
    ("null-experiment-empty-output", ["null-experiment", "--mu", "3", "--sizes", "64",
                                      "--output", ""], 4),
]


@pytest.mark.parametrize("argv, code", [c[1:] for c in EXIT_CASES],
                         ids=[c[0] for c in EXIT_CASES])
def test_exit_codes(tmp_path, capsys, argv, code):
    n = 64
    tg = _write_tgrid_csv(tmp_path / "f.csv", n, weight_w)
    sg = cgl_nodes(GridKind.SNODES, n)
    write_csv(tmp_path / "F.csv", sg.nodes, sg.nodes)
    write_csv(tmp_path / "offgrid.csv", np.linspace(-0.9, 0.9, n), np.zeros(n))
    vals = weight_w(tg.nodes)
    vals[5] = np.nan
    write_csv(tmp_path / "nan.csv", tg.nodes, vals)
    write_csv(tmp_path / "inf.csv", sg.nodes, sg.nodes, np.full(n, np.inf))
    _write_oversized_csv(tmp_path / "big.csv")
    _write_tgrid_csv(tmp_path / "seven.csv", 7, weight_w)
    (tmp_path / "empty.csv").write_text("")
    (tmp_path / "header.csv").write_text("t,value\n" + (tmp_path / "f.csv").read_text()[8:])
    f_bytes = (tmp_path / "f.csv").read_bytes()
    (tmp_path / "bom.csv").write_bytes(b"\xef\xbb\xbf" + f_bytes)
    (tmp_path / "latin1.csv").write_bytes(f_bytes.replace(b"\n", b" \xb5\n", 3))
    files = {stem: tmp_path / f"{stem}.csv"
             for stem in ("f", "F", "offgrid", "nan", "inf", "big", "seven", "empty", "header",
                          "bom", "latin1")}
    argv = [a.format(dir=tmp_path, **files) for a in argv]
    if argv[0] not in ("cond-sweep", "null-experiment"):  # the two take no --json
        argv += ["--json", str(tmp_path / "r.json")]
    assert main(argv) == code
    if code in (3, 4):
        assert len(capsys.readouterr().err.splitlines()) == 1


def test_unwritable_json_report_is_input_error(tmp_path, capsys):
    _write_tgrid_csv(tmp_path / "f.csv", 64, weight_w)
    bad = tmp_path / "nodir" / "r.json"
    assert main(["forward", "--input", str(tmp_path / "f.csv"), "--json", str(bad)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and str(bad) in err[0]


@pytest.mark.parametrize("argv", [["forward"], ["cosh-forward", "--mu", "3"]])
def test_overflowing_transform_exits_3_and_writes_nothing(tmp_path, capsys, argv):
    # Finite input whose transform overflows: one line on stderr, no numpy warning.
    fin, out = tmp_path / "huge.csv", tmp_path / "F.csv"
    _write_tgrid_csv(fin, 64, lambda x: np.full_like(x, 1e308))
    assert main([*argv, "--input", str(fin), "--output", str(out),
                 "--json", str(tmp_path / "r.json")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "overflows" in err[0], err
    assert not any(tmp_path.glob("F*")) and not (tmp_path / "r.json").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind, argv", [
    (GridKind.SNODES, ["--method", "neumann", "--mu", "3"]),
    (GridKind.UNODES, ["--method", "mean_constrained", "--mu", "2", "--mean-fbar", "0"]),
])
def test_overflowing_iterative_solve_exits_3_and_writes_nothing(tmp_path, capsys, kind, argv):
    # the first step of 1e155 data has a squared length beyond float64: refused, not iterated
    g = cgl_nodes(kind, 64)
    write_csv(tmp_path / "big.csv", g.nodes, np.full(64, 1e155))
    out, rep = tmp_path / "f.csv", tmp_path / "r.json"
    assert main(["cosh-invert", *argv, "--input", str(tmp_path / "big.csv"),
                 "--output", str(out), "--json", str(rep)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "overflows" in err[0], err
    assert not any(tmp_path.glob("f*")) and not rep.exists()


def test_oversized_grid_rejected_before_compute(tmp_path, monkeypatch):
    def refuse(f):
        raise AssertionError(f"transform computed on {f.grid.n} rows")

    monkeypatch.setattr("fhtcheb.cli.fht_forward_d", refuse)
    fin = tmp_path / "big.csv"
    _write_oversized_csv(fin)
    cached = _parse_x.cache_info().currsize
    assert main(["forward", "--input", str(fin), "--json", str(tmp_path / "r.json")]) == 3
    assert _parse_x.cache_info().currsize == cached  # refused before its x column was parsed


def test_oversized_cond_sweep_rejected_before_compute(monkeypatch):
    def refuse(p, n):
        raise AssertionError(f"condition estimate computed at n = {n}")

    monkeypatch.setattr("fhtcheb.cli.condition_estimate", refuse)
    assert main(["cond-sweep", "--mu-list", "1", "--n", "100000"]) == 4


class TestCsvRoundTrip:
    def test_lossless(self, tmp_path):
        p = tmp_path / "t.csv"
        rng = np.random.default_rng(0)
        x = rng.standard_normal(50)
        v = rng.standard_normal(50) * 1e-7
        write_csv(p, x, v)
        got = read_csv(p)
        np.testing.assert_array_equal(got.x, x)
        np.testing.assert_array_equal(got.value, v)

    def test_reference_column(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(p, [0.0, 0.5], [1.0, 2.0], [1.0, 2.5])
        got = read_csv(p)
        np.testing.assert_array_equal(got.reference, [1.0, 2.5])

    def test_malformed_reports_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("x,value\n0.1,1.0\n0.2,oops\n")
        from fhtcheb.errors import InputError

        with pytest.raises(InputError, match=":3:"):
            read_csv(p)


class TestForwardInvert:
    def test_forward_unit_circle(self, tmp_path):
        fin = tmp_path / "f.csv"
        fout = tmp_path / "F.csv"
        _write_tgrid_csv(fin, 64, weight_w)
        rc = main(["forward", "--input", str(fin), "--output", str(fout),
                   "--json", str(tmp_path / "r.json")])
        assert rc == 0
        got = read_csv(fout)
        np.testing.assert_allclose(got.value, got.x, atol=1e-12)
        uni = read_csv(tmp_path / "F_uniform.csv")
        np.testing.assert_allclose(uni.x, uniform_grid(64), atol=1e-15)
        np.testing.assert_allclose(uni.value, uni.x, atol=1e-10)

    def test_invert_constant_gives_zero(self, tmp_path):
        fin = tmp_path / "F.csv"
        sg = cgl_nodes(GridKind.SNODES, 64)
        write_csv(fin, sg.nodes, np.ones(64))
        fout = tmp_path / "f.csv"
        rc = main(["invert", "--input", str(fin), "--output", str(fout),
                   "--json", str(tmp_path / "r.json")])
        assert rc == 0
        got = read_csv(fout)
        np.testing.assert_allclose(got.value, 0.0, atol=1e-12)

    def test_reference_error_and_plot(self, tmp_path):
        n = 256
        pr = pair("shifted")
        sg = cgl_nodes(GridKind.SNODES, n)
        tg = cgl_nodes(GridKind.TNODES, n)
        fin = tmp_path / "F.csv"
        write_csv(fin, sg.nodes, pr.F(sg.nodes), pr.f(tg.nodes))
        plot = tmp_path / "p.svg"
        rep = tmp_path / "r.json"
        rc = main(["invert", "--input", str(fin), "--output",
                   str(tmp_path / "f.csv"), "--plot", str(plot),
                   "--json", str(rep)])
        assert rc == 0
        assert plot.exists() and plot.read_text().startswith("<svg")
        data = json.loads(rep.read_text())
        assert data["command"] == "invert"
        assert data["max_error"] is not None and data["max_error"] < 0.2

    def test_wrong_grid_is_input_error(self, tmp_path):
        fin = tmp_path / "f.csv"
        write_csv(fin, np.linspace(-0.9, 0.9, 32), np.zeros(32))
        assert main(["forward", "--input", str(fin)]) == 3

    def test_missing_input(self):
        assert main(["forward", "--input", "/does/not/exist.csv"]) == 3


@pytest.mark.parametrize("argv", [["forward", "--input", "{f}"], ["invert", "--input", "{F}"],
                                  ["cosh-forward", "--mu", "1", "--input", "{f}"],
                                  ["cosh-invert", "--mu", "1", "--input", "{F}"],
                                  ["cosh-invert", "--mu", "1", "--method", "neumann",
                                   "--input", "{F}"],
                                  ["cosh-invert", "--mu", "1", "--method", "mean_constrained",
                                   "--mean-fbar", "0", "--input", "{U}"]])
def test_stage_ms_reported(tmp_path, argv):
    n = 64
    _write_tgrid_csv(tmp_path / "f.csv", n, weight_w)
    sg = cgl_nodes(GridKind.SNODES, n)
    write_csv(tmp_path / "F.csv", sg.nodes, sg.nodes)
    ug = cgl_nodes(GridKind.UNODES, n)
    write_csv(tmp_path / "U.csv", ug.nodes, ug.nodes)
    argv = [a.format(f=tmp_path / "f.csv", F=tmp_path / "F.csv", U=tmp_path / "U.csv")
            for a in argv]
    rep = tmp_path / "r.json"
    assert main([*argv, "--output", str(tmp_path / "o.csv"), "--plot", str(tmp_path / "o.svg"),
                 "--json", str(rep)]) == 0
    data = json.loads(rep.read_text())
    stages = data["stage_ms"]
    assert set(stages) == {"read", "compute", "resample", "write"}
    assert all(ms >= 0.0 for ms in stages.values())
    # the three stages before the report lie inside wall_time_ms
    assert stages["read"] + stages["compute"] + stages["resample"] <= data["wall_time_ms"] + 1e-6


@pytest.mark.parametrize("output, uniform", [("./F", "./F_uniform"),
                                              ("run.1/F", "run.1/F_uniform"),
                                              ("F.csv", "F_uniform.csv")])
def test_uniform_file_named_after_the_output(tmp_path, monkeypatch, output, uniform):
    # Only the last component's extension moves behind "_uniform".
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.1").mkdir()
    _write_tgrid_csv(tmp_path / "f.csv", 64, weight_w)
    assert main(["cosh-forward", "--mu", "1", "--input", "f.csv", "--output", output,
                 "--json", "r.json"]) == 0
    assert read_csv(tmp_path / output).x.shape == (64,)
    np.testing.assert_allclose(read_csv(tmp_path / uniform).x, uniform_grid(64), atol=1e-15)


def test_solver_form_reported(tmp_path):
    n = 256
    _write_tgrid_csv(tmp_path / "f.csv", n, weight_w)
    for argv, form in ((["forward"], None),
                       (["cosh-forward", "--mu", "3"], None),
                       (["cosh-invert", "--method", "direct", "--mu", "3"], "woodbury"),
                       (["cosh-invert", "--method", "neumann", "--mu", "3"], "powered")):
        fin, fout = ("f.csv", "F.csv") if form is None else ("F.csv", "g.csv")
        rep = tmp_path / "r.json"
        assert main([*argv, "--input", str(tmp_path / fin), "--output", str(tmp_path / fout),
                     "--json", str(rep)]) == 0
        assert json.loads(rep.read_text())["solver_form"] == form, argv


def test_report_solve_keys_are_the_solve_report_fields(tmp_path):
    # form is written as solver_form, and converged is left to the exit code
    keys = {"solver_form" if f.name == "form" else f.name
            for f in dataclasses.fields(SolveReport) if f.name != "converged"}
    n, p = 64, WeightParam.cosh_real(1.0)
    _write_tgrid_csv(tmp_path / "f.csv", n, weight_w)
    sg = cgl_nodes(GridKind.SNODES, n)
    write_csv(tmp_path / "F.csv", sg.nodes, sg.nodes)
    reports = {}
    for argv in (["forward", "--input", str(tmp_path / "f.csv")],
                 ["cosh-invert", "--method", "neumann", "--mu", "1",
                  "--input", str(tmp_path / "F.csv")]):
        assert main([*argv, "--json", str(tmp_path / "r.json")]) == 0
        reports[argv[0]] = json.loads((tmp_path / "r.json").read_text())
    other = {"command", "n", "mu_or_eta", "max_error", "wall_time_ms", "stage_ms"}
    solve = reports["cosh-invert"]
    assert set(solve) - other == keys
    want = dataclasses.asdict(cosh_invert_neumann(GridFn(sg, sg.nodes), p)[1])
    want["solver_form"] = want.pop("form")
    assert {k: solve[k] for k in keys} == {k: want[k] for k in keys}
    none = dict.fromkeys(keys, None) | {"iterations": 0, "residual_history": []}
    assert {k: reports["forward"][k] for k in keys} == none


class TestCoshCommands:
    def test_roundtrip_direct(self, tmp_path):
        fin = tmp_path / "f.csv"
        Fout = tmp_path / "F.csv"
        _write_tgrid_csv(fin, 64, weight_w)
        assert main(["cosh-forward", "--mu", "1.0", "--input", str(fin),
                     "--output", str(Fout), "--json", str(tmp_path / "a.json")]) == 0
        back = tmp_path / "back.csv"
        assert main(["cosh-invert", "--method", "direct", "--mu", "1.0",
                     "--input", str(Fout), "--output", str(back),
                     "--json", str(tmp_path / "b.json")]) == 0
        got = read_csv(back)
        tg = cgl_nodes(GridKind.TNODES, 64)
        np.testing.assert_allclose(got.value[1:], tg.weights[1:], atol=1e-10)

    def test_neumann_nonconvergence_exit(self, tmp_path):
        fin = tmp_path / "f.csv"
        Fout = tmp_path / "F.csv"
        _write_tgrid_csv(fin, 64, weight_w)
        main(["cosh-forward", "--mu", "2.0", "--input", str(fin),
              "--output", str(Fout), "--json", str(tmp_path / "a.json")])
        rep = tmp_path / "b.json"
        rc = main(["cosh-invert", "--method", "neumann", "--mu", "2.0",
                   "--tol", "1e-15", "--max-iter", "2",
                   "--input", str(Fout), "--output", str(tmp_path / "o.csv"),
                   "--json", str(rep)])
        assert rc == 2
        assert rep.exists()  # report still written
        assert (tmp_path / "o.csv").exists()

    def test_final_defect_reported_for_every_method(self, tmp_path):
        n, mu = 64, 1.0
        Fout = tmp_path / "F.csv"
        _write_tgrid_csv(tmp_path / "f.csv", n, weight_w)
        assert main(["cosh-forward", "--mu", str(mu), "--input", str(tmp_path / "f.csv"),
                     "--output", str(Fout), "--json", str(tmp_path / "a.json")]) == 0
        assert json.loads((tmp_path / "a.json").read_text())["final_defect"] is None
        # an odd f (fbar = 0) on U-nodes for the mean-constrained method
        tg, ug = cgl_nodes(GridKind.TNODES, n), cgl_nodes(GridKind.UNODES, n)
        p = WeightParam.cosh_real(mu)
        F_odd = cosh_forward(GridFn(tg, 2.0 * tg.nodes * tg.weights), p)
        write_csv(tmp_path / "Fu.csv", ug.nodes,
                  resample(coeffs_from_sgrid(F_odd), ug.nodes, ResampleMode.T_SERIES))
        for method, extra, fin in (("direct", [], Fout), ("neumann", [], Fout),
                                   ("mean_constrained", ["--mean-fbar", "0"],
                                    tmp_path / "Fu.csv")):
            rep = tmp_path / f"{method}.json"
            assert main(["cosh-invert", "--method", method, "--mu", str(mu), *extra,
                         "--input", str(fin), "--json", str(rep)]) == 0
            data = json.loads(rep.read_text())
            assert 0.0 < data["final_defect"] < 1e-10, method
            if method != "direct":
                assert data["final_defect"] < data["residual_history"][-1]

    def test_both_mu_eta_rejected(self, tmp_path):
        fin = tmp_path / "f.csv"
        _write_tgrid_csv(fin, 64, weight_w)
        assert main(["cosh-forward", "--mu", "1.0", "--eta", "0.3",
                     "--input", str(fin)]) == 4

    def test_eta_out_of_range(self, tmp_path):
        fin = tmp_path / "f.csv"
        _write_tgrid_csv(fin, 64, weight_w)
        assert main(["cosh-forward", "--eta", "0.9", "--input", str(fin)]) == 4

    def test_mean_constrained_requires_fbar(self, tmp_path):
        fin = tmp_path / "F.csv"
        ug = cgl_nodes(GridKind.UNODES, 64)
        write_csv(fin, ug.nodes, np.zeros(64))
        assert main(["cosh-invert", "--method", "mean_constrained",
                     "--mu", "0.5", "--input", str(fin)]) == 4


class TestSweeps:
    def test_cond_sweep(self, tmp_path):
        out = tmp_path / "c.csv"
        assert main(["cond-sweep", "--mu-list", "0,3,4", "--n", "64",
                     "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "mu,measured,bound"
        rows = [list(map(float, ln.split(","))) for ln in lines[1:]]
        assert rows[0][1] == pytest.approx(1.0)
        assert round(rows[2][2], 1) == 1490.5
        for _, measured, bound in rows:
            assert measured <= bound * (1 + 1e-6)

    def test_null_experiment(self, tmp_path):
        out = tmp_path / "n.csv"
        assert main(["null-experiment", "--mu", "3", "--sizes", "64,128",
                     "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,norm_d,norm_m"
        assert len(lines) == 3

    def test_null_experiment_mu_zero(self, tmp_path):
        assert main(["null-experiment", "--mu", "0"]) == 4


class TestVerify:
    def test_eta_rejected(self):
        assert main(["verify", "--eta", "0.9"]) == 4

    def test_passes_without_weight(self, tmp_path):
        rep = tmp_path / "v.json"
        assert main(["verify", "--json", str(rep)]) == 0
        data = json.loads(rep.read_text())
        assert data["failed"] == 0 and data["passed"] == len(data["checks"])
        assert not any(name.startswith("condition_bound_") for name in data["checks"])


def test_display_resampling_builds_no_c3_or_s1(tmp_path, monkeypatch):
    # The *_uniform.csv display grid is analyzed by FFT; every file matches the unpatched run.
    n = 256
    _write_tgrid_csv(tmp_path / "f.csv", n, lambda x: weight_w(x) * (1.0 + 0.3 * x))
    sg = cgl_nodes(GridKind.SNODES, n)
    write_csv(tmp_path / "F.csv", sg.nodes, sg.nodes + 0.15 * (2.0 * sg.nodes ** 2 - 1.0))
    jobs = {"fwd": ["forward", "--input", "f.csv"], "inv": ["invert", "--input", "F.csv"],
            "cf": ["cosh-forward", "--mu", "3", "--input", "f.csv"],
            "ci": ["cosh-invert", "--method", "direct", "--mu", "3", "--input", "F.csv"]}

    def run_all(tag):
        outputs = {}
        for name, argv in jobs.items():
            out = tmp_path / f"{tag}_{name}"
            argv = [str(tmp_path / a) if a.endswith(".csv") else a for a in argv]
            assert main([*argv, "--output", f"{out}.csv", "--plot", f"{out}.svg",
                         "--json", f"{out}.json"]) == 0
            report = json.loads((tmp_path / f"{out}.json").read_text())
            for timing in ("wall_time_ms", "stage_ms"):
                del report[timing]
            outputs[name] = [(tmp_path / f"{out}{ext}").read_bytes()
                             for ext in (".csv", "_uniform.csv", ".svg")] + [report]
        return outputs

    want = run_all("plain")

    def refuse_all_but_hd(kind, size):
        if kind is not TransformKind.HD:
            raise AssertionError(f"{kind} built at n = {size}")
        return build(kind, size)

    monkeypatch.setattr("fhtcheb.fht.build", refuse_all_but_hd)
    monkeypatch.setattr("fhtcheb.cosh.build", refuse_all_but_hd)
    assert run_all("guarded") == want
