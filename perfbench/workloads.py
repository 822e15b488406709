"""The three workloads: seeded inputs, the op that calls fhtcheb, and its checks.

Each workload builds the input of op i from numpy generators seeded with the
run's seed, i and (for iterate's mu) the round of i alone, so a seed fixes
every input of a run. ``run`` holds only calls into
fhtcheb and is the part that is timed; ``make_input`` and ``check`` are not
timed. ``check`` returns a list of failure messages, empty when the op passed.

fhtcheb is looked up as a module attribute on every call (``fhtcheb.cosh_forward``,
``fhtcheb.cli.main``), so the tracer's wrappers take effect when installed.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np

import fhtcheb
import reference as ref

MU = 3.0  # the paper's simulation parameter; recon and cli run at it


def _coefficients(rng, k_max: int, decay: float) -> np.ndarray:
    """Sine-series coefficients c_1..c_k_max with a seeded, decaying envelope."""
    return rng.standard_normal(k_max) * np.exp(-np.arange(1, k_max + 1) / decay)


def _close(name: str, got, want, tol: float) -> list[str]:
    err = ref.max_abs(got, want)
    return [] if err <= tol else [f"{name}: max error {err:.3e} > {tol:.1e}"]


class Recon:
    """One fresh slice per op at fixed (mu, N): cosh_forward then cosh_invert_direct."""

    name = "recon"
    n = 512
    round_size = 1
    warmup_ops = 4
    rate = 33.0  # ops/s on the reference machine; sizes the run

    def make_input(self, seed: int, i: int):
        rng = np.random.default_rng([seed, i])
        coef = _coefficients(rng, 48, 16.0)
        f = ref.sine_series(coef, ref.t_nodes(self.n))
        probes = np.sort(rng.choice(self.n, size=4, replace=False))
        fn = fhtcheb.GridFn(fhtcheb.cgl_nodes(fhtcheb.GridKind.TNODES, self.n), f)
        return {"coef": coef, "f": f, "probes": probes, "fn": fn}

    def run(self, inp):
        p = fhtcheb.WeightParam.cosh_real(MU)
        F = fhtcheb.cosh_forward(inp["fn"], p)
        back, report = fhtcheb.cosh_invert_direct(F, p)
        return F.values, back.values, report

    def check(self, inp, out) -> list[str]:
        F, back, report = out
        f, probes = inp["f"], inp["probes"]
        want = ref.cosh_pv_transform(inp["coef"], MU, ref.s_nodes(self.n)[probes])
        errors = _close("cosh_forward vs PV quadrature", F[probes], want,
                        1e-10 * max(1.0, float(np.max(np.abs(want)))))
        errors += _close("cosh_invert_direct vs seeded f", back[1:], f[1:],
                         1e-8 * max(1.0, float(np.max(np.abs(f)))))
        if not report.converged:
            errors.append("cosh_invert_direct reports not converged")
        return errors


class Iterate:
    """Both iterative inversions per op at N = 256, each op at a fresh mu near 2.

    The mu values of each round of eight ops are stratified over [1.95, 2.05]
    (one seeded draw per eighth of the band, in seeded order), so every run
    covers the band evenly and a run's latency quantiles do not hinge on how
    many slow, large-mu draws a seed happens to give.
    """

    name = "iterate"
    n = 256
    round_size = 8
    warmup_ops = 8
    rate = 12.0
    band = (1.95, 2.05)

    def mu(self, seed: int, i: int) -> float:
        r, slot = divmod(i, self.round_size)
        order = np.random.default_rng([seed, r, 1]).permutation(self.round_size)
        u = np.random.default_rng([seed, i, 2]).random()
        lo, hi = self.band
        return lo + (hi - lo) * (order[slot] + u) / self.round_size

    def make_input(self, seed: int, i: int):
        mu = self.mu(seed, i)
        rng = np.random.default_rng([seed, i])
        coef = _coefficients(rng, 48, 16.0)
        # Odd f (even k only), so fbar_mu = 0: with fbar_mu != 0 the
        # mean-constrained solve converges only algebraically in N (see README).
        coef_odd = _coefficients(rng, 48, 16.0)
        coef_odd[0::2] = 0.0
        kind = fhtcheb.GridKind
        F_s = ref.cosh_pv_transform(coef, mu, ref.s_nodes(self.n))
        F_u = ref.cosh_pv_transform(coef_odd, mu, ref.u_nodes(self.n))
        return {
            "mu": mu,
            "f": ref.sine_series(coef, ref.t_nodes(self.n)),
            "f_odd": ref.sine_series(coef_odd, ref.s_nodes(self.n)),
            "fbar": ref.cosh_mean(coef_odd, mu),
            "F_s": fhtcheb.GridFn(fhtcheb.cgl_nodes(kind.SNODES, self.n), F_s),
            "F_u": fhtcheb.GridFn(fhtcheb.cgl_nodes(kind.UNODES, self.n), F_u),
        }

    def run(self, inp):
        p = fhtcheb.WeightParam.cosh_real(inp["mu"])
        g_neu, rep_neu = fhtcheb.cosh_invert_neumann(inp["F_s"], p)
        g_mc, rep_mc = fhtcheb.cosh_invert_mean_constrained(inp["F_u"], p, inp["fbar"])
        return g_neu.values, rep_neu, g_mc.values, rep_mc

    def check(self, inp, out) -> list[str]:
        g_neu, rep_neu, g_mc, rep_mc = out
        f, f_odd = inp["f"], inp["f_odd"]
        errors = _close("neumann vs seeded f", g_neu[1:], f[1:],
                        1e-8 * max(1.0, float(np.max(np.abs(f)))))
        rel = float(np.linalg.norm(g_mc - f_odd) / np.linalg.norm(f_odd))
        if not rel <= 1e-6:
            errors.append(f"mean_constrained vs seeded f: relative error {rel:.3e} > 1e-6")
        for label, rep in (("neumann", rep_neu), ("mean_constrained", rep_mc)):
            if not rep.converged:
                errors.append(f"{label} did not converge in {rep.iterations} iterations")
        return errors


class Cli:
    """In-process ``fhtcheb.cli.main`` batch chains on seeded CSV data sets.

    A round is three small (N = 256) data sets and one large (N = 1024), so
    the median op is a small one and the 90th percentile a large one, with
    a quarter of the ops between the two quantiles and either class.
    """

    name = "cli"
    sizes = (256, 256, 256, 1024)
    round_size = 4
    warmup_ops = 8
    rate = 8.0
    # (command, extra arguments, input stem, output stem); each job also
    # writes <output>_uniform.csv, <output>.json and <output>.svg.
    jobs = (
        ("forward", [], "f", "F"),
        ("invert", [], "F", "g"),
        ("cosh-forward", ["--mu", f"{MU:g}"], "f", "Fmu"),
        ("cosh-invert", ["--method", "direct", "--mu", f"{MU:g}"], "Fmu", "h"),
    )
    workdir: Path  # set by the runner to a scratch directory in the checkout

    def make_input(self, seed: int, i: int):
        n = self.sizes[i % self.round_size]
        rng = np.random.default_rng([seed, i])
        coef = _coefficients(rng, 32, 12.0)
        d = self.workdir / f"op{i}"
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
        ref.write_csv(d / "f.csv", ref.t_nodes(n), ref.sine_series(coef, ref.t_nodes(n)))
        probes = np.sort(rng.choice(n, size=4, replace=False))
        return {"n": n, "coef": coef, "dir": d, "probes": probes}

    def run(self, inp):
        import fhtcheb.cli

        d = inp["dir"]
        codes = []
        for command, args, src, dst in self.jobs:
            argv = [command, *args, "--input", str(d / f"{src}.csv"),
                    "--output", str(d / f"{dst}.csv"), "--json", str(d / f"{dst}.json"),
                    "--plot", str(d / f"{dst}.svg")]
            try:
                codes.append(fhtcheb.cli.main(argv))
            except SystemExit as exc:  # argparse rejected the command line
                codes.append(exc.code)
        return codes

    def check(self, inp, out) -> list[str]:
        n, coef, d, probes = inp["n"], inp["coef"], inp["dir"], inp["probes"]
        try:
            return self._check_files(n, coef, d, probes, out)
        except (OSError, ValueError, KeyError) as exc:
            return [f"cli output unreadable: {exc}"]
        finally:
            shutil.rmtree(d, ignore_errors=True)

    def _check_files(self, n, coef, d, probes, codes) -> list[str]:
        errors = [f"{job[0]} exited {code}" for job, code in zip(self.jobs, codes) if code != 0]
        if errors:
            return errors
        scale = float(np.sum(np.abs(coef)))
        exact = 1e-12 * scale  # closed-form pairs hold to rounding
        grids = {"F": ref.s_nodes(n), "g": ref.t_nodes(n), "Fmu": ref.s_nodes(n),
                 "h": ref.t_nodes(n)}
        for stem, nodes in grids.items():
            for suffix, want_x in (("", nodes), ("_uniform", ref.uniform_nodes(n))):
                x, v = ref.read_csv(d / f"{stem}{suffix}.csv")
                errors += _close(f"{stem}{suffix}.csv x column", x, want_x, 1e-15)
                if stem == "F":
                    errors += _close(f"{stem}{suffix}.csv vs T_k pairs", v,
                                     ref.cosine_series(coef, want_x), exact)
                elif stem == "g":
                    errors += _close(f"{stem}{suffix}.csv vs w U_(k-1) pairs", v,
                                     ref.sine_series(coef, want_x), exact)
                elif stem == "Fmu":
                    pts = want_x[probes]
                    want = ref.cosh_pv_transform(coef, MU, pts)
                    errors += _close(f"{stem}{suffix}.csv vs PV quadrature", v[probes], want,
                                     1e-10 * max(1.0, float(np.max(np.abs(want)))))
                else:
                    errors += _close(f"{stem}{suffix}.csv vs seeded f", v,
                                     ref.sine_series(coef, want_x), 1e-8 * max(1.0, scale))
        for command, args, _, stem in self.jobs:
            with open(d / f"{stem}.json", encoding="ascii") as fh:
                rep = json.load(fh)
            want = {"command": command, "n": n, "mu_or_eta": MU if "--mu" in args else None}
            got = {k: rep[k] for k in want}
            if got != want:
                errors.append(f"{stem}.json: {got} != {want}")
            svg = (d / f"{stem}.svg").read_text(encoding="ascii")
            if not (svg.startswith("<svg") and svg.rstrip().endswith("</svg>")):
                errors.append(f"{stem}.svg is not a complete SVG document")
        return errors


WORKLOADS = {w.name: w for w in (Recon(), Iterate(), Cli())}
