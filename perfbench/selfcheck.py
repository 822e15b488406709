"""Quick self-check of the benchmark harness (a few seconds).

    python3 perfbench/selfcheck.py

It is not part of the test suite. It checks that:

* BENCHMARK.json has exactly the fixed form and names the workloads and
  metrics run.py produces;
* every workload runs a handful of ops, traced, and every op passes;
* each workload's checks reject a corrupted output, so a passing op means
  the checks looked at it;
* a setup probe runs in a fresh process;
* the traced ops yield every per-layer metric BENCHMARK.json lists, and
  every layer shows up in them;
* no iterate op repeats a weight parameter; the share of ops whose
  (weight, N) was already seen in the process is printed per workload.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import run  # pins BLAS to one thread before numpy is imported

OPS = 4
SEED = 7
_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def check_form(bench: dict) -> list[str]:
    errors = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(bench) != keys:
        errors.append(f"BENCHMARK.json keys {sorted(bench)} != {sorted(keys)}")
    if [w["name"] for w in bench["workloads"]] != list(run.WORKLOAD_NAMES):
        errors.append("BENCHMARK.json workloads differ from run.WORKLOAD_NAMES")
    for w in bench["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            errors.append(f"workload entry {w['name']} malformed")
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    errors += [f"bad or repeated name {n}" for n in names
               if not _NAME.match(n) or names.count(n) > 1]
    if [m["name"] for m in bench["end_to_end"]] != list(run.END_TO_END_UNITS):
        errors.append("BENCHMARK.json end_to_end names differ from run.END_TO_END_UNITS")
    for m in bench["end_to_end"]:
        if m["unit"] != run.END_TO_END_UNITS.get(m["name"]):
            errors.append(f"end_to_end {m['name']} unit differs from run.py")
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            errors.append(f"end_to_end entry {m['name']} malformed")
    for m in bench["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            errors.append(f"per_layer entry {m['name']} malformed")
    if not 1 <= len(bench["end_to_end"]) <= 16 or not 1 <= len(bench["per_layer"]) <= 128:
        errors.append("metric counts out of range")
    return errors


def corruptions(name: str, inp, out):
    """Outputs that are wrong in one place each; the checks must reject all."""
    if name == "recon":
        F, back, report = out
        yield F + 1e-6, back, report
        yield F, back + 1e-6, report
    elif name == "iterate":
        g_neu, rep_neu, g_mc, rep_mc = out
        yield g_neu + 1e-6, rep_neu, g_mc, rep_mc
        yield g_neu, rep_neu, g_mc * (1 + 1e-5), rep_mc
    else:  # the cli check removes the op's directory, so the file goes first
        path = inp["dir"] / "F_uniform.csv"
        lines = path.read_text(encoding="ascii").splitlines()
        x, v = lines[-1].split(",")
        lines[-1] = f"{x},{float(v) + 1e-6:.17g}"
        path.write_text("\n".join(lines) + "\n", encoding="ascii")
        yield out
        yield [0, 0, 0, 2]


def repeated_share(wl, n_ops: int = 1000) -> float:
    """Share of ops past the warm-up whose (weight, N) an earlier op used."""
    from workloads import MU

    if wl.name == "recon":
        keys = [(MU, wl.n)] * n_ops
    elif wl.name == "iterate":
        keys = [(wl.mu(SEED, i), wl.n) for i in range(n_ops)]
    else:
        keys = [(MU, wl.sizes[i % wl.round_size]) for i in range(n_ops)]
    seen, repeats = set(), 0
    for i, key in enumerate(keys):
        repeats += i >= wl.warmup_ops and key in seen
        seen.add(key)
    return repeats / (n_ops - wl.warmup_ops)


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    errors = check_form(bench)
    for workload in run.WORKLOAD_NAMES:
        run.import_program(workload)
    from spans import Tracer, per_layer_metrics
    from workloads import WORKLOADS

    import fhtcheb

    run.OUT.mkdir(exist_ok=True)
    tracer = Tracer()
    traced_ops = set()
    with tempfile.TemporaryDirectory(dir=run.OUT) as scratch:
        for workload in run.WORKLOAD_NAMES:
            wl = WORKLOADS[workload]
            wl.workdir = Path(scratch)
            runner = run.Runner(wl, SEED)
            tracer.install()
            for i in range(OPS):
                tracer.current_op = i
                traced_ops.add(i)
                runner.op(i)
            tracer.uninstall()
            if runner.failed:
                errors.append(f"{workload}: {runner.failed} of {OPS} ops failed")
            inp = wl.make_input(SEED, OPS)
            out = wl.run(inp)
            for k, bad in enumerate(corruptions(workload, inp, out)):
                if not wl.check(inp, bad):
                    errors.append(f"{workload}: corrupted output {k} passed the checks")
            proc = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--setup-probe",
                 "--workload", workload, "--seed", str(SEED)],
                capture_output=True, text=True, timeout=run.PROBE_TIMEOUT_S, cwd=run.ROOT)
            probe = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else {}
            if probe.get("failed", True) or not probe.get("setup_s", 0) > 0:
                errors.append(f"{workload}: setup probe gave {probe or proc.stderr[-300:]}")
            share = repeated_share(wl)
            if workload == "iterate" and share != 0.0:
                errors.append(f"iterate repeats a weight parameter in {share:.1%} of ops")
            print(f"{workload}: {runner.attempted} ops, {runner.failed} failed, "
                  f"setup probe {probe.get('setup_s', float('nan')):.3f} s, "
                  f"(weight, N) seen before in {share:.0%} of ops")
    metrics = per_layer_metrics(tracer, traced_ops,
                                fhtcheb.transforms.build.cache_info().misses, 0.0)
    want = [m["name"] for m in bench["per_layer"]]
    if list(metrics) != want:
        errors.append(f"per-layer metrics {sorted(set(metrics) ^ set(want))} differ")
    # The three workloads together call every layer, so each figure but the
    # overhead (passed in as 0 here) must be positive.
    unseen = [k for k, (v, _) in metrics.items() if k != "trace.overhead_ms_per_op" and not v > 0]
    if unseen:
        errors.append(f"per-layer metrics read 0 on all three workloads: {unseen}")
    for e in errors:
        print("FAIL", e)
    print("selfcheck", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
