"""Benchmark of record for fhtcheb.

    python3 perfbench/run.py --workload recon --seed 1 --seconds 25 --trace 0

runs one workload in this process and prints, as its last line, one JSON
object with the keys correct, attempted, failed and metrics. With --trace 0
the metrics are the end-to-end ones (setup_s, ops_per_s, op_ms_p50,
op_ms_p90, peak_rss_mb); with --trace 1 they are the per-layer ones from a
traced run. Without --workload every workload runs, each in a fresh
process, and a table of all metrics follows the JSON lines.

The program is imported from src/ of the checkout this file sits in; the
benchmark refuses to run when that source tree is missing. See README.md.
"""

from __future__ import annotations

import os

# One BLAS thread, set before anything imports numpy: on a small shared
# machine, BLAS threads contend with each other and with other tenants,
# which made op latencies of identical code differ from run to run.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"  # trace files and the CLI workload's scratch files

WORKLOAD_NAMES = ("recon", "iterate", "cli")
# The module a user of each workload imports; setup_s times importing it.
PROGRAM_MODULE = {"recon": "fhtcheb", "iterate": "fhtcheb", "cli": "fhtcheb.cli"}
SETUP_PROBES = 7   # fresh processes per run whose median gives setup_s
MIN_TIMED_OPS = 100  # op_ms_p90 needs at least ten samples beyond it
PROBE_TIMEOUT_S = 120
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms",
                    "op_ms_p90": "ms", "peak_rss_mb": "MB"}


def import_program(workload: str) -> None:
    """Import the workload's fhtcheb module from this checkout's src/, and nowhere else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.import_module(PROGRAM_MODULE[workload])
    import fhtcheb

    if Path(fhtcheb.__file__).resolve().parent != SRC / "fhtcheb":
        sys.exit(f"perfbench: imported fhtcheb from {fhtcheb.__file__}, not from {SRC}")


def whole_rounds(wl, n_ops: float) -> int:
    return wl.round_size * math.ceil(n_ops / wl.round_size)


def setup_probe(workload: str, seed: int) -> None:
    """Child process: time the program import plus the cold first op."""
    t0 = time.perf_counter()
    import_program(workload)
    import_s = time.perf_counter() - t0
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        wl.workdir = Path(scratch)
        runner = Runner(wl, seed)
        op_s = runner.op(0)
    print(json.dumps({"setup_s": import_s + op_s, "failed": runner.failed}))


def measure_setup(workload: str, seed: int) -> tuple[float, int]:
    """Median setup time of SETUP_PROBES fresh processes, and how many failed."""
    times, failed = [], 0
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"perfbench: setup probe for {workload} exited {proc.returncode}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append(res["setup_s"])
        failed += res["failed"]
    return statistics.median(times), failed


class Runner:
    """Runs ops of one workload in order and counts the ones that fail their checks."""

    def __init__(self, wl, seed: int):
        self.wl, self.seed = wl, seed
        self.attempted = self.failed = 0

    def op(self, i: int) -> float:
        """Run op i once; return its latency in s."""
        inp = self.wl.make_input(self.seed, i)
        t0 = time.perf_counter()
        try:
            out = self.wl.run(inp)
            errors = None
        except Exception as exc:  # a failing op is counted, and the run goes on
            errors = [f"{type(exc).__name__}: {exc}"]
        dt = time.perf_counter() - t0
        if errors is None:
            try:
                errors = self.wl.check(inp, out)
            except Exception as exc:  # output of the wrong shape or type
                errors = [f"check raised {type(exc).__name__}: {exc}"]
        self.attempted += 1
        if errors:
            self.failed += 1
            print(f"{self.wl.name} op {i} failed: " + "; ".join(errors[:3]), file=sys.stderr)
        return dt


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    probes_failed = 0
    if not trace:
        setup_s, probes_failed = measure_setup(workload, seed)
    import_program(workload)
    import fhtcheb
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]
    # Fixed op counts, so a run's attempted count repeats exactly; sized to
    # take about `seconds` at the workload's nominal rate.
    n_timed = whole_rounds(wl, max(MIN_TIMED_OPS, seconds * wl.rate))
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        wl.workdir = Path(scratch)
        runner = Runner(wl, seed)
        tracer = None
        if trace:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        for i in range(wl.warmup_ops):  # op 0 is the cold op: lazy builds happen here
            runner.op(i)
        first = wl.warmup_ops
        if not trace:
            lat = [runner.op(i) for i in range(first, first + n_timed)]
        else:
            # Each input runs twice, untraced and traced, in alternating order;
            # the mean of the differences is the tracing overhead.
            n_pairs = whole_rounds(wl, seconds * wl.rate / 2)
            diffs, traced_ops = [], set()
            for j, i in enumerate(range(first, first + n_pairs)):
                t = {}
                for traced in ((False, True) if j % 2 == 0 else (True, False)):
                    (tracer.install if traced else tracer.uninstall)()
                    tracer.current_op = i if traced else -1
                    t[traced] = runner.op(i)
                diffs.append(t[True] - t[False])
                traced_ops.add(i)
            tracer.uninstall()
    result = {
        "correct": runner.failed + probes_failed == 0,
        "attempted": runner.attempted + (0 if trace else SETUP_PROBES),
        "failed": runner.failed + probes_failed,
    }
    if not trace:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        values = {
            "setup_s": setup_s,
            "ops_per_s": len(lat) / sum(lat),
            "op_ms_p50": 1e3 * statistics.median(lat),
            "op_ms_p90": 1e3 * statistics.quantiles(lat, n=10)[8],
            "peak_rss_mb": rss_mb,
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
    else:
        from spans import per_layer_metrics

        build_misses = fhtcheb.transforms.build.cache_info().misses
        metrics = per_layer_metrics(tracer, traced_ops, build_misses,
                                    1e3 * statistics.fmean(diffs))
        tracer.write(OUT / f"trace-{workload}-seed{seed}.tsv.gz")
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return result


def run_all(seed: int, seconds: int, trace: bool) -> int:
    """Each workload in a fresh process; JSON lines, then a table of every metric."""
    results = {}
    for workload in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        if proc.returncode != 0:
            print(f"perfbench: workload {workload} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        line = proc.stdout.strip().splitlines()[-1]
        print(json.dumps({"workload": workload, **json.loads(line)}))
        results[workload] = json.loads(line)
    print(f"\n{'workload':<9} {'metric':<36} {'value':>12}  unit")
    for workload, res in results.items():
        print(f"{workload:<9} {'attempted / failed':<36} "
              f"{res['attempted']:>7} / {res['failed']:<3}")
        for name, m in res["metrics"].items():
            print(f"{workload:<9} {name:<36} {m['value']:>12.4f}  {m['unit']}")
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES, default=None,
                    help="one workload; all of them, each in its own process, if omitted")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25,
                    help="sizes the run: the timed op count is this times the "
                         "workload's nominal rate, at least 100")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "fhtcheb" / "__init__.py").is_file():
        sys.exit(f"perfbench: no fhtcheb source tree at {SRC}; run from a full checkout")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload is None:
        return run_all(args.seed, args.seconds, bool(args.trace))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
