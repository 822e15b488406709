"""Spans around fhtcheb's public functions, recorded from outside the package.

``Tracer`` wraps every public function of the layer modules (grids,
transforms, fht, cosh, report, cli). A wrapper replaces the name in every
fhtcheb module that binds the function: ``build`` is bound in
``fhtcheb.transforms`` and again in ``fhtcheb.fht`` and ``fhtcheb.cosh``, and
each binding is swapped. ``install`` and ``uninstall`` swap the originals in
and out, so an untraced op runs exactly the program's own code.

Each span keeps its name, parent span, op number, start and end. Spans are
kept in memory in flat arrays and written once, when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array

LAYERS = ("grids", "transforms", "fht", "cosh", "report", "cli")


def _public_functions(module):
    for name, obj in vars(module).items():
        if (not name.startswith("_") and callable(obj) and not isinstance(obj, type)
                and getattr(obj, "__module__", None) == module.__name__):
            yield name, obj


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.iterations: dict[int, int] = {}  # span -> solver iterations it reported
        self.nbytes: dict[int, int] = {}      # span -> bytes of the cached matrix it returned
        self.cached: dict[int, int] = {}      # id -> bytes of each distinct cached matrix
        self.current_op = -1
        self._stack: list[int] = []
        self._swaps = []  # (module, attribute, original, wrapper)
        packages = [m for name, m in sys.modules.items()
                    if name == "fhtcheb" or name.startswith("fhtcheb.")]
        for layer in LAYERS:
            module = sys.modules.get(f"fhtcheb.{layer}")
            if module is None:  # cli is imported only by the cli workload
                continue
            for name, fn in list(_public_functions(module)):
                wrapper = self._wrap(len(self.names), fn)
                self.names.append(f"{layer}.{name}")
                for pkg in packages:
                    for attr, obj in list(vars(pkg).items()):
                        if obj is fn:
                            self._swaps.append((pkg, attr, fn, wrapper))

    def install(self) -> None:
        for module, attr, _, wrapper in self._swaps:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._swaps:
            setattr(module, attr, original)

    def _wrap(self, name_id: int, fn):
        cached = hasattr(fn, "cache_info")  # the lru_cache'd dense matrix builders
        stack, perf = self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(self.start)
            self.name_id.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.current_op)
            self.end.append(0.0)
            stack.append(i)
            self.start.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = perf()
                stack.pop()
            if cached:
                matrix = getattr(result, "entries", result)
                self.nbytes[i] = self.cached[id(matrix)] = matrix.nbytes
            elif isinstance(result, tuple) and len(result) == 2 and hasattr(result[1], "iterations"):
                self.iterations[i] = result[1].iterations
            return result

        return wrapper

    def dense_bytes_fetched(self, i: int) -> int:
        """Bytes of the cached matrices that span i's descendants returned."""
        total = 0
        for k in range(i + 1, len(self.start)):
            if self.start[k] >= self.end[i]:
                break
            total += self.nbytes.get(k, 0)
        return total

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover, in s."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1, encoding="ascii") as fh:
            fh.write("span\tparent\top\tname\tstart_us\tend_us\n")
            t0 = self.start[0] if self.start else 0.0
            for i, (n, p, op, s, e) in enumerate(zip(self.name_id, self.parent, self.op,
                                                      self.start, self.end)):
                fh.write(f"{i}\t{p}\t{op}\t{self.names[n]}\t"
                         f"{(s - t0) * 1e6:.1f}\t{(e - t0) * 1e6:.1f}\n")


def per_layer_metrics(tracer: Tracer, traced_ops: set[int], build_misses: int,
                      overhead_ms: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of a traced run, as name -> (value, unit).

    Per-op figures are totals over the spans of the ops in ``traced_ops``
    divided by their number. Per-run figures (build misses and time, cached
    matrix bytes) cover every traced span of the run, including the cold op
    and the warm-up, where the lazy matrix builds happen.
    """
    own = tracer.self_times()
    names = tracer.names
    n_ops = max(1, len(traced_ops))
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    dur_s: dict[str, float] = {}
    iters: dict[str, int] = {}
    fht_self = build_self_run = 0.0
    neumann_bytes = neumann_calls = 0
    for i, nid in enumerate(tracer.name_id):
        name = names[nid]
        if name == "transforms.build":
            build_self_run += own[i]
        if tracer.op[i] not in traced_ops:
            continue
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own[i]
        dur_s[name] = dur_s.get(name, 0.0) + tracer.end[i] - tracer.start[i]
        if i in tracer.iterations:
            iters[name] = iters.get(name, 0) + tracer.iterations[i]
        if name.startswith("fht."):
            fht_self += own[i]
        if name == "cosh.cosh_invert_neumann":
            neumann_calls += 1
            neumann_bytes += tracer.dense_bytes_fetched(i)

    def per_op_ms(name):
        return 1e3 * self_s.get(name, 0.0) / n_ops

    def ms_per_iter(name):
        return 1e3 * dur_s.get(name, 0.0) / iters[name] if iters.get(name) else 0.0

    count, ms, mb = "count", "ms", "MB"
    return {
        "grids.resample.calls": (calls.get("grids.resample", 0) / n_ops, count),
        "grids.resample.self_ms": (per_op_ms("grids.resample"), ms),
        "grids.cgl_nodes.calls": (calls.get("grids.cgl_nodes", 0) / n_ops, count),
        "transforms.build.misses": (float(build_misses), count),
        "transforms.build.self_ms": (1e3 * build_self_run, ms),
        "transforms.apply.calls": (calls.get("transforms.apply", 0) / n_ops, count),
        "transforms.apply.self_ms": (per_op_ms("transforms.apply"), ms),
        "transforms.cached_mb": (sum(tracer.cached.values()) / 1e6, mb),
        "fht.forward_m.calls": (calls.get("fht.fht_forward_m", 0) / n_ops, count),
        "fht.inverse_m.calls": (calls.get("fht.fht_inverse_m", 0) / n_ops, count),
        "fht.self_ms": (1e3 * fht_self / n_ops, ms),
        "cosh.forward.self_ms": (per_op_ms("cosh.cosh_forward"), ms),
        "cosh.system_matrix.calls": (calls.get("cosh.system_matrix", 0) / n_ops, count),
        "cosh.system_matrix.self_ms": (per_op_ms("cosh.system_matrix"), ms),
        "cosh.direct.self_ms": (per_op_ms("cosh.cosh_invert_direct"), ms),
        "cosh.neumann.iterations": (iters.get("cosh.cosh_invert_neumann", 0) / n_ops, count),
        "cosh.neumann.ms_per_iter": (ms_per_iter("cosh.cosh_invert_neumann"), ms),
        "cosh.neumann.matvec_mb_per_iter": (
            2 * neumann_bytes / neumann_calls / 1e6 if neumann_calls else 0.0, mb),
        "cosh.mean_constrained.iterations": (
            iters.get("cosh.cosh_invert_mean_constrained", 0) / n_ops, count),
        "cosh.mean_constrained.ms_per_iter": (ms_per_iter("cosh.cosh_invert_mean_constrained"), ms),
        "report.read_csv.self_ms": (per_op_ms("report.read_csv"), ms),
        "report.write_csv.self_ms": (per_op_ms("report.write_csv"), ms),
        "report.write_svg.self_ms": (per_op_ms("report.write_svg"), ms),
        "report.write_json_report.self_ms": (per_op_ms("report.write_json_report"), ms),
        "cli.build_parser.self_ms": (per_op_ms("cli.build_parser"), ms),
        "cli.main.self_ms": (per_op_ms("cli.main"), ms),
        "trace.overhead_ms_per_op": (overhead_ms, ms),
    }
