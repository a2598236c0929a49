"""Span tracing for the benchmark's traced run.

The traced run wraps the public functions of each laros module, and the
LAPACK SVD behind ``numpy.linalg.svd``, in every module namespace where
callers look them up (``laros.solver.svt``, ``laros.cli.parse_matrix``,
``numpy.linalg.svd``, ...). The library is not changed and nothing is
traced from inside it. Spans stay in memory and are written as JSON lines
when the run ends.

Counts that the per-layer metrics need (SVT output rank, solver iterations,
file sizes) are read after the span closes, so they add no time to it.
"""

import functools
import importlib
import inspect
import json
import math
import os
import time
from array import array

import numpy as np

LAYERS = ("linalg", "solver", "analysis", "generate", "nmf", "mmio", "cli")
CLI_COMMANDS = ("plant", "solve", "certify", "thresholds", "nmf", "biclique")
KERNEL = "linalg.svd_kernel"


def svd_flops(shape, compute_uv):
    """Flops of a thin SVD computed from its shape (Golub-Reinsch counts,
    Golub & Van Loan Table 8.6.1), not measured."""
    k, l = sorted(shape)
    if compute_uv:
        return 14.0 * l * k * k + 8.0 * k ** 3
    return 4.0 * l * k * k - 4.0 * k ** 3 / 3.0


def _argument(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _file_bytes(path):
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


class Tracer:
    """In-memory span store plus the counts taken at span boundaries."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        # spans store a small index into `instances`; the ids themselves
        # (1000 * seed + k) do not fit a C int for large seeds
        self.instance_of = array("i")
        self.instances = [None]
        self._instance_index = {None: 0}
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.instance = 0
        self.last_kernel_span = -1
        self.last_singular_values = None
        self.svt_ranks = array("i")
        self.iterations = array("i")
        self.capped = 0
        self.nmf_rounds = 0
        self.kernel_flops = 0.0
        self.bytes = {}

    def open(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.instance_of.append(self.instance)
        self.end.append(math.nan)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid):
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def set_instance(self, instance_id):
        index = self._instance_index.get(instance_id)
        if index is None:
            index = self._instance_index[instance_id] = len(self.instances)
            self.instances.append(instance_id)
        self.instance = index

    def add_bytes(self, name, count):
        self.bytes[name] = self.bytes.get(name, 0) + count

    def totals(self):
        """Per span name: (calls, seconds, self seconds).

        Self time is a span's duration minus the time its children cover;
        spans nest strictly because the benchmark is single-threaded.
        """
        if not self.start:
            return {}
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=dur.size)
        width = len(self.names)
        calls = np.bincount(nid, minlength=width)
        secs = np.bincount(nid, weights=dur, minlength=width)
        self_secs = np.bincount(nid, weights=dur - covered, minlength=width)
        return {name: (int(calls[i]), float(secs[i]), float(self_secs[i]))
                for i, name in enumerate(self.names)}

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for sid in range(len(self.start)):
                handle.write(json.dumps({
                    "id": sid, "name": self.names[self.name_id[sid]],
                    "start": self.start[sid], "end": self.end[sid],
                    "parent": self.parent[sid],
                    "instance": self.instances[self.instance_of[sid]]})
                             + "\n")


# Hooks run after a span has closed: (tracer, sid, result, args, kwargs).

def _after_kernel(tracer, sid, out, args, kwargs):
    compute_uv = _argument(args, kwargs, 2, "compute_uv", True)
    tracer.kernel_flops += svd_flops(np.shape(args[0]), compute_uv)
    tracer.last_singular_values = out[1] if compute_uv else out
    tracer.last_kernel_span = sid


def _after_svt(tracer, sid, out, args, kwargs):
    # Rank of the SVT output = singular values of the input above tau. They
    # come from the kernel call made inside this svt span; without one
    # (an SVT that no longer calls numpy.linalg.svd) no rank is recorded.
    tau = _argument(args, kwargs, 1, "tau")
    if tracer.last_kernel_span > sid and tau is not None:
        tracer.svt_ranks.append(
            int(np.count_nonzero(tracer.last_singular_values > tau)))


def _after_solve(tracer, sid, out, args, kwargs):
    config = _argument(args, kwargs, 1, "config")
    tracer.iterations.append(out.iterations)
    if not out.converged and out.iterations >= getattr(config, "max_iters",
                                                       math.inf):
        tracer.capped += 1


def _after_greedy(tracer, sid, out, args, kwargs):
    tracer.nmf_rounds += out.extracted


def _after_file(name):
    def hook(tracer, sid, out, args, kwargs):
        tracer.add_bytes(name, _file_bytes(_argument(args, kwargs, 0, "path")))
    return hook


def _after_cli(tracer, sid, out, args, kwargs):
    argv = list(_argument(args, kwargs, 0, "argv") or [])
    for flag in ("--output", "--certificate-output"):
        if flag in argv[:-1]:
            tracer.add_bytes("cli.record", _file_bytes(argv[argv.index(flag) + 1]))


HOOKS = {
    KERNEL: _after_kernel,
    "linalg.svt": _after_svt,
    "solver.solve": _after_solve,
    "nmf.greedy_extract": _after_greedy,
    "mmio.parse_matrix": _after_file("mmio.parse_matrix"),
    "mmio.write_matrix": _after_file("mmio.write_matrix"),
    "cli.main": _after_cli,
}


def _wrap(tracer, name, fn):
    hook = HOOKS.get(name)
    if name == "cli.main":
        def span_name(args, kwargs):
            argv = _argument(args, kwargs, 0, "argv") or ["?"]
            return f"cli.{argv[0]}"
    else:
        def span_name(args, kwargs):
            return name

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid = tracer.open(span_name(args, kwargs))
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(sid)
        if hook is not None:
            hook(tracer, sid, out, args, kwargs)
        return out
    return traced


def _public_functions(module):
    return [(attr, fn) for attr, fn in vars(module).items()
            if inspect.isfunction(fn) and fn.__module__ == module.__name__
            and not attr.startswith("_")]


class Instrumented:
    """Context manager that installs the wrappers and restores the
    originals on exit.

    For the cli layer only ``main`` is wrapped, one span per command, so
    that its self time is argument parsing plus JSON encoding and decoding.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self._patched = []

    def __enter__(self):
        modules = [importlib.import_module("laros")]
        modules += [importlib.import_module(f"laros.{layer}") for layer in LAYERS]
        targets = [(np.linalg, "svd", KERNEL)]
        for layer, module in zip(LAYERS, modules[1:]):
            for attr, fn in _public_functions(module):
                if layer == "cli" and attr != "main":
                    continue
                targets.append((module, attr, f"{layer}.{attr}"))
        for home, attr, name in targets:
            fn = getattr(home, attr)
            wrapped = _wrap(self.tracer, name, fn)
            for namespace in [np.linalg] + modules:
                for key, value in list(vars(namespace).items()):
                    if value is fn:
                        self._patched.append((namespace, key, fn))
                        setattr(namespace, key, wrapped)
        return self.tracer

    def __exit__(self, *exc):
        for namespace, key, fn in reversed(self._patched):
            setattr(namespace, key, fn)
        self._patched.clear()
        return False


def _median(values):
    return float(np.median(values)) if len(values) else 0.0


def layer_metrics(tracer, units):
    """Per-layer metrics per traced unit of work, keyed by metric name.

    A wrapped name that the library no longer has reads as zero calls.
    """
    totals = tracer.totals()

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0] / units

    def secs(name):
        return totals.get(name, (0, 0.0, 0.0))[1] / units

    def self_secs(name):
        return totals.get(name, (0, 0.0, 0.0))[2] / units

    def mb(name):
        return tracer.bytes.get(name, 0) / 1e6 / units

    iterations = np.array(tracer.iterations, dtype=np.int64)
    ranks = np.array(tracer.svt_ranks, dtype=np.int64)
    solve_s = totals.get("solver.solve", (0, 0.0, 0.0))[1]
    out = {
        "linalg.svd_kernel.calls": (calls(KERNEL), "count"),
        "linalg.svd_kernel.s": (secs(KERNEL), "s"),
        "linalg.svd_kernel.gflop_computed": (tracer.kernel_flops / 1e9 / units,
                                             "GFLOP"),
        "linalg.svt.calls": (calls("linalg.svt"), "count"),
        "linalg.svt.s": (secs("linalg.svt"), "s"),
        "linalg.svt.rank_p50": (_median(ranks), "count"),
        "linalg.svt.rank_max": (float(ranks.max()) if ranks.size else 0.0,
                                "count"),
        "linalg.soft_threshold.s": (secs("linalg.soft_threshold"), "s"),
        "linalg.theta_norm.s": (secs("linalg.theta_norm"), "s"),
        "linalg.as_matrix.calls": (calls("linalg.as_matrix"), "count"),
        "linalg.as_matrix.s": (secs("linalg.as_matrix"), "s"),
        "solver.solve.s": (secs("solver.solve"), "s"),
        "solver.solve.self_s": (self_secs("solver.solve"), "s"),
        "solver.iterations.sum": (float(iterations.sum()) / units, "count"),
        "solver.iterations.p50": (_median(iterations), "count"),
        "solver.ms_per_iter": (1e3 * solve_s / iterations.sum()
                               if iterations.size else 0.0, "ms"),
        "solver.capped": (tracer.capped / units, "count"),
        "solver.recover_dual.s": (secs("solver.recover_dual"), "s"),
        "solver.check_optimality.s": (secs("solver.check_optimality"), "s"),
        "solver.extract_rank_one.s": (secs("solver.extract_rank_one"), "s"),
        "analysis.row_zero_threshold.calls": (
            calls("analysis.row_zero_threshold"), "count"),
        "analysis.row_zero_threshold.s": (secs("analysis.row_zero_threshold"),
                                          "s"),
        "analysis.theta_A.s": (secs("analysis.theta_A"), "s"),
        "analysis.theta_B.s": (secs("analysis.theta_B"), "s"),
        "analysis.top_block.s": (secs("analysis.top_block"), "s"),
        "generate.plant_rank_one.s": (secs("generate.plant_rank_one"), "s"),
        "generate.plant_biclique.s": (secs("generate.plant_biclique"), "s"),
        "nmf.greedy_extract.s": (secs("nmf.greedy_extract"), "s"),
        "nmf.greedy_extract.self_s": (self_secs("nmf.greedy_extract"), "s"),
        "nmf.rounds": (tracer.nmf_rounds / units, "count"),
        "mmio.parse_matrix.calls": (calls("mmio.parse_matrix"), "count"),
        "mmio.parse_matrix.s": (secs("mmio.parse_matrix"), "s"),
        "mmio.parse_matrix.mb": (mb("mmio.parse_matrix"), "MB"),
        "mmio.write_matrix.calls": (calls("mmio.write_matrix"), "count"),
        "mmio.write_matrix.s": (secs("mmio.write_matrix"), "s"),
        "mmio.write_matrix.mb": (mb("mmio.write_matrix"), "MB"),
    }
    for command in CLI_COMMANDS:
        out[f"cli.{command}.s"] = (secs(f"cli.{command}"), "s")
        out[f"cli.{command}.self_s"] = (self_secs(f"cli.{command}"), "s")
    out["cli.record.mb"] = (mb("cli.record"), "MB")
    return out
