"""The benchmark's three closed-loop workloads.

Each workload runs rounds of work back to back (one client; a round starts
when the previous one finishes) and checks every output independently of
the solver's own flags. The library receives only matrices and files that
the benchmark generated from the workload seed.

- planted: one planted rank-one instance per round, solve -> recover_dual
  -> check_optimality. SVT dominates and its output rank is 1.
- degenerate: one pass over the fixed c04 corpus per round. Tiny matrices,
  so per-iteration Python work and iteration counts dominate; a third of
  the corpus hits the iteration cap.
- cli: one pass of ``laros.cli.main`` over files per round: plant, solve,
  certify, thresholds, nmf, biclique.

Support recovery is reported as recovered_frac and is not an error: it is
a statistical property of a noise draw (c08 allows 2 misses in 20), not
something a correct solver guarantees. An error is an exception, a
non-zero exit, or an output check that a correct program always passes.
"""

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from laros import cli, generate, mmio, solver

CERT_TOL = 1e-6          # check_optimality max residual that certifies
TABLE_RTOL = 1e-12       # thresholds record against the direct formulas
THETA_A_RTOL = 1e-9      # theta_A from Gram-matrix singular values
NMF_SLACK = 1e-12        # residual norms may not increase by more (as c09)
# About 1 in 9 biclique draws is dual-degenerate and plateaus for up to the
# CLI's default 50000 iterations (20 s), against the usual 300-700. As c04
# does, such solves are capped: they stay in the pass with converged=false,
# and the pass time no longer depends on which draw a seed makes. The
# plateau itself is what the degenerate workload measures. Even below the
# cap a draw needs 300-900 iterations, so pass k solves biclique draw k in
# every run, as the degenerate corpus is fixed: the biclique share of a pass
# then depends on the code, not on which draws a seed makes.
BICLIQUE_MAX_ITERS = 2000


def clocks():
    """(wall, process CPU) seconds now. CPU time leaves out the time a
    shared host gives other guests (steal), which wall time includes."""
    return time.perf_counter(), time.process_time()


def since(start, end=None):
    """(wall, CPU) seconds from `start` to `end` (default: now)."""
    end = clocks() if end is None else end
    return end[0] - start[0], end[1] - start[1]


@dataclass
class Outcome:
    """One closed-loop instance: its times, checks and digest row. Times
    are (wall, CPU) pairs in seconds."""

    solve: tuple = (0.0, 0.0)
    pipeline: tuple = (0.0, 0.0)
    attempted: int = 1
    errors: dict = field(default_factory=dict)   # operation -> message
    certified: int = 0
    recovered: int = 0
    rec_of: int = 0
    gap: float = None          # certified relative duality gap
    row: dict = field(default_factory=dict)


def _result_key(row):
    """A row's supports, converged flag and iteration count as text; gaps
    and residuals are left out, so two versions of the solver with the
    same results give the same key."""
    return json.dumps({k: v for k, v in row.items()
                       if k not in ("gap", "max_residual")}, sort_keys=True)


def digest(rows):
    """sha256 over the distinct rows' result keys."""
    keys = sorted({_result_key(row) for row in rows})
    return hashlib.sha256("\n".join(keys).encode()).hexdigest()


def capped(rows):
    """Solves in the rows that returned converged=false."""
    return sum(row.get("converged") is False
               or row.get("biclique", {}).get("converged") is False
               for row in rows)


def _certify(a, theta, sol, out):
    """Certificate steps for a converged solve, into `out`."""
    cert = solver.recover_dual(a, theta, sol.state)
    report = solver.check_optimality(a, theta, sol.scaled(), cert)
    if report.max_residual <= CERT_TOL:
        out.certified = 1
        out.gap = float(sol.gap)
    else:
        out.errors["instance"] = (
            f"converged solve fails check_optimality: max residual "
            f"{report.max_residual:.3e} > {CERT_TOL}")
    return report.max_residual


def _solve_instance(a, config, truth=None):
    """solve -> (recover_dual -> check_optimality if converged), timed."""
    out = Outcome()
    start = clocks()
    try:
        sol = solver.solve(a, config)
        residual = _certify(a, config.theta, sol, out) if sol.converged else None
    except Exception as exc:  # counted as a failed operation, run goes on
        out.solve = since(start)
        out.errors["instance"] = f"raised {exc!r}"
        return out
    out.solve = since(start)
    if not sol.converged and not (sol.iterations >= config.max_iters
                                  and math.isfinite(sol.gap) and sol.gap >= 0):
        out.errors["instance"] = (f"unconverged solve stopped early at "
                                  f"{sol.iterations} or reports gap {sol.gap}")
    out.row = {"rows": [int(i) for i in sol.support_rows],
               "cols": [int(j) for j in sol.support_cols],
               "converged": bool(sol.converged),
               "iterations": int(sol.iterations),
               "gap": float(sol.gap), "max_residual": residual}
    if truth is not None:
        out.rec_of = 1
        out.recovered = int(out.row["rows"] == [int(i) for i in truth.rows]
                            and out.row["cols"] == [int(j) for j in truth.cols])
    return out


def _no_instance_mark(instance_id):
    return None


class Planted:
    """Planted rank-one instances, m = n = 480, block 160 x 160."""

    name = "planted"

    def __init__(self, seed, smoke=False):
        self.seed = seed
        self.begin = _no_instance_mark
        m, block = (60, 20) if smoke else (480, 160)
        self.model = generate.PlantedModel(m=m, n=m, M=block, N=block,
                                           c3=0.1, noise_family="uniform")
        self.config = solver.SolverConfig(theta=1.0 / block, tol_primal=1e-7,
                                          tol_dual=1e-7, tol_gap=1e-7)
        # warm-up: the same model at a quarter of the size (c07's 120 x 120)
        self.warm_model = generate.PlantedModel(
            m=m // 4, n=m // 4, M=block // 4, N=block // 4, c3=0.1,
            noise_family="uniform")
        self.warm_config = solver.SolverConfig(
            theta=4.0 / block, tol_primal=1e-7, tol_dual=1e-7, tol_gap=1e-7)

    def setup(self):
        inst = generate.plant_rank_one(self.warm_model, self.seed)
        _solve_instance(inst.a, self.warm_config)

    def round(self, k):
        instance_seed = 1000 * self.seed + k
        self.begin(instance_seed)
        start = clocks()
        inst = generate.plant_rank_one(self.model, instance_seed)
        out = _solve_instance(inst.a, self.config, truth=inst.truth)
        out.pipeline = since(start)
        out.row["id"] = instance_seed
        return [out]


class Degenerate:
    """The c04 corpus: 20 random 15 x 15 matrices from rng 40, theta 1.5,
    15000 iterations at most.

    The corpus is fixed, so certified_frac and the capped count are the
    same in every run; the seed sets the order of each pass.
    """

    name = "degenerate"

    def __init__(self, seed, smoke=False):
        self.begin = _no_instance_mark
        self.count = 3 if smoke else 20
        self.corpus = None
        self.order = np.random.default_rng(seed)
        self.config = solver.SolverConfig(theta=1.5, max_iters=15000)
        self.seen = {}

    def setup(self):
        rng = np.random.default_rng(40)
        self.corpus = [rng.random((15, 15)) for _ in range(self.count)]
        _solve_instance(generate.two_block_matrix(),
                        solver.SolverConfig(theta=0.5))

    def round(self, k):
        outs = []
        for i in self.order.permutation(self.count):
            i = int(i)
            self.begin(i)
            start = clocks()
            out = _solve_instance(self.corpus[i], self.config)
            out.pipeline = since(start)
            out.row["id"] = i
            key = _result_key(out.row)
            if self.seen.setdefault(i, key) != key:
                out.errors["instance"] = (f"instance {i} gave a different "
                                          "result than in an earlier pass")
            outs.append(out)
        return outs


def _read_mm_array(path):
    """Independent reader for MatrixMarket array files (column-major)."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().split("\n")
    m, n = (int(t) for t in lines[1].split())
    return np.array(lines[2:2 + m * n], dtype=float).reshape(n, m).T


def _thresholds_errors(a, rows, cols, record):
    """Compare a thresholds record with the closed forms evaluated here."""
    errors = []
    # singular values from the Gram matrix: independent of the library's
    # SVD and not seen by the traced run's numpy.linalg.svd wrapper
    gram = a @ a.T if a.shape[0] <= a.shape[1] else a.T @ a
    s = np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[::-1], 0.0))
    m, n = a.shape
    theta_a = (s[0] - s[1]) / ((3 * s[0] - s[1]) * math.sqrt(m * n))
    mask = np.ones(a.shape, dtype=bool)
    mask[np.ix_(rows, cols)] = False
    a_bar, a_max = a[np.ix_(rows, cols)].mean(), a[mask].max()
    root = math.sqrt(len(rows) * len(cols))
    theta_b = (a_bar * root + a_max) / ((a_bar - a_max) * root)
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = a.min(axis=1)[:, None] / a.max(axis=1)[None, :]
        table = np.where(alpha > 1.0, 1.0 / (alpha - 1.0), np.nan)
    np.fill_diagonal(table, np.nan)
    got = np.array([[np.nan if v is None else v for v in row]
                    for row in record["row_zero_thresholds"]], dtype=float)
    if not math.isclose(record["theta_A"], theta_a, rel_tol=THETA_A_RTOL):
        errors.append(f"theta_A {record['theta_A']} != {theta_a}")
    if record["theta_B"] is None or not math.isclose(
            record["theta_B"], theta_b, rel_tol=TABLE_RTOL):
        errors.append(f"theta_B {record['theta_B']} != {theta_b}")
    if got.shape != table.shape or not np.allclose(
            got, table, rtol=TABLE_RTOL, atol=0.0, equal_nan=True):
        errors.append("row_zero_thresholds table differs from the formula")
    return errors


class Cli:
    """One pass through files of every ``laros`` subcommand per round."""

    name = "cli"

    def __init__(self, seed, out_dir, smoke=False):
        self.seed = seed
        self.begin = _no_instance_mark
        self.dir = os.path.join(out_dir, "cli-files")
        self.shape = (20, 240, 5, 60) if smoke else (80, 2400, 20, 600)

    def path(self, name):
        return os.path.join(self.dir, name)

    def setup(self):
        os.makedirs(self.dir, exist_ok=True)
        # the c09 construction: two noisy rank-one 20 x 20 blocks
        rng = np.random.default_rng(self.seed)
        a = np.zeros((40, 40))
        a[:20, :20] = 3.0 * np.outer(rng.random(20) + 0.5, rng.random(20) + 0.5)
        a[20:, 20:] = 2.0 * np.outer(rng.random(20) + 0.5, rng.random(20) + 0.5)
        a += rng.uniform(0.0, 0.01, size=(40, 40))
        mmio.write_matrix(self.path("nmf-input.mtx"), a)
        demo = self.path("demo.mtx")
        for argv in (["plant", "--kind", "two-block", "--matrix-output", demo,
                      "--output", self.path("demo-plant.json")],
                     ["solve", "--input", demo, "--theta", "0.5",
                      "--output", self.path("demo-solve.json")]):
            if cli.main(argv) != 0:
                raise RuntimeError(f"warm-up `laros {argv[0]}` failed")

    def _commands(self, pass_seed, k):
        m, n, bm, bn = self.shape
        theta = repr(1.0 / math.sqrt(bm * bn))
        rows = ",".join(str(i) for i in range(1, bm + 1))
        cols = ",".join(str(j) for j in range(1, bn + 1))
        p = self.path
        return [
            ["plant", "--m", m, "--n", n, "--M", bm, "--N", bn, "--c3", 0.1,
             "--seed", pass_seed, "--matrix-output", p("a.mtx"),
             "--output", p("plant.json")],
            ["solve", "--input", p("a.mtx"), "--theta", theta, "--tol", 1e-7,
             "--solution-output", p("x.mtx"),
             "--certificate-output", p("cert.json"),
             "--output", p("solve.json")],
            ["certify", "--input", p("a.mtx"), "--solution", p("x.mtx"),
             "--certificate", p("cert.json"), "--theta", theta,
             "--output", p("certify.json")],
            ["thresholds", "--input", p("a.mtx"), "--rows", rows,
             "--cols", cols, "--output", p("thresholds.json")],
            ["nmf", "--input", p("nmf-input.mtx"), "--theta", 0.5 / 40,
             "--features", 2, "--w-output", p("w.mtx"),
             "--h-output", p("h.mtx"), "--output", p("nmf.json")],
            ["biclique", "--m", 60, "--n", 60, "--M", 15, "--N", 15,
             "--seed", k, "--max-iters", BICLIQUE_MAX_ITERS,
             "--output", p("biclique.json")],
        ]

    def round(self, k):
        pass_seed = 1000 * self.seed + k
        self.begin(pass_seed)
        commands = [[str(t) for t in argv]
                    for argv in self._commands(pass_seed, k)]
        out = Outcome(attempted=len(commands), rec_of=2)
        ends = {}
        start = clocks()
        for argv in commands:
            name = argv[0]
            try:
                code = cli.main(argv)
            except (Exception, SystemExit) as exc:  # counted, run goes on
                out.errors[name] = f"laros {name} raised {exc!r}"
            else:
                if code != 0:
                    out.errors[name] = f"laros {name} exited {code}"
            ends[name] = clocks()
        out.pipeline = since(start, ends["biclique"])
        out.solve = since(ends["plant"], ends["certify"])
        records = {}
        for argv in commands:
            name = argv[0]
            if name in out.errors:
                continue
            try:
                with open(argv[argv.index("--output") + 1],
                          encoding="utf-8") as handle:
                    records[name] = json.load(handle)["result"]
            except (OSError, ValueError, KeyError) as exc:
                out.errors[name] = f"laros {name} record unreadable: {exc!r}"
        for name, message in self._check(records, out).items():
            out.errors.setdefault(name, message)
        out.row = {"id": pass_seed}
        for name, keys in (("solve", ("support_rows", "support_cols",
                                      "converged", "iterations")),
                           ("nmf", ("supports", "extracted")),
                           ("biclique", ("recovered_rows", "recovered_cols",
                                         "converged", "iterations"))):
            if name in records:
                out.row[name] = {key: records[name][key] for key in keys}
        return [out]

    def _check(self, records, out):
        """Output checks per command; returns {command: failure}."""
        errors = {}
        bm, bn = self.shape[2:]
        truth_rows, truth_cols = list(range(1, bm + 1)), list(range(1, bn + 1))
        plant = records.get("plant")
        if plant and (plant["truth_rows"] != truth_rows
                      or plant["truth_cols"] != truth_cols):
            errors["plant"] = "plant record names a different planted block"
        solve = records.get("solve")
        if solve:
            out.recovered += int(solve["support_rows"] == truth_rows
                                 and solve["support_cols"] == truth_cols)
            if solve["converged"]:
                out.gap = float(solve["dual_gap"])
        certify = records.get("certify")
        if certify:
            if certify["passed"]:
                out.certified = 1
            else:
                errors["certify"] = (f"certify did not pass: max residual "
                                     f"{certify['max_residual']:.3e}")
        if "thresholds" in records:
            a = _read_mm_array(self.path("a.mtx"))
            problems = _thresholds_errors(a, np.arange(bm), np.arange(bn),
                                          records["thresholds"])
            if problems:
                errors["thresholds"] = "; ".join(problems)
        nmf = records.get("nmf")
        if nmf:
            norms = np.array(nmf["residual_norms"])
            if np.any(np.diff(norms) > NMF_SLACK):
                errors["nmf"] = f"nmf residual norms increase: {norms.tolist()}"
            elif nmf["extracted"] != nmf["requested"]:
                errors["nmf"] = (f"nmf extracted {nmf['extracted']} of "
                                 f"{nmf['requested']} features")
        biclique = records.get("biclique")
        if biclique:
            out.recovered += int(bool(biclique["recovered"]))
        return errors
