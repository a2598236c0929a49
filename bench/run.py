"""laros benchmark: time to a certified solve on three closed-loop workloads.

Run from the repository root:

    python3 bench/run.py --workload planted --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --smoke

Workloads are planted, degenerate and cli (see workloads.py). With
``--trace 0`` the last stdout line is a JSON object whose metrics are the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it holds the
per-layer metrics of a traced run. The lines before it report every metric
by name and unit, the environment and the result digest. The process exits
1 if any output check fails and 2 if the laros sources are missing.
"""

import time

# (wall, CPU) at the first line; CPU time before it is interpreter start-up
# and whatever launcher exec'd the interpreter
PROCESS_START = (time.perf_counter(), time.process_time())

import os  # noqa: E402

# One BLAS thread, pinned before numpy is loaded: the plain single-thread
# baseline. On 2 cores, 2 OpenBLAS threads ran slower than 1 at m = 240 and
# 360, and oversubscription broke the c07 timing gate under load.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("planted", "degenerate", "cli")
# the end-to-end metrics of BENCHMARK.json; the others are only reported.
# Their times are process CPU seconds: the benchmark is single-threaded, so
# on a dedicated machine CPU time is wall time, while on a shared host CPU
# time leaves out the time the hypervisor gives other guests (steal), which
# pushed the run-to-run spread of wall times past the 0.25 bounds.
END_TO_END = ("setup_s", "solve_cpu_s_p50", "pipeline_cpu_s_p50",
              "instances_per_cpu_s", "certified_frac", "peak_rss_mb")
SETUP_REPEATS = 5
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_BEYOND = 10
SMOKE_SECONDS = 0.5
SEED_MODULUS = 2 ** 64
WALL, CPU = 0, 1         # positions in the (wall, CPU) time pairs


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def steal_seconds():
    """CPU time the hypervisor gave to other guests since boot, all CPUs
    (the steal column of /proc/stat); None where it cannot be read."""
    try:
        with open("/proc/stat", encoding="utf-8") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def loadavg():
    try:
        return list(os.getloadavg())
    except OSError:
        return None


def environment(numpy_version):
    return {
        "blas_threads": BLAS_THREADS,
        "blas_env": {var: os.environ[var] for var in BLAS_ENV},
        "numpy": numpy_version,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "loadavg_start": loadavg(),
        "steal_s_start": steal_seconds(),
    }


def tail(samples):
    """Highest listed percentile with at least 10 samples beyond it."""
    for pct in TAIL_PERCENTILES:
        value = float(np.percentile(samples, pct))
        beyond = sum(s > value for s in samples)
        if beyond >= TAIL_BEYOND:
            return {"value": value, "percentile": pct, "beyond": beyond,
                    "samples": len(samples)}
    return None


def make_workload(name, seed, smoke):
    import workloads
    # numpy seeds must be non-negative; any integer --seed is accepted
    seed %= SEED_MODULUS
    if name == "planted":
        return workloads.Planted(seed, smoke)
    if name == "degenerate":
        return workloads.Degenerate(seed, smoke)
    return workloads.Cli(seed, str(OUT_DIR), smoke)


def _fits(start, last, seconds):
    """Whether another round, as long as the last one, ends within
    `seconds` of `start`: a run lasts at most about `seconds`."""
    return time.perf_counter() - start + last <= seconds


def _loop(workload, seconds, outcomes):
    """Closed loop: rounds back to back, at least one, while they fit.
    Returns the loop's (wall, CPU) seconds."""
    import workloads
    start = workloads.clocks()
    k = 0
    while True:
        began = time.perf_counter()
        outcomes.extend(workload.round(k))
        k += 1
        if not _fits(start[0], time.perf_counter() - began, seconds):
            return workloads.since(start)


def _traced_loop(workload, seconds, outcomes, tracer):
    """Pairs of rounds on the same inputs, untraced then traced. Returns
    the (wall, CPU) seconds of each side's rounds."""
    import spans
    import workloads
    rounds = {False: [], True: []}
    start = time.perf_counter()
    k = 0
    while True:
        for traced in (False, True):
            began = workloads.clocks()
            if traced:
                untraced_begin = workload.begin
                workload.begin = tracer.set_instance
                try:
                    with spans.Instrumented(tracer):
                        outcomes.extend(workload.round(k))
                finally:
                    workload.begin = untraced_begin
            else:
                outcomes.extend(workload.round(k))
            rounds[traced].append(workloads.since(began))
        k += 1
        last = rounds[False][-1][0] + rounds[True][-1][0]
        if not _fits(start, last, seconds):
            return rounds


def _entries(metrics):
    return {key: {"value": v, "unit": u} for key, (v, u) in metrics.items()}


def _median(pairs, clock):
    return statistics.median(pair[clock] for pair in pairs)


def run(name, seed, seconds, trace, import_s, smoke=False):
    """Run one workload; returns (result line dict, report dict).
    `import_s` is the (wall, CPU) seconds the process took to get here."""
    import spans
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    env = environment(np.__version__)
    workload = make_workload(name, seed, smoke)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        began = workloads.clocks()
        workload.setup()
        setup_times.append(workloads.since(began))
    setup = [import_s[c] + _median(setup_times, c) for c in (WALL, CPU)]

    outcomes = []
    tracer = spans.Tracer() if trace else None
    if trace:
        rounds = _traced_loop(workload, seconds, outcomes, tracer)
        loop = [sum(r[c] for r in rounds[False] + rounds[True])
                for c in (WALL, CPU)]
    else:
        loop = _loop(workload, seconds, outcomes)
    env["loadavg_end"] = loadavg()
    env["steal_s_end"] = steal_seconds()

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(len(o.errors) for o in outcomes)
    solve = [o.solve for o in outcomes]
    pipeline = [o.pipeline for o in outcomes]
    gaps = [o.gap for o in outcomes if o.gap is not None]
    recover_of = sum(o.rec_of for o in outcomes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report = {
        "setup_s": (setup[CPU], "s"),
        "setup_wall_s": (setup[WALL], "s"),
        "solve_cpu_s_p50": (_median(solve, CPU), "s"),
        "solve_cpu_s_tail": (tail([t[CPU] for t in solve]), "s"),
        "solve_s_p50": (_median(solve, WALL), "s"),
        "solve_s_tail": (tail([t[WALL] for t in solve]), "s"),
        "pipeline_cpu_s_p50": (_median(pipeline, CPU), "s"),
        "pipeline_s_p50": (_median(pipeline, WALL), "s"),
        "instances_per_cpu_s": (len(outcomes) / loop[CPU], "1/s"),
        "instances_per_s": (len(outcomes) / loop[WALL], "1/s"),
        "cpu_per_wall": (loop[CPU] / loop[WALL], "fraction"),
        "certified_frac": (sum(o.certified for o in outcomes) / len(outcomes),
                           "fraction"),
        "recovered_frac": (sum(o.recovered for o in outcomes) / recover_of
                           if recover_of else None, "fraction"),
        "error_frac": (failed / attempted, "fraction"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    if trace:
        units = len(rounds[True])
        metrics = spans.layer_metrics(tracer, units)
        metrics["trace.overhead_frac"] = (
            _median(rounds[True], WALL) / _median(rounds[False], WALL) - 1.0,
            "fraction")
    else:
        metrics = {key: report[key] for key in END_TO_END}
    rows = [o.row for o in outcomes]
    summary = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": env,
        "instances": len(outcomes),
        "setup_repeats_s": setup_times, "import_s": import_s,
        "report": _entries(report),
        "metrics": _entries(metrics),
        "digest": workloads.digest(rows),
        "capped": workloads.capped(rows),
        "max_certified_gap": max(gaps) if gaps else None,
        "errors": [msg for o in outcomes for msg in o.errors.values()],
        "rows": rows,
    }
    stem = f"{name}-seed{seed}-trace{trace}"
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=1)
    if trace:
        # one spans file per workload, replaced by each traced run: a
        # degenerate pass alone records about 600k spans
        tracer.write_jsonl(OUT_DIR / f"{name}.spans.jsonl")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": _entries(metrics),
    }
    return result, summary


def _delta(start, end):
    return None if start is None or end is None else round(end - start, 2)


def print_report(summary):
    env = summary["environment"]
    print(f"laros benchmark: workload={summary['workload']} "
          f"seed={summary['seed']} seconds={summary['seconds']} "
          f"trace={summary['trace']} instances={summary['instances']}")
    print(f"env: blas_threads={env['blas_threads']} (pinned before numpy "
          f"import) numpy={env['numpy']} python={env['python']} "
          f"nproc={env['nproc']} cpu={env['cpu_model']!r} "
          f"loadavg_start={env['loadavg_start']} "
          f"loadavg_end={env['loadavg_end']} steal_s="
          f"{_delta(env['steal_s_start'], env['steal_s_end'])}")
    for key, entry in summary["report"].items():
        value, unit = entry["value"], entry["unit"]
        if key.endswith("_tail"):
            if value is None:
                print(f"  {key:<20} n/a ({summary['instances']} samples; a "
                      f"tail needs {TAIL_BEYOND} beyond p75)")
            else:
                print(f"  {key:<20} {value['value']:.6g} {unit} "
                      f"(p{value['percentile']:g} of {value['samples']}, "
                      f"{value['beyond']} beyond)")
        elif value is None:
            print(f"  {key:<20} n/a (no planted truth)")
        else:
            print(f"  {key:<20} {value:.6g} {unit}")
    if summary["trace"]:
        for key, entry in summary["metrics"].items():
            print(f"  {key:<36} {entry['value']:.6g} {entry['unit']}")
    print(f"capped: {summary['capped']} solves stopped at their iteration "
          "cap (degenerate: c04 corpus; cli: biclique)")
    print(f"digest: sha256 {summary['digest']} over the distinct rows of "
          f"{len(summary['rows'])} instances; max certified gap "
          f"{summary['max_certified_gap']}")
    for msg in summary["errors"]:
        print(f"FAILED: {msg}")


def smoke(import_s):
    """Every workload at small sizes, both modes: all metrics present with
    the units BENCHMARK.json declares, and every output check passes."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    problems = []
    for name in WORKLOADS:
        for trace in (0, 1):
            result, summary = run(name, 0, SMOKE_SECONDS, trace, import_s,
                                  smoke=True)
            print_report(summary)
            declared = spec["per_layer" if trace else "end_to_end"]
            want = {m["name"]: m["unit"] for m in declared}
            got = {key: v["unit"] for key, v in result["metrics"].items()}
            if want != got:
                problems.append(f"{name} trace={trace}: metrics {sorted(got)} "
                                f"do not match BENCHMARK.json {sorted(want)}")
            if not result["correct"]:
                problems.append(f"{name} trace={trace}: {result['failed']} "
                                "failed operations")
    for problem in problems:
        print(f"SMOKE FAILED: {problem}")
    if not problems:
        print("smoke ok: all workloads, both modes, every metric present")
    return 1 if problems else 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at small sizes in seconds")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "laros" / "__init__.py").is_file():
        print(f"bench: no laros sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import laros
    if SRC not in Path(laros.__file__).resolve().parents:
        print(f"bench: imported laros from {laros.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import spans  # noqa: F401
    import workloads  # noqa: F401
    import_s = (time.perf_counter() - PROCESS_START[0],
                time.process_time() - PROCESS_START[1])
    if args.smoke:
        return smoke(import_s)
    result, summary = run(args.workload, args.seed, args.seconds, args.trace,
                          import_s)
    print_report(summary)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
