"""Benchmark of worldline: seeded workloads against its public API.

    python3 perfbench/run.py --workload large_solve --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; ``worldline`` is imported from
``src/`` there.  The load is one closed-loop client in one process: the next
op starts when the previous one returns.  BLAS is pinned to one thread.

With ``--trace 0`` the run measures end-to-end metrics untraced.  With
``--trace 1`` it alternates untraced cycles with cycles in which the public
entry points of each worldline module are wrapped, and reports per-layer
metrics from the traced cycles.  The last line of standard output is the
result object; the line before it, also written to
``perfbench/results/``, records the environment, failures, output digests
and quality figures.  See ``perfbench/README.md``.
"""

import os
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

if __name__ == "__main__":
    # must happen before numpy is first imported
    for _var in THREAD_VARS:
        os.environ[_var] = "1"

import argparse
import ctypes
import json
import platform
import resource
import statistics
import subprocess
from pathlib import Path
from time import perf_counter

import layers
from measure import percentile, run_op, tally
from tracing import Tracer, self_times
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_SAMPLES = 5


def import_worldline():
    """Import worldline from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import worldline
    import worldline.cli

    if src.resolve() not in Path(worldline.__file__).resolve().parents:
        raise ImportError(f"worldline was imported from {worldline.__file__}, not {src}")
    return worldline


def setup(name: str, seed: int, out_dir: Path):
    """Import worldline, generate the inputs and run one warm-up op."""
    start = perf_counter()
    wl = import_worldline()
    workload = WORKLOADS[name](wl, seed, out_dir)
    case = workload.warmup
    run_op(lambda: workload.call(case), lambda _: None, workload.expected)
    return wl, workload, perf_counter() - start


def probe_setup(name: str, seed: int) -> float:
    """Set-up time of a fresh interpreter, as measured by itself."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--setup-probe"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=150,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_cycle(workload, tracer: Tracer | None = None):
    """Run each case of the workload once; results and elapsed seconds."""
    results = []
    start = perf_counter()
    for case in workload.cases:
        call = lambda: workload.call(case)
        if tracer is not None:
            # the op's span covers the timed call, not the checks
            tracer.op += 1
            call = tracer.wrap("bench.op", call)
        check = lambda result: workload.check(case, result)
        results.append(run_op(call, check, workload.expected))
    return results, perf_counter() - start


def measure(wl, workload, seconds: float, traced: bool):
    """Run whole cycles of the workload's cases until ``seconds`` have passed.

    A traced run alternates untraced and traced cycles, in pairs, so that a
    drift in machine speed during the run falls on both halves alike.
    Returns ``{traced: (results, seconds)}`` and the tracer.
    """
    tracer = Tracer() if traced else None
    results = {False: [], True: []}
    elapsed = {False: 0.0, True: 0.0}
    start = perf_counter()
    cycles = 0
    while cycles == 0 or (traced and cycles % 2) or perf_counter() - start < seconds:
        on = traced and cycles % 2 == 1
        if on:
            layers.install(tracer, wl)
        try:
            cycle_results, cycle_s = run_cycle(workload, tracer if on else None)
        finally:
            if on:
                tracer.restore()
        results[on].extend(cycle_results)
        elapsed[on] += cycle_s
        cycles += 1
    return {on: (results[on], elapsed[on]) for on in (False, True)}, tracer


def _openblas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports (numpy and scipy bundle their own)."""
    found = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.split()[-1]}
    except OSError:
        return found
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for getter in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, getter, None)
            if fn is not None:
                found[Path(path).name] = fn()
                break
    return found


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(wl) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "env": {var: os.environ.get(var) for var in THREAD_VARS + ("WORLDLINE_THREADS",)},
        "openblas_threads": _openblas_threads(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "worldline": wl.__version__,
        "git_commit": _git_commit(),
        "machine": platform.machine(),
    }


def _timing(results, elapsed, cases) -> dict:
    latencies = [r.latency_s for r in results]
    per_case = {}
    for i, r in enumerate(results):
        per_case.setdefault(cases[i % len(cases)]["label"], []).append(r.latency_s)
    return {
        "case_op_s_p50": {label: statistics.median(v) for label, v in per_case.items()},
        "ops": len(results),
        "elapsed_s": elapsed,
        "ops_per_s": len(results) / elapsed,
        "op_s_p50": statistics.median(latencies),
        # None unless at least 10 samples lie beyond the 90th percentile
        "op_s_p90": percentile(latencies, 90),
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def traced_metrics(tracer: Tracer, untraced: dict, results) -> dict:
    """Per-layer metrics from the traced cycles."""
    spans = tracer.spans
    selfs = self_times(spans)
    ops = [s for s in spans if s.layer == "bench.op"]
    op_time = sum(s.duration for s in ops)
    layer_self = sum(selfs[id(s)] for s in spans if s.layer != "bench.op")

    metrics = {}
    for name, value in layers.layer_metrics(spans, len(ops)).items():
        if name.endswith(".calls"):
            unit = "calls/op"
        elif name.startswith("solver.step_s"):
            unit = "s/step"
        elif name.endswith(("_s", ".s")):
            unit = "s/op"
        elif name == "solver.newton_iters":
            unit = "iters/solve"
        else:
            unit = "ratio"
        metrics[name] = _metric(value, unit)
    metrics["bench.self_s"] = _metric(sum(selfs[id(s)] for s in ops) / len(ops), "s/op")
    metrics["trace.accounted_frac"] = _metric(layer_self / op_time, "ratio")
    # medians, not ops_per_s: the first cycle also creates the output files
    traced_p50 = statistics.median(r.latency_s for r in results)
    metrics["trace.overhead_frac"] = _metric(traced_p50 / untraced["op_s_p50"] - 1.0, "ratio")
    return metrics


def run(args) -> int:
    wl, workload, own_setup = setup(args.workload, args.seed, BENCH_DIR / "out" / args.workload)
    setup_samples = [own_setup]
    setup_samples += [probe_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]

    sides, tracer = measure(wl, workload, args.seconds, bool(args.trace))
    untraced = _timing(*sides[False], workload.cases)
    results = sides[False][0] + sides[True][0]
    if args.trace:
        metrics = traced_metrics(tracer, untraced, sides[True][0])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    counts = tally(results)
    quality = workload.quality()
    quality["failed_frac"] = counts["failed"] / counts["attempted"]
    if args.trace:
        metrics["diagnostics.charge_dev_max"] = _metric(quality["charge_dev_max"] or 0.0, "abs")
        metrics["reference.ref_err_l2_max"] = _metric(quality["ref_err_l2_max"] or 0.0, "abs")
        metrics["bench.failed_frac"] = _metric(quality["failed_frac"], "ratio")
        metrics["cli.bytes_written"] = _metric(
            workload.bytes_written / counts["attempted"], "B/op"
        )
    else:
        metrics = {
            "setup_s": _metric(statistics.median(setup_samples), "s"),
            "ops_per_s": _metric(untraced["ops_per_s"], "1/s"),
            "op_s_p50": _metric(untraced["op_s_p50"], "s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(wl),
        "setup_samples_s": setup_samples,
        "untraced": untraced,
        "peak_rss_mb": peak_rss_mb,
        "counts": counts,
        "quality": quality,
    }
    results_dir = BENCH_DIR / "results"
    results_dir.mkdir(exist_ok=True)
    record_path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    outcome = {
        "correct": counts["wrong"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": metrics,
    }
    record["result"] = outcome
    record_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(outcome))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            *_, setup_s = setup(args.workload, args.seed, BENCH_DIR / "out" / "probe")
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return run(args)
    except ImportError as exc:
        print(f"perfbench: cannot import worldline from this checkout: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
