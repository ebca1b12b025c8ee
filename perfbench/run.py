"""ampcg benchmark: seeded recovery problems, checked outputs, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload identify-data --seed 1 --seconds 35 --trace 0

With ``--trace 0`` the run sets up (import, input generation, one warm-up
problem), then solves its problem set in whole passes, one problem at a
time in this process, until the next pass would overrun ``--seconds``.
Every output is checked. The host's speed drifts, so each pass's wall
times are scaled to a fixed host speed by a reference kernel timed between
the problems (see ``_reference_s``), and a problem's time is its median
scaled time over the passes, so that the number of passes that fit does
not move it. Set-up times are scaled the same way.
``setup_s`` is the median of this process's set-up and two more in fresh
child processes. The run prints the end-to-end metrics, the unscaled
figures and the environment, then, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 1`` the run solves each problem three times in a row: under
one tracer (see tracing.py), untraced, and under a second tracer. It
requires the two tracers to give identical counts and reports the
per-layer metrics of the first. The tracing overhead is the traced
seconds, averaged over the two tracers, minus the untraced seconds. The
three solves of a problem follow each other, so the host's drift moves
them alike.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench_tmp"
SETUP_PROBES = 2
REF_S = 0.004
TAIL_BEYOND = 10


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="set up, print the seconds it took, exit")
    return parser.parse_args(argv)


def _import_library():
    if not (ROOT / "src" / "ampcg" / "__init__.py").is_file():
        sys.exit(f"error: no ampcg sources under {ROOT / 'src'}; run from a full checkout")
    # One BLAS thread: the matrices are at most p x p, and a second spinning
    # thread only competes with the measured one on a small shared host.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # noqa: F401  (imports ampcg, numpy, scipy)

    return workloads


def _blas_threads():
    """Threads of the OpenBLAS that numpy loaded, read through its own API."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as handle:
        libs = {line.split()[-1] for line in handle if "openblas" in line and line.rstrip().endswith(".so")}
    for lib in sorted(libs):
        dll = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(dll, symbol):
                return int(getattr(dll, symbol)())
    return None


def _reference_s() -> float:
    """Wall seconds of one fixed kernel: Python arithmetic, set building, small numpy solves.

    The host's speed changes by up to a factor of 1.7, sometimes within a
    second and sometimes for minutes, and it moves this kernel and the
    library's code alike. Timing the kernel between problems lets each pass
    be scaled to one fixed host speed, at which the kernel takes REF_S
    seconds. On a shared 2-vCPU 2.1 GHz Xeon VM, one identify-data problem
    set solved for 200 s, with each problem's best over 3 passes, gave a
    quartile spread across 25-second windows of 0.24 unscaled and 0.04
    scaled for throughput, and 0.18 and 0.04 for the median problem time.
    """
    import numpy as np

    started = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i
    pairs = {frozenset((i, i + 1)) for i in range(2_000)}
    a = np.eye(6) + np.arange(36.0).reshape(6, 6) / 72
    for _ in range(200):
        np.linalg.solve(a, a)
    del pairs
    return time.perf_counter() - started


def host_scale() -> float:
    """REF_S over the mean of 50 reference kernels run now."""
    return REF_S / statistics.fmean(_reference_s() for _ in range(50))


def environment(load_at_start) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    try:
        blas_threads = _blas_threads()
    except OSError:
        blas_threads = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": load_at_start,
        "host_scale": host_scale(),
    }


def _run_problems(workload, problems, attempts: list) -> float:
    """Solve and check each problem; append (seconds, passed, exact); return busy seconds."""
    busy = 0.0
    for problem in problems:
        started = time.perf_counter()
        try:
            output = workload.solve(problem, WORKDIR)
        except Exception as exc:  # a raising problem counts as failed; the run goes on
            seconds = time.perf_counter() - started
            print(f"problem failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            attempts.append((seconds, False, False))
        else:
            seconds = time.perf_counter() - started
            passed, exact = workload.check(problem, output, WORKDIR)
            attempts.append((seconds, passed, exact))
        busy += seconds
    return busy


def set_up(workload, seed: int):
    """Generate the problems and run the warm-up problem.

    Returns the problems and the seconds since process start, scaled to the
    reference host speed.
    """
    problems = workload.problems(seed)
    _run_problems(workload, workload.warmup(seed), [])
    seconds = time.perf_counter() - _STARTED
    return problems, seconds * host_scale()


def _setup_probe(workload_name: str, seed: int) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name]
    cmd += ["--seed", str(seed), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def measure(workload, seed: int, budget: float, problems: list):
    """Whole passes over the problems until the next pass would overrun the budget.

    A reference kernel runs before each problem; each pass's seconds are
    scaled by REF_S over the pass's mean kernel time. Returns every attempt,
    each problem's median scaled and median unscaled seconds over the
    passes, and each pass's scale.
    """
    attempts: list = []
    passes, scales = [], []
    started = time.perf_counter()
    while True:
        refs, seconds = [], []
        for problem in problems:
            refs.append(_reference_s())
            seconds.append(_run_problems(workload, [problem], attempts))
        passes.append(seconds)
        scales.append(REF_S / statistics.fmean(refs))
        elapsed = time.perf_counter() - started
        if elapsed * (len(passes) + 1) / len(passes) > budget:
            break
        problems = workload.problems(seed)  # equal inputs in fresh objects: no pass inherits cached state
    per_problem = list(zip(*passes))
    scaled = [statistics.median(t * x for t, x in zip(times, scales)) for times in per_problem]
    unscaled = [statistics.median(times) for times in per_problem]
    return attempts, scaled, unscaled, scales


def end_to_end(attempts, scaled, unscaled, scales, setup_s) -> tuple[dict, list]:
    ordered = sorted(scaled)
    rank = max(1, len(ordered) - TAIL_BEYOND)  # highest percentile with TAIL_BEYOND problems beyond it
    failed = sum(1 for a in attempts if not a[1])
    metrics = {
        "problems_per_s": (len(scaled) / sum(scaled), "1/s"),
        "problem_s_p50": (statistics.median(scaled), "s"),
        "problem_s_tail": (ordered[rank - 1], "s"),
        "exact_rate": (sum(1 for a in attempts if a[2]) / len(attempts), "share"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = [
        f"failed_frac {failed / len(attempts)} share",
        f"problem times are the median of {len(scales)} passes over {len(scaled)} problems, "
        f"scaled by {', '.join(f'{x:.4f}' for x in scales)} to the reference host speed; "
        f"problem_s_tail is p{100 * rank / len(scaled):.1f}, {len(scaled) - rank} problems beyond it",
        f"unscaled: problems_per_s {len(unscaled) / sum(unscaled)} 1/s, problem_s_p50 {statistics.median(unscaled)} s",
    ]
    return metrics, notes


def traced(workload, seed: int, problems: list):
    from tracing import Tracer, metric_units

    attempts: list = []
    first, again = Tracer(), Tracer()
    spent = [0.0, 0.0, 0.0]
    # Equal inputs in fresh objects for each solve: no solve inherits cached state.
    for trio in zip(problems, workload.problems(seed), workload.problems(seed)):
        for i, (tracer, problem) in enumerate(zip((first, None, again), trio)):
            with tracer.patched() if tracer else contextlib.nullcontext():
                spent[i] += _run_problems(workload, [problem], attempts)
    repeat = first.counts() == again.counts()
    units = metric_units()
    metrics = {name: (value, units[name]) for name, value in first.values.items()}
    traced_s, untraced_s = (spent[0] + spent[2]) / 2, spent[1]
    metrics["trace.untraced_s"] = (untraced_s, "s")
    metrics["trace.traced_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    notes = [f"traced counts repeat exactly across two tracers: {repeat}"]
    return attempts, metrics, notes, repeat


def main(argv=None) -> int:
    args = _parse_args(argv)
    load_at_start = os.getloadavg()
    wl = _import_library()
    if args.workload not in wl.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}")
    workload = wl.WORKLOADS[args.workload]
    WORKDIR.mkdir(exist_ok=True)
    try:
        problems, setup_s = set_up(workload, args.seed)
        if args.setup_only:
            print(setup_s)
            return 0
        print("env " + json.dumps(environment(load_at_start), sort_keys=True))
        print(f"workload {workload.name}: {workload.count} problems at {workload.size}")
        if args.trace:
            attempts, metrics, notes, correct = traced(workload, args.seed, problems)
        else:
            attempts, best, unscaled, scales = measure(workload, args.seed, args.seconds, problems)
            setups = [setup_s] + [_setup_probe(workload.name, args.seed) for _ in range(SETUP_PROBES)]
            metrics, notes = end_to_end(attempts, best, unscaled, scales, statistics.median(setups))
            correct = True
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    failed = sum(1 for a in attempts if not a[1])
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    for note in notes:
        print(note)
    result = {
        "correct": bool(correct and failed == 0),
        "attempted": len(attempts),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
