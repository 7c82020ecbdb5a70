"""Benchmark of the dirac_edge package: one workload, one seed, one result line.

    python3 perfbench/run.py --workload magnetic-grid --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ./src.  The
run builds the workload's inputs from the seed, then repeats whole rounds of
the workload's fixed operations until --seconds have passed (at least one
round), checks every round's outputs and prints the metrics.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.

--trace 0 reports the end-to-end metrics: setup_s (process start until the
package is imported and the inputs are built; median of this process and
four fresh ones that stop there), wall_s (median round time),
peak_rss_mb (peak resident memory of the process).
--trace 1 alternates untraced and traced rounds and reports the per-layer
breakdown of the traced ones (see README.md).  End-to-end figures always
come from untraced rounds.
"""

import os
import sys
import time

# One compute thread: BLAS single-threaded and one CLI worker, so that a run
# never has more busy threads than cores and timings stay steady.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "DIRAC_EDGE_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PROC_STAT = "/proc/self/stat"
SETUP_SAMPLES = 5   # cold set-ups per run: this process and four fresh ones


def _since_process_start():
    """Seconds since this process started, from its start time in /proc (Linux)."""
    with open(PROC_STAT) as f:
        started = int(f.read().rsplit(")", 1)[1].split()[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def cold_setups(args):
    """Set-up times of SETUP_SAMPLES - 1 fresh processes, one after another,
    each importing the package and building the same inputs as this one."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    times = []
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True, text=True, timeout=120)
        times.append(float(out.stdout.split()[-1]))
    return times


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def run_round(workload, tracer=None, tag=""):
    """One round: every operation once.  Returns (wall, cpu, results, failed)."""
    results, failed = {}, 0
    if tracer is not None:
        tracer.install()
    c0, t0 = os.times(), time.perf_counter()
    try:
        for name, op in workload.operations:
            if tracer is not None:
                tracer.op = f"{tag}{name}"
            try:
                results[name] = op()
            except Exception:
                failed += 1
                traceback.print_exc(file=sys.stderr)
    finally:
        wall = time.perf_counter() - t0
        c1 = os.times()
        if tracer is not None:
            tracer.uninstall()
            tracer.op = None
    cpu = (c1.user - c0.user) + (c1.system - c0.system)
    return wall, cpu, results, failed


def main(argv=None):
    if not os.path.isfile(PROC_STAT):
        print(f"error: {PROC_STAT} not found; set-up time is measured from the process's "
              "start time there (Linux only)", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "dirac_edge", "__init__.py")):
        print(f"error: {SRC}/dirac_edge not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import dirac_edge
    if os.path.dirname(os.path.dirname(os.path.abspath(dirac_edge.__file__))) != SRC:
        print(f"error: dirac_edge imported from {dirac_edge.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    args = parse_args(argv, WORKLOADS)
    outdir = os.path.join(HERE, "out", args.workload)
    os.makedirs(outdir, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, outdir)
    setup_s = _since_process_start()
    if args.setup_only:
        print(f"setup_s {setup_s!r}")
        return 0
    if not args.trace:
        setup_s = statistics.median([setup_s] + cold_setups(args))

    tracer = None
    if args.trace:
        from tracer import Tracer, breakdown
        tracer = Tracer()

    plain, traced = [], []          # (wall, cpu) per round
    layer_rounds = []               # per-layer metrics of each traced round
    attempted = failed = 0
    check_results = []
    t_start = time.perf_counter()
    n = 0
    while True:
        use_trace = tracer is not None and n % 2 == 1
        first_span = len(tracer.spans) if use_trace else 0
        wall, cpu, results, n_failed = run_round(
            workload, tracer if use_trace else None, tag=f"round{n}:")
        attempted += len(workload.operations)
        failed += n_failed
        (traced if use_trace else plain).append((wall, cpu))
        if use_trace:
            layer_rounds.append(breakdown(tracer.spans[first_span:]))
        if n_failed == 0:
            check_results += workload.check(workload.collect(results))
        n += 1
        done = time.perf_counter() - t_start >= args.seconds
        if done and (tracer is None or n >= 2):
            break

    summary = {}                    # per check: ok in every round, else the first failure
    for name, ok, detail in check_results:
        if name not in summary or (summary[name][0] and not ok):
            summary[name] = (ok, detail)
    for name, (ok, detail) in summary.items():
        print(f"check {'ok' if ok else 'FAILED'} {name}: {detail}")
    correct = bool(summary) and all(ok for ok, _ in summary.values())

    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (statistics.median(w for w, _ in plain), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        metrics = {}
        for key, (_, unit) in layer_rounds[0].items():
            metrics[key] = (statistics.median(r[key][0] for r in layer_rounds), unit)
        metrics["process.cpu_s"] = (statistics.median(c for _, c in plain), "s")
        metrics["trace.overhead_s"] = (statistics.median(w for w, _ in traced)
                                       - statistics.median(w for w, _ in plain), "s")
        tracer.write(os.path.join(outdir, "trace.jsonl"))

    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced rounds; wall/cpu per round "
          + " ".join(f"{w:.3f}/{c:.2f}" for w, c in plain + traced))
    for key, (value, unit) in metrics.items():
        print(f"{key} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
