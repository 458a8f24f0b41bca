"""privcap benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload search-qubit --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout; privcap is imported from its
``src`` directory, never from an installed copy.  The last line of
standard output is the result JSON; details go to standard error and to
``bench/results/``.  See bench/README.md.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_privcap():
    """privcap from this checkout's src, or None."""
    sys.path.insert(0, str(SRC))
    try:
        import privcap
    except ImportError as exc:
        print(f"cannot import privcap from {SRC}: {exc}", file=sys.stderr)
        return None
    if not Path(privcap.__file__).resolve().is_relative_to(SRC):
        print(f"privcap resolved to {privcap.__file__}, outside {SRC}", file=sys.stderr)
        return None
    return privcap


def run_rounds(workload, rec, seconds: float, count: int | None = None) -> int:
    """Rounds 0, 1, ...: ``count`` of them, or whole rounds until ``seconds`` have passed."""
    start = time.perf_counter()
    r = 0
    while True:
        rec.run_round(workload.ops(r))
        r += 1
        if r == count or (count is None and time.perf_counter() - start >= seconds):
            return r


def machine_facts(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the layout of numpy's build report differs across versions
        blas = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "machine": platform.machine()}


def main(argv=None) -> int:
    args = parse_args(argv)
    pc = import_privcap()
    if pc is None:
        return 2
    import numpy as np
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    workload = workloads.WORKLOADS[args.workload](pc, args.seed)
    setup_s = time.perf_counter() - T0
    if tracer:
        tracer.uninstall()
    workload.prepare_references()

    untraced = workloads.Recorder()
    traced = workloads.Recorder()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if tracer:
            # the same rounds untraced, then traced: their difference is the overhead
            rounds = run_rounds(workload, untraced, args.seconds / 2)
            tracer.install()
            tracer.phase = "round"
            run_rounds(workload, traced, 0.0, count=rounds)
            workloads.layer_probe(pc, tracer)
            tracer.uninstall()
        else:
            rounds = run_rounds(workload, untraced, args.seconds)

    recs = (untraced, traced)
    failures = [m for r in recs for m in r.failures]
    wrong = [m for r in recs for m in r.wrong]
    for msg in failures + wrong:
        print(msg, file=sys.stderr)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)

    if tracer:
        metrics, absent = tracing.layer_metrics(
            tracer, rounds, statistics.fmean(untraced.walls), statistics.fmean(traced.walls))
        units = {m: u for m, (u, _) in tracing.LAYER_METRICS.items()}
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.fmean(untraced.walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        absent = []
        units = END_TO_END_UNITS

    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": rounds, "warnings": len(caught), "absent": absent,
        "operations": {f"{k}[{t}]": len(v) for (k, t), v in untraced.times.items()},
        "details": workload.details(untraced),
        "machine": machine_facts(np),
    }
    result = {
        "correct": not wrong,
        "attempted": untraced.attempted + traced.attempted,
        "failed": len(failures),
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    out = BENCH / "results"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out / f"{stem}.json").write_text(json.dumps({**details, "result": result}, indent=1))
    if tracer:
        tracer.dump(out / f"{stem}-spans.json")
    print(json.dumps(details), file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
