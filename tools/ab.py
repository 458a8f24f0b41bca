"""Interleaved in-process A/B of the benchmark's search and closed-form operations.

    python tools/ab.py PARENT_ROOT CHANGE_ROOT [--restarts N] [--rounds R]

Each argument is the root of a privcap checkout; its ``src/privcap`` is
loaded as a package of its own, so both sides run in one process, on
the same inputs, alternating which side goes first in each round.  The
search operations are those of the ``search-qubit`` and ``search-large``
workloads of ``bench/run.py``: ``maximize_p`` on dephasing 0.2 at two
weight pairs, ``holevo_capacity`` of the completely dephasing channel,
``maximize_p`` on 1->10 cloning and ``additivity_gap`` on erasure 0.25,
with seed = round index and ``SearchConfig(restarts=N)``.  The two
closed-form operations ignore the ``SearchConfig``: ``sample_boundary``
at grid 101 and ``pareto_point`` at the 16 AC2 weight pairs, each for
the dephasing 0.2, 1->10 cloning and erasure 0.25 families.

BLAS runs on one thread, as in the benchmark.  Prints, per operation,
the median CPU seconds of each side and the median of the paired ratios
parent/change (above 1: the change is faster), with the number of
rounds the change was faster.  Exits 1 if any returned value, ensemble
or closed-form float differs between the two sides in any bit; each
such MISMATCH line gives change - parent of the value (of the first
differing field, for a closed-form operation) and whether the ensemble
bytes differ.
"""

from __future__ import annotations

import os

# BLAS on one thread, as in bench/run.py; set before either side imports numpy
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402


def load(root: str, name: str):
    """The checkout's ``src/privcap`` imported as the package ``name``."""
    pkg = Path(root).resolve() / "src" / "privcap"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


AC2_WEIGHTS = tuple((lam, mu) for lam in (0.0, 0.5, 1.0, 2.0) for mu in (0.0, 0.5, 1.0, 2.0))


def operations(pc):
    """Operation name -> call(cfg), with the channels and families built once."""
    deph, delta = pc.make_dephasing(0.2), pc.make_dephasing(1.0)
    cloning, erasure = pc.make_cloning(10), pc.make_erasure(0.25)
    w = pc.TradeoffWeights
    families = {"dephasing": pc.dephasing_family(0.2), "cloning10": pc.cloning_family(10),
                "erasure": pc.erasure_family(0.25)}
    return {
        "maximize_p dephasing (1, 0)": lambda cfg: pc.maximize_p(deph, w(1.0, 0.0), cfg),
        "maximize_p dephasing (0.5, 2)": lambda cfg: pc.maximize_p(deph, w(0.5, 2.0), cfg),
        "holevo_capacity delta": lambda cfg: pc.holevo_capacity(delta, cfg),
        "maximize_p cloning10": lambda cfg: pc.maximize_p(cloning, w(1.0, 0.0), cfg),
        "additivity_gap erasure": lambda cfg: pc.additivity_gap(erasure, w(1.0, 0.0), cfg),
        "sample_boundary grid 101": lambda cfg: {
            key: pc.sample_boundary(fam, 101) for key, fam in families.items()},
        "pareto_point AC2 pairs": lambda cfg: {
            f"{key} {pair}": pc.pareto_point(fam, w(*pair))
            for key, fam in families.items() for pair in AC2_WEIGHTS},
    }


def _fields(out, label=""):
    """(label, value) of every leaf of nested dicts, lists and dataclasses."""
    if isinstance(out, dict):
        for key, item in out.items():
            yield from _fields(item, f"{label}[{key}]")
    elif isinstance(out, list):
        for i, item in enumerate(out):
            yield from _fields(item, f"{label}[{i}]")
    elif dataclasses.is_dataclass(out):
        for f in dataclasses.fields(out):
            yield from _fields(getattr(out, f.name), f"{label}.{f.name}")
    else:
        yield label, out


def fingerprint(out) -> tuple:
    """The value, and a digest of the ensemble a search returns (None for a
    scalar search); for a closed-form operation, every labelled float."""
    if isinstance(out, dict):
        return tuple(_fields(out)), None
    if isinstance(out, tuple):
        value, ens = out
        return value, hashlib.sha256(ens.probs.tobytes() + ens.states.tobytes()).hexdigest()
    return out, None


def mismatch(parent: tuple, change: tuple) -> str:
    """The signed change of a value that differs in some bit, and of its
    ensemble; for a closed-form operation, of its first differing field."""
    (a, ens_a), (b, ens_b) = parent, change
    if isinstance(a, tuple):
        for (label, x), (_, y) in zip(a, b):
            if repr(x) != repr(y):
                return f"{label}: change - parent = {y - x:+.3e} ({x!r} -> {y!r})"
        return f"{len(a)} fields -> {len(b)} fields"
    ensemble = "" if ens_a is None else (
        ", ensemble bytes differ" if ens_a != ens_b else ", ensemble bytes equal")
    return f"change - parent = {b - a:+.3e} ({a!r} -> {b!r}){ensemble}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--restarts", type=int, default=50)
    ap.add_argument("--rounds", type=int, default=6)
    args = ap.parse_args(argv)
    sides = {"parent": load(args.parent, "privcap_parent"),
             "change": load(args.change, "privcap_change")}
    ops = {side: operations(pc) for side, pc in sides.items()}
    times = {(side, op): [] for side in sides for op in ops["parent"]}
    mismatches = []
    for r in range(args.rounds):
        order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
        for op in ops["parent"]:
            seen = {}
            for side in order:
                cfg = sides[side].SearchConfig(seed=r, restarts=args.restarts)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    t = time.process_time()
                    out = ops[side][op](cfg)
                    times[side, op].append(time.process_time() - t)
                seen[side] = fingerprint(out)
            if repr(seen["parent"]) != repr(seen["change"]):  # bitwise: NaN equal, -0.0 not 0.0
                mismatches.append(f"round {r} {op}: {mismatch(seen['parent'], seen['change'])}")
    print(f"{'operation':32s} {'parent s':>9s} {'change s':>9s} {'ratio':>6s}  faster")
    for op in ops["parent"]:
        a, b = times["parent", op], times["change", op]
        ratio = statistics.median(x / y for x, y in zip(a, b))
        faster = sum(y < x for x, y in zip(a, b))
        print(f"{op:32s} {statistics.median(a):9.3f} {statistics.median(b):9.3f} "
              f"{ratio:6.3f}  {faster}/{args.rounds}")
    for line in mismatches:
        print("MISMATCH", line)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
