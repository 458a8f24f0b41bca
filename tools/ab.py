"""Interleaved in-process A/B of the benchmark's search operations.

    python tools/ab.py PARENT_ROOT CHANGE_ROOT [--restarts N] [--rounds R]

Each argument is the root of a privcap checkout; its ``src/privcap`` is
loaded as a package of its own, so both sides run in one process, on
the same inputs, alternating which side goes first in each round.  The
operations are those of the ``search-qubit`` and ``search-large``
workloads of ``bench/run.py``: ``maximize_p`` on dephasing 0.2 at two
weight pairs, ``holevo_capacity`` of the completely dephasing channel,
``maximize_p`` on 1->10 cloning and ``additivity_gap`` on erasure 0.25,
with seed = round index and ``SearchConfig(restarts=N)``.

Prints, per operation, the median CPU seconds of each side and the
median of the paired ratios parent/change (above 1: the change is
faster), with the number of rounds the change was faster.  Exits 1 if
any returned value or ensemble differs between the two sides in any bit.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import statistics
import sys
import time
import warnings
from pathlib import Path


def load(root: str, name: str):
    """The checkout's ``src/privcap`` imported as the package ``name``."""
    pkg = Path(root).resolve() / "src" / "privcap"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def operations(pc):
    """Operation name -> call(cfg), with the channels built once."""
    deph, delta = pc.make_dephasing(0.2), pc.make_dephasing(1.0)
    cloning, erasure = pc.make_cloning(10), pc.make_erasure(0.25)
    w = pc.TradeoffWeights
    return {
        "maximize_p dephasing (1, 0)": lambda cfg: pc.maximize_p(deph, w(1.0, 0.0), cfg),
        "maximize_p dephasing (0.5, 2)": lambda cfg: pc.maximize_p(deph, w(0.5, 2.0), cfg),
        "holevo_capacity delta": lambda cfg: pc.holevo_capacity(delta, cfg),
        "maximize_p cloning10": lambda cfg: pc.maximize_p(cloning, w(1.0, 0.0), cfg),
        "additivity_gap erasure": lambda cfg: pc.additivity_gap(erasure, w(1.0, 0.0), cfg),
    }


def fingerprint(out) -> str:
    """repr of the value, and a digest of the ensemble a search returns."""
    if isinstance(out, tuple):
        value, ens = out
        return f"{value!r} {hashlib.sha256(ens.probs.tobytes() + ens.states.tobytes()).hexdigest()}"
    return repr(out)


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
            if seen["parent"] != seen["change"]:
                mismatches.append(f"round {r} {op}: {seen['parent']} != {seen['change']}")
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
