"""The benchmark's workloads, its input generator and the fixed layer probe.

A workload is built in two steps: the constructor is the set-up that
``setup_s`` times (channels, families, weights), and ``prepare_references``
computes the benchmark's own closed-form values afterwards.  ``ops(r)``
lists the calls of round r with their checks; a round's inputs come from
(seed, r) only.  ``details`` summarizes the per-operation timings of a run.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

import checks
import reference

ALPHABET = (4, 4)
"""(nx, ny) of every generated ensemble: the default search alphabet of a qubit input."""
AC2_WEIGHTS = tuple((lam, mu) for lam in (0.0, 0.5, 1.0, 2.0) for mu in (0.0, 0.5, 1.0, 2.0))
GRID = 101
PROBE_SEED = 20_100_518


def random_ensemble(pc, rng: np.random.Generator, d: int):
    """Dirichlet probabilities and Ginibre mixed states of dimension d."""
    nx, ny = ALPHABET
    probs = rng.dirichlet(np.ones(nx * ny)).reshape(nx, ny)
    g = rng.normal(size=(nx * ny, d, d)) + 1j * rng.normal(size=(nx * ny, d, d))
    rho = g @ g.conj().transpose(0, 2, 1)
    rho /= np.trace(rho, axis1=1, axis2=2).real[:, None, None]
    return pc.CqEnsemble(probs, rho.reshape(nx, ny, d, d))


def search_seeds(seed: int, round_index: int, count: int) -> list[int]:
    """SearchConfig seeds of one round, drawn from the run seed."""
    rng = np.random.default_rng([seed, round_index, 1])
    return [int(s) for s in rng.integers(0, 2**63, size=count)]


def input_rng(seed: int, round_index: int) -> np.random.Generator:
    return np.random.default_rng([seed, round_index, 2])


class Op(NamedTuple):
    kind: str
    tag: str
    call: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class Recorder:
    """Per-operation timings, round times, failures and check messages."""

    times: dict = field(default_factory=dict)
    walls: list = field(default_factory=list)
    attempted: int = 0
    failures: list = field(default_factory=list)
    wrong: list = field(default_factory=list)

    def run_round(self, ops: list[Op]) -> None:
        """Each call is timed alone and checked right after, outside its timer;
        the round's time is the sum of its calls' times."""
        wall = 0.0
        for op in ops:
            t = time.perf_counter()
            try:
                out = op.call()
                raised = None
            except Exception as exc:  # a failing operation is counted, not fatal
                raised = exc
            elapsed = time.perf_counter() - t
            wall += elapsed
            self.times.setdefault((op.kind, op.tag), []).append(elapsed)
            if raised is not None:
                self.failures.append(f"{op.kind}[{op.tag}] raised {raised!r}")
                continue
            try:
                op.check(out)
            except Exception as exc:  # CheckFailed, or a check that could not run
                self.wrong.append(f"{op.kind}[{op.tag}] check: {exc}")
        self.walls.append(wall)
        self.attempted += len(ops)

    def median(self, kind: str) -> float:
        """Median seconds per call of each tag of ``kind``, then the mean over
        tags, so tags of different cost keep equal weight."""
        meds = [statistics.median(v) for (k, _), v in self.times.items() if k == kind]
        return sum(meds) / len(meds)


def _search_check(closed: float, kraus, lam: float, mu: float, what: str):
    def check(out):
        value, ens = out
        checks.search_value(value, closed, what)
        checks.reevaluated(value, kraus, ens, lam, mu, what)
    return check


def _evaluate_check(pc, ch, ens, what: str, pauli_weights=None):
    def check(ev):
        q = pc.region_quantities(ev)
        checks.quantities(q, reference.kraus_quantities(ch.kraus, ens.probs, ens.states), what)
        checks.rate_ranges(q, ch.dim_out, what)
        if pauli_weights is not None:
            lam, mu = pauli_weights
            sym = pc.pauli_symmetrize(ens)
            after = reference.kraus_quantities(ch.kraus, sym.probs, sym.states)
            checks.pauli_monotone(q.rp + lam * q.ps + mu * q.rps,
                                  after.rp + lam * after.ps + mu * after.rps, what)
    return check


class SearchQubit:
    """maximize_p on dephasing p=0.2 at two AC2 weight pairs and the Holevo
    capacity of the completely dephasing channel, at the default SearchConfig."""

    name = "search-qubit"
    weights = ((1.0, 0.0), (0.5, 2.0))

    def __init__(self, pc, seed):
        self.pc = pc
        self.seed = seed
        self.dephasing = pc.make_dephasing(0.2)
        self.delta = pc.make_dephasing(1.0)
        self.tw = [pc.TradeoffWeights(lam, mu) for lam, mu in self.weights]

    def prepare_references(self):
        triples = partial(reference.dephasing_triples, 0.2)
        self.closed = [reference.closed_form_max(triples, lam, mu) for lam, mu in self.weights]

    def ops(self, r):
        pc = self.pc
        seeds = search_seeds(self.seed, r, len(self.weights) + 1)
        ops = [
            Op("maximize_p", f"dephasing{w}",
               partial(pc.maximize_p, self.dephasing, tw, pc.SearchConfig(seed=s)),
               _search_check(closed, self.dephasing.kraus, *w, f"maximize_p dephasing {w}"))
            for w, tw, closed, s in zip(self.weights, self.tw, self.closed, seeds)
        ]
        ops.append(Op("holevo_capacity", "delta",
                      partial(pc.holevo_capacity, self.delta, pc.SearchConfig(seed=seeds[-1])),
                      partial(checks.search_value, closed=reference.DELTA_HOLEVO,
                              what="holevo_capacity delta")))
        return ops

    def details(self, rec):
        return {"pareto_point_s": rec.median("maximize_p"),
                "capacity_s": rec.median("holevo_capacity")}


class SearchLarge:
    """maximize_p on cloning N=10 and additivity_gap on erasure eps=0.25."""

    name = "search-large"
    weights = (1.0, 0.0)

    def __init__(self, pc, seed):
        self.pc = pc
        self.seed = seed
        self.cloning = pc.make_cloning(10)
        self.erasure = pc.make_erasure(0.25)
        self.tw = pc.TradeoffWeights(*self.weights)

    def prepare_references(self):
        triples = partial(reference.cloning_triples, 10)
        self.closed = reference.closed_form_max(triples, *self.weights)

    def ops(self, r):
        pc = self.pc
        s_clone, s_gap = search_seeds(self.seed, r, 2)
        return [
            Op("maximize_p", "cloning10",
               partial(pc.maximize_p, self.cloning, self.tw, pc.SearchConfig(seed=s_clone)),
               _search_check(self.closed, self.cloning.kraus, *self.weights,
                             "maximize_p cloning10")),
            Op("additivity_gap", "erasure",
               partial(pc.additivity_gap, self.erasure, self.tw, pc.SearchConfig(seed=s_gap)),
               partial(checks.additivity, what="additivity_gap erasure")),
        ]

    def details(self, rec):
        return {"pareto_point_s": rec.median("maximize_p"),
                "additivity_gap_s": rec.median("additivity_gap")}


class EvaluateOneOff:
    """One-off evaluate_ensemble calls through four channel sizes, and the
    closed-form region calls of three families.  No search."""

    name = "evaluate-one-off"
    per_channel = 16
    triples = {"dephasing": partial(reference.dephasing_triples, 0.2),
               "cloning10": partial(reference.cloning_triples, 10),
               "erasure": partial(reference.erasure_triples, 0.25)}

    def __init__(self, pc, seed):
        self.pc = pc
        self.seed = seed
        erasure = pc.make_erasure(0.25)
        self.channels = {"dephasing": pc.make_dephasing(0.2), "erasure": erasure,
                         "cloning10": pc.make_cloning(10),
                         "erasure2": pc.tensor_channels(erasure, erasure)}
        self.families = {"dephasing": pc.dephasing_family(0.2),
                         "cloning10": pc.cloning_family(10),
                         "erasure": pc.erasure_family(0.25)}
        self.tw = {w: pc.TradeoffWeights(*w) for w in AC2_WEIGHTS}

    def prepare_references(self):
        self.closed = {(k, w): reference.closed_form_max(f, *w)
                       for k, f in self.triples.items() for w in AC2_WEIGHTS}

    def ops(self, r):
        pc = self.pc
        rng = input_rng(self.seed, r)
        ops = []
        for key, ch in self.channels.items():
            for i in range(self.per_channel):
                ens = random_ensemble(pc, rng, ch.dim_in)
                # Pauli symmetrization is defined, and monotone, for the dephasing qubit
                weights = (AC2_WEIGHTS[rng.integers(len(AC2_WEIGHTS))]
                           if key == "dephasing" else None)
                ops.append(Op("evaluate", key, partial(pc.evaluate_ensemble, ch, ens),
                              _evaluate_check(pc, ch, ens, f"evaluate {key} #{i}", weights)))
        for key, fam in self.families.items():
            ops.append(Op("boundary", key, partial(pc.sample_boundary, fam, GRID),
                          partial(checks.boundary, triples=self.triples[key], grid_size=GRID,
                                  what=f"sample_boundary {key}")))
            w = AC2_WEIGHTS[rng.integers(len(AC2_WEIGHTS))]
            ops.append(Op("pareto_point", key, partial(pc.pareto_point, fam, self.tw[w]),
                          lambda out, key=key, w=w: checks.pareto(
                              out.value, self.closed[(key, w)], f"pareto_point {key} {w}")))
            for point in checks.UNIT_PROTOCOLS:
                ops.append(Op("membership", key, partial(pc.membership, fam, point),
                              partial(checks.inside, point=point, what=f"membership {key}")))
        return ops

    def details(self, rec):
        per_channel = {}
        for (kind, key), v in rec.times.items():
            if kind == "evaluate":
                per_channel[key] = {"samples": len(v), "p50_ms": 1e3 * statistics.median(v),
                                    "p90_ms": 1e3 * statistics.quantiles(v, n=10)[-1]}
                if len(v) >= 1000:  # at least ten samples beyond the 99th percentile
                    per_channel[key]["p99_ms"] = 1e3 * statistics.quantiles(v, n=100)[-1]
        return {"evaluate_ms": 1e3 * rec.median("evaluate"),
                "boundary_ms": 1e3 * rec.median("boundary"),
                "pareto_point_ms": 1e3 * rec.median("pareto_point"),
                "membership_ms": 1e3 * rec.median("membership"),
                "evaluate": per_channel}


WORKLOADS = {w.name: w for w in (SearchQubit, SearchLarge, EvaluateOneOff)}


def layer_probe(pc, tracer, repeats: int = 40) -> None:
    """Fixed-input calls whose traced spans give the per-call layer costs:
    evaluate_ensemble once per eigen-solver path, the closed-form region
    calls per family, and tensor_channels.  Independent of the run seed."""
    tracer.phase = "probe:construct"
    fixed = EvaluateOneOff(pc, PROBE_SEED)
    rng = input_rng(PROBE_SEED, 0)
    erasure = fixed.channels["erasure"]
    tracer.phase = "probe:tensor_channels"
    for _ in range(repeats):
        pc.tensor_channels(erasure, erasure)
    for key, ch in fixed.channels.items():
        ens = random_ensemble(pc, rng, ch.dim_in)
        tracer.phase = f"probe:{key}"
        for _ in range(repeats):
            pc.evaluate_ensemble(ch, ens)
    w = pc.TradeoffWeights(1.0, 1.0)
    for key, fam in fixed.families.items():
        tracer.phase = f"probe:{key}"
        for _ in range(repeats // 4):
            pc.sample_boundary(fam, GRID)
            pc.pareto_point(fam, w)
            for point in checks.UNIT_PROTOCOLS:
                pc.membership(fam, point)
    tracer.phase = "done"
