"""Each output check of the benchmark accepts the right output and rejects
a wrong one: a value raised by 1e-2, or an ensemble pushed through the
wrong channel.  Also checks the references against known values and the
tracer's bookkeeping.

    PYTHONPATH=src python -m pytest -q bench
"""

import json
import math
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import privcap as pc  # noqa: E402

import checks  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WRONG = 1e-2


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def rejects(check, *args, **kwargs):
    with pytest.raises(checks.CheckFailed):
        check(*args, **kwargs)


# --- references -------------------------------------------------------------


def test_closed_forms_match_known_values():
    # dephasing p=0.2 at nu=1/2: gamma = 0.9, so b_ps = b_rps = 1 - H2(0.9)
    _, ps, rps = reference.dephasing_triples(0.2, np.array([0.5]))
    assert ps[0] == pytest.approx(0.53100, abs=1e-4)
    assert rps[0] == pytest.approx(1.0 - float(reference.h2(0.9)), abs=1e-15)
    # 1->1 cloning is the identity channel: (1, 1, 1) at mu = 1/2
    assert [float(x[0]) for x in reference.cloning_triples(1, np.array([0.5]))] == \
        pytest.approx([1.0, 1.0, 1.0], abs=1e-15)
    assert reference.cloning_rp(2) == pytest.approx(2.0 / 3.0, abs=1e-15)
    # erasure eps=0.25 at p=1/2: (0.75, 0.5, 0.5)
    assert [float(x[0]) for x in reference.erasure_triples(0.25, np.array([0.5]))] == \
        pytest.approx([0.75, 0.5, 0.5], abs=1e-15)


@pytest.mark.parametrize("family,triples", [
    (pc.dephasing_family(0.2), partial(reference.dephasing_triples, 0.2)),
    (pc.cloning_family(10), partial(reference.cloning_triples, 10)),
    (pc.erasure_family(0.25), partial(reference.erasure_triples, 0.25)),
])
@pytest.mark.parametrize("lam,mu", [(1.0, 0.0), (0.5, 2.0), (0.0, 1.0), (2.0, 2.0)])
def test_dense_grid_maximum_matches_pareto_point(family, triples, lam, mu):
    got = pc.pareto_point(family, pc.TradeoffWeights(lam, mu)).value
    checks.pareto(got, reference.closed_form_max(triples, lam, mu), family.name)


def test_kraus_evaluator_on_known_ensembles():
    basis = np.zeros((1, 2, 2, 2), dtype=complex)
    basis[0, 0, 0, 0] = basis[0, 1, 1, 1] = 1.0
    probs = np.full((1, 2), 0.5)
    # identity channel: one bit of private information, environment learns nothing
    ident = reference.kraus_quantities([np.eye(2)], probs, basis)
    assert ident == pytest.approx((1.0, 1.0, 1.0), abs=1e-12)
    # completely dephasing channel: one bit to Bob, one bit to Eve
    delta = pc.make_dephasing(1.0)
    q = reference.kraus_quantities(delta.kraus, probs, basis)
    assert q == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)


@pytest.mark.parametrize("make", [lambda: pc.make_dephasing(0.2), lambda: pc.make_cloning(10),
                                  lambda: pc.tensor_channels(pc.make_erasure(0.25),
                                                             pc.make_erasure(0.25))])
def test_kraus_evaluator_matches_library(make, rng):
    ch = make()
    ens = workloads.random_ensemble(pc, rng, ch.dim_in)
    q = pc.region_quantities(pc.evaluate_ensemble(ch, ens))
    checks.quantities(q, reference.kraus_quantities(ch.kraus, ens.probs, ens.states), "match")


# --- every check rejects a wrong output ----------------------------------------


def test_search_value():
    closed = 1.5
    checks.search_value(closed, closed, "exact")
    checks.search_value(closed - 4e-3, closed, "lower bound")
    rejects(checks.search_value, closed + WRONG, closed, "raised")
    rejects(checks.search_value, closed - WRONG, closed, "lowered")
    rejects(checks.search_value, math.nan, closed, "nan")


def test_reevaluated(rng):
    deph = pc.make_dephasing(0.2)
    ens = workloads.random_ensemble(pc, rng, 2)
    q = pc.region_quantities(pc.evaluate_ensemble(deph, ens))
    value = q.rp + 0.5 * q.ps + 2.0 * q.rps
    checks.reevaluated(value, deph.kraus, ens, 0.5, 2.0, "right")
    rejects(checks.reevaluated, value + WRONG, deph.kraus, ens, 0.5, 2.0, "raised")
    wrong = pc.make_dephasing(0.6)
    rejects(checks.reevaluated, value, wrong.kraus, ens, 0.5, 2.0, "wrong channel")


def test_additivity():
    checks.additivity(0.0, "zero")
    checks.additivity(2e-15, "round-off")
    rejects(checks.additivity, WRONG, "raised")
    rejects(checks.additivity, -WRONG, "lowered")


def test_quantities(rng):
    clone = pc.make_cloning(10)
    ens = workloads.random_ensemble(pc, rng, 2)
    q = pc.region_quantities(pc.evaluate_ensemble(clone, ens))
    ref = reference.kraus_quantities(clone.kraus, ens.probs, ens.states)
    checks.quantities(q, ref, "right")
    for field in ("rp", "ps", "rps"):
        rejects(checks.quantities, ref._replace(**{field: getattr(ref, field) + WRONG}), ref,
                f"{field} raised")
    wrong = pc.region_quantities(pc.evaluate_ensemble(pc.make_cloning(9), ens))
    rejects(checks.quantities, wrong, ref, "wrong channel")


def test_rate_ranges(rng):
    er = pc.make_erasure(0.25)
    ens = workloads.random_ensemble(pc, rng, 2)
    q = pc.region_quantities(pc.evaluate_ensemble(er, ens))
    checks.rate_ranges(q, er.dim_out, "right")
    rejects(checks.rate_ranges, reference.Quantities(math.log2(3) + WRONG, 0.0, 0.0), 3, "rp")
    rejects(checks.rate_ranges, reference.Quantities(-WRONG, -1.0, -1.0), 3, "negative rp")
    rejects(checks.rate_ranges, reference.Quantities(q.rp, q.rp + WRONG, q.rps), 3, "ps")
    rejects(checks.rate_ranges, reference.Quantities(q.rp, q.ps, q.rp + WRONG), 3, "rps")


def test_pauli_monotone(rng):
    deph = pc.make_dephasing(0.2)
    ens = workloads.random_ensemble(pc, rng, 2)
    before = reference.kraus_quantities(deph.kraus, ens.probs, ens.states).rp
    sym = pc.pauli_symmetrize(ens)
    after = reference.kraus_quantities(deph.kraus, sym.probs, sym.states).rp
    checks.pauli_monotone(before, after, "right")
    rejects(checks.pauli_monotone, before, before - WRONG, "lowered")


def test_boundary():
    triples = partial(reference.dephasing_triples, 0.2)
    samples = pc.sample_boundary(pc.dephasing_family(0.2), 101)
    checks.boundary(samples, triples, 101, "right")
    raised = list(samples)
    b = raised[40]
    raised[40] = pc.BoundTriple(b.param, b.b_rp, b.b_ps + WRONG, b.b_rps)
    rejects(checks.boundary, raised, triples, 101, "raised")
    rejects(checks.boundary, pc.sample_boundary(pc.dephasing_family(0.3), 101), triples, 101,
            "wrong channel")
    rejects(checks.boundary, samples[:-1], triples, 101, "short")


def test_pareto():
    w = pc.TradeoffWeights(1.0, 1.0)
    value = pc.pareto_point(pc.erasure_family(0.25), w).value
    expected = reference.closed_form_max(partial(reference.erasure_triples, 0.25), 1.0, 1.0)
    checks.pareto(value, expected, "right")
    rejects(checks.pareto, value + WRONG, expected, "raised")


def test_inside():
    fam = pc.cloning_family(10)
    for point in checks.UNIT_PROTOCOLS:
        checks.inside(pc.membership(fam, point), point, "unit protocol")
    outside = (1.0 + WRONG, 0.0, 0.0)
    rejects(checks.inside, pc.membership(fam, outside), outside, "beyond b_rp")


# --- workloads, tracer and the benchmark file ---------------------------------


def test_rounds_are_deterministic_by_seed():
    a = workloads.EvaluateOneOff(pc, 3)
    b = workloads.EvaluateOneOff(pc, 3)
    ens_a = a.ops(0)[0].call.args[1]
    ens_b = b.ops(0)[0].call.args[1]
    np.testing.assert_array_equal(ens_a.states, ens_b.states)
    assert workloads.search_seeds(3, 0, 3) == workloads.search_seeds(3, 0, 3)
    assert workloads.search_seeds(3, 0, 3) != workloads.search_seeds(4, 0, 3)


def test_evaluate_round_checks_pass():
    wl = workloads.EvaluateOneOff(pc, 0)
    wl.prepare_references()
    rec = workloads.Recorder()
    rec.run_round(wl.ops(0))
    assert not rec.failures and not rec.wrong
    assert rec.attempted == len(wl.ops(0))


def test_tracer_counts_repeat_and_restore():
    cfg = pc.SearchConfig(seed=5, restarts=3, iters=20)
    original = pc.maximize_p
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        tracer.phase = "round"
        pc.maximize_p(pc.make_dephasing(0.2), pc.TradeoffWeights(1.0, 0.0), cfg)
        tracer.uninstall()
        metrics, absent = tracing.layer_metrics(tracer, 1, 0.0, 0.0)
        counts.append(metrics["search.objective_calls"])
        assert absent == []
        assert metrics["search.ascent_calls"] == 3 * 3  # three restarts, three ascents each
    assert counts[0] == counts[1] > 0
    assert pc.maximize_p is original
    assert pc.regions.maximize_p is original


def test_missing_function_is_absent(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS",
                        tuple(t for t in tracing.TARGETS if t[1] != "pareto_point"))
    tracer = tracing.Tracer()
    _, absent = tracing.layer_metrics(tracer, 1, 0.0, 0.0)
    assert absent == ["regions.pareto_point_ms"]


def test_benchmark_file_matches_code():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in doc["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == \
        {m: u for m, (u, _) in tracing.LAYER_METRICS.items()}
