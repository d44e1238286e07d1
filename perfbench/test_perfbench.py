"""Tests of the benchmark itself: its checks and its tracer.

    python3 -m pytest perfbench
"""

import copy
import json

import numpy as np
import pytest

import run
import tracing
from workloads import CohortDist, GeodesicRank, Outcome

corrgeo = run.import_corrgeo()


@pytest.fixture
def workdir():
    """Scratch directory inside the checkout, like the benchmark's own."""
    path = run.make_workdir("test")
    yield path
    run.remove_workdir(path)


def tally_with(workload, outcome):
    """A Tally whose single operation returns the given outcome."""
    workload.run = lambda i: outcome
    return run.Tally(workload, run.load_refs(workload.name))


def reference_matrix(ref):
    labels = sorted({s for key in ref for s in key.split("|")})
    D = np.zeros((len(labels), len(labels)))
    for key, d in ref.items():
        a, b = (labels.index(s) for s in key.split("|"))
        D[a, b] = D[b, a] = d
    return labels, D


def test_distance_below_lower_bound_fails(workdir):
    w = CohortDist(corrgeo, workdir, seed=0)
    ref = run.load_refs(w.name)["c0"]
    labels, D = reference_matrix(ref)
    good = Outcome(6, output={"labels": labels, "D": D})
    assert w.check(0, good, ref) == []

    key = (labels[0], labels[1])
    D = D.copy()
    D[0, 1] = D[1, 0] = 0.5 * w.bounds[0][key]
    bad = Outcome(6, output={"labels": labels, "D": D})
    assert any("outside" in p for p in w.check(0, bad, ref))

    tally = tally_with(w, bad)
    tally.op(0)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert tally.problems


def test_asymmetric_distances_fail(workdir):
    w = CohortDist(corrgeo, workdir, seed=0)
    ref = run.load_refs(w.name)["c0"]
    labels, D = reference_matrix(ref)
    D[0, 1] += 1e-12
    out = Outcome(6, output={"labels": labels, "D": D})
    assert "distance matrix is not symmetric" in w.check(0, out, ref)


def test_changed_rank_profile_fails(workdir):
    w = GeodesicRank(corrgeo, workdir, seed=0)
    ref = run.load_refs(w.name)["g00"]
    assert w.check(0, Outcome(1, output=copy.deepcopy(ref)), ref) == []

    tampered = copy.deepcopy(ref)
    tampered["profile"][5][1] -= 1
    problems = w.check(0, Outcome(1, output=tampered), ref)
    assert any("not constant" in p for p in problems)
    assert any("differs from the reference" in p for p in problems)

    tally = tally_with(w, Outcome(1, output=tampered))
    tally.op(0)
    assert (tally.attempted, tally.failed) == (1, 1)


def test_program_failure_counts_as_failed_but_not_incorrect(workdir):
    w = GeodesicRank(corrgeo, workdir, seed=0)
    tally = tally_with(w, Outcome(0, failure="AlignmentStagnation: stalled"))
    tally.op(0)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert tally.problems == [] and tally.notes


def test_tracer_counts_rebound_names_and_restores_namespace():
    before = tracing.namespace_snapshot()
    qs = corrgeo.quotient_space
    qf = qs.qf
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # quotient_space imported qf by name; its binding must be the wrapper
        assert qs.qf is not qf and qs.qf is corrgeo.kernels.qf and qs.qf.__wrapped__ is qf
        rng = np.random.default_rng(0)
        X, Y = (r / np.linalg.norm(r, axis=1)[:, None] for r in rng.standard_normal((2, 6, 3)))
        result = corrgeo.align(X, Y)
    finally:
        tracer.restore()
    assert tracing.namespace_snapshot() == before
    assert qs.qf is qf
    stat = tracer.stat
    assert stat("quotient_space.align").calls == 1
    assert stat("kernels.procrustes").calls == 1
    assert tracer.extra["align.starts"] == result.restarts_used
    assert stat("orthogonal_group.og_armijo").calls >= result.iterations
    assert tracer.edges[("orthogonal_group.og_armijo", "kernels.qf")] > 0
    assert stat("config.SolverConfig.with_").calls > 0

    class AlignOnly:
        entry = "quotient_space.align"

    assert tracing.consistency(tracer, AlignOnly, [], 1) == []
    assert tracing.consistency(tracer, AlignOnly, [], 2) != []


@pytest.mark.parametrize("trace", [0, 1])
def test_end_to_end_json_shape(trace, capsys):
    assert run.main(["--workload", "geodesic_rank", "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    units = run.metric_units("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
