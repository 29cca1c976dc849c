"""Tests of the benchmark itself: composition, wrappers, guard, fingerprints,
normalization.  Run with ``python -m pytest cellbench/tests -q``."""

import importlib
import signal
import sys
import time

import pytest

from cellbench import hostprobe
from cellbench.guard import SolveGuard
from cellbench.layers import LAYERS, ROOT, Tracer, self_seconds
from cellbench.runner import (
    FingerprintMismatch,
    PassRecord,
    end_to_end_metrics,
    layer_metrics,
    run_pass,
    run_workload,
)
from cellbench.workloads import (
    WORKLOADS,
    Cell,
    Design,
    Verdict,
    VerdictRegression,
    Workload,
    make_workload,
)
from repro.attacks.results import AttackOutcome, AttackResult
from repro.sat.session import SolveSession


def pigeonhole(holes, pigeons):
    """Unsatisfiable pigeonhole CNF: many conflicts before the answer."""
    def var(p, h):
        return p * holes + h + 1

    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var(p1, h), -var(p2, h)])
    return clauses


def hard_session(**kwargs):
    session = SolveSession(**kwargs)
    session.encoder.cnf.extend(pigeonhole(8, 9))
    return session


def one_cell_workload(run, check=lambda design, result: result):
    return Workload("fake", [Design("d", lambda: None, [Cell("d/c", run, check)])])


# ------------------------------------------------------------ composition
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_completes_a_reduced_pass(name):
    workload = make_workload(name, seed=3, reduced=True)
    with SolveGuard() as guard:
        record = run_pass(workload, guard)
    assert record.problems == {}
    assert record.cells == len(workload.cell_names) > 0
    assert 0 < record.setup_s + record.run_s <= record.wall_s


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_reduced_pass_attributes_time_to_layers(name):
    workload = make_workload(name, seed=3, reduced=True)
    with SolveGuard() as guard, Tracer() as tracer:
        record = run_pass(workload, guard, tracer)
    assert record.spans[0][0] == ROOT
    assert set(record.layer_self_s) - {ROOT} <= set(LAYERS)
    assert sum(record.layer_self_s.get(layer, 0.0) for layer in LAYERS) > 0


def test_seed_only_shuffles_cell_order():
    first = make_workload("str-attack", seed=1)
    second = make_workload("str-attack", seed=2)
    assert sorted(first.cell_names) == sorted(second.cell_names)
    assert first.cell_names != second.cell_names


# --------------------------------------------------------------- wrappers
def _bindings():
    """Every object a traced run may rebind, keyed by where it is bound."""
    bound = {}
    for targets in LAYERS.values():
        for target in targets:
            module_name, _, qualname = target.partition(":")
            module = importlib.import_module(module_name)
            if "." in qualname:
                owner_name, method = qualname.split(".")
                owner = getattr(module, owner_name)
                bound[(id(owner), method)] = owner.__dict__[method]
                continue
            for loaded in list(sys.modules.values()):
                name = getattr(loaded, "__name__", "") or ""
                if name.startswith("repro") and qualname in loaded.__dict__:
                    bound[(name, qualname)] = loaded.__dict__[qualname]
    return bound


def test_uninstall_restores_every_wrapped_attribute():
    make_workload("beh-attack", seed=0)  # imports every module the runs use
    before = _bindings()
    with Tracer():
        during = _bindings()
        assert sum(during[key] is not before[key] for key in before) >= len(
            [t for targets in LAYERS.values() for t in targets])
    after = _bindings()
    assert all(after[key] is before[key] for key in before)


def test_uninstall_after_a_failed_install_restores_everything():
    before = _bindings()
    tracer = Tracer()
    with pytest.raises(AttributeError):
        tracer.install({**LAYERS, "bogus": ("repro.sat.session:no_such_function",)})
    assert all(_bindings()[key] is before[key] for key in before)


def test_self_seconds_subtracts_children():
    spans = [[ROOT, 0.0, 10.0, -1], ["sat.search", 1.0, 5.0, 0], ["sat.sync", 1.0, 2.0, 1],
             ["sat.search", 6.0, 7.0, 0]]
    assert self_seconds(spans) == {ROOT: 5.0, "sat.search": 4.0, "sat.sync": 1.0}


# ------------------------------------------------------------------ guard
def test_guard_flags_a_solve_clamped_by_a_wall_clock():
    def run(design):
        return hard_session().solve(time_limit=0.001, conflict_limit=10**9)

    with SolveGuard() as guard:
        record = run_pass(one_cell_workload(run, lambda d, r: Verdict(str(r))), guard)
    assert list(record.problems) == ["d/c"]
    assert "clamped by a wall clock" in record.problems["d/c"]


def test_guard_accepts_a_solve_that_spent_its_conflict_budget():
    with SolveGuard() as guard:
        tally = guard.cell()
        assert hard_session(conflict_limit=5).solve() is None
    assert tally.conflicts == 5 and tally.clamped == []


def test_guard_restores_solve():
    original = SolveSession.solve
    with SolveGuard():
        assert SolveSession.solve is not original
    assert SolveSession.solve is original


# ---------------------------------------------------------- fingerprints
def test_fingerprint_mismatch_between_passes_fails_the_run():
    calls = []

    def run(design):
        calls.append(1)
        return Verdict("outcome", iterations=len(calls))

    with pytest.raises(FingerprintMismatch, match="d/c"):
        run_workload(one_cell_workload(run), 0.0, trace=False, log=lambda line: None)


def test_identical_work_passes_the_fingerprint_check():
    records = run_workload(one_cell_workload(lambda design: Verdict("same", 3)), 0.0,
                           trace=True, log=lambda line: None)
    assert [r.traced for r in records] == [False, True]
    assert records[0].fingerprints == records[1].fingerprints


def test_a_cell_that_raises_fails_without_stopping_the_pass():
    def explode(design):
        raise ArithmeticError("boom")

    workload = Workload("fake", [
        Design("d", lambda: None, [Cell("d/bad", explode, lambda d, r: r),
                                   Cell("d/good", lambda d: Verdict("ok"), lambda d, r: r)]),
        Design("e", lambda: 1 / 0, [Cell("e/c", lambda d: Verdict("ok"), lambda d, r: r)]),
    ])
    with SolveGuard() as guard:
        record = run_pass(workload, guard)
    assert record.cells == 3
    assert sorted(record.problems) == ["d/bad", "e/c"]
    assert "ArithmeticError: boom" in record.problems["d/bad"]
    assert "ZeroDivisionError" in record.problems["e/c"]


def test_a_broken_cute_lock_cell_is_a_verdict_regression():
    from cellbench.workloads import _cute_lock_check

    result = AttackResult(attack="int", outcome=AttackOutcome.CORRECT, key={"k": 1})
    with pytest.raises(VerdictRegression):
        _cute_lock_check("bcomp/INT")(None, result)


# ----------------------------------------------------------- normalization
def test_normalize_scales_by_probe_ratio():
    ref = hostprobe.PROBE_REF
    assert hostprobe.normalize(2.0, 2 * ref) == pytest.approx(1.0)
    assert hostprobe.normalize(3.0, ref) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        hostprobe.normalize(1.0, 0.0)


def test_a_pass_is_normalized_by_its_probe_mean():
    record = _record(2 * hostprobe.PROBE_REF, 8.0)  # setup 2 s, run 4 s
    assert record.norm_wall_s == pytest.approx(4.0)
    assert record.norm_setup_s == pytest.approx(1.0)
    assert record.norm_run_s == pytest.approx(2.0)


def test_probe_sampler_samples_inside_the_pass_and_excludes_its_time():
    loop_s = 10 * hostprobe.PROBE_INTERVAL
    with hostprobe.ProbeSampler() as clock:
        started, wall_started = clock.now(), time.perf_counter()
        while time.perf_counter() - wall_started < loop_s:
            pass
        measured = clock.now() - started
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(clock.samples) >= 5
    assert clock.probe_s == pytest.approx(sum(clock.samples) / len(clock.samples))
    assert loop_s - clock.paused < measured < loop_s  # the loop minus the probes inside it


def test_probe_work_is_fixed():
    assert hostprobe.probe_once()[1] == hostprobe.probe_once()[1]


def test_quartiles():
    assert hostprobe.quartiles([5.0]) == (5.0, 5.0, 5.0)
    assert hostprobe.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)


def _record(probe_s, wall_s, traced=False, **extra):
    return PassRecord(traced=traced, probe_s=probe_s, wall_s=wall_s, setup_s=wall_s / 4,
                      run_s=wall_s / 2, cpu_s=wall_s, cells=1, problems={},
                      fingerprints={}, **extra)


def test_end_to_end_metrics_are_medians_of_normalized_passes():
    ref = hostprobe.PROBE_REF
    records = [_record(ref, 4.0), _record(2 * ref, 10.0), _record(ref / 2, 3.0),
               _record(ref, 100.0, traced=True)]
    metrics = end_to_end_metrics(records)
    assert metrics["wall_s"] == (pytest.approx(5.0), "s")  # median of 4, 5, 6
    assert metrics["setup_s"][0] == pytest.approx(1.25)
    assert metrics["run_s"][0] == pytest.approx(2.5)
    assert metrics["peak_rss_mb"][0] > 0


def test_layer_metrics_use_traced_passes_and_report_overhead():
    ref = hostprobe.PROBE_REF
    traced = _record(ref, 6.0, traced=True, layer_self_s={ROOT: 0.6, "sat.search": 2.0},
                     counts={"sat.propagations": 1000, "sat.solve_calls": 4}, lanes=[1, 8, 3])
    metrics = layer_metrics([_record(2 * ref, 10.0), traced])
    assert metrics["trace.overhead_frac"][0] == pytest.approx(0.2)
    assert metrics["trace.unattributed_frac"][0] == pytest.approx(0.1)
    assert metrics["sat.search_s"][0] == pytest.approx(2.0)
    assert metrics["sat.props_per_s"][0] == pytest.approx(500.0)
    assert metrics["sat.solve_calls"][0] == 4
    assert metrics["engine.lanes_mean"][0] == pytest.approx(4.0)
    assert metrics["engine.lanes_max"][0] == 8
    assert metrics["fsm.qm_s"][0] == 0.0
