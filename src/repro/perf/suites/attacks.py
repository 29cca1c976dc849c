"""Attacks suite: the batched sequential DIS loop plus attack-time trajectory.

The two gating benches port ``benchmarks/bench_sequential_attack_throughput.py``:
SARLock on the embedded ISCAS'89 ``s5378`` profile is the canonical
"one DIS per wrong key" scheme, so the DIS-refinement loop runs for exactly
the iteration cap at both batch widths and rounds/second compare identical
work.  The batched loop (``dis_batch=16``: lane-parallel ``query_batch``,
amortized rebuilds) must beat the same loop at ``dis_batch=1,
key_batch=1`` (one DIS per solver call, one candidate key at a time) by the
recorded bar.

``attacks.baseline_sat`` and ``attacks.sanity_singlekey`` carry no bars:
their correctness is pinned by the pytest suites; here they contribute
end-to-end attack wall-clock to the perf history so a slow creep in the
solver/engine stack shows up in ``repro perf compare`` even when every
ratio bar still passes.
"""

from __future__ import annotations

from typing import Dict

from repro.perf.harness import Harness
from repro.perf.registry import Bar, perf_benchmark

#: DIS-loop shape shared by both sides (matches the pytest benches).
DIS_BATCH = 16
DEPTH = 3


def locked_s5378(num_key_bits: int = 8, seed: int = 7):
    """SARLock on the embedded s5378 profile — the DIS-loop racetrack."""
    from repro.benchmarks_data.iscas89 import load_iscas89
    from repro.locking.baselines.sarlock import lock_sarlock

    return lock_sarlock(load_iscas89("s5378").circuit,
                        num_key_bits=num_key_bits, seed=seed)


def dis_loop_rate(locked, *, dis_batch: int, key_batch: int, incremental: bool,
                  crunch_keys: bool, max_iterations: int):
    """Run the capped DIS loop and return (result, rounds/s, elapsed)."""
    from repro.attacks.sequential_core import sequential_oracle_guided_attack

    result, elapsed = Harness.timed(
        lambda: sequential_oracle_guided_attack(
            locked,
            attack_name="bench",
            incremental=incremental,
            crunch_keys=crunch_keys,
            dis_batch=dis_batch,
            key_batch=key_batch,
            initial_depth=DEPTH,
            max_depth=DEPTH,
            max_iterations=max_iterations,
            time_limit=600.0,
        )
    )
    return result, result.iterations / elapsed, elapsed


def _dis_loop_speedup(
    harness: Harness, params: Dict[str, object], *,
    incremental: bool, crunch_keys: bool,
) -> Dict[str, float]:
    max_iterations = int(params["max_iterations"])
    locked = locked_s5378()
    batched, batched_rate, batched_elapsed = dis_loop_rate(
        locked, dis_batch=DIS_BATCH, key_batch=8, incremental=incremental,
        crunch_keys=crunch_keys, max_iterations=max_iterations)
    unit, unit_rate, _ = dis_loop_rate(
        locked, dis_batch=1, key_batch=1, incremental=incremental,
        crunch_keys=crunch_keys, max_iterations=max_iterations)

    # Identical work and identical verdicts before the rates mean anything.
    if not (batched.iterations == unit.iterations == max_iterations):
        raise RuntimeError(
            f"batch widths ran different DIS-round counts: batched "
            f"{batched.iterations}, unit {unit.iterations}, "
            f"cap {max_iterations}")
    if batched.outcome != unit.outcome:
        raise RuntimeError(
            f"batch widths disagree on the attack outcome: "
            f"{batched.outcome} vs {unit.outcome}")
    if batched.details["oracle_queries"] != unit.details["oracle_queries"]:
        raise RuntimeError("batch widths spent different oracle-query budgets")

    harness.record_series("packed_loop", [batched_elapsed])
    return {
        "packed_rate": batched_rate,
        "unit_rate": unit_rate,
        "speedup": batched_rate / unit_rate,
    }


@perf_benchmark(
    "attacks.dis_loop_bmc",
    params=dict(max_iterations=48),
    smoke=dict(max_iterations=16),
    bars=[Bar("speedup", ">=", 3.0, smoke_threshold=2.0)],
    primary="packed_loop",
)
def dis_loop_bmc(harness: Harness, params: Dict[str, object]) -> Dict[str, float]:
    """Non-incremental ("BBO") DIS loop: batching also amortizes the rebuild.

    Smoke runs fewer rounds, so the harvest quota ramp (1, 2, 4, ...) has
    less time at full width and the bar is relaxed to 2x.
    """
    return _dis_loop_speedup(harness, params, incremental=False, crunch_keys=False)


@perf_benchmark(
    "attacks.dis_loop_kc2",
    params=dict(max_iterations=48),
    smoke=dict(max_iterations=16),
    bars=[Bar("speedup", ">=", 3.0, smoke_threshold=2.0)],
    primary="packed_loop",
)
def dis_loop_kc2(harness: Harness, params: Dict[str, object]) -> Dict[str, float]:
    """Incremental + key-condition crunching: crunch runs once per batch."""
    return _dis_loop_speedup(harness, params, incremental=True, crunch_keys=True)


@perf_benchmark(
    "attacks.baseline_sat",
    params=dict(key_bits=6, time_limit=60.0),
    smoke=dict(time_limit=10.0),
    primary="sat_attack",
)
def baseline_sat(harness: Harness, params: Dict[str, object]) -> Dict[str, float]:
    """End-to-end SAT attack on RLL (experiment E8's first row), timed.

    No bar — the attack must simply *succeed*; the recorded wall-clock is
    trajectory data for ``repro perf compare``.
    """
    from repro.attacks import sat_attack
    from repro.attacks.results import AttackOutcome
    from repro.fsm.random_fsm import random_fsm
    from repro.fsm.synthesis import synthesize_fsm
    from repro.locking.baselines import lock_rll

    circuit = synthesize_fsm(random_fsm(8, 2, 2, seed=5), style="sop")
    locked = lock_rll(circuit, int(params["key_bits"]), seed=1)
    time_limit = float(params["time_limit"])
    stats = harness.time_series(
        "sat_attack",
        lambda: _require_correct(sat_attack(locked, time_limit=time_limit),
                                 AttackOutcome.CORRECT, "RLL SAT attack"),
        repeats=3, warmup=1,
    )
    return {"attack_seconds": stats.median}


@perf_benchmark(
    "attacks.sanity_singlekey",
    params=dict(time_limit=60.0, max_depth=8),
    smoke=dict(time_limit=10.0),
    primary="int_attack",
)
def sanity_singlekey(harness: Harness, params: Dict[str, object]) -> Dict[str, float]:
    """Experiment E7 timing: the single-key Cute-Lock reduction, attacked.

    No bar; trajectory only.  The incremental unrolling attack is the
    timed path because it exercises the unroller, session layer and packed
    oracle in one go.
    """
    from repro.attacks import int_attack
    from repro.attacks.results import AttackOutcome
    from repro.fsm.random_fsm import random_fsm
    from repro.fsm.synthesis import synthesize_fsm
    from repro.locking.base import KeySchedule
    from repro.locking.cutelock_str import CuteLockStr

    circuit = synthesize_fsm(random_fsm(8, 2, 2, seed=5), style="sop")
    schedule = KeySchedule(width=2, values=(2, 2, 2, 2))
    locked = CuteLockStr(num_keys=4, key_width=2, num_locked_ffs=1, seed=3).lock(
        circuit, schedule=schedule)
    time_limit, max_depth = float(params["time_limit"]), int(params["max_depth"])
    stats = harness.time_series(
        "int_attack",
        lambda: _require_correct(
            int_attack(locked, time_limit=time_limit, max_depth=max_depth),
            AttackOutcome.CORRECT, "single-key INT attack"),
        repeats=3, warmup=1,
    )
    return {"attack_seconds": stats.median}


def _require_correct(result, expected, label: str):
    if result.outcome is not expected:
        raise RuntimeError(f"{label} did not recover the key: {result.outcome}")
    return result
