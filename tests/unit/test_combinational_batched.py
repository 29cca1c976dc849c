"""Batched DIP harvesting in the combinational attacks (SAT / AppSAT).

Mirrors ``test_sequential_batched.py`` for the combinational DIP loop: every
key the packed-engine attacks report as ``CORRECT`` on a baseline scheme is
confirmed by the independent scalar random equivalence check, and a unit
batch (``dip_batch=1``, one DIP per solver call) recovers the same key as
the default batch width.
"""

import pytest

from repro.attacks import appsat_attack, sat_attack
from repro.attacks.results import AttackOutcome, AttackResult
from repro.fsm.random_fsm import random_fsm
from repro.fsm.synthesis import synthesize_fsm
from repro.locking.baselines import lock_rll, lock_sarlock, lock_ttlock
from repro.sim.equivalence import random_equivalence_check

BUDGET = dict(time_limit=30.0)


def assert_key_confirmed(locked, result):
    """The attack claims ``CORRECT`` and the scalar reference agrees."""
    assert result.outcome is AttackOutcome.CORRECT
    check = random_equivalence_check(
        locked.original, locked.circuit, key_assignment=result.key,
        num_vectors=512, seed=11, engine="scalar",
    )
    assert check.equivalent, check.counterexample


@pytest.fixture(scope="module")
def base_circuit():
    return synthesize_fsm(random_fsm(8, 2, 2, seed=5), style="sop")


@pytest.fixture(scope="module")
def locked_variants(base_circuit):
    return {
        "rll": lock_rll(base_circuit, 5, seed=1),
        "sarlock": lock_sarlock(base_circuit, num_key_bits=4, seed=2),
        "ttlock": lock_ttlock(base_circuit, num_key_bits=4, seed=2),
    }


class TestSatAttackEngines:
    """The packed-engine SAT attack, checked against the scalar reference."""

    @pytest.mark.parametrize("scheme", ["rll", "sarlock", "ttlock"])
    def test_baseline_key_is_confirmed(self, locked_variants, scheme):
        locked = locked_variants[scheme]
        assert_key_confirmed(locked, sat_attack(locked, **BUDGET))

    def test_unit_batch_recovers_the_default_key(self, locked_variants):
        """``dip_batch=1`` harvests one DIP per call and finds the same key."""
        locked = locked_variants["sarlock"]
        unit = sat_attack(locked, dip_batch=1, **BUDGET)
        default = sat_attack(locked, **BUDGET)
        assert_key_confirmed(locked, unit)
        assert unit.key == default.key
        assert unit.details["dip_rounds"] == unit.iterations

    def test_batched_rounds_are_fewer_than_iterations(self, locked_variants):
        """On SARLock (one DIP per wrong key) harvesting batches the loop."""
        result = sat_attack(locked_variants["sarlock"], dip_batch=8, **BUDGET)
        assert result.outcome is AttackOutcome.CORRECT
        assert result.details["dip_rounds"] < result.iterations

    def test_dip_batch_validation(self, locked_variants):
        with pytest.raises(ValueError, match="dip_batch"):
            sat_attack(locked_variants["rll"], dip_batch=0, **BUDGET)


class TestAppSatEngines:
    """The packed-engine AppSAT attack, checked against the scalar reference."""

    def test_correct_key_is_confirmed(self, locked_variants):
        locked = locked_variants["sarlock"]
        assert_key_confirmed(locked, appsat_attack(locked, **BUDGET))

    def test_dip_batch_validation(self, locked_variants):
        with pytest.raises(ValueError, match="dip_batch"):
            appsat_attack(locked_variants["rll"], dip_batch=-1, **BUDGET)


class TestAttackResultSerialisation:
    def test_round_trip_preserves_everything(self):
        result = AttackResult(
            attack="sat", outcome=AttackOutcome.CNS,
            key={"k0": 1, "k1": 0}, iterations=7, runtime_seconds=1.25,
            details={"oracle_queries": 12, "dip_rounds": 3},
        )
        rebuilt = AttackResult.from_dict(result.to_dict())
        assert rebuilt.attack == "sat"
        assert rebuilt.outcome is AttackOutcome.CNS
        assert rebuilt.key == {"k0": 1, "k1": 0}
        assert rebuilt.iterations == 7
        assert rebuilt.runtime_seconds == 1.25
        assert rebuilt.details["oracle_queries"] == 12
        assert rebuilt.broke_defense is result.broke_defense

    def test_non_json_details_are_coerced_not_dropped(self):
        class Weird:
            def __str__(self):
                return "weird-object"

        result = AttackResult(
            attack="sat", outcome=AttackOutcome.FAIL, details={"thing": Weird()}
        )
        data = result.to_dict()
        assert data["details"]["thing"] == "weird-object"
        assert AttackResult.from_dict(data).details["thing"] == "weird-object"

    def test_live_attack_result_survives_round_trip(self, locked_variants):
        result = sat_attack(locked_variants["ttlock"], **BUDGET)
        rebuilt = AttackResult.from_dict(result.to_dict())
        assert rebuilt.outcome == result.outcome
        assert rebuilt.key == result.key
        assert rebuilt.iterations == result.iterations
