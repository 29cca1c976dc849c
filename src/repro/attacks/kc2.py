"""Incremental sequential attacks: the "INT" and "KC2" NEOS modes.

* :func:`int_attack` — the same unrolling skeleton as the BMC attack but with
  an incremental solver that keeps learned clauses across DIS iterations
  (NEOS ``int`` mode).
* :func:`kc2_attack` — Key-Condition Crunching (Shamsi et al., DATE 2019):
  incremental solving plus dynamic simplification of the accumulated key
  conditions — key bits implied by the observations so far are frozen as unit
  clauses after every refinement round.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from repro.attacks.results import AttackResult
from repro.attacks.sequential_core import sequential_oracle_guided_attack
from repro.locking.base import LockedCircuit
from repro.netlist.circuit import Circuit
from repro.sat.session import DEFAULT_BACKEND


def int_attack(
    locked: Union[LockedCircuit, Circuit],
    oracle_circuit: Optional[Circuit] = None,
    *,
    initial_depth: int = 2,
    max_depth: int = 16,
    max_iterations: int = 128,
    time_limit: float = 180.0,
    conflict_limit: Optional[int] = 200_000,
    dis_batch: int = 8,
    key_batch: int = 8,
    solver_backend: str = DEFAULT_BACKEND,
    proof_dir: Optional[Union[str, Path]] = None,
) -> AttackResult:
    """Run the incremental unrolling attack (NEOS ``int`` equivalent).

    The solver stays warm across the whole attack: ``dis_batch`` DISes are
    harvested per round, answered lane-parallel, and depth increases extend
    the unrolling in place (learned clauses survive).
    """
    return sequential_oracle_guided_attack(
        locked,
        oracle_circuit,
        attack_name="int",
        incremental=True,
        crunch_keys=False,
        initial_depth=initial_depth,
        max_depth=max_depth,
        max_iterations=max_iterations,
        time_limit=time_limit,
        conflict_limit=conflict_limit,
        dis_batch=dis_batch,
        key_batch=key_batch,
        solver_backend=solver_backend,
        proof_dir=proof_dir,
    )


def kc2_attack(
    locked: Union[LockedCircuit, Circuit],
    oracle_circuit: Optional[Circuit] = None,
    *,
    initial_depth: int = 2,
    max_depth: int = 16,
    max_iterations: int = 128,
    time_limit: float = 180.0,
    conflict_limit: Optional[int] = 200_000,
    dis_batch: int = 8,
    key_batch: int = 8,
    solver_backend: str = DEFAULT_BACKEND,
    proof_dir: Optional[Union[str, Path]] = None,
) -> AttackResult:
    """Run the key-condition-crunching attack (NEOS ``kc2`` equivalent).

    Crunching runs once per harvested batch of ``dis_batch`` DISes rather
    than per DIS; see :func:`int_attack` for the batching knobs.
    """
    return sequential_oracle_guided_attack(
        locked,
        oracle_circuit,
        attack_name="kc2",
        incremental=True,
        crunch_keys=True,
        initial_depth=initial_depth,
        max_depth=max_depth,
        max_iterations=max_iterations,
        time_limit=time_limit,
        conflict_limit=conflict_limit,
        dis_batch=dis_batch,
        key_batch=key_batch,
        solver_backend=solver_backend,
        proof_dir=proof_dir,
    )
