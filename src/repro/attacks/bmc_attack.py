"""Bounded-model-checking style sequential attack (the "BBO" column).

This is the baseline sequential oracle-guided attack (El Massad et al.,
ICCAD 2017, as packaged in NEOS's ``bbo`` mode): time-frame unrolling with a
static key, a non-incremental solver that is rebuilt for every
discriminating-input-sequence query, and simulation-based candidate
verification.  It is the slowest of the three NEOS modes reproduced here,
matching the relative runtimes of Tables III/IV.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from repro.attacks.results import AttackResult
from repro.attacks.sequential_core import sequential_oracle_guided_attack
from repro.locking.base import LockedCircuit
from repro.netlist.circuit import Circuit
from repro.sat.session import DEFAULT_BACKEND


def bmc_attack(
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
    """Run the non-incremental unrolling attack (NEOS ``bbo`` equivalent).

    ``dis_batch`` DISes are harvested per solver rebuild and answered by one
    lane-parallel oracle pass — for this mode that also amortizes the
    rebuild, its dominant per-query cost.
    """
    return sequential_oracle_guided_attack(
        locked,
        oracle_circuit,
        attack_name="bmc",
        incremental=False,
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
