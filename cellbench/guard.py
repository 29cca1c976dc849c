"""Fixed-work guard: every solver call must end on its answer or its budget.

The benchmark gives every attack a ``time_limit`` no run can reach, so a
cell's work is bounded only by convergence, conflict budgets and iteration
caps.  A solver call that still returns ``None`` (limited) before spending
its conflict budget was cut by some other wall clock -- for instance a
hard-coded per-probe ``time_limit`` inside an attack -- and its cell did an
amount of work that depends on the host.  :class:`SolveGuard` wraps
``SolveSession.solve`` to detect exactly that, and tallies the conflicts and
propagations each cell spends for its work fingerprint.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.sat.session import SolveSession


@dataclass
class CellTally:
    """Solver work of one cell, and the clamped calls it suffered."""

    conflicts: int = 0
    propagations: int = 0
    clamped: List[str] = field(default_factory=list)


class SolveGuard:
    """Context manager wrapping ``SolveSession.solve`` for the guard.

    Use :meth:`cell` to start a fresh :class:`CellTally` before each cell;
    calls made outside a cell are still checked, into a tally of their own.
    """

    def __init__(self) -> None:
        self.tally = CellTally()
        self._original = None

    def cell(self) -> CellTally:
        self.tally = CellTally()
        return self.tally

    def __enter__(self) -> "SolveGuard":
        original = SolveSession.solve
        guard = self

        @functools.wraps(original)
        def solve(session, assumptions=None, *, phase="solve", conflict_limit=None,
                  time_limit=None):
            stats = session.solver.stats
            conflicts, propagations = stats.conflicts, stats.propagations
            answer = original(session, assumptions, phase=phase,
                              conflict_limit=conflict_limit, time_limit=time_limit)
            # solve() never swaps the backend solver, so one stats object
            # gives the deltas.
            spent = stats.conflicts - conflicts
            tally = guard.tally
            tally.conflicts += spent
            tally.propagations += stats.propagations - propagations
            budget = conflict_limit if conflict_limit is not None else session.conflict_limit
            if answer is None and (budget is None or spent < budget):
                tally.clamped.append(
                    f"phase {phase!r}: limited after {spent} of "
                    f"{'unbounded' if budget is None else budget} conflicts"
                )
            return answer

        self._original = original
        SolveSession.solve = solve
        return self

    def __exit__(self, *exc_info) -> None:
        SolveSession.solve = self._original
        self._original = None


Fingerprint = Tuple[str, int, int, int, int]


def fingerprint(outcome: str, iterations: int, oracle_queries: int,
                tally: CellTally) -> Fingerprint:
    """A cell's work fingerprint: identical on every pass of a fixed-work run."""
    return (outcome, iterations, oracle_queries, tally.conflicts, tally.propagations)


def fingerprint_mismatches(reference: dict, observed: dict) -> List[str]:
    """Cells whose fingerprint differs from the first pass's (names sorted)."""
    problems = []
    for name in sorted(set(reference) | set(observed)):
        first: Optional[Fingerprint] = reference.get(name)
        now: Optional[Fingerprint] = observed.get(name)
        if first != now:
            problems.append(f"{name}: {first} -> {now}")
    return problems
