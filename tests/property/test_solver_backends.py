"""Property tests: the ``cdcl`` and ``cdcl-arena`` session backends are
answer-identical.

Both backends are sound and complete CDCL solvers, so on every formula (and
under every assumption set) their SAT/UNSAT verdicts must be bit-identical —
models and heuristic trajectories may differ, but never the answer.  The
corpus covers random CNF instances (checked against brute force as the
ground truth), incremental assumption sequences, and circuit-shaped
instances produced by the Tseitin encoder from randomly locked netlists —
the formula family every attack actually solves.
"""

import itertools
import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.fsm.random_fsm import random_fsm
from repro.fsm.synthesis import synthesize_fsm
from repro.locking.baselines import lock_rll
from repro.sat.session import SolveSession, create_solver
from repro.sat.tseitin import TseitinEncoder

FAST = settings(max_examples=50, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

BACKEND_NAMES = ("cdcl", "cdcl-arena")


@st.composite
def cnf_instances(draw):
    num_vars = draw(st.integers(min_value=1, max_value=7))
    num_clauses = draw(st.integers(min_value=1, max_value=24))
    clauses = []
    for _ in range(num_clauses):
        width = draw(st.integers(min_value=1, max_value=3))
        clauses.append([
            draw(st.integers(min_value=1, max_value=num_vars))
            * draw(st.sampled_from([1, -1]))
            for _ in range(width)
        ])
    return num_vars, clauses


def brute_force(clauses, num_vars):
    return any(
        all(any((lit > 0) == bool((model >> (abs(lit) - 1)) & 1) for lit in clause)
            for clause in clauses)
        for model in range(1 << num_vars)
    )


@FAST
@given(cnf_instances())
def test_backends_agree_with_brute_force(instance):
    num_vars, clauses = instance
    expected = brute_force(clauses, num_vars)
    for backend in BACKEND_NAMES:
        solver = create_solver(backend)
        solver.add_clauses(clauses)
        answer = solver.solve()
        assert answer == expected, f"{backend} answered {answer}, truth {expected}"
        if answer:
            model = solver.model()
            assert all(
                any((lit > 0) == bool(model.get(abs(lit), 0)) for lit in clause)
                for clause in clauses
            ), f"{backend} returned a non-satisfying model"


@FAST
@given(cnf_instances(), st.integers(min_value=0, max_value=2 ** 31))
def test_backends_agree_under_incremental_assumptions(instance, seed):
    num_vars, clauses = instance
    rng = random.Random(seed)
    assumption_sets = [
        [rng.choice([1, -1]) * rng.randint(1, num_vars)
         for _ in range(rng.randint(0, 3))]
        for _ in range(4)
    ]
    solvers = {}
    for backend in BACKEND_NAMES:
        solvers[backend] = create_solver(backend)
        solvers[backend].add_clauses(clauses)
    for assumptions in assumption_sets:
        answers = {
            backend: solver.solve(assumptions=assumptions)
            for backend, solver in solvers.items()
        }
        assert len(set(answers.values())) == 1, (
            f"backends disagree under assumptions {assumptions}: {answers}"
        )


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=10_000))
def test_backends_agree_on_locked_circuit_miters(seed):
    """Attack-shaped corpus: key miters of randomly locked netlists.

    For every key-pair assumption the two backends must agree on whether a
    distinguishing input exists — exactly the query the SAT attack's DIP
    loop issues.
    """
    circuit = synthesize_fsm(random_fsm(4, 2, 1, seed=seed % 97), style="sop")
    locked = lock_rll(circuit, 3, seed=seed).circuit
    view = locked.combinational_view() if locked.dffs else locked

    encoder = TseitinEncoder()
    key_nets = list(view.key_inputs)
    functional = {n: n for n in view.inputs if n not in set(key_nets)}
    encoder.encode(view, prefix="A@", shared_nets=functional)
    encoder.encode(view, prefix="B@", shared_nets=functional)
    diff = encoder.encode_inequality(
        [f"A@{out}" for out in view.outputs], [f"B@{out}" for out in view.outputs]
    )

    sessions = {
        backend: SolveSession(backend, encoder=encoder) for backend in BACKEND_NAMES
    }
    rng = random.Random(seed)
    key_pairs = [
        {net: rng.randint(0, 1) for net in key_nets} for _ in range(3)
    ]
    for key_bits in key_pairs:
        assumptions = [encoder.literal(diff, True)]
        for net in key_nets:
            assumptions.append(encoder.literal(f"A@{net}", bool(key_bits[net])))
            assumptions.append(
                encoder.literal(f"B@{net}", not bool(key_bits[net]))
            )
        answers = {
            backend: session.solve(assumptions=assumptions)
            for backend, session in sessions.items()
        }
        assert len(set(answers.values())) == 1, (
            f"backends disagree on miter query: {answers}"
        )
    # Unconstrained query (any DIP for any key pair?) must agree too.
    answers = {
        backend: session.solve(assumptions=[encoder.literal(diff, True)])
        for backend, session in sessions.items()
    }
    assert len(set(answers.values())) == 1


@FAST
@given(cnf_instances(), st.integers(min_value=0, max_value=2 ** 31))
def test_backends_stay_invariant_clean_with_sanitizer_on(instance, seed):
    """Run both backends with the repro.check state sanitizer armed.

    Every decision point audits watch lists, trail/level consistency and
    the implication graph (see repro.check.solver); any violation raises
    SolverStateError and fails the property.  Answers must still agree
    with brute force, proving the sanitizer is sound on real traces and
    free of false positives.
    """
    num_vars, clauses = instance
    expected = brute_force(clauses, num_vars)
    rng = random.Random(seed)
    assumptions = [
        rng.choice([1, -1]) * rng.randint(1, num_vars)
        for _ in range(rng.randint(0, 2))
    ]
    for backend in BACKEND_NAMES:
        solver = create_solver(backend)
        solver.check_invariants = True  # REPRO_CHECK_SOLVER=1 equivalent
        solver.add_clauses(clauses)
        assert solver.solve() == expected
        solver.solve(assumptions=assumptions)  # incremental re-solve, still audited


def test_backends_agree_exhaustively_on_tiny_formulas():
    """Exhaustive sweep over every 3-variable 2-clause pair of width-2 clauses."""
    literals = [1, -1, 2, -2, 3, -3]
    for c1 in itertools.combinations(literals, 2):
        for c2 in itertools.combinations(literals, 2):
            clauses = [list(c1), list(c2)]
            answers = set()
            for backend in BACKEND_NAMES:
                solver = create_solver(backend)
                solver.add_clauses(clauses)
                answers.add(solver.solve())
            assert len(answers) == 1, f"disagreement on {clauses}"
