"""The benchmark's workloads: paper cells composed from ``repro``'s public API.

A workload is a list of :class:`Design` objects.  A design is built once per
pass -- load, lock, synthesize, ``validate_circuit(strict=True)``, exactly as
the experiment modules' ``run_*_cell`` functions build it -- and then runs
its cells, each one attack or analysis call.  The one difference from the
experiment modules is the attack budget: every attack gets :data:`NEVER` as its
``time_limit``, so a cell's work is bounded only by convergence, conflict
budgets and iteration caps.

Each cell returns a :class:`Verdict` after its paper check; the check raises
:class:`VerdictRegression` when the reproduction loses one of the paper's
findings (an attack breaking Cute-Lock, FALL finding a key, the Figure 4 or
Table V trends failing).  A baseline that is not broken, or a recovered key
that an independent scalar equivalence check rejects, fails its cell.

Functions of ``repro`` are reached through their modules at call time so the
traced run's wrappers (see :mod:`cellbench.layers`) see every call.
"""

from __future__ import annotations

import importlib
import random
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional

import repro.attacks.dana as dana_mod
import repro.attacks.fall as fall_mod
import repro.attacks.kc2 as kc2_mod
import repro.attacks.rane as rane_mod
import repro.benchmarks_data.iscas89 as iscas89
import repro.benchmarks_data.itc99 as itc99
import repro.benchmarks_data.synthezza as synthezza
import repro.fsm.synthesis as fsm_synthesis
import repro.locking.baselines.antisat as antisat
import repro.locking.baselines.dklock as dklock
import repro.locking.baselines.rll as rll
import repro.netlist.validate as validate_mod
import repro.sim.equivalence as equivalence
import repro.synthesis.overhead as overhead
from repro.attacks.results import AttackOutcome
from repro.campaign.store import STATUS_COMPLETED
from repro.experiments import figure4 as figure4_exp
from repro.experiments import table3 as table3_exp
from repro.experiments import table4 as table4_exp
from repro.experiments import table5 as table5_exp
from repro.locking.base import KeySchedule
from repro.locking.cutelock_beh import CuteLockBeh
from repro.locking.cutelock_str import CuteLockStr

# ``repro.attacks`` re-exports these functions under their modules' names.
bmc_mod = importlib.import_module("repro.attacks.bmc_attack")
sat_mod = importlib.import_module("repro.attacks.sat_attack")
random_fsm_mod = importlib.import_module("repro.fsm.random_fsm")

#: A ``time_limit`` no run reaches: work ends on convergence or budgets.
NEVER = 1.0e6

#: Per-call conflict budget of the acdl/exxm sequential attacks, which do
#: not converge in reach of a pure-Python solver.
SEQ_CONFLICT_BUDGET = 100

#: Random vectors of the independent scalar key check on baseline cells.
KEY_CHECK_VECTORS = 256


class VerdictRegression(RuntimeError):
    """The reproduction lost one of the paper's findings."""


@dataclass(frozen=True)
class Verdict:
    """What a cell reports: its outcome, work counts and check result."""

    outcome: str
    iterations: int = 0
    oracle_queries: int = 0
    problem: Optional[str] = None  # set when the cell failed its check


@dataclass
class Cell:
    name: str
    run: Callable[[object], object]            # design -> result
    check: Callable[[object, object], Verdict]  # (design, result) -> verdict


@dataclass
class Design:
    name: str
    build: Callable[[], object]
    cells: List[Cell]


@dataclass
class Workload:
    name: str
    designs: List[Design]
    #: Pass-level findings over every cell result of a pass (name -> result).
    finish: Callable[[Dict[str, object]], None] = lambda results: None

    @property
    def cell_names(self) -> List[str]:
        return [cell.name for design in self.designs for cell in design.cells]


# ---------------------------------------------------------------- checks
def _attack_verdict(result) -> Verdict:
    return Verdict(result.outcome.value, result.iterations,
                   int(result.details.get("oracle_queries", 0)))


def _cute_lock_check(label: str) -> Callable[[object, object], Verdict]:
    def check(design, result) -> Verdict:
        if result.outcome is AttackOutcome.CORRECT:
            raise VerdictRegression(f"{label}: {result.attack} recovered a working key")
        return _attack_verdict(result)
    return check


def _baseline_check(stimulus_seed: int) -> Callable[[object, object], Verdict]:
    def check(locked, result) -> Verdict:
        verdict = _attack_verdict(result)
        if result.outcome is not AttackOutcome.CORRECT:
            return replace(verdict, problem="baseline not broken")
        confirmed = equivalence.random_equivalence_check(
            locked.original, locked.circuit, key_assignment=result.key,
            num_vectors=KEY_CHECK_VECTORS, seed=stimulus_seed, engine="scalar",
        )
        if not confirmed.equivalent:
            return replace(verdict, problem="scalar check rejects the recovered key")
        return verdict
    return check


def _validated(locked):
    validate_mod.validate_circuit(locked.circuit, strict=True)
    return locked


def _attack_cell(design: str, attack_name: str, attack: Callable, check, **kwargs) -> Cell:
    return Cell(f"{design}/{attack_name}",
                lambda locked: attack()(locked, time_limit=NEVER, **kwargs), check)


# ------------------------------------------------------------ beh-attack
def _sequential_attacks() -> Dict[str, Callable[[], Callable]]:
    # Resolved at call time, see the module docstring.
    return {
        "BBO": lambda: bmc_mod.bmc_attack,
        "INT": lambda: kc2_mod.int_attack,
        "KC2": lambda: kc2_mod.kc2_attack,
        "RANE": lambda: rane_mod.rane_attack,
    }


#: beh-attack: (benchmark, attacks, per-call conflict budget or None for the
#: experiment's default, under which the cell reaches its natural end).
BEH_CELLS = (
    ("bcomp", ("BBO", "INT", "KC2"), None),
    ("acdl", ("BBO", "INT", "KC2"), SEQ_CONFLICT_BUDGET),
    ("exxm", ("INT",), SEQ_CONFLICT_BUDGET),
)

BEH_CELLS_REDUCED = (("acdl", ("INT",), SEQ_CONFLICT_BUDGET),)


def beh_attack(*, reduced: bool = False) -> Workload:
    """Table III class: Cute-Lock-Beh on Synthezza FSMs."""
    attacks = _sequential_attacks()
    params_by_name = {
        job.params["benchmark"]: job.params for job in table3_exp.table3_jobs(quick=True)
    }
    designs = []
    for name, attack_names, budget in (BEH_CELLS_REDUCED if reduced else BEH_CELLS):
        params = params_by_name[name]

        def build(name=name, params=params):
            profile = synthezza.SYNTHEZZA_PROFILES[name]
            locked_fsm = CuteLockBeh(
                num_keys=profile.num_keys, key_width=profile.key_width,
                seed=int(params["seed"]),
            ).lock(synthezza.load_synthezza(name))
            return _validated(locked_fsm.synthesize(style=str(params["synthesis_style"])))

        extra = {} if budget is None else {"conflict_limit": budget}
        cells = [
            _attack_cell(name, attack, attacks[attack], _cute_lock_check(f"{name}/{attack}"),
                         max_depth=int(params["max_depth"]), **extra)
            for attack in attack_names
        ]
        designs.append(Design(name, build, cells))
    return Workload("beh-attack", designs)


# ------------------------------------------------------------ str-attack
STR_CELLS = (
    ("s27", ("BBO", "INT", "KC2", "RANE")),
    ("s298", ("BBO", "INT", "KC2", "RANE")),
    ("b01", ("BBO", "INT", "KC2", "RANE")),
    ("b03", ("RANE",)),
)

#: Single-key baselines broken by the SAT attack: (benchmark, scheme).
STR_BASELINES = (
    ("s1196", "antisat"),
    ("s9234", "rll"),
    ("s13207", "rll"),
    ("s35932", "rll"),
)

#: Anti-SAT block width and RLL key size of the baseline cells.
ANTISAT_BLOCK_WIDTH = 4
RLL_KEY_BITS = 32


def _table4_build(params: Dict[str, object]):
    name = str(params["benchmark"])
    if name in iscas89.ISCAS89_PROFILES:
        profile = iscas89.ISCAS89_PROFILES[name]
        generated = iscas89.load_iscas89(name)
    else:
        profile = itc99.ITC99_PROFILES[name]
        generated = itc99.load_itc99(name)
    key_width = min(profile.key_width, int(params["max_key_width"]))  # type: ignore[arg-type]
    return _validated(CuteLockStr(
        num_keys=profile.num_keys, key_width=key_width,
        num_locked_ffs=min(int(params["num_locked_ffs"]),  # type: ignore[arg-type]
                           len(generated.circuit.dffs)),
        seed=int(params["seed"]),  # type: ignore[arg-type]
    ).lock(generated.circuit))


def _baseline_build(name: str, scheme: str):
    circuit = iscas89.load_iscas89(name).circuit
    if scheme == "antisat":
        return _validated(antisat.lock_antisat(circuit, block_width=ANTISAT_BLOCK_WIDTH, seed=0))
    return _validated(rll.lock_rll(circuit, RLL_KEY_BITS, seed=1))


def _single_key_build():
    """Experiment E7: Cute-Lock-Str with every schedule value equal."""
    circuit = fsm_synthesis.synthesize_fsm(random_fsm_mod.random_fsm(8, 2, 2, seed=5),
                                           style="sop")
    return _validated(CuteLockStr(num_keys=4, key_width=2, num_locked_ffs=1, seed=3).lock(
        circuit, schedule=KeySchedule(width=2, values=(2, 2, 2, 2))))


def str_attack(*, stimulus_seed: int = 0, reduced: bool = False) -> Workload:
    """Table IV quick class plus the single-key baselines it contrasts with."""
    attacks = _sequential_attacks()
    params_by_name = {
        job.params["benchmark"]: job.params for job in table4_exp.table4_jobs(quick=True)
    }
    designs = []
    for name, attack_names in (STR_CELLS[:1] if reduced else STR_CELLS):
        params = params_by_name[name]
        cells = []
        for attack in attack_names:
            depth = ({"depth": int(params["rane_depth"])} if attack == "RANE"
                     else {"max_depth": int(params["max_depth"])})
            cells.append(_attack_cell(name, attack, attacks[attack],
                                      _cute_lock_check(f"{name}/{attack}"), **depth))
        designs.append(Design(name, lambda params=params: _table4_build(params), cells))

    baseline_check = _baseline_check(stimulus_seed)
    for name, scheme in (STR_BASELINES[1:2] if reduced else STR_BASELINES):
        designs.append(Design(
            f"{name}-{scheme}", lambda name=name, scheme=scheme: _baseline_build(name, scheme),
            [_attack_cell(f"{name}-{scheme}", "SAT", lambda: sat_mod.sat_attack,
                          baseline_check)],
        ))
    designs.append(Design("single-key", _single_key_build, [
        _attack_cell("single-key", "INT", attacks["INT"], baseline_check, max_depth=8),
    ]))
    return Workload("str-attack", designs)


# ------------------------------------------------------ overhead-removal
def _cost_verdict(design, cost) -> Verdict:
    return Verdict(f"cells={cost.cell_count} area={cost.area_um2:.3f} "
                   f"power={cost.power_uw:.6f}")


def _figure4_cell(params: Dict[str, object]) -> Design:
    """One Figure 4 (benchmark, configuration) cell, as ``run_figure4_cell``."""
    name, label = str(params["benchmark"]), str(params["label"])
    vectors, seed = int(params["activity_vectors"]), int(params["seed"])  # type: ignore[arg-type]

    def build():
        circuit = itc99.load_itc99(name).circuit
        if label == "Original":
            return circuit
        num_inputs = len(circuit.inputs)
        # figure4's own (k, ki) table, so the benchmark follows any change to it.
        configurations = figure4_exp._cute_lock_configurations(num_inputs)
        if label in configurations:
            num_keys, key_width = configurations[label]
            return _validated(CuteLockStr(
                num_keys=num_keys, key_width=key_width,
                num_locked_ffs=min(2, len(circuit.dffs)), seed=seed,
            ).lock(circuit))
        if label not in ("DK-Lock 10b", "DK-Lock nb"):
            raise ValueError(f"unknown Figure 4 configuration {label!r}")
        width = (10 if label == "DK-Lock 10b"
                 else max(1, min(num_inputs, figure4_exp.MAX_KEY_WIDTH)))
        return _validated(dklock.lock_dklock(circuit, key_width=width, seed=seed))

    def run(design):
        if label == "Original":
            return overhead.analyze_circuit(design, activity_vectors=vectors, seed=seed)
        return overhead.compare_overhead(design, activity_vectors=vectors, seed=seed).locked

    return Design(f"fig4/{name}/{label}", build,
                  [Cell(f"fig4/{name}/{label}", run, _cost_verdict)])


def _table5_cell(params: Dict[str, object]) -> Design:
    """One Table V (benchmark, attack) cell, as ``run_table5_cell``."""
    name, attack = str(params["benchmark"]), str(params["attack"])

    def build():
        profile = itc99.ITC99_PROFILES[name]
        generated = itc99.load_itc99(name)
        locked = _validated(CuteLockStr(
            num_keys=profile.num_keys,
            key_width=min(profile.key_width, int(params["max_key_width"])),  # type: ignore[arg-type]
            num_locked_ffs=min(int(params["num_locked_ffs"]),  # type: ignore[arg-type]
                               len(generated.circuit.dffs)),
            donors_per_ff=2, seed=int(params["seed"]),  # type: ignore[arg-type]
        ).lock(generated.circuit))
        return generated, locked

    def run(design):
        generated, locked = design
        if attack == "DANA":
            return (dana_mod.dana_attack(generated.circuit, generated.register_groups),
                    dana_mod.dana_attack(locked, generated.register_groups))
        return fall_mod.fall_attack(locked, solver_backend=str(params["solver_backend"]))

    def check(design, result) -> Verdict:
        if attack == "DANA":
            baseline, attacked = result
            return Verdict(f"nmi={baseline.nmi_score or 0.0:.6f}/{attacked.nmi_score or 0.0:.6f}")
        if result.num_keys:
            raise VerdictRegression(f"FALL recovered {result.num_keys} key(s) on {name}")
        return Verdict(f"candidates={result.num_candidates} keys={result.num_keys}")

    return Design(f"tab5/{name}/{attack}", build, [Cell(f"tab5/{name}/{attack}", run, check)])


def _overhead_findings(figure4_jobs, table5_jobs) -> Callable[[Dict[str, object]], None]:
    """Figure 4 and Table V findings over one pass, via the experiment modules' aggregators."""

    def records(jobs, prefix, payload):
        out = {}
        for job in jobs:
            key = f"{prefix}/{job.params['benchmark']}/{job.params.get('label') or job.params['attack']}"
            out[job.key] = {"status": STATUS_COMPLETED, "payload": payload(job, key)}
        return out

    def finish(results: Dict[str, object]) -> None:
        tables, _ = figure4_exp.aggregate_figure4(figure4_jobs, records(
            figure4_jobs, "fig4", lambda job, key: {"cost": results[key].to_dict()}))
        cells = tables["cell_count"]
        first, last = cells.rows[0], cells.rows[-1]

        def relative(row, column):
            return (row[column] - row["Original"]) / row["Original"]

        if relative(first, "Test Run 2") < relative(last, "Test Run 2"):
            raise VerdictRegression("Figure 4: overhead no longer shrinks with circuit size")
        if first["Test Run 1"] > first["DK-Lock avg"]:
            raise VerdictRegression("Figure 4: light Cute-Lock run no longer beats DK-Lock avg")

        def table5_payload(job, key):
            result = results[key]
            if job.params["attack"] == "DANA":
                baseline, attacked = result
                return {"nmi_unlocked": baseline.nmi_score or 0.0,
                        "nmi_locked": attacked.nmi_score or 0.0,
                        "dana_unlocked": baseline.to_dict(), "dana_locked": attacked.to_dict()}
            return {"candidates": result.num_candidates, "keys": result.num_keys,
                    "cpu_time": result.cpu_time, "fall": result.to_dict()}

        table, _ = table5_exp.aggregate_table5(
            table5_jobs, records(table5_jobs, "tab5", table5_payload))
        if any(row["FALL keys"] != 0 for row in table.rows):
            raise VerdictRegression("Table V: FALL recovered keys")
        unlocked = sum(row["NMI (unlocked)"] for row in table.rows)
        locked = sum(row["NMI (locked)"] for row in table.rows)
        if locked >= unlocked:
            raise VerdictRegression("Table V: locking no longer reduces the average DANA NMI")

    return finish


#: Reduced overhead-removal: the smallest and a mid-size ITC'99 benchmark.
OVERHEAD_REDUCED = ("b01", "b11")


def overhead_removal(*, reduced: bool = False) -> Workload:
    """Full ITC'99 Figure 4 grid (32 activity vectors) plus the full Table V grid."""
    benchmarks = OVERHEAD_REDUCED if reduced else None
    figure4_jobs = figure4_exp.figure4_jobs(quick=False, benchmarks=benchmarks)
    table5_jobs = table5_exp.table5_jobs(quick=False, benchmarks=benchmarks)
    designs = ([_figure4_cell(job.params) for job in figure4_jobs]
               + [_table5_cell(job.params) for job in table5_jobs])
    return Workload("overhead-removal", designs,
                    finish=_overhead_findings(figure4_jobs, table5_jobs))


WORKLOADS = {
    "beh-attack": lambda seed, reduced=False: beh_attack(reduced=reduced),
    "str-attack": lambda seed, reduced=False: str_attack(stimulus_seed=seed, reduced=reduced),
    "overhead-removal": lambda seed, reduced=False: overhead_removal(reduced=reduced),
}


def make_workload(name: str, seed: int, *, reduced: bool = False) -> Workload:
    """Build workload ``name`` with its cell order shuffled by ``seed``.

    The seed changes only the order of designs and of cells within a design
    and, for baseline cells, the key check's stimulus: locking seeds stay the
    experiment modules' own, so every seed does the same work.
    """
    workload = WORKLOADS[name](seed, reduced=reduced)
    rng = random.Random(seed)
    rng.shuffle(workload.designs)
    for design in workload.designs:
        rng.shuffle(design.cells)
    return workload
