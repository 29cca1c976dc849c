"""Table IV — Cute-Lock-Str security against oracle-guided logic attacks.

For ISCAS'89 and ITC'99 benchmarks the paper locks the gate-level netlist with
Cute-Lock-Str (per-benchmark ``k`` / ``ki`` from Table IV) and runs NEOS's
BBO / INT / KC2 modes plus RANE; none recovers a working key.  The driver
mirrors the sweep with the reproduction's attacks on the benchmark stand-ins.

Like Table III, the sweep is a :mod:`repro.campaign` grid: one job per
(benchmark, attack) cell declared by :func:`table4_jobs`, executed by
:func:`run_table4_cell` (which re-derives the locked design from the job
parameters) and re-assembled in job order by :func:`aggregate_table4`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.attacks.bmc_attack import bmc_attack
from repro.attacks.kc2 import int_attack, kc2_attack
from repro.attacks.rane import rane_attack
from repro.attacks.results import AttackResult, format_runtime
from repro.benchmarks_data.iscas89 import ISCAS89_PROFILES, iscas89_names, load_iscas89
from repro.benchmarks_data.itc99 import ITC99_PROFILES, itc99_names, load_itc99
from repro.campaign.executor import run_campaign
from repro.campaign.spec import CampaignSpec, JobSpec
from repro.campaign.store import STATUS_COMPLETED, Record, ResultStore
from repro.experiments.report import ExperimentTable
from repro.experiments.table3 import placeholder_attack_result
from repro.locking.cutelock_str import CuteLockStr
from repro.netlist.validate import validate_circuit

#: Benchmarks exercised in quick mode.
QUICK_BENCHMARKS = ("s27", "s298", "b01", "b03")

#: Keep key widths attack-tractable for the pure-Python SAT back-end; the
#: paper's ki values (up to 37 bits) only grow the CNF linearly but make the
#: key-extraction search space enormous for a Python CDCL loop.
MAX_KEY_WIDTH_QUICK = 8


def _attack_table() -> Dict[str, Callable[..., AttackResult]]:
    return {"BBO": bmc_attack, "INT": int_attack, "KC2": kc2_attack, "RANE": rane_attack}


def _load(name: str):
    if name in ISCAS89_PROFILES:
        profile = ISCAS89_PROFILES[name]
        return load_iscas89(name), profile.num_keys, profile.key_width, "ISCAS'89"
    if name in ITC99_PROFILES:
        profile = ITC99_PROFILES[name]
        return load_itc99(name), profile.num_keys, profile.key_width, "ITC'99"
    raise KeyError(f"unknown Table IV benchmark {name!r}")


def table4_jobs(
    *,
    quick: bool = True,
    benchmarks: Optional[Sequence[str]] = None,
    attacks: Optional[Sequence[str]] = None,
    time_limit: float = 20.0,
    max_depth: int = 8,
    rane_depth: int = 6,
    num_locked_ffs: int = 2,
    seed: int = 4,
    max_key_width: Optional[int] = None,
    solver_backend: str = "cdcl",
) -> List[JobSpec]:
    """Declare the Table IV grid: one job per (benchmark, attack) cell.

    ``max_key_width`` is resolved here (quick default vs uncapped) so the job
    parameters — and therefore the job keys — are fully explicit.
    """
    if benchmarks is None:
        benchmarks = QUICK_BENCHMARKS if quick else (iscas89_names() + itc99_names())
    attack_names = list(attacks or _attack_table().keys())
    if max_key_width is None:
        max_key_width = MAX_KEY_WIDTH_QUICK if quick else None
    return [
        JobSpec(
            kind="table4_cell",
            group="table4",
            params={
                "benchmark": name,
                "attack": attack_name,
                "time_limit": time_limit,
                "max_depth": max_depth,
                "rane_depth": rane_depth,
                "num_locked_ffs": num_locked_ffs,
                "seed": seed,
                "max_key_width": max_key_width,
                "solver_backend": solver_backend,
            },
        )
        for name in benchmarks
        for attack_name in attack_names
    ]


def run_table4_cell(params: Mapping[str, object]) -> Dict[str, object]:
    """Execute one Table IV cell: lock the netlist, run one attack."""
    name = str(params["benchmark"])
    generated, num_keys, key_width, suite = _load(name)
    max_key_width = params.get("max_key_width")
    if max_key_width is not None:
        key_width = min(key_width, int(max_key_width))  # type: ignore[arg-type]
    locked = CuteLockStr(
        num_keys=num_keys,
        key_width=key_width,
        num_locked_ffs=min(
            int(params.get("num_locked_ffs", 2)),  # type: ignore[arg-type]
            len(generated.circuit.dffs),
        ),
        seed=int(params.get("seed", 4)),  # type: ignore[arg-type]
    ).lock(generated.circuit)
    # Strict ingestion-boundary validation: a locking-transform bug fails
    # the cell here (recorded as an error row) instead of mid-attack.
    validate_circuit(locked.circuit, strict=True)

    attack_name = str(params["attack"])
    attack = _attack_table()[attack_name]
    time_limit = float(params.get("time_limit", 20.0))  # type: ignore[arg-type]
    solver_backend = str(params.get("solver_backend", "cdcl"))
    if attack_name == "RANE":
        result = attack(
            locked, time_limit=time_limit,
            depth=int(params.get("rane_depth", 6)),  # type: ignore[arg-type]
            solver_backend=solver_backend,
        )
    else:
        result = attack(
            locked, time_limit=time_limit,
            max_depth=int(params.get("max_depth", 8)),  # type: ignore[arg-type]
                solver_backend=solver_backend,
        )
    return {
        "circuit": name,
        "suite": suite,
        "num_keys": num_keys,
        "key_width": key_width,
        "attack": attack_name,
        "result": result.to_dict(),
    }


def aggregate_table4(
    jobs: Sequence[JobSpec],
    records: Mapping[str, Record],
    *,
    redact_runtimes: bool = False,
) -> Tuple[ExperimentTable, Dict[str, List[AttackResult]]]:
    """Fold completed cell payloads back into the paper's Table IV."""
    benchmarks: List[str] = []
    attack_names: List[str] = []
    cells: Dict[Tuple[str, str], JobSpec] = {}
    max_key_width: Optional[int] = None
    for job in jobs:
        name = str(job.params["benchmark"])
        attack = str(job.params["attack"])
        if name not in benchmarks:
            benchmarks.append(name)
        if attack not in attack_names:
            attack_names.append(attack)
        cells[(name, attack)] = job
        if job.params.get("max_key_width") is not None:
            max_key_width = int(job.params["max_key_width"])  # type: ignore[arg-type]

    table = ExperimentTable(
        name="Table IV",
        title="Cute-Lock-Str security against logic attacks (NEOS + RANE stand-ins)",
        columns=["Circuit", "Suite", "# Keys (k)", "Key Size (ki)"]
        + [f"{name} outcome" for name in attack_names]
        + [f"{name} time" for name in attack_names],
    )
    raw: Dict[str, List[AttackResult]] = {}

    for name in benchmarks:
        _, num_keys, key_width, suite = _profile_fields(name)
        if max_key_width is not None:
            key_width = min(key_width, max_key_width)
        row: Dict[str, object] = {
            "Circuit": name,
            "Suite": suite,
            "# Keys (k)": num_keys,
            "Key Size (ki)": key_width,
        }
        results: List[AttackResult] = []
        for attack_name in attack_names:
            job = cells.get((name, attack_name))
            record = records.get(job.key) if job is not None else None
            if record is not None and record.get("status") == STATUS_COMPLETED:
                payload = record.get("payload") or {}
                result = AttackResult.from_dict(payload["result"])  # type: ignore[index]
            else:
                result = placeholder_attack_result(attack_name, record)
            results.append(result)
            row[f"{attack_name} outcome"] = result.outcome.value
            row[f"{attack_name} time"] = (
                "-" if redact_runtimes else format_runtime(result.runtime_seconds)
            )
        raw[name] = results
        table.add_row(**row)

    broken = [
        (name, result.attack)
        for name, results in raw.items()
        for result in results
        if result.broke_defense
    ]
    table.notes.append(
        "no attack recovered a working key" if not broken else f"BROKEN: {broken}"
    )
    if max_key_width is not None:
        table.notes.append(
            f"key widths capped at {max_key_width} bits for the pure-Python SAT back-end"
        )
    return table, raw


def _profile_fields(name: str) -> Tuple[None, int, int, str]:
    """(``None``, k, ki, suite) for a benchmark without loading its netlist."""
    if name in ISCAS89_PROFILES:
        profile = ISCAS89_PROFILES[name]
        return None, profile.num_keys, profile.key_width, "ISCAS'89"
    if name in ITC99_PROFILES:
        profile = ITC99_PROFILES[name]
        return None, profile.num_keys, profile.key_width, "ITC'99"
    raise KeyError(f"unknown Table IV benchmark {name!r}")


def run_table4(
    *,
    quick: bool = True,
    benchmarks: Optional[Sequence[str]] = None,
    attacks: Optional[Sequence[str]] = None,
    time_limit: float = 20.0,
    max_depth: int = 8,
    rane_depth: int = 6,
    num_locked_ffs: int = 2,
    seed: int = 4,
    max_key_width: Optional[int] = None,
    solver_backend: str = "cdcl",
    workers: int = 0,
    store: Union[ResultStore, str, None] = None,
    job_timeout: Optional[float] = None,
) -> Tuple[ExperimentTable, Dict[str, List[AttackResult]]]:
    """Regenerate Table IV.

    ``max_key_width`` caps the per-benchmark ``ki`` (defaults to
    :data:`MAX_KEY_WIDTH_QUICK` in quick mode, uncapped otherwise).  See
    :func:`~repro.experiments.table3.run_table3` for the campaign execution
    parameters (``workers`` / ``store`` / ``job_timeout``).
    """
    jobs = table4_jobs(
        quick=quick, benchmarks=benchmarks, attacks=attacks,
        time_limit=time_limit, max_depth=max_depth, rane_depth=rane_depth,
        num_locked_ffs=num_locked_ffs, seed=seed, max_key_width=max_key_width,
        solver_backend=solver_backend,
    )
    spec = CampaignSpec(name="table4", jobs=jobs)
    result_store = store if isinstance(store, ResultStore) else ResultStore(store)
    run_campaign(spec, result_store, workers=workers, job_timeout=job_timeout,
                 # A driver call is a slice of the evaluation: never clobber a
                 # manifest that may describe a larger CLI-managed campaign.
                 write_manifest=False)
    return aggregate_table4(jobs, result_store.load_index())
