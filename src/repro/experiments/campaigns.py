"""Campaign bindings for the experiment drivers.

This module is the bridge between the generic :mod:`repro.campaign`
orchestrator and the paper's evaluation: it knows how to

* **build** a campaign spec for any of the named grids (``full``, the
  individual tables/figure, and the tiny ``smoke`` grid CI uses for its
  kill-and-resume check), and
* **aggregate** a (spec, store) pair back into the named
  :class:`~repro.experiments.report.ExperimentTable` objects that
  :func:`repro.experiments.runner.run_all` and the ``campaign report`` CLI
  render.

Aggregation is driven purely by the spec's job order and the store's latest
records, so it works identically for live, resumed and partially-complete
campaigns.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

from repro.campaign.spec import CampaignSpec, JobSpec
from repro.campaign.store import ResultStore
from repro.campaign.progress import SolverTally
from repro.trace.analysis import ascii_bar
from repro.experiments.figure4 import aggregate_figure4, figure4_jobs
from repro.experiments.report import ExperimentTable, render_latex_tables
from repro.experiments.table1 import table1_jobs
from repro.experiments.table2 import table2_jobs
from repro.experiments.table3 import aggregate_table3, table3_jobs
from repro.experiments.table4 import aggregate_table4, table4_jobs
from repro.experiments.table5 import aggregate_table5, table5_jobs

#: Grid names accepted by :func:`build_campaign` (and the CLI).
GRIDS = ("full", "table1", "table2", "table3", "table4", "table5", "figure4", "smoke")


def build_campaign(
    grid: str = "full",
    *,
    quick: bool = True,
    attack_time_limit: float = 20.0,
    solver_backend: str = "cdcl",
    name: Optional[str] = None,
) -> CampaignSpec:
    """Build the campaign spec for one of the named grids.

    ``quick``/``attack_time_limit``/``solver_backend``
    parameterise the attack grids exactly like
    :func:`~repro.experiments.runner.run_all`; per-table seeds and benchmark
    subsets keep their driver defaults.
    """
    jobs: List[JobSpec] = []
    if grid == "full":
        jobs += table1_jobs()
        jobs += table2_jobs()
        jobs += table3_jobs(quick=quick, time_limit=attack_time_limit,
                            solver_backend=solver_backend)
        jobs += table4_jobs(quick=quick, time_limit=attack_time_limit,
                            solver_backend=solver_backend)
        jobs += table5_jobs(quick=quick, solver_backend=solver_backend)
        jobs += figure4_jobs(quick=quick)
    elif grid == "table1":
        jobs += table1_jobs()
    elif grid == "table2":
        jobs += table2_jobs()
    elif grid == "table3":
        jobs += table3_jobs(quick=quick, time_limit=attack_time_limit,
                            solver_backend=solver_backend)
    elif grid == "table4":
        jobs += table4_jobs(quick=quick, time_limit=attack_time_limit,
                            solver_backend=solver_backend)
    elif grid == "table5":
        jobs += table5_jobs(quick=quick, solver_backend=solver_backend)
    elif grid == "figure4":
        jobs += figure4_jobs(quick=quick)
    elif grid == "smoke":
        # Tiny kill-and-resume grid for CI: six 2-second filler jobs plus
        # one real (cheap) Table III cell, so both the sleep kind and a real
        # experiment cell survive a mid-run SIGKILL.  The sleep jobs alone
        # need >= 6 s of wall-clock on 2 workers, so a kill a few seconds in
        # is guaranteed to land mid-sweep (some cells recorded, some not) on
        # any runner speed.
        jobs += [
            JobSpec(kind="sleep", group="sleep",
                    params={"seconds": 2.0, "marker": f"smoke-{index}"})
            for index in range(6)
        ]
        jobs += table3_jobs(
            benchmarks=["bcomp"], attacks=["INT"],
            time_limit=attack_time_limit,
            solver_backend=solver_backend,
        )
    else:
        raise ValueError(f"unknown grid {grid!r}; expected one of {GRIDS}")
    return CampaignSpec(
        name=name or f"cutelock-{grid}",
        jobs=jobs,
        metadata={
            "grid": grid,
            "quick": quick,
            "attack_time_limit": attack_time_limit,
            "solver_backend": solver_backend,
        },
    )


def _aggregate_simple_table(
    label: str, jobs: List[JobSpec], records, fallback_title: str
) -> ExperimentTable:
    """Rebuild a shipped-whole table (Tables I/II) from its single cell."""
    for job in jobs:
        record = records.get(job.key)
        if record is not None and record.get("status") == "completed":
            payload = record.get("payload") or {}
            return ExperimentTable.from_dict(payload["table"])
    table = ExperimentTable(name=label, title=fallback_title, columns=["status"])
    table.notes.append("cell did not complete (see campaign status)")
    return table


def aggregate_campaign(
    spec: CampaignSpec,
    store: ResultStore,
    *,
    redact_runtimes: bool = False,
) -> Dict[str, ExperimentTable]:
    """Re-assemble every experiment table the spec's groups cover.

    Returns the same ``{name: table}`` mapping :func:`run_all` historically
    produced (``table1`` … ``table5`` plus one ``figure4_<metric>`` entry per
    Figure 4 panel).  Groups without an aggregator (e.g. ``sleep`` filler
    jobs in the smoke grid) are skipped.  ``redact_runtimes`` blanks the
    wall-clock columns — the only legitimately nondeterministic fields —
    which is how the tests compare parallel and serial sweeps byte for byte.
    """
    records = store.load_index()
    tables: Dict[str, ExperimentTable] = {}
    for group in spec.groups():
        jobs = spec.jobs_in_group(group)
        if group == "table1":
            tables["table1"] = _aggregate_simple_table(
                "Table I", jobs, records, "Cute-Lock-Beh validation"
            )
        elif group == "table2":
            tables["table2"] = _aggregate_simple_table(
                "Table II", jobs, records, "Cute-Lock-Str validation"
            )
        elif group == "table3":
            tables["table3"], _ = aggregate_table3(
                jobs, records, redact_runtimes=redact_runtimes
            )
        elif group == "table4":
            tables["table4"], _ = aggregate_table4(
                jobs, records, redact_runtimes=redact_runtimes
            )
        elif group == "table5":
            tables["table5"], _ = aggregate_table5(
                jobs, records, redact_runtimes=redact_runtimes
            )
        elif group == "figure4":
            figure_tables, _ = aggregate_figure4(jobs, records)
            for metric, table in figure_tables.items():
                tables[f"figure4_{metric}"] = table
    tables["solver"] = solver_telemetry_table(
        spec, records, redact_runtimes=redact_runtimes
    )
    tables["solver_flame"] = solver_flame_table(
        spec, records, redact_runtimes=redact_runtimes
    )
    return tables


def solver_telemetry_table(
    spec: CampaignSpec,
    records: Mapping[str, "object"],
    *,
    redact_runtimes: bool = False,
) -> ExperimentTable:
    """Aggregate the per-record solver telemetry blocks into one table.

    One row per campaign group plus a total row: solve calls, decisions,
    propagations, conflicts, learned clauses and restarts summed over the
    group's latest records (jobs that never touched a ``SolveSession`` —
    sleep fillers, overhead cells — contribute zeros).  This is the campaign
    end of the telemetry spine that starts in the CDCL inner loop.
    ``redact_runtimes`` blanks the solve-time column, the one
    nondeterministic field, so serial and sharded sweeps compare
    byte-identically.
    """
    table = ExperimentTable(
        name="Solver telemetry",
        title="Aggregate solver counters per campaign group",
        columns=["Group", "Jobs", "Solve calls", "Decisions", "Propagations",
                 "Conflicts", "Learned", "Restarts", "Solve time (s)"],
    )
    total = SolverTally()
    for group in spec.groups():
        tally = SolverTally()
        for job in spec.jobs_in_group(group):
            record = records.get(job.key)
            if isinstance(record, dict):
                tally.add(record.get("solver"))
                total.add(record.get("solver"))
        table.add_row(**_solver_row(group or "-", tally, redact_runtimes))
    table.add_row(**_solver_row("total", total, redact_runtimes))
    return table


def solver_flame_table(
    spec: CampaignSpec,
    records: Mapping[str, "object"],
    *,
    redact_runtimes: bool = False,
    width: int = 24,
) -> ExperimentTable:
    """Per-phase flame view: where each group's solver time actually went.

    One row per (group, phase label) with the summed seconds, the phase's
    share of the group's solver time, and a proportional ASCII bar — the
    report-side companion of ``repro trace summary``.  Rows are ordered by
    spec group order then phase name, so the table skeleton is deterministic;
    under ``redact_runtimes`` the seconds/share/bar cells (all wall-clock
    derived) are blanked, which keeps serial and sharded sweeps
    byte-identical while still showing which phases ran.
    """
    table = ExperimentTable(
        name="Solver flame view",
        title="Per-phase solver time per campaign group",
        columns=["Group", "Phase", "Seconds", "Share", "Flame"],
    )
    for group in spec.groups():
        tally = SolverTally()
        for job in spec.jobs_in_group(group):
            record = records.get(job.key)
            if isinstance(record, dict):
                tally.add(record.get("solver"))
        if not tally.phase_seconds:
            continue
        group_total = sum(tally.phase_seconds.values())
        for phase in sorted(tally.phase_seconds):
            seconds = tally.phase_seconds[phase]
            share = seconds / group_total if group_total > 0 else 0.0
            table.add_row(
                Group=group or "-",
                Phase=phase,
                Seconds="-" if redact_runtimes else round(seconds, 2),
                Share="-" if redact_runtimes else f"{share:.1%}",
                Flame="-" if redact_runtimes else ascii_bar(share, width),
            )
    if not table.rows:
        table.notes.append(
            "no per-phase solver telemetry recorded yet (jobs still running, "
            "or none touched a SolveSession)"
        )
    return table


def _solver_row(label: str, tally: SolverTally, redact_runtimes: bool) -> Dict[str, object]:
    return {
        "Group": label,
        "Jobs": tally.records,
        "Solve calls": tally.solve_calls,
        "Decisions": tally.decisions,
        "Propagations": tally.propagations,
        "Conflicts": tally.conflicts,
        "Learned": tally.learned_clauses,
        "Restarts": tally.restarts,
        "Solve time (s)": "-" if redact_runtimes else round(tally.solve_seconds, 2),
    }


def campaign_latex(
    spec: CampaignSpec,
    store: ResultStore,
    *,
    redact_runtimes: bool = False,
) -> str:
    """Render a (spec, store) pair straight to the paper's LaTeX tables.

    The intended end of a multi-host sweep: run N shards, ``merge`` them,
    then emit camera-ready tables from the merged store —
    ``python -m repro campaign report --store ... --latex``.
    """
    tables = aggregate_campaign(spec, store, redact_runtimes=redact_runtimes)
    return render_latex_tables(tables.values())
