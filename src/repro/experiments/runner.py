"""Run every experiment and assemble a combined report.

``python -m repro.experiments.runner`` regenerates the full evaluation
(quick mode by default) and writes a Markdown report; the same entry point is
used by ``examples/reproduce_paper.py`` and by the integration tests.

Since the :mod:`repro.campaign` refactor the sweep is declared as one
campaign grid (every table/figure cell is an independent job, see
:mod:`repro.experiments.campaigns`) and executed through the campaign
executor: ``workers=N`` fans the cells out over N worker processes,
``store_path`` persists per-cell results so a crashed or killed sweep can be
resumed, and ``job_timeout`` turns a runaway cell into a ``timeout`` row
instead of a lost evening.  The default (``workers=0``, no store) reproduces
the historical serial in-process behaviour — same tables, same return value.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.campaign.executor import run_campaign
from repro.campaign.progress import campaign_status, progress_printer, render_status
from repro.campaign.store import ResultStore
from repro.experiments.campaigns import aggregate_campaign, build_campaign
from repro.experiments.report import ExperimentTable, render_latex_tables


def run_all(
    *,
    quick: bool = True,
    attack_time_limit: float = 20.0,
    output_path: Optional[str] = None,
    latex_path: Optional[str] = None,
    verbose: bool = True,
    workers: int = 0,
    store_path: Optional[str] = None,
    job_timeout: Optional[float] = None,
    solver_backend: str = "cdcl",
) -> Dict[str, ExperimentTable]:
    """Run every table/figure driver and return the tables by name.

    ``quick=True`` (default) runs the representative benchmark subsets; the
    full sweep (``quick=False``) covers every benchmark named in the paper
    and can take hours with the pure-Python SAT back-end — which is exactly
    when ``workers``/``store_path`` pay off: cells run in parallel, finished
    cells are never recomputed, and a rerun with the same ``store_path``
    resumes instead of restarting.
    """

    def log(message: str) -> None:
        if verbose:
            print(message, flush=True)

    start = time.monotonic()
    spec = build_campaign(
        "full", quick=quick, attack_time_limit=attack_time_limit,
        solver_backend=solver_backend,
    )
    store = ResultStore(store_path)
    log(
        f"campaign {spec.name}: {len(spec.jobs)} jobs across groups "
        f"{', '.join(spec.groups())}"
        + (f" ({workers} workers)" if workers else " (serial)")
    )
    summary = run_campaign(
        spec,
        store,
        workers=workers,
        job_timeout=job_timeout,
        progress=progress_printer(log) if verbose else None,
    )
    if summary.skipped:
        log(f"resumed: {summary.skipped} cells already complete were skipped")
    if summary.timeouts or summary.errors:
        log(render_status(campaign_status(spec, store)))

    tables = aggregate_campaign(spec, store)
    elapsed = time.monotonic() - start
    log(f"done in {elapsed:.1f}s")

    if output_path:
        write_report(tables, output_path, elapsed=elapsed)
        log(f"report written to {output_path}")
    if latex_path:
        write_latex_report(tables, latex_path)
        log(f"LaTeX tables written to {latex_path}")
    return tables


def write_report(tables: Dict[str, ExperimentTable], path: str, *, elapsed: float = 0.0) -> Path:
    """Write all tables to one Markdown report file."""
    lines: List[str] = [
        "# Cute-Lock reproduction — regenerated evaluation",
        "",
        f"Total runtime: {elapsed:.1f}s",
        "",
    ]
    for table in tables.values():
        lines.append(table.to_text())
        lines.append("")
    output = Path(path)
    output.write_text("\n".join(lines))
    return output


def write_latex_report(tables: Dict[str, ExperimentTable], path: str) -> Path:
    """Write all tables as one LaTeX fragment (``\\input``-able in a paper)."""
    output = Path(path)
    output.write_text(render_latex_tables(tables.values()))
    return output


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Regenerate the Cute-Lock evaluation")
    parser.add_argument("--full", action="store_true",
                        help="run every benchmark from the paper (slow)")
    parser.add_argument("--time-limit", type=float, default=20.0,
                        help="per-attack time budget in seconds")
    parser.add_argument("--output", default="experiments_report.md",
                        help="path of the Markdown report to write")
    parser.add_argument("--latex", default=None, metavar="PATH",
                        help="also write the tables as a LaTeX fragment")
    parser.add_argument("--workers", type=int, default=0,
                        help="worker processes (0 = serial in-process)")
    parser.add_argument("--store", default=None,
                        help="campaign store directory (enables resume)")
    parser.add_argument("--job-timeout", type=float, default=None,
                        help="per-cell wall-clock budget in seconds")
    args = parser.parse_args(argv)
    run_all(quick=not args.full, attack_time_limit=args.time_limit,
            output_path=args.output, latex_path=args.latex,
            workers=args.workers, store_path=args.store,
            job_timeout=args.job_timeout)
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry point
    sys.exit(main())
