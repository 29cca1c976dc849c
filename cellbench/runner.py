"""Run one workload as repeated fixed-work passes and report its metrics.

A run is a sequence of passes.  Before each pass it collects garbage; the
pass then builds every design of the workload and runs each cell once, while
:class:`~cellbench.hostprobe.ProbeSampler` times the host probe beside it.
The run stops starting passes when the next one would end after
``--seconds`` (it always makes :data:`MIN_PASSES`).

``--trace 0`` reports the end-to-end metrics over every pass.  ``--trace 1``
alternates untraced and traced passes: the per-layer numbers come from the
traced ones, the tracing overhead from comparing the two.

Every pass checks the paper's verdicts, the fixed-work guard and the work
fingerprints; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from cellbench import hostprobe
from cellbench.guard import SolveGuard, fingerprint, fingerprint_mismatches
from cellbench.layers import LAYERS, ROOT, Tracer, self_seconds
from cellbench.workloads import WORKLOADS, VerdictRegression, Workload, make_workload

#: Passes every run makes, however long they take (the fingerprint check
#: needs two; a traced run needs one of each kind).
MIN_PASSES = 2

#: Where the traced run writes its spans, relative to this package.
SPANS_DIR = Path(__file__).resolve().parent / "out"


class FingerprintMismatch(RuntimeError):
    """A pass did different work from the run's first pass."""


@dataclass
class PassRecord:
    """Timings and counts of one pass (seconds are raw host seconds)."""

    traced: bool
    probe_s: float  # mean probe repetition over the pass
    wall_s: float
    setup_s: float
    run_s: float
    cpu_s: float
    cells: int
    problems: Dict[str, str]  # failed cell -> why
    fingerprints: Dict[str, tuple]
    layer_self_s: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, float] = field(default_factory=dict)
    lanes: List[int] = field(default_factory=list)
    spans: list = field(default_factory=list)

    def normalized(self, seconds: float) -> float:
        return hostprobe.normalize(seconds, self.probe_s)

    @property
    def norm_setup_s(self) -> float:
        return self.normalized(self.setup_s)

    @property
    def norm_run_s(self) -> float:
        return self.normalized(self.run_s)

    @property
    def norm_wall_s(self) -> float:
        return self.normalized(self.wall_s)


def _attempt(call: Callable[[], object]) -> Tuple[object, Optional[str]]:
    """``(call(), None)``, or ``(None, why)`` when it raised.

    :class:`VerdictRegression` is not a cell failure but a lost paper finding,
    so it goes through.
    """
    try:
        return call(), None
    except VerdictRegression:
        raise
    except Exception as exc:  # noqa: BLE001 - any error fails the cell, not the run
        return None, f"{type(exc).__name__}: {exc}"


def run_pass(workload: Workload, guard: SolveGuard,
             tracer: Optional[Tracer] = None) -> PassRecord:
    """Build every design of ``workload`` and run each cell once.

    A design that fails to build fails each of its cells; a cell whose run or
    check raises fails.  The pass-level findings are checked only when every
    cell of the pass produced a result.  All timings exclude the host probe
    repetitions taken beside the pass.
    """
    gc.collect()
    if tracer is not None:
        tracer.reset()
        root = tracer.begin(ROOT)
    setup_s = run_s = 0.0
    results: Dict[str, object] = {}
    fingerprints: Dict[str, tuple] = {}
    problems: Dict[str, str] = {}
    with hostprobe.ProbeSampler(tracer=tracer) as clock:
        cpu_started, paused_before = time.process_time(), clock.paused
        started = clock.now()
        for design in workload.designs:
            t0 = clock.now()
            built, error = _attempt(design.build)
            setup_s += clock.now() - t0
            if error is not None:
                for cell in design.cells:
                    problems[cell.name] = f"design build raised {error}"
                    fingerprints[cell.name] = fingerprint("build raised", 0, 0, guard.cell())
                continue
            for cell in design.cells:
                tally = guard.cell()
                t0 = clock.now()
                result, error = _attempt(lambda: cell.run(built))
                run_s += clock.now() - t0
                if error is None:
                    verdict, error = _attempt(lambda: cell.check(built, result))
                if error is not None:
                    problems[cell.name] = f"raised {error}"
                    fingerprints[cell.name] = fingerprint("raised", 0, 0, tally)
                    continue
                results[cell.name] = result
                fingerprints[cell.name] = fingerprint(
                    verdict.outcome, verdict.iterations, verdict.oracle_queries, tally)
                if verdict.problem:
                    problems[cell.name] = verdict.problem
                elif tally.clamped:
                    problems[cell.name] = f"solve clamped by a wall clock ({tally.clamped[0]})"
        if len(results) == len(fingerprints):
            workload.finish(results)
        wall_s = clock.now() - started
        # Process CPU seconds include the probe's; take them out.
        cpu_s = time.process_time() - cpu_started - (clock.paused - paused_before)
    if tracer is not None:
        tracer.end(root)
    record = PassRecord(
        traced=tracer is not None, probe_s=clock.probe_s,
        wall_s=wall_s, setup_s=setup_s, run_s=run_s, cpu_s=cpu_s,
        cells=len(fingerprints), problems=problems, fingerprints=fingerprints,
    )
    if tracer is not None:
        record.layer_self_s = self_seconds(tracer.spans, tracer.probes)
        record.counts = dict(tracer.counts)
        record.lanes = list(tracer.lanes)
        record.spans = tracer.spans
    return record


def run_workload(workload: Workload, seconds: float, *, trace: bool,
                 log=print) -> List[PassRecord]:
    """Run passes until the next one would end after ``seconds``.

    Raises :class:`FingerprintMismatch` when a pass's work differs from the
    first pass's, and lets :class:`VerdictRegression` through.
    """
    records: List[PassRecord] = []
    started = time.perf_counter()
    longest = 0.0
    with SolveGuard() as guard:
        while True:
            traced = trace and len(records) % 2 == 1
            pass_started = time.perf_counter()
            if traced:
                with Tracer() as tracer:
                    record = run_pass(workload, guard, tracer)
            else:
                record = run_pass(workload, guard)
            longest = max(longest, time.perf_counter() - pass_started)
            records.append(record)
            log(f"pass {len(records)}{' (traced)' if traced else ''}: "
                f"raw {record.wall_s:.3f} s, probe {record.probe_s * 1e3:.3f} ms, "
                f"normalized {record.norm_wall_s:.3f} s "
                f"(setup {record.norm_setup_s:.3f} s, run {record.norm_run_s:.3f} s)")
            mismatches = fingerprint_mismatches(records[0].fingerprints, record.fingerprints)
            if mismatches:
                raise FingerprintMismatch(
                    f"pass {len(records)} did different work: " + "; ".join(mismatches))
            elapsed = time.perf_counter() - started
            if len(records) >= MIN_PASSES and elapsed + longest > seconds:
                return records


# ---------------------------------------------------------------- metrics
def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(records: Sequence[PassRecord]) -> Dict[str, tuple]:
    """name -> (value, unit) over the untraced passes."""
    plain = [r for r in records if not r.traced]
    return {
        "wall_s": (_median([r.norm_wall_s for r in plain]), "s"),
        "setup_s": (_median([r.norm_setup_s for r in plain]), "s"),
        "run_s": (_median([r.norm_run_s for r in plain]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


#: Per-layer counts reported as they are (see layers._COUNTERS).
COUNT_METRICS = (
    "fsm.qm_calls", "sat.clauses_loaded", "sat.solve_calls", "sat.conflicts",
    "sat.propagations", "sat.limited", "attacks.iterations", "attacks.oracle_queries",
    "engine.compiles",
)


def layer_metrics(records: Sequence[PassRecord]) -> Dict[str, tuple]:
    """name -> (value, unit) from the traced passes (medians over passes)."""
    traced = [r for r in records if r.traced]
    plain = [r for r in records if not r.traced]

    def per_pass(fn) -> float:
        return _median([fn(r) for r in traced])

    metrics: Dict[str, tuple] = {}
    for layer in LAYERS:
        metrics[f"{layer}_s"] = (
            per_pass(lambda r: r.normalized(r.layer_self_s.get(layer, 0.0))), "s")
    for name in COUNT_METRICS:
        metrics[name] = (per_pass(lambda r: r.counts.get(name, 0)), "count")

    def props_per_s(r: PassRecord) -> float:
        search = r.normalized(r.layer_self_s.get("sat.search", 0.0))
        return r.counts.get("sat.propagations", 0) / search if search > 0 else 0.0

    def refuted_ratio(r: PassRecord) -> float:
        candidates = r.counts.get("attacks.prefilter_candidates", 0)
        return r.counts.get("attacks.prefilter_refuted", 0) / candidates if candidates else 0.0

    metrics["sat.props_per_s"] = (per_pass(props_per_s), "1/s")
    metrics["attacks.prefilter_refuted_ratio"] = (per_pass(refuted_ratio), "ratio")
    metrics["engine.lanes_mean"] = (
        per_pass(lambda r: statistics.fmean(r.lanes) if r.lanes else 0.0), "lanes")
    metrics["engine.lanes_max"] = (per_pass(lambda r: max(r.lanes, default=0)), "lanes")
    metrics["trace.unattributed_frac"] = (
        per_pass(lambda r: r.layer_self_s.get(ROOT, 0.0) / r.wall_s), "ratio")
    traced_wall = per_pass(lambda r: r.norm_wall_s)
    plain_wall = _median([r.norm_wall_s for r in plain])
    metrics["trace.overhead_frac"] = (traced_wall / plain_wall - 1.0, "ratio")
    metrics["host.probe_s"] = (_median([r.probe_s for r in records]), "s")
    metrics["host.raw_wall_s"] = (_median([r.wall_s for r in plain]), "s")
    metrics["host.cpu_s"] = (_median([r.cpu_s for r in plain]), "s")
    return metrics


def host_report(records: Sequence[PassRecord]) -> List[str]:
    """Probe, raw and normalized pass quartiles of the untraced passes."""
    plain = [r for r in records if not r.traced]
    lines = []
    for label, values, scale, unit in (
        ("host probe", [r.probe_s for r in records], 1e3, "ms"),
        ("raw pass wall", [r.wall_s for r in plain], 1.0, "s"),
        ("normalized pass wall", [r.norm_wall_s for r in plain], 1.0, "s"),
    ):
        q1, median, q3 = hostprobe.quartiles(values)
        lines.append(f"{label}: median {median * scale:.4f} {unit} "
                     f"(q1 {q1 * scale:.4f}, q3 {q3 * scale:.4f}, n={len(values)})")
    lines.append(f"probe reference: {hostprobe.PROBE_REF * 1e3:.4f} ms")
    return lines


def write_spans(records: Sequence[PassRecord], path: Path) -> None:
    """One JSON line per span of every traced pass."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for index, record in enumerate(records):
            for layer, start, end, parent in record.spans:
                handle.write(json.dumps({"pass": index, "layer": layer, "start": start,
                                         "end": end, "parent": parent}) + "\n")


# -------------------------------------------------------------------- CLI
def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="cellbench", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Sequence[str]) -> int:
    args = parse_args(argv)
    workload = make_workload(args.workload, args.seed)
    print(f"cellbench {args.workload}: seed {args.seed}, {len(workload.cell_names)} cells "
          f"in {len(workload.designs)} designs, {args.seconds:g} s, trace {args.trace}")
    # Warm lazy imports (numpy for the engine's auto backend) outside any pass.
    from repro.engine.compiler import numpy_module
    numpy_module()

    failure: Optional[str] = None
    records: List[PassRecord] = []
    try:
        records = run_workload(workload, args.seconds, trace=bool(args.trace))
    except (VerdictRegression, FingerprintMismatch) as exc:
        failure = f"{type(exc).__name__}: {exc}"
        print(failure, file=sys.stderr)

    attempted = sum(r.cells for r in records) or len(workload.cell_names)
    failed = sum(len(r.problems) for r in records)
    for problem in sorted({f"{cell}: {why}" for r in records for cell, why in r.problems.items()}):
        print(f"FAILED {problem}", file=sys.stderr)
    metrics: Dict[str, tuple] = {}
    if records:
        for line in host_report(records):
            print(line)
        metrics = layer_metrics(records) if args.trace else end_to_end_metrics(records)
        for name, (value, unit) in metrics.items():
            print(f"{name}: {value:.6g} {unit}")
        if args.trace:
            path = SPANS_DIR / f"{args.workload}-seed{args.seed}.spans.jsonl"
            write_spans([r for r in records if r.traced], path)
            print(f"spans: {path}")
    if failure is not None:
        failed = max(failed, 1)
    correct = failure is None and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1
