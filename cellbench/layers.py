"""Per-layer spans recorded from outside the program.

The traced run wraps each layer's public entry points -- no span lives inside
``repro``.  A wrapper records ``(layer, start, end, parent)`` for every call
and takes the layer's counts at the same boundary.  Spans nest by call stack
and stay in memory until the run writes them out.

Installing rebinds every module-level function in each loaded ``repro``
module that imported it by name (``from m import f`` copies the binding), and
every method on its class; :meth:`Tracer.uninstall` puts each original object
back.  Code that captured a function object elsewhere (a dict of attacks, a
default argument) is not rebound, so the benchmark calls the program through
module attributes.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: The root span of a pass: its self time is the unattributed part.
ROOT = "pass"

#: Layer name -> public entry points ("module:function" or "module:Class.method").
LAYERS: Dict[str, Tuple[str, ...]] = {
    "benchmarks.load": (
        "repro.benchmarks_data.synthezza:load_synthezza",
        "repro.benchmarks_data.iscas89:load_iscas89",
        "repro.benchmarks_data.itc99:load_itc99",
        "repro.fsm.random_fsm:random_fsm",
    ),
    "fsm.qm": ("repro.fsm.minimize:quine_mccluskey",),
    "fsm.synth": (
        "repro.locking.cutelock_beh:LockedFSM.synthesize",
        "repro.fsm.synthesis:synthesize_fsm",
    ),
    "locking.lock": (
        "repro.locking.cutelock_beh:CuteLockBeh.lock",
        "repro.locking.cutelock_str:CuteLockStr.lock",
        "repro.locking.baselines.rll:lock_rll",
        "repro.locking.baselines.antisat:lock_antisat",
        "repro.locking.baselines.dklock:lock_dklock",
        "repro.locking.baselines.sarlock:lock_sarlock",
        "repro.locking.baselines.ttlock:lock_ttlock",
        "repro.locking.baselines.harpoon:lock_harpoon",
        "repro.locking.baselines.sled:lock_sled",
    ),
    "netlist.validate": ("repro.netlist.validate:validate_circuit",),
    "sat.encode": (
        "repro.sat.tseitin:TseitinEncoder.encode",
        "repro.attacks.unroll:encode_unrolled",
        "repro.attacks.unroll:extend_unrolled",
    ),
    "sat.sync": (
        "repro.sat.session:SolveSession.sync",
        "repro.sat.solver:Solver.add_clauses",
        "repro.sat.arena:ArenaSolver.add_clauses",
    ),
    "sat.search": ("repro.sat.session:SolveSession.solve",),
    "attacks.loop": (
        "repro.attacks.bmc_attack:bmc_attack",
        "repro.attacks.kc2:int_attack",
        "repro.attacks.kc2:kc2_attack",
        "repro.attacks.rane:rane_attack",
        "repro.attacks.sat_attack:sat_attack",
        "repro.engine.equivalence:packed_candidate_key_filter",
    ),
    "engine.oracle": (
        "repro.engine.batch_oracle:BatchedCombinationalOracle.query_batch",
        "repro.engine.batch_oracle:BatchedSequentialOracle.query_batch",
        "repro.engine.packed:PackedSimulator.eval_words",
        "repro.engine.packed:PackedSimulator.output_words",
        "repro.engine.packed:PackedSimulator.next_state_words",
        "repro.engine.packed:PackedSimulator.step_words",
        "repro.engine.packed:PackedSimulator.evaluate_batch",
        "repro.engine.packed:PackedSimulator.outputs_batch",
        "repro.engine.packed:PackedSimulator.next_state_batch",
    ),
    "engine.compile": ("repro.engine.packed:PackedSimulator.__init__",),
    "engine.toggle": ("repro.engine.equivalence:packed_toggle_counts",),
    "sim.verify": (
        "repro.sim.equivalence:sequential_equivalence_check",
        "repro.sim.equivalence:random_equivalence_check",
    ),
    "synthesis.map": ("repro.synthesis.mapping:technology_map",),
    "synthesis.cost": ("repro.synthesis.overhead:analyze_circuit",),
    "attacks.removal": (
        "repro.attacks.dana:dana_attack",
        "repro.attacks.fall:fall_attack",
    ),
}

#: A span: [layer, start, end, parent index or -1].
Span = List[object]


def _lanes(args: tuple, kwargs: dict) -> int:
    """Lanes of one packed call: ``width=`` or the batch length."""
    if "width" in kwargs:
        return int(kwargs["width"])
    return len(args[1]) if len(args) > 1 else 0


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.lanes: List[int] = []
        #: (enclosing span index or -1, seconds) of each host probe repetition
        self.probes: List[Tuple[int, float]] = []
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans
    def begin(self, layer: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span: Span = [layer, time.perf_counter(), 0.0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: Span) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def note_probe(self, seconds: float) -> None:
        """Charge a host probe repetition to the innermost open span.

        Called from a signal handler: it only reads the stack top and
        appends, so it cannot tear a span that is being opened or closed.
        """
        self.probes.append((self._stack[-1] if self._stack else -1, seconds))

    def reset(self) -> None:
        """Drop recorded spans and counts (between passes)."""
        self.spans, self.counts, self.lanes, self.probes = [], Counter(), [], []
        self._stack = []

    # ---------------------------------------------------------- wrappers
    def _wrap(self, layer: str, qualname: str, fn: Callable) -> Callable:
        tracer = self
        count = _COUNTERS.get(qualname.rsplit(".", 1)[-1]) or _COUNTERS.get(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.begin(layer)
            before = count.before(args) if count is not None else None
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            if count is not None:
                count.after(tracer, layer, span, before, args, kwargs, result)
            return result

        return wrapper

    def install(self, layers: Dict[str, Tuple[str, ...]] = LAYERS) -> None:
        """Wrap every entry point of ``layers`` (see the module docstring)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            for layer, targets in layers.items():
                for target in targets:
                    self._install_one(layer, target)
        except BaseException:
            self.uninstall()
            raise

    def _install_one(self, layer: str, target: str) -> None:
        module_name, _, qualname = target.partition(":")
        module = importlib.import_module(module_name)
        if "." in qualname:
            class_name, method = qualname.split(".")
            owner = getattr(module, class_name)
            original = owner.__dict__[method]
            self._patch(owner, method, original, self._wrap(layer, qualname, original))
            return
        original = getattr(module, qualname)
        wrapper = self._wrap(layer, qualname, original)
        for loaded in list(sys.modules.values()):
            name = getattr(loaded, "__name__", "") or ""
            if (name == "repro" or name.startswith("repro.")) and \
                    loaded.__dict__.get(qualname) is original:
                self._patch(loaded, qualname, original, wrapper)

    def _patch(self, owner: object, name: str, original: object, wrapper: object) -> None:
        setattr(owner, name, wrapper)
        self._patches.append((owner, name, original))

    def uninstall(self) -> None:
        """Restore every original object, newest patch first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()


# ---------------------------------------------------------------- counts
class _Count:
    """Counts taken at one entry point's boundary."""

    def before(self, args: tuple):
        return None

    def after(self, tracer: Tracer, layer: str, span: Span, before, args: tuple,
              kwargs: dict, result) -> None:
        raise NotImplementedError


class _Calls(_Count):
    def __init__(self, counter: str) -> None:
        self.counter = counter

    def after(self, tracer, layer, span, before, args, kwargs, result) -> None:
        tracer.counts[self.counter] += 1


class _ClausesLoaded(_Count):
    def after(self, tracer, layer, span, before, args, kwargs, result) -> None:
        clauses = args[1] if len(args) > 1 else kwargs.get("clauses", ())
        tracer.counts["sat.clauses_loaded"] += len(clauses)


class _Solve(_Count):
    def before(self, args):
        stats = args[0].solver.stats
        return stats.conflicts, stats.propagations

    def after(self, tracer, layer, span, before, args, kwargs, result) -> None:
        stats = args[0].solver.stats
        counts = tracer.counts
        counts["sat.solve_calls"] += 1
        counts["sat.conflicts"] += stats.conflicts - before[0]
        counts["sat.propagations"] += stats.propagations - before[1]
        if result is None:
            counts["sat.limited"] += 1


class _Attack(_Count):
    def after(self, tracer, layer, span, before, args, kwargs, result) -> None:
        if _enclosing_layer(tracer, span) == layer:
            return  # an attack run inside another attack is counted by it
        tracer.counts["attacks.iterations"] += result.iterations
        tracer.counts["attacks.oracle_queries"] += int(result.details.get("oracle_queries", 0))


class _Prefilter(_Count):
    def after(self, tracer, layer, span, before, args, kwargs, result) -> None:
        tracer.counts["attacks.prefilter_candidates"] += len(result)
        tracer.counts["attacks.prefilter_refuted"] += sum(1 for alive in result if not alive)


class _Lanes(_Count):
    def after(self, tracer, layer, span, before, args, kwargs, result) -> None:
        if _enclosing_layer(tracer, span) == layer:
            return  # nested packed calls belong to the outer one
        tracer.lanes.append(_lanes(args, kwargs))


def _enclosing_layer(tracer: Tracer, span: Span) -> Optional[str]:
    parent = span[3]
    return tracer.spans[parent][0] if parent >= 0 else None  # type: ignore[index,return-value]


_COUNTERS: Dict[str, _Count] = {
    # keyed by method/function name first, then by layer
    "quine_mccluskey": _Calls("fsm.qm_calls"),
    "add_clauses": _ClausesLoaded(),
    "solve": _Solve(),
    "packed_candidate_key_filter": _Prefilter(),
    "__init__": _Calls("engine.compiles"),
    "attacks.loop": _Attack(),
    "engine.oracle": _Lanes(),
}


# --------------------------------------------------------------- metrics
def self_seconds(spans: Sequence[Span],
                 probes: Sequence[Tuple[int, float]] = ()) -> Dict[str, float]:
    """Per-layer self time: span duration minus the time of its children.

    Host probe repetitions count as children of the span they interrupted.
    """
    child_time = [0.0] * len(spans)
    for parent, seconds in probes:
        if parent >= 0:
            child_time[parent] += seconds
    for span in spans:
        parent = span[3]
        if parent >= 0:  # type: ignore[operator]
            child_time[parent] += span[2] - span[1]  # type: ignore[index,operator]
    totals: Dict[str, float] = {}
    for index, span in enumerate(spans):
        own = (span[2] - span[1]) - child_time[index]  # type: ignore[operator]
        totals[span[0]] = totals.get(span[0], 0.0) + own  # type: ignore[index]
    return totals
