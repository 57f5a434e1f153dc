"""Spans around the public functions of each taquin layer, recorded from
outside the package.

Callers bind names at import time: `cli` imports `invert`, `orbit_table`
and `dumps`, `orbits` imports `promotion`, and so on.  Wrapping one module
attribute would miss the other bindings, so `install` replaces every
attribute of every taquin module that is bound to a wrapped function.
`PartialTableau.__init__` is wrapped on the class.

A span is (name, start_ns, end_ns, parent index, operation id).  Spans
stay in memory until the run ends.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import Counter, defaultdict


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _forward_slides(args, kwargs, result):
    # the forward construction slides every cell of lambda_minus once
    return {"orbits.slides": _arg(args, kwargs, 1, "diag").lambda_minus.size}


def _reverse_slides(args, kwargs, result):
    # the reverse construction slides every cell of the complement of lambda_plus
    diag, rect = _arg(args, kwargs, 1, "diag"), _arg(args, kwargs, 2, "rect")
    return {"orbits.slides": rect.ncells - diag.lambda_plus.size}


def _orbit_table_counts(args, kwargs, table):
    return {"verify.orbit_table.syt": table.total, "verify.orbit_table.orbits": len(table.orbits)}


def _explored(args, kwargs, verdict):
    return {"words.bounded_equivalence.explored": verdict.explored}


# (span name, module, attribute, counter hook or None)
LAYER_FUNCTIONS = (
    ("orbits.minimal_orbit_tableau", "taquin.orbits", "minimal_orbit_tableau", None),
    ("orbits.invert", "taquin.orbits", "invert", None),
    ("orbits.forward_tableau", "taquin.orbits", "forward_tableau", _forward_slides),
    ("orbits.reverse_tableau", "taquin.orbits", "reverse_tableau", _reverse_slides),
    ("orbits.box_sequence", "taquin.orbits", "box_sequence", None),
    ("tableaux.PartialTableau", "taquin.tableaux", "PartialTableau.__init__", None),
    ("tableaux.promotion", "taquin.tableaux", "promotion", None),
    ("tableaux.loads", "taquin.tableaux", "loads", None),
    ("tableaux.dumps", "taquin.tableaux", "dumps", None),
    ("verify.orbit_table", "taquin.verify", "orbit_table", _orbit_table_counts),
    ("verify.q_hook_at_root", "taquin.verify", "q_hook_at_root", None),
    ("verify.run_suite.bijection", "taquin.verify", "_suite_bijection", None),
    ("verify.run_suite.independence", "taquin.verify", "_suite_independence", None),
    ("verify.run_suite.csp", "taquin.verify", "_suite_csp", None),
    ("verify.run_suite.haiman", "taquin.verify", "_suite_haiman", None),
    ("verify.run_suite.propositions", "taquin.verify", "_suite_propositions", None),
    ("words.bounded_equivalence", "taquin.words", "bounded_equivalence", _explored),
    ("words.insertion_tableau", "taquin.words", "insertion_tableau", None),
    ("shapes.staircase_diagonal", "taquin.shapes", "staircase_diagonal", None),
    ("shapes.enumerate_diagonals", "taquin.shapes", "enumerate_diagonals", None),
)


class Tracer:
    """Collects spans and counters for one traced pass."""

    def __init__(self):
        self.spans: list = []
        self.counters: Counter = Counter()
        self.op = -1
        self._open: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        spans, stack = self.spans, self._open
        index = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            spans[index] = (name, start, end, parent, self.op)

    def wrap(self, name, fn, count=None):
        call, counters = self.call, self.counters

        def traced(*args, **kwargs):
            result = call(name, fn, *args, **kwargs)
            if count is not None:
                counters.update(count(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced


def install(tracer: Tracer) -> list:
    """Wrap every binding of every layer function; return the undo list."""
    modules = [m for key, m in list(sys.modules.items()) if key == "taquin" or key.startswith("taquin.")]
    undo = []
    for name, module, attr, count in LAYER_FUNCTIONS:
        owner_name, _, method = attr.rpartition(".")
        if owner_name:
            owner = getattr(sys.modules[module], owner_name)
            fn = vars(owner)[method]
            undo.append((owner, method, fn))
            setattr(owner, method, tracer.wrap(name, fn, count))
            continue
        fn = getattr(sys.modules[module], attr)
        wrapper = tracer.wrap(name, fn, count)
        for mod in modules:
            for key in [k for k, v in vars(mod).items() if v is fn]:
                undo.append((mod, key, fn))
                setattr(mod, key, wrapper)
    return undo


def uninstall(undo: list) -> None:
    for owner, key, fn in reversed(undo):
        setattr(owner, key, fn)


_SCALE = {"self_ms": 1e6, "self_s": 1e9}
PER_CALL_COUNTERS = ("syt", "orbits")  # read from each call's result, reported per call
UNITS = {"self_ms": "ms", "self_s": "s", "p50_ms": "ms"}


def layer_table(tracer: Tracer, ops: int, names) -> dict:
    """Per-layer metrics of one traced pass of `ops` operations.

    `<span>.calls` and `.inits` are calls per operation; `.self_ms` and
    `.self_s` are self time per operation (span time minus the time of its
    child spans); `.p50_ms` is the median span duration; `.syt` and
    `.orbits` are counted per call; other counters are per operation.
    """
    spans = tracer.spans
    child_ns = [0] * len(spans)
    for _name, start, end, parent, _op in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls: Counter = Counter()
    self_ns: Counter = Counter()
    durations = defaultdict(list)
    for i, (name, start, end, _parent, _op) in enumerate(spans):
        calls[name] += 1
        self_ns[name] += end - start - child_ns[i]
        durations[name].append(end - start)
    table = {}
    for metric in names:
        span, _, stat = metric.rpartition(".")
        if stat in ("calls", "inits"):
            value = calls[span] / ops
        elif stat in _SCALE:
            value = self_ns[span] / ops / _SCALE[stat]
        elif stat == "p50_ms":
            value = statistics.median(durations[span]) / 1e6 if durations[span] else 0.0
        elif stat in PER_CALL_COUNTERS:
            value = tracer.counters[metric] / calls[span] if calls[span] else 0.0
        else:
            value = tracer.counters[metric] / ops
        table[metric] = {"value": value, "unit": UNITS.get(stat, "count")}
    return table


def span_records(tracer: Tracer, workload: str):
    for i, (name, start, end, parent, op) in enumerate(tracer.spans):
        yield {"workload": workload, "id": i, "name": name, "start_ns": start, "end_ns": end,
               "parent": parent, "op": op}
