"""Spans around the library's stage functions, recorded from outside it.

A stage is wrapped at the module attribute where its caller looks it up
(``lowrank.approx_p1``, ``exact.split_p``, ...), so the library runs
unchanged. Each span records its name, start, end, parent span and the id
of the gradient call it belongs to, plus the multiply-adds the library
counted inside it, the bytes of the arrays it returned and, when memory
tracing is on, the tracemalloc peak above its entry level. Spans stay in
memory until the run ends. A stage missing from its module is skipped, so
a stage a later change removes drops out of the trace.
"""

import dataclasses
import functools
import statistics
import time
import tracemalloc

import numpy as np
from lora_kernels import attention, exact, harness, instrument, lowrank

MIB = 2.0**20

# (module, attribute, span name). The name is the stage's home module; the
# attribute is looked up in the module that calls it.
STAGES = (
    (lowrank, "approx_f_poly", "lowrank.approx_f_poly"),
    (lowrank, "feature_map", "lowrank.feature_map"),
    (lowrank, "approx_q", "lowrank.approx_q"),
    (lowrank, "approx_p1", "lowrank.approx_p1"),
    (lowrank, "approx_p2", "lowrank.approx_p2"),
    (lowrank, "compose_general_constants", "attention.compose_general_constants"),
    (attention, "scores", "attention.scores"),
    (attention, "softmax_rows", "attention.softmax_rows"),
    (exact, "residual_from_f", "attention.residual_from_f"),
    (exact, "q_from_c", "attention.q_from_c"),
    (exact, "split_p", "exact.split_p"),
    (harness, "gen_instance", "harness.gen_instance"),
)


@dataclasses.dataclass
class Span:
    id: int
    name: str
    call: int
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    madds: int = 0
    max_alloc: int = 0
    out_bytes: int = 0
    peak_bytes: int = 0
    # Tracemalloc bookkeeping while the span is open.
    _base: int = 0
    _peak_seen: int = 0

    @property
    def ms(self):
        return (self.end - self.start) * 1e3

    def record(self):
        """The span's public fields, for writing out."""
        return {
            f.name: getattr(self, f.name)
            for f in dataclasses.fields(self)
            if not f.name.startswith("_")
        }


def out_bytes(obj):
    """Bytes of the numpy arrays in a stage's return value."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(out_bytes(x) for x in obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return sum(out_bytes(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    return 0


class Tracer:
    """Records spans for wrapped stages and for root calls made through it.

    With memory=True the caller must have started tracemalloc; each span
    then records its peak traced bytes above the level at its entry. The
    tracer resets the tracemalloc peak at each span entry and carries the
    running peak of the enclosing spans itself. A memory tracer also keeps
    the arguments and the factor of each approx_f_poly span of its last root
    call. It serves one call outside any timed loop: a tracer in the loop
    that held a call's factors would free them inside the next call's timed
    interval, which costs about 0.8 ms a call at L=16384.
    """

    def __init__(self, memory=False):
        self.memory = memory
        self.spans = []
        self.factors = []
        self._open = []
        self._patched = []
        self._next_id = 0
        self._calls = 0

    def patch(self):
        for module, attr, name in STAGES:
            fn = getattr(module, attr, None)
            if fn is not None:
                setattr(module, attr, self.wrap(fn, name))
                self._patched.append((module, attr, fn))
        return self

    def restore(self):
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def __enter__(self):
        return self.patch()

    def __exit__(self, *exc):
        self.restore()
        return False

    def wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._run(name, fn, args, kwargs)

        return traced

    def call(self, name, fn, *args):
        """Run fn(*args) as a span of the given name."""
        return self._run(name, fn, args, {})

    def _run(self, name, fn, args, kwargs):
        parent = self._open[-1] if self._open else None
        if parent is None:
            self._calls += 1
            self.factors.clear()
        span = Span(
            id=self._next_id,
            name=name,
            call=self._calls,
            parent=None if parent is None else parent.id,
        )
        self._next_id += 1
        if self.memory:
            cur, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                parent._peak_seen = max(parent._peak_seen, peak)
            span._base = span._peak_seen = cur
            tracemalloc.reset_peak()
        self._open.append(span)
        try:
            with instrument.recording() as tally:
                span.start = time.perf_counter()
                result = fn(*args, **kwargs)
                span.end = time.perf_counter()
        finally:
            self._open.pop()
        if self.memory:
            span._peak_seen = max(span._peak_seen, tracemalloc.get_traced_memory()[1])
            span.peak_bytes = span._peak_seen - span._base
            if parent is not None:
                parent._peak_seen = max(parent._peak_seen, span._peak_seen)
        span.madds = tally.madds
        span.max_alloc = tally.max_alloc
        span.out_bytes = out_bytes(result)
        if self.memory and name == "lowrank.approx_f_poly":
            self.factors.append((args, result))
        self.spans.append(span)
        return result


def check_nesting(spans):
    """Raise ValueError if a span is not inside its parent's call and interval.

    A span whose parent raised, and so was never recorded, is skipped.
    """
    by_id = {s.id: s for s in spans}
    for s in spans:
        p = by_id.get(s.parent)
        if p is not None and not (p.call == s.call and p.start <= s.start <= s.end <= p.end):
            raise ValueError(f"span {s.name} #{s.id} lies outside its parent {p.name} #{p.id}")


def self_times(spans):
    """Per span id: (self ms, self madds), children's shares taken out."""
    child_ms, child_madds = {}, {}
    for s in spans:
        if s.parent is not None:
            child_ms[s.parent] = child_ms.get(s.parent, 0.0) + s.ms
            child_madds[s.parent] = child_madds.get(s.parent, 0) + s.madds
    return {
        s.id: (s.ms - child_ms.get(s.id, 0.0), s.madds - child_madds.get(s.id, 0))
        for s in spans
    }


def stage_table(spans):
    """Per stage name: median over calls of the per-call self ms, self madds
    and returned MiB, and the largest peak MiB of any of its spans."""
    own = self_times(spans)
    per_call = {}
    peaks = {}
    for s in spans:
        ms, madds = own[s.id]
        acc = per_call.setdefault(s.name, {}).setdefault(s.call, [0.0, 0, 0])
        acc[0] += ms
        acc[1] += madds
        acc[2] += s.out_bytes
        peaks[s.name] = max(peaks.get(s.name, 0), s.peak_bytes)
    table = {}
    for name, calls in per_call.items():
        rows = list(calls.values())
        table[name] = {
            "ms": statistics.median(r[0] for r in rows),
            "madds": statistics.median_low(r[1] for r in rows),
            "out_mib": statistics.median(r[2] for r in rows) / MIB,
            "peak_mib": peaks[name] / MIB,
        }
    return table

