"""Layer tracing from outside the program.

``traced()`` wraps the public privcache functions listed in ``TARGETS`` for
the duration of a ``with`` block.  Every module binding of a function is
patched (``ucc`` imports ``solve_any`` from ``gf`` by name, ``tradeoff``
imports ``lower_convex_envelope`` from ``exact``, the package ``__init__``
re-exports several), so calls through any of them are seen.  Each call
becomes a span (name, start, end, parent span, op id) kept in flat arrays;
self times, per-layer counts and per-op-kind attribution are derived from
the spans afterwards.  On exit every original is put back and checked to be
the very same object again.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

PACKAGE = "privcache"

# (module, attribute) of every traced function; "Class.method" patches the class.
TARGETS = (
    ("cli", "main"),
    ("scheme", "run_simulation"),
    ("scheme", "place_caches"),
    ("scheme", "deliver"),
    ("scheme", "decode_user"),
    ("ucc", "encode"),
    ("ucc", "decode_linear"),
    ("ucc", "decode_structural"),
    ("gf", "determined_unknowns"),
    ("gf", "solve_any"),
    ("gf", "rref"),
    ("audit", "masked_demand_law"),
    ("audit", "verify_law_invariance"),
    ("audit", "exact_mutual_information"),
    ("tradeoff", "verify_envelope_dominance"),
    ("tradeoff", "gap_certificate"),
    ("tradeoff", "converse_line"),
    ("exact", "Envelope.value_at"),
    ("exact", "lower_convex_envelope"),
)
NAMES = tuple(f"{mod}.{attr}" for mod, attr in TARGETS)


def _rref(tally, args, result):
    rows = args[1]
    tally["cells"] += len(rows) * (len(rows[0]) if rows else 0)
    tally["rank"] += len(result)


def _solve_any(tally, args, result):
    tally["useful"] += result is not None


def _encode(tally, args, result):
    tally["segments"] += result.segment_count
    tally["symbols"] += result.symbol_count


def _law(tally, args, result):
    tally["support"] += len(result)


def _dominance(tally, args, result):
    tally["checked_points"] += result.checked_points


# Work counts read off a call's arguments and result, by traced name.
COUNTERS = {
    "gf.rref": _rref,
    "gf.solve_any": _solve_any,
    "ucc.encode": _encode,
    "audit.masked_demand_law": _law,
    "tradeoff.verify_envelope_dominance": _dominance,
}


class Trace:
    """Spans and counts of one traced stretch of work."""

    def __init__(self):
        self.name_ids = array("i")
        self.parents = array("q")
        self.op_ids = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.calls = [0] * len(NAMES)
        self.failures = [0] * len(NAMES)
        self.tallies = [dict.fromkeys(("cells", "rank", "useful", "segments", "symbols",
                                       "support", "checked_points"), 0) for _ in NAMES]
        self.op_id = -1
        self.op_kinds: list[str] = []
        self._stack = [-1]

    def begin_op(self, kind: str):
        """Mark the start of the next CLI op; spans record it as their op id."""
        self.op_kinds.append(kind)
        self.op_id = len(self.op_kinds) - 1

    def wrap(self, name_id: int, fn):
        counter = COUNTERS.get(NAMES[name_id])
        name_ids, parents, op_ids = self.name_ids, self.parents, self.op_ids
        starts, ends, stack = self.starts, self.ends, self._stack
        calls, failures, tally = self.calls, self.failures, self.tallies[name_id]
        trace = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            op_ids.append(trace.op_id)
            ends.append(0.0)
            stack.append(idx)
            calls[name_id] += 1
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failures[name_id] += 1
                raise
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if counter is not None:
                counter(tally, args, result)
            return result

        return wrapper

    def self_times(self) -> list[float]:
        """Seconds spent in each traced function minus its traced children."""
        starts, ends, parents, name_ids = self.starts, self.ends, self.parents, self.name_ids
        child = [0.0] * len(starts)
        for i, p in enumerate(parents):
            if p >= 0:
                child[p] += ends[i] - starts[i]
        out = [0.0] * len(NAMES)
        for i, n in enumerate(name_ids):
            out[n] += ends[i] - starts[i] - child[i]
        return out

    def inclusive_by_kind(self) -> dict[str, list[float]]:
        """Per op kind, the inclusive seconds of each traced function."""
        out = {kind: [0.0] * len(NAMES) for kind in set(self.op_kinds)}
        kinds = self.op_kinds
        for i, n in enumerate(self.name_ids):
            op = self.op_ids[i]
            if op >= 0:
                out[kinds[op]][n] += self.ends[i] - self.starts[i]
        return out

    def write_spans(self, path: str):
        """Gzipped TSV, one span per line, times relative to the first span."""
        t0 = self.starts[0] if self.starts else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\tparent\top\top_kind\tname\tstart_s\tend_s\n")
            for i, n in enumerate(self.name_ids):
                op = self.op_ids[i]
                kind = self.op_kinds[op] if op >= 0 else "-"
                fh.write(f"{i}\t{self.parents[i]}\t{op}\t{kind}\t{NAMES[n]}\t"
                         f"{self.starts[i] - t0:.9f}\t{self.ends[i] - t0:.9f}\n")


def _package_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def install(trace: Trace, patched: list[tuple[object, str, object]]):
    """Patch every binding of every target, recording (owner, attr, original) in ``patched``."""
    modules = _package_modules()
    for name_id, (mod_name, attr) in enumerate(TARGETS):
        module = sys.modules[f"{PACKAGE}.{mod_name}"]
        if "." in attr:
            cls_name, method = attr.split(".")
            owner = getattr(module, cls_name)
            original = owner.__dict__[method]
            setattr(owner, method, trace.wrap(name_id, original))
            patched.append((owner, method, original))
            continue
        original = getattr(module, attr)
        wrapper = trace.wrap(name_id, original)
        for mod in modules:
            for binding in [k for k, v in vars(mod).items() if v is original]:
                setattr(mod, binding, wrapper)
                patched.append((mod, binding, original))


def restore(patched: list[tuple[object, str, object]]):
    """Put every original back and check it is the same object again."""
    for owner, attr, original in reversed(patched):
        setattr(owner, attr, original)
    for owner, attr, original in patched:
        if vars(owner)[attr] is not original:
            raise RuntimeError(f"{owner!r}.{attr} was not restored")


@contextmanager
def traced():
    trace = Trace()
    patched: list[tuple[object, str, object]] = []
    try:
        install(trace, patched)
        yield trace
    finally:
        restore(patched)
