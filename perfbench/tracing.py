"""Span recording around calls into qfcert's public functions.

A traced command process calls :func:`install` before ``qfcert.cli.main``.
Every public module-level function of the library modules is replaced by
a wrapper that records one span per call: its name, start, end, parent
span and whether it raised.  A function that returns a generator gets
one span for the call and one span per item drawn from the generator.
Spans stay in memory and are written out once, when the command ends.

The analysis half (:func:`self_times`, :func:`summarize`) runs in the
benchmark process on the written columns and needs no qfcert import.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import types
from array import array

LAYERS = ("surface_group", "moebius", "representations", "_wordarrays",
          "boundary", "certificates")
ROOT = "cli.main"
# tiny functions called per letter: a witness lift calls wrap_turns 2.7 M
# times and a spectrum sort calls letter_sort_key 0.5 M times, so a span
# each would swamp the work they sit in (their time counts to the caller)
SKIPPED = frozenset({"moebius.wrap_turns", "surface_group.letter_sort_key"})
# span columns, written as raw arrays beside the JSON report
COLUMNS = (("name", "i"), ("start", "d"), ("end", "d"), ("parent", "i"),
           ("raised", "b"))


def _compose_counts(result, args, kwargs) -> dict:
    words = args[0] if args else kwargs["words"]
    n, length = words.shape
    products = n * max(length - 1, 0)
    # each 2x2 complex product reads two 64-byte matrices and writes one;
    # the word rows are read once and every result is stored once
    return {"products": products,
            "bytes_computed": products * 3 * 64 + words.nbytes + n * 64}


# work counts recorded at function boundaries: name -> f(result, args, kwargs)
COUNTERS = {
    "_wordarrays.compose_matrices": _compose_counts,
    "_wordarrays.reduced_word_levels":
        lambda r, a, k: {"words": sum(int(level.shape[0]) for level in r)},
    "boundary.limit_set_sample": lambda r, a, k: {"points": len(r)},
    "boundary.verify_witness_orders": lambda r, a, k: {"accepted": int(bool(r))},
    "representations.orbit_point_distances":
        lambda r, a, k: {"elements": int(r.size)},
    "representations.compute_spectrum":
        lambda r, a, k: {"classes": len(r.entries)},
    "certificates.triangle_harness": lambda r, a, k: {"records": len(r)},
}
# counted per item drawn instead of per call
ITEM_COUNTERS = {"surface_group.enumerate_words": "words"}


class Recorder:
    """In-memory span columns; one instance per traced process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.raised = array("b")
        self.counts: dict[int, dict] = {}
        self.calls: dict[str, int] = {}
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self.raised.append(0)
        self._stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def end(self, idx: int, raised: bool = False) -> None:
        self.ends[idx] = self.clock()
        self.raised[idx] = int(raised)
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError("span %d closed while span %d was open"
                               % (idx, popped))

    def add_counts(self, idx: int, counts: dict) -> None:
        self.counts[idx] = counts

    def write(self, prefix: str) -> dict:
        """Write the span columns to PREFIX.<column>; return the rest."""
        arrays = {"name": self.name_ids, "start": self.starts,
                  "end": self.ends, "parent": self.parents,
                  "raised": self.raised}
        for col, _ in COLUMNS:
            with open("%s.%s" % (prefix, col), "wb") as fh:
                arrays[col].tofile(fh)
        return {"names": self.names, "n": len(self.starts),
                "counts": {str(k): v for k, v in self.counts.items()},
                "calls": self.calls}

    def span(self, name: str):
        return _Span(self, name)


class _Span:
    def __init__(self, rec: Recorder, name: str):
        self.rec, self.name = rec, name

    def __enter__(self):
        self.rec.calls[self.name] = self.rec.calls.get(self.name, 0) + 1
        self.idx = self.rec.begin(self.name)
        return self

    def __exit__(self, exc_type, exc, tb):
        self.rec.end(self.idx, raised=exc_type is not None)
        return False


def _timed_items(rec: Recorder, name: str, gen, item_key: str | None):
    """Re-yield gen's items, one span per item drawn."""
    while True:
        idx = rec.begin(name)
        try:
            item = next(gen)
        except StopIteration:
            rec.end(idx)
            return
        except BaseException:
            rec.end(idx, raised=True)
            raise
        rec.end(idx)
        if item_key is not None:
            rec.add_counts(idx, {item_key: 1})
        yield item


def wrap(rec: Recorder, name: str, fn):
    counter = COUNTERS.get(name)
    item_key = ITEM_COUNTERS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        rec.calls[name] = rec.calls.get(name, 0) + 1
        idx = rec.begin(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            rec.end(idx, raised=True)
            raise
        rec.end(idx)
        if counter is not None:
            rec.add_counts(idx, counter(result, args, kwargs))
        if isinstance(result, types.GeneratorType):
            return _timed_items(rec, name, result, item_key)
        return result

    return traced


def public_functions(module) -> dict:
    """Public functions defined in module, generator functions excluded.

    Generator functions run only through the public function that returns
    them (``enumerate_words``), whose wrapper times each item drawn.
    """
    out = {}
    for attr, value in vars(module).items():
        if attr.startswith("_") or not inspect.isfunction(value):
            continue
        if value.__module__ != module.__name__:
            continue
        if inspect.isgeneratorfunction(value):
            continue
        out[attr] = value
    return out


def install(rec: Recorder) -> int:
    """Wrap every public library function wherever callers look it up.

    Replaces the module attribute (for callers that write ``wa.f``) and
    every name bound to the same function object in any loaded module of
    the package (for callers that imported it).  Returns the number of
    functions wrapped.
    """
    modules = [importlib.import_module("qfcert." + m) for m in LAYERS]
    loaded = [m for key, m in list(sys.modules.items())
              if m is not None and key.split(".")[0] == "qfcert"]
    wrapped = 0
    for module in modules:
        short = module.__name__.rsplit(".", 1)[1]
        for attr, fn in public_functions(module).items():
            name = "%s.%s" % (short, attr)
            if name in SKIPPED:
                continue
            replacement = wrap(rec, name, fn)
            for other in loaded:
                for key, value in list(vars(other).items()):
                    if value is fn:
                        setattr(other, key, replacement)
            wrapped += 1
    return wrapped


# ----------------------------------------------------------------------
# analysis, on the written columns


def read_columns(meta: dict, prefix: str) -> dict:
    """The span table written by Recorder.write, as one dict of lists."""
    columns = dict(meta)
    for col, code in COLUMNS:
        values = array(code)
        with open("%s.%s" % (prefix, col), "rb") as fh:
            values.fromfile(fh, meta["n"])
        columns[col] = values.tolist()
    return columns


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Children run inside their parent on one thread, so their intervals
    are disjoint sub-intervals of the parent's.
    """
    durations = [e - s for s, e in zip(starts, ends)]
    covered = [0.0] * len(durations)
    for i, p in enumerate(parents):
        if p >= 0:
            covered[p] += durations[i]
    return [d - c for d, c in zip(durations, covered)]


def summarize(columns: dict) -> dict:
    """Per function name: calls, spans, self_s, errors and summed counts."""
    names = columns["names"]
    selfs = self_times(columns["start"], columns["end"], columns["parent"])
    out: dict[str, dict] = {}
    for name in names:
        out[name] = {"calls": columns["calls"].get(name, 0), "spans": 0,
                     "self_s": 0.0, "errors": 0}
    for i, nid in enumerate(columns["name"]):
        row = out[names[nid]]
        row["spans"] += 1
        row["self_s"] += selfs[i]
        row["errors"] += columns["raised"][i]
    for key, counts in columns["counts"].items():
        row = out[names[columns["name"][int(key)]]]
        for ck, cv in counts.items():
            row[ck] = row.get(ck, 0) + cv
    return out


def descendant_counts(columns: dict, ancestor: str, name: str,
                      key: str) -> int:
    """Sum of count `key` over spans called `name` below spans `ancestor`."""
    names = columns["names"]
    if ancestor not in names or name not in names:
        return 0
    anc_id, name_id = names.index(ancestor), names.index(name)
    parents, ids = columns["parent"], columns["name"]
    total = 0
    for key_idx, counts in columns["counts"].items():
        idx = int(key_idx)
        if ids[idx] != name_id or key not in counts:
            continue
        p = parents[idx]
        while p >= 0 and ids[p] != anc_id:
            p = parents[p]
        if p >= 0:
            total += counts[key]
    return total


def root_duration(columns: dict) -> float:
    """Summed duration of the top-level spans."""
    return sum(e - s for s, e, p in zip(columns["start"], columns["end"],
                                        columns["parent"]) if p < 0)
