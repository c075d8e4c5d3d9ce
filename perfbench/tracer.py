"""Out-of-process-style tracing: spans around the calls into each layer.

The tracer never edits the program. It replaces a layer's public entry
point *where its caller looks the name up* (``session.decode_report``,
``verify.expand``, a method on its class, the ``_fsync`` attribute of
one evidence store) with a wrapper that records one span per call, and
puts every original back on :meth:`Tracer.uninstall`.

Only per-report and per-session entry points are wrapped, never
per-record ones, so the overhead stays a small multiple of the work.
Spans live in memory as tuples ``(name, start, end, parent, session,
n)`` — ``parent`` is the index of the enclosing span (or -1),
``session`` the id the load generator set for the session being
driven, ``n`` an optional count the wrapper read off the call (replay
steps, records out of expansion, screening rejects, simulated cycles).
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

def _steps(result, _args):
    return len(getattr(result, "path", ()) or ())


def _length(result, _args):
    return len(result)


def _expansion(result, args):
    return (len(result), len(args[0]))  # records out, records in


def _reject(result, _args):
    return 1 if result is not None else 0


def _cycles(result, _args):
    return result.cycles


#: (module, attribute path, span name, counter): each entry point is
#: patched in the module or class its caller resolves it from; the
#: counter, when set, maps ``(result, args)`` to the span's ``n``
TARGETS = (
    ("repro.cfa.fleet.shard", "ShardedFleetService.submit",
     "shard.submit", None),
    ("repro.cfa.fleet.service", "FleetService.submit",
     "service.submit", None),
    ("repro.cfa.fleet.session", "SessionManager.ingest",
     "session.ingest", None),
    ("repro.cfa.fleet.session", "decode_report",
     "wire.decode_report", None),
    ("repro.cfa.streaming", "decode_report", "wire.decode_report", None),
    ("repro.cfa.report", "Report.verify", "report.verify", None),
    ("repro.cfa.fleet.service", "verify_session_chain",
     "verify.session_chain", None),
    ("repro.cfa.fleet.verify", "build_verifier",
     "verify.build_verifier", None),
    ("repro.cfa.fleet.verify", "ReplayCache.key", "verify.cache_key", None),
    ("repro.cfa.fleet.verify", "path_digest", "verify.path_digest", None),
    ("repro.cfa.fleet.verify", "expand", "speccfa.expand", _expansion),
    ("repro.cfa.fleet.session", "expand", "speccfa.expand.admission",
     _expansion),
    ("repro.cfa.fleet.service", "expand", "speccfa.expand.sampler",
     _expansion),
    ("repro.cfa.verifier", "Verifier.replay", "verifier.replay", _steps),
    ("repro.cfa.fleet.service", "screen_records",
     "certificate.screen_records", _reject),
    ("repro.cfa.fleet.store", "EvidenceStore.append", "store.append", None),
    ("repro.cfa.fleet.store", "EvidenceStore.append_decision",
     "store.append_decision", None),
    ("repro.cfa.policy.engine", "PolicyEngine.observe",
     "policy.observe", _length),  # n = decisions taken
    ("repro.cfa.engine", "RapTrackEngine.attest", "engine.attest", _cycles),
    ("repro.eval.runner", "prepare", "runner.prepare", None),
    ("repro.cfa.fleet.verify", "prepare", "runner.prepare", None),
    ("repro.cfa.fleet.simulator", "prepare", "runner.prepare", None),
    # the benchmark's own set-up certifies through the name it imported
    ("fleets", "certify_workload", "certificate.certify_workload", None),
)


class Tracer:
    """Collects spans from wrapped entry points (single-threaded)."""

    def __init__(self):
        self.spans: List[tuple] = []
        #: id of the session the load generator is driving right now
        self.session = ""
        self._stack: List[int] = []
        self._undo: List[Callable[[], None]] = []
        #: evidence stores whose ``_fsync`` is traced on install
        self.stores: list = []

    def wrap(self, fn: Callable, name: str,
             counter: Optional[Callable] = None) -> Callable:
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)  # reserve the slot: children follow it
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.session, 0)
            if counter is not None:
                spans[index] = spans[index][:5] + (counter(result, args),)
            return result

        return traced

    def _patch(self, owner, attr: str, name: str, counter) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        if isinstance(raw, staticmethod):
            new = staticmethod(self.wrap(raw.__func__, name, counter))
        else:
            new = self.wrap(raw, name, counter)
        setattr(owner, attr, new)
        self._undo.append(lambda: setattr(owner, attr, raw))

    def install(self) -> None:
        import importlib

        for module_name, path, name, counter in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            self._patch(owner, attr, name, counter)
        for store in self.stores:  # fsync is looked up per instance
            self._patch(store, "_fsync", "store.fsync", None)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def mark(self) -> int:
        """Span index where a phase starts."""
        return len(self.spans)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent",
                                  "session", "n"],
                       "spans": self.spans}, fh)


class LayerStats:
    """Per-name aggregates over the spans ``spans[lo:hi]``.

    A layer's self time is its span's duration minus the part of it
    that child spans cover. Spans are recorded on one stack, so a
    parent's direct children never overlap each other and their
    coverage is the sum of their durations.
    """

    def __init__(self, spans: List[tuple], lo: int = 0,
                 hi: Optional[int] = None):
        hi = len(spans) if hi is None else hi
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: per-name sum of the spans' ``n`` (elementwise for tuples)
        self.count: Dict[str, object] = {}
        self.durations: Dict[str, List[float]] = defaultdict(list)
        covered: Dict[int, float] = defaultdict(float)
        for index in range(lo, hi):
            name, start, end, parent, _session, n = spans[index]
            self.total[name] += end - start
            self.calls[name] += 1
            prior = self.count.get(name)
            if prior is None:
                self.count[name] = n
            elif isinstance(n, tuple):
                self.count[name] = tuple(a + b for a, b in zip(prior, n))
            else:
                self.count[name] = prior + n
            self.durations[name].append(end - start)
            if parent >= lo:
                covered[parent] += end - start
        for index in range(lo, hi):
            name, start, end = spans[index][:3]
            self.self_time[name] += end - start - covered.get(index, 0.0)
