"""Seams and spans the benchmark installs around quadfw's public functions.

Nothing here edits the package: every probe replaces a name where its
callers look it up (``fw.mip_lmo``, ``lns.mip_lmo``, ``lmo.solve_lp``, a
method on its class, ...) and ``Probe.close`` puts the originals back.

Two seams are always installed, also when tracing is off, because the
end-to-end metrics are taken on the benchmark's own clock through them:

* ``bnb.solve`` -- entry of a top-level worker search (called with a
  shared incumbent store, which ``portfolio.run_portfolio`` passes to its
  workers and LNS sub-solves never get) ends the set-up phase;
* ``bnb.SolutionPool.submit`` -- a ``True`` return on a top-level pool is
  an incumbent arrival, stamped with the benchmark clock and the pool's
  new ``incumbent_value``.

A change that renames these functions, stops passing ``store`` to the
top-level workers or changes what ``submit`` returns must update this file
first, or setup_s, ttf_s and pi_norm stop being measured.

With tracing on, every wrapped call also opens a span (name, start, end,
parent span, a small result summary), kept in memory per thread.  The
three ``SmoothObjective`` oracles run hundreds of thousands of times per
solve, so they are aggregated per enclosing span name (count and seconds)
instead of being stored one by one; their time still counts as child time
of the enclosing span.
"""

from __future__ import annotations

import functools
import gzip
import json
import threading
import time
from collections import defaultdict

import numpy as np

from quadfw import bnb, fw, ingest, lmo, lns, penalty, portfolio

clock = time.perf_counter

LNS_SHORT = {"probability_rounding": "prob_rounding", "follow_the_gradient": "ftg",
             "asens": "asens", "rins": "rins", "undercover": "undercover"}


# (owner, attribute, span name): each name is patched where callers look it up
_SPANNED = [
    (ingest, "parse_canonical", "ingest.parse_canonical"),
    (portfolio, "run_presolve", "presolve.run_presolve"),
    (portfolio, "convexify_binary", "presolve.convexify_binary"),
    (penalty.SmoothObjective, "__init__", "penalty.build"),
    (fw, "mip_lmo", "lmo.mip_lmo"),
    (lns, "mip_lmo", "lmo.mip_lmo"),
    (lmo, "solve_lp", "lmo.solve_lp"),
    (fw, "lazy_lookup", "lmo.lazy_lookup"),
    (bnb, "bpcg", "fw.bpcg"),
    (lns, "bpcg", "fw.bpcg"),
    (fw, "secant_step", "fw.secant_step"),
] + [(lns, attr, f"lns.{attr}") for attr in LNS_SHORT]


def _restore(patches: list) -> None:
    while patches:
        owner, attr, original = patches.pop()
        setattr(owner, attr, original)


def _summary(name: str, args, kwargs, out):
    """Small picklable result summary stored on a span."""
    if name == "lmo.mip_lmo":
        return (out.status, bool(out.trusted))
    if name == "lmo.solve_lp":
        return out.status
    if name == "lmo.lazy_lookup":
        return out is not None
    if name == "fw.bpcg":
        return (out.iterations, out.lmo_calls)
    if name == "bnb.solve":
        top = kwargs.get("store") is not None
        return (top, out.node_count, out.restart_count, out.termination)
    if name == "bnb.SolutionPool.submit":
        return (args[0].store is not None, bool(out))
    return None


class _ThreadBuffer:
    __slots__ = ("thread", "spans", "stack", "leaves", "pending", "open_lns")

    def __init__(self, thread: str):
        self.thread = thread
        # span: [name, start, end, parent, summary, child_seconds]
        self.spans: list[list] = []
        self.stack: list[int] = []
        # (leaf name, enclosing span name) -> [calls, seconds]
        self.leaves: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0])
        self.pending = None  # (candidate returned by an LNS heuristic, its name)
        self.open_lns: str | None = None


class Probe:
    """Installs the seams (always) and the spans (when ``tracing``)."""

    def __init__(self) -> None:
        self.tracing = False
        self._seams: list[tuple[object, str, object]] = []
        self._spans: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self.buffers: list[_ThreadBuffer] = []
        self.lns_wins: dict[str, int] = defaultdict(int)
        self.reset_solve()
        self._install_seams()

    # -- per-solve seam state ------------------------------------------------

    def reset_solve(self) -> None:
        self.search_start: float | None = None
        self.arrivals: list[tuple[float, float]] = []  # (clock, value)
        self.top_nodes = 0

    # -- installation --------------------------------------------------------

    def _patch(self, patches: list, owner, attr: str, wrapper) -> None:
        patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _install_seams(self) -> None:
        self._patch(self._seams, bnb, "solve", self._solve_seam(bnb.solve))
        self._patch(self._seams, bnb.SolutionPool, "submit",
                    self._submit_seam(bnb.SolutionPool.submit))

    def start_tracing(self) -> None:
        """Install the spans; the seams carry a span of their own."""
        if self.tracing:
            return
        for owner, attr, name in _SPANNED:
            self._patch(self._spans, owner, attr, self._span(name, getattr(owner, attr)))
        for attr in ("value", "gradient", "value_and_gradient"):
            owner = penalty.SmoothObjective
            self._patch(self._spans, owner, attr, self._leaf(f"penalty.{attr}", getattr(owner, attr)))
        self.tracing = True

    def stop_tracing(self) -> None:
        self.tracing = False
        _restore(self._spans)

    def close(self) -> None:
        """Restore every original; the probe is inert afterwards."""
        self.stop_tracing()
        _restore(self._seams)

    # -- thread buffers -------------------------------------------------------

    def _buffer(self) -> _ThreadBuffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _ThreadBuffer(threading.current_thread().name)
            self._local.buf = buf
            with self._lock:
                self.buffers.append(buf)
        return buf

    # -- wrappers -------------------------------------------------------------

    def _span(self, name: str, fn):
        probe = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not probe.tracing:
                return fn(*args, **kwargs)
            buf = probe._buffer()
            spans, stack = buf.spans, buf.stack
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, None, 0.0]
            stack.append(len(spans))
            spans.append(span)
            is_lns = name.startswith("lns.")
            if is_lns:
                buf.open_lns = name[4:]
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = ("raised", type(exc).__name__)
                raise
            else:
                span[4] = _summary(name, args, kwargs, out)
            finally:
                end = span[2] = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][5] += end - span[1]
                if is_lns:
                    buf.open_lns = None
            if is_lns and isinstance(out, np.ndarray):
                buf.pending = (out, name[4:])
            return out

        return wrapper

    def _leaf(self, name: str, fn):
        probe = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            buf = probe._buffer()
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                enclosing = buf.spans[buf.stack[-1]] if buf.stack else None
                acc = buf.leaves[(name, enclosing[0] if enclosing else "")]
                acc[0] += 1
                acc[1] += elapsed
                if enclosing is not None:
                    enclosing[5] += elapsed

        return wrapper

    def _solve_seam(self, fn):
        traced = self._span("bnb.solve", fn)
        probe = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            top = kwargs.get("store") is not None
            if top:
                now = clock()
                with probe._lock:
                    if probe.search_start is None:
                        probe.search_start = now
            out = traced(*args, **kwargs)
            if top:
                with probe._lock:
                    probe.top_nodes += out.node_count
            return out

        return wrapper

    def _submit_seam(self, fn):
        traced = self._span("bnb.SolutionPool.submit", fn)
        probe = self

        @functools.wraps(fn)
        def wrapper(pool, x):
            accepted = traced(pool, x)
            top = pool.store is not None
            if accepted and top:
                now = clock()
                with probe._lock:
                    probe.arrivals.append((now, pool.incumbent_value))
            if probe.tracing:
                buf = probe._buffer()
                source = buf.open_lns
                if buf.pending is not None and buf.pending[0] is x:
                    source = source or buf.pending[1]
                    buf.pending = None
                if accepted and top and source is not None:
                    probe.lns_wins[LNS_SHORT[source]] += 1
            return accepted

        return wrapper

    # -- output ---------------------------------------------------------------

    def write_spans(self, path) -> int:
        """Write every span as one JSON line (gzip); returns the count."""
        count = 0
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for buf in self.buffers:
                for i, (name, start, end, parent, summary, child) in enumerate(buf.spans):
                    out.write(json.dumps({
                        "thread": buf.thread, "id": i, "parent": parent, "name": name,
                        "start": start, "end": end, "child_s": child,
                        "summary": summary,
                    }) + "\n")
                    count += 1
                for (leaf, enclosing), (calls, seconds) in sorted(buf.leaves.items()):
                    out.write(json.dumps({
                        "thread": buf.thread, "leaf": leaf, "enclosing": enclosing,
                        "calls": calls, "seconds": seconds,
                    }) + "\n")
        return count
