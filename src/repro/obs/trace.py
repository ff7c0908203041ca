"""Per-query trace spans: why one answer took the time it took.

A :class:`Tracer` records, for every submitted query, a tree of
:class:`Span` objects timestamped on *both* clocks -- the virtual clock
the simulation runs on (:mod:`repro.common.clock`) and wall time
(:func:`repro.common.clock.wall_timer`), so a trace shows where the
simulated latency
went *and* where the process actually spent CPU.

The span tree for a served query reads like the pipeline::

    query                       (root: arrival -> terminal)
      cache_lookup              hit / miss
      admission                 accept / reject / defer
      batch_window              arrival -> batch dispatch
      optimize                  dispatch -> graft done
        factorization
      execution                 one span per engine drive slice
      first_emission            the TTFA instant
      harvest                   answers delivered
      terminal                  done / cancelled / expired / rejected

Guarantees (property-tested in ``tests/test_obs_properties.py``):
spans are well nested (every child's interval lies inside its
parent's), every finished query carries exactly one ``terminal`` child,
and virtual time is monotone along every root-to-leaf path, with
sibling ``execution`` slices ordered and non-overlapping.

Tracing is opt-in and cheap when off: record sites call the tracer
unconditionally, and the default :data:`NO_TRACER` is a
:class:`NullTracer` whose methods are no-ops.  ``enabled`` is read only
where it skips work beyond a record call (a drive's wall reads, a
worker's trace flag, a pipe round-trip for worker spans).
Tracing never perturbs execution -- it only reads clocks that already
advanced, so answers (and their digests) are byte-identical with
tracing on or off.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import TextIO

from repro.common.clock import wall_timer

#: Span name of every trace's root.
ROOT = "query"
#: Span name of the single terminal-disposition marker.
TERMINAL = "terminal"


@dataclass
class Span:
    """One named interval (or instant, when ``v_end == v_start``)."""

    name: str
    v_start: float
    v_end: float | None = None
    w_start: float = 0.0
    w_end: float | None = None
    attrs: dict = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)

    @property
    def v_duration(self) -> float | None:
        if self.v_end is None:
            return None
        return max(self.v_end - self.v_start, 0.0)

    @property
    def w_duration(self) -> float | None:
        if self.w_end is None:
            return None
        return max(self.w_end - self.w_start, 0.0)


class QueryTrace:
    """The span tree of one query, rooted at its ``query`` span."""

    def __init__(self, qid: str, root: Span) -> None:
        self.qid = qid
        self.root = root
        self.finished = False

    def spans(self) -> list[Span]:
        """Every span, preorder (root first)."""
        out: list[Span] = []
        stack = [self.root]
        while stack:
            span = stack.pop()
            out.append(span)
            stack.extend(reversed(span.children))
        return out

    def find(self, name: str) -> Span | None:
        for span in self.spans():
            if span.name == name:
                return span
        return None

    def find_all(self, name: str) -> list[Span]:
        return [span for span in self.spans() if span.name == name]

    @property
    def disposition(self) -> str | None:
        return self.root.attrs.get("disposition")

    def merged_with(self, other: "QueryTrace") -> "QueryTrace":
        """A new trace of this query: ``other``'s root children grafted
        after this root's, ``other``'s root attrs filling the keys this
        root lacks, its end filling an open end, finished when either
        is.  Neither input is changed.

        This is how a process worker's spans (recorded in the worker's
        own tracer) join the front door's trace of the same query."""
        root = replace(self.root,
                       attrs={**other.root.attrs, **self.root.attrs},
                       children=self.root.children + other.root.children)
        if root.v_end is None:
            root.v_end, root.w_end = other.root.v_end, other.root.w_end
        merged = QueryTrace(self.qid, root)
        merged.finished = self.finished or other.finished
        return merged

    def jsonl_lines(self) -> list[str]:
        """One JSON object per span (see ``scripts/check_trace.py`` for
        the schema): parents precede children, span ids are unique per
        query, the root has ``parent: null`` and name ``query``."""
        lines: list[str] = []

        def walk(span: Span, parent_id: int | None) -> None:
            span_id = len(lines)
            lines.append(json.dumps({
                "query": self.qid,
                "span": span_id,
                "parent": parent_id,
                "name": span.name,
                "virtual_start": span.v_start,
                "virtual_end": span.v_end,
                "wall_start": span.w_start,
                "wall_end": span.w_end,
                "attrs": span.attrs,
            }, sort_keys=True, default=str))
            for kid in span.children:
                walk(kid, span_id)

        walk(self.root, None)
        return lines

    def render(self) -> str:
        """The ``repro explain`` tree: one line per span with virtual
        interval, virtual duration, wall duration, and attributes."""
        lines: list[str] = []

        def fmt(span: Span, depth: int) -> None:
            v1 = span.v_end if span.v_end is not None else span.v_start
            dv = span.v_duration
            dw = span.w_duration
            timing = f"v[{span.v_start:9.3f} ->{v1:9.3f}]"
            timing += f"  {dv:8.3f}s virtual" if dv is not None \
                else "  " + " " * 16
            timing += f"  {dw * 1e3:8.3f}ms wall" if dw is not None else ""
            attrs = " ".join(
                f"{k}={span.attrs[k]}" for k in sorted(span.attrs))
            pad = "  " * depth
            lines.append(f"{pad}{span.name:<{max(26 - 2 * depth, 1)}} "
                         f"{timing}" + (f"  {attrs}" if attrs else ""))
            for child in span.children:
                fmt(child, depth + 1)

        fmt(self.root, 0)
        return "\n".join(lines)


class Tracer:
    """Records one :class:`QueryTrace` per query, keyed by the client's
    ``kq_id``, with an alias table from engine ``uq_id`` to the query
    currently *owning* that execution (re-pointed on coalesced-leader
    promotion)."""

    enabled = True

    def __init__(self, wall=wall_timer) -> None:
        self.wall = wall
        self._traces: dict[str, QueryTrace] = {}
        self._archive: list[QueryTrace] = []
        self._aliases: dict[str, str] = {}   # uq_id -> owning qid

    # -- lifecycle ----------------------------------------------------------

    def start_query(self, qid: str, at: float, **attrs) -> QueryTrace:
        """Open (or join) the trace for ``qid`` at virtual instant
        ``at``.  An unfinished trace under the same id is *joined*, not
        replaced -- the sharded front door starts the trace and the
        owning worker adds to it; a finished one (a genuine re-submit
        of the same id) is archived and a fresh trace opened."""
        existing = self._traces.get(qid)
        if existing is not None:
            if not existing.finished:
                existing.root.attrs.update(attrs)
                return existing
            self._archive.append(existing)
        root = Span(ROOT, v_start=at, w_start=self.wall(), attrs=dict(attrs))
        trace = QueryTrace(qid, root)
        self._traces[qid] = trace
        return trace

    def finish_query(self, qid: str, at: float, disposition: str,
                     **attrs) -> None:
        """Close ``qid``'s root span: record the terminal instant as a
        ``terminal`` child, stamp the disposition, and clamp the root's
        end so every recorded child stays nested inside it (a cancel
        can be stamped behind a plan-graph clock that already ran
        ahead)."""
        trace = self._traces.get(qid)
        if trace is None:
            return
        # A query cannot end before it arrived: a coalesced follower is
        # released at its *leader's* completion instant, which can
        # precede the follower's own arrival on the virtual clock.
        at = max(at, trace.root.v_start)
        now = self.wall()
        trace.root.children.append(Span(
            TERMINAL, v_start=at, v_end=at, w_start=now, w_end=now,
            attrs={"disposition": disposition, **attrs}))
        end = at
        for child in trace.root.children:
            end = max(end, child.v_start,
                      child.v_end if child.v_end is not None else end)
        trace.root.v_end = max(end, trace.root.v_start)
        trace.root.w_end = now
        trace.root.attrs["disposition"] = disposition
        trace.finished = True

    # -- recording ----------------------------------------------------------

    def event(self, qid: str, name: str, at: float, **attrs) -> Span | None:
        """An instant child of ``qid``'s root (clamped into the root's
        open interval)."""
        return self.span(qid, name, at, at, **attrs)

    def span(self, qid: str, name: str, v_start: float, v_end: float,
             wall: tuple[float, float] | None = None, **attrs) -> Span | None:
        """A closed child of ``qid``'s root."""
        trace = self._traces.get(qid)
        if trace is None:
            return None
        v_start = max(v_start, trace.root.v_start)
        v_end = max(v_end, v_start)
        w0, w1 = wall if wall is not None else (self.wall(),) * 2
        span = Span(name, v_start=v_start, v_end=v_end,
                    w_start=w0, w_end=w1, attrs=dict(attrs))
        trace.root.children.append(span)
        return span

    def child(self, parent: Span | None, name: str, v_start: float,
              v_end: float | None = None, **attrs) -> Span | None:
        """A closed child of an existing span, clamped inside it."""
        if parent is None:
            return None
        v_start = max(v_start, parent.v_start)
        if parent.v_end is not None:
            v_start = min(v_start, parent.v_end)
        v_end = v_start if v_end is None else max(v_end, v_start)
        if parent.v_end is not None:
            v_end = min(v_end, parent.v_end)
        now = self.wall()
        span = Span(name, v_start=v_start, v_end=v_end,
                    w_start=now, w_end=now, attrs=dict(attrs))
        parent.children.append(span)
        return span

    # -- engine-side attribution -------------------------------------------

    def alias(self, uq_id: str, qid: str) -> None:
        """Point engine execution ``uq_id`` at the query that owns it
        (re-pointed when a coalesced follower is promoted to leader)."""
        self._aliases[uq_id] = qid

    def span_uq(self, uq_id: str, name: str, v_start: float, v_end: float,
                wall: tuple[float, float] | None = None,
                **attrs) -> Span | None:
        qid = self._aliases.get(uq_id)
        if qid is None:
            return None
        return self.span(qid, name, v_start, v_end, wall=wall, **attrs)

    def adopt(self, trace: QueryTrace) -> None:
        """Merge one externally recorded trace into this tracer.

        The process-worker transport records each routed query's worker
        spans in the worker's *own* tracer; at fleet close they are
        shipped back and adopted here.  When this tracer already holds
        a trace for the same query -- the front door opened it at
        submit -- the merge (:meth:`QueryTrace.merged_with`) replaces
        it; an unknown query is archived whole.
        """
        mine = self._traces.get(trace.qid)
        if mine is None:
            self._archive.append(trace)
        else:
            self._traces[trace.qid] = mine.merged_with(trace)

    # -- reading ------------------------------------------------------------

    def trace(self, qid: str) -> QueryTrace | None:
        return self._traces.get(qid)

    def traces(self) -> list[QueryTrace]:
        """Every trace recorded, archived re-submissions included."""
        return self._archive + list(self._traces.values())

    # -- export -------------------------------------------------------------

    def jsonl_lines(self) -> list[str]:
        """Every trace's :meth:`QueryTrace.jsonl_lines`, in order."""
        return [line for trace in self.traces()
                for line in trace.jsonl_lines()]

    def dump_jsonl(self, fh: TextIO) -> int:
        """Write every span as JSONL; returns the line count."""
        lines = self.jsonl_lines()
        for line in lines:
            fh.write(line + "\n")
        return len(lines)


class NullTracer:
    """The off switch, and the default: every method of
    :class:`Tracer` is here as a no-op, so record sites call it
    unconditionally.  ``enabled`` is ``False`` for the few sites that
    skip work beyond the record call itself."""

    enabled = False

    def wall(self) -> float:
        return 0.0

    def start_query(self, qid, at, **attrs):
        return None

    def finish_query(self, qid, at, disposition, **attrs):
        return None

    def event(self, qid, name, at, **attrs):
        return None

    def span(self, qid, name, v_start, v_end, wall=None, **attrs):
        return None

    def child(self, parent, name, v_start, v_end=None, **attrs):
        return None

    def alias(self, uq_id, qid):
        return None

    def adopt(self, trace):
        return None

    def span_uq(self, uq_id, name, v_start, v_end, wall=None, **attrs):
        return None

    def trace(self, qid):
        return None

    def traces(self):
        return []

    def jsonl_lines(self):
        return []

    def dump_jsonl(self, fh):
        return 0


#: Shared no-op tracer; the default everywhere a tracer is accepted.
NO_TRACER = NullTracer()
