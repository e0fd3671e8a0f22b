"""Trace export: Chrome/Perfetto ``trace_event`` JSON and text flamegraphs.

The JSON format is the Trace Event Format consumed by ``ui.perfetto.dev``
and ``chrome://tracing``: a ``traceEvents`` list of phase-tagged dicts.
We emit:

* ``"X"`` (complete) events for spans — ``ts``/``dur`` in microseconds;
* ``"i"`` (instant) events, thread-scoped;
* ``"C"`` (counter) events, one track per counter name;
* ``"M"`` (metadata) events naming the process and thread.

Everything is plain stdlib ``json`` — no dependencies, loadable anywhere.

The text exporter renders the span stream as an indented call tree with
inclusive/self times and hit counts — a flamegraph collapsed onto a
terminal, for environments without a browser.
"""

from __future__ import annotations

import json
from typing import IO, Any, Dict, List, Tuple, Union

from .recorder import Tracer
from .spans import SpanRecord

#: Synthetic pid/tid for the single-process, single-threaded simulator.
_PID = 1
_TID = 1


def chrome_trace_events(tracer: Tracer) -> List[Dict[str, Any]]:
    """The tracer's retained records as ``trace_event`` dicts."""
    events: List[Dict[str, Any]] = [
        {"ph": "M", "pid": _PID, "name": "process_name",
         "args": {"name": "repro simulator"}},
        {"ph": "M", "pid": _PID, "tid": _TID, "name": "thread_name",
         "args": {"name": "sim"}},
    ]
    for span in tracer.spans():
        event: Dict[str, Any] = {
            "ph": "X",
            "pid": _PID,
            "tid": _TID,
            "cat": span.category,
            "name": span.name,
            "ts": span.start * 1e6,
            "dur": span.duration * 1e6,
        }
        if span.args:
            event["args"] = dict(span.args)
        events.append(event)
    for instant in tracer.instants():
        event = {
            "ph": "i",
            "s": "t",
            "pid": _PID,
            "tid": _TID,
            "cat": instant.category,
            "name": instant.name,
            "ts": instant.time * 1e6,
        }
        if instant.args:
            event["args"] = dict(instant.args)
        events.append(event)
    for sample in tracer.counters():
        events.append({
            "ph": "C",
            "pid": _PID,
            "cat": sample.category,
            "name": sample.track,
            "ts": sample.time * 1e6,
            "args": {"value": sample.value},
        })
    return events


def chrome_trace_dict(tracer: Tracer) -> Dict[str, Any]:
    """The full JSON-object form (``{"traceEvents": [...], ...}``)."""
    return {
        "traceEvents": chrome_trace_events(tracer),
        "displayTimeUnit": "ms",
        "otherData": {
            "recorded": tracer.records_recorded,
            "dropped": tracer.dropped_records,
        },
    }


def write_chrome_trace(tracer: Tracer,
                       destination: Union[str, IO[str]]) -> int:
    """Write the Perfetto-loadable JSON to a path or open text file.

    Returns the number of trace events written (metadata included).
    """
    payload = chrome_trace_dict(tracer)
    if hasattr(destination, "write"):
        json.dump(payload, destination)
    else:
        with open(destination, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
    return len(payload["traceEvents"])


# -- text flamegraph ---------------------------------------------------------


class _Node:
    __slots__ = ("total", "self_time", "count", "children")

    def __init__(self) -> None:
        self.total = 0.0
        self.self_time = 0.0
        self.count = 0
        self.children: Dict[Tuple[str, str], "_Node"] = {}


def _build_tree(spans: List[SpanRecord]) -> _Node:
    """Fold the span stream into an aggregated call tree.

    Spans are recorded at completion, so stream order is post-order;
    re-nesting uses interval containment over start/end times instead
    (sort by start, pop ancestors that ended before the next span starts).
    """
    root = _Node()
    stack: List[Tuple[SpanRecord, _Node]] = []
    # A small epsilon absorbs float jitter between a child's end and its
    # parent's end (both derive from the same clock reads).
    eps = 1e-12
    for span in sorted(spans, key=lambda s: (s.start, -s.duration)):
        while stack and span.start >= stack[-1][0].end - eps:
            stack.pop()
        parent = stack[-1][1] if stack else root
        key = (span.category, span.name)
        node = parent.children.get(key)
        if node is None:
            node = parent.children[key] = _Node()
        node.total += span.duration
        node.self_time += span.self_time
        node.count += 1
        stack.append((span, node))
    return root


def flame_summary(tracer: Tracer, max_depth: int = 6,
                  min_fraction: float = 0.001) -> str:
    """Indented call-tree summary of where wall-clock time went.

    Args:
        tracer: Source of spans.
        max_depth: Deepest tree level rendered.
        min_fraction: Branches below this share of total traced time are
            folded away (keeps event-per-dispatch noise out).
    """
    spans = tracer.spans()
    if not spans:
        return "(no spans recorded)"
    root = _build_tree(spans)
    grand_total = sum(node.total for node in root.children.values())
    if grand_total <= 0:
        return "(no measurable span time)"
    lines = [f"traced wall time: {grand_total * 1e3:.3f} ms "
             f"across {len(spans)} spans"]

    def emit(node: _Node, label: Tuple[str, str], depth: int) -> None:
        share = node.total / grand_total
        if share < min_fraction or depth > max_depth:
            return
        category, name = label
        lines.append(
            f"{'  ' * depth}{share * 100:5.1f}%  {category}:{name}  "
            f"(n={node.count}, total={node.total * 1e3:.3f}ms, "
            f"self={node.self_time * 1e3:.3f}ms)"
        )
        ordered = sorted(node.children.items(),
                         key=lambda item: item[1].total, reverse=True)
        for child_label, child in ordered:
            emit(child, child_label, depth + 1)

    top = sorted(root.children.items(), key=lambda item: item[1].total,
                 reverse=True)
    for label, node in top:
        emit(node, label, 0)
    return "\n".join(lines)
