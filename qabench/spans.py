"""The in-process traced run: spans around each layer's public functions.

The wrappers are installed from here, at run time, around the public
entry points of each layer; the program's own code is not changed.  Each
span records its name, start, end, parent and request id.  Spans stay in
memory and are written out when the run ends.  The hot adjacency-kernel
calls get count-only wrappers.

The parent of a span is the innermost open span.  One stack serves every
thread: the traced run is serial (one request in flight), so the engine's
pool thread only ever extends the stack of the request that is waiting on
it.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from pathlib import Path

#: (owner module, attribute path, span name).  Owners are imported lazily
#: so this module can be imported without the program on the path.
SPANNED = (
    ("repro.nlp.dep_parser", "DependencyParser.parse", "nlp.parse"),
    ("repro.core.relation_extraction", "RelationExtractor.find_embeddings",
     "core.relation_extraction"),
    ("repro.core.argument_finding", "ArgumentFinder.find_arguments",
     "core.argument_finding"),
    ("repro.core.pipeline", "build_semantic_query_graph", "core.qs_build"),
    ("repro.core.phrase_mapping", "PhraseMapper.build_candidate_space",
     "core.candidate_mapping"),
    ("repro.linking.linker", "EntityLinker.link", "linking.link"),
    ("repro.linking.index", "LabelIndex.by_words", "linking.by_words"),
    ("repro.core.top_k", "TopKSearch.search", "core.top_k"),
    ("repro.core.pipeline", "match_to_sparql", "core.sparql"),
    ("repro.core.pipeline", "GAnswer.answer", "core.answer"),
    ("repro.serve.engine", "QAEngine.ask", "serve.engine.ask"),
    ("repro.serve.engine", "QAEngine.ingest", "serve.engine.ingest"),
    ("repro.serve.engine", "QAEngine.warm", "serve.engine.warm"),
    ("repro.rdf.snapshot", "load_snapshot", "rdf.snapshot.load"),
    ("repro.rdf.graph", "KnowledgeGraph.refresh", "rdf.graph.refresh"),
)

#: Hot kernel calls: counted, not timed.
COUNTED = (
    ("repro.rdf.kernel", "AdjacencyKernel.adjacency", "rdf.kernel.adjacency"),
    ("repro.rdf.kernel", "AdjacencyKernel.entity_adjacency", "rdf.kernel.adjacency"),
    ("repro.rdf.kernel", "AdjacencyKernel.incident_steps", "rdf.kernel.incident_steps"),
)


class Recorder:
    """In-memory span and counter store, plus the patching that feeds it."""

    def __init__(self) -> None:
        #: [name, start, end, parent index or -1, request id]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.request_id = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- patching --------------------------------------------------------- #

    def install(self) -> None:
        import importlib

        for module_name, path, name in SPANNED + COUNTED:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            counted = (module_name, path, name) in COUNTED
            wrapper = self._counter(original, name) if counted else self._span(original, name)
            self._undo.append((owner, attr, original))
            setattr(owner, attr, wrapper)
        # walk_path is a per-instance LRU wrapper built in __init__.
        kernel_cls = importlib.import_module("repro.rdf.kernel").AdjacencyKernel
        init = kernel_cls.__init__
        recorder = self

        @functools.wraps(init)
        def init_and_count(kernel, *args, **kwargs):
            init(kernel, *args, **kwargs)
            kernel.walk_path = recorder._counter(kernel.walk_path, "rdf.kernel.walk_path")

        self._undo.append((kernel_cls, "__init__", init))
        kernel_cls.__init__ = init_and_count

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _span(self, fn, name: str):
        recorder = self

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            index = len(recorder.spans)
            parent = recorder._stack[-1] if recorder._stack else -1
            record = [name, time.perf_counter(), 0.0, parent, recorder.request_id]
            recorder.spans.append(record)
            recorder._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                recorder._stack.pop()
            recorder._observe(name, result)
            return result

        return spanned

    def _counter(self, fn, name: str):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _observe(self, name: str, result) -> None:
        """Per-call outcome counters read off a layer's return value."""
        counts = self.counts
        if name == "linking.by_words":
            counts["linking.entries_scored"] += len(result)
        elif name == "linking.link":
            counts["linking.candidates"] += len(result)
            counts["linking.misses"] += not result
        elif name == "core.top_k":
            counts["core.matches"] += len(result.matches)
            counts[f"core.terminated_by.{result.terminated_by}"] += 1

    # -- reading ---------------------------------------------------------- #

    def self_times(self) -> dict[str, list[float]]:
        """name → [calls, inclusive s, self s]; self = duration minus the
        part of the interval its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _rid in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table: dict[str, list[float]] = {}
        for index, (name, start, end, _parent, _rid) in enumerate(self.spans):
            row = table.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_time[index]
        return table

    def write(self, path: Path) -> None:
        """One JSON object per span (times in ms from the first span)."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as out:
            for index, (name, start, end, parent, rid) in enumerate(self.spans):
                out.write(json.dumps({
                    "id": index, "name": name, "parent": parent, "request": rid,
                    "start_ms": round((start - origin) * 1000.0, 4),
                    "end_ms": round((end - origin) * 1000.0, 4),
                }) + "\n")


def layer_table(table: dict[str, list[float]], questions: int) -> str:
    """The per-layer self-time table, widest self time first."""
    lines = [f"{'span':28s} {'calls':>8s} {'incl ms/q':>10s} {'self ms/q':>10s} {'self %':>7s}"]
    total_self = sum(row[2] for row in table.values()) or 1.0
    for name, (calls, incl, self_s) in sorted(table.items(), key=lambda kv: -kv[1][2]):
        lines.append(
            f"{name:28s} {calls:8d} {incl * 1000.0 / questions:10.4f} "
            f"{self_s * 1000.0 / questions:10.4f} {100.0 * self_s / total_self:6.1f}%"
        )
    return "\n".join(lines)
