"""Span tracing of tempcoh's public functions, installed from outside the package.

`Tracer.install` replaces each traced function in every tempcoh module
that holds it (so `tempcoh.interpret.candidate_relations` is wrapped
where `interpret.py` looks it up, not only where `coherence.py` defines
it), and the traced `TemporalNetwork` methods on the class itself.
`uninstall` puts the originals back. No file of the package changes.

A span is (name, start, end, parent span, discourse id), kept in typed
arrays while the run lasts and written out at the end. A span's self
time is its duration minus the durations of its direct child spans;
anything untraced that runs inside a span (the depth-first search, the
trace strings, `event_order` apart from its `query` calls) counts as
that span's self time.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter
from types import ModuleType

# Span name -> (module that defines it, attribute). A name missing from the
# package stops the traced run, so an API change must update this table.
FUNCTIONS = {
    "parsing.parse_discourse": ("tempcoh.parsing", "parse_discourse"),
    "parsing.parse_lexicon": ("tempcoh.parsing", "parse_lexicon"),
    "parsing.parse_axioms": ("tempcoh.parsing", "parse_axioms"),
    "parsing.validate_axioms": ("tempcoh.parsing", "validate_axioms"),
    "tense.resolve_tense": ("tempcoh.tense", "resolve_tense"),
    "coherence.derive_cues": ("tempcoh.coherence", "derive_cues"),
    "coherence.candidate_relations": ("tempcoh.coherence", "candidate_relations"),
    "coherence.semantic_support": ("tempcoh.coherence", "semantic_support"),
    "coherence.relation_constraint": ("tempcoh.coherence", "relation_constraint"),
    "interpret.interpret": ("tempcoh.interpret", "interpret"),
    "interpret.enumerate_assignments": ("tempcoh.interpret", "enumerate_assignments"),
    "render.interpretation_to_dict": ("tempcoh.interpret", "interpretation_to_dict"),
    "render.render_json": ("tempcoh.interpret", "render_json"),
    "cli.main": ("tempcoh.cli", "main"),
}
NETWORK_METHODS = ("add_point", "assert_constraint", "close", "is_consistent", "query")

# Per-layer metric -> unit. `trace.*` describe the traced run itself.
UNITS = {
    "parsing.calls": "count",
    "parsing.clauses": "count",
    "parsing.self_s": "s",
    "tense.calls": "count",
    "tense.self_s": "s",
    "network.close.calls": "count",
    "network.close.self_s": "s",
    "network.close.noop_share": "share",
    "network.close.clash": "count",
    "network.assert.calls": "count",
    "network.assert.self_s": "s",
    "network.copy_pairs": "count",
    "network.query.calls": "count",
    "network.query.self_s": "s",
    "network.self_s": "s",
    "coherence.candidates.calls": "count",
    "coherence.support.calls": "count",
    "coherence.support.rejects": "count",
    "coherence.self_s": "s",
    "interpret.self_s": "s",
    "interpret.candidates_tried": "count",
    "interpret.useful_relations": "count",
    "interpret.useful_ratio": "share",
    "interpret.trace_lines": "count",
    "interpret.enumerate.self_s": "s",
    "interpret.assignments": "count",
    "render.self_s": "s",
    "render.bytes": "bytes",
    "cli.self_s": "s",
    "trace.spans": "count",
    "trace.traced_s": "s",
    "trace.untraced_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_share": "share",
}


class Tracer:
    def __init__(self) -> None:
        self.ids: dict[str, int] = {}  # span name -> id, the same across installs
        self.name_of = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.discourse_of = array("i")
        self.stack: list[int] = []
        self.discourse = -1  # set by the driver before each discourse
        self.counts: Counter[str] = Counter()
        self._restore: list[tuple[object, str, object]] = []

    # --- patching -----------------------------------------------------------

    def install(self, modules: dict[str, ModuleType]) -> None:
        """Wrap the traced functions of one import of tempcoh, given by module name."""
        for span, (module, attr) in FUNCTIONS.items():
            original = getattr(modules[module], attr)
            wrapped = self._wrap(span, original)
            for m in modules.values():
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, name, wrapped)
        network_class = modules["tempcoh.network"].TemporalNetwork
        for method in NETWORK_METHODS:
            original = network_class.__dict__[method]
            self._patch(network_class, method, self._wrap(f"network.{method}", original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _patch(self, owner: object, name: str, value: object) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _wrap(self, span: str, fn):
        name_id = self.ids.setdefault(span, len(self.ids))
        after = _AFTER.get(span)
        counts = self.counts
        stack, name_of, start, end = self.stack, self.name_of, self.start, self.end
        parent, discourse_of = self.parent, self.discourse_of

        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(name_id)
            parent.append(stack[-1] if stack else -1)
            discourse_of.append(self.discourse)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(counts, args, result)
            return result

        return traced

    # --- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Counts, self times and ratios per layer (the `trace.*` keys excepted)."""
        n = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        children = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                children[self.parent[i]] += duration[i]
        self_s: Counter[str] = Counter()
        calls: Counter[str] = Counter()
        names = list(self.ids)
        tried = 0
        interpret_id = self.ids.get("interpret.interpret", -1)
        constraint_id = self.ids.get("coherence.relation_constraint", -1)
        for i in range(n):
            name = names[self.name_of[i]]
            self_s[name] += duration[i] - children[i]
            calls[name] += 1
            if self.name_of[i] == constraint_id and self.parent[i] >= 0:
                tried += self.name_of[self.parent[i]] == interpret_id

        def layer(prefix: str) -> float:
            return sum(v for k, v in self_s.items() if k.startswith(prefix))

        c = self.counts
        useful = c["interpret.useful_relations"]
        return {
            "parsing.calls": calls["parsing.parse_discourse"],
            "parsing.clauses": c["parsing.clauses"],
            "parsing.self_s": layer("parsing."),
            "tense.calls": calls["tense.resolve_tense"],
            "tense.self_s": layer("tense."),
            "network.close.calls": calls["network.close"],
            "network.close.self_s": self_s["network.close"],
            "network.close.noop_share": c["network.close.noop"] / max(calls["network.close"], 1),
            "network.close.clash": c["network.close.clash"],
            "network.assert.calls": calls["network.assert_constraint"],
            "network.assert.self_s": self_s["network.assert_constraint"],
            "network.copy_pairs": c["network.copy_pairs"],
            "network.query.calls": calls["network.query"],
            "network.query.self_s": self_s["network.query"],
            "network.self_s": layer("network."),
            "coherence.candidates.calls": calls["coherence.candidate_relations"],
            "coherence.support.calls": calls["coherence.semantic_support"],
            "coherence.support.rejects": c["coherence.support.rejects"],
            "coherence.self_s": layer("coherence."),
            "interpret.self_s": self_s["interpret.interpret"],
            "interpret.candidates_tried": tried,
            "interpret.useful_relations": useful,
            "interpret.useful_ratio": useful / max(tried, 1),
            "interpret.trace_lines": c["interpret.trace_lines"],
            "interpret.enumerate.self_s": self_s["interpret.enumerate_assignments"],
            "interpret.assignments": c["interpret.assignments"],
            "render.self_s": layer("render."),
            "render.bytes": c["render.bytes"],
            "cli.self_s": self_s["cli.main"],
            "trace.spans": n,
        }

    def write(self, path: Path) -> None:
        """Spans as five native-endian arrays in `path`, described by `path`.json."""
        arrays = (
            ("name", self.name_of),
            ("start", self.start),
            ("end", self.end),
            ("parent", self.parent),
            ("discourse", self.discourse_of),
        )
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as f:
            for _, values in arrays:
                values.tofile(f)
        header = {
            "count": len(self.start),
            "names": list(self.ids),
            "arrays": [[field, values.typecode, values.itemsize] for field, values in arrays],
            "byteorder": sys.byteorder,
            "clock": "time.perf_counter, seconds",
        }
        path.with_name(path.name + ".json").write_text(json.dumps(header, indent=1) + "\n")


def _close(counts, args, result) -> None:
    counts["network.close.noop"] += args[0].closed
    counts["network.close.clash"] += result.inconsistent
    if result is not args[0]:
        counts["network.copy_pairs"] += len(result.constraints)


def _assert(counts, args, result) -> None:
    if result is not args[0]:
        counts["network.copy_pairs"] += len(result.constraints)


def _interpret(counts, args, result) -> None:
    counts["interpret.trace_lines"] += len(result.trace)
    counts["interpret.useful_relations"] += len(result.relations)


_AFTER = {
    "network.close": _close,
    "network.assert_constraint": _assert,
    "parsing.parse_discourse": lambda c, a, r: c.update({"parsing.clauses": len(r.clauses)}),
    "coherence.semantic_support": lambda c, a, r: c.update({"coherence.support.rejects": not r}),
    "interpret.interpret": _interpret,
    "interpret.enumerate_assignments": lambda c, a, r: c.update({"interpret.assignments": len(r)}),
    "render.render_json": lambda c, a, r: c.update({"render.bytes": len(r.encode())}),
}
