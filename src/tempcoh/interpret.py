"""End-to-end interpretation of a discourse and the corpus regression runner.

Clauses are processed left to right. The tense stage mints event points
and writes each clause's tense constraints into a chain network, keeping
only the most recent event time, the one a past perfect anchors to. The
coherence stage is one generator, `_search`: a depth-first search over
each adjacent pair's candidate relations in cue-priority order, yielding
every complete assignment whose constraints stay consistent and whose
semantic prerequisites hold. `interpret` takes the first assignment,
`enumerate_assignments` all of them, and `tempcoh interpret --all` the
verdict and then the rest of the same search, one at a time; readings
with equal edges share one event order. Each pair is planned once per
discourse, and the search keeps its path on an explicit stack, so
Python's recursion limit does not bound the length of a discourse. Every
constraint links an event to speech or two adjacent events, so the
search checks a pair's edge against the tense chain in O(1) and never
changes it. A discourse with no surviving assignment is infelicitous and
carries a diagnostic naming the deepest pair at which the search failed.
No `TemporalNetwork` is built on the way; `Interpretation.network` builds
one from the chain when it is read.

The JSON output is deterministic: stable key order, two-space indent,
newline terminated, non-ASCII escaped; its bytes are those of `json.dumps`
with an indent of 2, plus a newline. A record list, a plain list of plain
dicts with one key order and only string values, is laid out from one
row template, since its records differ only in their values. `event_order`
is read off the reading's chain in O(n + output), `ChainNetwork.precedences`.
Corpus expectation files use the same shape minus the diagnostic message
text, so expectations compare byte-for-byte against the canonicalized output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from itertools import chain as iter_chain, islice
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Iterator, Mapping, NamedTuple

from .coherence import (
    CoherenceRelation,
    RelationKind,
    candidate_relations,
    derive_cues,
    relation_constraint,
    semantic_support,
)
from .network import BACKWARD, FORWARD, ChainNetwork, PointKind, TemporalNetwork, TimePoint
from .parsing import CausalAxiom, Discourse, Lexicon, ParseError, parse_discourse
from .tense import (
    TenseResolutionContext,
    UnresolvedReferenceTimeError,
    event_point_id,
    resolve_tense,
)

SPEECH_POINT_ID = "speech"

DISCOURSE_SUFFIX = ".disc"
EXPECTATION_SUFFIX = ".expected.json"


class DiagnosticCode(Enum):
    UNRESOLVED_REFERENCE_TIME = "UNRESOLVED_REFERENCE_TIME"
    NO_COHERENCE_RELATION = "NO_COHERENCE_RELATION"
    TEMPORAL_CLASH = "TEMPORAL_CLASH"


_MESSAGE_TEMPLATES = {
    DiagnosticCode.UNRESOLVED_REFERENCE_TIME: (
        "clause {clauses}: the past perfect depends on a previously introduced "
        "event time, but none is available"
    ),
    DiagnosticCode.NO_COHERENCE_RELATION: (
        "clause(s) {clauses}: no coherence relation is licensed by the "
        "connective, tense, context, and causal knowledge"
    ),
    DiagnosticCode.TEMPORAL_CLASH: (
        "clause(s) {clauses}: the temporal constraints admit no consistent ordering"
    ),
}


@dataclass(frozen=True)
class Diagnostic:
    """Why a discourse failed to receive a felicitous interpretation."""

    code: DiagnosticCode
    clause_ids: tuple[str, ...]
    message: str

    @classmethod
    def make(cls, code: DiagnosticCode, clause_ids: tuple[str, ...]) -> "Diagnostic":
        message = _MESSAGE_TEMPLATES[code].format(clauses=", ".join(clause_ids))
        return cls(code=code, clause_ids=clause_ids, message=message)


@dataclass(frozen=True)
class Interpretation:
    """Verdict, chosen relations, their chain network, and entailed event ordering.

    `chain` holds the tense constraints and, for a felicitous reading, its
    relations' edges; an infelicitous one keeps the tense stage's chain.
    """

    felicitous: bool
    relations: tuple[CoherenceRelation, ...]
    chain: ChainNetwork
    event_order: tuple[tuple[str, str], ...]
    diagnostics: tuple[Diagnostic, ...]
    trace: tuple[str, ...] = ()

    @cached_property
    def network(self) -> TemporalNetwork:
        """The closed `TemporalNetwork` of `chain`, built when first read."""
        return self.chain.network()


def _speech_point() -> TimePoint:
    return TimePoint(id=SPEECH_POINT_ID, kind=PointKind.SPEECH)


def _describe_constraints(result) -> str:
    return ", ".join(f"{a.id} {rel.value} {b.id}" for a, b, rel in result.new_constraints)


def _tense_stage(
    discourse: Discourse,
) -> tuple[ChainNetwork, Diagnostic | None, list[str]]:
    """Run tense resolution over all clauses; stops at the first defect.

    Each clause appends its event to the chain and writes its constraints: the
    event's side of speech, or for a past perfect the edge to the previous
    event and that event's side, each in O(1). The chain checks every
    assertion against all it entails, so a clash shows on the clause that
    causes it.
    """
    trace: list[str] = []
    speech = _speech_point()
    chain = ChainNetwork(speech)
    ctx = TenseResolutionContext(speech_time=speech)
    diag: Diagnostic | None = None
    for clause in discourse.clauses:
        try:
            result = resolve_tense(clause, ctx)
        except UnresolvedReferenceTimeError:
            trace.append(
                f"[tense] clause {clause.id}: {clause.tense.value} has no salient "
                "event time to anchor its reference time"
            )
            diag = Diagnostic.make(
                DiagnosticCode.UNRESOLVED_REFERENCE_TIME, (clause.id,)
            )
            break
        chain.append(result.event_time)
        for a, b, rel in result.new_constraints:
            chain.assert_constraint(a.id, b.id, rel)
        trace.append(
            f"[tense] clause {clause.id}: minted {result.event_time.id} "
            f"({clause.tense.value}), reference time {result.reference_time.id}; "
            f"asserted {_describe_constraints(result)}"
        )
        if chain.inconsistent:
            trace.append(f"[tense] clause {clause.id}: constraints clash")
            diag = Diagnostic.make(DiagnosticCode.TEMPORAL_CLASH, (clause.id,))
            break
        ctx = ctx.remember(result.event_time)
    return chain, diag, trace


def build_tense_network(discourse: Discourse) -> TemporalNetwork:
    """The closed network after tense resolution only, before any coherence constraint.

    Raises :class:`UnresolvedReferenceTimeError` if a past perfect cannot
    be anchored. A clash shows up as an inconsistent network.
    """
    chain, diag, _ = _tense_stage(discourse)
    if diag is not None and diag.code is DiagnosticCode.UNRESOLVED_REFERENCE_TIME:
        raise UnresolvedReferenceTimeError(diag.clause_ids[0])
    return chain.network()


def _describe_cues(cues) -> str:
    conn = cues.connective.value if cues.connective else "none"
    return (
        f"connective={conn}, tense_cue={str(cues.tense_cue).lower()}, "
        f"parallel_context={str(cues.parallel_context).lower()}"
    )


class _Step(NamedTuple):
    """A supported candidate of a pair, and the trace lines around trying it."""

    rejected: tuple[str, ...]  # `no semantic support` lines of the candidates listed before it
    candidate: CoherenceRelation
    direction: int  # the edge its `relation_constraint` asserts: FORWARD, BACKWARD or 0
    clash: str
    holds: str
    backtrack: str


class _PairPlan(NamedTuple):
    """What the search needs of one adjacent pair that does not depend on the network."""

    opening: tuple[str, str]  # the pair's `[cues]` and `candidates:` lines
    steps: tuple[_Step, ...]  # its supported candidates, in priority order
    closing: tuple[str, ...]  # rejection lines after the last supported candidate
    failure: tuple[DiagnosticCode, tuple[str, str]]  # why the pair fails, and its clause ids


def _plan(discourse, axioms, pair) -> _PairPlan:
    """The plan of `pair`: its candidates, their support and constraints, and its trace lines."""
    first, second = pair
    cues = derive_cues(discourse, second)
    candidates = candidate_relations(pair, cues, axioms)
    pair_label = f"({first.id}, {second.id})"
    prefix = f"[coherence] pair {pair_label}: "
    names = ", ".join(c.kind.name for c in candidates) or "none"
    opening = (f"[cues] pair {pair_label}: {_describe_cues(cues)}", f"{prefix}candidates: {names}")
    steps = []
    rejected: list[str] = []  # unsupported candidates since the last supported one
    for candidate in candidates:
        name = candidate.kind.name
        if not semantic_support(candidate.kind, pair, cues, axioms):
            rejected.append(f"{prefix}{name} rejected, no semantic support")
            continue
        constraint = relation_constraint(candidate)
        direction = 0
        if constraint is not None:
            # A strict precedence between the pair's events.
            (a, b), rel = constraint
            asserted = f"; asserted {a} {rel.value} {b}"
            direction = FORWARD if a == event_point_id(first.id) else BACKWARD
        else:
            asserted = "; no ordering constraint"
        steps.append(
            _Step(
                tuple(rejected),
                candidate,
                direction,
                f"{prefix}{name} rejected, temporal clash",
                f"{prefix}{name} holds{asserted}",
                f"{prefix}backtracking from {name}",
            )
        )
        rejected.clear()
    code = DiagnosticCode.TEMPORAL_CLASH if steps else DiagnosticCode.NO_COHERENCE_RELATION
    return _PairPlan(opening, tuple(steps), tuple(rejected), (code, (first.id, second.id)))


def _survivors(plan: _PairPlan, chain, k, trace):
    """Yield each candidate relation of pair k that holds, in priority order.

    A candidate holds unless its edge clashes with the tense chain; an edge
    never changes an event's side of speech, so the relations chosen before
    pair k cannot make it clash. Everything else, trace lines included, comes
    from the pair's plan. Each survivor comes with its edge direction;
    resuming the generator means the search backtracked from the last one.
    Once no candidate is left, returns why the pair failed and the ids of
    its clauses.
    """
    trace.extend(plan.opening)
    for rejected, candidate, direction, clash, holds, backtrack in plan.steps:
        trace.extend(rejected)
        if chain.clashes(k, direction):
            trace.append(clash)
            continue
        trace.append(holds)
        yield candidate, direction
        trace.append(backtrack)
    trace.extend(plan.closing)
    return plan.failure


def _search(discourse, axioms, chain, trace):
    """Depth-first search over per-pair candidate relations in priority order.

    Plans every adjacent pair once, then replays a pair's plan each time
    the search enters it, so a search node only checks one edge against
    the tense chain in O(1). The chain is never changed, so the search's
    only state is the relations chosen so far. Yields every complete
    assignment that survives, with its chain, and appends the derivation
    to `trace`. Once exhausted, returns the diagnostic code and clause ids
    of the deepest pair at which a branch died, or None if none died.
    """
    clauses = discourse.clauses
    plans = [_plan(discourse, axioms, pair) for pair in zip(clauses, clauses[1:])]
    frames = []  # one `_survivors` generator per open pair, outermost first
    chosen = []  # the relation taken at each open pair
    directions = []  # the edge direction of each relation in `chosen`
    deepest, failure = -1, None
    while True:
        if len(chosen) == len(plans):
            yield tuple(chosen), chain.with_edges(directions)
        else:
            depth = len(chosen)
            frames.append(_survivors(plans[depth], chain, depth, trace))
        # Advance the innermost open pair, dropping those with no survivor left.
        while frames:
            depth = len(frames) - 1
            del chosen[depth:], directions[depth:]
            try:
                candidate, direction = next(frames[-1])
            except StopIteration as exhausted:
                # A shallower failure found later never overrides a deeper one.
                if depth > deepest:
                    deepest, failure = depth, exhausted.value
                frames.pop()
            else:
                chosen.append(candidate)
                directions.append(direction)
                break
        else:
            return failure


def _readings(search, orders) -> Iterator[Interpretation]:
    """A felicitous Interpretation of each assignment `search` yields.

    A reading's event order depends only on its edges, since its events and
    their sides come from the tense stage. So `orders` maps an edge vector
    to its order, computed once, and readings with equal edges share one
    order tuple. It holds at most 64 orders, however many readings there are.
    """
    for relations, final in search:
        edges = tuple(final.edges)
        order = orders.get(edges)
        if order is None:
            if len(orders) == 64:
                orders.clear()
            order = orders[edges] = final.precedences()
        yield Interpretation(True, relations, final, order, diagnostics=())


def _interpret(discourse: Discourse, axioms) -> tuple[Interpretation, Iterator[Interpretation]]:
    """`interpret`'s verdict, and every reading of its search: the verdict's, then the rest."""
    chain, diag, trace = _tense_stage(discourse)
    if diag is None:
        search = _search(discourse, axioms, chain, trace)
        try:
            chosen, final = next(search)
        except StopIteration as exhausted:
            diag = Diagnostic.make(*exhausted.value)
        else:
            order = final.precedences()
            rendered = ", ".join(map(" < ".join, order)) or "none"
            trace.append(f"[result] felicitous; entailed event order: {rendered}")
            found = Interpretation(True, chosen, final, order, diagnostics=(), trace=tuple(trace))
            return found, iter_chain((found,), _readings(search, {tuple(final.edges): order}))
    trace.append(f"[result] infelicitous: {diag.code.value}")
    return Interpretation(False, (), chain, (), diagnostics=(diag,), trace=tuple(trace)), iter(())


def interpret(
    discourse: Discourse, lexicon: Lexicon, axioms: list[CausalAxiom]
) -> Interpretation:
    """Interpret a discourse: tense stage, then coherence resolution.

    Returns a felicitous Interpretation with one relation per adjacent
    pair and the entailed event ordering, or an infelicitous one whose
    diagnostics name the blocking clauses. Pure and deterministic.
    """
    return _interpret(discourse, axioms)[0]


def enumerate_assignments(
    discourse: Discourse, lexicon: Lexicon, axioms: list[CausalAxiom]
) -> list[Interpretation]:
    """Each surviving assignment in priority order, as a felicitous Interpretation."""
    chain, diag, _ = _tense_stage(discourse)
    return [] if diag else list(_readings(_search(discourse, axioms, chain, []), {}))


def _relation_records(relations) -> list[dict[str, str]]:
    return [{"kind": rel.kind.value, "first": rel.first, "second": rel.second} for rel in relations]


def _order_records(order) -> list[dict[str, str]]:
    return [{"before": before, "after": after} for before, after in order]


def interpretation_to_dict(interp: Interpretation) -> dict[str, Any]:
    """The stable JSON form of an interpretation."""
    return {
        "felicitous": interp.felicitous,
        "relations": _relation_records(interp.relations),
        "event_order": _order_records(interp.event_order),
        "diagnostics": [
            {"code": d.code.value, "clauses": list(d.clause_ids), "message": d.message}
            for d in interp.diagnostics
        ],
    }


@lru_cache(maxsize=64)
def _row(keys: tuple[str, ...], inner: str) -> str:
    """The `%` template of a record with `keys` laid out on the line `inner` breaks to."""
    field = inner + "  "
    body = ",".join(f"{field}{encode_basestring_ascii(key).replace('%', '%%')}: %s" for key in keys)
    return "{" + body + inner + "}"


def _records(value: Any, inner: str) -> str | None:
    """A record list's items, on the lines `inner` breaks to; None for any other value.

    A record list is a plain list of plain dicts with one key order and only
    string values. Its rows are filled into one cached row template.
    """
    if type(value) is not list or set(map(type, value)) != {dict}:
        return None
    keys = tuple(value[0])
    # No dict repeats a key, so the keys of all the dicts, one after another,
    # are `keys` repeated only if each dict has exactly `keys`, in that order.
    if not keys or list(iter_chain.from_iterable(value)) != list(keys) * len(value):
        return None
    row, between = _row(keys, inner), "," + inner
    fields = map(encode_basestring_ascii, iter_chain.from_iterable(map(dict.values, value)))
    # At most 4,096 rows per `%`: its template and fields stay small however long the list.
    sizes = [min(4096, len(value) - start) for start in range(0, len(value), 4096)]
    fills = (between.join([row] * n) % tuple(islice(fields, n * len(keys))) for n in sizes)
    try:
        return between.join(fills)
    except TypeError:  # the escaper takes only strings
        return None


def _render(value: Any, newline: str) -> str:
    """`value` laid out as `json.dumps` lays it out with an indent of 2.

    `newline` is the line break plus the indent of the line `value` is on.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{encode_basestring_ascii(k)}: {_render(v, inner)}" for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = _records(value, inner)
        if items is None:
            items = ("," + inner).join([_render(item, inner) for item in value])
        return "[" + inner + items + newline + "]"
    return json.dumps(value)


def render_json(data: Mapping[str, Any]) -> str:
    """The bytes of `json.dumps` with an indent of 2, plus a newline.

    Given an indent, Python 3.11's `json.dumps` encodes in pure Python;
    `_render` builds the same layout itself and leaves strings to
    `encode_basestring_ascii`, the C escaper `json.dumps` uses. Keys must
    be strings, as in every dict the package renders. In a record list,
    as `relations` and `event_order` are, the records differ only in their
    escaped values, so one cached row template per key order and indent
    lays out every record, filled by C-level iteration, not a call per record.
    """
    return _render(data, "\n") + "\n"


class CorpusError(ValueError):
    """A corpus case is unusable: a malformed discourse or a missing or malformed expectation."""


def comparison_form(data: Mapping[str, Any]) -> dict[str, Any]:
    """Project output or expectation data onto the compared subset.

    Keeps felicity, relations, event order, and diagnostic codes with
    their clause ids; diagnostic message wording is not compared.
    """
    return {
        "felicitous": data["felicitous"],
        "relations": [{k: r[k] for k in ("kind", "first", "second")} for r in data["relations"]],
        "event_order": [{k: o[k] for k in ("before", "after")} for o in data["event_order"]],
        "diagnostics": [
            {"code": d["code"], "clauses": list(d["clauses"])} for d in data["diagnostics"]
        ],
    }


_EXPECTED_TOP_KEYS = {"felicitous", "relations", "event_order", "diagnostics"}
_RELATION_KINDS = {kind.value for kind in RelationKind}
_DIAGNOSTIC_CODES = {code.value for code in DiagnosticCode}


def _strings(values) -> bool:
    return all(isinstance(value, str) for value in values)


def _malformed(path: Path, why: str) -> CorpusError:
    return CorpusError(f"{path}: malformed expectation: {why}")


def load_expectation(path: Path) -> dict[str, Any]:
    """Load and validate one expectation file."""
    try:
        data = json.loads(path.read_text(encoding="utf-8-sig"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise _malformed(path, f"invalid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise _malformed(path, "top level must be an object")
    if set(data) != _EXPECTED_TOP_KEYS:
        raise _malformed(
            path, f"keys must be exactly {sorted(_EXPECTED_TOP_KEYS)}, got {sorted(data)}"
        )
    if not isinstance(data["felicitous"], bool):
        raise _malformed(path, "felicitous must be a boolean")
    for key in ("relations", "event_order", "diagnostics"):
        if not isinstance(data[key], list):
            raise _malformed(path, f"{key} must be a list")
    for rel in data["relations"]:
        if not isinstance(rel, dict) or set(rel) != {"kind", "first", "second"}:
            raise _malformed(path, "each relation needs kind/first/second")
        if not _strings((rel["first"], rel["second"])):
            raise _malformed(path, "a relation's first and second must be clause ids")
        if not isinstance(rel["kind"], str) or rel["kind"] not in _RELATION_KINDS:
            raise _malformed(path, f"unknown relation kind {rel['kind']!r}")
    for entry in data["event_order"]:
        if not isinstance(entry, dict) or set(entry) != {"before", "after"}:
            raise _malformed(path, "each event_order entry needs before/after")
        if not _strings((entry["before"], entry["after"])):
            raise _malformed(path, "an event_order entry's before and after must be point ids")
    for diag in data["diagnostics"]:
        if not isinstance(diag, dict) or not {"code", "clauses"} <= set(diag):
            raise _malformed(path, "each diagnostic needs code and clauses")
        if not set(diag) <= {"code", "clauses", "message"}:
            raise _malformed(path, "diagnostic keys are code/clauses/message")
        if not isinstance(diag["clauses"], list) or not _strings(diag["clauses"]):
            raise _malformed(path, "a diagnostic's clauses must be a list of clause ids")
        if not isinstance(diag["code"], str) or diag["code"] not in _DIAGNOSTIC_CODES:
            raise _malformed(path, f"unknown diagnostic code {diag['code']!r}")
    return data


@dataclass(frozen=True)
class CaseResult:
    name: str
    passed: bool
    expected: str
    actual: str


@dataclass(frozen=True)
class CorpusReport:
    cases: tuple[CaseResult, ...]

    @property
    def passed(self) -> bool:
        return all(case.passed for case in self.cases)

    @property
    def failures(self) -> tuple[CaseResult, ...]:
        return tuple(case for case in self.cases if not case.passed)


def run_corpus(
    directory: Path, lexicon: Lexicon, axioms: list[CausalAxiom]
) -> CorpusReport:
    """Interpret every `*.disc` case in `directory` against its expectation file.

    Cases are processed in lexicographic filename order. A `directory`
    that is not a directory, a discourse file without a sibling
    `<name>.expected.json`, a malformed expectation and a discourse file
    that is not UTF-8 or does not parse each raise :class:`CorpusError`,
    naming the file. A leading byte-order mark is ignored.
    """
    if not Path(directory).is_dir():
        raise CorpusError(f"{directory}: not a directory")
    results: list[CaseResult] = []
    for disc_path in sorted(Path(directory).glob("*" + DISCOURSE_SUFFIX)):
        name = disc_path.name[: -len(DISCOURSE_SUFFIX)]
        expectation_path = disc_path.with_name(name + EXPECTATION_SUFFIX)
        if not expectation_path.exists():
            raise CorpusError(f"missing expectation file for {disc_path}")
        expectation = load_expectation(expectation_path)
        try:
            discourse = parse_discourse(disc_path.read_text(encoding="utf-8-sig"), lexicon)
        except (UnicodeDecodeError, ParseError) as exc:
            raise CorpusError(f"{disc_path}: {exc}") from exc
        interp = interpret(discourse, lexicon, axioms)
        actual = render_json(comparison_form(interpretation_to_dict(interp)))
        expected = render_json(comparison_form(expectation))
        results.append(CaseResult(name, actual == expected, expected, actual))
    return CorpusReport(cases=tuple(results))
