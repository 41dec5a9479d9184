"""The recursive depth-first coherence search, kept as a reference oracle.

This is the search `tempcoh.interpret` ran before it moved to a single
iterative generator: `_Search`, `interpret` and `enumerate_assignments`
below are that code unchanged, apart from imports; `Interpretation` is
the interpretation record of that time, whose `network` field held the
closed network. `_tense_stage` is the
tense stage as it was before it read clashes off the assertions: it
recloses the network after every clause and asks it whether it is still
consistent. `_event_order` reads the event order off the network as it
did before `TemporalNetwork.precedences`: one `query` per pair. The
differential tests in `test_search_oracle.py` require the package to
agree with it on every verdict, relation, network, event order,
diagnostic and trace line.
"""

from __future__ import annotations

from dataclasses import dataclass

from tempcoh.coherence import (
    CoherenceRelation,
    candidate_relations,
    derive_cues,
    relation_constraint,
    semantic_support,
)
from tempcoh.interpret import (
    Diagnostic,
    DiagnosticCode,
    _describe_constraints,
    _describe_cues,
    _speech_point,
)
from tempcoh.network import PointRelation, TemporalNetwork
from tempcoh.parsing import CausalAxiom, Discourse, Lexicon
from tempcoh.tense import (
    TenseResolutionContext,
    UnresolvedReferenceTimeError,
    event_point_id,
    resolve_tense,
)


@dataclass(frozen=True)
class Interpretation:
    """Verdict, chosen relations, closed network, and entailed event ordering."""

    felicitous: bool
    relations: tuple[CoherenceRelation, ...]
    network: TemporalNetwork
    event_order: tuple[tuple[str, str], ...]
    diagnostics: tuple[Diagnostic, ...]
    trace: tuple[str, ...] = ()


def _event_order(
    net: TemporalNetwork, discourse: Discourse
) -> tuple[tuple[str, str], ...]:
    """Entailed precedences between event points, in discourse order."""
    ids = [event_point_id(c.id) for c in discourse.clauses]
    order: list[tuple[str, str]] = []
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            rel = net.query(a, b)
            if rel is PointRelation.PRECEDES:
                order.append((a, b))
            elif rel is PointRelation.FOLLOWS:
                order.append((b, a))
    return tuple(order)


def _tense_stage(
    discourse: Discourse,
) -> tuple[TemporalNetwork, Diagnostic | None, list[str]]:
    """Run tense resolution over all clauses; stops at the first defect."""
    trace: list[str] = []
    speech = _speech_point()
    net = TemporalNetwork().add_point(speech)
    ctx = TenseResolutionContext(speech_time=speech)
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
            return net.close(), diag, trace
        net = net.add_point(result.event_time)
        for a, b, rel in result.new_constraints:
            net = net.assert_constraint(a, b, rel)
        net = net.close()
        trace.append(
            f"[tense] clause {clause.id}: minted {result.event_time.id} "
            f"({clause.tense.value}), reference time {result.reference_time.id}; "
            f"asserted {_describe_constraints(result)}"
        )
        if not net.is_consistent():
            trace.append(f"[tense] clause {clause.id}: constraints clash")
            diag = Diagnostic.make(DiagnosticCode.TEMPORAL_CLASH, (clause.id,))
            return net, diag, trace
        ctx = ctx.remember(result.event_time)
    return net, None, trace


@dataclass(frozen=True)
class Assignment:
    """One complete, surviving coherence assignment (used by `--all`)."""

    relations: tuple[CoherenceRelation, ...]
    network: TemporalNetwork
    event_order: tuple[tuple[str, str], ...]


class _Search:
    """Depth-first search over per-pair candidate relations in priority order."""

    def __init__(self, discourse, axioms, trace, collect_all=False):
        self.discourse = discourse
        self.axioms = axioms
        self.trace = trace
        self.pairs = list(zip(discourse.clauses, discourse.clauses[1:]))
        self.collect_all = collect_all
        self.complete: list[tuple[tuple[CoherenceRelation, ...], TemporalNetwork]] = []
        # Deepest pair index at which a branch died, and why; later shallower
        # failures never override it, so the diagnostic names the furthest
        # pair the interpretation reached.
        self.failure: tuple[int, DiagnosticCode, tuple[str, ...]] | None = None

    def _record_failure(
        self, idx: int, code: DiagnosticCode, clause_ids: tuple[str, ...]
    ) -> None:
        if self.failure is None or idx > self.failure[0]:
            self.failure = (idx, code, clause_ids)

    def run(self, idx, net, chosen):
        if idx == len(self.pairs):
            self.complete.append((tuple(chosen), net))
            return not self.collect_all
        first, second = self.pairs[idx]
        cues = derive_cues(self.discourse, second)
        candidates = candidate_relations((first, second), cues, self.axioms)
        pair_label = f"({first.id}, {second.id})"
        self.trace.append(f"[cues] pair {pair_label}: {_describe_cues(cues)}")
        names = ", ".join(c.kind.name for c in candidates) or "none"
        self.trace.append(f"[coherence] pair {pair_label}: candidates: {names}")
        any_supported = False
        for candidate in candidates:
            if not semantic_support(candidate.kind, (first, second), cues, self.axioms):
                self.trace.append(
                    f"[coherence] pair {pair_label}: {candidate.kind.name} rejected, "
                    "no semantic support"
                )
                continue
            any_supported = True
            trial = net
            constraint = relation_constraint(candidate)
            if constraint is not None:
                (a, b), rel = constraint
                trial = trial.assert_constraint(a, b, rel)
                asserted = f"; asserted {a} {rel.value} {b}"
            else:
                asserted = "; no ordering constraint"
            trial = trial.close()
            if not trial.is_consistent():
                self.trace.append(
                    f"[coherence] pair {pair_label}: {candidate.kind.name} rejected, "
                    "temporal clash"
                )
                continue
            self.trace.append(
                f"[coherence] pair {pair_label}: {candidate.kind.name} holds{asserted}"
            )
            if self.run(idx + 1, trial, chosen + [candidate]):
                return True
            self.trace.append(
                f"[coherence] pair {pair_label}: backtracking from {candidate.kind.name}"
            )
        code = (
            DiagnosticCode.TEMPORAL_CLASH
            if any_supported
            else DiagnosticCode.NO_COHERENCE_RELATION
        )
        self._record_failure(idx, code, (first.id, second.id))
        return False


def interpret(
    discourse: Discourse, lexicon: Lexicon, axioms: list[CausalAxiom]
) -> Interpretation:
    """Interpret a discourse: tense stage, then coherence resolution.

    Returns a felicitous Interpretation with one relation per adjacent
    pair and the entailed event ordering, or an infelicitous one whose
    diagnostics name the blocking clauses. Pure and deterministic.
    """
    net, diag, trace = _tense_stage(discourse)
    if diag is not None:
        trace.append(f"[result] infelicitous: {diag.code.value}")
        return Interpretation(
            felicitous=False,
            relations=(),
            network=net.close(),
            event_order=(),
            diagnostics=(diag,),
            trace=tuple(trace),
        )
    search = _Search(discourse, axioms, trace)
    if search.run(0, net, []):
        relations, final = search.complete[0]
        order = _event_order(final, discourse)
        rendered = ", ".join(f"{a} < {b}" for a, b in order) or "none"
        trace.append(f"[result] felicitous; entailed event order: {rendered}")
        return Interpretation(
            felicitous=True,
            relations=relations,
            network=final,
            event_order=order,
            diagnostics=(),
            trace=tuple(trace),
        )
    idx, code, clause_ids = search.failure
    diag = Diagnostic.make(code, clause_ids)
    trace.append(f"[result] infelicitous: {diag.code.value}")
    return Interpretation(
        felicitous=False,
        relations=(),
        network=net,
        event_order=(),
        diagnostics=(diag,),
        trace=tuple(trace),
    )


def enumerate_assignments(
    discourse: Discourse, lexicon: Lexicon, axioms: list[CausalAxiom]
) -> list[Assignment]:
    """Every complete coherence assignment that survives, in priority order."""
    net, diag, trace = _tense_stage(discourse)
    if diag is not None:
        return []
    search = _Search(discourse, axioms, trace, collect_all=True)
    search.run(0, net, [])
    return [
        Assignment(
            relations=relations,
            network=final,
            event_order=_event_order(final, discourse),
        )
        for relations, final in search.complete
    ]
