"""Coherence relations between adjacent clauses and the cue-priority policy.

Narration orders the first event before the second, Explanation orders
the second before the first, Cause-Effect patterns with Narration, and
Parallel leaves the events unordered. Hearers default to Narration; the
default is withdrawn by a cue: an explicit connective names its relation
outright, a past perfect on the second clause signals reversed order and
so rules Narration out, and a topic-setting question licenses Parallel.

Candidate lists are ordered by priority. Whether a candidate actually
survives depends on its semantic prerequisites (Explanation and
Cause-Effect need a causal axiom linking the two verbs, Parallel needs
its cue) and on whether its ordering constraint keeps the temporal
network consistent; the interpreter applies those filters.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .network import PointRelation
from .parsing import CausalAxiom, Clause, ConnectiveForm, Discourse, TenseForm
from .tense import event_point_id


class RelationKind(Enum):
    NARRATION = "NARRATION"
    EXPLANATION = "EXPLANATION"
    PARALLEL = "PARALLEL"
    CAUSE_EFFECT = "CAUSE_EFFECT"


@dataclass(frozen=True)
class CoherenceRelation:
    """A coherence link from clause `first` to the clause `second` that follows it."""

    kind: RelationKind
    first: str
    second: str


@dataclass(frozen=True)
class CueSet:
    """The overt signals relevant to one adjacent clause pair."""

    connective: ConnectiveForm | None
    tense_cue: bool
    parallel_context: bool


CONNECTIVE_RELATIONS = {
    ConnectiveForm.BECAUSE: RelationKind.EXPLANATION,
    ConnectiveForm.AND_SO: RelationKind.CAUSE_EFFECT,
    ConnectiveForm.AND_ALSO: RelationKind.PARALLEL,
}


def derive_cues(discourse: Discourse, second: Clause) -> CueSet:
    """Cues for the pair ending at `second`; a pure function of the discourse."""
    return CueSet(
        connective=second.connective,
        tense_cue=second.tense is TenseForm.PPERF,
        parallel_context=discourse.context_question is not None,
    )


def relation_constraint(
    rel: CoherenceRelation,
) -> tuple[tuple[str, str], PointRelation] | None:
    """The ordering constraint a relation imposes on the two event points, if any."""
    t_first = event_point_id(rel.first)
    t_second = event_point_id(rel.second)
    if rel.kind in (RelationKind.NARRATION, RelationKind.CAUSE_EFFECT):
        return (t_first, t_second), PointRelation.PRECEDES
    if rel.kind is RelationKind.EXPLANATION:
        return (t_second, t_first), PointRelation.PRECEDES
    return None


def semantic_support(
    kind: RelationKind,
    pair: tuple[Clause, Clause],
    cues: CueSet,
    axioms: list[CausalAxiom],
) -> bool:
    """Whether a relation of `kind` has its semantic prerequisites on this pair.

    Explanation needs an axiom by which the second clause's event can
    cause the first's; Cause-Effect needs the same axiom the other way
    round; Parallel needs a parallel cue; Narration has no prerequisite.
    """
    first, second = pair
    if kind is RelationKind.NARRATION:
        return True
    if kind is RelationKind.EXPLANATION:
        return any(ax.cause == second.verb and ax.effect == first.verb for ax in axioms)
    if kind is RelationKind.CAUSE_EFFECT:
        return any(ax.cause == first.verb and ax.effect == second.verb for ax in axioms)
    return cues.parallel_context or cues.connective is ConnectiveForm.AND_ALSO


def candidate_relations(
    pair: tuple[Clause, Clause], cues: CueSet, axioms: list[CausalAxiom]
) -> list[CoherenceRelation]:
    """Candidate relations for an adjacent pair, highest priority first.

    An explicit connective is decisive and yields exactly its relation,
    checked or not. Otherwise a past perfect on the second clause
    withdraws the Narration default, leaving Explanation then Parallel
    (each kept only if supported); otherwise a topic question licenses
    Parallel alone; otherwise the default is Narration.
    """
    first, second = pair
    if cues.connective is not None:
        kind = CONNECTIVE_RELATIONS[cues.connective]
        return [CoherenceRelation(kind=kind, first=first.id, second=second.id)]
    if cues.tense_cue:
        ordered = (RelationKind.EXPLANATION, RelationKind.PARALLEL)
        return [
            CoherenceRelation(kind=kind, first=first.id, second=second.id)
            for kind in ordered
            if semantic_support(kind, pair, cues, axioms)
        ]
    if cues.parallel_context:
        return [
            CoherenceRelation(
                kind=RelationKind.PARALLEL, first=first.id, second=second.id
            )
        ]
    return [
        CoherenceRelation(kind=RelationKind.NARRATION, first=first.id, second=second.id)
    ]
