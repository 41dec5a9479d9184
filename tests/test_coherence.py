import random

from hypothesis import given, strategies as st

from randgen import random_axioms, random_discourse
from tempcoh import (
    CausalAxiom,
    Clause,
    CoherenceRelation,
    ConnectiveForm,
    CueSet,
    Discourse,
    PointRelation,
    RelationKind,
    TenseForm,
    candidate_relations,
    derive_cues,
    relation_constraint,
    semantic_support,
)

SLIPPING_AXIOM = CausalAxiom(cause="spill", effect="slip")


def clause(cid, verb, tense=TenseForm.SPAST, connective=None):
    return Clause(id=cid, subject="Max", verb=verb, tense=tense, connective=connective)


def pair(second_tense=TenseForm.SPAST, connective=None, first_verb="slip", second_verb="spill"):
    return (
        clause("c1", first_verb),
        clause("c2", second_verb, tense=second_tense, connective=connective),
    )


def cue_set(connective=None, tense_cue=False, parallel_context=False):
    return CueSet(
        connective=connective, tense_cue=tense_cue, parallel_context=parallel_context
    )


def rel(kind, first="c1", second="c2"):
    return CoherenceRelation(kind=kind, first=first, second=second)


def test_relation_constraints():
    assert relation_constraint(rel(RelationKind.NARRATION)) == (
        ("t_c1", "t_c2"),
        PointRelation.PRECEDES,
    )
    assert relation_constraint(rel(RelationKind.EXPLANATION)) == (
        ("t_c2", "t_c1"),
        PointRelation.PRECEDES,
    )
    assert relation_constraint(rel(RelationKind.CAUSE_EFFECT)) == (
        ("t_c1", "t_c2"),
        PointRelation.PRECEDES,
    )
    assert relation_constraint(rel(RelationKind.PARALLEL)) is None


def support(kind, discourse, axioms):
    pair = tuple(discourse.clauses)
    return semantic_support(kind, pair, derive_cues(discourse, pair[1]), axioms)


def test_explanation_needs_causal_axiom():
    discourse = Discourse(clauses=pair())
    assert support(RelationKind.EXPLANATION, discourse, [SLIPPING_AXIOM])
    assert not support(RelationKind.EXPLANATION, discourse, [])


def test_explanation_axiom_direction_matters():
    # The axiom says spilling causes slipping, not the other way round.
    spill_then_slip = pair(first_verb="spill", second_verb="slip")
    axioms = [SLIPPING_AXIOM]
    assert not semantic_support(RelationKind.EXPLANATION, spill_then_slip, cue_set(), axioms)
    assert semantic_support(RelationKind.CAUSE_EFFECT, spill_then_slip, cue_set(), axioms)


def test_narration_always_supported():
    discourse = Discourse(clauses=pair(first_verb="pour", second_verb="enter"))
    assert support(RelationKind.NARRATION, discourse, [])


def test_parallel_needs_a_cue():
    plain = Discourse(clauses=pair())
    assert not support(RelationKind.PARALLEL, plain, [])
    questioned = Discourse(clauses=pair(), context_question="What happened?")
    assert support(RelationKind.PARALLEL, questioned, [])
    conjoined = Discourse(clauses=pair(connective=ConnectiveForm.AND_ALSO))
    assert support(RelationKind.PARALLEL, conjoined, [])


PARALLEL_CUES = {
    "none": cue_set(),
    "topic question": cue_set(parallel_context=True),
    "and_also": cue_set(connective=ConnectiveForm.AND_ALSO),
}


def test_semantic_support_table():
    """Kind x axiom present x cue present: each kind reads only its own prerequisite."""
    # For each causal kind, a pair along which the axiom runs that kind's way.
    pairs = {
        RelationKind.EXPLANATION: pair(first_verb="slip", second_verb="spill"),
        RelationKind.CAUSE_EFFECT: pair(first_verb="spill", second_verb="slip"),
    }
    for kind in RelationKind:
        for axioms in ([], [SLIPPING_AXIOM]):
            for cue, cues in PARALLEL_CUES.items():
                expected = {
                    RelationKind.NARRATION: True,
                    RelationKind.EXPLANATION: bool(axioms),
                    RelationKind.CAUSE_EFFECT: bool(axioms),
                    RelationKind.PARALLEL: cue != "none",
                }[kind]
                supported = semantic_support(kind, pairs.get(kind, pair()), cues, axioms)
                assert supported is expected, (kind, axioms, cue)


def test_default_is_narration():
    cands = candidate_relations(pair(), cue_set(), [SLIPPING_AXIOM])
    assert [c.kind for c in cands] == [RelationKind.NARRATION]


def test_tense_cue_selects_explanation_when_supported():
    cands = candidate_relations(
        pair(second_tense=TenseForm.PPERF),
        cue_set(tense_cue=True),
        [SLIPPING_AXIOM],
    )
    assert [c.kind for c in cands] == [RelationKind.EXPLANATION]


def test_tense_cue_with_no_support_yields_nothing():
    cands = candidate_relations(
        pair(second_tense=TenseForm.PPERF, first_verb="pour", second_verb="enter"),
        cue_set(tense_cue=True),
        [SLIPPING_AXIOM],
    )
    assert cands == []


def test_tense_cue_with_parallel_context_keeps_both():
    cands = candidate_relations(
        pair(second_tense=TenseForm.PPERF),
        cue_set(tense_cue=True, parallel_context=True),
        [SLIPPING_AXIOM],
    )
    assert [c.kind for c in cands] == [RelationKind.EXPLANATION, RelationKind.PARALLEL]


def test_connective_is_decisive():
    cands = candidate_relations(
        pair(connective=ConnectiveForm.BECAUSE),
        cue_set(connective=ConnectiveForm.BECAUSE),
        [SLIPPING_AXIOM],
    )
    assert [c.kind for c in cands] == [RelationKind.EXPLANATION]


def test_question_context_licenses_parallel():
    cands = candidate_relations(pair(), cue_set(parallel_context=True), [])
    assert [c.kind for c in cands] == [RelationKind.PARALLEL]


def test_derive_cues():
    discourse = Discourse(
        clauses=pair(second_tense=TenseForm.PPERF, connective=ConnectiveForm.BECAUSE),
        context_question="What happened?",
    )
    cues = derive_cues(discourse, discourse.clauses[1])
    assert cues == cue_set(
        connective=ConnectiveForm.BECAUSE, tense_cue=True, parallel_context=True
    )


# --- properties ---------------------------------------------------------

seeds = st.integers(min_value=0, max_value=2**32 - 1)


@given(seeds)
def test_connective_supremacy(seed):
    """A connective yields exactly its one relation, whatever else holds."""
    rng = random.Random(seed)
    discourse = random_discourse(rng, min_clauses=2)
    axioms = random_axioms(rng)
    for first, second in zip(discourse.clauses, discourse.clauses[1:]):
        cues = derive_cues(discourse, second)
        cands = candidate_relations((first, second), cues, axioms)
        if cues.connective is not None:
            assert len(cands) == 1
            assert cands[0].kind is {
                ConnectiveForm.BECAUSE: RelationKind.EXPLANATION,
                ConnectiveForm.AND_SO: RelationKind.CAUSE_EFFECT,
                ConnectiveForm.AND_ALSO: RelationKind.PARALLEL,
            }[cues.connective]


@given(seeds)
def test_narration_exclusivity(seed):
    """Narration is a candidate only in the absence of every cue."""
    rng = random.Random(seed)
    discourse = random_discourse(rng, min_clauses=2)
    axioms = random_axioms(rng)
    for first, second in zip(discourse.clauses, discourse.clauses[1:]):
        cues = derive_cues(discourse, second)
        cands = candidate_relations((first, second), cues, axioms)
        has_narration = any(c.kind is RelationKind.NARRATION for c in cands)
        uncued = (
            cues.connective is None
            and not cues.tense_cue
            and not cues.parallel_context
        )
        assert has_narration == uncued


@given(seeds)
def test_cue_determinism(seed):
    rng = random.Random(seed)
    discourse = random_discourse(rng, min_clauses=2)
    axioms = random_axioms(rng)
    for first, second in zip(discourse.clauses, discourse.clauses[1:]):
        cues_a = derive_cues(discourse, second)
        cues_b = derive_cues(discourse, second)
        assert cues_a == cues_b
        assert candidate_relations((first, second), cues_a, axioms) == (
            candidate_relations((first, second), cues_b, axioms)
        )
