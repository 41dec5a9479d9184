"""The iterative coherence search against the recursive search it replaced.

`search_oracle` holds the old recursive `_Search` with its `interpret`
and `enumerate_assignments`, the old tense stage, which recloses the
network after every clause, and the old event order, one `query` per
pair of events. Both sides must agree on every field of the
interpretation (verdict, relations, closed network, event order,
diagnostics, and every trace line) and on the list of assignments.
"""

import itertools
import random

import pytest

import search_oracle
from randgen import random_axioms, random_discourse, random_lexicon
from tempcoh import (
    CausalAxiom,
    Clause,
    ConnectiveForm,
    DiagnosticCode,
    Discourse,
    TenseForm,
    UnresolvedReferenceTimeError,
    build_tense_network,
    enumerate_assignments,
    interpret,
    parse_discourse,
)
from tempcoh.interpret import _tense_stage

RANDOM_CASES = 1500
MAX_TENSE_CLAUSES = 6
QUESTION = "What bad things happened to Max today?"


def assert_agrees(discourse, lexicon, axioms):
    new = interpret(discourse, lexicon, axioms)
    old = search_oracle.interpret(discourse, lexicon, axioms)
    assert new.felicitous == old.felicitous
    assert new.relations == old.relations
    assert new.network == old.network
    assert new.event_order == old.event_order
    assert new.diagnostics == old.diagnostics
    assert new.trace == old.trace

    readings = enumerate_assignments(discourse, lexicon, axioms)
    expected = search_oracle.enumerate_assignments(discourse, lexicon, axioms)
    assert [(r.relations, r.network, r.event_order) for r in readings] == [
        (a.relations, a.network, a.event_order) for a in expected
    ]
    assert all(r.felicitous and not r.diagnostics for r in readings)
    return new, readings


def test_corpus_agrees_with_oracle(corpus_dir, lexicon, axioms):
    cases = sorted(corpus_dir.glob("*.disc"))
    assert len(cases) == 7
    for path in cases:
        assert_agrees(parse_discourse(path.read_text(), lexicon), lexicon, axioms)


def test_random_discourses_agree_with_oracle():
    """Seeded random discourses of up to 7 clauses over all tenses and cues.

    The sample must reach every verdict and make the search backtrack,
    so that agreement covers more than the first-candidate path.
    """
    lexicon = random_lexicon()
    seen = set()
    for seed in range(RANDOM_CASES):
        rng = random.Random(seed)
        axioms = random_axioms(rng)
        discourse = random_discourse(rng, max_clauses=7)
        interp, readings = assert_agrees(discourse, lexicon, axioms)
        seen.update(d.code for d in interp.diagnostics)
        if interp.felicitous:
            seen.add("felicitous")
        if any("backtracking" in line for line in interp.trace):
            seen.add("backtracked")
        if len(readings) > 1:
            seen.add("several readings")
    assert seen == {
        *DiagnosticCode,
        "felicitous",
        "backtracked",
        "several readings",
    }


def test_tense_stage_agrees_with_oracle_on_every_tense_sequence():
    """Every sequence of the four tenses up to MAX_TENSE_CLAUSES clauses (5,460)."""
    for n in range(1, MAX_TENSE_CLAUSES + 1):
        for tenses in itertools.product(TenseForm, repeat=n):
            discourse = Discourse(
                clauses=tuple(
                    Clause(id=f"c{i}", subject="Max", verb="slip", tense=tense)
                    for i, tense in enumerate(tenses, start=1)
                )
            )
            chain, diag, trace = _tense_stage(discourse)
            old_net, old_diag, old_trace = search_oracle._tense_stage(discourse)
            assert chain.network() == old_net
            assert diag == old_diag
            assert trace == old_trace
            if old_diag is not None and (
                old_diag.code is DiagnosticCode.UNRESOLVED_REFERENCE_TIME
            ):
                with pytest.raises(UnresolvedReferenceTimeError) as raised:
                    build_tense_network(discourse)
                assert raised.value.clause_id == old_diag.clause_ids[0]
            else:
                assert build_tense_network(discourse) == old_net


def _question_pperf_chain(n, tail):
    """A topic question, a simple past, n past perfects, then the clauses of `tail`.

    The verbs alternate between slip and spill, which cause each other
    under BOTH_WAYS, so every past-perfect pair has two surviving
    candidates and a failing tail makes the search try 2^n branches.
    """
    verbs = ("spill", "slip")
    clauses = [Clause(id="c1", subject="Max", verb="slip", tense=TenseForm.SPAST)]
    for i in range(2, n + 2):
        clauses.append(
            Clause(id=f"c{i}", subject="Max", verb=verbs[i % 2], tense=TenseForm.PPERF)
        )
    for i, (verb, tense, connective) in enumerate(tail, start=n + 2):
        clauses.append(
            Clause(id=f"c{i}", subject="Max", verb=verb, tense=tense, connective=connective)
        )
    return Discourse(clauses=tuple(clauses), context_question=QUESTION)


BOTH_WAYS = [
    CausalAxiom(cause="spill", effect="slip"),
    CausalAxiom(cause="slip", effect="spill"),
]


@pytest.mark.parametrize(
    "tail, code",
    [
        # `because` with no axiom by which pouring causes anything.
        (
            [("pour", TenseForm.SPAST, ConnectiveForm.BECAUSE)],
            DiagnosticCode.NO_COHERENCE_RELATION,
        ),
        # A future spill, then a simple-past slip it caused: a cycle through speech.
        (
            [("spill", TenseForm.SFUT, None), ("slip", TenseForm.SPAST, ConnectiveForm.AND_SO)],
            DiagnosticCode.TEMPORAL_CLASH,
        ),
        ([], None),
    ],
    ids=["because", "clash", "felicitous"],
)
def test_backtracking_families_agree_with_oracle(lexicon, tail, code):
    for n in range(1, 7):
        interp, readings = assert_agrees(_question_pperf_chain(n, tail), lexicon, BOTH_WAYS)
        assert [d.code for d in interp.diagnostics] == ([code] if code else [])
        assert len(readings) == (0 if code else 2**n)
