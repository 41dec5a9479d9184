import itertools
import json
import random
import sys
from collections import Counter

import pytest
from hypothesis import given, strategies as st

import search_oracle
from randgen import random_axioms, random_discourse, random_lexicon
from test_search_oracle import BOTH_WAYS, _question_pperf_chain
from tempcoh import (
    CausalAxiom,
    Clause,
    ConnectiveForm,
    CorpusError,
    DiagnosticCode,
    Discourse,
    PointRelation,
    RelationKind,
    TemporalNetwork,
    TenseForm,
    build_tense_network,
    enumerate_assignments,
    interpret,
    interpretation_to_dict,
    relation_constraint,
    render_json,
    run_corpus,
)
from tempcoh.interpret import _readings, _tense_stage
from tempcoh.network import BACKWARD, FORWARD


def clause(cid, verb, tense=TenseForm.SPAST, connective=None, obj=None):
    return Clause(
        id=cid, subject="Max", verb=verb, tense=tense, connective=connective, object=obj
    )


def bucket_discourse(second_tense=TenseForm.SPAST, connective=None, question=None):
    return Discourse(
        clauses=(
            clause("c1", "slip"),
            clause("c2", "spill", tense=second_tense, connective=connective),
        ),
        context_question=question,
    )


def test_narration_default(lexicon, axioms):
    interp = interpret(bucket_discourse(), lexicon, axioms)
    assert interp.felicitous
    assert [r.kind for r in interp.relations] == [RelationKind.NARRATION]
    assert interp.event_order == (("t_c1", "t_c2"),)
    assert interp.diagnostics == ()


def test_pperf_selects_explanation(lexicon, axioms):
    interp = interpret(bucket_discourse(second_tense=TenseForm.PPERF), lexicon, axioms)
    assert interp.felicitous
    assert [r.kind for r in interp.relations] == [RelationKind.EXPLANATION]
    assert interp.event_order == (("t_c2", "t_c1"),)


def test_because_simple_past_is_not_a_clash(lexicon, axioms):
    interp = interpret(
        bucket_discourse(connective=ConnectiveForm.BECAUSE), lexicon, axioms
    )
    assert interp.felicitous
    assert [r.kind for r in interp.relations] == [RelationKind.EXPLANATION]
    assert interp.event_order == (("t_c2", "t_c1"),)


def test_because_pperf(lexicon, axioms):
    interp = interpret(
        bucket_discourse(second_tense=TenseForm.PPERF, connective=ConnectiveForm.BECAUSE),
        lexicon,
        axioms,
    )
    assert interp.felicitous
    assert [r.kind for r in interp.relations] == [RelationKind.EXPLANATION]
    assert interp.event_order == (("t_c2", "t_c1"),)


def test_pperf_without_causal_route_is_infelicitous(lexicon, axioms):
    discourse = Discourse(
        clauses=(
            clause("c1", "pour", obj="a cup of coffee"),
            clause("c2", "enter", tense=TenseForm.PPERF, obj="the room"),
        )
    )
    interp = interpret(discourse, lexicon, axioms)
    assert not interp.felicitous
    assert interp.relations == ()
    assert interp.event_order == ()
    assert [d.code for d in interp.diagnostics] == [DiagnosticCode.NO_COHERENCE_RELATION]
    assert interp.diagnostics[0].clause_ids == ("c1", "c2")


def test_standalone_pperf_is_infelicitous(lexicon, axioms):
    discourse = Discourse(clauses=(clause("c1", "spill", tense=TenseForm.PPERF),))
    interp = interpret(discourse, lexicon, axioms)
    assert not interp.felicitous
    assert [d.code for d in interp.diagnostics] == [
        DiagnosticCode.UNRESOLVED_REFERENCE_TIME
    ]
    assert interp.diagnostics[0].clause_ids == ("c1",)


def test_question_context_gives_parallel_and_no_order(lexicon, axioms):
    interp = interpret(
        bucket_discourse(question="What bad things happened to Max today?"),
        lexicon,
        axioms,
    )
    assert interp.felicitous
    assert [r.kind for r in interp.relations] == [RelationKind.PARALLEL]
    assert interp.event_order == ()


def test_single_simple_past_is_felicitous(lexicon, axioms):
    interp = interpret(Discourse(clauses=(clause("c1", "slip"),)), lexicon, axioms)
    assert interp.felicitous
    assert interp.relations == ()
    assert interp.event_order == ()


def test_cued_cause_effect_against_pperf_is_a_clash(lexicon, axioms):
    """and_so demands forward order while the past perfect demands reverse."""
    discourse = Discourse(
        clauses=(
            clause("c1", "spill"),
            clause(
                "c2", "slip", tense=TenseForm.PPERF, connective=ConnectiveForm.AND_SO
            ),
        )
    )
    interp = interpret(discourse, lexicon, axioms)
    assert not interp.felicitous
    assert [d.code for d in interp.diagnostics] == [DiagnosticCode.TEMPORAL_CLASH]


def test_unsupported_connective_relation_is_no_coherence(lexicon, axioms):
    """and_so without a matching causal axiom fails on semantic grounds."""
    discourse = bucket_discourse(connective=ConnectiveForm.AND_SO)
    interp = interpret(discourse, lexicon, axioms)
    assert not interp.felicitous
    assert [d.code for d in interp.diagnostics] == [DiagnosticCode.NO_COHERENCE_RELATION]


def test_present_then_pperf_is_a_tense_stage_clash(lexicon, axioms):
    # "Max slips. He had spilt...": the anchor is at speech time, so the
    # resolved reference time cannot also precede speech time.
    discourse = Discourse(
        clauses=(
            clause("c1", "slip", tense=TenseForm.SPRES),
            clause("c2", "spill", tense=TenseForm.PPERF),
        )
    )
    interp = interpret(discourse, lexicon, axioms)
    assert not interp.felicitous
    assert [d.code for d in interp.diagnostics] == [DiagnosticCode.TEMPORAL_CLASH]
    assert interp.diagnostics[0].clause_ids == ("c2",)


def test_three_clause_narration_orders_transitively(lexicon, axioms):
    discourse = Discourse(
        clauses=(clause("c1", "pour"), clause("c2", "slip"), clause("c3", "spill"))
    )
    interp = interpret(discourse, lexicon, axioms)
    assert interp.felicitous
    assert [r.kind for r in interp.relations] == [RelationKind.NARRATION] * 2
    assert interp.event_order == (
        ("t_c1", "t_c2"),
        ("t_c1", "t_c3"),
        ("t_c2", "t_c3"),
    )


def test_tense_factoring(lexicon, axioms):
    """The narration ordering comes from coherence, not from the tenses."""
    discourse = bucket_discourse()
    pre = build_tense_network(discourse)
    assert pre.query("t_c1", "t_c2") is PointRelation.UNCONSTRAINED
    post = interpret(discourse, lexicon, axioms).network
    assert post.query("t_c1", "t_c2") is PointRelation.PRECEDES


def test_trace_records_stages(lexicon, axioms):
    interp = interpret(bucket_discourse(second_tense=TenseForm.PPERF), lexicon, axioms)
    text = "\n".join(interp.trace)
    assert "[tense] clause c1" in text
    assert "[cues] pair (c1, c2)" in text
    assert "EXPLANATION holds" in text
    assert "[result] felicitous" in text


def test_enumerate_assignments_lists_survivors(lexicon, axioms):
    discourse = bucket_discourse(
        second_tense=TenseForm.PPERF,
        question="What bad things happened to Max today?",
    )
    assignments = enumerate_assignments(discourse, lexicon, axioms)
    assert [[r.kind for r in a.relations] for a in assignments] == [
        [RelationKind.EXPLANATION],
        [RelationKind.PARALLEL],
    ]
    # The past perfect already ordered the events, so even the parallel
    # assignment keeps the reverse ordering contributed by the tenses.
    assert assignments[0].event_order == (("t_c2", "t_c1"),)
    assert assignments[1].event_order == (("t_c2", "t_c1"),)


def test_enumerate_assignments_empty_for_infelicity(lexicon, axioms):
    discourse = Discourse(clauses=(clause("c1", "spill", tense=TenseForm.PPERF),))
    assert enumerate_assignments(discourse, lexicon, axioms) == []


def _stack_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_long_discourse_needs_no_recursion(lexicon, axioms):
    """The search does not recurse per pair, so length is not bounded by the stack."""
    clauses = tuple(clause(f"c{i}", "slip") for i in range(1, 151))
    discourse = Discourse(clauses=clauses, context_question="What happened to Max?")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        interp = interpret(discourse, lexicon, axioms)
    finally:
        sys.setrecursionlimit(limit)
    assert interp.felicitous
    assert [r.kind for r in interp.relations] == [RelationKind.PARALLEL] * 149


def test_interpreter_builds_no_temporal_network(lexicon, axioms, monkeypatch):
    """The interpreter runs on the chain; a `TemporalNetwork` is built only when read."""
    calls = Counter()
    for name in ("add_point", "assert_constraint", "close"):
        method = getattr(TemporalNetwork, name)

        def counted(*args, _name=name, _method=method):
            calls[_name] += 1
            return _method(*args)

        monkeypatch.setattr(TemporalNetwork, name, counted)
    narration = Discourse(clauses=tuple(clause(f"c{i}", "slip") for i in range(1, 51)))
    interp = interpret(narration, lexicon, axioms)
    render_json(interpretation_to_dict(interp))
    assert [r.kind for r in interp.relations] == [RelationKind.NARRATION] * 49
    assert len(interp.event_order) == 50 * 49 // 2
    pperf = _question_pperf_chain(6, [])
    readings = enumerate_assignments(pperf, lexicon, BOTH_WAYS)
    assert len(readings) == 2**6
    assert calls == Counter()

    monkeypatch.undo()
    assert interp.network == search_oracle.interpret(narration, lexicon, axioms).network
    expected = search_oracle.enumerate_assignments(pperf, lexicon, BOTH_WAYS)
    assert [r.network for r in readings] == [a.network for a in expected]


@pytest.mark.parametrize(
    "tail",
    [
        [("pour", TenseForm.SPAST, ConnectiveForm.BECAUSE)],
        [("spill", TenseForm.SFUT, None), ("slip", TenseForm.SPAST, ConnectiveForm.AND_SO)],
        [],
    ],
    ids=["because", "clash", "felicitous"],
)
def test_search_plans_each_pair_once(lexicon, monkeypatch, tail):
    """Cues, candidates, support and constraints are derived once per pair, not per node.

    Each family makes the search revisit its pairs up to 2^6 times.
    """
    module = sys.modules["tempcoh.interpret"]  # `tempcoh.interpret` is the function
    calls = Counter()
    listed = []

    def counting(name, original):
        def counted(*args):
            calls[name] += 1
            result = original(*args)
            if name == "candidate_relations":
                listed.extend(result)
            return result

        return counted

    for name in ("candidate_relations", "semantic_support", "relation_constraint"):
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    discourse = _question_pperf_chain(6, tail)
    pairs = len(discourse.clauses) - 1
    for run in (interpret, enumerate_assignments):
        calls.clear()
        listed.clear()
        run(discourse, lexicon, BOTH_WAYS)
        assert calls["candidate_relations"] == pairs
        assert calls["semantic_support"] <= len(listed)
        assert calls["relation_constraint"] <= calls["semantic_support"]


def test_json_shape_and_determinism(lexicon, axioms):
    interp = interpret(bucket_discourse(), lexicon, axioms)
    rendered = render_json(interpretation_to_dict(interp))
    assert rendered.endswith("\n")
    data = json.loads(rendered)
    assert list(data) == ["felicitous", "relations", "event_order", "diagnostics"]
    again = render_json(
        interpretation_to_dict(interpret(bucket_discourse(), lexicon, axioms))
    )
    assert rendered == again


def spast_chain(n):
    """n simple-past clauses with no cue: a narration chain ordering every event."""
    return Discourse(clauses=tuple(clause(f"c{i}", "slip") for i in range(1, n + 1)))


def test_event_order_makes_no_query_per_pair(lexicon, axioms, monkeypatch):
    """`event_order` is read off the closed network at once, not by 1,225 `query` calls."""
    calls = []
    query = TemporalNetwork.query

    def counted(net, a, b):
        calls.append((a, b))
        return query(net, a, b)

    monkeypatch.setattr(TemporalNetwork, "query", counted)
    interp = interpret(spast_chain(50), lexicon, axioms)
    assert len(interp.event_order) == 50 * 49 // 2
    assert calls == []


def test_readings_share_one_event_order_per_edge_vector():
    """Readings with equal edges share one order, however many distinct ones go by.

    The grammar's readings of one discourse all have the same edges, so
    this feeds `_readings` a search of every edge vector of a 5-event
    chain, 81 of them, more than the 64 orders it holds, each twice.
    """
    chain, _, _ = _tense_stage(spast_chain(5))
    vectors = [v for v in itertools.product((FORWARD, 0, BACKWARD), repeat=4) for _ in (0, 1)]
    search = (((), chain.with_edges(vector)) for vector in vectors)
    readings = list(_readings(search, {}))
    for reading, vector in zip(readings, vectors):
        assert reading.event_order == chain.with_edges(vector).precedences()
    assert all(a.event_order is b.event_order for a, b in zip(readings[::2], readings[1::2]))
    assert len({id(reading.event_order) for reading in readings}) == len(vectors) // 2


def test_render_json_does_not_use_the_pure_python_encoder(lexicon, axioms, monkeypatch):
    data = interpretation_to_dict(interpret(spast_chain(50), lexicon, axioms))
    expected = json.dumps(data, indent=2) + "\n"

    def refuse(*args, **kwargs):
        raise AssertionError("json.dumps fell back to its pure-Python encoder")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    assert render_json(data) == expected


# Escaped by name, by \uXXXX, as a surrogate pair, or not at all.
SPECIAL_CHARS = '"\\/\b\f\n\r\t\x00\x1f\x7f\x80\xe9\u2028\ud800\udbff\udc00\udfff\uffff\U0001f600'
json_strings = st.text(st.characters(exclude_categories=())) | st.text(SPECIAL_CHARS)
json_values = st.recursive(
    st.booleans() | st.none() | st.integers() | json_strings,
    lambda children: st.lists(children) | st.dictionaries(json_strings, children),
    max_leaves=20,
)


@given(st.lists(json_values) | st.dictionaries(json_strings, json_values))
def test_render_json_matches_json_dumps(value):
    """The reference: `json.dumps` with an indent of 2, plus a newline."""
    assert render_json(value) == json.dumps(value, indent=2) + "\n"


class RecordDict(dict):
    pass


class RecordList(list):
    pass


# `%` must not reach a row template unescaped; `"` and non-ASCII are escaped.
record_keys = st.text('%"\\\xe9\u2028\U0001f600ab', max_size=3) | json_strings


@st.composite
def record_lists(draw):
    """A list of records sharing one key order, now and then with a row that breaks the rule.

    A row may have its keys permuted or its last key dropped, a value that
    is not a string, or be a dict subclass; the list may be a list subclass
    or a tuple.
    """
    keys = draw(st.lists(record_keys, unique=True, max_size=4))
    rarely = st.integers(0, 9).map(lambda n: n == 0)
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        order = draw(st.sampled_from([keys] * 6 + [keys[:-1], keys[::-1], keys[1:] + keys[:1]]))
        row = RecordDict if draw(rarely) else dict
        values = json_values if draw(rarely) else json_strings
        rows.append(row((key, draw(values)) for key in order))
    return (RecordList if draw(rarely) else tuple if draw(rarely) else list)(rows)


@given(
    record_lists()
    | st.lists(record_lists(), max_size=3)
    | st.dictionaries(record_keys, record_lists(), max_size=3)
)
def test_render_json_matches_json_dumps_on_record_lists(value):
    """Lists laid out from one row template give the bytes of `json.dumps` too."""
    assert render_json(value) == json.dumps(value, indent=2) + "\n"


@pytest.mark.parametrize("clauses", [50, 100])
def test_render_json_lays_out_a_record_list_at_once(lexicon, axioms, monkeypatch, clauses):
    """The event order entries of a narration cost no `_render` call each.

    A 50-clause one has 1,225 entries, filled by one `%`; a 100-clause one
    has 4,950, more than one `%` fills.
    """
    module = sys.modules["tempcoh.interpret"]  # `tempcoh.interpret` is the function
    render = module._render
    calls = []

    def counted(value, newline):
        calls.append(value)
        return render(value, newline)

    monkeypatch.setattr(module, "_render", counted)
    data = interpretation_to_dict(interpret(spast_chain(clauses), lexicon, axioms))
    assert len(data["event_order"]) == clauses * (clauses - 1) // 2
    assert render_json(data) == json.dumps(data, indent=2) + "\n"
    assert len(calls) < 20


def test_felicity_soundness_on_goldens(corpus_dir, lexicon, axioms):
    from tempcoh import parse_discourse

    for disc_path in sorted(corpus_dir.glob("*.disc")):
        discourse = parse_discourse(disc_path.read_text(), lexicon)
        interp = interpret(discourse, lexicon, axioms)
        if interp.felicitous:
            assert interp.network.is_consistent()
            assert len(interp.relations) == len(discourse.clauses) - 1
            for before, after in interp.event_order:
                assert interp.network.query(before, after) is PointRelation.PRECEDES
        else:
            assert interp.diagnostics


# --- corpus runner ------------------------------------------------------


def test_run_corpus_bundled(corpus_dir, lexicon, axioms):
    report = run_corpus(corpus_dir, lexicon, axioms)
    assert len(report.cases) == 7
    assert report.passed
    assert report.failures == ()


def test_run_corpus_empty_dir(tmp_path, lexicon, axioms):
    report = run_corpus(tmp_path, lexicon, axioms)
    assert report.cases == ()
    assert report.passed


@pytest.mark.parametrize("where", ["missing", "file"])
def test_run_corpus_rejects_a_path_that_is_not_a_directory(tmp_path, lexicon, axioms, where):
    path = tmp_path / "missing"
    if where == "file":
        path.write_text("clause id=c1 subj=Max verb=slip tense=SPAST\n")
    with pytest.raises(CorpusError, match="not a directory"):
        run_corpus(path, lexicon, axioms)


def test_run_corpus_reports_mismatch(tmp_path, corpus_dir, lexicon, axioms):
    disc = (corpus_dir / "because_simple_past.disc").read_text()
    (tmp_path / "case.disc").write_text(disc)
    expectation = {
        "felicitous": True,
        "relations": [{"kind": "NARRATION", "first": "c1", "second": "c2"}],
        "event_order": [{"before": "t_c1", "after": "t_c2"}],
        "diagnostics": [],
    }
    (tmp_path / "case.expected.json").write_text(json.dumps(expectation))
    report = run_corpus(tmp_path, lexicon, axioms)
    assert not report.passed
    assert [case.name for case in report.failures] == ["case"]
    assert "EXPLANATION" in report.failures[0].actual


def test_run_corpus_missing_expectation(tmp_path, lexicon, axioms):
    (tmp_path / "case.disc").write_text("clause id=c1 subj=Max verb=slip tense=SPAST\n")
    with pytest.raises(CorpusError, match="missing expectation"):
        run_corpus(tmp_path, lexicon, axioms)


def test_run_corpus_malformed_expectation(tmp_path, lexicon, axioms):
    (tmp_path / "case.disc").write_text("clause id=c1 subj=Max verb=slip tense=SPAST\n")
    (tmp_path / "case.expected.json").write_text('{"felicitous": true}')
    with pytest.raises(CorpusError, match="malformed expectation"):
        run_corpus(tmp_path, lexicon, axioms)


def test_run_corpus_ignores_message_wording(tmp_path, lexicon, axioms):
    (tmp_path / "case.disc").write_text(
        "clause id=c1 subj=Max verb=spill tense=PPERF\n"
    )
    expectation = {
        "felicitous": False,
        "relations": [],
        "event_order": [],
        "diagnostics": [
            {
                "code": "UNRESOLVED_REFERENCE_TIME",
                "clauses": ["c1"],
                "message": "any wording at all",
            }
        ],
    }
    (tmp_path / "case.expected.json").write_text(json.dumps(expectation))
    assert run_corpus(tmp_path, lexicon, axioms).passed


# --- properties ---------------------------------------------------------

seeds = st.integers(min_value=0, max_value=2**32 - 1)


@given(seeds)
def test_relations_match_entailed_order(seed):
    """Narration/cause-effect run forward, explanation backward, always."""
    rng = random.Random(seed)
    lexicon = random_lexicon()
    discourse = random_discourse(rng, min_clauses=2)
    axioms = random_axioms(rng)
    interp = interpret(discourse, lexicon, axioms)
    if not interp.felicitous:
        assert interp.diagnostics
        return
    for rel in interp.relations:
        constraint = relation_constraint(rel)
        if constraint is None:
            continue
        (a, b), expected = constraint
        assert interp.network.query(a, b) is expected


@given(seeds)
def test_discourse_initial_pperf_always_unresolved(seed):
    """The verdict does not depend on the lexicon or the axioms."""
    rng = random.Random(seed)
    discourse = random_discourse(rng, min_clauses=1)
    if discourse.clauses[0].tense is not TenseForm.PPERF:
        opener = Clause(id="c0", subject="Max", verb="spill", tense=TenseForm.PPERF)
        discourse = Discourse(
            clauses=(opener,) + discourse.clauses,
            context_question=discourse.context_question,
        )
    interp = interpret(discourse, random_lexicon(), random_axioms(rng))
    assert not interp.felicitous
    assert interp.diagnostics[0].code is DiagnosticCode.UNRESOLVED_REFERENCE_TIME
    assert interp.diagnostics[0].clause_ids == (discourse.clauses[0].id,)


@given(seeds)
def test_because_with_simple_pasts_never_clashes(seed):
    """An overt explanation plus its axiom is always felicitous."""
    rng = random.Random(seed)
    lexicon = random_lexicon()
    first_verb, second_verb = rng.sample(sorted(lexicon.entries), 2)
    discourse = Discourse(
        clauses=(
            clause("c1", first_verb),
            clause("c2", second_verb, connective=ConnectiveForm.BECAUSE),
        )
    )
    axioms = [CausalAxiom(cause=second_verb, effect=first_verb)]
    interp = interpret(discourse, lexicon, axioms)
    assert interp.felicitous
    assert [r.kind for r in interp.relations] == [RelationKind.EXPLANATION]
    assert interp.event_order == (("t_c2", "t_c1"),)
