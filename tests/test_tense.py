import pytest
from hypothesis import given, strategies as st

from tempcoh import (
    Clause,
    Discourse,
    PointKind,
    PointRelation,
    TenseForm,
    TenseResolutionContext,
    TimePoint,
    TemporalNetwork,
    UnresolvedReferenceTimeError,
    build_tense_network,
    event_point_id,
    resolve_tense,
)

SPEECH = TimePoint(id="speech", kind=PointKind.SPEECH)


def clause(cid="c1", tense=TenseForm.SPAST, verb="slip"):
    return Clause(id=cid, subject="Max", verb=verb, tense=tense)


def ctx_with(last: TimePoint | None = None) -> TenseResolutionContext:
    return TenseResolutionContext(speech_time=SPEECH, last_event_time=last)


def event_of(cid: str) -> TimePoint:
    return TimePoint(id=event_point_id(cid), kind=PointKind.EVENT, source_clause=cid)


def test_simple_past():
    result = resolve_tense(clause(tense=TenseForm.SPAST), ctx_with())
    assert result.event_time.id == "t_c1"
    assert result.event_time.kind is PointKind.EVENT
    assert result.reference_time == SPEECH
    assert result.new_constraints == (
        (result.event_time, SPEECH, PointRelation.PRECEDES),
    )


def test_simple_present():
    result = resolve_tense(clause(tense=TenseForm.SPRES), ctx_with())
    assert result.reference_time == SPEECH
    assert result.new_constraints == ((result.event_time, SPEECH, PointRelation.EQUALS),)


def test_simple_future():
    result = resolve_tense(clause(tense=TenseForm.SFUT), ctx_with())
    assert result.reference_time == SPEECH
    assert result.new_constraints == ((SPEECH, result.event_time, PointRelation.PRECEDES),)


def test_past_perfect_anchors_to_most_recent_event():
    t1, t2 = event_of("c1"), event_of("c2")
    ctx = ctx_with().remember(t1).remember(t2)
    result = resolve_tense(clause("c3", TenseForm.PPERF, verb="spill"), ctx)
    assert result.reference_time == t2
    assert result.new_constraints == (
        (result.event_time, t2, PointRelation.PRECEDES),
        (t2, SPEECH, PointRelation.PRECEDES),
    )


def test_past_perfect_without_antecedent():
    with pytest.raises(UnresolvedReferenceTimeError) as exc_info:
        resolve_tense(clause("c1", TenseForm.PPERF, verb="spill"), ctx_with())
    assert exc_info.value.clause_id == "c1"


def test_simple_pasts_do_not_order_each_other():
    """Tense alone leaves two past events mutually unconstrained."""
    net = TemporalNetwork().add_point(SPEECH)
    ctx = ctx_with()
    for cid in ("c1", "c2"):
        result = resolve_tense(clause(cid), ctx)
        net = net.add_point(result.event_time)
        for a, b, rel in result.new_constraints:
            net = net.assert_constraint(a, b, rel)
        ctx = ctx.remember(result.event_time)
    assert net.query("t_c1", "t_c2") is PointRelation.UNCONSTRAINED
    assert net.query("t_c1", "speech") is PointRelation.PRECEDES
    assert net.query("t_c2", "speech") is PointRelation.PRECEDES


def test_past_perfect_event_precedes_speech_after_closure():
    t1 = event_of("c1")
    net = TemporalNetwork().add_point(SPEECH).add_point(t1)
    result = resolve_tense(clause("c2", TenseForm.PPERF), ctx_with(t1))
    net = net.add_point(result.event_time)
    for a, b, rel in result.new_constraints:
        net = net.assert_constraint(a, b, rel)
    assert net.close().query("t_c2", "speech") is PointRelation.PRECEDES


def test_salient_times_must_be_event_points():
    with pytest.raises(ValueError):
        TenseResolutionContext(speech_time=SPEECH, last_event_time=SPEECH)


def test_remember_keeps_only_the_last_event_time():
    t1, t2 = event_of("c1"), event_of("c2")
    assert ctx_with().remember(t1).remember(t2) == TenseResolutionContext(SPEECH, t2)


def test_past_perfect_after_long_run_anchors_on_the_last_event():
    """After 200 simple pasts under a topic question, a past perfect anchors on the 200th."""
    clauses = [clause(f"c{i}") for i in range(1, 201)]
    clauses.append(clause("c201", TenseForm.PPERF, verb="spill"))
    discourse = Discourse(clauses=tuple(clauses), context_question="What happened?")
    net = build_tense_network(discourse)
    assert net.query("t_c201", "t_c200") is PointRelation.PRECEDES
    assert net.query("t_c201", "t_c199") is PointRelation.UNCONSTRAINED


IDENT = st.from_regex(r"[A-Za-z0-9_]{1,8}", fullmatch=True)


@given(
    cid=IDENT,
    prior=st.lists(IDENT, max_size=4, unique=True),
    tense=st.sampled_from(tuple(TenseForm)),
)
def test_minted_point_is_fresh(cid, prior, tense):
    ctx = ctx_with()
    for p in prior:
        if p != cid:
            ctx = ctx.remember(event_of(p))
    try:
        result = resolve_tense(clause(cid, tense), ctx)
    except UnresolvedReferenceTimeError:
        assert tense is TenseForm.PPERF and ctx.last_event_time is None
        return
    assert result.event_time == event_of(cid)
    assert result.event_time not in (SPEECH, ctx.last_event_time)
