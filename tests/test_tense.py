import pytest
from hypothesis import given, strategies as st

from tempcoh import (
    Clause,
    PointKind,
    PointRelation,
    TenseForm,
    TenseResolutionContext,
    TimePoint,
    TemporalNetwork,
    UnresolvedReferenceTimeError,
    event_point_id,
    resolve_tense,
)

SPEECH = TimePoint(id="speech", kind=PointKind.SPEECH)


def clause(cid="c1", tense=TenseForm.SPAST, verb="slip"):
    return Clause(id=cid, subject="Max", verb=verb, tense=tense)


def ctx_with(*salient: TimePoint) -> TenseResolutionContext:
    return TenseResolutionContext(speech_time=SPEECH, salient_event_times=salient)


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
    result = resolve_tense(clause("c3", TenseForm.PPERF, verb="spill"), ctx_with(t1, t2))
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
        TenseResolutionContext(speech_time=SPEECH, salient_event_times=(SPEECH,))


def test_collision_with_existing_point_rejected():
    with pytest.raises(ValueError):
        resolve_tense(clause("c1"), ctx_with(event_of("c1")))


IDENT = st.from_regex(r"[A-Za-z0-9_]{1,8}", fullmatch=True)


@given(
    cid=IDENT,
    prior=st.lists(IDENT, max_size=4, unique=True),
    tense=st.sampled_from(tuple(TenseForm)),
)
def test_minted_point_is_fresh(cid, prior, tense):
    salient = tuple(event_of(p) for p in prior if p != cid)
    ctx = ctx_with(*salient)
    try:
        result = resolve_tense(clause(cid, tense), ctx)
    except UnresolvedReferenceTimeError:
        assert tense is TenseForm.PPERF and not salient
        return
    taken = {SPEECH.id} | {p.id for p in salient}
    assert result.event_time.id not in taken
    assert result.event_time.source_clause == cid
