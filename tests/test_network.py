import random

import pytest
from hypothesis import given, settings, strategies as st

from preorder_oracle import oracle_query, satisfying
from randgen import random_network
from tempcoh import (
    DuplicatePointError,
    InconsistentNetworkError,
    PointKind,
    PointRelation,
    TemporalNetwork,
    TimePoint,
    UnknownPointError,
)

P = PointRelation.PRECEDES
F = PointRelation.FOLLOWS
E = PointRelation.EQUALS
U = PointRelation.UNCONSTRAINED


def event(pid: str) -> TimePoint:
    return TimePoint(id=pid, kind=PointKind.EVENT, source_clause=pid)


def net_over(*ids: str) -> TemporalNetwork:
    return TemporalNetwork.over(event(p) for p in ids)


def test_single_assertion():
    net = net_over("a", "b").assert_constraint("a", "b", P)
    assert net.is_consistent()
    assert net.query("a", "b") is P
    assert net.query("b", "a") is F


def test_direct_contradiction():
    net = net_over("a", "b").assert_constraint("a", "b", P)
    net = net.assert_constraint("b", "a", P)
    assert net.inconsistent
    assert not net.is_consistent()


def test_contradiction_on_a_closed_network_closes_to_the_empty_store():
    """The clash empties the store whether or not the network was closed before it."""
    stepwise = net_over("a", "b").assert_constraint("a", "b", P).close()
    stepwise = stepwise.assert_constraint("b", "a", P).close()
    at_once = net_over("a", "b").assert_constraint("a", "b", P).assert_constraint("b", "a", P)
    assert stepwise.inconsistent
    assert stepwise.constraints == {}
    assert stepwise == at_once.close()


def test_equals_against_chain_inconsistent_after_closure():
    # Oracle-checked: no ranking of {a, b, c} satisfies a<b, b<c, c=a.
    net = net_over("a", "b", "c")
    net = net.assert_constraint("a", "b", P)
    net = net.assert_constraint("b", "c", P)
    net = net.assert_constraint("c", "a", E)
    assert not net.inconsistent  # not yet a stored contradiction
    assert not net.close().is_consistent()
    sat = satisfying(3, [(0, 1, P), (1, 2, P), (2, 0, E)])
    assert len(sat) == 0


def test_closure_transitivity():
    net = net_over("a", "b", "c")
    net = net.assert_constraint("a", "b", P).assert_constraint("b", "c", P)
    assert net.close().query("a", "c") is P


def test_closure_empty_network():
    net = net_over("a", "b", "c").close()
    for x in "abc":
        for y in "abc":
            expected = E if x == y else U
            assert net.query(x, y) is expected


def test_closure_through_equality():
    # Oracle-checked over 4 points: a<b, b=c, c<d entails a<d.
    net = net_over("a", "b", "c", "d")
    net = (
        net.assert_constraint("a", "b", P)
        .assert_constraint("b", "c", E)
        .assert_constraint("c", "d", P)
    )
    assert net.close().query("a", "d") is P
    sat = satisfying(4, [(0, 1, P), (1, 2, E), (2, 3, P)])
    assert len(sat) > 0
    assert oracle_query(sat, 0, 3) is P


def test_cycle_detected():
    net = net_over("a", "b", "c")
    net = (
        net.assert_constraint("a", "b", P)
        .assert_constraint("b", "c", P)
        .assert_constraint("c", "a", P)
    )
    assert not net.is_consistent()


def test_query_reflexive():
    net = net_over("a", "b").assert_constraint("a", "b", P)
    assert net.query("a", "a") is E


def test_query_unconstrained():
    net = net_over("a", "b", "c").assert_constraint("a", "b", P)
    assert net.query("b", "c") is U


def test_query_inconsistent_network_raises():
    net = net_over("a", "b").assert_constraint("a", "b", P).assert_constraint("a", "b", E)
    with pytest.raises(InconsistentNetworkError):
        net.query("a", "b")


def test_unknown_point_rejected():
    net = net_over("a", "b")
    with pytest.raises(UnknownPointError):
        net.assert_constraint("a", "z", P)
    with pytest.raises(UnknownPointError):
        net.query("z", "a")


def test_reflexive_precedence_is_contradiction():
    net = net_over("a", "b").assert_constraint("a", "a", P)
    assert not net.is_consistent()


def test_unconstrained_assertion_is_noop():
    net = net_over("a", "b").assert_constraint("a", "b", P)
    assert net.assert_constraint("a", "b", U) == net


def test_duplicate_point_rejected():
    net = net_over("a")
    with pytest.raises(DuplicatePointError):
        net.add_point(event("a"))


def test_second_speech_point_rejected():
    net = TemporalNetwork().add_point(TimePoint("s1", PointKind.SPEECH))
    with pytest.raises(DuplicatePointError):
        net.add_point(TimePoint("s2", PointKind.SPEECH))


def test_event_point_requires_source_clause():
    with pytest.raises(ValueError):
        TimePoint(id="x", kind=PointKind.EVENT)


def test_immutability():
    base = net_over("a", "b")
    extended = base.assert_constraint("a", "b", P)
    assert base.query("a", "b") is U
    assert extended.query("a", "b") is P


# --- properties ---------------------------------------------------------

seeds = st.integers(min_value=0, max_value=2**32 - 1)


@given(seeds)
def test_closure_idempotent(seed):
    net, _, _ = random_network(random.Random(seed))
    closed = net.close()
    assert closed.close() == closed


@given(seeds)
def test_order_independence(seed):
    rng = random.Random(seed)
    net, n, constraints = random_network(rng)
    shuffled = list(constraints)
    rng.shuffle(shuffled)
    other = TemporalNetwork.over(
        TimePoint(id=f"p{i}", kind=PointKind.EVENT, source_clause=f"c{i}")
        for i in range(n)
    )
    for i, j, rel in shuffled:
        other = other.assert_constraint(f"p{i}", f"p{j}", rel)
    assert net.close() == other.close()


@given(seeds)
def test_assertion_monotonicity(seed):
    """Asserting never removes an entailed constraint (or goes inconsistent)."""
    rng = random.Random(seed)
    net, n, _ = random_network(rng)
    closed = net.close()
    i, j = rng.randrange(n), rng.randrange(n)
    rel = rng.choice((P, F, E))
    extended = net.assert_constraint(f"p{i}", f"p{j}", rel).close()
    if not closed.inconsistent and not extended.inconsistent:
        assert closed.constraints.items() <= extended.constraints.items()


@given(seeds)
@settings(max_examples=300)
def test_matches_preorder_oracle(seed):
    net, n, constraints = random_network(random.Random(seed))
    sat = satisfying(n, constraints)
    assert net.is_consistent() == (len(sat) > 0)
    if len(sat) > 0:
        for i in range(n):
            for j in range(n):
                assert net.query(f"p{i}", f"p{j}") is oracle_query(sat, i, j)


@given(seeds)
@settings(max_examples=300)
def test_assertion_onto_a_closed_network_matches_preorder_oracle(seed):
    """Asserting onto a closed network keeps it closed, equal to the lazy closure."""
    net, n, constraints = random_network(random.Random(seed))
    step = TemporalNetwork.over(net.points.values()).close()
    for i, j, rel in constraints:
        step = step.assert_constraint(f"p{i}", f"p{j}", rel)
        assert step.closed or step.inconsistent
    assert step.close() == net.close()
    sat = satisfying(n, constraints)
    assert step.is_consistent() == (len(sat) > 0)
    if len(sat) > 0:
        for i in range(n):
            for j in range(n):
                assert step.query(f"p{i}", f"p{j}") is oracle_query(sat, i, j)
