"""The chain network against `TemporalNetwork`, its reference.

Both take the same constraints in the interpreter's order: the tense
constraints clause by clause, then one edge per adjacent pair, left to
right, as the coherence search asserts them. They must clash at the same
step. Where nothing clashes, the chain's `TemporalNetwork` must equal the
reference, and its event order must be what `query` gives pair by pair.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from tempcoh import (
    Clause,
    PointKind,
    PointRelation,
    TemporalNetwork,
    TenseForm,
    TenseResolutionContext,
    TimePoint,
    UnresolvedReferenceTimeError,
    resolve_tense,
)
from tempcoh.network import BACKWARD, FORWARD, ChainNetwork

MAX_CLAUSES = 6
DIRECTIONS = (FORWARD, BACKWARD, 0)
SPEECH = TimePoint(id="speech", kind=PointKind.SPEECH)


def tense_stage(tenses):
    """The chain and the closed reference after the tense constraints, or None.

    None if a past perfect has no antecedent or the constraints clash; the two
    must agree on the clash after every constraint.
    """
    chain, net = ChainNetwork(SPEECH), TemporalNetwork.over([SPEECH]).close()
    ctx = TenseResolutionContext(speech_time=SPEECH)
    for i, tense in enumerate(tenses, start=1):
        clause = Clause(id=f"c{i}", subject="Max", verb="slip", tense=tense)
        try:
            result = resolve_tense(clause, ctx)
        except UnresolvedReferenceTimeError:
            return None
        chain.append(result.event_time)
        net = net.add_point(result.event_time)
        for a, b, rel in result.new_constraints:
            chain.assert_constraint(a.id, b.id, rel)
            net = net.assert_constraint(a, b, rel)
            assert chain.inconsistent == net.inconsistent, (tenses, a.id, b.id, rel)
            if net.inconsistent:
                assert chain.network() == net.close()
                return None
        ctx = ctx.remember(result.event_time)
    assert chain.network() == net
    return chain, net


def assert_edge(chain, net, k, direction):
    """The reference after edge k in `direction`, or None where both clash."""
    a, b = chain.events[k].id, chain.events[k + 1].id
    reference = net
    if direction:
        reference = net.assert_constraint(*((a, b) if direction == FORWARD else (b, a)), PointRelation.PRECEDES)
    clash = chain.clashes(k, direction)
    assert clash == reference.inconsistent, (chain.sides, chain.edges, k, direction)
    return None if clash else reference


def assert_reading(chain, net, directions):
    """The chain of a reading has the reference's network and event order."""
    reading = chain.with_edges(directions)
    assert reading.network() == net
    ids = [point.id for point in chain.events]
    expected = []
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            rel = net.query(a, b)
            if rel is PointRelation.PRECEDES:
                expected.append((a, b))
            elif rel is PointRelation.FOLLOWS:
                expected.append((b, a))
    assert reading.precedences() == tuple(expected), (chain.sides, reading.edges)


def walk(chain, net, k, directions):
    """Every choice of edge from pair k on, each checked against the reference."""
    if k == len(chain.events) - 1:
        assert_reading(chain, net, directions)
        return 1
    readings = 0
    for direction in DIRECTIONS:
        after = assert_edge(chain, net, k, direction)
        if after is not None:
            readings += walk(chain, after, k + 1, directions + [direction])
    return readings


def test_chain_agrees_with_temporal_network_on_every_short_discourse():
    """Every sequence of the four tenses up to MAX_CLAUSES clauses, crossed with
    every edge per adjacent pair: forward, backward or none."""
    readings = 0
    for n in range(1, MAX_CLAUSES + 1):
        for tenses in itertools.product(TenseForm, repeat=n):
            built = tense_stage(tenses)
            if built is not None:
                chain, net = built
                readings += walk(chain, net, 0, [])
    assert readings == 73_224


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_chain_agrees_with_temporal_network_on_long_discourses(seed):
    """7 to 80 clauses; an edge that clashes is dropped, as the search drops it."""
    rng = random.Random(seed)
    weights = [rng.random() for _ in TenseForm]
    tenses = rng.choices(list(TenseForm), weights=weights, k=rng.randint(7, 80))
    if rng.random() < 0.8:
        # Mostly tenses that do not clash, so that most draws reach the edges:
        # a past perfect needs an antecedent that is not at or after speech.
        for i, tense in enumerate(tenses):
            if tense is TenseForm.PPERF and (i == 0 or tenses[i - 1] in (TenseForm.SPRES, TenseForm.SFUT)):
                tenses[i] = TenseForm.SPAST
    built = tense_stage(tenses)
    if built is None:
        return
    chain, net = built
    directions = []
    for k in range(len(tenses) - 1):
        direction = rng.choice(DIRECTIONS)
        after = assert_edge(chain, net, k, direction)
        if after is None:
            direction = 0
            after = assert_edge(chain, net, k, direction)
        net, directions = after, directions + [direction]
    assert_reading(chain, net, directions)


def test_an_event_needs_its_side_before_the_next():
    """Every tense places its event on a side of speech; the chain relies on it."""
    chain = ChainNetwork(SPEECH)
    chain.append(TimePoint(id="t_c1", kind=PointKind.EVENT, source_clause="c1"))
    with pytest.raises(ValueError):
        chain.append(TimePoint(id="t_c2", kind=PointKind.EVENT, source_clause="c2"))
