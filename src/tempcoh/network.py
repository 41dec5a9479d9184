"""Point-algebra constraint networks over time points.

The only temporal vocabulary the interpreter ever writes is strict
precedence and equality between points, so the networks support exactly
the relations {<, >, =, unconstrained}. Two structures hold them.

`ChainNetwork` is the one the interpreter runs on. Every constraint it
writes relates an event to speech (a tense) or two adjacent events (a
past perfect or a coherence relation), so its network is a line of
events plus a speech hub. For {<, =} closure is complete (Vilain & Kautz
1986), and on this shape it reduces to two facts: e_i < e_j holds when
every edge between them points from i to j, or when e_i is at or before
speech and e_j at or after it, at least one strictly. Every tense places
its event on a side of speech, so the chain keeps each event's side and
the direction of its edge to the next event: a clash check costs O(1),
and the event order O(n + output).

`TemporalNetwork` is the general network and the chain's reference: an
immutable value over any points and constraints. FOLLOWS is never stored:
a constraint a > b is canonicalized to b < a, and EQUALS is stored under
the lexicographically sorted point pair. Absent pairs are unconstrained.
Asserting a constraint computes the meet with whatever is already known
about the pair; a contradictory meet marks the result inconsistent
instead of raising, so callers can treat a clash as evidence against a
hypothesis rather than a crash. One step, `_entail`, adds a constraint and
all it entails to a closed store, so a closed network stays closed under
assertion, and `close`, which computes the full set of entailed
constraints (and detects derived inconsistencies), is a fold of that
step. `query` reports the strongest relation that holds in every total
preorder satisfying the constraints. `ChainNetwork.network` builds the
`TemporalNetwork` of a chain, for callers that read it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import accumulate, chain, combinations, product, repeat
from typing import Collection, Iterable, Sequence


class PointKind(Enum):
    EVENT = "EVENT"
    SPEECH = "SPEECH"


class PointRelation(Enum):
    PRECEDES = "<"
    FOLLOWS = ">"
    EQUALS = "="
    UNCONSTRAINED = "?"

    def inverse(self) -> "PointRelation":
        if self is PointRelation.PRECEDES:
            return PointRelation.FOLLOWS
        if self is PointRelation.FOLLOWS:
            return PointRelation.PRECEDES
        return self


class UnknownPointError(KeyError):
    """A constraint or query referenced a point id not in the network."""


class DuplicatePointError(ValueError):
    """A point with this id (or a second speech point) was already added."""


class InconsistentNetworkError(RuntimeError):
    """Raised when querying a network that admits no satisfying preorder."""


@dataclass(frozen=True)
class TimePoint:
    """A temporal entity: an event time or the speech time."""

    id: str
    kind: PointKind
    source_clause: str | None = None

    def __post_init__(self) -> None:
        if self.kind is not PointKind.SPEECH and self.source_clause is None:
            raise ValueError(
                f"{self.kind.name.lower()} point {self.id!r} must carry a source clause"
            )


def _canonical_entry(a: str, b: str, rel: PointRelation) -> tuple[tuple[str, str], PointRelation]:
    if rel is PointRelation.FOLLOWS:
        return (b, a), PointRelation.PRECEDES
    if rel is PointRelation.EQUALS:
        return (min(a, b), max(a, b)), PointRelation.EQUALS
    return (a, b), PointRelation.PRECEDES


_Store = dict[tuple[str, str], PointRelation]


def _relation(store: _Store, a: str, b: str) -> PointRelation:
    if a == b:
        return PointRelation.EQUALS
    if store.get((a, b)) is PointRelation.PRECEDES:
        return PointRelation.PRECEDES
    if store.get((b, a)) is PointRelation.PRECEDES:
        return PointRelation.FOLLOWS
    if store.get((min(a, b), max(a, b))) is PointRelation.EQUALS:
        return PointRelation.EQUALS
    return PointRelation.UNCONSTRAINED


def _side(points: Collection[str], store: _Store, x: str, after: bool) -> list[str]:
    """x and the points p <= x (p >= x if `after`) in a closed store.

    A stored (p, x) is p < x or p = x; a stored (x, p) is x < p unless it is
    `=`, which is stored under the sorted pair.
    """
    if x not in points:
        return [x]
    eq = PointRelation.EQUALS
    if after:
        return [x] + [q for q in points if (x, q) in store or q < x and store.get((q, x)) is eq]
    return [x] + [p for p in points if (p, x) in store or x < p and store.get((x, p)) is eq]


def _entail(points: Collection[str], store: _Store, x: str, y: str, rel: PointRelation) -> None:
    """Add `x rel y` (rel < or =) and every pair it entails to `store`, in place.

    `store` must be closed and consistent, x and y unordered in it, and
    `points` must hold every point it relates to another. The new pairs are
    p ? q for p <= x and y <= q, for `=` also for p <= y and x <= q: strict
    unless both are in the merged class. None was ordered the other way.
    """
    below_x, above_y = _side(points, store, x, False), _side(points, store, y, True)
    if rel is PointRelation.PRECEDES:
        store.update(dict.fromkeys(product(below_x, above_y), rel))
        return
    below_y, above_x = _side(points, store, y, False), _side(points, store, x, True)
    x_class = set(below_x).intersection(above_x)
    y_class = set(below_y).intersection(above_y)
    for below, above in ((below_x, above_y), (below_y, above_x)):
        store.update(dict.fromkeys(product(below, above), PointRelation.PRECEDES))
    # Both products ordered the merged class within itself; it is one class.
    for p in x_class:
        for q in y_class:
            del store[p, q], store[q, p]
            store[(p, q) if p < q else (q, p)] = rel


@dataclass(frozen=True)
class TemporalNetwork:
    """Immutable constraint store over time points.

    `constraints` holds the canonical form described in the module
    docstring. `closed` records whether the store equals its own
    transitive closure, which assertion keeps; `inconsistent` records that
    no total preorder satisfies the asserted constraints (set either by a
    direct contradictory assertion or by `close`).
    """

    points: dict[str, TimePoint] = field(default_factory=dict)
    constraints: _Store = field(default_factory=dict)
    inconsistent: bool = False
    closed: bool = False

    @classmethod
    def over(cls, points: Iterable[TimePoint]) -> "TemporalNetwork":
        net = cls()
        for point in points:
            net = net.add_point(point)
        return net

    def add_point(self, point: TimePoint) -> "TemporalNetwork":
        if point.id in self.points:
            raise DuplicatePointError(f"point id {point.id!r} already present")
        if point.kind is PointKind.SPEECH and any(
            p.kind is PointKind.SPEECH for p in self.points.values()
        ):
            raise DuplicatePointError("network already contains a speech point")
        points = dict(self.points)
        points[point.id] = point
        # An isolated point adds no constraints, so closure status is kept.
        return replace(self, points=points)

    def _resolve(self, point: "TimePoint | str") -> str:
        pid = point.id if isinstance(point, TimePoint) else point
        if pid not in self.points:
            raise UnknownPointError(pid)
        return pid

    def assert_constraint(
        self, a: "TimePoint | str", b: "TimePoint | str", rel: PointRelation
    ) -> "TemporalNetwork":
        """Return a network knowing the meet of `rel` and the current (a, b) relation.

        On a closed, consistent network the result is closed too; otherwise
        the constraint is only stored, and `close` derives the rest. A
        contradictory meet (for example a < b against a = b) returns a network
        flagged inconsistent and not closed, so `close` empties its store.
        """
        a_id, b_id = self._resolve(a), self._resolve(b)
        if rel is PointRelation.UNCONSTRAINED:
            return self
        current = _relation(self.constraints, a_id, b_id)
        if current is rel:
            return self
        if current is not PointRelation.UNCONSTRAINED:
            return replace(self, inconsistent=True, closed=False)
        (x, y), stored = _canonical_entry(a_id, b_id, rel)
        constraints = dict(self.constraints)
        if self.closed and not self.inconsistent:
            _entail(self.points, constraints, x, y, stored)
            return replace(self, constraints=constraints)
        constraints[x, y] = stored
        return replace(self, constraints=constraints, closed=False)

    def close(self) -> "TemporalNetwork":
        """Return the transitively closed network, flagging derived clashes.

        A fold of `_entail` over the stored constraints into one fresh store,
        in which a clash shows as a contradictory meet. The closed store holds
        one entry per entailed pair, which makes `query` a lookup. An
        inconsistent network closes to a canonical empty store (the residual
        constraints carry no information), so equal constraint sets close to
        equal networks regardless of assertion order.
        """
        if self.closed:
            return self
        if self.inconsistent:
            return replace(self, constraints={}, closed=True)
        store: _Store = {}
        touched: set[str] = set()  # the points `store` relates to another
        for (a, b), rel in self.constraints.items():
            current = _relation(store, a, b)
            if current is rel:
                continue
            if current is not PointRelation.UNCONSTRAINED:
                return replace(self, constraints={}, inconsistent=True, closed=True)
            _entail(touched, store, a, b, rel)
            touched.update((a, b))
        return replace(self, constraints=store, closed=True)

    def is_consistent(self) -> bool:
        """True iff at least one total preorder satisfies every constraint."""
        net = self if self.closed else self.close()
        return not net.inconsistent

    def query(self, a: "TimePoint | str", b: "TimePoint | str") -> PointRelation:
        """Strongest relation between a and b entailed by the constraints."""
        net = self if self.closed else self.close()
        if net.inconsistent:
            raise InconsistentNetworkError("cannot query an inconsistent network")
        a_id = net._resolve(a)
        b_id = net._resolve(b)
        return _relation(net.constraints, a_id, b_id)


# An event's side: its entailed relation to speech.
BEFORE, AT, AFTER = -1, 0, 1
# The direction of the edge between events k and k + 1: e_k < e_(k+1), the
# reverse, or 0 if there is no edge.
FORWARD, BACKWARD = 1, -1


def _cycle(side: int | None, next_side: int | None, direction: int) -> bool:
    """Whether an edge in `direction` from an event on `side` to the next event,
    on `next_side`, closes a cycle through speech: for FORWARD, the next event
    is at or before speech and the first at or after it."""
    return side is not None and next_side is not None and side * direction >= 0 >= next_side * direction


class ChainNetwork:
    """Speech plus a line of events: each event's side of speech, and an edge
    between each pair of neighbours.

    Edges are strict; equality comes only from a side AT speech. Every tense
    places its event on a side: a simple tense directly, a past perfect's event
    before its anchor, which it places before speech. So each event has its
    side once its clause is asserted, and an edge never changes one: e_i < e_j
    holds exactly when the edges between them all point from e_i to e_j, or
    when e_i's side is below e_j's (BEFORE < AT < AFTER).

    The tense stage builds the chain with `append` and `assert_constraint`,
    each O(1). The search then checks edges with `clashes`, O(1), without
    changing the chain, and `with_edges` gives the chain of one reading.
    """

    def __init__(self, speech: TimePoint) -> None:
        self.speech = speech
        self.events: list[TimePoint] = []
        self.sides: list[int | None] = []  # None until the event's clause places it
        self.edges: list[int] = []  # edges[k] joins events k and k + 1
        self.inconsistent = False

    def append(self, point: TimePoint) -> None:
        """Add an event after the last one, which must have its side by now."""
        if self.sides and self.sides[-1] is None:
            raise ValueError(f"event {self.events[-1].id!r} has no side of speech")
        if self.events:
            self.edges.append(0)
        self.events.append(point)
        self.sides.append(None)

    def _position(self, pid: str) -> int:
        """The position of `pid` among the last two events."""
        last = len(self.events) - 1
        for k in (last, last - 1):
            if k >= 0 and self.events[k].id == pid:
                return k
        raise UnknownPointError(f"{pid!r} is not one of the last two events")

    def assert_constraint(self, a: str, b: str, rel: PointRelation) -> None:
        """Meet `a rel b`, with `rel` PRECEDES or EQUALS, into the chain.

        One point is speech and the other one of the last two events, or the
        two are the last two events and `rel` is PRECEDES. A contradiction with
        what the chain entails flags it inconsistent, after which it takes no
        more constraints.
        """
        if self.inconsistent:
            return
        sides = self.sides
        if self.speech.id in (a, b):
            k = self._position(a if b == self.speech.id else b)
            side = AT if rel is PointRelation.EQUALS else BEFORE if b == self.speech.id else AFTER
            if sides[k] is not None and sides[k] != side:
                self.inconsistent = True
                return
            sides[k] = side
        else:
            if rel is not PointRelation.PRECEDES:
                raise ValueError("an edge between two events is a strict precedence")
            direction = self._position(b) - self._position(a)
            if direction not in (FORWARD, BACKWARD):
                raise ValueError("an edge joins the last two events")
            edge = self.edges[-1]
            if edge == -direction or not edge and _cycle(sides[-2], sides[-1], direction):
                self.inconsistent = True
                return
            self.edges[-1] = direction
        # The last event, if it has no side yet, gets one from its neighbour
        # when that is at or beyond speech on the edge's far side.
        edge = self.edges[-1] if self.edges else 0
        if sides[-1] is None and edge and sides[-2] is not None and sides[-2] * edge >= 0:
            sides[-1] = edge

    def clashes(self, k: int, direction: int) -> bool:
        """Whether edge k in `direction` (0: none) contradicts the chain: a
        contradictory meet on the edge, or a cycle through speech."""
        edge = self.edges[k]
        if not direction or edge == direction:
            return False
        return bool(edge) or _cycle(self.sides[k], self.sides[k + 1], direction)

    def with_edges(self, directions: Sequence[int]) -> "ChainNetwork":
        """The chain with edge k set to `directions[k]` wherever that is not 0,
        each checked with `clashes`."""
        reading = ChainNetwork(self.speech)
        reading.events, reading.sides = self.events, self.sides
        reading.edges = [direction or edge for direction, edge in zip(directions, self.edges)]
        return reading

    def precedences(self) -> tuple[tuple[str, str], ...]:
        """Each entailed `a < b` between two events, as `(a, b)`, in O(n + output).

        Pairs are taken in chain order: for i < j, `(e_i, e_j)` if e_i
        precedes, `(e_j, e_i)` if it follows, nothing otherwise, which is what
        `TemporalNetwork.query` gives pair by pair.
        """
        if self.inconsistent:
            raise InconsistentNetworkError("cannot query an inconsistent network")
        ids = [point.id for point in self.events]
        sides, edges = self.sides, self.edges
        ends = list(range(len(ids)))  # ends[i]: the last event of the run of one-way edges from i
        for k in range(len(edges) - 1, -1, -1):
            if edges[k]:
                ends[k] = ends[k + 1] if k + 1 < len(edges) and edges[k + 1] == edges[k] else k + 1
        # Events on one side of speech are not ordered through it, so the sides
        # matter only if there are two. Then members[side] lists the events on
        # `side`, and upto[side][k] counts those up to event k.
        members: dict[int, list[int]] = {}
        upto: dict[int, list[int]] = {}
        populated = set(sides)
        if len(populated) > 1:
            for side in populated:
                members[side] = [j for j, s in enumerate(sides) if s == side]
                upto[side] = list(accumulate(s == side for s in sides))
        order: list[tuple[str, str]] = []
        for i, (a, side, end) in enumerate(zip(ids, sides, ends)):
            if end > i:
                run = ids[i + 1 : end + 1]
                order.extend(zip(repeat(a), run) if edges[i] == FORWARD else zip(run, repeat(a)))
            if upto:
                later = sorted(chain.from_iterable(members[s][upto[s][end] :] for s in upto if s != side))
                order.extend((a, ids[j]) if sides[j] > side else (ids[j], a) for j in later)
        return tuple(order)

    def network(self) -> TemporalNetwork:
        """The closed `TemporalNetwork` of the chain: each pair it entails, read off it.

        That is the event order, each event's side of speech, and the
        equalities among speech and the events at it.
        """
        points = {point.id: point for point in (self.speech, *self.events)}
        if self.inconsistent:
            return TemporalNetwork(points, inconsistent=True, closed=True)
        precedes = PointRelation.PRECEDES
        store = dict.fromkeys(self.precedences(), precedes)
        speech = self.speech.id
        at = [speech]
        for point, side in zip(self.events, self.sides):
            if side == BEFORE:
                store[point.id, speech] = precedes
            elif side == AFTER:
                store[speech, point.id] = precedes
            else:
                at.append(point.id)
        store.update(dict.fromkeys(combinations(sorted(at), 2), PointRelation.EQUALS))
        return TemporalNetwork(points, store, closed=True)
