"""Point-algebra constraint networks over time points.

The only temporal vocabulary the interpreter ever writes is strict
precedence and equality between points, so the network supports exactly
the relations {<, >, =, unconstrained}. FOLLOWS is never stored: a
constraint a > b is canonicalized to b < a, and EQUALS is stored under
the lexicographically sorted point pair. Absent pairs are unconstrained.

Networks are immutable values. Asserting a constraint computes the meet
with whatever is already known about the pair; a contradictory meet
marks the result inconsistent instead of raising, so callers can treat
a clash as evidence against a hypothesis rather than a crash. One step,
`_entail`, adds a constraint and all it entails to a closed store, so a
closed network stays closed under assertion, and `close`, which computes
the full set of entailed constraints (and detects derived inconsistencies),
is a fold of that step. `query` reports the strongest relation that holds
in every total preorder satisfying the constraints; `precedences` lists
every entailed precedence among a list of points, checking the network
and the ids once rather than once per pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import product
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

    def precedences(self, ids: Sequence[str]) -> tuple[tuple[str, str], ...]:
        """Each entailed `a < b` between two of `ids`, as `(a, b)`.

        Pairs are taken in list order: for i < j, `(ids[i], ids[j])` if the
        first precedes, `(ids[j], ids[i])` if it follows, nothing otherwise.
        The result is what `query` gives pair by pair, and it raises as
        `query` does, but it closes and checks the network and the ids once.
        """
        net = self if self.closed else self.close()
        if net.inconsistent:
            raise InconsistentNetworkError("cannot query an inconsistent network")
        ids = [net._resolve(pid) for pid in ids]
        get = net.constraints.get
        precedes = PointRelation.PRECEDES
        order: list[tuple[str, str]] = []
        for i, a in enumerate(ids):
            for b in ids[i + 1 :]:
                # `a = b` is stored as `=`, never as `<`, under either order.
                if get((a, b)) is precedes:
                    order.append((a, b))
                elif get((b, a)) is precedes:
                    order.append((b, a))
        return tuple(order)
