"""Point-algebra constraint networks over time points.

The only temporal vocabulary the interpreter ever writes is strict
precedence and equality between points, so the network supports exactly
the relations {<, >, =, unconstrained}. FOLLOWS is never stored: a
constraint a > b is canonicalized to b < a, and EQUALS is stored under
the lexicographically sorted point pair. Absent pairs are unconstrained.

Networks are immutable values. Asserting a constraint computes the meet
with whatever is already known about the pair; a contradictory meet
marks the result inconsistent instead of raising, so callers can treat
a clash as evidence against a hypothesis rather than a crash. `close`
computes the full set of entailed constraints (and detects derived
inconsistencies); `query` reports the strongest relation that holds in
every total preorder satisfying the constraints.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterable


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


@dataclass(frozen=True)
class TemporalNetwork:
    """Immutable constraint store over time points.

    `constraints` holds the canonical form described in the module
    docstring. `closed` records whether the store currently equals its
    own transitive closure; `inconsistent` records that no total
    preorder satisfies the asserted constraints (set either by a direct
    contradictory assertion or by `close`).
    """

    points: dict[str, TimePoint] = field(default_factory=dict)
    constraints: dict[tuple[str, str], PointRelation] = field(default_factory=dict)
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

    def _stored(self, a: str, b: str) -> PointRelation:
        if a == b:
            return PointRelation.EQUALS
        if self.constraints.get((a, b)) is PointRelation.PRECEDES:
            return PointRelation.PRECEDES
        if self.constraints.get((b, a)) is PointRelation.PRECEDES:
            return PointRelation.FOLLOWS
        if self.constraints.get((min(a, b), max(a, b))) is PointRelation.EQUALS:
            return PointRelation.EQUALS
        return PointRelation.UNCONSTRAINED

    def assert_constraint(
        self, a: "TimePoint | str", b: "TimePoint | str", rel: PointRelation
    ) -> "TemporalNetwork":
        """Return a network knowing the meet of `rel` and the current (a, b) relation.

        A contradictory meet (for example a < b against a = b) returns a
        network flagged inconsistent; the stored constraints are left as
        they were.
        """
        a_id = self._resolve(a)
        b_id = self._resolve(b)
        if rel is PointRelation.UNCONSTRAINED:
            return self
        if a_id == b_id:
            if rel is PointRelation.EQUALS:
                return self
            return replace(self, inconsistent=True)
        current = self._stored(a_id, b_id)
        if current is rel:
            return self
        if current is not PointRelation.UNCONSTRAINED:
            return replace(self, inconsistent=True)
        key, stored = _canonical_entry(a_id, b_id, rel)
        constraints = dict(self.constraints)
        constraints[key] = stored
        return replace(self, constraints=constraints, closed=False)

    def close(self) -> "TemporalNetwork":
        """Return the transitively closed network, flagging derived clashes.

        Equality classes are collapsed first; the strict precedences then
        form a digraph over the classes, and the network is consistent
        exactly when that digraph is acyclic and no strict edge stays
        inside a class. The closed store holds one entry per entailed
        pair, which makes `query` a lookup. An inconsistent network
        closes to a canonical empty store (the residual constraints
        carry no information), so equal constraint sets close to equal
        networks regardless of assertion order.
        """
        if self.closed:
            return self
        if self.inconsistent:
            return replace(self, constraints={}, closed=True)

        parent = {pid: pid for pid in self.points}

        def find(x: str) -> str:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for (a, b), rel in self.constraints.items():
            if rel is PointRelation.EQUALS:
                ra, rb = find(a), find(b)
                if ra != rb:
                    # Attach the larger root under the smaller for determinism.
                    lo, hi = (ra, rb) if ra < rb else (rb, ra)
                    parent[hi] = lo

        edges: dict[str, set[str]] = {}
        for (a, b), rel in self.constraints.items():
            if rel is PointRelation.PRECEDES:
                ra, rb = find(a), find(b)
                if ra == rb:
                    return replace(self, constraints={}, inconsistent=True, closed=True)
                edges.setdefault(ra, set()).add(rb)

        reach: dict[str, set[str]] = {}
        roots = {find(pid) for pid in self.points}
        for root in roots:
            seen: set[str] = set()
            stack = list(edges.get(root, ()))
            while stack:
                node = stack.pop()
                if node in seen:
                    continue
                seen.add(node)
                stack.extend(edges.get(node, ()))
            if root in seen:
                return replace(self, constraints={}, inconsistent=True, closed=True)
            reach[root] = seen

        ids = sorted(self.points)
        constraints: dict[tuple[str, str], PointRelation] = {}
        for i, a in enumerate(ids):
            ra = find(a)
            for b in ids[i + 1 :]:
                rb = find(b)
                if ra == rb:
                    constraints[(a, b)] = PointRelation.EQUALS
                elif rb in reach[ra]:
                    constraints[(a, b)] = PointRelation.PRECEDES
                elif ra in reach[rb]:
                    constraints[(b, a)] = PointRelation.PRECEDES
        return replace(self, constraints=constraints, closed=True)

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
        return net._stored(a_id, b_id)
