"""Tense resolution: each clause mints a fresh event time.

A main-verb tense introduces a new event point constrained against a
reference time. For the simple tenses the reference time is the speech
time, so they carry no anaphora: a simple past only says the event
precedes speech, a simple present equates it with speech, a simple
future puts it after speech. The past perfect is different: its tensed
auxiliary picks up the most recently introduced event time as the
reference time, the new event point is placed before that, and the
resolved reference time itself is placed before speech. A past perfect
with nothing salient to anchor to has no interpretation; that is a
defect of the discourse, not of the clause, and is raised as
:class:`UnresolvedReferenceTimeError` for the interpreter to report.
"""

from __future__ import annotations

from dataclasses import dataclass

from .network import PointKind, PointRelation, TimePoint
from .parsing import Clause, TenseForm

EVENT_POINT_PREFIX = "t_"


def event_point_id(clause_id: str) -> str:
    """Deterministic id of the event point minted for a clause."""
    return EVENT_POINT_PREFIX + clause_id


class UnresolvedReferenceTimeError(Exception):
    """Past perfect used where no event time has been introduced yet."""

    def __init__(self, clause_id: str):
        super().__init__(
            f"clause {clause_id}: the past perfect depends on a previously "
            "introduced event time, but none is available"
        )
        self.clause_id = clause_id


@dataclass(frozen=True)
class TenseResolutionContext:
    """Speech time plus the most recently introduced event time, if any.

    That event time is the only one a past perfect can anchor to, so it is
    all the context keeps; `remember` replaces it.
    """

    speech_time: TimePoint
    last_event_time: TimePoint | None = None

    def __post_init__(self) -> None:
        point = self.last_event_time
        if point is not None and point.kind is not PointKind.EVENT:
            raise ValueError(f"salient time {point.id!r} is not an event point")

    def remember(self, event_time: TimePoint) -> "TenseResolutionContext":
        return TenseResolutionContext(self.speech_time, event_time)


@dataclass(frozen=True)
class TenseResult:
    """A freshly minted event point, its reference time, and the constraints to assert."""

    event_time: TimePoint
    reference_time: TimePoint
    new_constraints: tuple[tuple[TimePoint, TimePoint, PointRelation], ...]


def resolve_tense(clause: Clause, ctx: TenseResolutionContext) -> TenseResult:
    """Mint the event point for `clause` and order it against its reference time.

    Raises :class:`UnresolvedReferenceTimeError` for a past perfect when
    the context holds no salient event time.
    """
    event = TimePoint(
        id=event_point_id(clause.id), kind=PointKind.EVENT, source_clause=clause.id
    )
    speech = ctx.speech_time
    if clause.tense is TenseForm.SPAST:
        constraints = ((event, speech, PointRelation.PRECEDES),)
        reference = speech
    elif clause.tense is TenseForm.SPRES:
        constraints = ((event, speech, PointRelation.EQUALS),)
        reference = speech
    elif clause.tense is TenseForm.SFUT:
        constraints = ((speech, event, PointRelation.PRECEDES),)
        reference = speech
    else:  # PPERF
        reference = ctx.last_event_time
        if reference is None:
            raise UnresolvedReferenceTimeError(clause.id)
        constraints = (
            (event, reference, PointRelation.PRECEDES),
            (reference, speech, PointRelation.PRECEDES),
        )
    return TenseResult(
        event_time=event, reference_time=reference, new_constraints=constraints
    )
