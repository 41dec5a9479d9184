"""Temporal interpretation of small annotated discourses.

Tenses mint new event times under constraints against a reference time,
and the coherence relation between adjacent clauses (narration,
explanation, parallel, cause-effect) refines the ordering further. The
package parses a small clause notation, maintains a point-algebra
constraint network, and judges discourses felicitous or not with
deterministic diagnostics.
"""

from .coherence import (
    CONNECTIVE_RELATIONS,
    CoherenceRelation,
    CueSet,
    RelationKind,
    candidate_relations,
    derive_cues,
    relation_constraint,
    semantic_support,
)
from .interpret import (
    CaseResult,
    CorpusError,
    CorpusReport,
    Diagnostic,
    DiagnosticCode,
    Interpretation,
    build_tense_network,
    enumerate_assignments,
    interpret,
    interpretation_to_dict,
    render_json,
    run_corpus,
)
from .network import (
    DuplicatePointError,
    InconsistentNetworkError,
    PointKind,
    PointRelation,
    TemporalNetwork,
    TimePoint,
    UnknownPointError,
)
from .parsing import (
    AspectClass,
    CausalAxiom,
    Clause,
    ConnectiveForm,
    Discourse,
    Lexicon,
    ParseError,
    TenseForm,
    UnknownLemmaError,
    UnknownVerbError,
    parse_axioms,
    parse_discourse,
    parse_lexicon,
    serialize_discourse,
    validate_axioms,
)
from .tense import (
    TenseResolutionContext,
    TenseResult,
    UnresolvedReferenceTimeError,
    event_point_id,
    resolve_tense,
)

__version__ = "0.1.0"

__all__ = [
    "AspectClass",
    "CONNECTIVE_RELATIONS",
    "CaseResult",
    "CausalAxiom",
    "Clause",
    "CoherenceRelation",
    "ConnectiveForm",
    "CorpusError",
    "CorpusReport",
    "CueSet",
    "Diagnostic",
    "DiagnosticCode",
    "Discourse",
    "DuplicatePointError",
    "InconsistentNetworkError",
    "Interpretation",
    "Lexicon",
    "ParseError",
    "PointKind",
    "PointRelation",
    "RelationKind",
    "TemporalNetwork",
    "TenseForm",
    "TenseResolutionContext",
    "TenseResult",
    "TimePoint",
    "UnknownLemmaError",
    "UnknownPointError",
    "UnknownVerbError",
    "UnresolvedReferenceTimeError",
    "build_tense_network",
    "candidate_relations",
    "derive_cues",
    "enumerate_assignments",
    "event_point_id",
    "interpret",
    "interpretation_to_dict",
    "parse_axioms",
    "parse_discourse",
    "parse_lexicon",
    "relation_constraint",
    "render_json",
    "resolve_tense",
    "run_corpus",
    "semantic_support",
    "serialize_discourse",
    "validate_axioms",
]
