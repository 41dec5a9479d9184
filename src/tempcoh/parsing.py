"""Parsers for the annotated discourse notation, the verb lexicon, and causal axioms.

All three inputs are UTF-8, line oriented. Blank lines are skipped and a
line whose first non-blank character is `#` is a comment.

Discourse file::

    @context question="What bad things happened to Max today?"   (optional, first)
    clause id=c1 subj=Max verb=slip tense=SPAST
    clause id=c2 conn=because subj=he verb=spill obj="a bucket of water" tense=PPERF

Clause fields may appear in any order after the `clause` keyword. `id`,
`subj`, `verb` and `tense` are required; `conn` (one of because, and_so,
and_also) and `obj` are optional. Identifiers are ASCII alphanumerics
plus underscore; quoted values use double quotes with `\\` and `\"`
escapes. `subj` accepts either form, `obj` and the context question must
be quoted. Subjects and objects are carried as opaque display strings,
the interpreter never looks inside them.

Lexicon file::

    verb slip class=achievement
    verb spill class=accomplishment

Axiom file (cause first, effect second)::

    cause spill slip

Every malformed line raises :class:`ParseError` with the 1-based line
and column; nothing is silently dropped.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Mapping

_IDENT_RE = re.compile(r"[A-Za-z0-9_]+")


class TenseForm(Enum):
    SPAST = "SPAST"
    SPRES = "SPRES"
    SFUT = "SFUT"
    PPERF = "PPERF"


class ConnectiveForm(Enum):
    BECAUSE = "because"
    AND_SO = "and_so"
    AND_ALSO = "and_also"


class AspectClass(Enum):
    ACCOMPLISHMENT = "accomplishment"
    ACHIEVEMENT = "achievement"


class ParseError(ValueError):
    """Input rejected, with the 1-based position of the offending token."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.reason = message
        self.line = line
        self.column = column


class UnknownVerbError(ParseError):
    """A clause used a verb lemma the loaded lexicon does not define."""


class UnknownLemmaError(ValueError):
    """A causal axiom names a lemma absent from the lexicon."""


@dataclass(frozen=True)
class Clause:
    """One annotated utterance unit of a discourse."""

    id: str
    subject: str
    verb: str
    tense: TenseForm
    object: str | None = None
    connective: ConnectiveForm | None = None


@dataclass(frozen=True)
class Discourse:
    """An ordered, non-empty sequence of clauses, optionally under a topic question."""

    clauses: tuple[Clause, ...]
    context_question: str | None = None

    def __post_init__(self) -> None:
        if not self.clauses:
            raise ValueError("a discourse must contain at least one clause")
        ids = [c.id for c in self.clauses]
        if len(set(ids)) != len(ids):
            raise ValueError("clause ids must be unique within a discourse")
        if self.clauses[0].connective is not None:
            raise ValueError("the first clause of a discourse cannot carry a connective")


@dataclass(frozen=True)
class Lexicon:
    """Verb lemma to aspect-class map; only point-like event classes are accepted."""

    entries: Mapping[str, AspectClass]

    def __contains__(self, lemma: str) -> bool:
        return lemma in self.entries

    def aspect_of(self, lemma: str) -> AspectClass:
        return self.entries[lemma]


@dataclass(frozen=True)
class CausalAxiom:
    """States that `cause` events can bring about `effect` events."""

    cause: str
    effect: str


class _Scanner:
    """Single-line cursor with 1-based column reporting."""

    def __init__(self, text: str, line: int):
        self.text = text
        self.line = line
        self.pos = 0

    @property
    def column(self) -> int:
        return self.pos + 1

    def error(self, message: str, column: int | None = None) -> ParseError:
        return ParseError(message, self.line, self.column if column is None else column)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def word(self, what: str = "identifier") -> str:
        match = _IDENT_RE.match(self.text, self.pos)
        if not match:
            raise self.error(f"expected {what}")
        self.pos = match.end()
        return match.group()

    def expect(self, char: str) -> None:
        if self.peek() != char:
            raise self.error(f"expected {char!r}")
        self.pos += 1

    def quoted(self) -> str:
        start = self.column
        self.expect('"')
        out: list[str] = []
        while True:
            if self.at_end():
                raise self.error("unterminated quoted string", start)
            ch = self.text[self.pos]
            self.pos += 1
            if ch == '"':
                return "".join(out)
            if ch == "\\":
                if self.at_end():
                    raise self.error("unterminated escape sequence", start)
                esc = self.text[self.pos]
                self.pos += 1
                if esc not in ('"', "\\"):
                    raise self.error(f"unsupported escape sequence \\{esc}", self.column - 2)
                out.append(esc)
            else:
                out.append(ch)

    def value(self) -> tuple[str, bool, int]:
        """Read a bare identifier or quoted string; returns (text, quoted?, column)."""
        col = self.column
        if self.peek() == '"':
            return self.quoted(), True, col
        return self.word("a value"), False, col


def _content_lines(text: str):
    # Split on \n only: splitlines() would also break the line at control
    # characters that are legal inside quoted strings.
    for line_no, raw in enumerate(text.split("\n"), start=1):
        scanner = _Scanner(raw.removesuffix("\r"), line_no)
        scanner.skip_ws()
        if scanner.at_end() or scanner.peek() == "#":
            continue
        yield scanner


_CLAUSE_KEYS = ("id", "conn", "subj", "verb", "obj", "tense")
_REQUIRED_CLAUSE_KEYS = ("id", "subj", "verb", "tense")


def _scan_fields(scanner: _Scanner) -> dict[str, tuple[str, bool, int]]:
    fields: dict[str, tuple[str, bool, int]] = {}
    while True:
        scanner.skip_ws()
        if scanner.at_end():
            return fields
        key_col = scanner.column
        key = scanner.word("a field name")
        if key not in _CLAUSE_KEYS:
            raise scanner.error(f"unknown field {key!r}", key_col)
        if key in fields:
            raise scanner.error(f"duplicate field {key!r}", key_col)
        scanner.expect("=")
        fields[key] = scanner.value()


def _bare(field: str, value: tuple[str, bool, int], scanner: _Scanner) -> tuple[str, int]:
    text, was_quoted, col = value
    if was_quoted:
        raise scanner.error(f"{field} must be a bare identifier, not a quoted string", col)
    return text, col


def parse_discourse(text: str, lexicon: Lexicon) -> Discourse:
    """Parse a discourse file, validating verbs against `lexicon`.

    Clause order in the result equals line order in the input.
    """
    clauses: list[Clause] = []
    question: str | None = None
    seen_ids: set[str] = set()
    last_line = 0
    for scanner in _content_lines(text):
        last_line = scanner.line
        head_col = scanner.column
        if scanner.peek() == "@":
            scanner.pos += 1
            directive = scanner.word("a directive name")
            if directive != "context":
                raise scanner.error(f"unknown directive @{directive}", head_col)
            if clauses:
                raise scanner.error("@context must precede all clauses", head_col)
            if question is not None:
                raise scanner.error("duplicate @context header", head_col)
            scanner.skip_ws()
            key_col = scanner.column
            key = scanner.word("a field name")
            if key != "question":
                raise scanner.error(f"@context takes question=..., not {key!r}", key_col)
            scanner.expect("=")
            question = scanner.quoted()
            scanner.skip_ws()
            if not scanner.at_end():
                raise scanner.error("unexpected trailing text")
            continue
        keyword = scanner.word("'clause' or '@context'")
        if keyword != "clause":
            raise scanner.error(f"expected 'clause' or '@context', got {keyword!r}", head_col)
        fields = _scan_fields(scanner)
        for required in _REQUIRED_CLAUSE_KEYS:
            if required not in fields:
                raise scanner.error(f"clause is missing required field {required!r}", head_col)

        clause_id, id_col = _bare("id", fields["id"], scanner)
        if clause_id in seen_ids:
            raise scanner.error(f"duplicate clause id {clause_id!r}", id_col)
        seen_ids.add(clause_id)

        verb, verb_col = _bare("verb", fields["verb"], scanner)
        if verb not in lexicon:
            raise UnknownVerbError(
                f"unknown verb lemma {verb!r}", scanner.line, verb_col
            )

        tense_text, tense_col = _bare("tense", fields["tense"], scanner)
        try:
            tense = TenseForm(tense_text)
        except ValueError:
            expected = "/".join(t.value for t in TenseForm)
            raise ParseError(
                f"unknown tense {tense_text!r} (expected {expected})", scanner.line, tense_col
            ) from None

        connective: ConnectiveForm | None = None
        if "conn" in fields:
            conn_text, conn_col = _bare("conn", fields["conn"], scanner)
            try:
                connective = ConnectiveForm(conn_text)
            except ValueError:
                expected = "/".join(c.value for c in ConnectiveForm)
                raise ParseError(
                    f"unknown connective {conn_text!r} (expected {expected})",
                    scanner.line,
                    conn_col,
                ) from None
            if not clauses:
                raise scanner.error("the first clause cannot carry a connective", conn_col)

        subject = fields["subj"][0]
        obj: str | None = None
        if "obj" in fields:
            obj_text, obj_quoted, obj_col = fields["obj"]
            if not obj_quoted:
                raise scanner.error("obj must be a quoted string", obj_col)
            obj = obj_text

        clauses.append(
            Clause(
                id=clause_id,
                subject=subject,
                verb=verb,
                tense=tense,
                object=obj,
                connective=connective,
            )
        )
    if not clauses:
        raise ParseError("discourse contains no clauses", max(last_line, 1), 1)
    return Discourse(clauses=tuple(clauses), context_question=question)


def parse_lexicon(text: str) -> Lexicon:
    """Parse `verb <lemma> class=<accomplishment|achievement>` lines."""
    entries: dict[str, AspectClass] = {}
    for scanner in _content_lines(text):
        head_col = scanner.column
        keyword = scanner.word("'verb'")
        if keyword != "verb":
            raise scanner.error(f"expected 'verb', got {keyword!r}", head_col)
        scanner.skip_ws()
        lemma_col = scanner.column
        lemma = scanner.word("a verb lemma")
        if lemma in entries:
            raise scanner.error(f"duplicate lemma {lemma!r}", lemma_col)
        scanner.skip_ws()
        key_col = scanner.column
        key = scanner.word("'class'")
        if key != "class":
            raise scanner.error(f"expected class=..., got {key!r}", key_col)
        scanner.expect("=")
        class_col = scanner.column
        class_text = scanner.word("an aspect class")
        try:
            entries[lemma] = AspectClass(class_text)
        except ValueError:
            expected = "/".join(a.value for a in AspectClass)
            raise ParseError(
                f"unknown aspect class {class_text!r} (expected {expected})",
                scanner.line,
                class_col,
            ) from None
        scanner.skip_ws()
        if not scanner.at_end():
            raise scanner.error("unexpected trailing text")
    return Lexicon(entries=entries)


def parse_axioms(text: str) -> list[CausalAxiom]:
    """Parse `cause <lemma> <lemma>` lines; duplicates are dropped, order kept."""
    axioms: dict[CausalAxiom, None] = {}
    for scanner in _content_lines(text):
        head_col = scanner.column
        keyword = scanner.word("'cause'")
        if keyword != "cause":
            raise scanner.error(f"expected 'cause', got {keyword!r}", head_col)
        scanner.skip_ws()
        cause = scanner.word("a cause lemma")
        scanner.skip_ws()
        effect = scanner.word("an effect lemma")
        scanner.skip_ws()
        if not scanner.at_end():
            raise scanner.error("unexpected trailing text")
        axioms[CausalAxiom(cause=cause, effect=effect)] = None
    return list(axioms)


def validate_axioms(axioms: list[CausalAxiom], lexicon: Lexicon) -> None:
    """Check that every axiom lemma resolves against the lexicon."""
    for axiom in axioms:
        for lemma in (axiom.cause, axiom.effect):
            if lemma not in lexicon:
                raise UnknownLemmaError(
                    f"axiom lemma {lemma!r} is not defined in the lexicon"
                )


def _quote(text: str) -> str:
    if "\n" in text or "\r" in text:
        raise ValueError("strings in the line-oriented format cannot contain newlines")
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _ident_or_quote(text: str) -> str:
    return text if _IDENT_RE.fullmatch(text) else _quote(text)


def serialize_discourse(discourse: Discourse) -> str:
    """Render a discourse in canonical form; `parse_discourse` inverts it."""
    lines: list[str] = []
    if discourse.context_question is not None:
        lines.append(f"@context question={_quote(discourse.context_question)}")
    for clause in discourse.clauses:
        if not _IDENT_RE.fullmatch(clause.id):
            raise ValueError(f"clause id {clause.id!r} is not serializable")
        if not _IDENT_RE.fullmatch(clause.verb):
            raise ValueError(f"verb lemma {clause.verb!r} is not serializable")
        parts = [f"clause id={clause.id}"]
        if clause.connective is not None:
            parts.append(f"conn={clause.connective.value}")
        parts.append(f"subj={_ident_or_quote(clause.subject)}")
        parts.append(f"verb={clause.verb}")
        if clause.object is not None:
            parts.append(f"obj={_quote(clause.object)}")
        parts.append(f"tense={clause.tense.value}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"
