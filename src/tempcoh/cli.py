"""Command-line interface: single-discourse interpretation and corpus regression.

Exit codes: 0 success, 1 infelicitous verdict in plain (non `--json`)
single-file mode, 2 unreadable or malformed input (the message names the
file) or an output pipe whose reader has gone (nothing more is printed),
3 corpus failures, 4 internal error (the traceback goes to stderr).
JSON goes to stdout; `--trace` derivation lines go to stderr so stdout
stays machine-readable. `--all` writes each reading as the search finds
it, so after exit 2 or 4 its stdout may be cut short. The argument parser
is built once per process.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback
from functools import cache, lru_cache
from itertools import islice
from pathlib import Path

from .interpret import (
    CorpusError,
    _interpret,
    _order_records,
    _relation_records,
    _render,
    _row,
    interpret,
    interpretation_to_dict,
    render_json,
    run_corpus,
)
from .parsing import (
    ParseError,
    UnknownLemmaError,
    parse_axioms,
    parse_discourse,
    parse_lexicon,
    validate_axioms,
)


class _InputError(ValueError):
    """An input file that is not UTF-8 or not valid; the message names the file."""


def _parse(parse, path: Path, *args):
    """`parse` applied to the text of `path`, a leading byte-order mark dropped."""
    try:
        return parse(path.read_text(encoding="utf-8-sig"), *args)
    except (UnicodeDecodeError, ParseError) as exc:
        raise _InputError(f"{path}: {exc}") from exc


def _load_inputs(args):
    lexicon = _parse(parse_lexicon, args.lexicon)
    axioms = _parse(parse_axioms, args.axioms)
    try:
        validate_axioms(axioms, lexicon)
    except UnknownLemmaError as exc:
        raise _InputError(f"{args.axioms}: {exc}") from exc
    return lexicon, axioms


def _relation_line(rel) -> str:
    return f"{rel.kind.value}({rel.first}, {rel.second})"


def _json_pieces(data, readings):
    """`render_json` of `data` with an `assignments` list of `readings`, in pieces.

    The first piece is the verdict; each further one is a reading, laid out
    as the search yields it. A reading's relation rows are laid out by
    `_render`, and its event order's rows once per distinct order: readings
    with equal edges share one order (`_readings`). The two are filled into
    the row template of a record.
    """
    text = render_json({**data, "assignments": []})
    if not data["felicitous"]:  # only a felicitous verdict has readings, its own first
        yield text
        return
    yield text[: -len("]\n}\n")]
    item = "\n    "  # the line each reading starts on
    inner = item + "  "
    row = _row(("relations", "event_order"), item)
    order_rows = lru_cache(64)(lambda order: _render(_order_records(order), inner))
    sep = item
    for reading in readings:
        relations = _render(_relation_records(reading.relations), inner)
        yield sep + row % (relations, order_rows(reading.event_order))
        sep = "," + item
    yield "\n  ]\n}\n"


def _text_pieces(readings):
    """The plain `assignments:` lines, one per reading as the search yields it."""
    order_line = lru_cache(64)(lambda order: ", ".join(map(" < ".join, order)) or "unordered")
    for i, reading in enumerate(readings, start=1):
        rels = ", ".join(map(_relation_line, reading.relations)) or "(none)"
        yield f"  {i}. {rels}; {order_line(reading.event_order)}\n"


def _write_blocks(pieces) -> None:
    """Write the strings of the iterator `pieces`, none empty, to stdout, 128 to a block."""
    for block in iter(lambda: "".join(islice(pieces, 128)), ""):
        sys.stdout.write(block)


def _cmd_interpret(args) -> int:
    lexicon, axioms = _load_inputs(args)
    discourse = _parse(parse_discourse, args.discourse, lexicon)
    if args.all:
        # One search: its first reading is the verdict, then it goes on to the rest.
        interp, readings = _interpret(discourse, axioms)
    else:
        interp, readings = interpret(discourse, lexicon, axioms), ()
    if args.trace:
        print("\n".join(interp.trace), file=sys.stderr)

    if args.json:
        data = interpretation_to_dict(interp)
        if args.all:
            _write_blocks(_json_pieces(data, readings))
        else:
            sys.stdout.write(render_json(data))
        return 0

    print(f"verdict: {'felicitous' if interp.felicitous else 'infelicitous'}")
    if interp.felicitous:
        print("relations:")
        for rel in interp.relations:
            print(f"  {_relation_line(rel)}")
        if not interp.relations:
            print("  (none)")
        print("event order:")
        for before, after in interp.event_order:
            print(f"  {before} < {after}")
        if not interp.event_order:
            print("  (unordered)")
    else:
        print("diagnostics:")
        for diag in interp.diagnostics:
            print(f"  {diag.code.value}: {diag.message}")
    if args.all:
        # Only a felicitous verdict has readings, its own first.
        print("assignments:" if interp.felicitous else "assignments:\n  (none)")
        _write_blocks(_text_pieces(readings))
    return 0 if interp.felicitous else 1


def _cmd_corpus(args) -> int:
    lexicon, axioms = _load_inputs(args)
    report = run_corpus(args.directory, lexicon, axioms)
    if args.json:
        data = {
            "cases": [{"name": case.name, "passed": case.passed} for case in report.cases],
            "total": len(report.cases),
            "failed": len(report.failures),
        }
        sys.stdout.write(render_json(data))
    else:
        for case in report.cases:
            print(f"{'PASS' if case.passed else 'FAIL'} {case.name}")
            if not case.passed:
                for label, text in (("expected", case.expected), ("actual", case.actual)):
                    print(f"  {label}:\n    " + "\n    ".join(text.rstrip().splitlines()))
        print(f"{len(report.cases) - len(report.failures)}/{len(report.cases)} cases passed")
    return 0 if report.passed else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tempcoh",
        description="Temporal interpretation of small annotated discourses",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_interpret = sub.add_parser(
        "interpret", help="interpret one discourse file and print the verdict"
    )
    p_interpret.add_argument("discourse", type=Path, help="discourse file")
    p_interpret.add_argument("--lexicon", type=Path, required=True, help="verb lexicon file")
    p_interpret.add_argument("--axioms", type=Path, required=True, help="causal axiom file")
    p_interpret.add_argument("--json", action="store_true", help="emit JSON on stdout")
    p_interpret.add_argument(
        "--all", action="store_true", help="also list every surviving assignment"
    )
    p_interpret.add_argument(
        "--trace", action="store_true", help="print the staged derivation on stderr"
    )
    p_interpret.set_defaults(func=_cmd_interpret)

    p_corpus = sub.add_parser(
        "corpus", help="run every *.disc case in a directory against expectations"
    )
    p_corpus.add_argument("directory", type=Path, help="corpus directory")
    p_corpus.add_argument("--lexicon", type=Path, required=True, help="verb lexicon file")
    p_corpus.add_argument("--axioms", type=Path, required=True, help="causal axiom file")
    p_corpus.add_argument("--json", action="store_true", help="emit JSON on stdout")
    p_corpus.set_defaults(func=_cmd_corpus)
    return parser


_parser = cache(build_parser)  # built on the first `main` call of the process, then reused


def _quiet_if_broken(stream) -> None:
    """Point `stream` at the null device if its reader has gone.

    Python flushes stdout and stderr at exit; a flush into a closed pipe
    would print a complaint and change the exit code.
    """
    try:
        stream.flush()
    except (OSError, ValueError):
        try:
            fd = stream.fileno()
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        except (OSError, ValueError):
            pass  # not a file: Python flushes nothing into it at exit


def _report(text: str) -> None:
    """Print `text` on stderr, or nothing if stderr cannot take it."""
    try:
        print(text, file=sys.stderr)
    except (OSError, ValueError):
        _quiet_if_broken(sys.stderr)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    # No handler below can raise: an exception escaping `main` would exit 1,
    # which means "infelicitous".
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # A reader that left early, on stdout or on stderr.
        _quiet_if_broken(sys.stdout)
        _quiet_if_broken(sys.stderr)
        return 2
    except (OSError, _InputError, CorpusError) as exc:
        _report(f"error: {exc}")
        return 2
    except Exception:
        _report(traceback.format_exc().rstrip("\n"))
        return 4


if __name__ == "__main__":
    sys.exit(main())
