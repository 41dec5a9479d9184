"""Command-line interface: single-discourse interpretation and corpus regression.

Exit codes: 0 success, 1 infelicitous verdict in plain (non `--json`)
single-file mode, 2 unreadable or malformed input (the message names the
file) or an output pipe whose reader has gone (nothing more is printed),
3 corpus failures, 4 internal error (the traceback goes to stderr).
JSON goes to stdout; `--trace` derivation lines go to stderr so stdout
stays machine-readable.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback
from pathlib import Path

from .interpret import (
    CorpusError,
    _interpret,
    _reading_to_dict,
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
    assignments = list(readings)

    if args.json:
        data = interpretation_to_dict(interp)
        if args.all:
            data["assignments"] = list(map(_reading_to_dict, assignments))
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
        print("assignments:")
        for i, a in enumerate(assignments, start=1):
            rels = ", ".join(_relation_line(r) for r in a.relations) or "(none)"
            order = ", ".join(f"{x} < {y}" for x, y in a.event_order) or "unordered"
            print(f"  {i}. {rels}; {order}")
        if not assignments:
            print("  (none)")
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
    args = build_parser().parse_args(argv)
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
