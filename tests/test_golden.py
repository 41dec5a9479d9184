"""The CLI's stdout, stderr and exit code on the bundled corpus, byte for byte.

Each case under `corpus/` runs as `tempcoh interpret <case>.disc --all
--trace`, with and without `--json`, and the corpus as `tempcoh corpus`,
with and without `--json`. The expected bytes live in `tests/golden/`:
`<name>.stdout`, `<name>.stderr`, and every exit code in `exit_codes.json`.
They pin the JSON, the text output and every `--trace` line.
"""

import json
from pathlib import Path

import pytest

from tempcoh.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
REPO_ROOT = GOLDEN_DIR.parents[1]
CASES = sorted(path.stem for path in (REPO_ROOT / "corpus").glob("*.disc"))


def _inputs():
    corpus = REPO_ROOT / "corpus"
    return ["--lexicon", str(corpus / "lexicon.txt"), "--axioms", str(corpus / "axioms.txt")]


def _runs():
    corpus = REPO_ROOT / "corpus"
    for case in CASES:
        args = ["interpret", str(corpus / f"{case}.disc"), *_inputs(), "--all", "--trace"]
        yield f"{case}.all.trace", args
        yield f"{case}.all.trace.json", [*args, "--json"]
    yield "corpus", ["corpus", str(corpus), *_inputs()]
    yield "corpus.json", ["corpus", str(corpus), *_inputs(), "--json"]


RUNS = dict(_runs())


def test_every_corpus_case_is_covered():
    assert len(CASES) == 7
    exit_codes = json.loads((GOLDEN_DIR / "exit_codes.json").read_text(encoding="utf-8"))
    assert sorted(exit_codes) == sorted(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_cli_output_matches_golden(name, capsys):
    exit_codes = json.loads((GOLDEN_DIR / "exit_codes.json").read_text(encoding="utf-8"))
    code = main(RUNS[name])
    captured = capsys.readouterr()
    assert captured.out == (GOLDEN_DIR / f"{name}.stdout").read_text(encoding="utf-8")
    assert captured.err == (GOLDEN_DIR / f"{name}.stderr").read_text(encoding="utf-8")
    assert code == exit_codes[name]
