import argparse
import dataclasses
import io
import itertools
import json
import random
import subprocess
import sys
from collections import Counter

import pytest

import search_oracle
from randgen import LEMMAS, random_axioms, random_discourse, random_lexicon
from tempcoh import CausalAxiom, ChainNetwork, DiagnosticCode, TenseForm, serialize_discourse
from tempcoh.cli import main
from test_search_oracle import BOTH_WAYS, QUESTION, _question_pperf_chain

PAST_TENSES = (TenseForm.SPAST, TenseForm.PPERF)

LEXICON = "verb slip class=achievement\nverb spill class=accomplishment\n"
AXIOMS = "cause spill slip\n"
NARRATION = (
    "clause id=c1 subj=Max verb=slip tense=SPAST\n"
    'clause id=c2 subj=he verb=spill obj="a bucket of water" tense=SPAST\n'
)
PPERF_ALONE = 'clause id=c1 subj=Max verb=spill obj="a bucket of water" tense=PPERF\n'
EXPECTED_NARRATION = {
    "felicitous": True,
    "relations": [{"kind": "NARRATION", "first": "c1", "second": "c2"}],
    "event_order": [{"before": "t_c1", "after": "t_c2"}],
    "diagnostics": [],
}


@pytest.fixture
def inputs(tmp_path):
    lexicon = tmp_path / "lexicon.txt"
    lexicon.write_text(LEXICON)
    axioms = tmp_path / "axioms.txt"
    axioms.write_text(AXIOMS)
    return tmp_path, lexicon, axioms


def write_discourse(tmp_path, text, name="case.disc"):
    path = tmp_path / name
    path.write_text(text)
    return path


def interpret_args(disc, lexicon, axioms, *extra):
    return ["interpret", str(disc), "--lexicon", str(lexicon), "--axioms", str(axioms), *extra]


def test_interpret_text_mode(inputs, capsys):
    tmp_path, lexicon, axioms = inputs
    disc = write_discourse(tmp_path, NARRATION)
    assert main(interpret_args(disc, lexicon, axioms)) == 0
    out = capsys.readouterr().out
    assert "verdict: felicitous" in out
    assert "NARRATION(c1, c2)" in out
    assert "t_c1 < t_c2" in out


def test_interpret_infelicity_exit_code(inputs, capsys):
    tmp_path, lexicon, axioms = inputs
    disc = write_discourse(tmp_path, PPERF_ALONE)
    assert main(interpret_args(disc, lexicon, axioms)) == 1
    assert "UNRESOLVED_REFERENCE_TIME" in capsys.readouterr().out


def test_interpret_json_mode_is_exit_zero_on_infelicity(inputs, capsys):
    tmp_path, lexicon, axioms = inputs
    disc = write_discourse(tmp_path, PPERF_ALONE)
    assert main(interpret_args(disc, lexicon, axioms, "--json")) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["felicitous"] is False
    assert data["diagnostics"][0]["code"] == "UNRESOLVED_REFERENCE_TIME"


def test_interpret_json_stable_keys(inputs, capsys):
    tmp_path, lexicon, axioms = inputs
    disc = write_discourse(tmp_path, NARRATION)
    main(interpret_args(disc, lexicon, axioms, "--json"))
    out = capsys.readouterr().out
    assert out.endswith("\n")
    assert list(json.loads(out)) == [
        "felicitous",
        "relations",
        "event_order",
        "diagnostics",
    ]


def test_trace_goes_to_stderr(inputs, capsys):
    tmp_path, lexicon, axioms = inputs
    disc = write_discourse(tmp_path, NARRATION)
    main(interpret_args(disc, lexicon, axioms, "--json", "--trace"))
    captured = capsys.readouterr()
    assert "[tense] clause c1" in captured.err
    json.loads(captured.out)  # stdout still parses


def test_main_builds_its_parser_once(inputs, capsys, monkeypatch):
    tmp_path, lexicon, axioms = inputs
    args = interpret_args(write_discourse(tmp_path, NARRATION), lexicon, axioms)
    assert main(args) == 0
    built = []
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", lambda *a, **k: built.append(a))
    assert main(args) == 0
    assert built == []
    assert capsys.readouterr().out.count("verdict: felicitous") == 2


def test_all_flag_lists_assignments(inputs, capsys):
    tmp_path, lexicon, axioms = inputs
    disc = write_discourse(tmp_path, NARRATION)
    main(interpret_args(disc, lexicon, axioms, "--all", "--json"))
    data = json.loads(capsys.readouterr().out)
    assert "assignments" in data
    assert data["assignments"][0]["relations"][0]["kind"] == "NARRATION"


def write_question_pperf_chain(tmp_path, corpus_dir):
    """Six past perfects under a question, with axioms both ways: 2^6 readings."""
    disc = write_discourse(tmp_path, serialize_discourse(_question_pperf_chain(6, [])))
    axioms = tmp_path / "both_ways.txt"
    axioms.write_text("".join(f"cause {a.cause} {a.effect}\n" for a in BOTH_WAYS))
    return interpret_args(disc, corpus_dir / "lexicon.txt", axioms, "--all", "--json")


def test_all_flag_runs_one_search(tmp_path, corpus_dir, capsys, monkeypatch):
    """The verdict and every reading come from one tense stage and one search."""
    module = sys.modules["tempcoh.interpret"]  # `tempcoh.interpret` is the function
    calls = Counter()
    for name in ("_tense_stage", "_plan"):

        def counted(*args, _name=name, _original=getattr(module, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(module, name, counted)
    assert main(write_question_pperf_chain(tmp_path, corpus_dir)) == 0
    assert len(json.loads(capsys.readouterr().out)["assignments"]) == 2**6
    assert calls == Counter({"_tense_stage": 1, "_plan": 6})


def test_all_flag_json_bytes_match_the_oracle(tmp_path, corpus_dir, lexicon, capsys):
    """`--all --json` with many readings, byte for byte against the recursive search."""
    assert main(write_question_pperf_chain(tmp_path, corpus_dir)) == 0
    discourse = _question_pperf_chain(6, [])

    def reading(interp):
        return {
            "relations": [
                {"kind": rel.kind.value, "first": rel.first, "second": rel.second}
                for rel in interp.relations
            ],
            "event_order": [{"before": b, "after": a} for b, a in interp.event_order],
        }

    readings = search_oracle.enumerate_assignments(discourse, lexicon, BOTH_WAYS)
    expected = {
        "felicitous": True,
        **reading(search_oracle.interpret(discourse, lexicon, BOTH_WAYS)),
        "diagnostics": [],
        "assignments": [reading(interp) for interp in readings],
    }
    assert len(readings) == 2**6
    assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"


def test_all_flag_computes_one_event_order(tmp_path, corpus_dir, capsys, monkeypatch):
    """The 2^6 readings have the verdict's edges, so they share its one event order."""
    calls = Counter()
    precedences = ChainNetwork.precedences

    def counted(chain):
        calls["precedences"] += 1
        return precedences(chain)

    monkeypatch.setattr(ChainNetwork, "precedences", counted)
    assert main(write_question_pperf_chain(tmp_path, corpus_dir)) == 0
    assert len(json.loads(capsys.readouterr().out)["assignments"]) == 2**6
    assert calls == Counter({"precedences": 1})


def _oracle_reading(interp):
    return {
        "relations": [
            {"kind": rel.kind.value, "first": rel.first, "second": rel.second}
            for rel in interp.relations
        ],
        "event_order": [{"before": b, "after": a} for b, a in interp.event_order],
    }


def _oracle_all_json(verdict, readings):
    """What `--all --json` prints, built from the recursive search with `json.dumps`."""
    data = {
        "felicitous": verdict.felicitous,
        **_oracle_reading(verdict),
        "diagnostics": [
            {"code": d.code.value, "clauses": list(d.clause_ids), "message": d.message}
            for d in verdict.diagnostics
        ],
        "assignments": list(map(_oracle_reading, readings)),
    }
    return json.dumps(data, indent=2) + "\n"


def _oracle_all_text(verdict, readings):
    """What plain `--all` prints, built from the recursive search."""

    def relation(rel):
        return f"{rel.kind.value}({rel.first}, {rel.second})"

    lines = [f"verdict: {'felicitous' if verdict.felicitous else 'infelicitous'}"]
    if verdict.felicitous:
        lines += ["relations:", *(f"  {relation(rel)}" for rel in verdict.relations)]
        lines += ["  (none)"] * (not verdict.relations)
        lines += ["event order:", *(f"  {b} < {a}" for b, a in verdict.event_order)]
        lines += ["  (unordered)"] * (not verdict.event_order)
    else:
        lines += ["diagnostics:", *(f"  {d.code.value}: {d.message}" for d in verdict.diagnostics)]
    lines.append("assignments:")
    for i, reading in enumerate(readings, start=1):
        rels = ", ".join(map(relation, reading.relations)) or "(none)"
        order = ", ".join(f"{b} < {a}" for b, a in reading.event_order) or "unordered"
        lines.append(f"  {i}. {rels}; {order}")
    lines += ["  (none)"] * (not readings)
    return "\n".join(lines) + "\n"


def test_all_flag_output_matches_the_oracle_on_random_discourses(tmp_path, capsys):
    """`--all`, JSON and plain text, byte for byte against the recursive search.

    The seeded sample reaches every verdict: discourses with several
    readings, with one, with one that has no relation, and infelicitous
    ones, which have none. Only a past perfect under a topic question has
    two readings, so every other discourse is drawn from simple pasts and
    past perfects under a question, with every causal axiom.
    """
    every_axiom = [CausalAxiom(cause=a, effect=b) for a, b in itertools.permutations(LEMMAS, 2)]
    lexicon = random_lexicon()
    lexicon_path = tmp_path / "lexicon.txt"
    lexicon_path.write_text(
        "".join(f"verb {lemma} class={cls.value}\n" for lemma, cls in lexicon.entries.items())
    )
    axioms_path = tmp_path / "axioms.txt"
    seen = set()
    for seed in range(300):
        rng = random.Random(seed)
        if seed % 2:
            axioms = every_axiom
            discourse = random_discourse(
                rng, max_clauses=7, tenses=PAST_TENSES, allow_connectives=False
            )
            discourse = dataclasses.replace(discourse, context_question=QUESTION)
        else:
            axioms = random_axioms(rng)
            discourse = random_discourse(rng, max_clauses=7)
        axioms_path.write_text("".join(f"cause {a.cause} {a.effect}\n" for a in axioms))
        disc = write_discourse(tmp_path, serialize_discourse(discourse))
        verdict = search_oracle.interpret(discourse, lexicon, axioms)
        readings = search_oracle.enumerate_assignments(discourse, lexicon, axioms)
        args = interpret_args(disc, lexicon_path, axioms_path, "--all")
        assert main([*args, "--json"]) == 0
        assert capsys.readouterr().out == _oracle_all_json(verdict, readings), seed
        assert main(args) == (0 if verdict.felicitous else 1)
        assert capsys.readouterr().out == _oracle_all_text(verdict, readings), seed
        seen.update(d.code for d in verdict.diagnostics)
        seen.add(min(len(readings), 8))
        seen.update("no relation" for r in readings if not r.relations)
    assert seen == {*DiagnosticCode, 0, 1, 2, 4, 8, "no relation"}


def test_all_flag_on_infelicity_lists_none(inputs, capsys):
    tmp_path, lexicon, axioms = inputs
    disc = write_discourse(tmp_path, PPERF_ALONE)
    assert main(interpret_args(disc, lexicon, axioms, "--all", "--json")) == 0
    assert json.loads(capsys.readouterr().out)["assignments"] == []
    assert main(interpret_args(disc, lexicon, axioms, "--all")) == 1
    assert capsys.readouterr().out.endswith("assignments:\n  (none)\n")


def test_internal_error_exit_code(inputs, capsys, monkeypatch):
    """A crash exits 4 with its traceback, never 1, which means infelicitous."""
    tmp_path, lexicon, axioms = inputs
    disc = write_discourse(tmp_path, NARRATION)

    def crash(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr("tempcoh.cli.interpret", crash)
    assert main(interpret_args(disc, lexicon, axioms)) == 4
    err = capsys.readouterr().err
    assert "Traceback" in err
    assert "RuntimeError: boom" in err


class ClosedPipe(io.StringIO):
    """An output stream whose reader has gone."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("broken", ["stdout", "stderr"])
def test_closed_output_pipe_exits_2(inputs, monkeypatch, broken):
    """A reader that leaves early ends the run with exit 2, never 1, and nothing more is said."""
    tmp_path, lexicon, axioms = inputs
    disc = write_discourse(tmp_path, NARRATION)
    other = "stderr" if broken == "stdout" else "stdout"
    monkeypatch.setattr(sys, broken, ClosedPipe())
    monkeypatch.setattr(sys, other, io.StringIO())
    assert main(interpret_args(disc, lexicon, axioms, "--trace", "--json")) == 2
    said = getattr(sys, other).getvalue()
    # The trace comes before the JSON: a closed stderr stops the run before stdout.
    if broken == "stdout":
        assert said.endswith("[result] felicitous; entailed event order: t_c1 < t_c2\n")
    else:
        assert said == ""


class PipeClosedAfterOneWrite(io.StringIO):
    """An output stream whose reader goes after the first block."""

    def write(self, text):
        if self.tell():
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)


def test_closed_stdout_stops_the_all_search(tmp_path, corpus_dir, monkeypatch):
    """Readings are written as they are found, so a reader that goes stops the search."""
    disc = write_discourse(tmp_path, serialize_discourse(_question_pperf_chain(10, [])))
    axioms = tmp_path / "both_ways.txt"
    axioms.write_text("".join(f"cause {a.cause} {a.effect}\n" for a in BOTH_WAYS))
    calls = Counter()
    with_edges = ChainNetwork.with_edges

    def counted(chain, directions):
        calls["with_edges"] += 1
        return with_edges(chain, directions)

    monkeypatch.setattr(ChainNetwork, "with_edges", counted)
    monkeypatch.setattr(sys, "stdout", PipeClosedAfterOneWrite())
    monkeypatch.setattr(sys, "stderr", io.StringIO())
    args = interpret_args(disc, corpus_dir / "lexicon.txt", axioms, "--all", "--json")
    assert main(args) == 2
    assert sys.stderr.getvalue() == ""
    assert sys.stdout.getvalue().startswith('{\n  "felicitous": true,')
    assert 0 < calls["with_edges"] < 2**10


def test_closed_stdout_prints_nothing_at_exit(inputs, corpus_dir):
    """Python flushes stdout at exit; into a closed pipe that would complain and exit 120."""
    tmp_path, lexicon, axioms = inputs
    disc = write_discourse(tmp_path, NARRATION)
    command = [sys.executable, "-m", "tempcoh", *interpret_args(disc, lexicon, axioms, "--json")]
    child = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=corpus_dir.parent / "src"
    )
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert child.wait() == 2
    assert err == b""


def test_parse_error_exit_code(inputs, capsys):
    tmp_path, lexicon, axioms = inputs
    disc = write_discourse(tmp_path, "clause id=c1 verb=slip tense=SPAST\n")
    assert main(interpret_args(disc, lexicon, axioms)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {disc}: line 1")


INPUT_FILES = ["discourse", "lexicon", "axioms", "corpus case", "corpus expectation"]


def case_files(inputs):
    """Each input file of a NARRATION case, by name, and the command that reads it."""
    tmp_path, lexicon, axioms = inputs
    disc = write_discourse(tmp_path, NARRATION)
    expectation = tmp_path / "case.expected.json"
    expectation.write_text(json.dumps(EXPECTED_NARRATION))
    files = {
        "discourse": disc,
        "lexicon": lexicon,
        "axioms": axioms,
        "corpus case": disc,
        "corpus expectation": expectation,
    }
    corpus = ["corpus", str(tmp_path), "--lexicon", str(lexicon), "--axioms", str(axioms)]
    interpret = interpret_args(disc, lexicon, axioms)
    return {
        name: (path, corpus if name.startswith("corpus") else interpret)
        for name, path in files.items()
    }


@pytest.mark.parametrize(
    "bad, text",
    [
        ("discourse", "clause id=c1 subj=Max verb=jump tense=SPAST\n"),
        ("lexicon", "verb slip klass=achievement\n"),
        ("axioms", "cause spill\n"),
        ("corpus case", "clause id=c1 subj=Max verb=slip tense=BOGUS\n"),
    ],
    ids=INPUT_FILES[:4],
)
def test_parse_error_names_the_file(inputs, capsys, bad, text):
    target, args = case_files(inputs)[bad]
    target.write_text(text)
    assert main(args) == 2
    assert capsys.readouterr().err.startswith(f"error: {target}: line 1, column ")


def test_missing_file_exit_code(inputs, capsys):
    tmp_path, lexicon, axioms = inputs
    missing = tmp_path / "nope.disc"
    assert main(interpret_args(missing, lexicon, axioms)) == 2


@pytest.mark.parametrize("bad", INPUT_FILES)
def test_non_utf8_input_exit_code(inputs, capsys, bad):
    """Input that is not UTF-8 is malformed input (exit 2), not an internal error."""
    target, args = case_files(inputs)[bad]
    target.write_bytes(b"\xff" + target.read_bytes())
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {target}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("name", INPUT_FILES)
def test_byte_order_mark_is_ignored(inputs, capsys, name):
    """A file that starts with a UTF-8 byte-order mark reads as the file without it."""
    path, args = case_files(inputs)[name]
    assert main(args) == 0
    plain = capsys.readouterr().out
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert main(args) == 0
    assert capsys.readouterr().out == plain


def test_unknown_axiom_lemma_exit_code(inputs, capsys):
    tmp_path, lexicon, axioms = inputs
    axioms.write_text("cause spill jump\n")
    disc = write_discourse(tmp_path, NARRATION)
    assert main(interpret_args(disc, lexicon, axioms)) == 2
    assert capsys.readouterr().err == (
        f"error: {axioms}: axiom lemma 'jump' is not defined in the lexicon\n"
    )


def test_corpus_happy_path(corpus_dir, capsys):
    args = [
        "corpus",
        str(corpus_dir),
        "--lexicon",
        str(corpus_dir / "lexicon.txt"),
        "--axioms",
        str(corpus_dir / "axioms.txt"),
    ]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "7/7 cases passed" in out


def test_corpus_failure_exit_code(inputs, capsys):
    tmp_path, lexicon, axioms = inputs
    write_discourse(tmp_path, NARRATION)
    (tmp_path / "case.expected.json").write_text(
        json.dumps(
            {
                "felicitous": False,
                "relations": [],
                "event_order": [],
                "diagnostics": [],
            }
        )
    )
    args = ["corpus", str(tmp_path), "--lexicon", str(lexicon), "--axioms", str(axioms)]
    assert main(args) == 3
    out = capsys.readouterr().out
    assert "FAIL case" in out


@pytest.mark.parametrize("where", ["missing", "file"])
def test_corpus_path_not_a_directory_exit_code(inputs, capsys, where):
    tmp_path, lexicon, axioms = inputs
    path = tmp_path / "no" / "such" / "dir" if where == "missing" else lexicon
    args = ["corpus", str(path), "--lexicon", str(lexicon), "--axioms", str(axioms)]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "cases passed" not in captured.out


@pytest.mark.parametrize(
    "body",
    [
        {"felicitous": True, "relations": 5, "event_order": [], "diagnostics": []},
        {
            "felicitous": False,
            "relations": [],
            "event_order": [],
            "diagnostics": [{"code": "TEMPORAL_CLASH", "clauses": 7}],
        },
        {
            "felicitous": True,
            "relations": [{"kind": "NARRATION", "first": 1, "second": "c2"}],
            "event_order": [{"before": "t_c1", "after": "t_c2"}],
            "diagnostics": [],
        },
    ],
    ids=["relations not a list", "clauses not a list", "clause id not a string"],
)
def test_corpus_malformed_expectation_exit_code(inputs, capsys, body):
    tmp_path, lexicon, axioms = inputs
    write_discourse(tmp_path, NARRATION)
    (tmp_path / "case.expected.json").write_text(json.dumps(body))
    args = ["corpus", str(tmp_path), "--lexicon", str(lexicon), "--axioms", str(axioms)]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "malformed expectation" in captured.err
    assert "Traceback" not in captured.err


def test_corpus_json_mode(corpus_dir, capsys):
    args = [
        "corpus",
        str(corpus_dir),
        "--lexicon",
        str(corpus_dir / "lexicon.txt"),
        "--axioms",
        str(corpus_dir / "axioms.txt"),
        "--json",
    ]
    assert main(args) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["total"] == 7
    assert data["failed"] == 0
    assert all(case["passed"] for case in data["cases"])


def test_module_entry_point(corpus_dir):
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "tempcoh",
            "interpret",
            str(corpus_dir / "narration_default.disc"),
            "--lexicon",
            str(corpus_dir / "lexicon.txt"),
            "--axioms",
            str(corpus_dir / "axioms.txt"),
            "--json",
        ],
        capture_output=True,
        text=True,
        cwd=corpus_dir.parent / "src",
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["felicitous"] is True


def test_readme_json_example_is_the_program_output(corpus_dir, capsys):
    readme = (corpus_dir.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Output JSON\n", 1)[1]
    example = section.split("```json\n", 1)[1].split("```", 1)[0]
    disc = corpus_dir / "because_pperf.disc"
    args = interpret_args(disc, corpus_dir / "lexicon.txt", corpus_dir / "axioms.txt", "--json")
    assert main(args) == 0
    assert capsys.readouterr().out == example
