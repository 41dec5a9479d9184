"""Checks of the benchmark itself, not of tempcoh's speed.

    python3 perfbench/selfcheck.py

Run from the root of a checkout; exits non-zero on the first failed check.

1. The generators are deterministic: the same seed gives the same bytes,
   also in a process with another PYTHONHASHSEED, and another seed gives
   other bytes.
2. `data/lexicon.txt` and `data/axioms.txt` hold exactly the CAUSAL and
   INERT verbs and the axioms `workloads.py` assumes.
3. Each closed-form reference agrees with the corpus expectation it
   overlaps, on a corpus case the family could have generated.
4. BENCHMARK.json names exactly the metrics and units that `run.py` and
   `tracer.py` report.
5. Every workload, untraced and traced, fails no discourse at the default
   and the held-out seed; the share of distinct texts is printed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import re
import subprocess
import sys
from itertools import islice

import run
import workloads

PREFIX = 20  # blocks per workload
FIELD = re.compile(r'(\w+)=("(?:[^"\\]|\\.)*"|\S+)')

# Corpus case -> the family it is an instance of.
OVERLAPS = {
    "narration_default": "narration",
    "pperf_explanation": "pperf_explanation",
    "because_simple_past": "because_spast",
    "because_pperf": "because_pperf",
    "parallel_question": "parallel_question",
    "pperf_alone": "unresolved",
    "pperf_no_cause": "no_relation_pperf",
}


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        sys.exit(1)


def digest(workload: str, seed: int) -> str:
    texts = (c.text for c in itertools.chain.from_iterable(
        islice(workloads.blocks(workload, seed, run.CORPUS), PREFIX)
    ))
    return hashlib.sha256("".join(texts).encode()).hexdigest()


def check_determinism() -> None:
    for workload in workloads.WORKLOADS:
        here = digest(workload, workloads.DEFAULT_SEED)
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); import selfcheck; "
            "print(selfcheck.digest(sys.argv[2], int(sys.argv[3])))"
        )
        there = subprocess.run(
            [sys.executable, "-c", code, str(run.BENCH_DIR), workload, str(workloads.DEFAULT_SEED)],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONHASHSEED": "12345"},
        ).stdout.strip()
        other = digest(workload, workloads.HELD_OUT_SEED)
        check(here == digest(workload, workloads.DEFAULT_SEED) == there != other,
              f"{workload}: same seed, same bytes (across processes); other seed, other bytes")


def check_data() -> None:
    lexicon = {line.split()[1] for line in _lines(run.LEXICON.read_text(encoding="utf-8"))}
    axioms = {tuple(line.split()[1:]) for line in _lines(run.AXIOMS.read_text(encoding="utf-8"))}
    check(lexicon == set(workloads.CAUSAL + workloads.INERT),
          "lexicon holds the CAUSAL and INERT verbs")
    check(axioms == set(itertools.permutations(workloads.CAUSAL, 2)),
          "axioms link every ordered pair of different CAUSAL verbs, and nothing else")


def _lines(text: str) -> list[str]:
    lines = (line.strip() for line in text.splitlines())
    return [line for line in lines if line and not line.startswith("#")]


def read_case(text: str) -> tuple[bool, workloads.Layout, list[str]]:
    """(has a question, layout, verbs) of a discourse, read without tempcoh."""
    layout, verbs, question = [], [], False
    for line in _lines(text):
        if line.startswith("@context"):
            question = True
            continue
        fields = dict(FIELD.findall(line))
        layout.append((fields["tense"], fields.get("conn")))
        verbs.append(fields["verb"])
    return question, layout, verbs


def could_generate(family: workloads.Family, layout: workloads.Layout) -> bool:
    return any(family.layout(len(layout), random.Random(i)) == layout for i in range(256))


def check_corpus_overlaps() -> None:
    corpus_axioms = (run.CORPUS / "axioms.txt").read_text(encoding="utf-8")
    axioms = {tuple(line.split()[1:]) for line in _lines(corpus_axioms)}
    cases = {c.name.partition("/")[2]: c for c in workloads.corpus_cases(run.CORPUS)}
    check(set(cases) == set(OVERLAPS), "every corpus case overlaps one family")
    for name, family_name in OVERLAPS.items():
        family = workloads.FAMILIES[family_name]
        question, layout, verbs = read_case(cases[name].text)
        expected = {k: v for k, v in cases[name].expected.items() if k != "assignments"}
        check(
            question == family.question
            and could_generate(family, layout)
            and workloads.verbs_fit(family.verbs, verbs, axioms)
            and family.expect(len(layout), [t for t, _ in layout]) == expected,
            f"{family_name}/{len(layout)} reference = corpus {name}",
        )


def check_benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS,
          "BENCHMARK.json end_to_end = metrics of --trace 0")
    check({m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS,
          "BENCHMARK.json per_layer = metrics of --trace 1")
    check([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
          "BENCHMARK.json workloads = workloads.py")


def check_runs() -> None:
    run.find_tempcoh()
    _, tc = run.set_up()
    for workload in workloads.WORKLOADS:
        for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED):
            (tally,), _ = run.measure(tc, 0.0, workload, seed, 1.0)
            check(tally.failed == 0 and tally.attempted >= run.MIN_DISCOURSES,
                  f"{workload} seed {seed}: {tally.attempted} discourses, none failed, "
                  f"{len(tally.texts) / tally.attempted:.3f} of texts distinct")
        tallies, metrics = run.measure_layers(tc, workload, workloads.DEFAULT_SEED)
        check(all(t.failed == 0 for t in tallies) and set(metrics) == set(run.LAYER_UNITS),
              f"{workload} traced: outputs match, every per-layer metric reported "
              f"(overhead {metrics['trace.overhead_share']:.0%})")
        check(metrics["parsing.calls"] == tallies[0].attempted,
              f"{workload} traced: one parse_discourse span per discourse")
        tried, useful = metrics["interpret.candidates_tried"], metrics["interpret.useful_relations"]
        check(0 < useful <= tried and 0 < metrics["interpret.useful_ratio"] <= 1,
              f"{workload} traced: {useful} useful relations of {tried} candidates tried")
        check(all(getattr(f, "__name__", "") != "traced" for f in vars(tc.interpret).values()),
              f"{workload} traced: the tracer restored the originals")


def main() -> int:
    check_determinism()
    check_data()
    check_corpus_overlaps()
    check_benchmark_json()
    check_runs()
    return 0


if __name__ == "__main__":
    sys.exit(main())
