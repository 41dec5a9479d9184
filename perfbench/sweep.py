"""One-shot scaling report over the families of the ROADMAP Baseline table.

    python3 perfbench/sweep.py > sweep.jsonl

Run from the root of a checkout. Each row interprets one generated
discourse once, through the same library calls as the benchmark, and
checks it against its closed-form reference; the corpus row runs the
seven corpus cases five times and reports the median. A discourse that
raises is a failed row carrying the exception, never a skipped one. Each
row gives the ROADMAP's size, the clauses interpreted, the seconds and
the lines of `Interpretation.trace`.

The ROADMAP sizes an adversarial row by the clauses before its failing
tail: a simple past and a past-perfect chain. The `because` row then has
one more clause, a simple past with `because` and no axiom; the clash row
two more, a simple future and an `and_so` simple past. The trace lines of
the 16 rows (294,924 and 425,997) are the ROADMAP's 295k and 426k. The
`because` row is not the `backtrack_because` family of the timed `search`
workload, which has one more simple past before its failing pair.

This is not one of the benchmark's workloads: it takes minutes, most of
them in the 900- and 1,100-clause rows. One JSON object per row goes to
standard output, then a summary object.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import traceback
from time import perf_counter

import run
import workloads

FAMILIES = {
    **workloads.FAMILIES,
    "question_pperf_because": workloads.Family(
        "question_pperf_because", True, workloads.ending("PPERF", ("SPAST", "because")),
        "explain_then_inert", workloads.infelicitous("NO_COHERENCE_RELATION", "last_pair"),
    ),
}
# (family, ROADMAP sizes, clauses after the ROADMAP size)
ROWS = (
    ("narration", (50, 100, 200), 0),
    ("pperf_explanation", (50, 100), 0),
    ("question_pperf_because", (8, 12, 16), 1),
    ("backtrack_clash", (8, 12, 16), 2),
    ("question_spast", (900, 1100), 0),
)
CORPUS_REPEATS = 5


def timed(tc: run.Tempcoh, case: workloads.Case) -> dict:
    started = perf_counter()
    try:
        interpretation = run.interpret_text(tc, case.text)
        output = run.to_json(tc, interpretation)
    except Exception as exc:  # reported as a failed row, with the traceback on stderr
        seconds = perf_counter() - started
        traceback.print_exc()
        return {"seconds": seconds, "trace_lines": None, "ok": False, "error": repr(exc)[:200]}
    seconds = perf_counter() - started
    expected = {k: v for k, v in case.expected.items() if k != "assignments"}
    ok = workloads.project(json.loads(output)) == expected
    return {
        "seconds": seconds,
        "trace_lines": len(interpretation.trace),
        "ok": ok,
        "error": None if ok else "wrong output",
    }


def main() -> int:
    run.find_tempcoh()
    _, tc = run.set_up()
    corpus_tc = run.Tempcoh(
        tc.parsing.parse_lexicon((run.CORPUS / "lexicon.txt").read_text(encoding="utf-8")),
        tc.parsing.parse_axioms((run.CORPUS / "axioms.txt").read_text(encoding="utf-8")),
    )
    rows = []
    cases = workloads.corpus_cases(run.CORPUS)
    runs = [[timed(corpus_tc, case) for case in cases] for _ in range(CORPUS_REPEATS)]
    rows.append({
        "family": "corpus",
        "cases": len(cases),
        "seconds": statistics.median(sum(r["seconds"] for r in rs) for rs in runs),
        "trace_lines": sum(r["trace_lines"] or 0 for r in runs[0]),
        "ok": all(r["ok"] for rs in runs for r in rs),
        "error": next((r["error"] for rs in runs for r in rs if r["error"]), None),
    })
    print(json.dumps(rows[-1]), flush=True)
    for family, sizes, tail in ROWS:
        for size in sizes:
            n = size + tail
            case = workloads.make_case(FAMILIES[family], n, random.Random(f"sweep/{family}/{n}"))
            rows.append({"family": family, "size": size, "clauses": n, **timed(tc, case)})
            print(json.dumps(rows[-1]), flush=True)
    print(json.dumps({"rows": len(rows), "failed": sum(not r["ok"] for r in rows)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
