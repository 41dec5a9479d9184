"""Seeded discourse generators and their closed-form expected outputs.

Every generated discourse belongs to a *family*: a fixed layout of tenses
and connectives, a rule for picking verbs, and a closed-form reference
derived from how the family is built (for example, a narration chain of n
simple pasts orders every pair i < j forward). The reference never calls
tempcoh, so a wrong interpreter cannot also produce a matching reference.

The verbs come from the benchmark's own lexicon (`data/lexicon.txt`):
every ordered pair of distinct CAUSAL verbs has a causal axiom
(`data/axioms.txt`), and no INERT verb appears in any axiom. That makes
whether Explanation or Cause-Effect is supported a property of the family
alone.

The inputs depend on the workload name and the seed only: the generator
uses a `random.Random` seeded with a string, which does not depend on
`PYTHONHASHSEED`.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

DEFAULT_SEED = 1
# Never used while the benchmark was tuned; re-check a claimed gain on it.
HELD_OUT_SEED = 7919

CAUSAL = ("slip", "spill", "push", "fall", "trip")
INERT = ("pour", "enter", "sing", "wave", "read")
SIMPLE = ("SPAST", "SPRES", "SFUT")
_RANK = {"SPAST": 0, "SPRES": 1, "SFUT": 2}

SUBJECTS = ("Max", "he", "she", "Ann", '"the old cat"')
OBJECTS = (None, None, "a bucket of water", "the room", "a cup of coffee", "the \\\"good\\\" vase")
QUESTIONS = (
    "What bad things happened to Max today?",
    "What did everyone do this week?",
    "What will happen at the party?",
)

Layout = list[tuple[str, "str | None"]]  # (tense, connective) per clause


# --- closed-form references -------------------------------------------------


def _events(n: int) -> list[str]:
    return [f"t_c{i}" for i in range(1, n + 1)]


def forward(n: int, tenses: list[str]) -> list[tuple[str, str]]:
    """Every event before every later one: a chain of forward links."""
    ev = _events(n)
    return [(ev[i], ev[j]) for i in range(n) for j in range(i + 1, n)]


def backward(n: int, tenses: list[str]) -> list[tuple[str, str]]:
    """Every event after every later one, listed in discourse pair order."""
    ev = _events(n)
    return [(ev[j], ev[i]) for i in range(n) for j in range(i + 1, n)]


def by_tense(n: int, tenses: list[str]) -> list[tuple[str, str]]:
    """Unlinked events ordered only through speech: past < present < future."""
    ev = _events(n)
    order = []
    for i in range(n):
        for j in range(i + 1, n):
            if _RANK[tenses[i]] < _RANK[tenses[j]]:
                order.append((ev[i], ev[j]))
            elif _RANK[tenses[i]] > _RANK[tenses[j]]:
                order.append((ev[j], ev[i]))
    return order


def _pairs(n: int, kind: str) -> list[tuple[str, str, str]]:
    return [(kind, f"c{i}", f"c{i + 1}") for i in range(1, n)]


def felicitous(kind: str, order: Callable) -> Callable[[int, list[str]], dict]:
    def expect(n: int, tenses: list[str]) -> dict:
        return {
            "felicitous": True,
            "relations": _pairs(n, kind),
            "event_order": order(n, tenses),
            "diagnostics": [],
        }

    return expect


def infelicitous(code: str, where: str) -> Callable[[int, list[str]], dict]:
    """`where`: the "first" clause or the "last_pair" of clauses."""

    def expect(n: int, tenses: list[str]) -> dict:
        clauses = ("c1",) if where == "first" else (f"c{n - 1}", f"c{n}")
        return {
            "felicitous": False,
            "relations": [],
            "event_order": [],
            "diagnostics": [(code, clauses)],
        }

    return expect


def every_reading(n: int, tenses: list[str]) -> list:
    """`--all` for a question-led past-perfect chain with axioms both ways.

    Each pair admits Explanation then Parallel, and every combination is
    consistent because the past perfect already orders each event before
    the previous one. The search lists them with the first pair varying
    slowest, Explanation before Parallel; the event order is the same in
    all of them.
    """
    order = backward(n, tenses)
    readings = []
    for kinds in itertools.product(("EXPLANATION", "PARALLEL"), repeat=n - 1):
        relations = [(kind, f"c{i}", f"c{i + 1}") for i, kind in enumerate(kinds, start=1)]
        readings.append((relations, order))
    return readings


# --- layouts ----------------------------------------------------------------


def chain(first: str, rest: str, conn: str | None = None) -> Callable[[int, random.Random], Layout]:
    return lambda n, rng: [(first, None)] + [(rest, conn)] * (n - 1)


def mixed(conn: str | None) -> Callable[[int, random.Random], Layout]:
    return lambda n, rng: [(rng.choice(SIMPLE), None)] + [
        (rng.choice(SIMPLE), conn) for _ in range(n - 1)
    ]


def ending(body: str, *tail: tuple[str, str | None]) -> Callable[[int, random.Random], Layout]:
    """A simple past, then `body` clauses, then a fixed tail; just the tail if n is its length."""

    def layout(n: int, rng: random.Random) -> Layout:
        head = n - len(tail)
        return ([("SPAST", None)] + [(body, None)] * (head - 1) if head else []) + list(tail)

    return layout


# --- verb rules -------------------------------------------------------------


def _causal_chain(n: int, rng: random.Random) -> list[str]:
    verbs = [rng.choice(CAUSAL)]
    for _ in range(n - 1):
        verbs.append(rng.choice([v for v in CAUSAL if v != verbs[-1]]))
    return verbs


VERB_RULES: dict[str, Callable[[int, random.Random], list[str]]] = {
    "any": lambda n, rng: [rng.choice(CAUSAL + INERT) for _ in range(n)],
    "explain": _causal_chain,
    "any_then_inert": lambda n, rng: [rng.choice(CAUSAL + INERT) for _ in range(n - 1)]
    + [rng.choice(INERT)],
    "explain_then_inert": lambda n, rng: _causal_chain(n - 1, rng) + [rng.choice(INERT)],
}


def verbs_fit(rule: str, verbs: list[str], axioms: set[tuple[str, str]]) -> bool:
    """Whether `verbs` meets `rule` under the given (cause, effect) axioms."""
    pairs = list(zip(verbs, verbs[1:]))
    if rule == "any":
        return True
    if rule == "explain":
        return all((b, a) in axioms for a, b in pairs)
    last_free = not pairs or (
        (pairs[-1][1], pairs[-1][0]) not in axioms and pairs[-1] not in axioms
    )
    if rule == "any_then_inert":
        return last_free
    if rule == "explain_then_inert":
        return last_free and verbs_fit("explain", verbs[:-1], axioms)
    raise ValueError(f"unknown verb rule {rule!r}")


# --- families ---------------------------------------------------------------


@dataclass(frozen=True)
class Family:
    name: str
    question: bool
    layout: Callable[[int, random.Random], Layout]
    verbs: str
    expect: Callable[[int, list[str]], dict]
    readings: Callable[[int, list[str]], list] | None = None


FAMILIES = {
    f.name: f
    for f in (
        Family("narration", False, chain("SPAST", "SPAST"), "any",
               felicitous("NARRATION", forward)),
        Family("because_spast", False, chain("SPAST", "SPAST", "because"), "explain",
               felicitous("EXPLANATION", backward)),
        Family("because_pperf", False, chain("SPAST", "PPERF", "because"), "explain",
               felicitous("EXPLANATION", backward)),
        Family("pperf_explanation", False, chain("SPAST", "PPERF"), "explain",
               felicitous("EXPLANATION", backward)),
        Family("question_pperf", True, chain("SPAST", "PPERF"), "explain",
               felicitous("EXPLANATION", backward), every_reading),
        Family("parallel_question", True, mixed(None), "any", felicitous("PARALLEL", by_tense)),
        Family("question_spast", True, chain("SPAST", "SPAST"), "any",
               felicitous("PARALLEL", by_tense)),
        Family("unresolved", False, chain("PPERF", "SPAST"), "any",
               infelicitous("UNRESOLVED_REFERENCE_TIME", "first")),
        Family("no_relation_pperf", False, ending("SPAST", ("PPERF", None)), "any_then_inert",
               infelicitous("NO_COHERENCE_RELATION", "last_pair")),
        # A question, a simple past, a past-perfect chain in which every pair
        # admits Explanation and Parallel, then a pair that fails whatever came
        # before: the depth-first search tries every combination first. Both
        # have n - 3 ambiguous pairs.
        Family("backtrack_because", True,
               ending("PPERF", ("SPAST", None), ("SPAST", "because")),
               "explain_then_inert", infelicitous("NO_COHERENCE_RELATION", "last_pair")),
        Family("backtrack_clash", True, ending("PPERF", ("SFUT", None), ("SPAST", "and_so")),
               "explain", infelicitous("TEMPORAL_CLASH", "last_pair")),
    )
}


def grid(
    families: tuple[str, ...], sizes: range, all_readings: bool = False
) -> tuple[tuple[str, int, bool], ...]:
    return tuple((family, n, all_readings) for family in families for n in sizes)


@dataclass(frozen=True)
class Workload:
    # (family, clauses, through `interpret --json --all`) per discourse of a block.
    mix: tuple[tuple[str, int, bool], ...]
    # The traced run interprets this many blocks, so its per-layer counts
    # are exact functions of the seed.
    traced_blocks: int


WORKLOADS = {
    "long_chain": Workload(
        grid(("narration", "pperf_explanation", "because_spast", "parallel_question"),
             range(30, 51)),
        1,
    ),
    # Each size of a family costs about twice the one below, so the latency
    # distribution is a set of steps. The 15 discourses of a block are chosen
    # so that 6 cost less than the three 7-clause `--all` ones and 6 more,
    # with the three 8-clause `--all` ones dearest: the median falls in the
    # middle of the 7-clause ones and p90 in the middle of the 8-clause ones,
    # not on a step.
    "search": Workload(
        grid(("backtrack_because", "backtrack_clash"), range(10, 13))
        + (("backtrack_because", 12, False),)
        + (("question_pperf", 6, True),) * 2
        + (("question_pperf", 7, True),) * 3
        + (("question_pperf", 8, True),) * 3,
        15,
    ),
}


# --- cases ------------------------------------------------------------------


@dataclass(frozen=True)
class Case:
    name: str
    text: str
    expected: dict
    all_readings: bool
    path: Path | None = None  # set for corpus files, which the CLI reads in place


def render(layout: Layout, verbs: list[str], question: str | None, rng: random.Random) -> str:
    lines = [f'@context question="{question}"'] if question is not None else []
    for i, ((tense, conn), verb) in enumerate(zip(layout, verbs), start=1):
        fields = [f"clause id=c{i}"]
        if conn is not None:
            fields.append(f"conn={conn}")
        fields.append(f"subj={rng.choice(SUBJECTS)}")
        fields.append(f"verb={verb}")
        obj = rng.choice(OBJECTS)
        if obj is not None:
            fields.append(f'obj="{obj}"')
        fields.append(f"tense={tense}")
        lines.append(" ".join(fields))
    return "\n".join(lines) + "\n"


def expected_output(family: Family, n: int, tenses: list[str], all_readings: bool) -> dict:
    expected = family.expect(n, tenses)
    if all_readings:
        expected["assignments"] = family.readings(n, tenses)
    return expected


def make_case(family: Family, n: int, rng: random.Random, all_readings: bool = False) -> Case:
    layout = family.layout(n, rng)
    verbs = VERB_RULES[family.verbs](n, rng)
    question = rng.choice(QUESTIONS) if family.question else None
    tenses = [tense for tense, _ in layout]
    return Case(
        name=f"{family.name}/{n}",
        text=render(layout, verbs, question, rng),
        expected=expected_output(family, n, tenses, all_readings),
        all_readings=all_readings,
    )


def _tuples(entries: list[dict], keys: tuple[str, ...]) -> list[tuple]:
    return [tuple(entry[key] for key in keys) for entry in entries]


def project(data: dict) -> dict:
    """The compared subset of an output: diagnostic message text is ignored."""
    out = {
        "felicitous": data["felicitous"],
        "relations": _tuples(data["relations"], ("kind", "first", "second")),
        "event_order": _tuples(data["event_order"], ("before", "after")),
        "diagnostics": [(d["code"], tuple(d["clauses"])) for d in data["diagnostics"]],
    }
    if "assignments" in data:
        out["assignments"] = [
            (
                _tuples(a["relations"], ("kind", "first", "second")),
                _tuples(a["event_order"], ("before", "after")),
            )
            for a in data["assignments"]
        ]
    return out


def corpus_cases(corpus_dir: Path) -> list[Case]:
    """The hand-checked corpus, each case run through `interpret --json --all`.

    Every corpus pair has at most one candidate relation, so `--all` lists
    exactly the expected reading of a felicitous case and nothing otherwise.
    """
    cases = []
    for path in sorted(corpus_dir.glob("*.disc")):
        name = path.name[: -len(".disc")]
        expected = project(json.loads((corpus_dir / f"{name}.expected.json").read_text()))
        expected["assignments"] = (
            [(expected["relations"], expected["event_order"])] if expected["felicitous"] else []
        )
        cases.append(Case(f"corpus/{name}", path.read_text(), expected, True, path))
    return cases


def blocks(workload: str, seed: int, corpus_dir: Path) -> Iterator[list[Case]]:
    """The corpus, then an endless run of generated blocks for `workload`.

    Each generated block holds the workload's (family, size) mix in a
    seeded order, so all blocks do the same mix of work and runs on
    different seeds differ in content, not in proportions.
    """
    spec = WORKLOADS[workload]
    yield corpus_cases(corpus_dir)
    rng = random.Random(f"{workload}/{seed}")
    while True:
        block = list(spec.mix)
        rng.shuffle(block)
        yield [make_case(FAMILIES[f], n, rng, all_readings) for f, n, all_readings in block]
