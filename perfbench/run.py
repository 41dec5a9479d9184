"""tempcoh benchmark: one workload, one process, one thread, closed loop.

    python3 perfbench/run.py --workload search --seed 1 --seconds 50 --trace 0

Run from the root of a checkout; it imports tempcoh from `src/` of that
checkout. Each discourse is interpreted once, and the next one starts only
after the previous one has returned its JSON. Every output is compared
with the closed-form reference of `workloads.py`, or with the corpus
`.expected.json` for the seven corpus cases that open every workload.

`--trace 0` measures for `--seconds` of interpretation time (at least 100
discourses) and reports the end-to-end metrics. `--trace 1` interprets a
fixed number of blocks of the workload with spans recorded around every
public tempcoh function (see `tracer.py`), then the same blocks untraced,
and reports the per-layer metrics and the tracing overhead.

The last line of standard output is the result object; the line before it
gives the sample count, the failed share and the share of distinct texts.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import traceback
from itertools import islice
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator

import workloads
from tracer import UNITS as LAYER_UNITS
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CORPUS = ROOT / "corpus"
LEXICON = BENCH_DIR / "data" / "lexicon.txt"
AXIOMS = BENCH_DIR / "data" / "axioms.txt"
OUT = ROOT / ".bench_build" / "perfbench"

SETUP_REPEATS = 15
MIN_DISCOURSES = 100

END_TO_END_UNITS = {
    "setup_s": "s",
    "discourses_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class Tempcoh:
    """The freshly imported tempcoh modules and the parsed lexicon and axioms.

    Functions are looked up on the modules at each call, so the tracer's
    patches take effect.
    """

    def __init__(self, lexicon, axioms) -> None:
        self.modules = {n: m for n, m in sys.modules.items() if n.partition(".")[0] == "tempcoh"}
        self.parsing = self.modules["tempcoh.parsing"]
        self.interpret = self.modules["tempcoh.interpret"]
        self.cli = self.modules["tempcoh.cli"]
        self.lexicon = lexicon
        self.axioms = axioms


def find_tempcoh() -> None:
    """Put the checkout's `src/` first on the import path, or stop."""
    if not (SRC / "tempcoh" / "__init__.py").is_file():
        print(f"error: no tempcoh package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))


def set_up() -> tuple[float, Tempcoh]:
    """Import tempcoh afresh and parse the lexicon and axioms; returns the time taken.

    The tempcoh modules are dropped first, so each call pays the package's
    own import (the standard library stays imported).
    """
    lexicon_text = LEXICON.read_text(encoding="utf-8")
    axioms_text = AXIOMS.read_text(encoding="utf-8")
    for name in [m for m in sys.modules if m.partition(".")[0] == "tempcoh"]:
        del sys.modules[name]
    started = perf_counter()
    importlib.import_module("tempcoh")
    importlib.import_module("tempcoh.cli")
    parsing = sys.modules["tempcoh.parsing"]
    lexicon = parsing.parse_lexicon(lexicon_text)
    axioms = parsing.parse_axioms(axioms_text)
    parsing.validate_axioms(axioms, lexicon)
    seconds = perf_counter() - started
    package = Path(sys.modules["tempcoh"].__file__).resolve()
    if SRC.resolve() not in package.parents:
        print(f"error: imported tempcoh from {package}, not from {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return seconds, Tempcoh(lexicon, axioms)


def interpret_text(tc: Tempcoh, text: str):
    """Parse and interpret one discourse: the benchmark's only call into the library API."""
    discourse = tc.parsing.parse_discourse(text, tc.lexicon)
    return tc.interpret.interpret(discourse, tc.lexicon, tc.axioms)


def to_json(tc: Tempcoh, interpretation) -> str:
    return tc.interpret.render_json(tc.interpret.interpretation_to_dict(interpretation))


def interpret_json(tc: Tempcoh, text: str) -> str:
    """What `tempcoh interpret --json` runs after argument parsing."""
    return to_json(tc, interpret_text(tc, text))


def interpret_all_json(tc: Tempcoh, path: Path, lexicon: Path, axioms: Path) -> str:
    """`tempcoh interpret PATH --json --all`, in process."""
    out = io.StringIO()
    argv = ["interpret", str(path), "--lexicon", str(lexicon), "--axioms", str(axioms)]
    with contextlib.redirect_stdout(out):
        code = tc.cli.main(argv + ["--json", "--all"])
    if code != 0:
        raise RuntimeError(f"tempcoh interpret exited with {code}")
    return out.getvalue()


class Tally:
    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.busy = 0.0
        self.attempted = 0
        self.failed = 0
        self.texts: set[int] = set()
        self.failures: list[str] = []

    def check(self, case: workloads.Case, output) -> None:
        self.attempted += 1
        self.texts.add(hash(case.text))
        if isinstance(output, Exception):
            why = "".join(traceback.format_exception(output)).strip()
        else:
            try:
                matches = workloads.project(json.loads(output)) == case.expected
                why = "" if matches else "wrong output"
            except (ValueError, KeyError, TypeError) as exc:
                why = f"malformed output: {exc!r}"
        if why:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{case.name}: {why}")


def drive(
    tc: Tempcoh, blocks: Iterator[list[workloads.Case]], seconds: float | None = None,
    tracer: Tracer | None = None, after_block: Callable[[Tally], None] | None = None,
    tally: Tally | None = None,
) -> Tally:
    """Interpret the discourses of `blocks` one after another, each once.

    Stops when `blocks` runs out or, given `seconds`, once that much
    interpretation time has been measured over at least MIN_DISCOURSES.
    Each block is generated, then timed back to back, then checked, so
    generating and checking count neither in latency nor in throughput.
    """
    if tally is None:
        tally = Tally()
    work = OUT / "work"
    work.mkdir(parents=True, exist_ok=True)
    while seconds is None or tally.busy < seconds or tally.attempted < MIN_DISCOURSES:
        block = next(blocks, None)
        if block is None:
            break
        calls = []
        for i, case in enumerate(block):
            if not case.all_readings:
                calls.append(functools.partial(interpret_json, tc, case.text))
            elif case.path is not None:  # a corpus case, with the corpus lexicon
                calls.append(functools.partial(
                    interpret_all_json, tc, case.path, CORPUS / "lexicon.txt",
                    CORPUS / "axioms.txt",
                ))
            else:
                path = work / f"{i}.disc"
                path.write_text(case.text, encoding="utf-8")
                calls.append(functools.partial(interpret_all_json, tc, path, LEXICON, AXIOMS))
        first = len(tally.latencies)
        outputs = []
        previous = perf_counter()
        for call in calls:
            if tracer is not None:
                tracer.discourse = tally.attempted + len(outputs)
            try:
                output = call()
            except Exception as exc:  # a crash is a failed discourse; the run goes on
                output = exc
            now = perf_counter()
            tally.latencies.append(now - previous)
            previous = now
            outputs.append(output)
        tally.busy += sum(tally.latencies[first:])
        for case, output in zip(block, outputs):
            tally.check(case, output)
        if after_block is not None:
            after_block(tally)
    return tally


def measure(
    tc: Tempcoh, setup_s: float, workload: str, seed: int, seconds: float
) -> tuple[list[Tally], dict]:
    """The end-to-end metrics, with set-up repeated at even steps through the run.

    `setup_s` is the time of the set-up that made `tc`. The host's speed
    drifts in phases of seconds, so set-up times taken back to back would
    all come from one phase; spread out, their median is as steady as the
    other metrics.
    """
    setup_times = [setup_s]

    def repeat_set_up(tally: Tally) -> None:
        if tally.busy >= len(setup_times) * seconds / SETUP_REPEATS:
            setup_times.append(set_up()[0])

    tally = drive(tc, workloads.blocks(workload, seed, CORPUS), seconds, after_block=repeat_set_up)
    latencies = tally.latencies
    return [tally], {
        "setup_s": statistics.median(setup_times),
        "discourses_per_s": tally.attempted / tally.busy,
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": statistics.quantiles(latencies, n=10)[-1] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def measure_layers(tc: Tempcoh, workload: str, seed: int) -> tuple[list[Tally], dict]:
    """Each block of a fixed prefix of the workload traced, then again untraced.

    The traced pass goes first, so a cache keyed on the input could not
    hide work from the per-layer counts. Alternating block by block puts
    both passes in the same phases of the host's speed, so their difference
    is the tracing overhead.
    """
    size = 1 + workloads.WORKLOADS[workload].traced_blocks  # with the corpus block
    blocks = islice(workloads.blocks(workload, seed, CORPUS), size)
    tracer = Tracer()
    traced, untraced = Tally(), Tally()
    for block in blocks:
        tracer.install(tc.modules)
        try:
            drive(tc, iter([block]), tracer=tracer, tally=traced)
        finally:
            tracer.uninstall()
        drive(tc, iter([block]), tally=untraced)
    tracer.write(OUT / f"spans-{workload}.bin")
    metrics = tracer.metrics()
    metrics["trace.traced_s"] = traced.busy
    metrics["trace.untraced_s"] = untraced.busy
    metrics["trace.overhead_s"] = traced.busy - untraced.busy
    metrics["trace.overhead_share"] = (traced.busy - untraced.busy) / untraced.busy
    return [traced, untraced], metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    find_tempcoh()
    setup_s, tc = set_up()
    try:
        if args.trace:
            tallies, metrics = measure_layers(tc, args.workload, args.seed)
            units = LAYER_UNITS
        else:
            tallies, metrics = measure(tc, setup_s, args.workload, args.seed, args.seconds)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(OUT / "work", ignore_errors=True)

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    for tally in tallies:
        for failure in tally.failures:
            print(f"failed: {failure}", file=sys.stderr)
    first = tallies[0]
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "samples": first.attempted,
        "failed_share": failed / attempted,
        "distinct_share": len(first.texts) / first.attempted,
        "measured_s": first.busy,
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
