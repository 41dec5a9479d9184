"""The benchmark tracer's patch table still matches the package.

`perfbench/tracer.py` wraps the functions named in `FUNCTIONS` and the
`TemporalNetwork` methods named in `NETWORK_METHODS`, and its hooks read
`closed`, `inconsistent` and `constraints` off networks. A rename here
would stop `perfbench/run.py --trace 1`; this test catches it first. It
reads the tables from the tracer's source without importing the tracer.
"""

import ast
import importlib
from pathlib import Path

from tempcoh import (
    Clause,
    Discourse,
    PointRelation,
    TemporalNetwork,
    TenseForm,
    build_tense_network,
)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_tables() -> dict:
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    return {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in ("FUNCTIONS", "NETWORK_METHODS")
    }


def test_traced_functions_resolve():
    functions = _tracer_tables()["FUNCTIONS"]
    assert functions
    for span, (module, attr) in functions.items():
        assert callable(getattr(importlib.import_module(module), attr, None)), span


def test_traced_network_methods_exist():
    methods = _tracer_tables()["NETWORK_METHODS"]
    assert methods
    for method in methods:
        assert method in TemporalNetwork.__dict__, method


def test_networks_carry_what_the_hooks_read():
    clauses = tuple(
        Clause(id=cid, subject="Max", verb="slip", tense=TenseForm.SPAST) for cid in ("c1", "c2")
    )
    net = build_tense_network(Discourse(clauses=clauses))
    asserted = net.assert_constraint("t_c1", "t_c2", PointRelation.PRECEDES)
    for network in (net, asserted, asserted.close()):
        assert isinstance(network.closed, bool)
        assert isinstance(network.inconsistent, bool)
        assert len(network.constraints) > 0
