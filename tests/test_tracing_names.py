"""The benchmark's traced names and the arguments its work counters read
resolve against the package, so an API change cannot silently break a
traced benchmark run."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _assignments():
    # read the benchmark's tables from its source without importing it
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    return {target.id: node.value for node in tree.body if isinstance(node, ast.Assign)
            for target in node.targets if isinstance(target, ast.Name)}


def _resolve(name):
    module_name, attr = name.split(".")
    return getattr(importlib.import_module(f"timdof.{module_name}"), attr, None)


def _argument_reads():
    """(traced name, position, parameter name) for every _arg call of a work counter."""
    table = _assignments()["WORK_COUNTS"]
    reads = []
    for entry in table.values:
        target, measure = entry.elts
        for node in ast.walk(measure):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_arg":
                reads.append((target.value, node.args[2].value, node.args[3].value))
    return reads


@pytest.mark.parametrize("name", ast.literal_eval(_assignments()["TRACED"]))
def test_traced_name_resolves(name):
    assert callable(_resolve(name)), name


@pytest.mark.parametrize("name,position,parameter", _argument_reads())
def test_work_counter_reads_a_real_parameter(name, position, parameter):
    params = list(inspect.signature(_resolve(name)).parameters)
    assert params[position] == parameter, (name, params)
