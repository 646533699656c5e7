"""The benchmark tracer patches spin7 callables by name; every name it
lists must resolve, or `perfbench/run.py --trace 1` fails at install."""

import importlib
import importlib.util
import pathlib

import pytest

SPANTRACE = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spantrace.py"


def _traced():
    spec = importlib.util.spec_from_file_location("_spantrace_names", SPANTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("module_name,attr", _traced())
def test_traced_name_resolves(module_name, attr):
    owner = importlib.import_module(f"spin7.{module_name}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_bindings_the_tracer_test_reads():
    """`perfbench/test_spantrace.py` wraps and restores `lattice.unpack4` and
    `flow.metric_from_form`; both names must stay bound to the algebra
    functions although neither module calls them on the step path."""
    from spin7 import algebra, flow, lattice
    assert lattice.unpack4 is algebra.unpack4
    assert flow.metric_from_form is algebra.metric_from_form
