"""The benchmark tracer finds every function it wraps.

`perfbench/tracer.py` looks its targets up by name when `--trace 1` is
given; a renamed or deleted function would only surface there as a
`KeyError`.  Loading the module does not install anything.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize(
    "mod,name", tracer.SPANNED_FUNCTIONS + tracer.COUNTED_FUNCTIONS
)
def test_traced_function_exists(mod, name):
    assert callable(importlib.import_module(f"smsquiver.{mod}").__dict__.get(name))


@pytest.mark.parametrize(
    "mod,cls,name",
    tracer.SPANNED_METHODS
    + tracer.COUNTED_METHODS
    + (("nakayama", "NakayamaAlgebra", "extension_middles"),),
)
def test_traced_method_exists(mod, cls, name):
    klass = getattr(importlib.import_module(f"smsquiver.{mod}"), cls)
    assert callable(klass.__dict__.get(name))
