"""Every name the benchmark's tracer wraps must exist in the package.

``bench/tracer.py`` rebinds each ``(module, class, attribute)`` of
``TRACED`` and ``COUNTED`` by name, so removing or renaming one breaks
``bench/run.py --trace 1``. Each is resolved here the way
``Tracer._rebind`` resolves it: a method from its class's own
``__dict__``, a function as a module attribute.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", _TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_tracer = _load_tracer()
_HOOKS = _tracer.TRACED + _tracer.COUNTED


@pytest.mark.parametrize("name, modname, clsname, attr", _HOOKS, ids=[h[0] for h in _HOOKS])
def test_traced_name_resolves(name, modname, clsname, attr):
    module = importlib.import_module(modname)
    if clsname is None:
        target = getattr(module, attr)
    else:
        target = vars(getattr(module, clsname))[attr]
    assert callable(target), name


# Names that bench/tests/check_bench.py asserts are wrapped where they are
# used, with the module that defines each. The tracer rebinds a function in
# every module that holds the defining module's object under its name.
_USED_BINDINGS = (
    ("prymdim.rhprym", "character_table", "prymdim.chartable"),
    ("prymdim.rhprym", "validate", "prymdim.rhprym"),
    ("prymdim.monodromy", "genus_quotient", "prymdim.rhprym"),
)


@pytest.mark.parametrize("modname, attr, owner", _USED_BINDINGS,
                         ids=[f"{m}.{a}" for m, a, _ in _USED_BINDINGS])
def test_bench_asserted_binding_resolves(modname, attr, owner):
    target = getattr(importlib.import_module(modname), attr)
    assert callable(target)
    assert target is getattr(importlib.import_module(owner), attr)
