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
