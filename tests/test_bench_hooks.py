"""Every name the benchmark's tracer wraps must exist in the package.

``bench/tracer.py`` rebinds each ``(module, class, attribute)`` of
``TRACED`` and ``COUNTED`` by name, so removing or renaming one breaks
``bench/run.py --trace 1``. Each is resolved here the way
``Tracer._rebind`` resolves it: a method from its class's own
``__dict__``, a function as a module attribute. So is every name that
``bench/*.py`` and ``bench/tests/*.py`` import from the package, and
every attribute they read off such a name (``weyl.weyl_group``), so removing
one cannot break the benchmark or its own tests while this suite passes.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

_BENCH = Path(__file__).resolve().parents[1] / "bench"
_TRACER_PATH = _BENCH / "tracer.py"


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


def _bench_imports():
    """(file, module, name, attributes) for each ``from prymdim... import
    name`` in the benchmark's sources, with the attributes the file reads
    off ``name`` (``weyl.weyl_group`` after ``from prymdim import weyl``)."""
    out = {}
    for path in sorted([*_BENCH.glob("*.py"), *_BENCH.glob("tests/*.py")]):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                read.setdefault(node.value.id, set()).add(node.attr)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "prymdim":
                for alias in node.names:
                    attrs = read.get(alias.asname or alias.name, set())
                    key = (path.relative_to(_BENCH).as_posix(), node.module, alias.name)
                    out[key] = key + (tuple(sorted(attrs)),)
    return list(out.values())


_BENCH_IMPORTS = _bench_imports()


def test_bench_imports_something_from_the_package():
    assert {(m, n) for _, m, n, _ in _BENCH_IMPORTS} >= {
        ("prymdim", "group_from_generators"), ("prymdim.errors", "SamplingExhausted")}


@pytest.mark.parametrize("path, modname, name, attrs", _BENCH_IMPORTS,
                         ids=[f"{p}:{m}.{n}" for p, m, n, _ in _BENCH_IMPORTS])
def test_bench_import_resolves(path, modname, name, attrs):
    module = importlib.import_module(modname)
    target = getattr(module, name, None)
    if target is None:  # a submodule not bound on its package yet
        target = importlib.import_module(f"{modname}.{name}")
    for attr in attrs:
        assert hasattr(target, attr), f"{path}: {modname}.{name}.{attr}"
