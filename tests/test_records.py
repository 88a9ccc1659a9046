"""The package's records and what importing the CLI loads.

Plain records are ``typing.NamedTuple`` classes (copy one with
``_replace``); the records that validate their fields (``Permutation``,
``RamificationSpec``, ``CoverSpec``) and ``BranchTuple`` are small
classes on ``permgroup._Record``. Every record compares field by field
and refuses attribute assignment with AttributeError.
"""

import ast
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import prymdim
from prymdim.chartable import character_table, fixed_dim_matrix
from prymdim.errors import NotRationalGroup, ParseError
from prymdim.monodromy import sample_tuple, verify_tuple
from prymdim.permgroup import Permutation, group_from_generators, parse_generators
from prymdim.rhprym import CoverSpec, RamificationSpec, validate
from prymdim.weyl import weyl_group

_SRC = str(Path(prymdim.__file__).resolve().parents[1])


def test_cli_import_loads_no_reflection_or_fraction_modules():
    """``import prymdim.cli`` adds none of dataclasses, inspect, fractions,
    decimal, argparse, gettext or locale to what a bare interpreter has
    loaded, so a cold CLI start does not pay for them; a module the
    interpreter's start-up already loaded does not count."""
    snippet = (
        "import sys\n"
        "bare = set(sys.modules)\n"
        "import prymdim.cli\n"
        "added = set(sys.modules) - bare\n"
        "print(sorted(added & {'dataclasses', 'inspect', 'fractions', 'decimal',\n"
        "                      'argparse', 'gettext', 'locale'}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", snippet],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": _SRC},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _lane_format_uses(tree: ast.AST) -> list[str]:
    """The imports of ``array`` and the reads of ``sys.byteorder`` in a
    module's syntax tree."""
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            uses += [a.name for a in node.names if a.name.split(".")[0] == "array"]
        elif isinstance(node, ast.ImportFrom):
            if node.module == "array":
                uses.append("from array")
            elif node.module == "sys" and any(a.name == "byteorder" for a in node.names):
                uses.append("from sys import byteorder")
        elif (isinstance(node, ast.Attribute) and node.attr == "byteorder"
              and isinstance(node.value, ast.Name) and node.value.id == "sys"):
            uses.append("sys.byteorder")
    return uses


def test_only_exactla_packs_lanes():
    """``exactla`` owns the packed-lane format: no other module of the
    package imports ``array`` or reads ``sys.byteorder``, so a second
    packing cannot appear unnoticed; ``exactla`` reads the byte order."""
    found = {}
    for path in sorted(Path(prymdim.__file__).parent.glob("*.py")):
        uses = _lane_format_uses(ast.parse(path.read_text(encoding="utf-8")))
        if uses:
            found[path.name] = sorted(set(uses))
    assert found == {"exactla.py": ["sys.byteorder"]}
    # the guard sees each spelling
    for text in ("import array", "import array as a", "from array import array",
                 "from sys import byteorder", "import sys\nsys.byteorder"):
        assert _lane_format_uses(ast.parse(text)), text


def _records():
    s3 = group_from_generators(parse_generators(["(0 1)", "(0 1 2)"]))
    K = s3.cyclic_subgroup_classes()[1]
    spec = CoverSpec(s3, 1, RamificationSpec({1: 2}))
    t = sample_tuple(s3, 1, 2, random.Random(0))
    assert t.rows  # the cached rows are not a field; assignment stays refused once they exist
    return [
        Permutation.from_cycles("(0 1)"),
        s3.conjugacy_classes()[1],
        K,
        s3.coset_action(K.subgroup_elements),
        character_table(s3),
        fixed_dim_matrix(s3),
        RamificationSpec({1: 2}),
        spec,
        validate(spec),
        t,
        verify_tuple(t),
        weyl_group("A", 2),
    ]


def test_every_record_refuses_assignment():
    """Assigning or deleting a field, or adding an attribute, raises
    AttributeError and leaves the record as it was. (WeylGroup was the one
    mutable record; as a NamedTuple it is frozen too.)"""
    records = _records()
    assert len({type(r).__name__ for r in records}) == 12
    for rec in records:
        for name in type(rec)._fields:
            before = getattr(rec, name)
            with pytest.raises(AttributeError):
                setattr(rec, name, None)
            with pytest.raises(AttributeError):
                delattr(rec, name)
            assert getattr(rec, name) is before, (type(rec).__name__, name)
        with pytest.raises(AttributeError):
            rec.extra = 1


def test_validating_records_compare_field_wise():
    s3 = group_from_generators(parse_generators(["(0 1)", "(0 1 2)"]))
    p = Permutation.from_cycles("(0 1)", degree=3)
    assert p == Permutation((1, 0, 2))
    assert p != Permutation((0, 2, 1))
    assert p != (1, 0, 2)
    assert RamificationSpec({1: 2}) == RamificationSpec({1: 2})
    assert RamificationSpec({1: 2}) != RamificationSpec({1: 3})
    spec = CoverSpec(s3, 1, RamificationSpec({1: 2}))
    assert spec == CoverSpec(s3, 1, RamificationSpec({1: 2}))
    assert spec != CoverSpec(s3, 2, RamificationSpec({1: 2}))
    assert spec != CoverSpec(s3, 1, RamificationSpec({2: 2}))
    assert repr(p) == "Permutation(images=(1, 0, 2))"
    assert repr(RamificationSpec({1: 2})) == "RamificationSpec(counts={1: 2})"


def test_permutation_is_a_dict_key():
    a, b = Permutation.from_cycles("(0 1)"), Permutation.from_cycles("(0 1)")
    assert a is not b and hash(a) == hash(b)
    table = {a: "swap", Permutation.identity(2): "one"}
    assert table[b] == "swap"
    assert len({a, b, Permutation.identity(2)}) == 2


def test_validation_messages_are_unchanged():
    with pytest.raises(ParseError, match=r"^not a bijection on 0\.\.1: \(0, 0\)$"):
        Permutation((0, 0))
    spec = RamificationSpec({1: 2, 2: 0, 3: 0})
    assert spec.counts == {1: 2}
    assert spec.count(2) == 0 and spec.count(1) == 2
    for counts, text in (
        ({1: 2.0}, "ramification key 1 and count 2.0 must both be int"),
        ({"1": 2}, "ramification key '1' and count 2 must both be int"),
        ({True: 1}, "ramification key True and count 1 must both be int"),
        ({1: -1}, "branch-point counts must be nonnegative"),
    ):
        with pytest.raises(ValueError) as exc:
            RamificationSpec(counts)
        assert str(exc.value) == text
    s3 = group_from_generators(parse_generators(["(0 1)", "(0 1 2)"]))
    for genus, counts, text in (
        (-1, {}, "base genus -1 is not a nonnegative int"),
        (True, {}, "base genus True is not a nonnegative int"),
        (1, {0: 2}, "ramification key 0 is not a nontrivial cyclic class"),
        (1, {3: 2}, "ramification key 3 is not a nontrivial cyclic class"),
    ):
        with pytest.raises(ValueError) as exc:
            CoverSpec(s3, genus, RamificationSpec(counts))
        assert str(exc.value) == text
    z5 = group_from_generators(parse_generators(["(0 1 2 3 4)"]))
    with pytest.raises(NotRationalGroup, match="^cover group must have rational characters$"):
        CoverSpec(z5, 0, RamificationSpec({}))
