import contextlib
import hashlib
import io
import json
import os
import random
import re
import sys
import tempfile

import pytest
from hypothesis import given
from hypothesis import strategies as st

from prymdim import rhprym, weyl
from prymdim.chartable import character_table
from prymdim.cli import FORMATS, main, parse_args
from prymdim.permgroup import MAX_DEGREE, Permutation


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


S3_SPEC = {
    "group": {"generators": ["(0 1)", "(0 1 2)"]},
    "base_genus": 0,
    "ramification": [
        {"inertia_generator": "(0 1)", "count": 4},
        {"inertia_generator": "(0 1 2)", "count": 1},
    ],
}


@pytest.fixture
def s3_file(tmp_path):
    f = tmp_path / "s3.json"
    f.write_text(json.dumps(S3_SPEC))
    return str(f)


def test_dims_text(capsys, s3_file):
    code, out, _ = run(capsys, ["dims", s3_file])
    assert code == 0
    assert "genus of total space: 3" in out
    assert "chi1 (degree 1): 0" in out
    assert "chi2 (degree 1): 1" in out
    assert "chi3 (degree 2): 1" in out


def test_dims_json_roundtrip_and_stability(capsys, s3_file):
    code, out1, _ = run(capsys, ["dims", s3_file, "--format", "json"])
    assert code == 0
    doc = json.loads(out1)  # machine-readable form round-trips through parse
    assert doc["genera"]["total"] == 3
    assert [d["dim"] for d in doc["dimensions"]] == [0, 1, 1]
    assert doc["method_agreement"] is True
    assert json.loads(json.dumps(doc)) == doc
    code, out2, _ = run(capsys, ["dims", s3_file, "--format", "json"])
    assert out1 == out2  # byte-identical across runs


def test_dims_weyl_group_source(capsys, tmp_path):
    f = tmp_path / "w.json"
    f.write_text(
        json.dumps(
            {
                "group": {"weyl": {"type": "A", "rank": 1}},
                "base_genus": 1,
                "ramification": [{"inertia_generator": "(0 1)", "count": 4}],
            }
        )
    )
    code, out, _ = run(capsys, ["dims", str(f), "--format", "json"])
    assert code == 0
    assert [d["dim"] for d in json.loads(out)["dimensions"]] == [1, 2]


def test_dims_diagnostics_exit_code(capsys, tmp_path):
    f = tmp_path / "odd.json"
    f.write_text(
        json.dumps(
            {
                "group": {"generators": ["(0 1)"]},
                "base_genus": 1,
                "ramification": [{"inertia_generator": "(0 1)", "count": 3}],
            }
        )
    )
    code, out, _ = run(capsys, ["dims", str(f)])
    assert code == 2
    assert "OddRamificationDegree" in out


@pytest.mark.parametrize(
    "content, message",
    [
        (b"{not json", "line 1 column"),
        (b"\xff\xfe{}", "cannot read"),
        (b"[" * 100_000, "cannot read"),
        (None, "cannot read"),
        ("directory", "cannot read"),
        # the last value would have won
        (b'{"group": {"weyl": {"type": "A", "rank": 2}}, "base_genus": 2, "base_genus": 3}',
         'repeated key "base_genus" in'),
        (b'{"group": {"weyl": {"type": "A", "rank": 2, "rank": 3}}, "base_genus": 2}',
         'repeated key "rank" in'),
    ],
    ids=["syntax", "not_utf8", "nested_past_recursion_limit", "missing_path", "directory",
         "repeated_key", "repeated_nested_key"],
)
def test_dims_malformed_json(capsys, tmp_path, content, message):
    f = tmp_path / "bad.json"
    if content == "directory":
        f.mkdir()
    elif content is not None:
        f.write_bytes(content)
    code, out, err = run(capsys, ["dims", str(f)])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and message in err and str(f) in err
    assert err.count("\n") == 1


def test_dims_unresolvable_inertia(capsys, tmp_path):
    f = tmp_path / "u.json"
    f.write_text(
        json.dumps(
            {
                "group": {"generators": ["(0 1)(2 3)", "(0 2)(1 3)"]},
                "base_genus": 0,
                "ramification": [{"inertia_generator": "(0 1)", "count": 2}],
            }
        )
    )
    code, _, err = run(capsys, ["dims", str(f)])
    assert code == 1
    assert "not in the group" in err


def test_dims_inertia_outside_group_message(capsys, tmp_path):
    """An inertia generator outside G is named once, without the quotes
    of a KeyError's repr around the group's message."""
    doc = json.loads(json.dumps(S3_SPEC))
    doc["ramification"][0]["inertia_generator"] = "(0 5)"
    f = tmp_path / "outside.json"
    f.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["dims", str(f)])
    assert (code, out) == (1, "")
    assert err == (
        "error: inertia generator '(0 5)' is not in the group: "
        "(0 5) is not an element of this group\n"
    )


@pytest.mark.parametrize(
    "inertia, message",
    [
        ([1, 0, 2], 'inertia generator [1, 0, 2] must be a cycle string such as "(0 1)"'),
        (3, 'inertia generator 3 must be a cycle string such as "(0 1)"'),
        ("(0 1", "inertia generator '(0 1' is malformed: bad cycle notation: '(0 1'"),
    ],
    ids=["image_array", "integer", "unclosed_cycle"],
)
def test_dims_refuses_non_cycle_inertia(capsys, tmp_path, inertia, message):
    """Inertia generators take cycle notation only: an image array, which
    "generators" accepts, or any other non-string is refused as such, and
    a malformed string as malformed, not as an element outside G."""
    doc = json.loads(json.dumps(S3_SPEC))
    doc["ramification"][0]["inertia_generator"] = inertia
    f = tmp_path / "inertia.json"
    f.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["dims", str(f)])
    assert (code, out, err) == (1, "", f"error: {message}\n")


def _with(path, value):
    """S3_SPEC with the field at ``path`` set to ``value``."""
    doc = json.loads(json.dumps(S3_SPEC))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@pytest.mark.parametrize(
    "doc",
    [
        {"group": {"weyl": {"type": "A", "rank": True}}, "base_genus": 1},
        _with(("base_genus",), True),
        _with(("ramification", 0, "count"), True),
        _with(("group", "degree"), True),
        _with(("group", "degree"), 0),
        _with(("group", "degree"), -3),
        # an image array holds JSON integers only
        {"group": {"generators": [[[1, 0]]]}, "base_genus": 1},
        {"group": {"generators": [["1", "0"]]}, "base_genus": 1},
        {"group": {"generators": [["(0 1)"]]}, "base_genus": 1},
        {"group": {"generators": [[True, False]]}, "base_genus": 1},
    ],
    ids=["rank", "base_genus", "count", "degree", "degree_zero", "degree_negative",
         "image_nested_list", "image_strings", "image_cycle_string", "image_bools"],
)
def test_dims_rejects_bool_for_int(capsys, tmp_path, doc):
    f = tmp_path / "bool.json"
    f.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["dims", str(f)])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "doc, exit_code",
    [
        ({"group": {"weyl": "A2"}, "base_genus": 1}, 1),
        # "A²1" passed str.isdigit and then failed int(); a bad label is UnsupportedType
        ({"group": {"weyl": {"type": "A\u00b2", "rank": 1}}, "base_genus": 1}, 2),
        # "type" must be a string
        ({"group": {"weyl": {"type": 1, "rank": 2}}, "base_genus": 1}, 1),
        ({"group": {"weyl": {"type": ["A"], "rank": 2}}, "base_genus": 1}, 1),
        ({"group": {"weyl": {"rank": 2}}, "base_genus": 1}, 1),
        # a second group beside "weyl" is refused, not dropped
        ({"group": {"weyl": {"type": "A", "rank": 2}, "generators": ["(0 1 2 3)"]},
          "base_genus": 1}, 1),
        ({"group": {"weyl": {"type": "A", "rank": 2}, "degree": 3}, "base_genus": 1}, 1),
        ({"group": {"weyl": {"type": "A", "rank": 2}, "generators": ["(0 1 2)"],
                    "degree": 3}, "base_genus": 1}, 1),
        # a key the schema lacks is refused, not dropped: a misspelled
        # "ramification" was read as an unramified cover
        ({"group": {"weyl": {"type": "A", "rank": 2}}, "base_genus": 2,
          "ramificaton": [{"inertia_generator": "(0 1)", "count": 2}]}, 1),
        ({"group": {"weyl": {"type": "A", "rank": 2}, "wyel": {}}, "base_genus": 1}, 1),
        ({"group": {"weyl": {"type": "A", "rank": 2, "rnak": 3}}, "base_genus": 1}, 1),
        ({"group": {"weyl": {"type": "A", "rank": 2}}, "base_genus": 2,
          "ramification": [{"inertia_generator": "(0 1)", "count": 2, "cuont": 4}]}, 1),
    ],
    ids=["weyl_not_object", "superscript_digit", "type_int", "type_list", "type_missing",
         "weyl_and_generators", "weyl_and_degree", "weyl_generators_and_degree",
         "unknown_top_level_key", "unknown_group_key", "unknown_weyl_key",
         "unknown_entry_key"],
)
def test_dims_rejects_malformed_weyl(capsys, tmp_path, doc, exit_code):
    f = tmp_path / "weyl.json"
    f.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["dims", str(f)])
    assert code == exit_code
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert err.count("\n") == 1
    for key in ("generators", "degree"):
        if key in doc["group"]:
            assert '"weyl"' in err and f'"{key}"' in err
    for key, where in (("ramificaton", "cover spec"), ("wyel", "group object"),
                       ("rnak", '"weyl" object'), ("cuont", "ramification entry")):
        if f'"{key}"' in f.read_text():
            assert err.startswith(f'error: unknown key "{key}" in {where}')


# each case needs degree MAX_DEGREE + 1 and no more, so nothing large is
# built even where the limit is missing
_PAST_LIMIT = f"(0 {MAX_DEGREE})"


@pytest.mark.parametrize(
    "doc",
    [
        _with(("group", "degree"), MAX_DEGREE + 1),
        _with(("group", "generators"), ["(0 1)", _PAST_LIMIT]),
        _with(("group", "generators"), [list(range(MAX_DEGREE, -1, -1))]),
        _with(("ramification", 0, "inertia_generator"), _PAST_LIMIT),
    ],
    ids=["degree", "generator_label", "image_array", "inertia_label"],
)
def test_dims_rejects_degree_past_limit(capsys, tmp_path, doc):
    f = tmp_path / "big.json"
    f.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["dims", str(f), "--format", "json"])
    assert code == 1
    assert out == ""
    assert "degree limit" in err and "Traceback" not in err


def test_group_info_rejects_degree_past_limit(capsys):
    code, out, err = run(capsys, ["group-info", "--generators", _PAST_LIMIT])
    assert code == 1
    assert out == ""
    assert "degree limit" in err and "Traceback" not in err


def test_dims_accepts_degree_at_limit(capsys, tmp_path):
    f = tmp_path / "limit.json"
    f.write_text(json.dumps(_with(("group", "degree"), MAX_DEGREE)))
    code, out, _ = run(capsys, ["dims", str(f), "--format", "json"])
    assert code == 0
    assert json.loads(out)["group"]["degree"] == MAX_DEGREE


def test_dims_declared_degree_without_generators(capsys, tmp_path):
    f = tmp_path / "trivial.json"
    f.write_text(json.dumps({"group": {"generators": [], "degree": 5}, "base_genus": 0}))
    code, out, _ = run(capsys, ["dims", str(f), "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert (doc["group"]["degree"], doc["group"]["order"]) == (5, 1)


# -- integers past Python's limit on decimal conversion ---------------------------

_DIGIT_LIMIT = sys.get_int_max_str_digits()


def _long_spec(tmp_path, group, digits):
    """A spec file whose base genus is written with ``digits`` ones."""
    f = tmp_path / "long.json"
    f.write_text('{"group": %s, "base_genus": %s}' % (json.dumps(group), "1" * digits))
    return str(f)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize(
    "argv",
    [
        # json.load cannot read the base genus
        lambda tmp: ["dims", _long_spec(tmp, {"generators": ["(0 1)"]}, _DIGIT_LIMIT + 100)],
        # the base genus reads, but the report's genera and dimensions do not print
        lambda tmp: ["dims", _long_spec(tmp, {"weyl": {"type": "A", "rank": 4}},
                                        _DIGIT_LIMIT - 1)],
        lambda tmp: ["preset", "hitchin", "A", "4", "--genus", "1" * (_DIGIT_LIMIT - 1)],
    ],
    ids=["dims_read", "dims_report", "preset_report"],
)
def test_integer_past_digit_limit_is_input_error(capsys, tmp_path, argv, fmt):
    code, out, err = run(capsys, argv(tmp_path) + ["--format", fmt])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "digits" in err and "Traceback" not in err
    assert err.count("\n") == 1


def test_other_value_error_is_not_an_input_error(capsys, monkeypatch, s3_file):
    def fail(spec):
        raise ValueError("not a digit limit")

    monkeypatch.setattr(rhprym, "validate", fail)
    with pytest.raises(ValueError, match="not a digit limit"):
        main(["dims", s3_file])


# -- fuzz: random spec documents over small groups -------------------------------

# any JSON value; integers stay in -3..0 and strings below five characters,
# so no arbitrary value can name a large group, degree or point
ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 0) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _or_any(valid):
    """A field drawn from its valid domain or from arbitrary JSON."""
    return st.one_of(valid, ANY_JSON)


# W(A1-A3) and W(B2) by label; S3, S4, Z2, Z3 and Z4 from generators
_WEYL = st.sampled_from([("A", 1), ("A", 2), ("A", 3), ("B", 2)]).flatmap(
    lambda tr: st.fixed_dictionaries(
        {"type": _or_any(st.just(tr[0])), "rank": _or_any(st.just(tr[1]))}
    )
)
_GENERATORS = st.fixed_dictionaries(
    {
        "generators": _or_any(
            st.lists(
                _or_any(st.sampled_from(["(0 1)", "(0 1 2)", "(0 1 2 3)"])),
                min_size=1,
                max_size=2,
            )
        )
    },
    optional={"degree": _or_any(st.integers(1, 6))},
)
_GROUP = st.fixed_dictionaries({"weyl": _or_any(_WEYL)}) | _GENERATORS
_INERTIA = st.permutations(range(4)).map(lambda p: Permutation.from_images(p).cycle_str())
_ENTRY = st.fixed_dictionaries(
    {"inertia_generator": _or_any(_INERTIA), "count": _or_any(st.integers(0, 6))}
)
SPEC_DOCS = _or_any(
    st.fixed_dictionaries(
        {
            "group": _or_any(_GROUP),
            "base_genus": _or_any(st.integers(0, 3)),
            "ramification": _or_any(st.lists(_or_any(_ENTRY), max_size=3)),
        }
    )
)


def _run_dims(path):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["dims", path, "--format", "json"])
    return code, out.getvalue(), err.getvalue()


@given(SPEC_DOCS)
def test_dims_fuzz_spec_documents(doc):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "spec.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        code, out, err = _run_dims(path)
        assert code in (0, 1, 2), err
        assert "Traceback" not in err
        assert _run_dims(path) == (code, out, err)


def test_chartable_too_many_classes(capsys):
    # (Z/2)^6 is abelian: 64 classes, over the character-table limit
    gens = [f"({2 * i} {2 * i + 1})" for i in range(6)]
    code, _, err = run(capsys, ["chartable", "--generators", *gens])
    assert code == 2
    assert "CapExceeded" in err and "Traceback" not in err


def test_cap_zero_is_input_error(capsys):
    code, _, err = run(capsys, ["chartable", "--generators", "(0 1)", "--cap", "0"])
    assert code == 1
    assert "--cap" in err and "Traceback" not in err


def _unbuilt(*_):
    raise AssertionError("a Weyl group over the cap was built")


@pytest.mark.parametrize("command", ["group-info", "chartable", "verify"])
def test_cap_bounds_weyl_label(capsys, monkeypatch, command):
    # |W(B3)| = 2 * 4 * 6 = 48 is known from the label, so nothing is built
    monkeypatch.setattr(weyl, "weyl_group", _unbuilt)
    code, out, err = run(capsys, [command, "--weyl", "B3", "--cap", "2", "--format", "json"])
    assert code == 2
    assert out == ""
    assert err == "error: CapExceeded: group order exceeds cap 2\n"


def test_cap_bounds_weyl_spec(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(weyl, "weyl_group", _unbuilt)
    f = tmp_path / "b3.json"
    f.write_text(json.dumps({"group": {"weyl": {"type": "B", "rank": 3}}, "base_genus": 2}))
    code, out, err = run(capsys, ["dims", str(f), "--cap", "2"])
    assert code == 2
    assert out == ""
    assert err == "error: CapExceeded: group order exceeds cap 2\n"


def test_cap_equal_to_weyl_order_passes(capsys):
    code, out, _ = run(capsys, ["group-info", "--weyl", "B3", "--cap", "48", "--format", "json"])
    assert code == 0
    assert json.loads(out)["group"]["order"] == 48


# (argv, the argument stderr must name); SPEC stands for a valid spec file, so
# only the parser can reject these
_REJECTED_ARGVS = [
    # flags that the subcommand does not read
    (["dims", "SPEC", "--seed", "3"], "--seed"),
    (["dims", "SPEC", "--reflection-split", "short"], "--reflection-split"),
    (["preset", "toda", "A", "2", "--seed", "3"], "--seed"),
    (["preset", "toda", "A", "2", "--cap", "10"], "--cap"),
    (["preset", "toda", "A", "2", "--genus", "5"], "--genus"),
    (["preset", "toda", "A", "2", "--degD", "9"], "--degD"),
    (["preset", "toda", "A", "2", "--genus", "5", "--degD", "9"], "--degD"),
    (["preset", "hitchin", "A", "2", "--seed", "3"], "--seed"),
    (["preset", "hitchin", "A", "2", "--cap", "10"], "--cap"),
    (["preset", "hitchin", "A", "2", "--genus", "2", "--degD", "3"], "--degD"),
    (["preset", "markman", "A", "2", "--seed", "3"], "--seed"),
    (["preset", "markman", "A", "2", "--cap", "10"], "--cap"),
    (["verify", "--weyl", "A2", "--reflection-split", "short"], "--reflection-split"),
    (["verify", "--weyl", "A2", "--format", "tsv"], "--format"),
    (["chartable", "--weyl", "A2", "--seed", "3"], "--seed"),
    (["chartable", "--weyl", "A2", "--reflection-split", "short"], "--reflection-split"),
    (["group-info", "--weyl", "A2", "--seed", "3"], "--seed"),
    (["group-info", "--weyl", "A2", "--reflection-split", "short"], "--reflection-split"),
    # usage errors
    (["dims"], "specfile"),
    (["preset", "hitchin", "A", "x"], "rank"),
    (["chartable", "--weyl", "A2", "--generators", "(0 1)"], "--generators"),
]


@pytest.mark.parametrize(
    "argv, named", _REJECTED_ARGVS, ids=[" ".join(a) for a, _ in _REJECTED_ARGVS]
)
def test_rejected_argv_is_input_error(capsys, s3_file, argv, named):
    argv = [s3_file if a == "SPEC" else a for a in argv]
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and named in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["chartable", "group-info", "verify"])
def test_repeated_generators_flag_is_refused(capsys, command):
    """argparse keeps only the last list of a repeated nargs option; taking
    it would silently drop the first list's generators."""
    argv = [command, "--generators", "(0 1 2 3 4 5 6 7)", "--generators", "(0 1)"]
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err == f"error: prymdim {command}: argument --generators: given more than once\n"


# (subcommand, its other arguments, flag, two values) for every single-valued
# option; the first value is never the option's default
_ONCE_OPTIONS = [
    ("dims", ["SPEC"], "--format", "json", "tsv"),
    ("dims", ["SPEC"], "--cap", "10", "20"),
    *[(command, [] if flag == "--weyl" else ["--weyl", "A2"], flag, a, b)
      for command in ("chartable", "group-info", "verify")
      for flag, a, b in (("--weyl", "A2", "B3"), ("--format", "json", "text"),
                         ("--cap", "10", "20"))],
    *[("verify", ["--weyl", "A2"], flag, "1", "2") for flag in ("--seed", "--specs", "--tuples")],
    *[(f"preset {kind}", ["A", "2"], flag, a, b)
      for kind in ("toda", "hitchin", "markman")
      for flag, a, b in (("--format", "json", "tsv"), ("--reflection-split", "short", "long"))],
    *[(f"preset {kind}", ["A", "2"], "--genus", "3", "2") for kind in ("hitchin", "markman")],
    ("preset markman", ["A", "2"], "--degD", "2", "1"),
]


@pytest.mark.parametrize(
    "command, rest, flag, first, second", _ONCE_OPTIONS,
    ids=[f"{command} {flag}" for command, _, flag, _, _ in _ONCE_OPTIONS],
)
def test_repeated_single_valued_option_is_refused(capsys, s3_file, command, rest, flag,
                                                  first, second):
    """argparse keeps the last value of a repeated option, so
    ``group-info --weyl A2 --weyl B3`` used to report W(B3); every
    single-valued option is refused the second time, defaults or not,
    and taken the first time."""
    rest = [s3_file if a == "SPEC" else a for a in rest]
    once = parse_args([*command.split(), *rest, flag, first])
    dest = "deg_d" if flag == "--degD" else flag[2:].replace("-", "_")
    assert str(getattr(once, dest)) == first
    code, out, err = run(capsys, [*command.split(), *rest, flag, first, flag, second])
    assert code == 1
    assert out == ""
    assert err == f"error: prymdim {command}: argument {flag}: given more than once\n"


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["preset", "markman", "--help"])
    assert exc.value.code == 0
    assert "--degD" in capsys.readouterr().out


@pytest.mark.parametrize("flag", ["--specs", "--tuples"])
def test_verify_negative_sample_count_is_input_error(capsys, flag):
    argv = ["verify", "--weyl", "A2", "--specs", "0", "--tuples", "0", flag, "-5"]
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert flag in err and "Traceback" not in err


def test_preset_toda(capsys):
    code, out, _ = run(capsys, ["preset", "toda", "A", "3"])
    assert code == 0
    assert "dim 3, expected 3 -> MATCH" in out


def test_preset_hitchin_json(capsys):
    code, out, _ = run(capsys, ["preset", "hitchin", "A", "2", "--genus", "2",
                                "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["preset"] == {
        "kind": "hitchin",
        "reflection_rep": "chi3",
        "computed_dim": 8,
        "expected_dim": 8,
        "match": True,
    }


def test_preset_markman(capsys):
    code, out, _ = run(capsys, ["preset", "markman", "A", "2", "--genus", "2",
                                "--degD", "2"])
    assert code == 0
    assert "dim 14, expected 14 -> MATCH" in out


def test_preset_split_flag(capsys):
    code, out, _ = run(capsys, ["preset", "toda", "B", "2",
                                "--reflection-split", "short"])
    assert code == 0
    assert "MATCH" in out


def test_preset_unsupported(capsys):
    code, _, err = run(capsys, ["preset", "toda", "E", "6"])
    assert code == 2
    assert "UnsupportedType" in err


def test_empty_weyl_label_is_unsupported(capsys):
    code, out, err = run(capsys, ["group-info", "--weyl", ""])
    assert code == 2
    assert out == ""
    assert err == "error: UnsupportedType: bad Weyl label ''\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["preset", "hitchin", "A", "2", "--genus", "1"],
        ["preset", "markman", "A", "2", "--genus", "1", "--degD", "0"],
        ["preset", "markman", "A", "2", "--genus", "1", "--degD", "-1"],
        # 2g - 2 + deg D = 1 > 0, but the genus itself is negative
        ["preset", "markman", "A", "2", "--genus", "-1", "--degD", "5"],
    ],
    ids=["hitchin_genus_1", "markman_degD_0", "markman_degD_negative",
         "markman_genus_negative"],
)
def test_preset_out_of_regime(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: OutOfRegime: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, line",
    [
        (["preset", "hitchin", "A", "3", "--genus", "1"], "base genus must be at least 2"),
        (["preset", "markman", "A", "3", "--genus", "1", "--degD", "0"],
         "2g - 2 + deg D must be positive"),
    ],
    ids=["hitchin_genus_1", "markman_genus_1_degD_0"],
)
def test_preset_out_of_regime_message(capsys, argv, line):
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (2, "", f"error: OutOfRegime: {line}\n")


def test_verify_weyl(capsys):
    code, out, _ = run(capsys, ["verify", "--weyl", "A3", "--specs", "5",
                                "--tuples", "10"])
    assert code == 0
    assert "result: PASS" in out


def test_verify_two_route_check_can_fail(capsys, monkeypatch):
    """A closed form that is wrong on genus-3 specs must fail verify: the
    sampler keeps specs on which the two routes disagree."""
    real = rhprym._vector

    def broken(spec, lanes, points):
        packed = real(spec, lanes, points)
        if spec.base_genus == 3:
            # +2 in lane n + 1 of v: +1 in the closed-form dimension of irrep 1
            n = len(spec.group.cyclic_subgroup_classes())
            packed += lanes.kernel.pack([2 * (j == n + 1) for j in range(2 * n)])
        return packed

    monkeypatch.setattr(rhprym, "_vector", broken)
    code, out, _ = run(capsys, ["verify", "--weyl", "A2", "--format", "json"])
    checks = {c["name"]: c["ok"] for c in json.loads(out)["checks"]}
    assert code == 2
    assert checks["two_route_dimensions"] is False


def _verify_f4_text(capsys):
    code, out, _ = run(capsys, ["verify", "--weyl", "F4", "--tuples", "0"])
    return code, out.splitlines()


def test_verify_fails_on_a_closed_form_one_off_in_irrep_3(capsys, monkeypatch):
    """+1 in the closed-form dimension of irrep 3 of every W(F4) spec fails
    the two-route check: verify compares each report with the reference
    route, which eliminates."""
    real = rhprym._vector

    def off_by_one(spec, lanes, points):
        # +2 in lane n + 3 of v is +1 in the closed-form dimension of irrep 3
        n = len(spec.group.cyclic_subgroup_classes())
        return real(spec, lanes, points) + lanes.kernel.pack(
            [2 * (j == n + 3) for j in range(2 * n)])

    monkeypatch.setattr(rhprym, "_vector", off_by_one)
    code, lines = _verify_f4_text(capsys)
    assert code == 2
    assert "two_route_dimensions: FAIL (25 sampled cover specs)" in lines


def test_verify_fails_on_a_unit_moved_between_equal_degree_irreps(capsys, monkeypatch):
    """One unit moved from one nontrivial W(F4) irrep to another of the same
    degree in the closed-form read keeps sum(deg_j * dim V_j) and the
    trivial dimension, so neither DimensionSum nor TrivialDimension can
    see it; the reference route does, and verify fails."""
    G = weyl.weyl_group("F", 4).group
    degrees = character_table(G).degrees
    a, b = next((a, b) for a in range(1, len(degrees)) for b in range(a + 1, len(degrees))
                if degrees[a] == degrees[b])
    real = rhprym._lanes

    def moved(spec):
        lanes, points = real(spec)
        n = len(lanes.rows)
        shift = lanes.kernel.pack([(j == n + a) - (j == n + b) for j in range(2 * n)])
        return lanes._replace(base=lanes.base + shift), points

    monkeypatch.setattr(rhprym, "_lanes", moved)
    code, lines = _verify_f4_text(capsys)
    assert code == 2
    assert "two_route_dimensions: FAIL (25 sampled cover specs)" in lines
    reports = rhprym.sample_cover_specs(G, 25, random.Random(1))
    assert not any(d.startswith(("DimensionSum", "TrivialDimension"))
                   for _, r in reports for d in r.diagnostics)


def test_verify_validates_each_sampled_spec_once(capsys, monkeypatch):
    """The two-route check reads the reports the sampler already made
    instead of validating the specs it keeps a second time."""
    seen = []
    real = rhprym.validate

    def counted(spec):
        seen.append(spec)
        return real(spec)

    monkeypatch.setattr(rhprym, "validate", counted)
    code, out, _ = run(capsys, ["verify", "--weyl", "G2", "--tuples", "0", "--format", "json"])
    assert code == 0
    assert "25 sampled cover specs" in out
    assert len(seen) == len({id(spec) for spec in seen}) >= 25


def test_verify_not_rational(capsys):
    code, out, _ = run(capsys, ["verify", "--generators", "(0 1 2)"])
    assert code == 2
    assert "FAIL" in out


def test_chartable_tsv(capsys):
    code, out, _ = run(capsys, ["chartable", "--generators", "(0 1)", "(0 1 2)",
                                "--format", "tsv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("class\t")
    assert lines[1] == "size\t1\t3\t2"
    assert lines[2] == "chi1\t1\t1\t1"
    assert lines[-1] == "chi3\t2\t0\t-1"
    assert len(lines) == 2 + 3


@pytest.mark.parametrize("fmt", ["text", "json", "tsv"])
def test_chartable_irrational_group(capsys, fmt):
    code, out, err = run(capsys, ["chartable", "--generators", "(0 1 2 3 4)",
                                  "--format", fmt])
    assert code == 2
    assert out == ""
    assert err == "error: NotRationalGroup: character table needs rational characters\n"


def test_group_info(capsys):
    code, out, _ = run(capsys, ["group-info", "--weyl", "G2", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["group"]["order"] == 12
    assert doc["rational_characters"] is True
    assert [k["subgroup_order"] for k in doc["cyclic_classes"]] == [1, 2, 2, 2, 3, 6]


ODD_SPEC = {
    "group": {"generators": ["(0 1)", "(0 1 2)"]},
    "base_genus": 1,
    "ramification": [{"inertia_generator": "(0 1)", "count": 1}],
}

# Every subcommand in each format it accepts, one dims spec with a
# diagnostic, one usage error and the chartable refusal. {S3} and {ODD}
# stand for files holding S3_SPEC and ODD_SPEC.
GOLDEN_ARGVS = [
    *(["dims", "{S3}", "--format", f] for f in FORMATS),
    *(["dims", "{ODD}", "--format", f] for f in FORMATS),
    *(["preset", "toda", "B", "3", "--format", f] for f in FORMATS),
    *(["preset", "hitchin", "G", "2", "--format", f] for f in FORMATS),
    *(["preset", "markman", "C", "3", "--genus", "2", "--degD", "1",
       "--reflection-split", "short", "--format", f] for f in FORMATS),
    *(["chartable", "--weyl", "B3", "--format", f] for f in FORMATS),
    *(["group-info", "--weyl", "G2", "--format", f] for f in FORMATS),
    *(["verify", "--weyl", "G2", "--format", f] for f in ("text", "json")),
    ["preset", "hitchin", "A"],
    ["chartable", "--generators", "(0 1 2 3 4)"],
]

# SHA-256 of json.dumps([exit code, stdout, stderr]) per command, with the
# text "elapsed:" seconds masked, recorded before main became the one
# place that renders.
GOLDEN_DIGESTS = [
    "c800ff63af57b8b9475f664aaaa2c96f57cb5de3f089866f5d5a7ba84181facd",
    "ec5d265ce7b39f5c07c51587d6589d2b7e9464efccf40dfc8b7dbffd0c7a06a5",
    "0dd3deff79f0447b9b118d4f2d478f5e6f9bb10a15717bfabaff07c8419314b9",
    "780478c5cde45e99acd05eb6f61eb5cfd6502c99ad53b6cb29abe46551b2baf0",
    "6fd66d7571c7ca3d016c4c6b0b21776fb1227a0b25d44e25f73ac42d3a7c538d",
    "0969372408f6f6bf1b83d87c6da3aaba3f8ec96e78e1f33873e720df71d14026",
    "923b231d5973b6bd96d87be21ea3f698bb7b6051a0bb6d792b4f6f80456844ab",
    "ead38447622a7e9659e3f6bea39930728aa25afe4f150def4701c49b0f814dc5",
    "3446301c88f24b22c695ce5d48e7c39f0830cc1af2002c274679be63dee4f558",
    "650e9ae82e769dfd109113d40e7f19cf03de80bac1a625969eabb289cd9525a7",
    "baaad4936bac268be8384688564c742386e6957910727d0e630969f52aaa26f1",
    "3d13d98c42f228bf3a27eca145f0a711e7c9fbdda981a0d4b456c1891b3079b0",
    "60f1dd1c6e977143e3dbb75f0c78c44dc4712727f68e3d31df6173422ec77b28",
    "9f7093d0fbe41847028a6c425bf66e99541aa9eb5191c835339ea8e59468ab78",
    "9a1a61e4969ac9efd16d5afc8dbec6ffb30ac5e4532d7f9f92bd7980524efda9",
    "affdf969bfea72ba1a61ed5ee513a45444dc30c6ce91a4d2b75743c7e79077ee",
    "1fb9d89de43eb6e2b6d7c8f5e409220002e0e4c5fa987bc6adc6288f094ab222",
    "3afbb2f0b54b5f38a2015c2a247585edcd0407ad310503d85c5c521929c51c95",
    "715de43abd84b4c059ea812e355b9975e65697522154902e78081f51bc2fefd0",
    "7cc63ddf8fe3f64866c1be1de3795d84c79702ad1706c02a01994c42f6a7c0fc",
    "78a1472383d4caf93db39dc2a47a632e6f0fe9bbe2093eef9461407b14523c02",
    "f30f03745909a87169dc31235831e240be52037557024cd105de1cd21f4a1c39",
    "1ceaa86b3c8d2d044fd16d0755d67663e2059291803c1c1a7e9c569c6b7632f2",
    "24eca2bad7dac4cb030a1e4beb987e308b0dbdaf2e9a859b2355e26a89d86812",
    "77853889c8d1e5032ab7c63fabea397da7268e5313d90a75a33074a509581349",
]


def golden_record(code, out, err):
    out = re.sub(r"^elapsed: \d+\.\d{3}s$", "elapsed: MASKED", out, flags=re.M)
    return hashlib.sha256(json.dumps([code, out, err]).encode()).hexdigest()


@pytest.mark.parametrize(
    "argv, digest", list(zip(GOLDEN_ARGVS, GOLDEN_DIGESTS, strict=True)),
    ids=[" ".join(a) for a in GOLDEN_ARGVS],
)
def test_golden_output(capsys, tmp_path, argv, digest):
    """stdout, stderr and exit code of the command, pinned byte for byte."""
    paths = {}
    for name, doc in (("S3", S3_SPEC), ("ODD", ODD_SPEC)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    assert golden_record(*run(capsys, [a.format(**paths) for a in argv])) == digest
