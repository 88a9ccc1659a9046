import json

import pytest

from prymdim.cli import main


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


def test_dims_malformed_json(capsys, tmp_path):
    f = tmp_path / "bad.json"
    f.write_text("{not json")
    code, _, err = run(capsys, ["dims", str(f)])
    assert code == 1
    assert "line 1" in err and "column" in err


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
    ],
    ids=["rank", "base_genus", "count", "degree"],
)
def test_dims_rejects_bool_for_int(capsys, tmp_path, doc):
    f = tmp_path / "bool.json"
    f.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["dims", str(f)])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


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


@pytest.mark.parametrize(
    "argv",
    [
        ["preset", "hitchin", "A", "2", "--genus", "1"],
        ["preset", "markman", "A", "2", "--genus", "1", "--degD", "0"],
        ["preset", "markman", "A", "2", "--genus", "1", "--degD", "-1"],
    ],
    ids=["hitchin_genus_1", "markman_degD_0", "markman_degD_negative"],
)
def test_preset_out_of_regime(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: OutOfRegime: ") and "Traceback" not in err


def test_verify_weyl(capsys):
    code, out, _ = run(capsys, ["verify", "--weyl", "A3", "--specs", "5",
                                "--tuples", "10"])
    assert code == 0
    assert "result: PASS" in out


def test_verify_not_rational(capsys):
    code, out, _ = run(capsys, ["verify", "--generators", "(0 1 2)"])
    assert code == 2
    assert "FAIL" in out


def test_chartable_tsv(capsys):
    code, out, _ = run(capsys, ["chartable", "--generators", "(0 1)", "(0 1 2)",
                                "--format", "tsv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].split("\t")[0] == "class"
    assert lines[1] == "size\t1\t3\t2"
    assert lines[-1] == "chi3\t2\t0\t-1"


def test_chartable_irrational_group(capsys):
    code, _, err = run(capsys, ["chartable", "--generators", "(0 1 2 3 4)"])
    assert code == 2
    assert "NotRationalGroup" in err


def test_group_info(capsys):
    code, out, _ = run(capsys, ["group-info", "--weyl", "G2", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["group"]["order"] == 12
    assert doc["rational_characters"] is True
    assert [k["subgroup_order"] for k in doc["cyclic_classes"]] == [1, 2, 2, 2, 3, 6]
