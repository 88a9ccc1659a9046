"""The command-line parser against argparse, its reference.

``prymdim.cli.parse_args`` reads one grammar table with no argparse. The
argparse parser it replaced is kept here as ``build_parser``, with the
two value rules the program applied after it (``--cap`` at least 1,
``--specs`` and ``--tuples`` at least 0), and both are run on a corpus:
every form the README shows, the prefix, ``--flag=value`` and ``--``
forms, every kind of usage error, and hypothesis argv over the grammar's
tokens. They must agree on the parsed values, on help, and on each error
message byte for byte. The known differences are pinned apart: argparse
dropped a ``--`` written after ``=``, or a second ``--`` that fell to a
positional, and stored an empty list, which ended in a traceback or a
label never typed; here both are values.
"""

import argparse
import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import prymdim
from prymdim.cli import FORMATS, main, parse_args
from prymdim.errors import ParseError
from prymdim.permgroup import DEFAULT_CAP

_ROOT = Path(__file__).resolve().parents[1]
_SRC = str(Path(prymdim.__file__).resolve().parents[1])


# -- the reference: the argparse parser the table replaced -------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ParseError (exit 1); sub-parsers inherit the class."""

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


class _StoreOnce(argparse.Action):
    """Store the option's value, refusing a second occurrence: argparse
    would keep only the last one and silently drop the first. The options
    given are tracked on the namespace, so an option with a default is
    refused too."""

    def __call__(self, parser, namespace, values, option_string=None):
        given = vars(namespace).setdefault("_given", set())
        if self.dest in given:
            raise argparse.ArgumentError(self, "given more than once")
        given.add(self.dest)
        setattr(namespace, self.dest, values)


def build_parser() -> argparse.ArgumentParser:
    """Each subcommand accepts exactly the options it reads."""
    ap = _Parser(
        prog="prymdim",
        description="Exact dimensions of generalized Prym varieties of tame Galois covers",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("dims", "run the dimension pipeline on a cover-spec file"),
        ("verify", "run the full invariant suite on a group"),
        ("chartable", "print the character table of a group"),
        ("group-info", "print order, classes and cyclic classes"),
    ):
        p = sub.add_parser(name, help=help_text)
        if name == "dims":
            p.add_argument("specfile", help="JSON cover spec (see README for the schema)")
        else:
            g = p.add_mutually_exclusive_group(required=True)
            g.add_argument("--weyl", metavar="LABEL", action=_StoreOnce,
                           help="Weyl group label like A3 or G2")
            g.add_argument("--generators", nargs="+", metavar="PERM", action=_StoreOnce,
                           help="cycle strings or image arrays")
        p.add_argument("--format", choices=FORMATS[:2] if name == "verify" else FORMATS,
                       default="text", action=_StoreOnce)
        p.add_argument("--cap", type=int, default=DEFAULT_CAP, action=_StoreOnce,
                       help="largest group order accepted, for Weyl labels and generators")
        if name == "verify":
            p.add_argument("--seed", type=int, default=0, action=_StoreOnce)
            p.add_argument("--specs", type=int, default=25, action=_StoreOnce,
                           help="sampled cover specs for the two-route check")
            p.add_argument("--tuples", type=int, default=50, action=_StoreOnce,
                           help="sampled branch tuples for the oracle check")

    p = sub.add_parser("preset", help="run a named integrable-system preset")
    kinds = p.add_subparsers(dest="kind", required=True)
    for kind in ("toda", "hitchin", "markman"):
        p = kinds.add_parser(kind)
        p.add_argument("type", help="Weyl type letter A/B/C/D/G/F")
        p.add_argument("rank", type=int)
        if kind != "toda":
            p.add_argument("--genus", type=int, default=2, action=_StoreOnce,
                           help="base genus")
        if kind == "markman":
            p.add_argument("--degD", dest="deg_d", type=int, default=1, action=_StoreOnce,
                           help="twist degree")
        p.add_argument("--format", choices=FORMATS, default="text", action=_StoreOnce)
        p.add_argument("--reflection-split", choices=("long", "short", "even"), default="long",
                       action=_StoreOnce,
                       help="where non-simply-laced presets place reflection branch points")
    return ap


def reference_parse(argv):
    """argparse, then the checks the program made before running a command."""
    args = build_parser().parse_args(argv)
    if "cap" in args and args.cap < 1:
        raise ParseError(f"--cap must be a positive integer, got {args.cap}")
    if args.command == "verify":
        for flag, value in (("--specs", args.specs), ("--tuples", args.tuples)):
            if value < 0:
                raise ParseError(f"{flag} must be a nonnegative integer, got {value}")
    return args


def outcome(parse, argv):
    """("ok", values), ("error", message) or ("help",) of one parse."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            args = parse(list(argv))
    except ParseError as exc:
        return ("error", str(exc))
    except SystemExit as exc:
        assert exc.code == 0
        return ("help",)
    return ("ok", {k: v for k, v in vars(args).items() if k != "_given"})


# -- the corpus ----------------------------------------------------------------------

_README_FORMS = [
    ["dims", "SPEC"],
    ["dims", "SPEC", "--format", "tsv", "--cap", "10"],
    ["preset", "toda", "A", "2"],
    ["preset", "toda", "B", "3", "--format", "json", "--reflection-split", "short"],
    ["preset", "hitchin", "G", "2", "--genus", "3", "--format", "tsv",
     "--reflection-split", "even"],
    ["preset", "markman", "C", "3", "--genus", "2", "--degD", "4", "--format", "text",
     "--reflection-split", "long"],
    ["verify", "--weyl", "A2", "--format", "json", "--cap", "100", "--specs", "3",
     "--tuples", "4", "--seed", "5"],
    ["verify", "--generators", "(0 1)", "(0 1 2)"],
    ["chartable", "--weyl", "B3", "--format", "tsv", "--cap", "48"],
    ["chartable", "--generators", "(0 1)", "1 2 0"],
    ["group-info", "--weyl", "G2", "--format", "json"],
    ["group-info", "--generators", "(0 1)", "--cap", "2"],
]

_SPELLINGS = [
    # unique prefixes
    ["preset", "markman", "A", "2", "--g", "3"],
    ["group-info", "--weyl=A2", "--form", "json"],
    ["verify", "--we", "A2", "--sp", "1", "--tu", "2", "--se", "3", "--c", "9"],
    ["preset", "hitchin", "A", "2", "--ge=5", "--reflection=short", "--f=json"],
    ["chartable", "--gen", "(0 1)", "(0 2)", "--ca=7"],
    # --flag=value
    ["group-info", "--w=A2", "--fo=json"],
    ["group-info", "--weyl=", "--cap=1"],
    ["chartable", "--generators=(0 1)", "--format=tsv"],
    ["preset", "markman", "A", "2", "--degD=-3", "--genus=0"],
    # -- ends the options
    ["preset", "toda", "--", "A", "2"],
    ["preset", "toda", "A", "--", "2"],
    ["preset", "toda", "A", "2", "--"],
    ["dims", "--", "-x.json"],
    ["dims", "--", "--"],
    ["dims", "--format", "json", "--", "SPEC"],
    ["preset", "toda", "--format", "json", "--", "-A", "-2"],
    # negative numbers are values
    ["preset", "markman", "A", "2", "--genus", "-1"],
    ["preset", "markman", "A", "-1", "--degD", "-7"],
    ["verify", "--weyl", "A2", "--seed", "-4"],
    ["chartable", "--generators", "-1", "(0 1)"],
    # positionals and options interleaved
    ["preset", "toda", "--format", "json", "A", "2"],
    ["preset", "toda", "A", "--format", "json", "2"],
    # what int() reads
    ["preset", "toda", "A", " 3 "],
    ["preset", "toda", "A", "+3"],
    ["preset", "toda", "A", "1_0"],
]

_ERRORS = [
    # missing arguments
    [],
    ["dims"],
    ["preset"],
    ["preset", "toda"],
    ["preset", "hitchin", "A"],
    # invalid values
    ["preset", "hitchin", "A", "x"],
    ["verify", "--weyl", "A2", "--seed", "1.5"],
    ["chartable", "--weyl", "A2", "--cap", "ten"],
    ["preset", "hitchin", "A", "2", "--genus", "1" * (sys.get_int_max_str_digits() + 1)],
    ["group-info", "--weyl", "A2", "--format", "tsv2"],
    ["verify", "--weyl", "A2", "--format", "tsv"],
    ["foo"],
    ["--", "dims", "SPEC"],
    ["preset", "bogus"],
    ["preset", "--", "toda", "A", "2"],
    ["preset", "toda", "A", "2", "--reflection-split", "mid"],
    # the exclusive pair
    ["chartable", "--weyl", "A2", "--generators", "(0 1)"],
    ["verify", "--generators", "(0 1)", "--weyl", "A2"],
    ["chartable"],
    ["verify", "--format", "json"],
    # option values missing
    ["chartable", "--generators"],
    ["group-info", "--generators", "--format", "json"],
    ["chartable", "--weyl"],
    ["group-info", "--weyl", "--", "A2"],
    ["preset", "toda", "A", "2", "--format"],
    # each option once
    ["group-info", "--weyl", "A2", "--weyl", "B3"],
    ["preset", "markman", "A", "2", "--degD", "1", "--deg", "2"],
    ["chartable", "--generators", "(0 1)", "--generators", "(0 2)"],
    # unrecognized arguments, listed under the top-level prog
    ["preset", "toda", "A", "2", "--genus", "5", "--degD", "9"],
    ["dims", "SPEC", "--seed", "3"],
    ["dims", "SPEC", "extra"],
    ["--weyl", "A2", "chartable"],
    ["--bogus", "dims", "SPEC", "--bogus"],
    ["chartable", "--weyl", "A2", "--", "--cap", "3"],
    ["chartable", "--weyl", "A2", "-x", "-1e5"],
    ["chartable", "--generators=(0 1)", "(0 2)"],
    ["preset", "--genus", "toda", "A", "2"],
    # ambiguous prefixes, and text after a flag that takes none
    ["verify", "--weyl", "A2", "--s", "3"],
    ["chartable", "--weyl=A2", "--=x"],
    ["chartable", "--weyl", "A2", "--help=x"],
    ["dims", "-hx"],
    ["-hhx"],
    ["-h="],
    # value rules
    ["chartable", "--generators", "(0 1)", "--cap", "0"],
    ["verify", "--weyl", "A2", "--specs", "-1"],
    ["verify", "--weyl", "A2", "--tuples", "-2", "--specs", "-1", "--cap", "-3"],
    ["dims", "SPEC", "--cap", "-5"],
    # the order of errors
    ["verify", "--cap", "x", "--s", "1"],
    ["preset", "hitchin", "A", "--genus", "x"],
    ["preset", "hitchin", "--bogus", "A"],
    ["chartable", "--bogus"],
    ["chartable", "--cap", "0", "--bogus", "--weyl", "A2"],
    ["verify", "--weyl", "A2", "--weyl", "B2", "--generators", "x"],
]

_HELPS = [
    ["--help"],
    ["-h"],
    ["--he", "dims"],
    ["-hh"],
    ["dims", "-h"],
    ["preset", "--help"],
    ["preset", "markman", "--he"],
    ["preset", "hitchin", "-h"],
    ["chartable", "--weyl", "A2", "-h", "--bogus"],
    ["verify", "--generators", "(0 1)", "--h"],
]

_CORPUS = _README_FORMS + _SPELLINGS + _ERRORS + _HELPS


@pytest.mark.parametrize("argv", _CORPUS, ids=[" ".join(a)[:60] for a in _CORPUS])
def test_parser_matches_argparse(argv):
    """Values, help and every error message byte for byte."""
    got = outcome(parse_args, argv)
    assert got == outcome(reference_parse, argv)
    kind = "ok" if argv in _README_FORMS + _SPELLINGS else "error" if argv in _ERRORS else "help"
    assert got[0] == kind, got


def test_the_documented_error_texts():
    """The wording users see, pinned apart from the reference."""
    texts = {tuple(argv): outcome(parse_args, argv)[1] for argv in _ERRORS}
    assert texts[("preset", "hitchin", "A")] == (
        "prymdim preset hitchin: the following arguments are required: rank")
    assert texts[("preset", "hitchin", "A", "x")] == (
        "prymdim preset hitchin: argument rank: invalid int value: 'x'")
    assert texts[("group-info", "--weyl", "A2", "--format", "tsv2")].endswith(
        "argument --format: invalid choice: 'tsv2' (choose from 'text', 'json', 'tsv')")
    assert texts[("chartable", "--weyl", "A2", "--generators", "(0 1)")].endswith(
        "argument --generators: not allowed with argument --weyl")
    assert texts[("chartable",)] == (
        "prymdim chartable: one of the arguments --weyl --generators is required")
    assert texts[("chartable", "--generators")].endswith(
        "argument --generators: expected at least one argument")
    assert texts[("group-info", "--weyl", "A2", "--weyl", "B3")] == (
        "prymdim group-info: argument --weyl: given more than once")
    assert texts[("preset", "toda", "A", "2", "--genus", "5", "--degD", "9")] == (
        "prymdim: unrecognized arguments: --genus 5 --degD 9")
    assert texts[("chartable", "--generators", "(0 1)", "--cap", "0")] == (
        "--cap must be a positive integer, got 0")
    assert texts[("verify", "--weyl", "A2", "--specs", "-1")] == (
        "--specs must be a nonnegative integer, got -1")


@pytest.mark.parametrize("flag, value", [("--weyl", "A2"), ("--format", "json"),
                                         ("--cap", "5"), ("--generators", "(0 1)")])
def test_a_double_dash_after_equals_is_the_value(flag, value):
    """argparse removes a ``--`` written after "=" and stores an empty
    list, which ended in a traceback (``--cap=--`` compared a list with
    an int); the table parser takes it as written, so the value is
    refused or read like any other."""
    argv = ["group-info", f"{flag}=--"] + ([] if flag in ("--weyl", "--generators")
                                           else ["--weyl", value])
    with contextlib.redirect_stdout(io.StringIO()):
        ref = build_parser().parse_args(argv)
    assert getattr(ref, flag[2:]) == []
    got = outcome(parse_args, argv)
    if flag == "--cap":
        assert got == ("error", "prymdim group-info: argument --cap: invalid int value: '--'")
    elif flag == "--format":
        assert got == ("error", "prymdim group-info: argument --format: invalid choice: '--' "
                                "(choose from 'text', 'json', 'tsv')")
    else:
        assert got[0] == "ok" and getattr(parse_args(argv), flag[2:]) in ("--", ["--"])


@pytest.mark.parametrize("argv, rank", [(["preset", "toda", "A", "--", "--"], "rank"),
                                        (["preset", "toda", "--", "A", "--"], "rank"),
                                        (["dims", "--", "--"], None)])
def test_only_the_first_double_dash_ends_the_options(argv, rank):
    """After the "--" that ends the options every argument is a value, a
    second "--" included: argparse dropped it from the positional it
    fell to and stored an empty list, which ``preset`` read as the label
    'A[]'."""
    ref = outcome(reference_parse, argv)
    got = outcome(parse_args, argv)
    if rank:
        assert ref[0] == "ok" and ref[1]["rank"] == []
        assert got == ("error", "prymdim preset toda: argument rank: invalid int value: '--'")
    else:
        assert got == ref == ("ok", {"command": "dims", "specfile": "--", "format": "text",
                                     "cap": DEFAULT_CAP})


# -- hypothesis argv over the grammar's tokens ----------------------------------------

_LONG_FLAGS = ["--weyl", "--generators", "--format", "--cap", "--seed", "--specs", "--tuples",
               "--genus", "--degD", "--reflection-split", "--help"]
_PREFIXES = sorted({flag[:k] for flag in _LONG_FLAGS for k in range(3, len(flag))})
_WORDS = ["dims", "verify", "chartable", "group-info", "preset", "toda", "hitchin",
          "markman", "bogus"]
_MARKS = ["-h", "-hh", "-hx", "-h=", "--", "-", "--bogus", "-x", ""]
_DIGITS = sys.get_int_max_str_digits()
_TEXTS = ["A", "B", "G", "A2", "B3", "G2", "x", "text", "json", "tsv", "long", "short",
          "even", "(0 1)", "(0 1 2)", "1 0 2", "SPEC", "-1.5", "-.5", "1_0", " 7", "+3",
          "-1e5", "1" * (_DIGITS + 1), "-" + "1" * (_DIGITS + 1)]
_VALUES = st.sampled_from(_TEXTS) | st.integers(-10**6, 10**6).map(str)
_TOKENS = (st.sampled_from(_WORDS) | st.sampled_from(_LONG_FLAGS + _PREFIXES + _MARKS)
           | _VALUES | st.builds("{}={}".format, st.sampled_from(_LONG_FLAGS + _PREFIXES),
                                 _VALUES))
_HEADS = st.sampled_from([[], ["dims"], ["verify"], ["chartable"], ["group-info"],
                          ["preset"], ["preset", "toda"], ["preset", "hitchin"],
                          ["preset", "markman"]])
ARGVS = st.builds(lambda head, rest: head + rest, _HEADS, st.lists(_TOKENS, max_size=8))


@settings(max_examples=400, deadline=None)
@given(ARGVS)
def test_parser_matches_argparse_on_hypothesis_argv(argv):
    assume(argv.count("--") < 2)  # a second "--" is a value (pinned apart)
    assert outcome(parse_args, argv) == outcome(reference_parse, argv)


def _seeded_argvs(seed: int, count: int) -> list[list[str]]:
    """``count`` argvs drawn from the same tokens with random.Random(seed)."""
    rng = random.Random(seed)
    flags = _LONG_FLAGS + _PREFIXES
    pools = [_WORDS, flags + _MARKS, _TEXTS, [f"{f}={v}" for f in flags for v in _TEXTS[:12]]]
    heads = [[], ["verify"], ["chartable"], ["preset", "markman"], ["dims"]]
    return [rng.choice(heads) + [rng.choice(rng.choice(pools)) for _ in range(rng.randint(0, 6))]
            for _ in range(count)]


def test_parser_validates_under_python_O():
    """The parser checks with no assert: under ``python -O`` the curated
    errors and 40 seeded argvs parse to the outcomes they have here."""
    argvs = _ERRORS + _seeded_argvs(7, 40)
    snippet = (
        "import contextlib, io, json, sys\n"
        "from prymdim.cli import parse_args\n"
        "from prymdim.errors import ParseError\n"
        "out = []\n"
        "for argv in json.load(sys.stdin):\n"
        "    try:\n"
        "        with contextlib.redirect_stdout(io.StringIO()):\n"
        "            out.append(['ok', vars(parse_args(argv))])\n"
        "    except ParseError as exc:\n"
        "        out.append(['error', str(exc)])\n"
        "    except SystemExit as exc:\n"
        "        out.append(['help', exc.code])\n"
        "print(json.dumps(out))\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", snippet], input=json.dumps(argvs),
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": _SRC},
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    assert len(results) == len(argvs)
    for argv, got in zip(argvs, results):
        want = outcome(parse_args, argv)
        want = ["help", 0] if want == ("help",) else list(want)
        assert got == json.loads(json.dumps(want)), argv


# -- fuzz through main ------------------------------------------------------------------

_SPEC_DOC = {
    "group": {"generators": ["(0 1)", "(0 1 2)"]},
    "base_genus": 0,
    "ramification": [{"inertia_generator": "(0 1)", "count": 4}],
}
# values that name only small groups and sample counts, so each run is quick
_SMALL = ["A", "B", "G", "C", "x", "A1", "A2", "G2", "B2", "", "Z9", "text", "json", "tsv",
          "long", "short", "even", "(0 1)", "(0 1 2)", "(0 1 2 3 4)", "1 0", "(0", "SPEC",
          "-" + "9" * 30, "1" * (_DIGITS + 1), "-" + "1" * (_DIGITS + 1)]
_SMALL_VALUES = st.sampled_from(_SMALL) | st.integers(-2, 3).map(str)
_SMALL_TOKENS = (st.sampled_from(_WORDS) | st.sampled_from(_LONG_FLAGS + _PREFIXES + _MARKS)
                 | _SMALL_VALUES
                 | st.builds("{}={}".format, st.sampled_from(_LONG_FLAGS + _PREFIXES),
                             _SMALL_VALUES | st.just("--")))


@pytest.fixture(scope="module")
def spec_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("argv") / "s3.json"
    path.write_text(json.dumps(_SPEC_DOC))
    return str(path)


@settings(max_examples=80, deadline=None)
@given(argv=st.builds(lambda head, rest: head + rest, _HEADS, st.lists(_SMALL_TOKENS, max_size=7)))
def test_main_fuzz_argv(spec_path, argv):
    """Every argv ends with a documented exit code, or help's SystemExit(0),
    and never with a traceback; a usage error leaves stdout empty."""
    argv = [spec_path if a == "SPEC" else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 0 and err.getvalue() == "", argv
            return
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert out.getvalue() == "" and err.getvalue().startswith("error: "), argv


# -- help and the README ----------------------------------------------------------------


def _help(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    return out.getvalue()


def test_readme_command_block_is_the_usage_of_help():
    """The README's "Command line" block is what ``prymdim --help`` prints
    above its first blank line, so the table and the README cannot drift."""
    readme = (_ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Command line\n\n```\n(.*?)```\n", readme, re.S).group(1)
    assert _help(["--help"]).split("\n\n")[0] + "\n" == block


@pytest.mark.parametrize("command", ["dims", "verify", "chartable", "group-info",
                                     "preset toda", "preset hitchin", "preset markman"])
def test_help_prints_the_commands_usage_and_options(command):
    """A command's help opens with its own lines of the top-level usage
    block and lists every flag those lines show."""
    usage = _help(["--help"]).split("\n\n")[0]
    text = _help([*command.split(), "--help"])
    own = text.split("\n\n")[0]
    assert own.startswith(f"prymdim {command} ") and own in usage
    flags = re.findall(r"--[a-zA-Z-]+", own)
    assert flags and all(f"  {flag}" in text for flag in flags)
    assert "  -h, --help" in text


def test_help_of_preset_lists_its_kinds():
    text = _help(["preset", "-h"])
    assert [line.split()[2] for line in text.split("\n\n")[0].splitlines()
            if line.startswith("prymdim")] == ["toda", "hitchin", "markman"]
