"""Command-line front end.

Subcommands: dims, preset (toda, hitchin, markman), verify, chartable,
group-info. Each accepts only the options it reads. Reports come in
text, json and tsv (verify: text and json); json and tsv are
byte-stable across runs for identical input and seed. Exit codes: 0
clean, 1 input error (usage errors included), 2 mathematical
diagnostics, 3 internal assertion failure.

One table holds the command-line grammar; ``parse_args`` and ``--help``
read it. One render path: each subcommand builds its report once as a
JSON-ready document and returns it with its exit code and a renderer
per text format (elapsed seconds -> text); ``main`` alone times the
command, writes the JSON or the rendered text, and reports every error.
"""

from __future__ import annotations

import json
import random
import re
import sys
import time
from operator import mul
from types import SimpleNamespace
from typing import NamedTuple

from . import chartable, monodromy, rhprym, weyl
from .errors import (
    CapExceeded,
    ParseError,
    PrymdimError,
    SamplingExhausted,
)
from .permgroup import DEFAULT_CAP, PermGroup, Permutation, group_from_generators, parse_generators

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_DIAGNOSTIC = 2
EXIT_INTERNAL = 3

FORMATS = ("text", "json", "tsv")


# -- the command line ------------------------------------------------------------
#
# One table, _GRAMMAR, holds the grammar of the README's "Command line"
# block; parse_args and --help both read it. Parsing keeps argparse's
# rules and wording: a long option may be shortened to a unique prefix and
# written --flag=VALUE, "--" ends the options, a negative number is a
# value, and usage errors come in argparse's order (those met while
# scanning, then missing arguments, then unrecognized ones). Two things
# differ: each option may be given once, where argparse kept the last,
# and a "--" after "=" or after the "--" that ends the options is a
# value, where argparse dropped it and stored an empty list.


class _Arg(NamedTuple):
    """A positional argument (no ``flag``) or an option of one command."""

    dest: str
    metavar: str
    help: str
    flag: str | None = None
    integer: bool = False  # read by int(), else kept as the text given
    choices: tuple | None = None
    default: object = None
    nargs: object = 1  # 1, "+" (one or more), 0 (-h/--help) or "..." (a subcommand)
    least: int | None = None  # value rule: the smallest value accepted


class _Command(NamedTuple):
    """A command with its arguments, or a choice of subcommands named under ``dest``."""

    help: str
    positionals: tuple = ()
    options: tuple = ()  # in the order a prefix is matched against them
    one_of: tuple = ()  # options of which exactly one must be given
    dest: str | None = None
    commands: dict | None = None


_HELP = _Arg("help", "", "print this help and exit", "-h/--help", nargs=0)
_WEYL = _Arg("weyl", "LABEL", "Weyl group label like A3 or G2", "--weyl")
_GENERATORS = _Arg("generators", "PERM", "cycle strings or image arrays", "--generators",
                   nargs="+")
_CAP = _Arg("cap", "N", "largest group order accepted, for Weyl labels and generators",
            "--cap", integer=True, default=DEFAULT_CAP, least=1)
_GENUS = _Arg("genus", "G", "base genus", "--genus", integer=True, default=2)
_SPLIT = _Arg("reflection_split", "long|short|even",
              "where non-simply-laced presets place reflection branch points",
              "--reflection-split", choices=("long", "short", "even"), default="long")


def _format(choices: tuple[str, ...]) -> _Arg:
    return _Arg("format", "|".join(choices), "report format", "--format", choices=choices,
                default="text")


def _group_command(help: str, *options: _Arg, formats=FORMATS) -> _Command:
    """A command on the group of ``--weyl`` or of ``--generators``."""
    one_of = (_WEYL, _GENERATORS)
    return _Command(help, options=(*one_of, _format(formats), _CAP, *options), one_of=one_of)


def _preset(help: str, *options: _Arg) -> _Command:
    return _Command(
        help,
        positionals=(_Arg("type", "TYPE", "Weyl type letter A/B/C/D/G/F"),
                     _Arg("rank", "RANK", "Weyl rank", integer=True)),
        options=(*options, _format(FORMATS), _SPLIT),
    )


_GRAMMAR = _Command(
    "Exact dimensions of generalized Prym varieties of tame Galois covers.",
    dest="command",
    commands={
        "dims": _Command(
            "run the dimension pipeline on a cover-spec file",
            positionals=(_Arg("specfile", "SPECFILE",
                              "JSON cover spec (see README for the schema)"),),
            options=(_format(FORMATS), _CAP),
        ),
        "verify": _group_command(
            "run the full invariant suite on a group",
            _Arg("seed", "S", "seed of the sampled specs and tuples", "--seed", integer=True,
                 default=0),
            _Arg("specs", "N", "sampled cover specs for the two-route check", "--specs",
                 integer=True, default=25, least=0),
            _Arg("tuples", "N", "sampled branch tuples for the oracle check", "--tuples",
                 integer=True, default=50, least=0),
            formats=FORMATS[:2],
        ),
        "chartable": _group_command("print the character table of a group"),
        "group-info": _group_command("print order, classes and cyclic classes"),
        "preset": _Command(
            "run a named integrable-system preset",
            dest="kind",
            commands={
                "toda": _preset("Toda system: expects the rank"),
                "hitchin": _preset("Hitchin system: expects dim(g)(genus - 1)", _GENUS),
                "markman": _preset(
                    "Markman system: the Hitchin count twisted by a divisor of degree D",
                    _GENUS, _Arg("deg_d", "D", "twist degree", "--degD", integer=True, default=1)),
            },
        ),
    },
)

_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")  # a value, not an option
_WIDTH = 79
_SYNTAX = ("An option may be shortened to any unique prefix and written --flag VALUE\n"
           "or --flag=VALUE; every argument after -- is a value.\n")


def parse_args(argv) -> SimpleNamespace:
    """The command line as one attribute per argument of the command given.

    A usage error raises ParseError; -h or --help prints the help of the
    command it follows and raises SystemExit(0).
    """
    values, extras, command = _parse(_GRAMMAR, "prymdim", list(argv))
    if extras:
        raise ParseError(f"prymdim: unrecognized arguments: {' '.join(extras)}")
    for arg in command.options:
        if arg.least is not None and values[arg.dest] < arg.least:
            kind = "positive" if arg.least else "nonnegative"
            raise ParseError(f"{arg.flag} must be a {kind} integer, got {values[arg.dest]}")
    return SimpleNamespace(**values)


def _run(text: str, start: int, char: str) -> int:
    """How many ``char`` open ``text[start:]``."""
    rest = text[start:]
    return len(rest) - len(rest.lstrip(char))


def _option_at(flags: dict, arg: str, prog: str):
    """(option, or None for an unknown one; its flag; the text after "=",
    or None) if ``arg`` reads as an option, else None."""
    if not arg.startswith("-"):
        return None
    if arg in flags:
        return flags[arg], arg, None
    if len(arg) == 1:
        return None
    flag, eq, explicit = arg.partition("=")
    if eq and flag in flags:
        return flags[flag], flag, explicit
    if arg[1] == "-":
        hits = [(flags[f], f, explicit if eq else None) for f in flags if f.startswith(flag)]
    else:  # -h with text attached; -h is the one single-dash flag
        hits = [(flags[f], f, arg[2:]) for f in flags if f == arg[:2]]
    if len(hits) > 1:
        matches = ", ".join(f for _, f, _ in hits)
        raise ParseError(f"{prog}: ambiguous option: {arg} could match {matches}")
    if hits:
        return hits[0]
    if _NEGATIVE.match(arg) or " " in arg:
        return None
    return None, arg, None


def _parse(command: _Command, prog: str, argv: list[str]):
    """(values, unrecognized arguments, the command reached) of ``argv``
    read against ``command`` by argparse's rules."""
    flags = {f: arg for arg in (_HELP, *command.options) for f in arg.flag.split("/")}
    values = {arg.dest: arg.default for arg in (*command.positionals, *command.options)}
    waiting = list(command.positionals)
    if command.commands:
        values[command.dest] = None
        waiting.append(_Arg(command.dest, "", "", nargs="..."))
    # one letter per argument: O an option, A a value, - the first "--",
    # the one that ends the options
    found, letters, marker = {}, [], None
    for i, arg in enumerate(argv):
        if arg == "--":
            letters.append("-" + "A" * (len(argv) - i - 1))
            marker = i
            break
        option = _option_at(flags, arg, prog)
        if option is not None:
            found[i] = option
        letters.append("A" if option is None else "O")
    pattern = "".join(letters)
    extras, nested, given = [], [], set()
    reached = command

    def refuse(arg: _Arg, message: str) -> ParseError:
        return ParseError(f"{prog}: argument {arg.flag or arg.dest}: {message}")

    def value_of(arg: _Arg, text: str):
        value = text
        if arg.integer:
            try:
                value = int(text)
            except ValueError:
                raise refuse(arg, f"invalid int value: {text!r}") from None
        if arg.choices is not None and value not in arg.choices:
            choices = ", ".join(map(repr, arg.choices))
            raise refuse(arg, f"invalid choice: {value!r} (choose from {choices})")
        return value

    def take(arg: _Arg, texts: list[str]) -> None:
        nonlocal reached
        if arg.nargs == 0:
            sys.stdout.write(_help(command, prog))
            raise SystemExit(0)
        if arg.nargs == "...":
            name = texts[0]
            if name not in command.commands:
                choices = ", ".join(map(repr, command.commands))
                raise refuse(arg, f"invalid choice: {name!r} (choose from {choices})")
            values[command.dest] = name
            sub, sub_extras, reached = _parse(command.commands[name], f"{prog} {name}", texts[1:])
            values.update(sub)
            nested.extend(sub_extras)
            return
        value = [value_of(arg, t) for t in texts] if arg.nargs == "+" else value_of(arg, texts[0])
        if arg in command.one_of:
            for other in command.one_of:
                if other is not arg and other.dest in given:
                    raise refuse(arg, f"not allowed with argument {other.flag}")
        if arg.flag is not None:
            if arg.dest in given:
                raise refuse(arg, "given more than once")
            given.add(arg.dest)
        values[arg.dest] = value

    def positionals(start: int) -> int:
        # as many waiting positionals as match, by argparse's patterns:
        # -*A-* for one value, -*A[-AO]* for a subcommand and all after it
        matched = []
        for arg in waiting:
            i = start + _run(pattern, start, "-")
            if pattern[i:i + 1] != "A":
                break
            if arg.nargs == "...":  # a subcommand reads the "--" itself
                stop = len(pattern)
                matched.append((arg, argv[start:]))
            else:
                stop = i + 1 + _run(pattern, i + 1, "-")
                matched.append((arg, [argv[j] for j in range(start, stop) if j != marker]))
            start = stop
        del waiting[:len(matched)]
        for arg, texts in matched:
            take(arg, texts)
        return start

    def optional(i: int) -> int:
        arg, flag, explicit = found[i]
        if arg is None:
            extras.append(argv[i])
            return i + 1
        if explicit is None:
            stop = i + 1
            if arg.nargs != 0:
                run = _run(pattern, stop, "A")
                if not run:
                    raise refuse(arg, "expected one argument" if arg.nargs == 1
                                 else "expected at least one argument")
                stop += 1 if arg.nargs == 1 else run
            take(arg, argv[i + 1:stop])
            return stop
        if arg.nargs != 0:
            take(arg, [explicit])
            return i + 1
        # -h/--help takes no value, but -hh is -h twice
        rest = explicit if flag[1] == "-" else explicit.lstrip("h")
        if rest or not explicit:
            raise refuse(arg, f"ignored explicit argument {rest!r}")
        take(arg, [])

    start, last = 0, max(found, default=-1)
    while start <= last:
        after = min(i for i in found if i >= start)
        if start != after:
            end = positionals(start)
            if end > start:
                start = end
                continue
            extras += argv[start:after]
            start = after
        start = optional(start)
    stop = positionals(start)
    extras += argv[stop:]
    if waiting:
        missing = ", ".join(arg.dest for arg in waiting)
        raise ParseError(f"{prog}: the following arguments are required: {missing}")
    if command.one_of and not given.intersection(arg.dest for arg in command.one_of):
        names = " ".join(arg.flag for arg in command.one_of)
        raise ParseError(f"{prog}: one of the arguments {names} is required")
    return values, extras + nested, reached


def _shown(arg: _Arg) -> str:
    return f"{arg.flag} {arg.metavar}" + ("..." if arg.nargs == "+" else "")


def _usage(command: _Command, prog: str) -> list[str]:
    """The usage lines of every command under ``command``, wrapped at
    _WIDTH columns with the continuation lines aligned after its name."""
    if command.commands:
        return [line for name, sub in command.commands.items()
                for line in _usage(sub, f"{prog} {name}")]
    items = [arg.metavar for arg in command.positionals]
    if command.one_of:
        items.append("(" + " | ".join(map(_shown, command.one_of)) + ")")
    items += [f"[{_shown(arg)}]" for arg in command.options if arg not in command.one_of]
    lines = [prog]
    for item in items:
        if len(lines[-1]) + 1 + len(item) > _WIDTH:
            lines.append(" " * len(prog) + " " + item)
        else:
            lines[-1] += " " + item
    return lines


def _help(command: _Command, prog: str) -> str:
    """The usage lines, what the command does, and each argument with its default."""
    if command.commands:
        rows = [(name, sub.help) for name, sub in command.commands.items()]
    else:
        rows = [(_shown(arg) if arg.flag else arg.metavar,
                 arg.help if arg.default is None else f"{arg.help} (default {arg.default})")
                for arg in (*command.positionals, *command.options)]
    rows.append(("-h, --help", _HELP.help))
    width = min(max(len(name) for name, _ in rows), 24)
    lines = [*_usage(command, prog), "", command.help, ""]
    pad = width + 4
    for name, text in rows:
        if len(name) > width:
            lines.append(f"  {name}")
            name = ""
        line = f"  {name:{width}}  "
        for word in text.split():
            if len(line) > pad and len(line) + 1 + len(word) > _WIDTH:
                lines.append(line)
                line = " " * pad + word
            else:
                line += (" " if len(line) > pad else "") + word
        lines.append(line)
    return "\n".join(lines) + "\n\n" + _SYNTAX

def _build_group(cap: int, label: str | None = None, generators=None,
                 degree: int | None = None) -> tuple[PermGroup, dict]:
    """The group of a Weyl label or of generator strings, with its input
    echo. A Weyl group is refused before it is built when |W| > cap."""
    if label is not None:
        letter, rank = weyl.parse_weyl_label(label)
        if weyl.weyl_order(letter, rank) > cap:
            raise CapExceeded(f"group order exceeds cap {cap}")
        W = weyl.weyl_group(letter, rank)
        return W.group, {"weyl": {"type": W.letter, "rank": W.rank}}
    perms = parse_generators(generators, degree=degree)
    G = group_from_generators(perms, cap=cap)
    return G, {"generators": [p.cycle_str() for p in perms]}


def _is_int(x) -> bool:
    """A JSON integer; ``true``/``false`` load as bool, a subclass of int."""
    return isinstance(x, int) and not isinstance(x, bool)


def _known_keys(obj: dict, keys: tuple[str, ...], name: str) -> None:
    """Refuse a key of the JSON object ``obj`` that its schema lacks."""
    for key in obj:
        if key not in keys:
            raise ParseError(f"unknown key {json.dumps(key)} in {name}")


def _spec_from_document(doc: dict, cap: int) -> tuple[rhprym.CoverSpec, dict]:
    """Build a CoverSpec from the JSON schema; raises ParseError on bad input."""
    if not isinstance(doc, dict):
        raise ParseError("cover spec must be a JSON object")
    _known_keys(doc, ("group", "base_genus", "ramification"), "cover spec")
    gdoc = doc.get("group")
    if not isinstance(gdoc, dict):
        raise ParseError('cover spec needs a "group" object')
    _known_keys(gdoc, ("weyl", "generators", "degree"), "group object")
    if "weyl" in gdoc:
        extra = " and ".join(f'"{key}"' for key in ("generators", "degree") if key in gdoc)
        if extra:
            raise ParseError(f'group object has "weyl" and {extra}: give exactly one of '
                             '"weyl" and "generators" (with an optional "degree")')
        wdoc = gdoc["weyl"]
        if not isinstance(wdoc, dict):
            raise ParseError('"weyl" must be an object with "type" and "rank"')
        _known_keys(wdoc, ("type", "rank"), '"weyl" object')
        letter, rank = wdoc.get("type"), wdoc.get("rank")
        if not _is_int(rank):
            raise ParseError('weyl group needs an integer "rank"')
        if not isinstance(letter, str):
            raise ParseError('weyl group needs a string "type"')
        G, echo_group = _build_group(cap, label=f"{letter}{rank}")
    elif "generators" in gdoc:
        texts = gdoc["generators"]
        if not isinstance(texts, list):
            raise ParseError('"generators" must be a list')
        gens = []
        degree = gdoc.get("degree")
        if degree is not None and not _is_int(degree):
            raise ParseError('"degree" must be an integer')
        for t in texts:
            if isinstance(t, str):
                gens.append(t)
            elif isinstance(t, list) and all(map(_is_int, t)):
                gens.append(" ".join(str(x) for x in t))
            else:
                raise ParseError(f"bad generator entry {t!r}")
        G, echo_group = _build_group(cap, generators=gens, degree=degree)
    else:
        raise ParseError('group object needs "weyl" or "generators"')

    base_genus = doc.get("base_genus")
    if not _is_int(base_genus) or base_genus < 0:
        raise ParseError('"base_genus" must be a nonnegative integer')

    counts: dict[int, int] = {}
    ram = doc.get("ramification", [])
    if not isinstance(ram, list):
        raise ParseError('"ramification" must be a list')
    echo_ram = []
    for entry in ram:
        if not isinstance(entry, dict) or "inertia_generator" not in entry:
            raise ParseError(f"bad ramification entry {entry!r}")
        _known_keys(entry, ("inertia_generator", "count"), f"ramification entry {entry!r}")
        text = entry["inertia_generator"]
        count = entry.get("count")
        if not _is_int(count) or count < 0:
            raise ParseError(f'"count" must be a nonnegative integer in {entry!r}')
        if not isinstance(text, str):
            raise ParseError(
                f'inertia generator {text!r} must be a cycle string such as "(0 1)"'
            )
        try:
            perm = Permutation.from_cycles(text, degree=G.degree)
        except ParseError as exc:
            raise ParseError(f"inertia generator {text!r} is malformed: {exc}") from exc
        try:
            x = G.index_of(perm)
        except KeyError as exc:
            raise ParseError(
                f"inertia generator {text!r} is not in the group: {exc.args[0]}"
            ) from exc
        if x == G.identity_index:
            raise ParseError("inertia generators must be nontrivial")
        k = G.cyclic_class_of_element(x)
        counts[k] = counts.get(k, 0) + count
        echo_ram.append({"inertia_generator": perm.cycle_str(), "count": count})

    spec = rhprym.CoverSpec(G, base_genus, rhprym.RamificationSpec(counts))
    echo = {"group": echo_group, "base_genus": base_genus, "ramification": echo_ram}
    return spec, echo


# -- report assembly -------------------------------------------------------------


def _group_block(G: PermGroup) -> dict:
    return {
        "degree": G.degree,
        "order": G.order,
        "class_count": len(G.conjugacy_classes()),
    }


def _class_rows(G: PermGroup) -> list[dict]:
    return [
        {
            "representative": G.elements[c.representative].cycle_str(),
            "size": c.size,
            "element_order": c.element_order,
        }
        for c in G.conjugacy_classes()
    ]


def _table_block(G: PermGroup) -> dict:
    table = chartable.character_table(G)
    return {
        "classes": _class_rows(G),
        "rows": [
            {"label": f"chi{j + 1}", "degree": table.degrees[j], "values": list(row)}
            for j, row in enumerate(table.table)
        ],
    }


def _cyclic_block(G: PermGroup) -> list[dict]:
    return [
        {
            "label": f"H{i + 1}",
            "subgroup_order": K.subgroup_order,
            "generator": G.elements[K.generator].cycle_str(),
        }
        for i, K in enumerate(G.cyclic_subgroup_classes())
    ]


def _dims_report(spec: rhprym.CoverSpec, echo: dict) -> dict:
    G = spec.group
    table = chartable.character_table(G)
    fdm = chartable.fixed_dim_matrix(G)
    report = rhprym.validate(spec)
    cyclic = _cyclic_block(G)
    genera = [
        {**cyclic[i], "genus": g} for i, g in enumerate(report.quotient_genera)
    ]
    dims = report.dims_closed_form
    return {
        "input": echo,
        "group": _group_block(G),
        "character_table": _table_block(G),
        "fixed_dim_matrix": [list(r) for r in fdm.rows],
        "genera": {"total": report.g_total, "quotients": genera},
        "dimensions": None
        if dims is None
        else [
            {"label": f"chi{j + 1}", "degree": table.degrees[j], "dim": d}
            for j, d in enumerate(dims)
        ],
        "method_agreement": report.method_agreement,
        "diagnostics": list(report.diagnostics),
    }


def _render_dims_text(doc: dict, elapsed: float) -> str:
    out = []
    out.append(f"group: order {doc['group']['order']}, degree {doc['group']['degree']}, "
               f"{doc['group']['class_count']} conjugacy classes")
    out.append(f"base genus: {doc['input']['base_genus']}")
    if doc["input"]["ramification"]:
        for e in doc["input"]["ramification"]:
            where = e.get("inertia_generator") or e.get("cyclic_class")
            out.append(f"branch points: {e['count']} with inertia <{where}>")
    else:
        out.append("branch points: none")
    out.append(f"genus of total space: {doc['genera']['total']}")
    out.append("quotient genera:")
    for q in doc["genera"]["quotients"]:
        out.append(
            f"  {q['label']} (order {q['subgroup_order']}, gen {q['generator']}): {q['genus']}"
        )
    if doc["dimensions"] is not None:
        out.append("isotypic dimensions:")
        for d in doc["dimensions"]:
            out.append(f"  {d['label']} (degree {d['degree']}): {d['dim']}")
    out.append(f"closed form and linear solve agree: {doc['method_agreement']}")
    if doc["diagnostics"]:
        out.append("diagnostics:")
        for d in doc["diagnostics"]:
            out.append(f"  {d}")
    else:
        out.append("diagnostics: none")
    out.append(f"elapsed: {elapsed:.3f}s")
    return "\n".join(out) + "\n"


def _render_dims_tsv(doc: dict) -> str:
    lines = ["section\tlabel\tdegree\tvalue"]
    lines.append(f"genus\ttotal\t\t{doc['genera']['total']}")
    for q in doc["genera"]["quotients"]:
        lines.append(f"genus\t{q['label']}\t\t{q['genus']}")
    for d in doc["dimensions"] or []:
        lines.append(f"dim\t{d['label']}\t{d['degree']}\t{d['dim']}")
    for d in doc["diagnostics"]:
        lines.append(f"diagnostic\t\t\t{d}")
    return "\n".join(lines) + "\n"


# -- subcommands: each returns (document, renderers, exit code) --------------------


def _cmd_dims(args):
    def unique(pairs: list) -> dict:
        """A JSON object with each key once; a repeated key is refused."""
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ParseError(f"repeated key {json.dumps(key)} in {args.specfile}")
            obj[key] = value
        return obj

    try:
        with open(args.specfile, "r", encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=unique)
    except (OSError, UnicodeDecodeError, RecursionError) as exc:
        raise ParseError(f"cannot read {args.specfile}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"malformed JSON in {args.specfile} at line {exc.lineno} "
            f"column {exc.colno}: {exc.msg}"
        ) from exc
    spec, echo = _spec_from_document(doc, args.cap)
    report = _dims_report(spec, echo)
    renderers = {
        "text": lambda elapsed: _render_dims_text(report, elapsed),
        "tsv": lambda _: _render_dims_tsv(report),
    }
    return report, renderers, EXIT_DIAGNOSTIC if report["diagnostics"] else EXIT_OK


def _cmd_preset(args):
    letter, rank = weyl.parse_weyl_label(f"{args.type}{args.rank}")
    W = weyl.weyl_group(letter, rank)
    split = args.reflection_split
    if args.kind == "toda":
        spec = weyl.toda_preset(W, split)
        expected = W.rank
        params = {}
    elif args.kind == "hitchin":
        spec = weyl.hitchin_preset(W, args.genus, split)
        expected = weyl.expected_base_dim(W, args.genus)
        params = {"genus": args.genus}
    else:
        spec = weyl.markman_preset(W, args.genus, args.deg_d, split)
        expected = weyl.expected_base_dim(W, args.genus, args.deg_d)
        params = {"genus": args.genus, "deg_d": args.deg_d}

    echo = {
        "preset": args.kind,
        "group": {"weyl": {"type": W.letter, "rank": W.rank}},
        "base_genus": spec.base_genus,
        "reflection_split": split,
        **params,
        "ramification": [
            {"cyclic_class": f"H{k + 1}", "count": c}
            for k, c in sorted(spec.ramification.counts.items())
        ],
    }
    report = _dims_report(spec, echo)
    dims = report["dimensions"]
    computed = None if dims is None else dims[W.reflection_rep]["dim"]
    match = computed == expected
    report["preset"] = {
        "kind": args.kind,
        "reflection_rep": f"chi{W.reflection_rep + 1}",
        "computed_dim": computed,
        "expected_dim": expected,
        "match": match,
    }
    verdict = "MATCH" if match else "MISMATCH"
    renderers = {
        "text": lambda elapsed: _render_dims_text(report, elapsed) + (
            f"preset {args.kind} {W.label}: Cartan-representation dim "
            f"{computed}, expected {expected} -> {verdict}\n"
        ),
        "tsv": lambda _: _render_dims_tsv(report) + f"preset\t{args.kind}\t\t{verdict}\n",
    }
    clean = match and not report["diagnostics"]
    return report, renderers, EXIT_OK if clean else EXIT_DIAGNOSTIC


def _cmd_chartable(args):
    G, echo = _build_group(args.cap, args.weyl, args.generators)
    doc = {"input": echo, "group": _group_block(G), "character_table": _table_block(G)}

    def tsv(_):
        # class representatives and sizes head the columns, one row per irrep
        classes, rows = doc["character_table"]["classes"], doc["character_table"]["rows"]
        lines = [
            "class\t" + "\t".join(c["representative"] for c in classes),
            "size\t" + "\t".join(str(c["size"]) for c in classes),
        ]
        lines += [r["label"] + "\t" + "\t".join(map(str, r["values"])) for r in rows]
        return "\n".join(lines) + "\n"

    def text(_):
        head = f"group: order {doc['group']['order']}, degree {doc['group']['degree']}\n"
        return head + tsv(_).replace("\t", "  ")

    return doc, {"text": text, "tsv": tsv}, EXIT_OK


def _cmd_group_info(args):
    G, echo = _build_group(args.cap, args.weyl, args.generators)
    doc = {
        "input": echo,
        "group": _group_block(G),
        "rational_characters": G.is_rational_group(),
        "classes": [{"label": f"C{i + 1}", **row} for i, row in enumerate(_class_rows(G))],
    }
    if doc["rational_characters"]:
        doc["cyclic_classes"] = _cyclic_block(G)

    def text(_):
        lines = [
            f"order: {doc['group']['order']}",
            f"degree: {doc['group']['degree']}",
            f"rational characters: {doc['rational_characters']}",
            f"conjugacy classes ({len(doc['classes'])}):",
        ]
        for c in doc["classes"]:
            lines.append(
                f"  {c['label']}: size {c['size']}, element order {c['element_order']}, "
                f"rep {c['representative']}"
            )
        if "cyclic_classes" in doc:
            lines.append("cyclic subgroup classes:")
            for k in doc["cyclic_classes"]:
                lines.append(
                    f"  {k['label']}: order {k['subgroup_order']}, generator {k['generator']}"
                )
        return "\n".join(lines) + "\n"

    def tsv(_):
        lines = ["label\tsize\telement_order\trepresentative"]
        for c in doc["classes"]:
            lines.append(
                f"{c['label']}\t{c['size']}\t{c['element_order']}\t{c['representative']}"
            )
        return "\n".join(lines) + "\n"

    return doc, {"text": text, "tsv": tsv}, EXIT_OK


def _verify_checks(G: PermGroup, args) -> list[tuple[str, bool, str]]:
    """(name, ok, detail) per invariant; a non-rational group stops at the first."""
    if not G.is_rational_group():
        return [("rationality", False, "NotRationalGroup: power-map test failed")]
    checks = [("rationality", True, "power-map test passed")]

    classes = G.conjugacy_classes()
    cyclic = G.cyclic_subgroup_classes()
    checks.append(
        (
            "class_equation",
            sum(c.size for c in classes) == G.order
            and all(G.order % c.size == 0 for c in classes),
            f"{len(classes)} classes partition the group",
        )
    )
    checks.append(
        (
            "cyclic_class_bijection",
            len(cyclic) == len(classes),
            f"{len(cyclic)} cyclic classes == {len(classes)} element classes",
        )
    )

    table = chartable.character_table(G)
    checks.append(("orthogonality", True, "verified during table construction"))
    fdm = chartable.fixed_dim_matrix(G)
    det = fdm.det
    tri_ok = _triangular_change_of_basis_ok(table, fdm)
    checks.append(("fixed_dim_invertible", det != 0, f"determinant {det}"))
    checks.append(("fixed_dim_triangular", tri_ok, "lower-triangular in the character basis"))

    dcm = G.double_coset_matrix()
    dc_ok = all(
        sum(fdm.rows[i][j] * fdm.rows[k][j] for j in range(table.n)) == dcm[k][i]
        for i in range(len(cyclic))
        for k in range(len(cyclic))
    )
    checks.append(("double_coset_identity", dc_ok, f"all {len(cyclic)}^2 pairs"))

    rng = random.Random(args.seed)
    sampled = rhprym.sample_cover_specs(G, args.specs, rng)
    # the sampler drops only unrealizable branch data; any diagnostic left is
    # a fault, and so are dimensions that the reference route, which always
    # eliminates, does not give
    agree = all(not r.diagnostics and r.dims == rhprym.isotypic_dims_solve(spec)
                for spec, r in sampled)
    checks.append(("two_route_dimensions", agree, f"{len(sampled)} sampled cover specs"))

    mism = 0
    produced = 0
    for _ in range(args.tuples):
        g = rng.choice((0, 1))
        b = rng.randint(1 if g else 2, 6)
        try:
            t = monodromy.sample_tuple(G, g, b, rng)
        except SamplingExhausted:
            continue
        produced += 1
        if not monodromy.verify_tuple(t).ok:
            mism += 1
    checks.append(
        ("monodromy_oracle", mism == 0, f"{produced} tuples, {mism} mismatches")
    )
    return checks


def _cmd_verify(args):
    G, echo = _build_group(args.cap, args.weyl, args.generators)
    checks = _verify_checks(G, args)
    ok = all(c[1] for c in checks)
    doc = {
        "input": echo,
        "group": _group_block(G),
        "checks": [{"name": n, "ok": o, "detail": d} for n, o, d in checks],
        "ok": ok,
    }

    def text(_):
        lines = [f"{n}: {'PASS' if o else 'FAIL'} ({d})" for n, o, d in checks]
        lines.append(f"result: {'PASS' if ok else 'FAIL'}")
        return "\n".join(lines) + "\n"

    return doc, {"text": text}, EXIT_OK if ok else EXIT_DIAGNOSTIC


def _triangular_change_of_basis_ok(table, fdm) -> bool:
    """The fixed-dim rows, written in the basis of character-table rows
    (one per class), must form a lower-triangular matrix with nonzero
    diagonal; cyclic class c is generated by the representative of
    conjugacy class c, so row and column indices match directly.

    The coefficients l with sum_c l[c] * chi_j(class c) = row_i[j] are,
    by column orthogonality, l[c] = |C_c| / |G| * sum_j chi_j(class c) *
    row_i[j]; the sum has the zero pattern of l[c]. Column orthogonality
    follows from the row orthogonality checked when the table is built.
    """
    columns = list(zip(*table.table))
    for i, row in enumerate(fdm.rows):
        for c in range(i, table.n):
            coef = sum(map(mul, columns[c], row))
            if c > i and coef != 0:
                return False
            if c == i and coef == 0:
                return False
    return True


_COMMANDS = {
    "dims": _cmd_dims,
    "preset": _cmd_preset,
    "verify": _cmd_verify,
    "chartable": _cmd_chartable,
    "group-info": _cmd_group_info,
}


def main(argv=None) -> int:
    """Parse, run the command, render its document in the chosen format."""
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        t0 = time.monotonic()
        doc, renderers, code = _COMMANDS[args.command](args)
        elapsed = time.monotonic() - t0
        if args.format == "json":
            sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        else:
            sys.stdout.write(renderers[args.format](elapsed))
        return code
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except PrymdimError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DIAGNOSTIC
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        # Python converts an integer to or from decimal only up to
        # sys.get_int_max_str_digits() digits; any other ValueError is a fault
        if "integer string conversion" not in str(exc):
            raise
        print(f"error: integer too long: {str(exc).split(';')[0]}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
