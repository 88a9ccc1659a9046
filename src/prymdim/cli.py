"""Command-line front end.

Subcommands: dims, preset (toda, hitchin, markman), verify, chartable,
group-info. Each accepts only the options it reads. Reports come in
text, json and tsv (verify: text and json); json and tsv are
byte-stable across runs for identical input and seed. Exit codes: 0
clean, 1 input error (usage errors included), 2 mathematical
diagnostics, 3 internal assertion failure.

One render path: each subcommand builds its report once as a JSON-ready
document and returns it with its exit code and a renderer per text
format (elapsed seconds -> text); ``main`` alone times the command,
writes the JSON or the rendered text, and reports every error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from operator import mul

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
    dims = report.dims if report.dims is not None else report.dims_closed_form
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
    for flag, value in (("--specs", args.specs), ("--tuples", args.tuples)):
        if value < 0:
            raise ParseError(f"{flag} must be a nonnegative integer, got {value}")
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
        args = build_parser().parse_args(argv)
        if "cap" in args and args.cap < 1:
            raise ParseError(f"--cap must be a positive integer, got {args.cap}")
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
