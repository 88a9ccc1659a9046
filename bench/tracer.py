"""Per-layer tracing installed from the benchmark's own files.

``Tracer.installed()`` wraps the public functions of each prymdim module
for the duration of a ``with`` block. A module-level function is
rebound in every prymdim module that holds it by name (for example
``genus_quotient`` in ``monodromy`` and ``character_table`` in
``rhprym`` and ``weyl``); a method is rebound on its class. Every
wrapper is removed on exit, even when the block raises.

Each wrapped call records a span ``(name, start, end, parent, query)``
in memory. Two hot calls are counted without spans:
``PermGroup.mul`` (the kernel operation) and ``BranchTuple.is_valid``
(the candidate tuples the sampler checks).
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from collections import defaultdict

# (layer metric name, module, class or None, attribute)
TRACED = (
    ("permgroup.closure", "prymdim.permgroup", "PermGroup", "__init__"),
    ("permgroup.conjugacy_classes", "prymdim.permgroup", "PermGroup", "conjugacy_classes"),
    ("permgroup.is_rational_group", "prymdim.permgroup", "PermGroup", "is_rational_group"),
    ("permgroup.cyclic_subgroup_classes", "prymdim.permgroup", "PermGroup", "cyclic_subgroup_classes"),
    ("permgroup.coset_action", "prymdim.permgroup", "PermGroup", "coset_action"),
    ("permgroup.double_coset_count", "prymdim.permgroup", "PermGroup", "double_coset_count"),
    ("permgroup.cycle_count", "prymdim.permgroup", "CosetAction", "cycle_count"),
    ("permgroup.subgroup_closure", "prymdim.permgroup", "PermGroup", "subgroup_closure"),
    ("chartable.character_table", "prymdim.chartable", None, "character_table"),
    ("chartable.fixed_dim_matrix", "prymdim.chartable", None, "fixed_dim_matrix"),
    ("exactla.solve", "prymdim.exactla", None, "solve"),
    ("exactla.determinant", "prymdim.exactla", None, "determinant"),
    ("rhprym.validate", "prymdim.rhprym", None, "validate"),
    ("rhprym.genus_quotient", "prymdim.rhprym", None, "genus_quotient"),
    ("rhprym.prym_dim_formula", "prymdim.rhprym", None, "prym_dim_formula"),
    ("monodromy.sample_tuple", "prymdim.monodromy", None, "sample_tuple"),
    ("monodromy.verify_tuple", "prymdim.monodromy", None, "verify_tuple"),
    ("monodromy.oracle_genus", "prymdim.monodromy", None, "oracle_genus"),
    ("weyl.weyl_group", "prymdim.weyl", None, "weyl_group"),
    ("cli.main", "prymdim.cli", None, "main"),
)

# (counter name, module, class, attribute): counted, no span
COUNTED = (
    ("permgroup.mul", "prymdim.permgroup", "PermGroup", "mul"),
    ("monodromy.is_valid", "prymdim.monodromy", "BranchTuple", "is_valid"),
)

NAMES = tuple(t[0] for t in TRACED)


def _prymdim_modules():
    return [m for k, m in list(sys.modules.items())
            if m is not None and (k == "prymdim" or k.startswith("prymdim."))]


class Tracer:
    """Spans and counters of one traced process, kept in memory."""

    def __init__(self):
        self.spans: list[tuple[int, float, float, int, str]] = []  # name index, start, end, parent, query
        self.counts: dict[str, int] = defaultdict(int)
        self.query = "setup"
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        # distinct keys behind the ratios
        self.coset_keys: set = set()
        self.dcc_keys: set = set()
        self.samples_returned = 0

    # -- wrappers -------------------------------------------------------------

    def _span_wrapper(self, index: int, fn, key=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if key is not None:
                key(args)
            parent = stack[-1] if stack else -1
            slot = len(spans)
            spans.append(None)
            stack.append(slot)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[slot] = (index, start, clock(), parent, self.query)
                stack.pop()

        wrapper.__bench_wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__bench_wrapped__ = fn
        return wrapper

    def _coset_key(self, args):
        G, sub = args[0], args[1]
        self.coset_keys.add((id(G), sub if isinstance(sub, frozenset) else frozenset(sub)))

    def _dcc_key(self, args):
        G, a, b = args[0], args[1], args[2]
        a = getattr(a, "generator", a)
        b = getattr(b, "subgroup_elements", b)
        self.dcc_keys.add((id(G), a, b if isinstance(b, frozenset) else frozenset(b)))

    def _sample_wrapper(self, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.samples_returned += 1
            return out

        return wrapper

    def _rebind(self, modname, clsname, attr, make):
        mod = sys.modules[modname]
        if clsname is not None:
            cls = getattr(mod, clsname)
            orig = cls.__dict__[attr]
            self._set(cls, attr, make(orig))
            return
        orig = getattr(mod, attr)
        new = make(orig)
        for m in _prymdim_modules():
            for k, v in list(vars(m).items()):
                if v is orig:
                    self._set(m, k, new)

    def _set(self, owner, attr, new):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced and counted function; unwrap on exit."""
        import prymdim  # noqa: F401  (loads every submodule)
        import prymdim.cli  # noqa: F401

        keys = {"permgroup.coset_action": self._coset_key,
                "permgroup.double_coset_count": self._dcc_key}
        try:
            for i, (name, mod, cls, attr) in enumerate(TRACED):
                def make(fn, i=i, name=name):
                    if name == "monodromy.sample_tuple":
                        fn = self._sample_wrapper(fn)
                    return self._span_wrapper(i, fn, keys.get(name))
                self._rebind(mod, cls, attr, make)
            for name, mod, cls, attr in COUNTED:
                self._rebind(mod, cls, attr, lambda fn, name=name: self._count_wrapper(name, fn))
            yield self
        finally:
            while self._restore:
                owner, attr, orig = self._restore.pop()
                setattr(owner, attr, orig)

    # -- output ---------------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer calls and self time, plus the raw counters behind the ratios."""
        return {
            "layers": layer_totals(self.spans, len(NAMES)),
            "counts": dict(self.counts),
            "coset_distinct": len(self.coset_keys),
            "dcc_distinct": len(self.dcc_keys),
            "samples_returned": self.samples_returned,
        }

    def write_spans(self, path: str) -> None:
        """Write the spans as JSON lines.

        The first line maps name indices to names; each further line is
        one span ``[name index, start ns, end ns, parent, query]``, times
        counted from the first span's start, ``parent`` the 0-based index
        of the enclosing span among the span lines, or -1 for a root.
        """
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": NAMES}) + "\n")
            for name, start, end, parent, query in self.spans:
                fh.write(json.dumps([name, round((start - t0) * 1e9),
                                     round((end - t0) * 1e9), parent, query]) + "\n")


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the part of it covered by
    its direct children (child intervals are clipped and merged first)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[3] >= 0:
            children[s[3]].append((s[1], s[2]))
    out = []
    for idx, s in enumerate(spans):
        start, end = s[1], s[2]
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def layer_totals(spans, n_names: int) -> list[list]:
    """[calls, self seconds] per traced name index."""
    tot = [[0, 0.0] for _ in range(n_names)]
    for s, st in zip(spans, self_times(spans)):
        tot[s[0]][0] += 1
        tot[s[0]][1] += st
    return tot
