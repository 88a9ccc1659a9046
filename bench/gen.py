"""Seeded input generation for the benchmark workloads.

Stdlib only and independent of prymdim: the program under test receives
the generated inputs and nothing else. Every generator is a pure
function of (seed, index), so a run that stops early on time still saw
a prefix of the same input stream as a run that went further.

All branch data is clean by construction: every count is even and every
base genus is at least 1, so every Riemann-Hurwitz parity holds and
every quotient genus and isotypic dimension is a nonnegative integer.
"""

from __future__ import annotations

import json
import math
import random

# -- permutations in the realizations the README documents ------------------


def perm_order(images: list[int]) -> int:
    """Order of a permutation given by its image list (lcm of cycle lengths)."""
    seen = [False] * len(images)
    order = 1
    for start in range(len(images)):
        n = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = images[j]
            n += 1
        if n:
            order = math.lcm(order, n)
    return order


def cycle_str(images: list[int]) -> str:
    out = []
    seen = [False] * len(images)
    for start in range(len(images)):
        if seen[start] or images[start] == start:
            continue
        cyc = []
        j = start
        while not seen[j]:
            seen[j] = True
            cyc.append(str(j))
            j = images[j]
        out.append("(" + " ".join(cyc) + ")")
    return "".join(out)


def _random_perm(rng: random.Random, n: int) -> list[int]:
    p = list(range(n))
    rng.shuffle(p)
    return p


def _random_signed(rng: random.Random, rank: int, even: bool) -> list[int]:
    """Signed permutation on 2*rank points: point i is +e_{i+1}, rank+i is -e_{i+1}."""
    sigma = _random_perm(rng, rank)
    signs = [rng.random() < 0.5 for _ in range(rank)]
    if even and sum(signs) % 2:
        signs[-1] = not signs[-1]
    img = [0] * (2 * rank)
    for i in range(rank):
        pos, neg = sigma[i], rank + sigma[i]
        img[i], img[rank + i] = (neg, pos) if signs[i] else (pos, neg)
    return img


def _signed_generators(rank: int) -> list[list[int]]:
    """Coxeter generators of W(B_rank) as one-line image arrays."""
    deg = 2 * rank
    gens = []
    for i in range(rank - 1):
        img = list(range(deg))
        img[i], img[i + 1] = img[i + 1], img[i]
        img[rank + i], img[rank + i + 1] = img[rank + i + 1], img[rank + i]
        gens.append(img)
    img = list(range(deg))
    img[rank - 1], img[deg - 1] = img[deg - 1], img[rank - 1]
    gens.append(img)
    return gens


# Groups of the cold dims queries. Each has a sampler for uniform random
# elements in its documented realization and its order, so the benchmark
# recomputes the total-space genus without the program. W(B5) = W(C5) is
# covered by the markman B5 preset. The dims queries use C4: a dims query
# on C5 would be one of the two heaviest of a round, so the cost of its
# seeded spec would set the round's 90th percentile.
DIMS_GROUPS = {
    # Weyl-labelled groups
    "D5": ({"weyl": {"type": "D", "rank": 5}}, 1920, lambda r: _random_signed(r, 5, True)),
    "C4": ({"weyl": {"type": "C", "rank": 4}}, 384, lambda r: _random_signed(r, 4, False)),
    "A6": ({"weyl": {"type": "A", "rank": 6}}, 5040, lambda r: _random_perm(r, 7)),
    # generator-given groups: S6 in cycle strings, W(B4) in image arrays
    "S6-gens": ({"generators": ["(0 1)", "(0 1 2 3 4 5)"]}, 720, lambda r: _random_perm(r, 6)),
    "B4-gens": ({"generators": _signed_generators(4)}, 384, lambda r: _random_signed(r, 4, False)),
}

# The fixed preset queries of cli-cold. toda on C5 and F4 is left out
# because it exits 2 with a negative isotypic piece, which is the right
# answer but not a clean query.
PRESET_QUERIES = (
    ("preset", "toda", "D", "5"),
    ("preset", "hitchin", "F", "4"),
    ("preset", "markman", "B", "5"),
    ("preset", "hitchin", "A", "6"),
    ("preset", "markman", "D", "5"),
)


def _ramification(rng: random.Random, sample, entries: int) -> tuple[list[dict], list[int]]:
    out, orders = [], []
    while len(out) < entries:
        img = sample(rng)
        if img == list(range(len(img))):
            continue
        out.append({"inertia_generator": cycle_str(img), "count": 2 * rng.randint(1, 4)})
        orders.append(perm_order(img))
    return out, orders


def dims_spec(seed: int, name: str) -> tuple[dict, int]:
    """Seeded cover-spec document for one dims query, and the expected g_X.

    g_X = 1 + |G|(g - 1) + sum (|G| - |G|/ord(x)) * count / 2 over the
    inertia generators x, counted here without the program.
    """
    group, order, sample = DIMS_GROUPS[name]
    rng = random.Random(f"cli-cold:{seed}:{name}")
    genus = rng.randint(1, 3)
    ram, orders = _ramification(rng, sample, rng.randint(1, 4))
    doc = {"group": group, "base_genus": genus, "ramification": ram}
    deg_r = sum((order - order // o) * e["count"] for o, e in zip(orders, ram))
    return doc, 1 + order * (genus - 1) + deg_r // 2


def cli_queries(seed: int) -> list[dict]:
    """One round of cli-cold: the fixed presets, then one dims query per group."""
    out = [{"id": " ".join(q), "argv": list(q)} for q in PRESET_QUERIES]
    for name in DIMS_GROUPS:
        doc, g_total = dims_spec(seed, name)
        out.append({
            "id": f"dims {name}",
            "spec": doc,
            "group_order": DIMS_GROUPS[name][1],
            "g_total": g_total,
        })
    return out


def spec_text(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


# -- warm workloads ---------------------------------------------------------------

# Number of cyclic classes (= conjugacy classes) of the warm groups; the
# worker checks them against the program at set-up.
CYCLIC_CLASSES = {"B5": 36, "F4": 25, "D5": 18}

# spec-sweep: two F4 specs per B5 spec, so the median is an F4 query
# and the 90th percentile a B5 one, each well inside its own cluster.
SWEEP_PATTERN = ("F4", "F4", "B5")
# oracle-verify: four D5 tuples per F4 tuple, for the same reason. A
# tuple's cost grows with its branch count (one cycle count per branch
# element and quotient), so every shape has two branch points and each
# group's cluster stays tight.
ORACLE_PATTERN = ("F4", "D5", "D5", "D5", "D5")
ORACLE_SHAPES = ((1, 2), (2, 2))  # (base genus, branch points)


def sweep_spec(seed: int, i: int) -> tuple[str, int, dict[int, int]]:
    """The i-th spec-sweep input: (group label, base genus, counts by cyclic class)."""
    label = SWEEP_PATTERN[i % len(SWEEP_PATTERN)]
    rng = random.Random(f"spec-sweep:{seed}:{i}")
    genus = rng.randint(1, 3)
    keys = rng.sample(range(1, CYCLIC_CLASSES[label]), rng.randint(1, 6))
    return label, genus, {k: 2 * rng.randint(1, 5) for k in sorted(keys)}


def oracle_input(seed: int, i: int) -> tuple[str, int, int, int]:
    """The i-th oracle-verify input: (group label, base genus, branch count, rng seed)."""
    label = ORACLE_PATTERN[i % len(ORACLE_PATTERN)]
    rng = random.Random(f"oracle-verify:{seed}:{i}")
    genus, branches = rng.choice(ORACLE_SHAPES)
    return label, genus, branches, rng.getrandbits(64)
