import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "pkg",
    deadline=None,
    derandomize=True,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("pkg")

from prymdim.permgroup import group_from_generators, parse_generators

# every supported Weyl type/rank; the heavy tail is A7 (= S8) and F4
WEYL_FLEET = (
    [("A", n) for n in range(1, 8)]
    + [("B", n) for n in range(2, 6)]
    + [("C", n) for n in range(2, 6)]
    + [("D", n) for n in (4, 5)]
    + [("G", 2), ("F", 4)]
)

# enough variety for module-level property tests without the heavy tail
SMALL_WEYL = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("C", 3), ("D", 4), ("G", 2)]


def left_row(G, x):
    """Left-multiplication row of element x: entry y is the index of x*y."""
    return G.left_row(x)


def closure_by_mul(G, seeds):
    """Plain breadth-first closure of the identity and the seeds under G.mul."""
    found = {G.identity_index, *seeds}
    frontier = list(found)
    while frontier:
        nxt = []
        for a in frontier:
            for s in seeds:
                c = G.mul(a, s)
                if c not in found:
                    found.add(c)
                    nxt.append(c)
        frontier = nxt
    return frozenset(found)


@pytest.fixture(scope="session")
def trivial():
    return group_from_generators([])


@pytest.fixture(scope="session")
def z2():
    return group_from_generators(parse_generators(["(0 1)"]))


@pytest.fixture(scope="session")
def z3():
    return group_from_generators(parse_generators(["(0 1 2)"]))


@pytest.fixture(scope="session")
def z5():
    return group_from_generators(parse_generators(["(0 1 2 3 4)"]))


@pytest.fixture(scope="session")
def s3():
    return group_from_generators(parse_generators(["(0 1)", "(0 1 2)"]))


@pytest.fixture(scope="session")
def s4():
    return group_from_generators(parse_generators(["(0 1)", "(0 1 2 3)"]))
