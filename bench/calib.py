"""Reference kernel that rescales wall times to a steady unit.

On a shared host a core can run the same Python code up to about 1.75x
slower for stretches of seconds to tens of seconds, while the other
core runs at full speed; which core is slow changes over time. A run of
a few tens of seconds can then sit wholly in a slow stretch, so a raw
wall-time median moves by tens of percent between identical runs.

The benchmark pins its processes to one core and runs a reference
kernel next to every timed piece of work. A time ``t`` measured between
kernel times ``k_before`` and ``k_after`` is reported as

    t * REF_S / ((k_before + k_after) / 2)

that is, in seconds of a machine on which the kernel takes ``REF_S``.
(A cold CLI child of up to a few seconds uses the median kernel time
sampled before, during and after it instead.)
There are two kernels, each shaped like the operations a workload
spends its time in: ``perm`` composes tuple permutations and looks them
up in a dict (group closure, classes, coset actions, the monodromy
oracle), ``frac`` adds Fractions (the exact solve behind ``validate``).
A core's slow stretches slow the two by different factors, and in the
same runs the ``spec-sweep`` queries scaled by ``frac`` spread about a
third as much as by ``perm`` (bench/README.md). The kernels are stdlib
only and never touch the program, so a faster program still shows as a
smaller reported time.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

REF_S = 1e-3  # the reported unit: seconds on a machine where a kernel takes 1 ms

_rng = random.Random(0)
_PERMS = [tuple(_rng.sample(range(48), 48)) for _ in range(24)]
_INDEX = {p: i for i, p in enumerate(_PERMS)}


def _perm() -> None:
    acc = 0
    for a in _PERMS:
        get = a.__getitem__
        for b in _PERMS[:7]:
            acc += _INDEX.get(tuple(map(get, b)), 0)


def _frac() -> None:
    s = Fraction(0)
    for i in range(1, 200):
        s += Fraction(i * 7919 % 1000, i)


KERNELS = {"perm": _perm, "frac": _frac}


def kernel(kind: str = "perm") -> float:
    """Run one reference kernel once (about 1 ms) and return its wall time."""
    body = KERNELS[kind]
    t = time.perf_counter()
    body()
    return time.perf_counter() - t


def speed() -> float:
    """The ``perm`` kernel's time at this moment: the fastest of three runs."""
    return min(kernel() for _ in range(3))


def scale(t: float, k_before: float, k_after: float) -> float:
    """``t`` in reference seconds, given the kernel times around it."""
    return t * REF_S * 2 / (k_before + k_after)
