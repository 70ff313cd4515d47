"""Shared reference systems and test-local brute-force helpers.

The helpers here recompute expected values from first principles (plain
arithmetic over explicit 0/1 points) so tests never trust the code under
test for its own expected output.
"""

from __future__ import annotations

import random

from structfn import SetFamily, TruthTable

# Two-terminal bridge network: five components, four minimal path sets.
BRIDGE_PATHS = ((1, 4), (2, 5), (1, 3, 5), (2, 3, 4))
BRIDGE_N = 5

# Four components in a row; any working adjacent pair carries the system.
ADJACENT_PAIRS = ((1, 2), (2, 3), (3, 4))
ADJACENT_PAIRS_N = 4

# Two disjoint series pairs in parallel.
DISJOINT_PAIRS = ((1, 2), (3, 4))
# Overlapping pairs plus one triple; shares its diagonal with DISJOINT_PAIRS.
OVERLAP_PAIRS = ((1, 2), (1, 3), (2, 3, 4))
PAIRS_N = 4


def family(sets, n: int) -> SetFamily:
    return SetFamily.from_sets(sets, n=n)


def series_paths(n: int) -> SetFamily:
    return SetFamily.from_sets([tuple(range(1, n + 1))], n=n)


def parallel_paths(n: int) -> SetFamily:
    return SetFamily.from_sets([(i,) for i in range(1, n + 1)], n=n)


def k_of_n_table(k: int, n: int) -> TruthTable:
    """Works iff at least k components work; built entry by entry."""
    bits = 0
    for m in range(1 << n):
        if bin(m).count("1") >= k:
            bits |= 1 << m
    return TruthTable(n=n, bits=bits)


def coproduct_table(path_sets, n: int) -> TruthTable:
    """Expected table by arithmetic: 1 - prod over paths of (1 - prod of x_i)."""
    bits = 0
    for m in range(1 << n):
        x = [(m >> i) & 1 for i in range(n)]
        miss_all = 1
        for path in path_sets:
            works = 1
            for c in path:
                works *= x[c - 1]
            miss_all *= 1 - works
        if 1 - miss_all:
            bits |= 1 << m
    return TruthTable(n=n, bits=bits)


def cut_product_table(cut_sets, n: int) -> TruthTable:
    """Expected table by arithmetic: prod over cuts of (1 - prod of (1 - x_i))."""
    bits = 0
    for m in range(1 << n):
        x = [(m >> i) & 1 for i in range(n)]
        value = 1
        for cut in cut_sets:
            all_failed = 1
            for c in cut:
                all_failed *= 1 - x[c - 1]
            value *= 1 - all_failed
        if value:
            bits |= 1 << m
    return TruthTable(n=n, bits=bits)


def random_antichain(rng: random.Random, max_n: int = 10, max_r: int = 10) -> SetFamily:
    """A random antichain family; deterministic for a seeded generator."""
    n = rng.randint(2, max_n)
    draws = rng.randint(1, max_r) * 2
    candidates = []
    for _ in range(draws):
        size = rng.randint(1, max(1, min(n, 4)))
        candidates.append(tuple(sorted(rng.sample(range(1, n + 1), size))))
    unique = list(dict.fromkeys(candidates))
    reduced = SetFamily.from_sets(unique, n=n).minimized()
    members = reduced.members[:max_r]
    return SetFamily(n=n, members=members)


# The ten minimal path sets of the n=20 shape in the benchmark's lattice workload.
LATTICE_N20_PATHS = (
    (2, 9, 14, 17), (10, 12, 13, 16), (5, 7, 10, 17, 18), (9, 18, 20),
    (3, 4, 5, 10, 20), (4, 11, 12, 16, 18), (7, 11, 16, 18), (1, 2, 9, 17),
    (1, 13, 16), (3, 7, 8, 11),
)

# The n = 22 shape of the lattice benchmark; its dual has 204 minimal paths.
LATTICE_N22_PATHS = (
    (5, 18, 19), (16, 19, 20, 21), (1, 16, 20), (7, 8, 16, 18), (5, 13, 16, 18, 21),
    (5, 17, 21), (1, 3, 6, 22), (1, 2, 9, 10, 16), (5, 13, 14, 15, 19), (2, 4, 5, 16),
)

# The n = 24 shape of the lattice benchmark; its dual has 336 minimal paths.
LATTICE_N24_PATHS = (
    (5, 18, 19), (16, 19, 20, 21), (1, 16, 20), (7, 8, 18, 23), (13, 16, 18, 21),
    (5, 8, 21), (1, 3, 22, 24), (2, 10, 19), (9, 16, 20), (13, 14, 23, 24),
)


def kernel_families() -> list[SetFamily]:
    """Families on which the union-closure kernel is checked against the 2^r walk.

    240 seeded random antichains with n <= 12 and r <= 14, sixteen
    singletons at n = 16, whose 2^16 unions are all distinct, and the n = 20
    lattice shape.
    """
    rng = random.Random(20140102)
    families = []
    for _ in range(240):
        n = rng.randint(2, 12)
        families.append(greedy_antichain(rng, n, rng.randint(1, 14), 1, max(1, n // 2)))
    families.append(parallel_paths(16))
    families.append(SetFamily.from_sets(LATTICE_N20_PATHS, n=20))
    return families


def greedy_antichain(rng: random.Random, n: int, r: int, low: int, high: int) -> SetFamily:
    """A seeded antichain of random low..high-component members.

    Draws are kept when incomparable with every kept member, until r are kept
    or 50 * r draws are spent.
    """
    members: list[int] = []
    for _ in range(50 * r):
        mask = sum(1 << c for c in rng.sample(range(n), rng.randint(low, high)))
        if all(mask & ~m and m & ~mask for m in members):
            members.append(mask)
            if len(members) == r:
                break
    return SetFamily.from_sets([[i + 1 for i in range(n) if m >> i & 1] for m in members], n=n)
