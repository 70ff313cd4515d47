"""Seeded system documents for the structfn benchmark.

Every workload is a fixed *round* of document slots. A run draws one round
from its seed and measures it repeatedly, so the mix of sizes and commands is
the same in every run and only the drawn systems change with the seed. Each
document carries the JSON text the program sees plus the expected answers
this module works out on its own (path sets, cut sets by Berge's transversal
algorithm, truth tables by enumeration), so the checks in ``checks.py`` do
not have to trust the routes they check.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

# Why each workload exists. The keys are the workload names of BENCHMARK.json.
WHY = {
    "lattice": "n 20-24 through fresh CLI processes: dense table, Mobius/zeta, "
    "dualization and rendering of forms with tens of thousands of terms",
    "expansion": "path families of 18-20 members in process: the 2^r subfamily walk "
    "dominates and dense lattice work is negligible",
    "exact": "Fraction probabilities with 12-16 paths: inclusion-exclusion cost is "
    "rational arithmetic rather than the walk",
    "desk": "many small documents through cli.main, all nine commands and all four "
    "representations: per-call overhead, parsing and the oracle behind verify",
}

# Nominal seconds of one pass over a round on a 2-core 2 GHz x86 machine; a
# run times as many passes as fit into its --seconds.
PASS_SECONDS = {"lattice": 6.5, "expansion": 6.5, "exact": 4.0, "desk": 2.5}

CLI_COMMANDS = (
    "analyze",
    "dual",
    "paths",
    "cuts",
    "simple-form",
    "signature",
    "counts",
    "reliability",
    "verify",
)

# Lattice systems: ten paths on 20, 22 and 24 components, drawn once with
# random_antichain below (member sizes 3-5, 3-5 and 3-4) and fixed here. Their
# dual forms have 23,919, 28,287 and 28,201 terms and their cut families 203,
# 204 and 336 members, so every dual form takes the dense fallback. Fixing the
# shapes keeps the cost of a round independent of the seed (dual term counts
# of random draws of one size vary fourfold); the seed relabels components
# and reorders members, so every run still sends different documents.
LATTICE_BASE = {
    20: [[2, 9, 14, 17], [10, 12, 13, 16], [5, 7, 10, 17, 18], [9, 18, 20],
         [3, 4, 5, 10, 20], [4, 11, 12, 16, 18], [7, 11, 16, 18], [1, 2, 9, 17],
         [1, 13, 16], [3, 7, 8, 11]],
    22: [[5, 18, 19], [16, 19, 20, 21], [1, 16, 20], [7, 8, 16, 18],
         [5, 13, 16, 18, 21], [5, 17, 21], [1, 3, 6, 22], [1, 2, 9, 10, 16],
         [5, 13, 14, 15, 19], [2, 4, 5, 16]],
    24: [[5, 18, 19], [16, 19, 20, 21], [1, 16, 20], [7, 8, 18, 23],
         [13, 16, 18, 21], [5, 8, 21], [1, 3, 22, 24], [2, 10, 19], [9, 16, 20],
         [13, 14, 23, 24]],
}

# One lattice round: the four commands once each, both formats twice, one slot
# per size plus a cheap one, so that a round takes about 7 s and a run can
# time it three times. analyze at n=24 renders both forms, dual at n=22 the
# dual form.
LATTICE_ROUND = (
    (24, "analyze", "text"),
    (22, "dual", "json"),
    (20, "signature", "json"),
    (20, "cuts", "text"),
)

# Expansion and exact rounds: (n, r) per slot, one slot per r bucket. Exact
# has two r=14 slots, so that its median document averages two draws: the
# cost of one draw varies by about 10% with the seed.
EXPANSION_ROUND = ((18, 18), (16, 19), (16, 20))
EXACT_ROUND = ((12, 12), (15, 14), (15, 14), (18, 16))

# Exact probabilities use a fixed prime denominator per component, so the
# size of the rationals, and with it the cost, does not depend on the seed.
PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
          71, 73, 79, 83, 89, 97)

# Desk: per round, one seeded antichain for every (n in 3..10, command,
# representation, format), the three sample systems, and DESK_WIDE wide-cut
# systems (n <= 10, 16-20 minimal cut sets), one for each cut-family size.
# About 0.9% of unfiltered desk draws are wide-cut; the share is fixed at
# 5 in 584 per round so that it does not vary with the seed. About
# 0.2% of draws have more than 20 cuts and are redrawn: their 2^21-2^24
# subfamily walks take seconds to minutes each, past a run's time limit. The
# results report both rates.
DESK_WIDE = (16, 17, 18, 19, 20)
# Commands for the wide-cut documents, in DESK_WIDE order; each of them
# expands the cut family.
WIDE_COMMANDS = ("analyze", "dual", "cuts", "signature", "counts")
SAMPLE_COMMANDS = ("analyze", "verify", "signature")
KINDS = ("paths", "cuts", "table", "simple_form")


@dataclass
class Doc:
    """One generated document and the answers expected for it."""

    id: int
    bucket: str
    n: int
    text: str
    paths: tuple[int, ...]
    cuts: "tuple[int, ...] | None" = None
    table: "int | None" = None
    command: "str | None" = None
    fmt: str = "text"
    argv: list[str] = field(default_factory=list)
    p: tuple = ()
    subsets: tuple[int, ...] = ()
    wide: bool = False


def bits_of(components) -> int:
    mask = 0
    for c in components:
        mask |= 1 << (c - 1)
    return mask


def components_of(mask: int) -> list[int]:
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


def minimize(masks) -> list[int]:
    """Inclusion-minimal members, smallest first."""
    kept: list[int] = []
    for m in sorted(set(masks), key=lambda x: (x.bit_count(), x)):
        if not any(k & ~m == 0 for k in kept):
            kept.append(m)
    return kept


def minimal_transversals(masks) -> list[int]:
    """Minimal sets meeting every member (Berge's algorithm): the minimal cut sets."""
    trans = [0]
    for member in masks:
        grown = set()
        for t in trans:
            if t & member:
                grown.add(t)
                continue
            rest = member
            while rest:
                low = rest & -rest
                grown.add(t | low)
                rest ^= low
        trans = minimize(grown)
    return trans


def table_of(paths, n: int) -> int:
    """Truth table bits by enumeration: entry m is 1 iff m contains a path."""
    bits = 0
    for m in range(1 << n):
        if any(p & ~m == 0 for p in paths):
            bits |= 1 << m
    return bits


def simple_form_of(table: int, n: int) -> dict[int, int]:
    """Mobius coefficients by the subset-sum recursion over a plain list."""
    values = [table >> m & 1 for m in range(1 << n)]
    for i in range(n):
        step = 1 << i
        for m in range(1 << n):
            if m & step:
                values[m] -= values[m ^ step]
    return {m: c for m, c in enumerate(values) if c}


def random_antichain(rng: random.Random, n: int, r: int, lo: int, hi: int) -> list[int]:
    """r distinct, pairwise incomparable subsets of sizes lo..hi.

    Draws subsets one at a time and keeps those incomparable with the ones
    kept so far; a family that cannot be completed is started afresh.
    """
    family: list[int] = []
    misses = 0
    while len(family) < r:
        mask = bits_of(rng.sample(range(1, n + 1), rng.randint(lo, hi)))
        if all(mask & ~f and f & ~mask for f in family):
            family.append(mask)
        else:
            misses += 1
            if misses > 200:
                family, misses = [], 0
    return family


def relabel(perm: list[int], masks) -> tuple[int, ...]:
    """Move component i + 1 to component perm[i] + 1 in every mask."""
    return tuple(sum(1 << perm[i] for i in range(len(perm)) if m >> i & 1) for m in masks)


def family_json(rng: random.Random, masks) -> list[list[int]]:
    """Members in random order, components within a member in random order."""
    members = [components_of(m) for m in masks]
    rng.shuffle(members)
    for member in members:
        rng.shuffle(member)
    return members


class Generator:
    """Draws the round of documents of one workload from a seed."""

    def __init__(self, workload: str, seed: int, samples_dir: Path):
        self.workload = workload
        self.rng = random.Random(f"{workload}:{seed}")
        self.next_id = 0
        self.samples_dir = samples_dir
        self.draws = {"all": 0, "wide": 0, "over_20": 0}
        self._lattice_cuts = {n: minimal_transversals([bits_of(p) for p in ps])
                              for n, ps in LATTICE_BASE.items()} if workload == "lattice" else {}

    def _id(self) -> int:
        self.next_id += 1
        return self.next_id - 1

    def round(self) -> list[Doc]:
        return getattr(self, f"_{self.workload}")()

    def _lattice(self) -> list[Doc]:
        docs = []
        for n, command, fmt in LATTICE_ROUND:
            perm = self.rng.sample(range(n), n)
            paths = relabel(perm, [bits_of(p) for p in LATTICE_BASE[n]])
            cuts = relabel(perm, self._lattice_cuts[n])
            text = json.dumps({"n": n, "paths": family_json(self.rng, paths)})
            docs.append(Doc(self._id(), f"n{n}", n, text, paths, cuts=cuts, command=command,
                            fmt=fmt, argv=[command, "-", "--format", fmt]))
        return docs

    def _expansion(self) -> list[Doc]:
        docs = []
        for n, r in EXPANSION_ROUND:
            paths = random_antichain(self.rng, n, r, n // 3, n // 2)
            p = tuple(round(self.rng.uniform(0.05, 0.95), 6) for _ in range(n))
            subsets = []
            for k in (2, 3, 4):
                union = 0
                for m in self.rng.sample(paths, k):
                    union |= m
                subsets.append(union)
            text = json.dumps({"n": n, "paths": family_json(self.rng, paths)})
            docs.append(Doc(self._id(), f"r{r}", n, text, tuple(paths), p=p,
                            subsets=tuple(subsets)))
        return docs

    def _exact(self) -> list[Doc]:
        docs = []
        for n, r in EXACT_ROUND:
            paths = random_antichain(self.rng, n, r, n // 3, n // 2)
            p = tuple(Fraction(self.rng.randint(1, d - 1), d) for d in PRIMES[:n])
            text = json.dumps({"n": n, "paths": family_json(self.rng, paths)})
            argv = ["reliability", "-", "--exact", "--p", ",".join(str(v) for v in p)]
            docs.append(Doc(self._id(), f"r{r}", n, text, tuple(paths), p=p, argv=argv))
        return docs

    def _desk_system(self, n: "int | None", cut_count) -> tuple[int, list[int]]:
        """A desk draw whose cut family size satisfies ``cut_count``; others are redrawn.

        Every draw is tallied by its cut family size, so the results show how
        often unfiltered draws are wide-cut (16-20 cuts) or wider still.
        """
        while True:
            size = n or self.rng.randint(3, 10)
            paths = random_antichain(self.rng, size, self.rng.randint(1, min(size, 4)), 1,
                                     (size + 1) // 2)
            r = len(minimal_transversals(paths))
            self.draws["all"] += 1
            self.draws["wide"] += 16 <= r <= 20
            self.draws["over_20"] += r > 20
            if cut_count(r):
                return size, paths

    def _desk_doc(self, bucket, n, paths, kind, command, fmt, wide=False, text=None) -> Doc:
        cuts = minimal_transversals(paths)
        table = table_of(paths, n)
        if text is None:
            if kind == "paths":
                body = family_json(self.rng, paths)
            elif kind == "cuts":
                body = family_json(self.rng, cuts)
            elif kind == "table":
                body = "".join(str(table >> m & 1) for m in range(1 << n))
            else:
                body = [{"subset": components_of(m), "coeff": c}
                        for m, c in simple_form_of(table, n).items()]
                self.rng.shuffle(body)
            text = json.dumps({"n": n, kind: body})
        argv = [command, "-", "--format", fmt]
        p: tuple = ()
        if command == "reliability":
            if kind in ("paths", "table"):
                p = tuple(Fraction(self.rng.randint(1, d - 1), d) for d in PRIMES[:n])
                argv += ["--exact"]
            else:
                p = tuple(round(self.rng.uniform(0.05, 0.95), 6) for _ in range(n))
            argv += ["--p", ",".join(str(v) for v in p)]
        return Doc(self._id(), bucket, n, text, tuple(paths), cuts=tuple(cuts), table=table,
                   command=command, fmt=fmt, argv=argv, p=p, wide=wide)

    def _desk(self) -> list[Doc]:
        """Every (n, command, representation, format) once, plus samples and wide-cut systems.

        Stratifying the small documents keeps the round's cost from depending
        on how many costly slots (verify at n=10, say) a seed happens to draw.
        """
        docs = []
        for slot, path in enumerate(sorted(self.samples_dir.glob("*.json"))):
            text = path.read_text(encoding="utf-8")
            doc = json.loads(text)
            if "paths" in doc:
                paths = minimize(bits_of(p) for p in doc["paths"])
            else:
                paths = minimal_transversals([bits_of(c) for c in doc["cuts"]])
            docs.append(self._desk_doc("sample", doc["n"], paths, None,
                                       SAMPLE_COMMANDS[slot % len(SAMPLE_COMMANDS)], "text",
                                       text=text))
        for n in range(3, 11):
            for command in CLI_COMMANDS:
                for kind in KINDS:
                    for fmt in ("text", "json"):
                        _, paths = self._desk_system(n, lambda r: r < 16)
                        docs.append(self._desk_doc(f"n{n}", n, paths, kind, command, fmt))
        for k, target in enumerate(DESK_WIDE):
            n, paths = self._desk_system(None, lambda r: r == target)
            docs.append(self._desk_doc("wide", n, paths, KINDS[k % len(KINDS)],
                                       WIDE_COMMANDS[k], ("text", "json")[k % 2], wide=True))
        self.rng.shuffle(docs)
        return docs
