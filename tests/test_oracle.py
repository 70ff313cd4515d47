"""The brute-force reference routes, and the fast routes against them."""

import ast
import hashlib
import json
import random
from functools import reduce
from operator import or_
from pathlib import Path

import pytest

from conftest import (
    ADJACENT_PAIRS,
    ADJACENT_PAIRS_N,
    BRIDGE_N,
    BRIDGE_PATHS,
    family,
    greedy_antichain,
)

import structfn.oracle
from structfn import (
    CapacityError,
    SetFamily,
    SubsetMask,
    dualize_table,
    minimal_cut_sets,
    minimal_path_sets,
    mobius_transform,
    table_from_paths,
)
from structfn.oracle import (
    ORACLE_R_MAX,
    _formation_census,
    enumerate_semicoherent,
    oracle_dual_table,
    oracle_formations,
    oracle_minimal_cut_sets,
    oracle_minimal_path_sets,
    oracle_simple_form,
)

CENSUS_FILE = Path(__file__).parent / "data" / "semicoherent_census.json"


class TestEnumeration:
    def test_census_matches_golden_file(self):
        golden = {int(k): v for k, v in json.loads(CENSUS_FILE.read_text()).items()}
        counted = {n: sum(1 for _ in enumerate_semicoherent(n)) for n in (1, 2, 3, 4)}
        assert counted == golden

    def test_two_component_tables_listed_exactly(self):
        tables = {t.values_string() for t in enumerate_semicoherent(2)}
        assert tables == {"0001", "0011", "0101", "0111"}

    def test_every_yielded_table_is_semicoherent(self):
        from structfn import validate_semicoherent

        for table in enumerate_semicoherent(3):
            assert validate_semicoherent(table).ok

    def test_rejects_out_of_range_n(self):
        with pytest.raises(CapacityError):
            list(enumerate_semicoherent(5))
        with pytest.raises(CapacityError):
            list(enumerate_semicoherent(0))


class TestOracleAgainstFastRoutes:
    def test_dual_table_all_n3(self):
        for table in enumerate_semicoherent(3):
            assert oracle_dual_table(table) == dualize_table(table)

    def test_minimal_families_all_n3(self):
        for table in enumerate_semicoherent(3):
            assert oracle_minimal_path_sets(table) == minimal_path_sets(table)
            assert oracle_minimal_cut_sets(table) == minimal_cut_sets(table)

    def test_simple_form_all_n3(self):
        for table in enumerate_semicoherent(3):
            assert oracle_simple_form(table) == mobius_transform(table)

    def test_simple_form_on_bridge(self):
        table = table_from_paths(family(BRIDGE_PATHS, BRIDGE_N))
        assert oracle_simple_form(table) == mobius_transform(table)


class TestOracleFormations:
    def test_bridge_full_set(self):
        paths = family(BRIDGE_PATHS, BRIDGE_N)
        full = SubsetMask.from_components((1, 2, 3, 4, 5), n=5)
        assert oracle_formations(paths, full) == (4, 2)

    def test_adjacent_pairs_cancel_on_full_set(self):
        paths = family(ADJACENT_PAIRS, ADJACENT_PAIRS_N)
        full = SubsetMask.from_components((1, 2, 3, 4), n=4)
        assert oracle_formations(paths, full) == (1, 1)

    def test_single_path(self):
        paths = family([(1, 2)], 2)
        assert oracle_formations(paths, SubsetMask.from_components((1, 2), n=2)) == (1, 0)
        assert oracle_formations(paths, SubsetMask.from_components((1,), n=2)) == (0, 0)

    def test_accepts_raw_mask(self):
        paths = family(BRIDGE_PATHS, BRIDGE_N)
        assert oracle_formations(paths, 0b11111) == (4, 2)

    def test_census_is_keyed_by_the_union_closure(self):
        for paths, _ in pinned_families():
            unions = set()
            for m in paths.masks():
                unions |= {u | m for u in unions} | {m}
            census = _formation_census(paths)
            assert census.keys() == unions
            assert sum(odd + even for odd, even in census.values()) == (1 << paths.r) - 1

    def test_member_cap(self):
        singletons = family([(i,) for i in range(1, ORACLE_R_MAX + 2)], ORACLE_R_MAX + 1)
        with pytest.raises(CapacityError):
            oracle_formations(singletons, 0b11)


def pinned_tables():
    """All 189 semicoherent tables with n <= 4, then 15 seeded ones for each n = 5..10."""
    yield from (t for n in (1, 2, 3, 4) for t in enumerate_semicoherent(n))
    rng = random.Random(20141020)
    for n in range(5, 11):
        for _ in range(15):
            yield table_from_paths(greedy_antichain(rng, n, rng.randint(1, 10), 1, max(1, n // 2)))


def pinned_families():
    """Seeded families of r <= 10 distinct members, nested ones included, each
    with targets drawn from its unions and from all subsets."""
    rng = random.Random(20141021)
    for _ in range(40):
        n = rng.randint(2, 10)
        masks = rng.sample(range(1, 1 << n), rng.randint(1, min(10, (1 << n) - 1)))
        paths = SetFamily.from_sets([[i + 1 for i in range(n) if m >> i & 1] for m in masks], n=n)
        unions = {reduce(or_, rng.sample(masks, rng.randint(1, len(masks)))) for _ in range(24)}
        yield paths, sorted(unions | {rng.randrange(1 << n) for _ in range(24)})


# SHA-256 of the outputs of every oracle on the pinned inputs, recorded while
# the oracle still enumerated subsets as tuples with itertools.
ORACLE_PIN_DIGEST = "0974cf78fe2117b1eb4165e5d50167eb14f09729ddd39275164bba1a265e5ccd"


def oracle_pin_text():
    lines = []
    for table in pinned_tables():
        lines.append(repr((
            table.n,
            table.bits,
            oracle_dual_table(table).bits,
            oracle_minimal_path_sets(table).masks(),
            oracle_minimal_cut_sets(table).masks(),
            sorted(oracle_simple_form(table).coeffs.items()),
        )))
    for paths, targets in pinned_families():
        full = SubsetMask(bits=reduce(or_, paths.masks()), n=paths.n)
        counts = [oracle_formations(paths, t) for t in targets] + [oracle_formations(paths, full)]
        lines.append(repr((paths.n, paths.masks(), targets, counts)))
    return "\n".join(lines)


class TestOraclePin:
    def test_outputs_are_unchanged(self):
        assert hashlib.sha256(oracle_pin_text().encode()).hexdigest() == ORACLE_PIN_DIGEST

    def test_imports_no_fast_route(self):
        tree = ast.parse(Path(structfn.oracle.__file__).read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported.add((node.module or "").rsplit(".", 1)[-1])
            elif isinstance(node, ast.Import):
                imported.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
        assert not imported & {"transform", "reliability", "signature"}
