"""Representation conversions: dual, families, expansions, extraction."""

import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from conftest import (
    ADJACENT_PAIRS,
    ADJACENT_PAIRS_N,
    BRIDGE_N,
    BRIDGE_PATHS,
    LATTICE_N20_PATHS,
    LATTICE_N24_PATHS,
    coproduct_table,
    cut_product_table,
    family,
    greedy_antichain,
    kernel_families,
    parallel_paths,
    series_paths,
)

from structfn import (
    CapacityError,
    InconsistentFormError,
    MultilinearForm,
    NonMinimalFamilyWarning,
    NotSemicoherentError,
    SetFamily,
    SubsetMask,
    TruthTable,
    cuts_from_paths,
    diagonal_coefficients,
    diagonal_from_paths,
    dual_simple_form_from_cuts,
    dualize_table,
    evaluate_inclusion_exclusion,
    formation_balance,
    minimal_cut_sets,
    minimal_path_sets,
    mobius_transform,
    paths_from_simple_form,
    signature_from_diagonal,
    signature_from_paths,
    simple_form_from_paths,
    table_from_cuts,
    table_from_paths,
    zeta_transform,
)
from structfn.core import _BYTE_BITS, _iter_bit_positions, _join_chunks, _minimal_true_chunks
from structfn.oracle import (
    enumerate_semicoherent,
    oracle_dual_table,
    oracle_formations,
    oracle_minimal_cut_sets,
    oracle_minimal_path_sets,
)
from structfn.transform import _formation_signs, _minimal_paths, _table_bit_positions

ADJACENT_FORM = (
    ((1, 2), 1),
    ((2, 3), 1),
    ((3, 4), 1),
    ((1, 2, 3), -1),
    ((2, 3, 4), -1),
)
ADJACENT_DUAL_FORM = (
    ((1, 3), 1),
    ((2, 3), 1),
    ((2, 4), 1),
    ((1, 2, 3), -1),
    ((2, 3, 4), -1),
)


# Every routine that expands a family and falls back to the table route above
# max_r, called with the family as its first argument.
ROUTED = {
    "simple_form_from_paths": simple_form_from_paths,
    "dual_simple_form_from_cuts": dual_simple_form_from_cuts,
    "formation_balance": lambda fam, **caps: formation_balance(fam, (1 << fam.n) - 1, **caps),
    "evaluate_inclusion_exclusion": lambda fam, **caps: evaluate_inclusion_exclusion(
        fam, (Fraction(1, 2),) * fam.n, **caps
    ),
    "diagonal_from_paths": diagonal_from_paths,
}


def bridge_table():
    return table_from_paths(family(BRIDGE_PATHS, BRIDGE_N))


def walk_formation_signs(masks):
    """The recursive 2^r subfamily walk that the union-closure kernel replaced."""
    acc = {}

    def walk(idx, union, size):
        if idx == len(masks):
            if size:
                acc[union] = acc.get(union, 0) + (1 if size & 1 else -1)
            return
        walk(idx + 1, union, size)
        walk(idx + 1, union | masks[idx], size + 1)

    walk(0, 0, 0)
    return acc


def carrying_formation_signs(masks):
    """The union-closure kernel before it dropped cancelled counts: members in
    the given order, every count carried to the last step and filtered there."""
    acc = {}
    for m in masks:
        for u, c in list(acc.items()):
            acc[u | m] = acc.get(u | m, 0) - c
        acc[m] = acc.get(m, 0) + 1
    return {u: c for u, c in acc.items() if c}


def ring_paths(r: int) -> SetFamily:
    """The r pairs {i, i+1 mod r} on r components: every component in two members."""
    return family([(i, i % r + 1) for i in range(1, r + 1)], r)


def star_paths(r: int) -> SetFamily:
    """The r pairs {1, i} for i = 2..r+1: component 1 in every member."""
    return family([(1, i) for i in range(2, r + 2)], r + 1)


# Builders of the largest families whose kernel forms are checked against
# the table's Mobius transform; each is built in its own test, so no form
# outlives it. Hub 21's members each hold one of components 1..21 and two of
# the three hubs 22..24.
LARGE_FAMILIES = {
    "parallel_20": lambda: parallel_paths(20),
    "star_20": lambda: star_paths(20),
    "ring_20": lambda: ring_paths(20),
    "hub_21": lambda: family([(i, 22 + i % 3, 22 + (i + 1) % 3) for i in range(1, 22)], 24),
}


def mask_family(masks, n: int) -> SetFamily:
    return SetFamily(n, tuple(SubsetMask(m, n) for m in masks))


def per_member_table(masks, n: int) -> int:
    """The table bits as the union, member by member, of the subsets containing it."""
    total = 1 << n
    patterns = [sum(1 << a for a in range(total) if a >> i & 1) for i in range(n)]
    bits = 0
    for m in masks:
        contains_m = (1 << total) - 1
        for i in range(n):
            if m >> i & 1:
                contains_m &= patterns[i]
        bits |= contains_m
    return bits


def packed(positions, width: int) -> int:
    """The ``width``-bit integer with exactly the given bits set, built bytewise."""
    raw = bytearray((width + 7) // 8)
    for m in positions:
        raw[m >> 3] |= 1 << (m & 7)
    return int.from_bytes(raw, "little")


class TestDualize:
    def test_series_becomes_parallel(self):
        series = TruthTable.from_values("0001")
        assert dualize_table(series) == TruthTable.from_values("0111")

    def test_involution(self):
        table = bridge_table()
        assert dualize_table(dualize_table(table)) == table

    def test_matches_pointwise_definition(self):
        table = bridge_table()
        assert dualize_table(table) == oracle_dual_table(table)

    def test_adjacent_pairs_dual_form(self):
        table = table_from_paths(family(ADJACENT_PAIRS, ADJACENT_PAIRS_N))
        dual_form = mobius_transform(dualize_table(table))
        assert dual_form == MultilinearForm.from_terms(ADJACENT_DUAL_FORM, n=4)


class TestMinimalSets:
    def test_bridge_paths(self):
        assert str(minimal_path_sets(bridge_table())) == "{1,4}, {2,5}, {1,3,5}, {2,3,4}"

    def test_bridge_cuts(self):
        assert str(minimal_cut_sets(bridge_table())) == "{1,2}, {4,5}, {1,3,5}, {2,3,4}"

    def test_parallel_paths_are_singletons(self):
        assert str(minimal_path_sets(TruthTable.from_values("0111"))) == "{1}, {2}"

    def test_adjacent_pairs_cuts(self):
        table = table_from_paths(family(ADJACENT_PAIRS, ADJACENT_PAIRS_N))
        assert str(minimal_cut_sets(table)) == "{1,3}, {2,3}, {2,4}"

    def test_rejects_non_semicoherent(self):
        with pytest.raises(NotSemicoherentError):
            minimal_path_sets(TruthTable.from_values("0110"))

    def test_matches_definition_for_all_three_component_systems(self):
        for table in enumerate_semicoherent(3):
            assert minimal_path_sets(table) == oracle_minimal_path_sets(table)
            assert minimal_cut_sets(table) == oracle_minimal_cut_sets(table)

    def test_table_bit_scan_matches_bitwise_iteration(self):
        rng = random.Random(7)
        for width in (1, 2, 4, 7, 8, 9, 64, 1000, 1 << 12):
            for density in (0.0, 0.01, 0.5, 1.0):
                bits = sum(1 << m for m in range(width) if rng.random() < density)
                assert _table_bit_positions(bits, width) == list(_iter_bit_positions(bits))
        # Wide tables, sparse and dense. The bitwise iteration and the sum above
        # are quadratic there, so positions are drawn first and packed bytewise.
        for width in (1 << 16, 1 << 20):
            for density in (0.001, 0.5):
                positions = [m for m in range(width) if rng.random() < density]
                assert _table_bit_positions(packed(positions, width), width) == positions
        # One set bit on either side of every byte boundary, where the scan
        # moves from one nonzero byte to the next, and at the first and last
        # positions of widths that do and do not end on a byte.
        for width in (1 << 12, 4099, 1 << 20):
            ends = range(width) if width == 1 << 12 else (0, 1, width - 2, width - 1)
            for m in ends:
                assert _table_bit_positions(1 << m, width) == [m]
        for width in (1, 7, 8, 9, 1 << 12, 1 << 20):
            assert _table_bit_positions(0, width) == []
            assert _table_bit_positions((1 << width) - 1, width) == list(range(width))

    def test_table_bit_scan_keeps_pace_with_numpy(self):
        """On the n = 24 lattice tables the scan is no slower than the numpy
        scan it replaced, a copy of which is kept here (best of 5 each)."""
        import numpy as np

        def numpy_scan(bits, width):
            raw = bits.to_bytes((width + 7) // 8, "little")
            positions = []
            for index in np.flatnonzero(np.frombuffer(raw, dtype=np.uint8)).tolist():
                positions.extend(8 * index + j for j in _BYTE_BITS[raw[index]])
            return positions

        table = table_from_paths(family(LATTICE_N24_PATHS, 24))
        for system in (table, dualize_table(table)):
            bits, width = _join_chunks(_minimal_true_chunks(system.bits, 24), 24), 1 << 24
            assert _table_bit_positions(bits, width) == numpy_scan(bits, width)
            best = {}
            for _ in range(5):  # interleaved, so a slow phase of the machine hits both
                for scan in (_table_bit_positions, numpy_scan):
                    start = time.perf_counter()
                    scan(bits, width)
                    elapsed = time.perf_counter() - start
                    best[scan] = min(best.get(scan, elapsed), elapsed)
            assert best[_table_bit_positions] <= best[numpy_scan]

    def test_lattice_cuts_match_the_dual_form_route(self):
        paths = family(LATTICE_N20_PATHS, 20)
        cuts = minimal_cut_sets(table_from_paths(paths))
        assert cuts.r == 203
        assert cuts == cuts_from_paths(paths)


class TestTableFromFamilies:
    def test_bridge_matches_coproduct_arithmetic(self):
        assert bridge_table() == coproduct_table(BRIDGE_PATHS, BRIDGE_N)

    def test_single_path_is_series(self):
        assert table_from_paths(series_paths(3)) == TruthTable.from_values("00000001")

    def test_redundant_members_absorbed_silently(self):
        import warnings

        redundant = family([(1,), (1, 2)], 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = table_from_paths(redundant)
        assert table == table_from_paths(family([(1,)], 2))

    def test_empty_family_rejected(self):
        from structfn import SetFamily

        with pytest.raises(ValueError, match="at least one path set required"):
            table_from_paths(SetFamily(n=2, members=()))

    def test_cuts_route_adjacent_pairs(self):
        cuts = family([(1, 3), (2, 3), (2, 4)], 4)
        assert table_from_cuts(cuts) == table_from_paths(family(ADJACENT_PAIRS, ADJACENT_PAIRS_N))

    def test_cuts_route_matches_product_arithmetic(self):
        bridge_cuts = ((1, 2), (4, 5), (1, 3, 5), (2, 3, 4))
        assert table_from_cuts(family(bridge_cuts, 5)) == cut_product_table(bridge_cuts, 5)
        assert table_from_cuts(family(bridge_cuts, 5)) == bridge_table()

    def test_single_cut_is_parallel(self):
        assert table_from_cuts(family([(1, 2)], 2)) == TruthTable.from_values("0111")

    def test_up_closure_matches_the_per_member_build(self):
        rng = random.Random(23)
        for n in range(1, 11):
            total = 1 << n
            for _ in range(30):
                # Random members, so some contain others and are not minimal.
                masks = {rng.randrange(1, total) for _ in range(rng.randint(1, min(total, 40)))}
                paths = mask_family(masks, n)
                expected = per_member_table(masks, n)
                assert table_from_paths(paths).bits == expected
                assert table_from_cuts(paths) == dualize_table(TruthTable(n=n, bits=expected))

    def test_up_closure_inverts_the_minimal_entries(self):
        for n in range(1, 5):
            for table in enumerate_semicoherent(n):
                minimal = _table_bit_positions(_minimal_true_chunks(table.bits, n)[0], 1 << n)
                assert table_from_paths(mask_family(minimal, n)) == table

    def test_thousands_of_members_at_n24(self):
        rng = random.Random(11)
        masks: set[int] = set()
        while len(masks) < 3000:
            masks.add(sum(1 << c for c in rng.sample(range(24), 8)))
        paths = mask_family(masks, 24)
        start = time.perf_counter()
        table = table_from_paths(paths)
        assert time.perf_counter() - start < 2.0
        # Members of one size form an antichain, so they are the minimal entries.
        assert _minimal_paths(table) == paths


class TestSimpleFormExpansion:
    def test_adjacent_pairs_cancellation(self):
        form = simple_form_from_paths(family(ADJACENT_PAIRS, ADJACENT_PAIRS_N))
        assert form == MultilinearForm.from_terms(ADJACENT_FORM, n=4)
        assert form.coefficient(SubsetMask.from_components((1, 2, 3, 4), n=4)) == 0

    def test_bridge_ten_terms(self):
        form = simple_form_from_paths(family(BRIDGE_PATHS, BRIDGE_N))
        assert form == mobius_transform(bridge_table())
        assert len(form.coeffs) == 10

    def test_single_path(self):
        form = simple_form_from_paths(family([(1, 2)], 2))
        assert form.coeffs == {0b11: 1}

    def test_non_antichain_warns_and_minimizes(self):
        redundant = family([(1,), (1, 2)], 2)
        with pytest.warns(NonMinimalFamilyWarning):
            form = simple_form_from_paths(redundant)
        assert form == simple_form_from_paths(family([(1,)], 2))

    def test_non_minimal_input_is_scanned_once(self, monkeypatch):
        def refuse(self):
            raise AssertionError("minimized() alone finds the redundant members")

        redundant = family([(1,), (1, 2), (2, 3), (1, 2, 3)], 3)
        expected = simple_form_from_paths(family([(1,), (2, 3)], 3))
        monkeypatch.setattr(SetFamily, "is_antichain", refuse)
        with pytest.warns(NonMinimalFamilyWarning) as record:
            form = simple_form_from_paths(redundant)
        assert len(record) == 1
        assert form == expected

    def test_fallback_route_above_max_r(self):
        paths = family(BRIDGE_PATHS, BRIDGE_N)
        assert simple_form_from_paths(paths, max_r=2) == simple_form_from_paths(paths)

    def test_capacity_error_when_both_caps_exceeded(self):
        with pytest.raises(CapacityError):
            simple_form_from_paths(family(BRIDGE_PATHS, BRIDGE_N), max_r=2, max_n=2)

    @pytest.mark.parametrize("name", list(LARGE_FAMILIES))
    def test_kernel_matches_mobius_on_large_families(self, name):
        paths = LARGE_FAMILIES[name]()
        assert simple_form_from_paths(paths) == mobius_transform(table_from_paths(paths))

    def test_dual_form_from_cuts(self):
        cuts = family([(1, 3), (2, 3), (2, 4)], 4)
        assert dual_simple_form_from_cuts(cuts) == MultilinearForm.from_terms(
            ADJACENT_DUAL_FORM, n=4
        )

    def test_dual_form_matches_mobius_of_dual(self):
        table = bridge_table()
        cuts = minimal_cut_sets(table)
        assert dual_simple_form_from_cuts(cuts) == mobius_transform(dualize_table(table))


class TestUnionClosureKernel:
    def test_matches_the_subfamily_walk(self):
        for fam in kernel_families():
            expected = {u: c for u, c in walk_formation_signs(fam.masks()).items() if c}
            assert _formation_signs(fam.masks()) == expected, str(fam)

    def test_singletons_reach_every_subset(self):
        signs = _formation_signs(parallel_paths(16).masks())
        assert len(signs) == (1 << 16) - 1
        assert all(c == (-1) ** (u.bit_count() - 1) for u, c in signs.items())

    def test_form_is_sorted_without_a_pair_per_term(self):
        paths = parallel_paths(16)

        def traced_peak(build) -> int:
            tracemalloc.start()
            try:
                build()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def sorted_pairs_form() -> MultilinearForm:
            signs = _formation_signs(paths.masks())
            return MultilinearForm._trusted(paths.n, dict(sorted(signs.items())))

        kernel_peak = traced_peak(lambda: simple_form_from_paths(paths))
        assert kernel_peak <= 0.85 * traced_peak(sorted_pairs_form)

    def test_member_order_does_not_matter(self):
        masks = family(LATTICE_N20_PATHS, 20).masks()
        assert _formation_signs(masks[::-1]) == _formation_signs(masks)

    def test_balances_match_the_walk_on_every_union(self):
        paths = family(LATTICE_N20_PATHS, 20)
        walk = walk_formation_signs(paths.masks())
        for union, count in walk.items():
            assert formation_balance(paths, union) == count


class TestCancellingKernel:
    """The kernel drops counts that cancel and adds members largest first; it
    must return exactly the dict the carrying kernel returned."""

    def test_matches_the_carrying_kernel_on_seeded_antichains(self):
        for fam in kernel_families():
            assert _formation_signs(fam.masks()) == carrying_formation_signs(fam.masks()), str(fam)

    def test_matches_the_carrying_kernel_on_nested_and_repeated_members(self):
        # Redundant supersets, as in a family no public function has minimized.
        rng = random.Random(20261021)
        for _ in range(60):
            n = rng.randint(3, 10)
            masks = list(greedy_antichain(rng, n, rng.randint(1, 8), 1, max(1, n // 2)).masks())
            for m in list(masks):
                masks.append(m | 1 << rng.randrange(n))  # m itself when the bit is in m
                masks.append(m | rng.choice(masks))
            masks = list(dict.fromkeys(masks))
            rng.shuffle(masks)
            expected = carrying_formation_signs(masks)
            assert _formation_signs(masks) == expected, masks
            assert expected == {u: c for u, c in walk_formation_signs(masks).items() if c}
            assert expected == _formation_signs(mask_family(masks, n).minimized().masks())
            repeated = masks + masks[: rng.randint(1, 3)]
            assert _formation_signs(repeated) == carrying_formation_signs(repeated), repeated

    @pytest.mark.parametrize("size", [1, 2, 3, 5, 8, 12, 14])
    def test_matches_the_carrying_kernel_on_rings_stars_and_parallels(self, size):
        families = [star_paths(size), parallel_paths(size), series_paths(size)]
        for fam in families + ([ring_paths(size)] if size >= 3 else []):
            masks = fam.masks()
            assert _formation_signs(masks) == carrying_formation_signs(masks), str(fam)
            assert _formation_signs(masks[::-1]) == carrying_formation_signs(masks), str(fam)

    def test_cancelled_unions_are_not_returned(self):
        # {1,2}, {3,4} and all three pairs form {1,2,3,4}: its count cancels.
        signs = _formation_signs(family(ADJACENT_PAIRS, ADJACENT_PAIRS_N).masks())
        assert signs == {0b0011: 1, 0b0110: 1, 0b1100: 1, 0b0111: -1, 0b1110: -1}

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_odd_minus_even_formations_on_every_antichain(self, n):
        from structfn.oracle import _formation_census

        checked = 0
        for table in enumerate_semicoherent(n):
            paths = minimal_path_sets(table)
            census = _formation_census(paths)
            expected = {u: odd - even for u, (odd, even) in census.items() if odd != even}
            assert _formation_signs(paths.masks()) == expected, str(paths)
            assert _formation_signs(paths.masks()[::-1]) == expected, str(paths)
            checked += 1
        assert checked == {1: 1, 2: 4, 3: 18, 4: 166}[n]


class TestKeptForm:
    """A family keeps the form the kernel built for it, and every family
    expansion within the caps reads it instead of running the kernel again."""

    @staticmethod
    def counted_kernel(monkeypatch) -> list:
        import structfn.transform

        calls = []
        kernel = structfn.transform._formation_signs

        def counted(masks):
            calls.append(tuple(masks))
            return kernel(masks)

        monkeypatch.setattr("structfn.transform._formation_signs", counted)
        return calls

    def test_form_diagonal_and_signature_share_one_kernel_run(self, monkeypatch):
        calls = self.counted_kernel(monkeypatch)
        paths = family(LATTICE_N20_PATHS, 20)
        form = simple_form_from_paths(paths)
        diagonal = diagonal_from_paths(paths)
        signature = signature_from_paths(paths)
        assert simple_form_from_paths(paths) is form
        assert dual_simple_form_from_cuts(paths) is form
        assert len(calls) == 1
        expected = mobius_transform(table_from_paths(paths))
        assert form == expected
        assert diagonal == diagonal_coefficients(expected)
        assert signature == signature_from_diagonal(diagonal)

    def test_equal_families_each_run_the_kernel(self, monkeypatch):
        from structfn.cli import parse_document

        calls = self.counted_kernel(monkeypatch)
        text = '{"n": 5, "paths": [[1, 4], [2, 5], [1, 3, 5], [2, 3, 4]]}'
        first, second = parse_document(text).paths, parse_document(text).paths
        assert first == second and first is not second
        assert simple_form_from_paths(first) == simple_form_from_paths(second)
        assert len(calls) == 2

    def test_formation_balance_never_reads_the_kept_form(self, monkeypatch):
        calls = self.counted_kernel(monkeypatch)
        paths = family(BRIDGE_PATHS, BRIDGE_N)
        form = simple_form_from_paths(paths)
        full = (1 << BRIDGE_N) - 1
        assert [formation_balance(paths, full) for _ in range(3)] == [form.coefficient(full)] * 3
        assert calls == [paths.masks()] + [paths.masks()] * 3
        # A target holding some members runs the kernel on those members only.
        assert formation_balance(paths, 0b01001) == 1
        assert calls[-1] == (0b01001,)

    def test_caps_are_checked_before_the_kept_form(self, monkeypatch):
        paths = family(BRIDGE_PATHS, BRIDGE_N)
        with pytest.raises(CapacityError) as fresh:
            simple_form_from_paths(family(BRIDGE_PATHS, BRIDGE_N), max_r=0, max_n=1)
        form = simple_form_from_paths(paths)
        for call in (simple_form_from_paths, diagonal_from_paths, signature_from_paths):
            with pytest.raises(CapacityError) as kept:
                call(paths, max_r=0, max_n=1)
            assert str(kept.value) == str(fresh.value)
        calls = self.counted_kernel(monkeypatch)
        dense = simple_form_from_paths(paths, max_r=0)
        assert dense == form and dense is not form
        assert simple_form_from_paths(paths, max_r=0) is not dense  # the fallback is not kept
        assert simple_form_from_paths(paths) is form
        assert calls == []

    def test_a_family_is_scanned_for_minimality_once(self, monkeypatch):
        import structfn.core

        checks = []  # one any() per member the pairwise scan visits

        def counted_any(items):
            checks.append(1)
            return any(items)

        monkeypatch.setattr(structfn.core, "any", counted_any, raising=False)
        paths = family(LATTICE_N20_PATHS, 20)
        form = simple_form_from_paths(paths)
        diagonal_from_paths(paths)
        signature_from_paths(paths)
        for k in (1, 2, 3):
            union = paths.masks()[0] | paths.masks()[k]
            assert formation_balance(paths, union) == form.coefficient(union)
        assert paths.is_antichain() and paths.minimized() is paths
        assert len(checks) == paths.r
        redundant = family([(1,), (1, 2), (2, 3)], 3)
        minimal = redundant.minimized()
        assert minimal == family([(1,), (2, 3)], 3)
        assert redundant.minimized() is minimal and minimal.minimized() is minimal
        assert not redundant.is_antichain() and minimal.is_antichain()
        assert len(checks) == paths.r + redundant.r

    def test_the_kept_form_is_collapsed_once(self, monkeypatch):
        import structfn.reliability

        collapsed = []
        poly = structfn.reliability.DiagonalPoly

        def counted(**fields):
            collapsed.append(fields["n"])
            return poly(**fields)

        monkeypatch.setattr(structfn.reliability, "DiagonalPoly", counted)
        paths = family(LATTICE_N20_PATHS, 20)
        diagonal = diagonal_from_paths(paths)
        signature = signature_from_paths(paths)
        assert diagonal_from_paths(paths) is diagonal
        assert diagonal_coefficients(simple_form_from_paths(paths)) is diagonal
        assert collapsed == [20]
        expected = diagonal_coefficients(mobius_transform(table_from_paths(paths)))
        assert collapsed == [20, 20]  # a fresh form collapses on its own
        assert diagonal == expected and signature == signature_from_diagonal(expected)

    @pytest.mark.parametrize(
        "call", [simple_form_from_paths, diagonal_from_paths, signature_from_paths]
    )
    def test_non_minimal_input_warns_on_every_call(self, call):
        redundant = family([(1,), (1, 2), (2, 3)], 3)
        results = []
        for _ in range(3):
            with pytest.warns(NonMinimalFamilyWarning):
                results.append(call(redundant))
        assert results[0] == results[1] == results[2] == call(family([(1,), (2, 3)], 3))

    def test_the_cli_form_is_the_kernel_form(self, monkeypatch):
        from structfn.cli import Options, _Analysis, parse_document

        calls = self.counted_kernel(monkeypatch)
        system = parse_document('{"n": 5, "paths": [[1, 4], [2, 5], [1, 3, 5], [2, 3, 4]]}')
        a = _Analysis.of(system, Options())
        assert a.form is simple_form_from_paths(a.paths)
        assert diagonal_from_paths(a.paths) == a.diagonal
        assert len(calls) == 1


def assert_canonical(form: MultilinearForm) -> None:
    """Keys ascend, coefficients are nonzero ints, and the checked constructor
    rebuilds the same form."""
    assert list(form.coeffs) == sorted(form.coeffs)
    assert all(type(c) is int and c for c in form.coeffs.values())
    assert form == MultilinearForm(form.n, dict(form.coeffs))


class TestTrustedForms:
    """The kernel and Möbius routes build forms without the public
    constructor's checks; their output must already be what it would make."""

    def built_unchecked(self, monkeypatch, build, inputs) -> list[MultilinearForm]:
        def refuse(self):
            raise AssertionError("a library-built form is not re-checked")

        with monkeypatch.context() as m:
            m.setattr(MultilinearForm, "__post_init__", refuse)
            return [build(x) for x in inputs]

    def test_kernel_forms(self, monkeypatch):
        def refuse(table):
            raise AssertionError("these families are within the expansion cap")

        monkeypatch.setattr("structfn.transform.mobius_transform", refuse)
        families = kernel_families()
        forms = self.built_unchecked(monkeypatch, simple_form_from_paths, families)
        for fam, form in zip(families, forms):
            assert_canonical(form)
            assert form.coeffs == {u: c for u, c in walk_formation_signs(fam.masks()).items() if c}

    def test_mobius_forms(self, monkeypatch):
        rng = random.Random(20261019)
        tables = [table_from_paths(fam) for fam in kernel_families()]
        tables += [
            TruthTable(n=n, bits=rng.getrandbits(1 << n)) for n in range(1, 13) for _ in range(5)
        ]
        forms = self.built_unchecked(monkeypatch, mobius_transform, tables)
        for table, form in zip(tables, forms):
            assert_canonical(form)
            assert form.n == table.n
            assert zeta_transform(form) == table


def monotone_tables() -> list[TruthTable]:
    """The kernel families' tables and seeded random semicoherent tables with
    n <= 12: each the up-set of random nonempty masks, supersets included."""
    rng = random.Random(20261020)
    tables = [table_from_paths(fam) for fam in kernel_families()]
    for n in range(1, 13):
        for _ in range(5):
            masks = {rng.randrange(1, 1 << n) for _ in range(rng.randint(1, 3 * n))}
            tables.append(table_from_paths(mask_family(masks, n)))
    return tables


def assert_public_family(built: SetFamily) -> None:
    """In every view, ``built`` is the family the public constructor makes
    from the same members, handed over in reverse order."""
    public = mask_family(reversed(built.masks()), built.n)
    assert built == public
    assert hash(built) == hash(public)
    assert repr(built) == repr(public)
    assert str(built) == str(public)
    assert built.members == public.members
    assert built.masks() == public.masks()
    assert built.size_census() == public.size_census()


class TestTrustedFamilies:
    """Library routes build families from their masks without the public
    constructor or a SubsetMask; the result must be what the constructor makes."""

    ROUTES = {
        "_minimal_paths": _minimal_paths,
        "minimal_cut_sets": minimal_cut_sets,
        "paths_from_simple_form": lambda table: paths_from_simple_form(mobius_transform(table)),
    }

    @pytest.mark.parametrize("route", list(ROUTES))
    def test_table_routes(self, monkeypatch, route):
        tables = monotone_tables()

        def refuse(self):
            raise AssertionError("a library-built family builds no SubsetMask")

        with monkeypatch.context() as m:
            m.setattr(SubsetMask, "__post_init__", refuse)
            families = [self.ROUTES[route](table) for table in tables]
        for table, fam in zip(tables, families):
            assert fam.n == table.n
            assert_public_family(fam)

    def test_minimized(self):
        rng = random.Random(20261021)
        shrunk = 0
        for n in range(1, 13):
            for _ in range(10):
                masks = {rng.randrange(1, 1 << n) for _ in range(rng.randint(1, 3 * n))}
                fam = mask_family(masks, n)
                minimal = fam.minimized()
                shrunk += minimal is not fam
                assert minimal == minimal_path_sets(table_from_paths(fam))
                assert_public_family(minimal)
        assert shrunk > 60
        for fam in kernel_families():
            assert fam.minimized() is fam


class TestPathsFromSimpleForm:
    def test_bridge_recovery(self):
        paths = paths_from_simple_form(mobius_transform(bridge_table()))
        assert paths == family(BRIDGE_PATHS, BRIDGE_N)

    def test_single_variable(self):
        assert str(paths_from_simple_form(MultilinearForm(n=1, coeffs={0b1: 1}))) == "{1}"

    def test_rejects_minimal_coefficient_not_one(self):
        with pytest.raises(InconsistentFormError, match=r"\{1\} has coefficient 2"):
            paths_from_simple_form(MultilinearForm(n=2, coeffs={0b01: 2}))

    def test_names_the_first_bad_minimal_monomial_in_canonical_order(self):
        # {2,3} has the smaller mask, 6, but {1,4} (mask 9) comes first canonically.
        form = MultilinearForm(n=4, coeffs={0b0110: 3, 0b1001: 2, 0b1111: 5})
        with pytest.raises(InconsistentFormError) as raised:
            paths_from_simple_form(form)
        assert str(raised.value) == "minimal monomial {1,4} has coefficient 2, expected +1"

    def test_rejects_constant_term(self):
        with pytest.raises(InconsistentFormError, match="constant term"):
            paths_from_simple_form(MultilinearForm(n=2, coeffs={0: 1, 0b01: 1}))


class TestCutsFromPaths:
    def test_adjacent_pairs(self):
        cuts = cuts_from_paths(family(ADJACENT_PAIRS, ADJACENT_PAIRS_N))
        assert str(cuts) == "{1,3}, {2,3}, {2,4}"

    def test_parallel_has_single_cut(self):
        assert str(cuts_from_paths(parallel_paths(3))) == "{1,2,3}"

    def test_bridge(self):
        cuts = cuts_from_paths(family(BRIDGE_PATHS, BRIDGE_N))
        assert cuts == minimal_cut_sets(bridge_table())


class TestFormationBalance:
    def test_bridge_full_set(self):
        paths = family(BRIDGE_PATHS, BRIDGE_N)
        full = SubsetMask.from_components((1, 2, 3, 4, 5), n=5)
        assert formation_balance(paths, full) == 2
        odd, even = oracle_formations(paths, full)
        assert (odd, even) == (4, 2)
        assert odd - even == 2

    def test_adjacent_pairs_cancellation_subset(self):
        paths = family(ADJACENT_PAIRS, ADJACENT_PAIRS_N)
        target = SubsetMask.from_components((1, 2, 3, 4), n=4)
        assert formation_balance(paths, target) == 0
        assert oracle_formations(paths, target) == (1, 1)

    def test_non_union_subset_is_zero(self):
        paths = family(ADJACENT_PAIRS, ADJACENT_PAIRS_N)
        assert formation_balance(paths, SubsetMask.from_components((1, 3), n=4)) == 0
        assert formation_balance(paths, 0) == 0

    def test_matches_simple_form_on_bridge(self):
        paths = family(BRIDGE_PATHS, BRIDGE_N)
        form = mobius_transform(bridge_table())
        for mask in range(1 << BRIDGE_N):
            assert formation_balance(paths, mask) == form.coefficient(mask)


class TestRoutePolicy:
    @pytest.mark.parametrize("name", ROUTED)
    def test_fallback_route_above_max_r(self, name):
        paths = family(BRIDGE_PATHS, BRIDGE_N)
        assert ROUTED[name](paths, max_r=2) == ROUTED[name](paths)

    @pytest.mark.parametrize("name", ROUTED)
    def test_capacity_error_when_both_caps_exceeded(self, name):
        with pytest.raises(CapacityError) as excinfo:
            ROUTED[name](family(BRIDGE_PATHS, BRIDGE_N), max_r=2, max_n=2)
        assert str(excinfo.value) == "family size 4 exceeds max_r=2 and n=5 exceeds max_n=2"

    def test_formation_balance_dense_route_matches_the_kernel(self, monkeypatch):
        import structfn.transform

        paths = family(BRIDGE_PATHS, BRIDGE_N)
        kernel = [formation_balance(paths, mask) for mask in range(1 << BRIDGE_N)]
        dense = []
        mobius = structfn.transform.mobius_transform
        monkeypatch.setattr(
            "structfn.transform.mobius_transform", lambda table: dense.append(1) or mobius(table)
        )
        assert [formation_balance(paths, m, max_r=1) for m in range(1 << BRIDGE_N)] == kernel
        assert dense  # targets holding two or more members took the dense route

    def test_formation_balance_caps_only_members_inside_target(self):
        paths = family(BRIDGE_PATHS, BRIDGE_N)
        target = SubsetMask.from_components((1, 3, 4, 5), n=5)  # holds {1,4} and {1,3,5}
        expected = formation_balance(paths, target)
        assert formation_balance(paths, target, max_r=2, max_n=2) == expected
        with pytest.raises(CapacityError) as excinfo:
            formation_balance(paths, target, max_r=1, max_n=2)
        assert str(excinfo.value) == "family size 4 exceeds max_r=1 and n=5 exceeds max_n=2"

    @pytest.mark.parametrize(
        ("call", "message"),
        [
            (simple_form_from_paths, "at least one path set required"),
            (dual_simple_form_from_cuts, "at least one cut set required"),
        ],
    )
    def test_empty_family(self, call, message):
        with pytest.raises(ValueError) as excinfo:
            call(SetFamily(n=2, members=()))
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "call",
        [
            simple_form_from_paths,
            dual_simple_form_from_cuts,
            formation_balance,
            diagonal_from_paths,
            cuts_from_paths,
            signature_from_paths,
        ],
    )
    def test_non_minimal_warning_names_the_function_at_the_callers_line(self, call):
        redundant = family([(1,), (1, 2)], 2)
        args = (redundant, 0b11) if call is formation_balance else (redundant,)
        with pytest.warns(NonMinimalFamilyWarning) as record:
            call(*args)
        assert str(record[0].message) == (
            f"{call.__name__} expects a minimal family; redundant supersets were dropped"
        )
        assert record[0].filename == __file__
