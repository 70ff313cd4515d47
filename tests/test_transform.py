"""Representation conversions: dual, families, expansions, extraction."""

import random
from fractions import Fraction

import pytest

from conftest import (
    ADJACENT_PAIRS,
    ADJACENT_PAIRS_N,
    BRIDGE_N,
    BRIDGE_PATHS,
    LATTICE_N20_PATHS,
    coproduct_table,
    cut_product_table,
    family,
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
    diagonal_from_paths,
    dual_simple_form_from_cuts,
    dualize_table,
    evaluate_inclusion_exclusion,
    formation_balance,
    minimal_cut_sets,
    minimal_path_sets,
    mobius_transform,
    paths_from_simple_form,
    signature_from_paths,
    simple_form_from_paths,
    table_from_cuts,
    table_from_paths,
)
from structfn.core import _iter_bit_positions
from structfn.oracle import (
    enumerate_semicoherent,
    oracle_dual_table,
    oracle_formations,
    oracle_minimal_cut_sets,
    oracle_minimal_path_sets,
)
from structfn.transform import _formation_signs, _table_bit_positions

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

    def test_fallback_route_above_max_r(self):
        paths = family(BRIDGE_PATHS, BRIDGE_N)
        assert simple_form_from_paths(paths, max_r=2) == simple_form_from_paths(paths)

    def test_capacity_error_when_both_caps_exceeded(self):
        with pytest.raises(CapacityError):
            simple_form_from_paths(family(BRIDGE_PATHS, BRIDGE_N), max_r=2, max_n=2)

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

    def test_member_order_does_not_matter(self):
        masks = family(LATTICE_N20_PATHS, 20).masks()
        assert _formation_signs(masks[::-1]) == _formation_signs(masks)

    def test_balances_match_the_walk_on_every_union(self):
        paths = family(LATTICE_N20_PATHS, 20)
        walk = walk_formation_signs(paths.masks())
        for union, count in walk.items():
            assert formation_balance(paths, union) == count


class TestPathsFromSimpleForm:
    def test_bridge_recovery(self):
        paths = paths_from_simple_form(mobius_transform(bridge_table()))
        assert paths == family(BRIDGE_PATHS, BRIDGE_N)

    def test_single_variable(self):
        assert str(paths_from_simple_form(MultilinearForm(n=1, coeffs={0b1: 1}))) == "{1}"

    def test_rejects_minimal_coefficient_not_one(self):
        with pytest.raises(InconsistentFormError, match=r"\{1\} has coefficient 2"):
            paths_from_simple_form(MultilinearForm(n=2, coeffs={0b01: 2}))

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
