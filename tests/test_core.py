"""Domain types, semicoherence validation, and the zeta/Mobius pair."""

import functools
import random
import time

import numpy as np
import pytest

from conftest import (
    BRIDGE_N,
    BRIDGE_PATHS,
    LATTICE_N20_PATHS,
    LATTICE_N22_PATHS,
    LATTICE_N24_PATHS,
    coproduct_table,
    family,
)

from structfn import (
    CapacityError,
    DiagonalPoly,
    MultilinearForm,
    NotStructureFunctionError,
    SetFamily,
    SubsetMask,
    TruthTable,
    dualize_table,
    mobius_transform,
    table_from_paths,
    validate_semicoherent,
    zeta_transform,
)
from structfn.core import (
    _component_patterns,
    _dense_mobius,
    _join_chunks,
    _mask_labels,
    _minimal_true_chunks,
    _mobius_budget,
    _reverse_bits,
    _set_str,
    _size_patterns,
    _subset_sort_key,
    _subtable_mobius,
    _true_count_by_size,
)
from structfn.oracle import enumerate_semicoherent, oracle_simple_form

# The bridge simple form: +1 on each minimal path set, -1 on the five
# four-element subsets, +2 on the full set.
BRIDGE_FORM_TERMS = (
    ((1, 4), 1),
    ((2, 5), 1),
    ((1, 3, 5), 1),
    ((2, 3, 4), 1),
    ((1, 2, 3, 4), -1),
    ((1, 2, 3, 5), -1),
    ((1, 2, 4, 5), -1),
    ((1, 3, 4, 5), -1),
    ((2, 3, 4, 5), -1),
    ((1, 2, 3, 4, 5), 2),
)


class TestSubsetMask:
    def test_round_trip(self):
        mask = SubsetMask.from_components((1, 3, 5), n=5)
        assert mask.bits == 0b10101
        assert mask.components() == (1, 3, 5)
        assert mask.size == 3
        assert str(mask) == "{1,3,5}"

    def test_component_out_of_range(self):
        with pytest.raises(ValueError, match="outside 1..4"):
            SubsetMask.from_components((5,), n=4)

    def test_duplicate_component(self):
        with pytest.raises(ValueError, match="listed twice"):
            SubsetMask.from_components((2, 2), n=4)

    def test_component_cap(self):
        with pytest.raises(CapacityError):
            SubsetMask(bits=0, n=25)

    def test_bits_above_n(self):
        with pytest.raises(ValueError):
            SubsetMask(bits=0b100, n=2)

    def test_complement_and_subset(self):
        mask = SubsetMask.from_components((1, 2), n=4)
        assert mask.complement().components() == (3, 4)
        assert mask.issubset(SubsetMask.from_components((1, 2, 3), n=4))
        assert not SubsetMask.from_components((1, 2, 3), n=4).issubset(mask)


class TestTruthTable:
    def test_from_string(self):
        t = TruthTable.from_values("0111")
        assert t.n == 2
        assert [t.phi(m) for m in range(4)] == [0, 1, 1, 1]
        assert t.values_string() == "0111"

    def test_from_ints(self):
        t = TruthTable.from_values([0, 0, 0, 1], n=2)
        assert t.phi(SubsetMask.from_components((1, 2), n=2)) == 1
        assert t.phi(0b01) == 0

    def test_bad_character(self):
        with pytest.raises(ValueError, match="position 2"):
            TruthTable.from_values("01x1")

    def test_wrong_length(self):
        with pytest.raises(ValueError, match="expected 8 values"):
            TruthTable.from_values("0101", n=3)

    def test_empty_values(self):
        with pytest.raises(ValueError, match=r"^a table needs 2\^n values for some n >= 1"):
            TruthTable.from_values("")

    def test_phi_out_of_range(self):
        t = TruthTable.from_values("0111")
        with pytest.raises(ValueError):
            t.phi(4)


class TestFromValuesMessages:
    """Each message of TruthTable.from_values, in the order the checks run."""

    @pytest.mark.parametrize(
        "values, n, message",
        [
            ("01x1", None, "table character 'x' at position 2 is not 0 or 1"),
            ("0 1", 3, "table character ' ' at position 1 is not 0 or 1"),
            ("0\u0661", None, "table character '\u0661' at position 1 is not 0 or 1"),
            pytest.param(
                [0, 1, 2, 1], None, "table value 2 at position 2 is not 0 or 1", id="list-2"
            ),
            pytest.param(
                [0, -1, 1], 4, "table value -1 at position 1 is not 0 or 1", id="list-minus-1"
            ),
            pytest.param(
                [True, 7], None, "table value 7 at position 1 is not 0 or 1", id="list-bool-7"
            ),
            ("", None, "a table needs 2^n values for some n >= 1, got none"),
            pytest.param(
                [], None, "a table needs 2^n values for some n >= 1, got none", id="list-empty"
            ),
            ("0101", 3, "expected 8 values for n=3, got 4"),
            ("011", None, "expected 2 values for n=1, got 3"),
            pytest.param(
                [0, 0, 0, 1, 1], None, "expected 4 values for n=2, got 5", id="list-length-5"
            ),
            ("", 2, "expected 4 values for n=2, got 0"),
            # bytes() takes 255, so only the 0/1 check rejects it.
            pytest.param(
                [0, 255], None, "table value 255 at position 1 is not 0 or 1", id="list-255"
            ),
        ],
    )
    def test_message(self, values, n, message):
        with pytest.raises(ValueError) as excinfo:
            TruthTable.from_values(values, n=n)
        assert str(excinfo.value) == message

    def test_iterables_of_every_kind(self):
        expected = TruthTable(n=2, bits=0b1110)
        assert TruthTable.from_values(iter([0, 1, 1, 1])) == expected
        assert TruthTable.from_values((False, True, True, True), n=2) == expected
        assert TruthTable.from_values(range(2), n=1) == TruthTable(n=1, bits=0b10)
        assert TruthTable.from_values([np.int64(v) for v in (0, 1, 1, 1)]) == expected


class TestFromValuesScale:
    def test_n20_string_parses_in_linear_time(self):
        table = table_from_paths(family(LATTICE_N20_PATHS, 20))
        text = table.values_string()
        start = time.perf_counter()
        parsed = TruthTable.from_values(text)
        elapsed = time.perf_counter() - start
        assert parsed == table
        # A shift per true entry took about 7 s at n = 20; the linear parse takes ms.
        assert elapsed < 2.0

    def test_n16_iterable_matches_the_string(self):
        rng = random.Random(16)
        text = "".join(rng.choice("01") for _ in range(1 << 16))
        assert TruthTable.from_values([int(ch) for ch in text]) == TruthTable.from_values(text)
        assert TruthTable.from_values(text).values_string() == text


def reference_iter_bit_positions(bits):
    """The ascending bit walk the byte-table labels replaced."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def reference_sort_key(mask):
    """The tuple key the packed mirror key replaced."""
    return (mask.bit_count(), tuple(reference_iter_bit_positions(mask)))


def reference_components(bits):
    return tuple(i + 1 for i in reference_iter_bit_positions(bits))


def random_24_bit_masks():
    rng = random.Random(24)
    return [rng.getrandbits(24) for _ in range(50_000)] + [0, 1, 1 << 23, (1 << 24) - 1]


class TestCanonicalOrder:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_sort_key_matches_reference_on_all_masks(self, n):
        masks = list(range(1 << n))
        random.Random(n).shuffle(masks)
        assert sorted(masks, key=_subset_sort_key) == sorted(masks, key=reference_sort_key)

    def test_sort_key_matches_reference_on_random_24_bit_masks(self):
        masks = random_24_bit_masks()
        assert sorted(masks, key=_subset_sort_key) == sorted(masks, key=reference_sort_key)

    def test_components_match_reference_below_2_16(self):
        for m in range(1 << 16):
            assert SubsetMask(bits=m, n=16).components() == reference_components(m)

    def test_components_match_reference_on_random_24_bit_masks(self):
        for m in random_24_bit_masks():
            assert SubsetMask(bits=m, n=24).components() == reference_components(m)
            assert _mask_labels(m) == reference_components(m)


class TestSetFamily:
    def test_canonical_order(self):
        fam = family(BRIDGE_PATHS, BRIDGE_N)
        assert str(fam) == "{1,4}, {2,5}, {1,3,5}, {2,3,4}"

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            family([(1, 2), (2, 1)], 3)

    def test_rejects_empty_member(self):
        with pytest.raises(ValueError, match="nonempty"):
            family([()], 3)

    def test_antichain_and_minimized(self):
        fam = family([(1,), (1, 2), (2, 3)], 3)
        assert not fam.is_antichain()
        assert str(fam.minimized()) == "{1}, {2,3}"
        minimal = fam.minimized()
        assert minimal.is_antichain()
        assert minimal.minimized() is minimal

    def test_size_census(self):
        assert family(BRIDGE_PATHS, BRIDGE_N).size_census() == (0, 2, 2, 0, 0)


class TestMultilinearForm:
    def test_zero_coefficients_dropped(self):
        form = MultilinearForm(n=2, coeffs={0b01: 1, 0b10: 0})
        assert form.coeffs == {0b01: 1}

    def test_from_terms_duplicate(self):
        with pytest.raises(ValueError, match="twice"):
            MultilinearForm.from_terms([((1,), 1), ((1,), 2)], n=2)

    def test_terms_sorted_by_size_then_components(self):
        form = MultilinearForm.from_terms(BRIDGE_FORM_TERMS, n=5)
        listed = [(m.components(), c) for m, c in form.terms()]
        assert listed[:4] == [((1, 4), 1), ((2, 5), 1), ((1, 3, 5), 1), ((2, 3, 4), 1)]
        assert listed[-1] == ((1, 2, 3, 4, 5), 2)

    def test_total_is_full_set_value(self):
        form = MultilinearForm.from_terms(BRIDGE_FORM_TERMS, n=5)
        assert form.total() == 1


class TestDiagonalPoly:
    def test_total_is_the_value_at_one(self):
        diag = DiagonalPoly(n=5, d=(0, 2, 2, -5, 2))  # the bridge's diagonal
        assert diag.total() == 1 == diag.evaluate(1)


class TestConstructorMessages:
    """Each public constructor and mask check rejects bad input with its own message."""

    CASES = {
        "table_too_wide": (
            lambda: TruthTable(n=2, bits=16),
            ValueError,
            "table for n=2 must fit in 4 entries",
        ),
        "form_key_out_of_range": (
            lambda: MultilinearForm(n=2, coeffs={4: 1}),
            ValueError,
            "coefficient key 4 out of range for 2 components",
        ),
        "family_member_not_a_mask": (
            lambda: SetFamily(n=2, members=(1,)),
            TypeError,
            "family members must be SubsetMask, got int",
        ),
        "family_member_over_other_n": (
            lambda: SetFamily(n=2, members=(SubsetMask(bits=0b101, n=3),)),
            ValueError,
            "member {1,3} is over 3 components, expected 2",
        ),
        "diagonal_length": (
            lambda: DiagonalPoly(n=3, d=(1, 0)),
            ValueError,
            "expected 3 coefficients, got 2",
        ),
        "phi_of_a_mask_over_other_n": (
            lambda: TruthTable.from_values("0111").phi(SubsetMask(bits=1, n=3)),
            ValueError,
            "subset is over 3 components, expected 2",
        ),
        "coefficient_of_a_mask_over_other_n": (
            lambda: MultilinearForm(n=3, coeffs={1: 1}).coefficient(SubsetMask(bits=1, n=2)),
            ValueError,
            "subset is over 2 components, expected 3",
        ),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_message(self, case):
        build, error, message = self.CASES[case]
        with pytest.raises(error) as excinfo:
            build()
        assert type(excinfo.value) is error
        assert str(excinfo.value) == message


def downward_violations(table):
    """The messages of validate_semicoherent as computed by shifting the table
    down instead: per component, the true subsets lacking it whose superset
    with it is false, masked by a complement pattern rebuilt each time."""
    n, bits = table.n, table.bits
    total = 1 << n
    violations = []
    if bits & 1:
        violations.append("phi({}) = 1, expected 0")
    if not bits >> (total - 1) & 1:
        violations.append(f"phi({_set_str(total - 1)}) = 0, expected 1")
    full = (1 << total) - 1
    for i, pattern in enumerate(_component_patterns()[:n]):
        step = 1 << i
        bad = bits & ~(bits >> step) & full & ~pattern
        if bad:
            m = (bad & -bad).bit_length() - 1
            violations.append(
                f"monotonicity violated: phi({_set_str(m)}) = 1 > 0 = phi({_set_str(m | step)})"
            )
    return tuple(violations)


class TestValidateSemicoherent:
    def test_bridge_ok(self):
        table = table_from_paths(family(BRIDGE_PATHS, BRIDGE_N))
        report = validate_semicoherent(table)
        assert report.ok
        assert report.violations == ()

    def test_constant_zero_flagged(self):
        report = validate_semicoherent(TruthTable(n=3, bits=0))
        assert not report.ok
        assert any("expected 1" in v for v in report.violations)

    def test_nonzero_on_empty_flagged(self):
        report = validate_semicoherent(TruthTable(n=2, bits=0b1111))
        assert not report.ok
        assert any("phi({}) = 1" in v for v in report.violations)

    def test_monotonicity_names_the_pair(self):
        # phi({1}) = 1 but phi({1,2}) = 0
        report = validate_semicoherent(TruthTable.from_values("0110"))
        assert not report.ok
        assert any("phi({1}) = 1 > 0 = phi({1,2})" in v for v in report.violations)

    def test_messages_match_the_downward_shift_on_every_small_table(self):
        for n in range(1, 5):
            for bits in range(1 << (1 << n)):
                table = TruthTable(n=n, bits=bits)
                assert validate_semicoherent(table).violations == downward_violations(table)

    def test_messages_match_the_downward_shift_on_random_tables(self):
        rng = random.Random(17)
        for n in range(5, 11):
            total = 1 << n
            for _ in range(40):
                # Uniform tables fail in every direction; an up-set with a few
                # flipped entries fails in only some, at scattered pairs.
                members = [rng.randrange(1, total) for _ in range(rng.randint(1, 6))]
                up_set = sum(1 << a for a in range(total) if any(m & ~a == 0 for m in members))
                flipped = {rng.randrange(total) for _ in range(rng.randint(1, 3))}
                flips = sum(1 << a for a in flipped)
                for bits in (rng.getrandbits(total), up_set ^ flips):
                    table = TruthTable(n=n, bits=bits)
                    assert validate_semicoherent(table).violations == downward_violations(table)


class TestZetaTransform:
    def test_adjacent_pairs_form(self):
        form = MultilinearForm.from_terms(
            [((1, 2), 1), ((2, 3), 1), ((3, 4), 1), ((1, 2, 3), -1), ((2, 3, 4), -1)], n=4
        )
        table = zeta_transform(form)
        assert table.phi(SubsetMask.from_components((1, 2), n=4)) == 1
        assert table.phi(SubsetMask.from_components((1, 3), n=4)) == 0
        assert table.phi(0b1111) == 1

    def test_zero_form_gives_zero_table(self):
        table = zeta_transform(MultilinearForm(n=3, coeffs={}))
        assert table.bits == 0
        assert not validate_semicoherent(table).ok

    def test_bridge_form_reproduces_coproduct_table(self):
        form = MultilinearForm.from_terms(BRIDGE_FORM_TERMS, n=5)
        assert zeta_transform(form) == coproduct_table(BRIDGE_PATHS, BRIDGE_N)

    def test_rejects_non_indicator_sums(self):
        with pytest.raises(NotStructureFunctionError, match=r"value 2 at subset \{1\}"):
            zeta_transform(MultilinearForm(n=2, coeffs={0b01: 2}))

    def test_max_n_override(self):
        with pytest.raises(CapacityError):
            zeta_transform(MultilinearForm(n=3, coeffs={}), max_n=2)

    @pytest.mark.parametrize(
        ("n", "coeffs", "message"),
        [
            (2, {0b01: 1 << 62}, f"value {1 << 62} at subset {{1}} is not in {{0, 1}}"),
            (2, {0b10: -(1 << 70)}, f"value {-(1 << 70)} at subset {{2}} is not in {{0, 1}}"),
            # The smallest key is fine; {2} is the first subset whose sum leaves {0, 1}.
            (
                3,
                {0b001: 1, 0b010: 1 << 62, 0b110: -(1 << 62)},
                f"value {1 << 62} at subset {{2}} is not in {{0, 1}}",
            ),
        ],
        ids=["plus-2^62", "minus-2^70", "cancelling-2^62"],
    )
    def test_rejects_magnitudes_beyond_int64(self, n, coeffs, message):
        # Magnitudes summing to 2^62 or more take the Python-integer pass.
        with pytest.raises(NotStructureFunctionError) as excinfo:
            zeta_transform(MultilinearForm(n=n, coeffs=coeffs))
        assert str(excinfo.value) == message


class TestMobiusTransform:
    def test_bridge_table_gives_bridge_form(self):
        table = table_from_paths(family(BRIDGE_PATHS, BRIDGE_N))
        assert mobius_transform(table) == MultilinearForm.from_terms(BRIDGE_FORM_TERMS, n=5)

    def test_single_component(self):
        assert mobius_transform(TruthTable.from_values("01")).coeffs == {0b1: 1}

    def test_round_trip_all_three_component_systems(self):
        for table in enumerate_semicoherent(3):
            assert zeta_transform(mobius_transform(table)) == table

    def test_round_trip_arbitrary_tables(self):
        # Round trips hold for any 0/1 table, semicoherent or not.
        for bits in (0b0110, 0b1001, 0b0000, 0b1111, 0b1010):
            table = TruthTable(n=2, bits=bits)
            form = mobius_transform(table)
            values = [
                sum(c for mask, c in form.coeffs.items() if mask & ~m == 0)
                for m in range(4)
            ]
            assert values == [table.phi(m) for m in range(4)]

    def test_parity_table_reaches_the_coefficient_bound(self):
        # phi(A) = |A| mod 2 gives c(A) = (-1)^(|A|+1) * 2^(|A|-1), the largest
        # magnitudes any 0/1 table produces.
        n = 16
        bits = sum(1 << m for m in range(1 << n) if m.bit_count() & 1)
        table = TruthTable(n=n, bits=bits)
        form = mobius_transform(table)
        expected = {
            m: (-1) ** (m.bit_count() + 1) * 2 ** (m.bit_count() - 1) for m in range(1, 1 << n)
        }
        assert form.coeffs == expected
        assert zeta_transform(form) == table


def values_table(values, n):
    """The table of a boolean numpy array, bit m from entry m."""
    return TruthTable(n, int.from_bytes(np.packbits(values, bitorder="little").tobytes(), "little"))


def subset_sizes(n):
    """Entry m is the number of components in mask m."""
    idx = np.arange(1 << n)
    return sum(idx >> i & 1 for i in range(n))


def table_values(table):
    """The 2^n values of a table as an int64 numpy array, entry m holding bit m."""
    return np.frombuffer(table.values_string().encode(), dtype=np.uint8).astype(np.int64) - 48


def reference_mobius(table):
    """coeff(A) by one plain int64 pass per component over the whole table."""
    arr = table_values(table)
    for i in range(table.n):
        view = arr.reshape(-1, 2 << i)
        view[:, 1 << i :] -= view[:, : 1 << i]
    nonzero = np.flatnonzero(arr)
    return dict(zip(nonzero.tolist(), arr[nonzero].tolist()))


def parity_table(n, odd):
    """phi(A) = 1 when |A| is odd (odd=True) or even (odd=False)."""
    return values_table(subset_sizes(n) % 2 == odd, n)


class TestMobiusWidths:
    """The dense pass runs in int8 through 7 components, int16 through 15 and
    int32 after that; every stage must agree with a plain int64 pass. The
    dense helper is called directly, since the subtable walk answers first
    within its budget."""

    @pytest.mark.parametrize("n", range(1, 19))
    def test_random_tables_match_the_int64_pass(self, n):
        rng = random.Random(4000 + n)
        for _ in range(3 if n <= 16 else 1):
            table = TruthTable(n=n, bits=rng.getrandbits(1 << n))
            coeffs = _dense_mobius(table.bits, n)
            assert coeffs == reference_mobius(table)
            assert list(coeffs) == sorted(coeffs)

    @pytest.mark.parametrize("n", [7, 8, 15, 16])
    @pytest.mark.parametrize("odd", [True, False], ids=["odd", "even"])
    def test_parity_reaches_each_width_bound(self, n, odd):
        # Odd parity has c(A) = (-1)^(|A|+1) * 2^(|A|-1) and even parity its
        # negation plus c({}) = 1, so the full set reaches +-2^(n-1): +64
        # and -64 in int8 at n = 7, +-128 past it at n = 8, +-2^14 in int16
        # at n = 15 and +-2^15 past it at n = 16.
        table = parity_table(n, odd)
        coeffs = _dense_mobius(table.bits, n)
        top = 1 << (n - 1)
        assert coeffs[(1 << n) - 1] == (top if (n % 2) == odd else -top)
        assert coeffs == reference_mobius(table)


class TestSubtableMobius:
    """The subtable walk against the dense passes and the oracle: equal
    coefficients in ascending mask order, within the work bound n * 2^n."""

    def assert_routes_agree(self, table, oracle=True):
        walked, work = _subtable_mobius(table.bits, table.n, 1 << 62)
        dense = _dense_mobius(table.bits, table.n)
        assert walked == dense
        assert list(walked) == sorted(walked)
        assert work <= table.n << table.n
        if oracle:
            assert walked == oracle_simple_form(table).coeffs
        return work

    def test_every_table_up_to_three_components(self):
        for n in range(1, 4):
            for bits in range(1 << (1 << n)):
                self.assert_routes_agree(TruthTable(n=n, bits=bits))

    def test_every_monotone_table_of_four_components(self):
        tables = [TruthTable(4, 0), TruthTable(4, (1 << 16) - 1), *enumerate_semicoherent(4)]
        assert len(tables) == 168  # the Dedekind number M(4)
        for table in tables:
            self.assert_routes_agree(table)

    @pytest.mark.parametrize("n", range(4, 13))
    def test_seeded_random_tables(self, n):
        rng = random.Random(3900 + n)
        for _ in range(6):
            self.assert_routes_agree(TruthTable(n, rng.getrandbits(1 << n)), oracle=n <= 8)
            paths = [rng.getrandbits(n) | 1 << rng.randrange(n) for _ in range(rng.randint(1, 12))]
            monotone = table_from_paths(SetFamily(n, tuple(SubsetMask(m, n) for m in set(paths))))
            self.assert_routes_agree(monotone, oracle=n <= 8)

    @pytest.mark.parametrize(
        "n, paths", [(20, LATTICE_N20_PATHS), (22, LATTICE_N22_PATHS), (24, LATTICE_N24_PATHS)]
    )
    @pytest.mark.parametrize("dual", [False, True], ids=["primal", "dual"])
    def test_lattice_shapes_stay_within_the_budget(self, n, paths, dual):
        table = table_from_paths(family(paths, n))
        table = dualize_table(table) if dual else table
        assert self.assert_routes_agree(table, oracle=False) <= _mobius_budget(n)
        form = mobius_transform(table)
        assert form.coeffs == _dense_mobius(table.bits, n)
        assert list(form.coeffs) == sorted(form.coeffs)

    def test_budget_boundary(self, monkeypatch):
        import structfn.core

        table = dualize_table(table_from_paths(family(LATTICE_N20_PATHS, 20)))
        dense = _dense_mobius(table.bits, 20)
        _, needed = _subtable_mobius(table.bits, 20, 1 << 62)
        assert _subtable_mobius(table.bits, 20, needed) == (dense, needed)
        assert _subtable_mobius(table.bits, 20, needed - 1)[0] is None
        routes = []
        dense_route = structfn.core._dense_mobius

        def recorded(bits, n):
            routes.append(n)
            return dense_route(bits, n)

        monkeypatch.setattr(structfn.core, "_dense_mobius", recorded)
        forms = []
        for budget in (needed, needed - 1):
            monkeypatch.setattr(structfn.core, "_mobius_budget", lambda n, b=budget: b)
            forms.append(mobius_transform(table))
        assert routes == [20]  # only the tripped budget ran the dense passes
        assert forms[0] == forms[1] and forms[0].coeffs == dense
        assert list(forms[0].coeffs) == list(forms[1].coeffs) == sorted(dense)

    def test_small_tables_never_reach_the_budget(self):
        # The walk's work is at most n * 2^n, within the floor through n = 14.
        assert all(n << n <= _mobius_budget(n) for n in range(1, 15))
        assert 15 << 15 > _mobius_budget(15)
        assert _mobius_budget(23) == 1 << 18 and _mobius_budget(24) == 1 << 19


def reference_up_set(masks, n):
    """Table values: entry A is 1 when A contains some mask."""
    idx = np.arange(1 << n)
    values = np.zeros(1 << n, dtype=bool)
    for m in masks:
        values |= idx & m == m
    return values


def reference_minimal(values, n):
    """True entries none of whose one-smaller subsets is true."""
    idx = np.arange(1 << n)
    minimal = values.copy()
    for i in range(n):
        has = idx >> i & 1 == 1
        minimal[has] &= ~values[idx[has] ^ 1 << i]
    return minimal


def reference_violations(values, n):
    """validate_semicoherent's messages, by scanning each direction for its
    lowest superset that is false while its subset without the component is true."""
    idx = np.arange(1 << n)
    messages = []
    if values[0]:
        messages.append("phi({}) = 1, expected 0")
    if not values[-1]:
        messages.append(f"phi({_set_str((1 << n) - 1)}) = 0, expected 1")
    for i in range(n):
        supersets = idx[idx >> i & 1 == 1]
        bad = supersets[values[supersets ^ 1 << i] & ~values[supersets]]
        if bad.size:
            m = int(bad[0])
            messages.append(
                f"monotonicity violated: phi({_set_str(m ^ 1 << i)}) = 1 > 0 = phi({_set_str(m)})"
            )
    return tuple(messages)


def bit(*components):
    return sum(1 << (c - 1) for c in components)


@functools.lru_cache(maxsize=None)
def flipped_up_sets(n):
    """(description, values) pairs: seeded up-sets with a few entries flipped,
    and up-sets broken at chosen pairs across and inside chunks of 2^16 entries."""
    rng = random.Random(100 + n)
    cases = []
    for trial in range(3):
        masks = [rng.getrandbits(n) | 1 << rng.randrange(n) for _ in range(rng.randint(2, 6))]
        values = reference_up_set(masks, n)
        cases.append((f"up-set {trial}", values.copy()))
        for a in rng.sample(range(1 << n), 3):
            values[a] = not values[a]
        cases.append((f"flipped up-set {trial}", values))
    cases.append(("random", np.random.default_rng(n).random(1 << n) < 0.5))
    if n >= 17:
        # Only {1} -> {1,17} breaks: a violation along component 17 alone.
        values = reference_up_set([bit(1)], n)
        values[bit(1, 17)] = False
        cases.append(("component 17 only", values))
        # Only {1,17} -> {1,2,17} breaks: the lowest offending subset lies in
        # the second chunk, along a component that acts inside chunks.
        values = reference_up_set([bit(1, 17)], n)
        values[bit(1, 2, 17)] = False
        cases.append(("second chunk only", values))
    if n >= 18:
        # {3,17,18} -> {2,3,17,18} in the last chunk, and {2,17} -> {2,17,18}
        # along component 18.
        values = reference_up_set([bit(3, 17, 18), bit(2, 17)], n)
        values[bit(2, 3, 17, 18)] = False
        values[bit(2, 17, 18)] = False
        cases.append(("last chunk and component 18", values))
    return tuple(cases)


class TestChunkEdges:
    """Table passes split a table into chunks of 2^16 entries; at n = 15..18
    they must agree with brute force on either side of that edge."""

    @pytest.mark.parametrize("n", [15, 16, 17, 18])
    def test_table_from_paths(self, n):
        rng = random.Random(200 + n)
        for _ in range(4):
            masks = [rng.getrandbits(n) | 1 for _ in range(rng.randint(1, 8))]
            paths = SetFamily(n, tuple(SubsetMask(m, n) for m in set(masks)))
            assert table_from_paths(paths) == values_table(reference_up_set(masks, n), n)

    @pytest.mark.parametrize("n", [15, 16, 17, 18])
    def test_minimal_true_bits(self, n):
        for name, values in flipped_up_sets(n):
            table = values_table(values, n)
            expected = values_table(reference_minimal(values, n), n)
            assert _join_chunks(_minimal_true_chunks(table.bits, n), n) == expected.bits, name

    @pytest.mark.parametrize("n", [15, 16, 17, 18])
    def test_true_count_by_size(self, n):
        sizes = subset_sizes(n)
        for name, values in flipped_up_sets(n):
            expected = tuple(np.bincount(sizes[values], minlength=n + 1).tolist())
            assert _true_count_by_size(values_table(values, n)) == expected, name

    @pytest.mark.parametrize("n", [15, 16, 17, 18])
    def test_validation_messages(self, n):
        for name, values in flipped_up_sets(n):
            report = validate_semicoherent(values_table(values, n))
            assert report.violations == reference_violations(values, n), name

    def test_named_violations(self):
        values = reference_up_set([bit(1, 17)], 18)
        values[bit(1, 2, 17)] = False
        assert validate_semicoherent(values_table(values, 18)).violations == (
            "monotonicity violated: phi({1,17}) = 1 > 0 = phi({1,2,17})",
        )
        values = reference_up_set([bit(1)], 17)
        values[bit(1, 17)] = False
        assert validate_semicoherent(values_table(values, 17)).violations == (
            "monotonicity violated: phi({1}) = 1 > 0 = phi({1,17})",
        )

    def test_patterns_stay_within_one_chunk(self, monkeypatch):
        import structfn.core

        asked = []
        for name in ("_component_patterns", "_size_patterns"):
            original = getattr(structfn.core, name)

            def recorded(original=original, name=name):
                asked.append(name)
                return original()

            monkeypatch.setattr(f"structfn.core.{name}", recorded)
        table = table_from_paths(family(LATTICE_N20_PATHS, 20))
        _minimal_true_chunks(table.bits, 20)
        _true_count_by_size(table)
        assert validate_semicoherent(table).ok
        assert validate_semicoherent(TruthTable(n=20, bits=1)).violations[0] == (
            "phi({}) = 1, expected 0"
        )
        assert set(asked) == {"_component_patterns", "_size_patterns"}
        # The table passes of a 20-component table read one chunk's patterns.
        assert len(_component_patterns()) == 16
        assert len(_size_patterns()) == 17
        for pattern in _component_patterns() + _size_patterns():
            assert pattern.bit_length() <= 1 << 16


def low_bits(bits: int, width: int) -> list[bool]:
    """Whether each of the ``width`` lowest bits is set, lowest first."""
    return [c == "1" for c in reversed(format(bits & ((1 << width) - 1), f"0{width}b"))]


class TestBitHelpers:
    @pytest.mark.parametrize("width", [2, 4, 8, 16, 32, 64])
    def test_reverse_bits_matches_brute_force(self, width):
        bits = 0
        for m in range(width):
            if (m * 2654435761) % 3 == 0:
                bits |= 1 << m
        expected = 0
        for m in range(width):
            if bits >> m & 1:
                expected |= 1 << (width - 1 - m)
        assert _reverse_bits(bits, width) == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 16])
    def test_size_patterns(self, n):
        """The first n + 1 patterns, read over the first 2^n positions, are
        the size patterns of an n-component table."""
        patterns = _size_patterns()[: n + 1]
        assert len(patterns) == n + 1
        for k, pattern in enumerate(patterns):
            assert low_bits(pattern, 1 << n) == [bin(m).count("1") == k for m in range(1 << n)]

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 16])
    def test_component_patterns(self, n):
        patterns = _component_patterns()[:n]
        assert len(patterns) == n
        for i, pattern in enumerate(patterns):
            assert low_bits(pattern, 1 << n) == [m >> i & 1 == 1 for m in range(1 << n)]
