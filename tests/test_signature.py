"""Signature vectors and the small-set counting identities."""

import random
from fractions import Fraction
from math import comb

import pytest

from conftest import (
    ADJACENT_PAIRS,
    ADJACENT_PAIRS_N,
    BRIDGE_N,
    BRIDGE_PATHS,
    DISJOINT_PAIRS,
    OVERLAP_PAIRS,
    PAIRS_N,
    family,
    greedy_antichain,
    k_of_n_table,
)

from structfn import (
    DiagonalPoly,
    InconsistentFormError,
    InvalidSignatureError,
    SignatureVector,
    coefficients_from_signature,
    diagonal_coefficients,
    diagonal_from_paths,
    dual_signature,
    dualize_table,
    mobius_transform,
    signature_boland,
    signature_from_diagonal,
    signature_from_paths,
    small_counts_from_coefficients,
    small_counts_from_signature,
    table_from_paths,
)

F = Fraction


def sig(*values):
    return tuple(F(v) for v in values)


def bridge_table():
    return table_from_paths(family(BRIDGE_PATHS, BRIDGE_N))


class TestBolandRoute:
    def test_bridge(self):
        assert signature_boland(bridge_table()).s == sig(0, F(1, 5), F(3, 5), F(1, 5), 0)

    def test_series_puts_mass_on_first_failure(self):
        assert signature_boland(k_of_n_table(3, 3)).s == sig(1, 0, 0)

    def test_parallel_puts_mass_on_last_failure(self):
        assert signature_boland(k_of_n_table(1, 3)).s == sig(0, 0, 1)

    def test_k_of_n_is_unit_vector(self):
        for n in range(1, 7):
            for k in range(1, n + 1):
                s = signature_boland(k_of_n_table(k, n)).s
                expected = tuple(F(1) if i == n - k + 1 else F(0) for i in range(1, n + 1))
                assert s == expected

    def test_overlap_pairs(self):
        table = table_from_paths(family(OVERLAP_PAIRS, PAIRS_N))
        assert signature_boland(table).s == sig(0, F(2, 3), F(1, 3), 0)

    def test_rejects_non_semicoherent(self):
        from structfn import NotSemicoherentError, TruthTable

        with pytest.raises(NotSemicoherentError):
            signature_boland(TruthTable.from_values("0110"))


def reweighted_signature(diag):
    """The former diagonal route: s_k = sum over j = 1..n-k+1 of C(n-k, j-1)/C(n, j) * d_j."""
    n = diag.n
    s = []
    for k in range(1, n + 1):
        acc = Fraction(0)
        for j in range(1, n - k + 2):
            acc += Fraction(comb(n - k, j - 1), comb(n, j)) * diag.d[j - 1]
        s.append(acc)
    return SignatureVector(n=n, s=tuple(s))


class TestDiagonalRoute:
    def test_counts_route_matches_the_reweighting(self):
        """Value for value on seeded integer diagonals, n = 1..24: those of random
        systems, and random ones, half of them summing to 1 as a system's do."""
        rng = random.Random(2001)
        valid = invalid = 0
        for n in range(1, 25):
            diagonals = [diagonal_from_paths(greedy_antichain(rng, n, 8, 1, n)) for _ in range(4)]
            for trial in range(40):
                d = [rng.randint(-comb(n, k), comb(n, k)) for k in range(1, n + 1)]
                if trial % 2:
                    d[-1] += 1 - sum(d)
                diagonals.append(DiagonalPoly(n=n, d=tuple(d)))
            for diag in diagonals:
                try:
                    expected = reweighted_signature(diag)
                except InvalidSignatureError as exc:
                    with pytest.raises(InvalidSignatureError) as excinfo:
                        signature_from_diagonal(diag)
                    assert str(excinfo.value) == str(exc)
                    invalid += 1
                else:
                    got = signature_from_diagonal(diag)
                    assert got.s == expected.s
                    assert all(type(v) is Fraction for v in got.s)
                    valid += 1
        assert valid >= 4 * 24 and invalid >= 24

    def test_agrees_with_boland_on_bridge(self):
        table = bridge_table()
        diag = diagonal_coefficients(mobius_transform(table))
        assert signature_from_diagonal(diag) == signature_boland(table)

    def test_agrees_with_boland_on_pairs_systems(self):
        for paths, n in (
            (ADJACENT_PAIRS, ADJACENT_PAIRS_N),
            (DISJOINT_PAIRS, PAIRS_N),
            (OVERLAP_PAIRS, PAIRS_N),
        ):
            table = table_from_paths(family(paths, n))
            diag = diagonal_coefficients(mobius_transform(table))
            assert signature_from_diagonal(diag) == signature_boland(table)

    def test_signature_from_paths_convenience(self):
        fam = family(BRIDGE_PATHS, BRIDGE_N)
        assert signature_from_paths(fam) == signature_boland(bridge_table())


class TestDualSignature:
    def test_is_reversal(self):
        table = bridge_table()
        s = signature_boland(table)
        assert dual_signature(s).s == tuple(reversed(s.s))

    def test_matches_signature_of_dual_table(self):
        for paths, n in (
            (BRIDGE_PATHS, BRIDGE_N),
            (ADJACENT_PAIRS, ADJACENT_PAIRS_N),
            (OVERLAP_PAIRS, PAIRS_N),
        ):
            table = table_from_paths(family(paths, n))
            assert dual_signature(signature_boland(table)) == signature_boland(
                dualize_table(table)
            )

    def test_involution(self):
        s = signature_boland(bridge_table())
        assert dual_signature(dual_signature(s)) == s


class TestCoefficientsFromSignature:
    def test_series_two(self):
        s = SignatureVector(n=2, s=sig(1, 0))
        assert coefficients_from_signature(s) == (0, 1, 2, -1)

    def test_parallel_two(self):
        s = SignatureVector(n=2, s=sig(0, 1))
        assert coefficients_from_signature(s) == (2, -1, 0, 1)

    def test_adjacent_pairs(self):
        table = table_from_paths(family(ADJACENT_PAIRS, ADJACENT_PAIRS_N))
        assert coefficients_from_signature(signature_boland(table)) == (0, 3, 0, 3)

    def test_bridge(self):
        assert coefficients_from_signature(signature_boland(bridge_table())) == (0, 2, 0, 2)

    def test_single_component(self):
        s = SignatureVector(n=1, s=sig(1))
        assert coefficients_from_signature(s) == (1, 0, 1, 0)

    def test_matches_diagonal_prefix(self):
        for paths, n in (
            (BRIDGE_PATHS, BRIDGE_N),
            (OVERLAP_PAIRS, PAIRS_N),
            (DISJOINT_PAIRS, PAIRS_N),
        ):
            table = table_from_paths(family(paths, n))
            diag = diagonal_coefficients(mobius_transform(table))
            dual_diag = diagonal_coefficients(mobius_transform(dualize_table(table)))
            d1, d2, d1_dual, d2_dual = coefficients_from_signature(signature_boland(table))
            assert (d1, d2) == (diag.d[0], diag.d[1])
            assert (d1_dual, d2_dual) == (dual_diag.d[0], dual_diag.d[1])

    def test_rejects_non_integer_counts(self):
        s = SignatureVector(n=2, s=sig(F(1, 3), F(2, 3)))
        with pytest.raises(InvalidSignatureError, match="not an integer"):
            coefficients_from_signature(s)


class TestSmallCounts:
    def test_bridge(self):
        counts = small_counts_from_signature(signature_boland(bridge_table()))
        assert counts == (0, 2, 0, 2)

    def test_overlap_pairs(self):
        table = table_from_paths(family(OVERLAP_PAIRS, PAIRS_N))
        assert small_counts_from_signature(signature_boland(table)) == (0, 2, 0, 4)

    def test_parallel_three(self):
        table = k_of_n_table(1, 3)
        assert small_counts_from_signature(signature_boland(table)) == (3, 0, 0, 0)

    def test_from_coefficients_directly(self):
        # alpha_2 folds the pair-of-singletons cancellation back in: C(2,2) + 0.
        assert small_counts_from_coefficients(2, 0, 0, 1) == (2, 1, 0, 1)

    @pytest.mark.parametrize(
        "coefficients, message",
        [
            ((-1, 0, 0, 0), "d_1 = -1, dual d_1 = 0"),
            ((2, 0, -3, 1), "d_1 = 2, dual d_1 = -3"),
        ],
        ids=["d_1", "dual_d_1"],
    )
    def test_rejects_negative_singleton_count(self, coefficients, message):
        with pytest.raises(InconsistentFormError) as excinfo:
            small_counts_from_coefficients(*coefficients)
        assert str(excinfo.value) == f"inconsistent coefficients: {message} must be nonnegative"

    def test_rejects_negative_derived_count(self):
        s = SignatureVector(n=3, s=sig(F(2, 3), 0, F(1, 3)))
        with pytest.raises(InconsistentFormError, match=r"alpha_2 = -1"):
            small_counts_from_signature(s)


class TestSignatureVectorValidation:
    def test_rejects_negative_entry(self):
        with pytest.raises(InvalidSignatureError, match="negative"):
            SignatureVector(n=2, s=sig(F(3, 2), F(-1, 2)))

    def test_rejects_bad_total(self):
        with pytest.raises(InvalidSignatureError, match="sum to"):
            SignatureVector(n=2, s=sig(F(1, 2), F(1, 4)))

    def test_rejects_length_mismatch(self):
        with pytest.raises(InvalidSignatureError, match="expected 3"):
            SignatureVector(n=3, s=sig(1, 0))

    def test_str_rendering(self):
        s = SignatureVector(n=4, s=sig(0, F(2, 3), F(1, 3), 0))
        assert str(s) == "(0, 2/3, 1/3, 0)"
