"""Reliability polynomials: evaluation routes and diagonal coefficients."""

import functools
import itertools
import math
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
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
    kernel_families,
)

from structfn import (
    R_MAX,
    CapacityError,
    MultilinearForm,
    diagonal_coefficients,
    diagonal_from_paths,
    evaluate_inclusion_exclusion,
    evaluate_reliability,
    mobius_transform,
    simple_form_from_paths,
    table_from_paths,
)
from structfn.core import _iter_bit_positions
from structfn.reliability import _common_denominator, _walk_inclusion_exclusion

HALF = Fraction(1, 2)


def bridge_form():
    return mobius_transform(table_from_paths(family(BRIDGE_PATHS, BRIDGE_N)))


def walk_inclusion_exclusion(masks, p):
    """The recursive inclusion-exclusion walk that float input no longer takes."""
    total = 0

    def walk(idx, union, size):
        nonlocal total
        if idx == len(masks):
            if size:
                term = 1 if size & 1 else -1
                for i in _iter_bit_positions(union):
                    term = term * p[i]
                total += term
            return
        walk(idx + 1, union, size)
        walk(idx + 1, union | masks[idx], size + 1)

    walk(0, 0, 0)
    return total


def loop_reliability(form, p):
    """The term loop that evaluate_reliability ran before the integer route."""
    total = 0
    for mask in sorted(form.coeffs):
        term = form.coeffs[mask]
        for i in _iter_bit_positions(mask):
            term = term * p[i]
        total += term
    return total


# Small prime denominators, and Mersenne primes above 2^64 so that no
# fixed-width shortcut can pass the exact-route checks.
SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
LARGE_PRIMES = (2**89 - 1, 2**107 - 1, 2**127 - 1)


def exact_probabilities(rng, n):
    """Seeded Fraction p: prime denominators, with 0, 1 and huge denominators mixed in."""
    p = []
    for _ in range(n):
        kind = rng.randrange(8)
        if kind == 0:
            p.append(Fraction(0))
        elif kind == 1:
            p.append(Fraction(1))
        else:
            q = rng.choice(LARGE_PRIMES if kind == 2 else SMALL_PRIMES)
            p.append(Fraction(rng.randint(1, q - 1), q))
    return p


def walk_diagonal(masks, n):
    """The recursive diagonal walk that the union-closure kernel replaced."""
    d = [0] * n

    def walk(idx, union, size):
        if idx == len(masks):
            if size:
                d[union.bit_count() - 1] += 1 if size & 1 else -1
            return
        walk(idx + 1, union, size)
        walk(idx + 1, union | masks[idx], size + 1)

    walk(0, 0, 0)
    return tuple(d)


def has_float(p):
    return any(isinstance(v, float) for v in p)


def accuracy(paths, rows):
    """Largest ulp errors of evaluate_inclusion_exclusion and of the unpruned walk.

    Over the rows of p holding a float, each value must keep the unpruned
    walk's type and lie within 2^-40 of the exact value, which the form route
    computes on the exact rationals of p.
    """
    form = simple_form_from_paths(paths)
    worst = [Fraction(0), Fraction(0)]
    for p in filter(has_float, rows):
        value = evaluate_inclusion_exclusion(paths, p)
        walked = walk_inclusion_exclusion(paths.masks(), p)
        assert type(value) is type(walked)
        exact = loop_reliability(form, [Fraction(v) for v in p])
        assert abs(Fraction(value) - exact) <= Fraction(2) ** -40
        ulp = Fraction(math.ulp(float(exact)))
        worst = [max(worst[0], abs(Fraction(value) - exact) / ulp),
                 max(worst[1], abs(Fraction(walked) - exact) / ulp)]
    return worst


def seeded_rows(kind, r):
    """The seeded family of r members on 16 components and its rows of p."""
    rng = random.Random(r if kind == "antichain" else 100 + r)
    paths = greedy_antichain(rng, 16, r, 3, 6)
    assert paths.r == r
    if kind == "antichain":
        return paths, [
            [rng.uniform(0.05, 0.95) for _ in range(16)],
            [rng.choice((-0.0, 0.0, 1.0, 5e-324, rng.random())) for _ in range(16)],
        ]
    return paths, [
        [rng.random() < 0.5 for _ in range(16)],
        [np.int64(rng.randrange(2)) for _ in range(16)],
        [np.float64(rng.uniform(0.05, 0.95)) for _ in range(16)],
        # A Fraction on the lowest component of each half, then on the highest.
        [Fraction(rng.randint(1, 6), 7) if i % 8 == 0 else rng.uniform(0.05, 0.95) for i in range(16)],
        [Fraction(rng.randint(1, 6), 7) if i % 8 == 7 else rng.uniform(0.05, 0.95) for i in range(16)],
    ]


@functools.lru_cache(maxsize=None)
def seeded_accuracy(kind, r):
    return accuracy(*seeded_rows(kind, r))


ANTICHAIN_R = (1, 13, 14, 15, 18)
PAST_ONE_BLOCK_R = (15, 16)
BRIDGE_FLOAT_ROWS = (
    np.array([0.1, 0.2, 0.3, 0.4, 0.5]),
    (0.1, Fraction(1, 5), 0.3, 0.4, 0.5),
    (0.1, 1, 0.3, 0.4, 0.5),
)
BRIDGE_OTHER_ROWS = (
    (True, False, True, True, False),
    (True, Fraction(1, 2), 1, 0, Fraction(1, 3)),
    [np.int64(1), np.int64(0), np.int64(1), np.int64(0), np.int64(1)],
    [np.int64(1), Fraction(1, 2), 1, 0, Fraction(1, 3)],
    [np.float64(0.25), np.float64(0.5), np.float64(0.75), np.float64(0.5), np.float64(1)],
    (0.1, Fraction(1, 5), 0.3, 1, 0.5),
    (0.25, 1, 0.5, 0, 0.75),
)


class TestEvaluateReliability:
    def test_bridge_at_one_half(self):
        p = (HALF,) * 5
        assert evaluate_reliability(bridge_form(), p) == HALF

    def test_series_and_parallel(self):
        series = mobius_transform(k_of_n_table(2, 2))
        parallel = mobius_transform(k_of_n_table(1, 2))
        p = (Fraction(1, 3), Fraction(1, 4))
        assert evaluate_reliability(series, p) == Fraction(1, 12)
        assert evaluate_reliability(parallel, p) == Fraction(1, 2)

    def test_float_inputs(self):
        # Pivotal decomposition on component 3, worked by hand:
        # 0.7 * (0.98 * 0.9925) + 0.3 * (1 - 0.145 * 0.32) = 0.966935.
        p = (0.9, 0.8, 0.7, 0.95, 0.85)
        value = evaluate_reliability(bridge_form(), p)
        assert value == pytest.approx(0.966935, abs=1e-12)

    def test_vertices_reproduce_truth_table(self):
        table = table_from_paths(family(OVERLAP_PAIRS, PAIRS_N))
        form = mobius_transform(table)
        for mask in range(1 << PAIRS_N):
            p = tuple(Fraction((mask >> i) & 1) for i in range(PAIRS_N))
            assert evaluate_reliability(form, p) == table.phi(mask)

    def test_plain_loop_is_bit_identical_to_the_term_loop(self):
        """Forms up to n = 24 use all three mask bytes; each p keeps the plain loop."""
        rng = random.Random(20141022)
        forms = [bridge_form()]
        for n in (8, 9, 16, 17, 24):
            forms.append(simple_form_from_paths(greedy_antichain(rng, n, rng.randint(2, 10), 1, 6)))
            coeffs = {rng.randrange(1 << n): rng.randint(-9, 9) for _ in range(300)}
            forms.append(MultilinearForm(n=n, coeffs=coeffs))
        assert max(form.n for form in forms) == 24 and any(max(f.coeffs) >> 16 for f in forms)
        for form in forms:
            n = form.n
            rows = [
                [rng.uniform(0.05, 0.95) for _ in range(n)],
                [rng.randrange(2) for _ in range(n)],
                [rng.random() < 0.5 for _ in range(n)],
                [np.float64(rng.random()) for _ in range(n)],
                [rng.random() if rng.randrange(2) else rng.randrange(2) for _ in range(n)],
            ]
            for p in rows:
                value, expected = evaluate_reliability(form, p), loop_reliability(form, p)
                assert type(value) is type(expected) and repr(value) == repr(expected)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="expected 5"):
            evaluate_reliability(bridge_form(), (HALF,) * 4)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match=r"p\[2\]"):
            evaluate_reliability(bridge_form(), (HALF, Fraction(3, 2), HALF, HALF, HALF))


class TestInclusionExclusionRoute:
    def test_agrees_with_form_route_on_bridge(self):
        paths = family(BRIDGE_PATHS, BRIDGE_N)
        form = bridge_form()
        for p in (
            (HALF,) * 5,
            (Fraction(1, 3), Fraction(2, 3), Fraction(1, 5), Fraction(4, 5), Fraction(1, 7)),
        ):
            assert evaluate_inclusion_exclusion(paths, p) == evaluate_reliability(form, p)

    def test_disjoint_pairs_closed_form(self):
        paths = family(DISJOINT_PAIRS, PAIRS_N)
        p = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(1, 5))
        # 1 - (1 - p1 p2)(1 - p3 p4)
        expected = 1 - (1 - Fraction(1, 6)) * (1 - Fraction(1, 20))
        assert evaluate_inclusion_exclusion(paths, p) == expected

    def test_fallback_route_above_max_r(self):
        paths = family(BRIDGE_PATHS, BRIDGE_N)
        p = (HALF,) * 5
        direct = evaluate_inclusion_exclusion(paths, p)
        assert evaluate_inclusion_exclusion(paths, p, max_r=2) == direct

    def test_capacity_error_when_both_caps_exceeded(self):
        with pytest.raises(CapacityError):
            evaluate_inclusion_exclusion(
                family(BRIDGE_PATHS, BRIDGE_N), (HALF,) * 5, max_r=2, max_n=2
            )


class TestFloatInclusionExclusion:
    """Float p walks like exact p: its value matches the exact one up to rounding."""

    @pytest.mark.parametrize("r", ANTICHAIN_R)
    def test_bit_identical_to_the_walk(self, r):
        # The name is kept for its history: float sums of the pruned walk may
        # differ from the unpruned walk's in the last bits, so the check is the
        # walk's type and an error within 2^-40 of the exact value.
        seeded_accuracy("antichain", r)

    def test_no_less_accurate_than_the_unpruned_walk(self):
        errors = [seeded_accuracy("antichain", r) for r in ANTICHAIN_R]
        errors += [seeded_accuracy("block", r) for r in PAST_ONE_BLOCK_R]
        errors.append(accuracy(family(BRIDGE_PATHS, BRIDGE_N), BRIDGE_FLOAT_ROWS + BRIDGE_OTHER_ROWS))
        assert max(new for new, _ in errors) <= max(walked for _, walked in errors)

    def test_negative_zero_probabilities(self):
        bridge = family(BRIDGE_PATHS, BRIDGE_N)
        for paths, p in (
            (bridge, (-0.0,) * 5),
            (bridge, (-0.0, 0.5, -0.0, 1.0, 0.25)),
            (family([(1,), (2,), (3,)], 3), (-0.0,) * 3),
        ):
            value = evaluate_inclusion_exclusion(paths, p)
            assert repr(value) == repr(walk_inclusion_exclusion(paths.masks(), p))
        # The walk's running sum starts at the integer 0, and 0 + -0.0 is 0.0.
        assert repr(evaluate_inclusion_exclusion(family([(1,)], 1), (-0.0,))) == "0.0"

    def test_integer_points_give_the_table(self):
        paths = family(BRIDGE_PATHS, BRIDGE_N)
        table = table_from_paths(paths)
        for mask in range(1 << BRIDGE_N):
            value = evaluate_inclusion_exclusion(paths, [(mask >> i) & 1 for i in range(5)])
            assert type(value) is int
            assert value == table.phi(mask)

    def test_fractions_stay_exact(self):
        p = (Fraction(1, 3), Fraction(2, 3), Fraction(1, 5), Fraction(4, 5), Fraction(1, 7))
        value = evaluate_inclusion_exclusion(family(BRIDGE_PATHS, BRIDGE_N), p)
        assert type(value) is Fraction
        assert value == evaluate_reliability(bridge_form(), p)

    def test_numpy_and_mixed_input_keep_the_walk(self):
        paths = family(BRIDGE_PATHS, BRIDGE_N)
        accuracy(paths, BRIDGE_FLOAT_ROWS)
        assert type(evaluate_inclusion_exclusion(paths, np.full(5, 0.5))) is np.float64

    @pytest.mark.parametrize("r", PAST_ONE_BLOCK_R)
    def test_object_route_past_one_block(self, r):
        # r = 15 and 16 walk past 2^14 subfamilies. Rows with integer values
        # give the walk's value exactly, in its type; float rows keep its type
        # and stay within 2^-40 of the exact value.
        paths, rows = seeded_rows("block", r)
        for p in rows:
            if not has_float(p):
                value = evaluate_inclusion_exclusion(paths, p)
                expected = walk_inclusion_exclusion(paths.masks(), p)
                assert type(value) is type(expected)
                assert repr(value) == repr(expected)
        seeded_accuracy("block", r)


def bridge_copies(k):
    """k disjoint copies of the bridge, on components 1-5, 6-10, ..."""
    return family([tuple(c + 5 * j for c in m) for j in range(k) for m in BRIDGE_PATHS], 5 * k)


# Families that the series and parallel reductions take apart.
REDUCIBLE = {
    "parallel24": family([(i,) for i in range(1, 25)], 24),
    "star23": family([(1, i) for i in range(2, 25)], 24),
    "four_bridges": bridge_copies(4),
    "one_member": family([(3,)], 4),
    "bridge_and_singleton": family(BRIDGE_PATHS + ((6,),), 6),
}


def typed_probabilities(rng, n):
    """Seeded p of each input type: float, Mersenne Fraction, int, bool, np.int64."""
    return [
        [rng.uniform(0.05, 0.95) for _ in range(n)],
        [Fraction(rng.randint(1, q - 1), q) for q in (rng.choice(LARGE_PRIMES) for _ in range(n))],
        [rng.randrange(2) for _ in range(n)],
        [rng.random() < 0.5 for _ in range(n)],
        [np.int64(rng.randrange(2)) for _ in range(n)],
    ]


class TestReductions:
    """Disjoint groups combine in parallel and shared components factor out in series."""

    @staticmethod
    def unreduced(name, p):
        """The value by a route that reduces nothing.

        Parallel 24 and star 23 have forms of 2^24 - 1 and 2^23 - 1 terms,
        beyond the term loop's reach, so their closed forms stand in.
        """
        paths = REDUCIBLE[name]
        if name == "parallel24":
            return 1 - math.prod(1 - v for v in p)
        if name == "star23":
            return p[0] * (1 - math.prod(1 - v for v in p[1:]))
        if paths.r <= 10:
            return walk_inclusion_exclusion(paths.masks(), p)
        return loop_reliability(simple_form_from_paths(paths), p)

    @pytest.mark.parametrize("name", list(REDUCIBLE))
    def test_values_and_types_match_an_unreduced_route(self, name):
        paths = REDUCIBLE[name]
        for p in typed_probabilities(random.Random(paths.r), paths.n):
            value = evaluate_inclusion_exclusion(paths, p)
            expected = self.unreduced(name, p)
            assert type(value) is type(expected), (name, p)
            if has_float(p):
                exact = self.unreduced(name, [Fraction(v) for v in p])
                assert abs(Fraction(value) - exact) <= Fraction(2) ** -40, (name, p)
            else:
                assert repr(value) == repr(expected), (name, p)

    @pytest.mark.parametrize("name", ["parallel24", "star23"])
    def test_reduced_families_are_not_walked(self, name, monkeypatch):
        # The walk without reductions visits 2^24 or 2^23 leaves here, each
        # looping over its union's components.
        calls = 0

        def counting(bits):
            nonlocal calls
            calls += 1
            return _iter_bit_positions(bits)

        monkeypatch.setattr("structfn.reliability._iter_bit_positions", counting)
        for p in typed_probabilities(random.Random(24), 24)[:3]:
            evaluate_inclusion_exclusion(REDUCIBLE[name], p)
        assert calls < 1_000


class TestExactIntegerRoute:
    """Exact p holding a Fraction is summed in integer numerators over one denominator."""

    def test_matches_the_walk_and_the_term_loop(self):
        rng = random.Random(20141218)
        families = kernel_families()
        walked = 0
        for fam in families:
            p = exact_probabilities(rng, fam.n)
            form = simple_form_from_paths(fam)
            expected = loop_reliability(form, p)
            value = evaluate_reliability(form, p)
            assert type(value) is type(expected) and value == expected, str(fam)
            via_paths = evaluate_inclusion_exclusion(fam, p)
            assert type(via_paths) is type(expected) and via_paths == expected, str(fam)
            # The Fraction walk costs seconds beyond 2^10 leaves; the term loop covers the rest.
            if fam.r <= 10:
                assert via_paths == walk_inclusion_exclusion(fam.masks(), p), str(fam)
                walked += 1
        assert len(families) >= 200 and walked >= 200

    def test_all_fractions_give_a_fraction(self):
        paths = family(BRIDGE_PATHS, BRIDGE_N)
        p = (Fraction(1), Fraction(0), Fraction(1), Fraction(1), Fraction(1))
        for value in (evaluate_inclusion_exclusion(paths, p), evaluate_reliability(bridge_form(), p)):
            assert type(value) is Fraction
            assert value == 1

    def test_all_int_vertices_give_the_table_as_int(self):
        paths = family(OVERLAP_PAIRS, PAIRS_N)
        table = table_from_paths(paths)
        form = mobius_transform(table)
        for mask in range(1 << PAIRS_N):
            p = [(mask >> i) & 1 for i in range(PAIRS_N)]
            for value in (evaluate_inclusion_exclusion(paths, p), evaluate_reliability(form, p)):
                assert type(value) is int
                assert value == table.phi(mask)

    def test_int_and_fraction_on_covered_components_give_a_fraction(self):
        paths = family(BRIDGE_PATHS, BRIDGE_N)
        p = (1, Fraction(1, 3), 0, 1, Fraction(2**127 - 2, 2**127 - 1))
        expected = walk_inclusion_exclusion(paths.masks(), p)
        assert type(expected) is Fraction
        for value in (evaluate_inclusion_exclusion(paths, p), evaluate_reliability(bridge_form(), p)):
            assert type(value) is Fraction
            assert value == expected

    def test_fractions_only_on_uncovered_components_give_an_int(self):
        # Components 5 and 6 belong to no path set.
        paths = family(((1, 2), (3, 4), (2, 3)), 6)
        form = simple_form_from_paths(paths)
        for mask in range(1 << 4):
            p = [(mask >> i) & 1 for i in range(4)] + [Fraction(1, 3), Fraction(5, 2**89 - 1)]
            expected = walk_inclusion_exclusion(paths.masks(), p)
            assert type(expected) is int
            for value in (evaluate_inclusion_exclusion(paths, p), evaluate_reliability(form, p)):
                assert type(value) is int
                assert value == expected

    def test_other_input_types_keep_the_plain_loops(self):
        paths = family(BRIDGE_PATHS, BRIDGE_N)
        form = bridge_form()
        for p in BRIDGE_OTHER_ROWS:
            checks = [(evaluate_reliability(form, p), loop_reliability(form, p))]
            if not has_float(p):
                checks.append(
                    (evaluate_inclusion_exclusion(paths, p), walk_inclusion_exclusion(paths.masks(), p))
                )
            for value, expected in checks:
                assert type(value) is type(expected)
                assert repr(value) == repr(expected)
        accuracy(paths, BRIDGE_OTHER_ROWS)

    def test_walk_needs_neither_the_kernel_nor_the_lattice(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the inclusion-exclusion walk must stay independent")

        monkeypatch.setattr("structfn.transform._formation_signs", refuse)
        monkeypatch.setattr("structfn.transform.mobius_transform", refuse)
        paths = family(BRIDGE_PATHS, BRIDGE_N)
        p = (Fraction(1, 3), Fraction(2, 3), Fraction(1, 5), Fraction(4, 5), Fraction(1, 7))
        assert evaluate_inclusion_exclusion(paths, p) == walk_inclusion_exclusion(paths.masks(), p)
        rng = random.Random(16)
        wide = greedy_antichain(rng, 18, 16, 3, 6)
        assert wide.r == 16
        value = evaluate_inclusion_exclusion(wide, exact_probabilities(rng, 18), max_r=16)
        assert type(value) is Fraction

    @staticmethod
    def pairs_family(r, seed):
        """r of the 28 two-component members on 8 components, seeded."""
        pairs = list(itertools.combinations(range(1, 9), 2))
        return family(random.Random(seed).sample(pairs, r), 8)

    def test_pruned_walk_matches_the_term_loop_on_overlapping_antichains(self):
        rng = random.Random(19741001)
        walked = 0
        for _ in range(24):
            fam = greedy_antichain(rng, rng.randint(8, 12), rng.randint(6, 20), 2, 5)
            p = exact_probabilities(rng, fam.n)
            expected = loop_reliability(simple_form_from_paths(fam), p)
            value = evaluate_inclusion_exclusion(fam, p)
            assert type(value) is type(expected) and value == expected, str(fam)
            if fam.r <= 10:
                assert value == walk_inclusion_exclusion(fam.masks(), p), str(fam)
                walked += 1
        assert walked >= 3

    def test_member_order_does_not_change_the_walk(self):
        rng = random.Random(1974)
        for _ in range(20):
            fam = greedy_antichain(rng, 10, rng.randint(4, 14), 2, 4)
            p = exact_probabilities(rng, fam.n)
            expected = evaluate_inclusion_exclusion(fam, p)
            masks = list(fam.masks())
            for _ in range(3):
                rng.shuffle(masks)
                value = _walk_inclusion_exclusion(masks, p, _common_denominator(p))
                assert type(value) is type(expected) and value == expected, str(fam)

    def test_cancelling_subfamilies_are_skipped(self, monkeypatch):
        # Counted with this patch, the unpruned walk makes 197,520 calls on
        # these 20 pairs and the pruned walk 1,488: it loops over the new
        # components only in subfamilies that no later pair cancels.
        calls = 0

        def counting(bits):
            nonlocal calls
            calls += 1
            return _iter_bit_positions(bits)

        monkeypatch.setattr("structfn.reliability._iter_bit_positions", counting)
        paths = self.pairs_family(20, 28)
        p = [Fraction(k, 11) for k in range(1, 9)]
        value = evaluate_inclusion_exclusion(paths, p)
        assert calls < 10_000
        assert value == loop_reliability(simple_form_from_paths(paths), p)

    def test_a_family_of_r_max_members(self):
        paths = self.pairs_family(R_MAX, 24)
        assert paths.r == R_MAX
        rng = random.Random(24)
        for _ in range(3):
            p = exact_probabilities(rng, 8)
            expected = loop_reliability(simple_form_from_paths(paths), p)
            value = evaluate_inclusion_exclusion(paths, p)
            assert type(value) is type(expected) and value == expected

    @pytest.mark.parametrize("n", [1, 5, 6, 7, 12, 13, 18, 19, 24])
    def test_term_loop_across_chunk_edges(self, n):
        # Random forms, with the constant term, the full set and every single
        # component on either side of a 6-component chunk edge among the terms.
        rng = random.Random(n)
        edges = [1 << i for i in range(n) if i % 6 in (0, 5)]
        for _ in range(6):
            masks = {0, (1 << n) - 1, *edges, *(rng.getrandbits(n) for _ in range(40))}
            form = MultilinearForm(n=n, coeffs={m: rng.randint(-9, 9) or 1 for m in masks})
            p = exact_probabilities(rng, n)
            expected = loop_reliability(form, p)
            value = evaluate_reliability(form, p)
            assert type(value) is type(expected) and value == expected

    def test_exact_routes_leave_numpy_unloaded(self):
        probe = (
            "import random, sys\n"
            "from fractions import Fraction\n"
            "from structfn import SetFamily, evaluate_inclusion_exclusion, evaluate_reliability\n"
            "from structfn import simple_form_from_paths\n"
            "rng = random.Random(7)\n"
            "members = {tuple(sorted(rng.sample(range(1, 19), 4))) for _ in range(16)}\n"
            "paths = SetFamily.from_sets(members, n=18)\n"
            "form = simple_form_from_paths(paths)\n"
            "for p in (\n"
            "    [Fraction(rng.randint(1, 12), 13) for _ in range(18)],\n"
            "    [rng.uniform(0.05, 0.95) for _ in range(18)],\n"
            "    [rng.randrange(2) for _ in range(18)],\n"
            "    [rng.random() < 0.5 for _ in range(18)],\n"
            "):\n"
            "    value = evaluate_inclusion_exclusion(paths, p)\n"
            "    expected = evaluate_reliability(form, p)\n"
            "    assert abs(value - expected) <= (2**-40 if type(value) is float else 0), p\n"
            "print('numpy' in sys.modules)\n"
        )
        run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        assert run.stdout == "False\n"


class TestDiagonalCoefficients:
    def test_bridge(self):
        assert diagonal_coefficients(bridge_form()).d == (0, 2, 2, -5, 2)

    def test_adjacent_pairs(self):
        form = mobius_transform(table_from_paths(family(ADJACENT_PAIRS, ADJACENT_PAIRS_N)))
        assert diagonal_coefficients(form).d == (0, 3, -2, 0)

    def test_disjoint_pairs(self):
        form = mobius_transform(table_from_paths(family(DISJOINT_PAIRS, PAIRS_N)))
        assert diagonal_coefficients(form).d == (0, 2, 0, -1)

    def test_two_of_two(self):
        form = mobius_transform(k_of_n_table(2, 2))
        assert diagonal_coefficients(form).d == (0, 1)

    def test_one_of_three(self):
        form = mobius_transform(k_of_n_table(1, 3))
        assert diagonal_coefficients(form).d == (3, -3, 1)

    def test_rejects_constant_term(self):
        with pytest.raises(ValueError, match="constant term"):
            diagonal_coefficients(MultilinearForm(n=2, coeffs={0: 1, 0b11: 1}))

    def test_total_is_one_for_semicoherent(self):
        for paths, n in (
            (BRIDGE_PATHS, BRIDGE_N),
            (ADJACENT_PAIRS, ADJACENT_PAIRS_N),
            (OVERLAP_PAIRS, PAIRS_N),
        ):
            diag = diagonal_coefficients(mobius_transform(table_from_paths(family(paths, n))))
            assert sum(diag.d) == 1

    def test_evaluate_matches_common_probability(self):
        diag = diagonal_coefficients(bridge_form())
        for p in (Fraction(1, 3), Fraction(7, 8)):
            assert diag.evaluate(p) == evaluate_reliability(bridge_form(), (p,) * 5)


class TestDiagonalFromPaths:
    def test_bridge_direct(self):
        assert diagonal_from_paths(family(BRIDGE_PATHS, BRIDGE_N)).d == (0, 2, 2, -5, 2)

    def test_matches_form_route(self):
        for paths, n in (
            (ADJACENT_PAIRS, ADJACENT_PAIRS_N),
            (DISJOINT_PAIRS, PAIRS_N),
            (OVERLAP_PAIRS, PAIRS_N),
        ):
            fam = family(paths, n)
            via_form = diagonal_coefficients(simple_form_from_paths(fam))
            assert diagonal_from_paths(fam) == via_form

    def test_fallback_route_above_max_r(self):
        fam = family(BRIDGE_PATHS, BRIDGE_N)
        assert diagonal_from_paths(fam, max_r=2) == diagonal_from_paths(fam)

    def test_matches_the_subfamily_walk(self):
        for fam in kernel_families():
            assert diagonal_from_paths(fam).d == walk_diagonal(fam.masks(), fam.n), str(fam)

    def test_capacity_error_when_both_caps_exceeded(self):
        with pytest.raises(CapacityError):
            diagonal_from_paths(family(BRIDGE_PATHS, BRIDGE_N), max_r=2, max_n=2)


class TestMonotonicity:
    def test_bridge_diagonal_nondecreasing_on_grid(self):
        diag = diagonal_coefficients(bridge_form())
        values = [diag.evaluate(Fraction(k, 64)) for k in range(65)]
        assert values[0] == 0
        assert values[-1] == 1
        for lo, hi in zip(values, values[1:]):
            assert lo <= hi
