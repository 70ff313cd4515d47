"""Property-based invariants over randomized tables and families."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from structfn import (
    SetFamily,
    SubsetMask,
    TruthTable,
    cuts_from_paths,
    diagonal_coefficients,
    diagonal_from_paths,
    dual_signature,
    dualize_table,
    evaluate_inclusion_exclusion,
    evaluate_reliability,
    minimal_cut_sets,
    minimal_path_sets,
    mobius_transform,
    paths_from_simple_form,
    signature_boland,
    signature_from_diagonal,
    simple_form_from_paths,
    table_from_paths,
    zeta_transform,
)

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


@st.composite
def truth_tables(draw, max_n=5):
    n = draw(st.integers(min_value=1, max_value=max_n))
    bits = draw(st.integers(min_value=0, max_value=(1 << (1 << n)) - 1))
    return TruthTable(n=n, bits=bits)


@st.composite
def antichains(draw, max_n=8, max_r=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    raw = draw(
        st.lists(st.integers(min_value=1, max_value=(1 << n) - 1), min_size=1, max_size=max_r)
    )
    members = tuple(SubsetMask(bits=m, n=n) for m in dict.fromkeys(raw))
    return SetFamily(n=n, members=members).minimized()


@st.composite
def antichains_with_probabilities(draw):
    fam = draw(antichains(max_n=6, max_r=5))
    p = tuple(
        Fraction(draw(st.integers(min_value=0, max_value=8)), 8) for _ in range(fam.n)
    )
    return fam, p


@given(truth_tables())
def test_zeta_inverts_mobius(table):
    assert zeta_transform(mobius_transform(table)) == table


@given(truth_tables())
def test_dualize_is_an_involution(table):
    assert dualize_table(dualize_table(table)) == table


@given(antichains())
def test_expansion_agrees_with_lattice_transform(fam):
    assert simple_form_from_paths(fam) == mobius_transform(table_from_paths(fam))


@given(antichains())
def test_minimal_monomials_recover_the_family(fam):
    assert paths_from_simple_form(simple_form_from_paths(fam)) == fam


@given(antichains())
def test_table_route_recovers_the_family(fam):
    assert minimal_path_sets(table_from_paths(fam)) == fam


@given(antichains())
def test_cut_routes_agree(fam):
    """The paper's identity: the minimal cut sets are the minimal monomials of
    the dual system's simple form."""
    table = table_from_paths(fam)
    algebraic = paths_from_simple_form(mobius_transform(dualize_table(table)))
    assert algebraic == cuts_from_paths(fam)
    assert algebraic == minimal_cut_sets(table)
    assert algebraic == minimal_path_sets(dualize_table(table))


@given(antichains_with_probabilities())
def test_inclusion_exclusion_matches_form_evaluation(fam_p):
    fam, p = fam_p
    form = simple_form_from_paths(fam)
    assert evaluate_inclusion_exclusion(fam, p) == evaluate_reliability(form, p)


@given(antichains())
def test_diagonal_routes_agree_and_sum_to_one(fam):
    direct = diagonal_from_paths(fam)
    assert direct == diagonal_coefficients(simple_form_from_paths(fam))
    assert sum(direct.d) == 1


@given(antichains())
def test_signature_routes_agree(fam):
    table = table_from_paths(fam)
    boland = signature_boland(table)
    assert boland == signature_from_diagonal(diagonal_from_paths(fam))
    # SignatureVector construction already enforces nonnegativity and unit sum.
    assert sum(boland.s) == 1


@given(antichains())
def test_dual_signature_matches_dual_system(fam):
    table = table_from_paths(fam)
    assert dual_signature(signature_boland(table)) == signature_boland(dualize_table(table))


@given(antichains(), st.integers(min_value=0))
def test_formation_balance_equals_form_coefficient(fam, seed):
    from structfn import formation_balance

    form = simple_form_from_paths(fam)
    mask = seed % (1 << fam.n)
    assert formation_balance(fam, mask) == form.coefficient(mask)
