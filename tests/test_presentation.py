from __future__ import annotations

import json
import random
import re
from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import pytest

from reescert.errors import (
    InternalInvariantError,
    MonomialParseError,
    NotClosedError,
    ResourceCapError,
)
from reescert import reduction
from reescert.family import GenRef, build_family, comparable
from bruteforce import (
    basis_by_public_constructor,
    confluence_by_chains,
    confluent_by_all_spairs,
    pair_table_by_rewrite_images,
    rewrite_chain,
    rules_by_lead,
)
from conftest import open_nochain, reference_descs
from reescert.measure import traced_normal_form
from reescert.presentation import (
    MarkedBinomial,
    TMonomial,
    basis_shape,
    basis_to_json,
    build_basis,
)
from reescert.reduction import (
    MAX_COEFFICIENT_DIGITS,
    MAX_TERM_DEGREE,
    TPolynomial,
    _RuleIndex,
    _least_lead,
    _normal_form,
    _rewrite_step,
    confluence_check,
    normal_form,
    parse_tpolynomial,
    psi_eval,
    reduce_step,
    s_polynomial,
)


def T(*pairs):
    return TMonomial(pairs)


def P(text, fam=None):
    return parse_tpolynomial(text, fam)


# ------------------------------------------------------------ arithmetic

def test_tmonomial_sorts_refs_and_multiplies():
    m = T((1, 6), (0, 1), (1, 1))
    assert m.refs == (GenRef(0, 1), GenRef(1, 1), GenRef(1, 6))
    assert m.degree == 3
    assert (m * T((0, 1))).text() == "T[0,1]^2*T[1,1]*T[1,6]"
    assert T().text() == "1"


def test_tmonomial_is_its_sorted_ref_tuple():
    # equality, hash, order and immutability are the tuple's own
    m = T((1, 6), (0, 1), (1, 1))
    refs = (GenRef(0, 1), GenRef(1, 1), GenRef(1, 6))
    assert isinstance(m, tuple) and m.refs is m
    assert m == refs and hash(m) == hash(refs)
    assert (len(m), m[0], type(m + m)) == (3, GenRef(0, 1), tuple)
    assert T((0, 1)) < m <= m and not T()
    assert not any(name in vars(TMonomial) for name in (
        "__eq__", "__hash__", "__lt__", "__le__", "__setattr__"))
    with pytest.raises(AttributeError):
        m.refs = refs


def test_tmonomial_pair_division():
    # a rewrite takes one copy of each lead ref off and keeps the rest
    m = T((0, 1), (0, 1), (1, 2))
    rule = MarkedBinomial(T((0, 1), (1, 2)), T((0, 2), (1, 1)))
    index = _RuleIndex((rule,))
    lead = index.positions(rule.lead.refs)
    out = _rewrite_step(index.positions(m.refs), lead, index.trails[lead])
    assert index.monomial(out) == T((0, 1), (0, 2), (1, 1))


def test_tpolynomial_cancellation():
    f = TPolynomial([(T((1, 1)), Fraction(1)), (T((1, 2)), Fraction(2))])
    g = TPolynomial([(T((1, 1)), Fraction(-1))])
    assert (f + g).support() == [T((1, 2))]
    assert not f - f


def test_tpolynomial_text_signs():
    f = TPolynomial([(T((1, 1)), Fraction(-1)), (T(), Fraction(3, 2))])
    assert f.text() == "-T[1,1] + 3/2"
    assert TPolynomial().text() == "0"


# --------------------------------------------------------------- parsing

def test_parse_round_trip_frozen():
    f = P("T[1,3]*T[1,4] - T[1,2]*T[1,5]")
    assert f.terms == {T((1, 3), (1, 4)): 1, T((1, 2), (1, 5)): -1}
    assert P(f.text()) == f


def test_parse_coefficients_and_powers():
    f = P("1/2*T[0,1]^2 + 3 - 2*T[1,1]*T[0,2]")
    assert f.terms == {T((0, 1), (0, 1)): Fraction(1, 2), T(): 3,
                       T((0, 2), (1, 1)): -2}
    assert P("-T[1,1]").terms == {T((1, 1)): -1}


def test_parse_round_trip_random():
    rng = random.Random(99)
    for _ in range(200):
        terms = []
        for _ in range(rng.randint(1, 5)):
            refs = [(rng.randint(0, 3), rng.randint(1, 9))
                    for _ in range(rng.randint(0, 3))]
            coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
            terms.append((TMonomial(refs), coeff))
        f = TPolynomial(terms)
        assert P(f.text()) == f


def test_parse_rejects_garbage(tower4):
    for bad in ["", "T[1]", "x1", "T[1,2]++T[1,3]", "1/0", "T[1,2]*",
                "T[1,2] T[1,3]", "()",
                # a lexical error anywhere wins over the term cap
                f"T[0,1]^{MAX_TERM_DEGREE + 1} x1"]:
        with pytest.raises(MonomialParseError):
            P(bad)
    with pytest.raises(MonomialParseError, match="unknown T-variable"):
        P("T[9,9]", tower4)
    # in range with the family attached
    assert P("T[4,1]", tower4).terms == {T((4, 1)): 1}


@pytest.mark.parametrize("text, message", [
    ("T[1,2] T[1,3]",
     "expected '+' or '-' between terms, got 'T[1,3]' at position 7"),
    ("T[1,2]^", "expected a number after '^', got end of input at position 7"),
    ("T[1,2]*", "expected a coefficient or T[i,j] factor,"
                " got end of input at position 7"),
    ("1/ +T[1,2]", "expected a number after '/', got '+' at position 3"),
    ("T[1,2] + 3/ 0", "division by zero at position 12"),
    ("T[1,2] $", "unexpected input '$' at position 7"),
    # numerators and denominators count, and the number that takes them
    # over the cap is named
    (f"{'9' * 2000}/{'9' * 2000}*2*T[0,1]",
     "coefficients over 4000 digits in all at position 4002"),
], ids=["term after term", "power without number", "factor missing",
        "denominator not a number", "zero denominator", "lexical",
        "coefficient digits"])
def test_parse_errors_name_the_token_and_its_position(text, message):
    with pytest.raises(MonomialParseError, match=f"^{re.escape(message)}$"):
        P(text)


def test_parse_caps_term_degree(tower4):
    at_cap = P(f"T[0,1]^{MAX_TERM_DEGREE - 2}*T[0,2]*T[1,1]")
    assert at_cap.support()[0].degree == MAX_TERM_DEGREE
    for over in (f"T[0,1]^{MAX_TERM_DEGREE + 1}",
                 f"T[0,1]^{MAX_TERM_DEGREE - 1}*T[0,2]*T[1,1]",
                 "T[0,1] + T[0,2]^100000000",
                 # the cap is met before the term's syntax error
                 f"T[0,1]^{MAX_TERM_DEGREE + 1} ("):
        with pytest.raises(ResourceCapError):
            P(over)
    # and before the unknown ref
    with pytest.raises(ResourceCapError):
        P(f"T[9,9]^{MAX_TERM_DEGREE + 1}", tower4)
    assert P("T[1,1]^0") == TPolynomial.monomial(TMonomial(()))



def test_parse_prints_coefficients_at_the_digit_cap():
    # powers do not count; at the cap the largest product and a merged
    # sum still print
    half = "9" * (MAX_COEFFICIENT_DIGITS // 2)
    at_cap = P(f"{half}*{half}*T[0,1]^{'0' * 4000}7")
    assert at_cap.text() == f"{int(half) ** 2}*T[0,1]^7"
    den = "7" * (MAX_COEFFICIENT_DIGITS // 2 - 1)
    merged = P(f"1/{den} + 1/{den[1:]}1")
    assert merged.text() == str(1 / Fraction(int(den))
                                + 1 / Fraction(int(den[1:] + "1")))


# ---------------------------------------------------------------- psi

def test_psi_rees_frozen(tower4):
    m = P("T[0,1]^2*T[0,4]*T[1,1]*T[1,6]*T[1,8]*T[2,2]*T[2,7]",
          tower4).support()[0]
    img = psi_eval(m, tower4)
    assert img.x == (6, 4, 3, 2)
    assert img.t == (3, 2, 0, 0)
    assert img.text() == "x1^6*x2^4*x3^3*x4^2*t1^3*t2^2"
    assert sum(img.x) == 15


def test_psi_fiber_frozen(fiber_pair):
    img = psi_eval(T((1, 1), (2, 2)), fiber_pair)
    assert img.x == (2, 0, 3, 0, 0, 2, 1)
    assert img.t == ()


def test_psi_multiplicative(tower4):
    rng = random.Random(5)
    refs = tower4.refs()
    for _ in range(200):
        a = TMonomial(rng.choices(refs, k=rng.randint(0, 4)))
        b = TMonomial(rng.choices(refs, k=rng.randint(0, 4)))
        ia, ib, iab = (psi_eval(x, tower4) for x in (a, b, a * b))
        assert tuple(p + q for p, q in zip(ia.x, ib.x)) == iab.x
        assert tuple(p + q for p, q in zip(ia.t, ib.t)) == iab.t


# ---------------------------------------------------------------- basis

def test_basis_frozen_rules(tower4):
    basis = build_basis(tower4)
    by_lead = {g.lead: g for g in basis}
    assert by_lead[T((1, 3), (1, 4))].trail == T((1, 2), (1, 5))
    assert by_lead[T((0, 1), (2, 7))].trail == T((0, 3), (2, 3))
    # trail may be a square: sort(x1^2, x2^2) = (x1*x2, x1*x2)
    assert by_lead[T((1, 1), (1, 3))].trail == T((1, 2), (1, 2))


def test_basis_invariants(tower4):
    basis = build_basis(tower4)
    refs = tower4.refs()
    incomparable = [
        (a, b)
        for i, a in enumerate(refs) for b in refs[i + 1:]
        if not comparable(tower4, a, b)
    ]
    assert [g.lead.refs for g in basis] == incomparable
    assert sorted(g.lead for g in basis) == [g.lead for g in basis]
    for g in basis:
        assert g.lead.degree == 2 and g.trail.degree == 2
        assert len(set(g.lead.refs)) == 2
        assert g.lead != g.trail
        assert psi_eval(g.lead, tower4) == psi_eval(g.trail, tower4)
        a, b = g.trail.refs
        assert a == b or comparable(tower4, a, b)


def test_basis_fiber(fiber_pair):
    basis = build_basis(fiber_pair)
    assert len(basis) == 1
    assert basis[0].lead == T((1, 1), (1, 4))
    assert basis[0].trail == T((1, 2), (1, 3))
    assert psi_eval(basis[0].lead, fiber_pair) == psi_eval(
        basis[0].trail, fiber_pair)


def test_basis_requires_closure():
    fam = build_family({
        "mode": "rees", "variables": 4,
        "levels": [{"degree": 2,
                    "generators": ["x1^2", "x2^2", "x1*x3", "x2*x3",
                                   "x3^2", "x1*x4", "x2*x4", "x3*x4"]}]})
    with pytest.raises(NotClosedError) as err:
        build_basis(fam)
    assert err.value.witnesses


def test_basis_refuses_from_the_stopped_scan():
    """A family with more open pairs than the witness cap is refused
    with the capped witness list, before its table is classified in
    full."""
    fam = build_family(open_nochain())
    with pytest.raises(NotClosedError) as err:
        build_basis(fam)
    assert "(32 witness pair(s))" in str(err.value)
    assert len(err.value.witnesses) == 32
    assert fam._scan is not None
    assert len(fam.open_pairs()) == 93


def test_single_generator_family_has_empty_basis():
    fam = build_family({
        "mode": "rees", "variables": 3,
        "levels": [{"degree": 3, "generators": ["x1^3"]}]})
    assert build_basis(fam) == ()


def test_basis_json_round_trip(tower4):
    basis = build_basis(tower4)
    data = basis_to_json(basis)
    assert data["count"] == len(basis)
    assert data["quadratic"] and data["squarefree_leads"]
    again = tuple(
        MarkedBinomial(TMonomial(rel["lead"]), TMonomial(rel["trail"]))
        for rel in json.loads(json.dumps(data))["relations"])
    assert again == basis == basis_by_public_constructor(tower4)


def test_basis_matches_public_constructor(bench_families):
    """Rules built from the family's refs equal, as an ordered tuple,
    the rules built through the public ``TMonomial`` constructor."""
    descs = reference_descs(bench_families)
    closed = 0
    for name, desc in descs.items():
        fam = build_family(desc)
        for ref in fam.refs():
            assert fam.factors(ref) == fam.generator(ref).factors()
        try:
            expected = basis_by_public_constructor(fam)
        except NotClosedError as exc:
            with pytest.raises(NotClosedError) as info:
                build_basis(fam)
            assert info.value.witnesses == exc.witnesses, name
            continue
        basis = build_basis(fam)
        assert basis == expected, name
        for g in basis:
            for mono in (g.lead, g.trail):
                assert all(type(r) is GenRef for r in mono.refs)
                assert list(mono.refs) == sorted(mono.refs)
        closed += 1
    # the demos, max(4,3), max(4,4) and ten of the seeded families
    assert closed == 15


def test_basis_shape_matches_json(tower4):
    cubic = (MarkedBinomial(T((0, 1), (1, 2), (1, 3)),
                            T((0, 2), (1, 1), (1, 3))),)
    cubic_trail = (MarkedBinomial(T((0, 1), (1, 2)),
                                  T((0, 2), (1, 1), (1, 3))),)
    repeated = (MarkedBinomial(T((0, 1), (0, 1)), T((0, 2), (0, 3))),)
    cubic_square = (MarkedBinomial(T((0, 1), (1, 2), (0, 1)),
                                   T((0, 2), (1, 1), (1, 3))),)
    basis = build_basis(tower4)

    def shape(b):
        return basis_shape([(g.lead.refs, g.trail.refs) for g in b])

    for b in (basis, (), cubic, cubic_trail, repeated, cubic_square,
              basis + cubic + repeated):
        data = basis_to_json(b)
        assert shape(b) == {key: data[key] for key in
                            ("count", "quadratic", "squarefree_leads")}
        assert set(data) == {"count", "quadratic", "squarefree_leads",
                             "relations"}
    assert shape(basis) == {"count": 104, "quadratic": True,
                            "squarefree_leads": True}
    # the pair table reads the same shape as the rules built from it
    assert basis_shape(tower4.incomparable_pairs().items()) == shape(basis)
    assert shape(cubic) == {"count": 1, "quadratic": False,
                            "squarefree_leads": True}
    assert shape(repeated) == {"count": 1, "quadratic": True,
                               "squarefree_leads": False}
    assert shape(cubic_trail) == {"count": 1, "quadratic": False,
                                  "squarefree_leads": True}
    assert shape(cubic_square) == {"count": 1, "quadratic": False,
                                   "squarefree_leads": False}
    assert shape(cubic + basis) == {"count": 105, "quadratic": False,
                                    "squarefree_leads": True}


# ------------------------------------------------------------- reduction

def test_reduce_step_frozen(tower4):
    basis = build_basis(tower4)
    f = P("T[1,3]*T[1,4]")
    f1 = reduce_step(f, basis)
    assert f1 == P("T[1,2]*T[1,5]")
    assert reduce_step(f1, basis) is None
    assert normal_form(f, basis) == f1


def test_reduce_cross_level_frozen(tower4):
    basis = build_basis(tower4)
    assert normal_form(P("T[0,1]*T[2,7]"), basis) == P("T[0,3]*T[2,3]")


def test_reduction_preserves_psi_and_terminates(tower4):
    basis = build_basis(tower4)
    table = pair_table_by_rewrite_images(tower4)
    rng = random.Random(6)
    refs = tower4.refs()
    for _ in range(150):
        m = TMonomial(rng.choices(refs, k=rng.randint(1, 5)))
        f = TPolynomial.monomial(m)
        nf = normal_form(f, basis)
        assert len(nf.terms) == 1
        (out, coeff), = nf.terms.items()
        assert coeff == 1
        assert psi_eval(out, tower4) == psi_eval(m, tower4)
        assert not any(pair in table for pair in combinations(out.refs, 2))
        assert normal_form(nf, basis) == nf


def _reduce_by_steps(f, basis):
    for _ in range(10_000):
        nxt = reduce_step(f, basis)
        if nxt is None:
            return f
        f = nxt
    raise AssertionError("reduce_step did not reach a normal form")


@pytest.mark.parametrize("drop", [None, 10])
def test_normal_form_is_the_reduce_step_limit(tower4, drop):
    # term-by-term monomial normal forms against the polynomial stepper,
    # on the basis and on a non-confluent one without rule 10
    basis = build_basis(tower4)
    if drop is not None:
        basis = basis[:drop] + basis[drop + 1:]
    assert confluence_check(basis).confluent == (drop is None)
    refs = tower4.refs()
    rng = random.Random(23)
    cancelling = 0
    for _ in range(120):
        f = TPolynomial([
            (TMonomial(rng.choices(refs, k=rng.randint(0, 4))),
             Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
            for _ in range(rng.randint(1, 4))])
        m = TMonomial(rng.choices(refs, k=rng.randint(2, 4)))
        stepped = reduce_step(TPolynomial.monomial(m), basis)
        if stepped is not None:
            # m - m' with m' one step from m: same fiber, cancels
            diff = TPolynomial.monomial(m) - stepped
            cancelling += not normal_form(diff, basis)
            f = f + diff
        assert normal_form(f, basis) == _reduce_by_steps(f, basis)
    assert cancelling > 0


def test_is_completely_reduced_frozen(tower4):
    # completely reduced: no pair of the refs is in the pair table, and
    # so no lead divides the monomial
    table = pair_table_by_rewrite_images(tower4)
    index = _RuleIndex(build_basis(tower4), tower4.refs())
    for m, reduced in ((T((1, 3), (1, 4)), False), (T((1, 2), (1, 5)), True),
                       (T((1, 1), (1, 1)), True), (T(), True)):
        assert all(p not in table for p in combinations(m.refs, 2)) == reduced
        assert (_least_lead(index.positions(m.refs), index.partners)
                is None) == reduced


def test_step_cap_raises_on_cyclic_rules(tower4, monkeypatch):
    cyclic = (
        MarkedBinomial(T((1, 3), (1, 4)), T((1, 2), (1, 5))),
        MarkedBinomial(T((1, 2), (1, 5)), T((1, 3), (1, 4))),
    )
    overlapping = (
        MarkedBinomial(T((1, 3), (1, 4)), T((1, 3), (1, 5))),
        MarkedBinomial(T((1, 3), (1, 5)), T((1, 3), (1, 4))),
    )
    with monkeypatch.context() as patch:
        patch.setattr(reduction, "DEFAULT_STEP_CAP", 10)
        with pytest.raises(InternalInvariantError):
            normal_form(P("T[1,3]*T[1,4]"), cyclic)
        # these leads are coprime, so the product criterion skips the
        # only pair; termination is the measure's premise, not this
        # check's
        report = confluence_check(cyclic)
        assert (report.pairs_reduced, report.pairs_skipped) == (0, 1)
        with pytest.raises(InternalInvariantError):
            confluence_check(overlapping)
    # under the default cap the walk names the cycle when it closes,
    # rather than walking a million steps first
    for basis in (cyclic, overlapping):
        with pytest.raises(InternalInvariantError,
                           match="cycles through 2 monomials"):
            normal_form(P("T[1,3]*T[1,4]"), basis)
    with pytest.raises(InternalInvariantError, match="cycles through 2"):
        confluence_check(overlapping)


def test_rule_index_refuses_a_duplicate_lead(tower4):
    basis = build_basis(tower4)
    with pytest.raises(ValueError,
                       match=re.escape(f"duplicate lead {basis[0].lead}")):
        normal_form(P("T[1,3]*T[1,4]"), basis + basis[:1])


# --------------------------------------------------------------- records

def test_marked_binomial_record(tower4):
    g = build_basis(tower4)[0]
    assert MarkedBinomial._fields == ("lead", "trail")
    twin = MarkedBinomial(g.lead, g.trail)
    assert twin == g and hash(twin) == hash(g)
    assert len({g, twin}) == 1
    assert str(g) == f"{g.lead.text()} - {g.trail.text()}"
    assert str(g) == "T[0,1]*T[1,2] - T[0,2]*T[1,1]"
    with pytest.raises(AttributeError):
        g.lead = g.trail


def test_confluence_report_record(tower4):
    report = confluence_check(build_basis(tower4))
    assert type(report)._fields == (
        "pairs_total", "pairs_reduced", "failures",
        "max_reduction_length", "normal_forms")
    assert report.pairs_skipped == report.pairs_total - report.pairs_reduced
    assert report.confluent
    broken = type(report)(10, 4, ((0, 1),), 2, 5)
    assert (broken.pairs_skipped, broken.confluent) == (6, False)
    with pytest.raises(AttributeError):
        report.failures = ()


# --------------------------------------------------------- s-polynomials

def test_s_polynomial_frozen(tower4):
    basis = build_basis(tower4)
    by_lead = {g.lead: g for g in basis}
    g1 = by_lead[T((1, 3), (1, 4))]
    g2 = by_lead[T((1, 3), (1, 7))]
    assert g2.trail == T((1, 2), (1, 8))
    spoly = s_polynomial(g1, g2)
    assert spoly == P("T[1,2]*T[1,4]*T[1,8] - T[1,2]*T[1,5]*T[1,7]")
    assert not normal_form(spoly, basis)
    assert not s_polynomial(g1, g1)


def test_confluence_small_family():
    fam = build_family({
        "mode": "rees", "variables": 4,
        "levels": [{"degree": 2, "borel": "x3*x4"}]})
    basis = build_basis(fam)
    report = confluence_check(basis)
    assert report.confluent
    assert report.pairs_total == len(basis) * (len(basis) - 1) // 2
    assert report.pairs_reduced + report.pairs_skipped == report.pairs_total
    assert report.max_reduction_length >= 1


def _sabotaged(basis):
    # point one trail at a wrong monomial of matching shape
    g = basis[0]
    return (MarkedBinomial(g.lead, T((4, 1), (4, 1))),) + basis[1:]


def test_confluence_fails_with_sabotaged_trail(tower4):
    report = confluence_check(_sabotaged(build_basis(tower4)))
    assert not report.confluent


def test_confluence_agrees_with_all_spairs(tower4, fiber_pair):
    basis = build_basis(tower4)
    dropped = tuple(g for g in basis if g.lead != T((0, 1), (1, 2)))
    assert len(dropped) == len(basis) - 1
    cases = [(basis, True), (build_basis(fiber_pair), True),
             (dropped, False), (_sabotaged(basis), False)]
    for case, want in cases:
        report = confluence_check(case)
        confluent, failures = confluent_by_all_spairs(case)
        assert report.confluent == confluent == want
        assert set(report.failures) <= set(failures)


def _single_rule_drops(basis):
    return [basis[:k] + basis[k + 1:] for k in range(len(basis))]


def test_confluence_matches_reference(tower4, maxpowers3, fiber_pair,
                                      bench_families):
    """The memoized check returns the whole report of the un-memoized
    reference, failures, lengths and monomial count included."""
    t4 = build_basis(tower4)
    mp3 = build_basis(maxpowers3)
    cases = [t4, mp3, build_basis(fiber_pair), _sabotaged(t4),
             tuple(g for g in t4 if g.lead != T((0, 1), (1, 2)))]
    for name in ("max4_3", "max4_4"):
        cases.append(build_basis(build_family(bench_families.LADDER[name])))
    cases += _single_rule_drops(t4) + _single_rule_drops(mp3)
    assert len(cases) == 7 + 104 + 121
    broken = 0
    for basis in cases:
        report = confluence_check(basis)
        assert report == confluence_by_chains(basis)
        broken += not report.confluent
    # the sabotaged and dropped bases, and 6 + 2 drops that leave a
    # confluent basis of a smaller ideal
    assert broken == 2 + (104 - 6) + (121 - 2)


@pytest.mark.parametrize("max_steps", range(6))
def test_step_cap_through_memo_hits(tower4, maxpowers3, max_steps,
                                    monkeypatch):
    # a chain that ends on a memoized monomial still counts the steps
    # left from there against the cap
    monkeypatch.setattr(reduction, "DEFAULT_STEP_CAP", max_steps)
    raised = 0
    for fam in (tower4, maxpowers3):
        basis = build_basis(fam)
        try:
            want = confluence_by_chains(basis, max_steps)
        except InternalInvariantError:
            with pytest.raises(InternalInvariantError):
                confluence_check(basis)
            raised += 1
            continue
        assert confluence_check(basis) == want
    # both bases reach length 4, so caps 0..3 raise and 4, 5 do not
    assert raised == (2 if max_steps < 4 else 0)
    # normal_form keeps one memo per call: the second term starts one
    # step before the first, so it walks one step into a memo hit
    basis = build_basis(tower4)
    rules = rules_by_lead(basis)
    chain = next(c for c in (rewrite_chain(refs, rules) for refs
                             in combinations_with_replacement(
                                 tower4.refs(), 3))
                 if len(c) == 5)
    f = TPolynomial([(TMonomial(chain[1]), 1), (TMonomial(chain[0]), 1)])
    if max_steps < 4:
        with pytest.raises(InternalInvariantError):
            normal_form(f, basis)
    else:
        assert normal_form(f, basis) == \
            TPolynomial.monomial(TMonomial(chain[-1]), 2)


@pytest.mark.parametrize("case", ["tower4", "maxpowers3", "tower4-drop17"])
def test_normal_form_walk_matches_reference_chain(tower4, maxpowers3, case):
    """``_normal_form`` against the un-memoized chain, on two confluent
    bases and on tower4 without rule 17, which is not confluent."""
    fam = maxpowers3 if case == "maxpowers3" else tower4
    basis = build_basis(fam)
    if case == "tower4-drop17":
        basis = basis[:17] + basis[18:]
    assert confluence_check(basis).confluent == (case != "tower4-drop17")
    index = _RuleIndex(basis, fam.refs())
    rules = rules_by_lead(basis)
    rng = random.Random(59)
    shared = {}
    for _ in range(300):
        refs = TMonomial(
            rng.choices(fam.refs(), k=rng.randint(1, 6))).refs
        chain = [index.positions(r) for r in rewrite_chain(refs, rules)]
        want = (chain[-1], len(chain) - 1)
        fresh = {}
        assert _normal_form(chain[0], index, fresh) == want
        assert fresh == {r: (chain[-1], len(chain) - 1 - k)
                         for k, r in enumerate(chain)}
        assert _normal_form(chain[0], index, shared) == want


def _outcome(fn, *args):
    """What fn returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except (ValueError, InternalInvariantError) as exc:
        return type(exc), str(exc)


def _kernel_walk(index, ps):
    """(normal form, steps, walk memo) of one monomial from a fresh
    memo."""
    memo = {}
    return (*_normal_form(ps, index, memo), memo)


def _reference_walk(rules, refs, positions):
    """The same from ``rewrite_chain``, in the index's positions."""
    chain = [positions(r) for r in rewrite_chain(refs, rules)]
    return (chain[-1], len(chain) - 1,
            {r: (chain[-1], len(chain) - 1 - k) for k, r in enumerate(chain)})


def _walks_outcome(basis, fam, monomials):
    """Each monomial's walk by the kernel next to its reference chain,
    or the message both raise when the basis has no index."""
    try:
        index = _RuleIndex(basis, fam.refs())
    except ValueError as exc:
        # every walk raises this, as the reference does
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            rules_by_lead(basis)
        return "no index"
    rules = rules_by_lead(basis)
    raised = 0
    for refs in monomials:
        got = _outcome(_kernel_walk, index, index.positions(refs))
        assert got == _outcome(_reference_walk, rules, refs, index.positions)
        raised += isinstance(got[0], type)
    return raised


def _up_to_degree_3(fam):
    return [refs for d in (1, 2, 3)
            for refs in combinations_with_replacement(fam.refs(), d)]


@pytest.mark.parametrize("name", ["tower4", "maxpowers3", "fiber_pair"])
def test_kernel_matches_reference_chains(name, request):
    """The position kernel against ``rewrite_chain``, which rewrites ref
    tuples from the definition, on every T-monomial up to degree 3:
    normal form, steps and the walk's memo agree."""
    fam = request.getfixturevalue(name)
    assert _walks_outcome(build_basis(fam), fam, _up_to_degree_3(fam)) == 0


def test_kernel_matches_reference_on_changed_rules(tower4):
    """The same on every single-rule drop and every flipped rule of
    tower4, on each T-monomial up to degree 3 that the rule's lead or
    trail divides: a walk from any other monomial differs from the
    basis's only once it reaches one of these.  On the flipped rules
    ``confluence_check`` also returns the whole report of
    ``confluence_by_chains``, or raises the same message.  (The drops'
    reports are compared in ``test_confluence_matches_reference``.)"""
    basis = build_basis(tower4)
    monomials = _up_to_degree_3(tower4)
    outcomes = Counter()
    for k, g in enumerate(basis):
        touched = [refs for refs in monomials
                   if any(all(refs.count(r) >= part.count(r) for r in part)
                          for part in (g.lead.refs, g.trail.refs))]
        assert len(touched) >= 2
        dropped = basis[:k] + basis[k + 1:]
        flipped = (basis[:k] + (MarkedBinomial(g.trail, g.lead),)
                   + basis[k + 1:])
        assert _walks_outcome(dropped, tower4, touched) == 0
        walks = _walks_outcome(flipped, tower4, touched)
        report = _outcome(confluence_check, flipped)
        assert report == _outcome(confluence_by_chains, flipped)
        outcomes[walks if walks == "no index" else walks > 0,
                 report[0] if isinstance(report[0], type)
                 else report.confluent] += 1
    # (some walk raised, the report): 7 flipped leads are squares, 80
    # flips make a critical pair's rewrite cycle, 2 more a walk's, and
    # 15 leave a confluent basis
    assert outcomes == {("no index", ValueError): 7,
                        (True, InternalInvariantError): 80,
                        (True, False): 2, (False, True): 15}


def test_refs_outside_every_rule(fiber_pair):
    """fiber_pair has one rule, on level-1 refs: a monomial of level-2
    refs, and the empty monomial, are their own normal forms."""
    basis = build_basis(fiber_pair)
    for text in ("T[2,1]*T[2,2]", "T[2,2]^3", "T[0,1]^0",
                 "T[2,1] - 2*T[1,2]*T[2,2]"):
        f = P(text)
        assert normal_form(f, basis) == f
        assert reduce_step(f, basis) is None
        trace = traced_normal_form(f, basis, fiber_pair)
        assert (trace.steps, trace.normal_form) == ((), f)
    # refs outside the rules on a rewritten monomial stay put
    f = P("T[1,1]*T[1,4]*T[2,2]")
    assert normal_form(f, basis) == P("T[1,2]*T[1,3]*T[2,2]")
    assert traced_normal_form(f, basis, fiber_pair).normal_form == \
        normal_form(f, basis)


def test_reductions_on_one_basis_share_one_index(tower4, fiber_pair,
                                                 monkeypatch):
    """The last basis's rule index serves every call on equal rules that
    it has a position for; other rules, or a ref it lacks, build one."""
    built = []

    class Counted(reduction._RuleIndex):
        __slots__ = ()

        def __init__(self, *args):
            built.append(len(args[0]))
            super().__init__(*args)

    monkeypatch.setattr(reduction, "_RuleIndex", Counted)
    monkeypatch.setattr(reduction, "_last_index", None)
    basis = list(build_basis(tower4))
    f = P("T[1,3]*T[1,4] - T[0,1]*T[1,2]*T[2,7]")
    want = normal_form(f, basis)
    assert normal_form(f, build_basis(tower4)) == want
    assert reduce_step(f, basis) is not None
    assert traced_normal_form(f, tuple(basis), tower4).normal_form == want
    assert built == [104]
    # a list mutated in place is read again: T[1,3]*T[1,4] now stays
    lead = P("T[1,3]*T[1,4]").support()[0]
    basis[:] = [g for g in basis if g.lead != lead]
    assert lead in normal_form(f, basis).terms
    assert built == [104, 103]
    # fiber_pair's one rule has no position for T[2,1] until a
    # polynomial brings it
    one = build_basis(fiber_pair)
    for text in ("T[1,1]*T[1,4]", "T[1,1]*T[2,1]", "T[1,4]*T[2,1]^2"):
        normal_form(P(text), one)
    assert built == [104, 103, 1, 1]


def _overlapping_pairs(basis):
    leads = [frozenset(g.lead.refs) for g in basis]
    return sum(1 for i, a in enumerate(leads) for b in leads[i + 1:]
               if not a.isdisjoint(b))


@pytest.mark.parametrize("top, total, overlapping", [
    (3, 90525, 9932),
    (4, 1813560, 103047),
])
def test_confluence_reaches_max_powers(top, total, overlapping):
    fam = build_family({
        "mode": "rees", "variables": 4,
        "levels": [{"degree": d, "borel": f"x4^{d}"}
                   for d in range(1, top + 1)]})
    basis = build_basis(fam)
    assert len(basis) * (len(basis) - 1) // 2 == total
    assert _overlapping_pairs(basis) == overlapping
    report = confluence_check(basis)
    assert (report.pairs_total, report.pairs_reduced) == (total, overlapping)
    assert report.pairs_skipped == total - overlapping
    assert report.confluent


def test_critical_pair_cap(tower4, monkeypatch):
    basis = build_basis(tower4)
    # the cap is inclusive: tower4 has 1,017 critical pairs
    monkeypatch.setattr(reduction, "CRITICAL_PAIR_CAP", 1017)
    assert confluence_check(basis).pairs_reduced == 1017
    monkeypatch.setattr(reduction, "CRITICAL_PAIR_CAP", 1016)
    with pytest.raises(ResourceCapError, match="1017 critical pairs"):
        confluence_check(basis)


def test_kernel_membership(tower4):
    basis = build_basis(tower4)
    assert not normal_form(P("T[1,3]*T[1,4] - T[1,2]*T[1,5]"), basis)
    assert normal_form(P("T[1,3]*T[1,4] - T[1,2]*T[1,2]"), basis)
    assert not normal_form(TPolynomial(), basis)
