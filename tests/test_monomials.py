from __future__ import annotations

import random
import re
from itertools import combinations_with_replacement

import pytest

from reescert import monomials
from reescert.monomials import (
    Monomial,
    _borel_count,
    _borel_factors,
    borel_closure,
    borel_member,
    borel_size,
    ord_factors,
    ord_pair,
    parse_monomial,
    parse_terms,
    sort_factors,
    sort_pair,
)
from reescert.errors import MonomialParseError, ResourceCapError

from bruteforce import (
    borel_closure_by_filter,
    borel_count_by_two_reversals,
    borel_closure_by_moves,
    from_factors,
    order_by_exponents,
    product,
    rand_monomial,
    revlex_gt_by_factors,
    revlex_key,
    sort_closed_form,
)


def M(text, n=4):
    return parse_monomial(text, n)


# ---------------------------------------------------------------- parsing

def test_parse_round_trip():
    for text in ["1", "x1", "x3*x4", "x1^2*x3", "x2^2*x3", "x1^5", "x1*x2^2"]:
        m = M(text)
        assert m.text() == text
        assert M(m.text()) == m


def test_parse_accepts_whitespace_and_merges_repeats():
    assert M(" x1 * x3 ") == M("x1*x3")
    assert M("x3*x1*x3") == M("x1*x3^2")


def test_parse_rejects_garbage():
    for bad in ["", "y1", "x0", "x5", "x1^", "x1^-2", "x1+x2", "x", "xx1",
                "x1*", "x1**x2"]:
        with pytest.raises(MonomialParseError):
            M(bad)


def test_factors_and_ends():
    m = M("x1^2*x3")
    assert m.factors() == (1, 1, 3)
    assert m.head_index() == 1
    assert m.tail_index() == 3
    assert m.degree == 3
    assert M("1").factors() == ()


def test_monomial_checks_and_repr():
    for bad in ((), (1, -1)):
        with pytest.raises(ValueError):
            Monomial(bad)
    # a number int() would truncate is refused, named; an integral one
    # is taken as an int
    for exps, bad in (((1.5, 0), "1.5"), ((0, 2, 0.25), "0.25")):
        with pytest.raises(ValueError, match=f"^{re.escape(bad)} is not"):
            Monomial(exps)
    exps = Monomial((2.0, True, 0)).exps
    assert exps == (2, 1, 0) and set(map(type, exps)) == {int}
    m = Monomial([2, 0, 1])
    with pytest.raises(AttributeError):
        m.exps = (1, 1, 1)
    with pytest.raises(ValueError, match="out of range 1..3"):
        Monomial.variable(0, 3)
    for end in (M("1").head_index, M("1").tail_index):
        with pytest.raises(ValueError, match="no factors"):
            end()
    with pytest.raises(ValueError, match="variable counts differ"):
        borel_member(M("x1", 3), M("x1", 4))
    # error messages format monomials with str, and sets hold them
    assert (str(m), repr(m)) == ("x1^2*x3", "Monomial('x1^2*x3', n=3)")
    assert {m, Monomial((2, 0, 1))} == {m}


# ----------------------------------------------------------------- revlex

def test_revlex_degree_dominates():
    assert revlex_key(M("x4^3")) > revlex_key(M("x1^2"))
    assert revlex_key(M("x1")) < revlex_key(M("x1*x2"))


def test_revlex_frozen_chain_degree_two():
    # full descending order of the degree-2 monomials missing x4^2
    chain = ["x1^2", "x1*x2", "x2^2", "x1*x3", "x2*x3", "x3^2",
             "x1*x4", "x2*x4", "x3*x4"]
    monos = [M(t) for t in chain]
    for a, b in zip(monos, monos[1:]):
        assert revlex_key(a) > revlex_key(b)
    assert sorted(monos, key=revlex_key, reverse=True) == monos


def test_revlex_total_order_on_fixed_degree():
    from itertools import combinations_with_replacement
    monos = [from_factors(f, 4)
             for f in combinations_with_replacement(range(1, 5), 3)]
    ranked = sorted(monos, key=revlex_key)
    for a, b in zip(ranked, ranked[1:]):
        assert revlex_key(a) < revlex_key(b)
    assert len(set(ranked)) == len(ranked)


def test_revlex_agrees_with_factorization_definition():
    rng = random.Random(20260822)
    for _ in range(10_000):
        n = rng.randint(1, 6)
        u = rand_monomial(rng, n, rng.randint(0, 5))
        v = rand_monomial(rng, n, rng.randint(0, 5))
        assert (revlex_key(u) > revlex_key(v)) == revlex_gt_by_factors(u, v)
        assert (revlex_key(v) > revlex_key(u)) == revlex_gt_by_factors(v, u)


# ----------------------------------------------------------- ord and sort

def test_ord_worked_rewrites():
    assert ord_pair(M("x1^2*x3"), M("x2*x3*x4")) == (M("x3^2*x4"), M("x1^2*x2"))
    assert ord_pair(M("x2"), M("x1^3")) == (M("x2"), M("x1^3"))
    assert ord_pair(M("x1"), M("x2^2*x3")) == (M("x3"), M("x1*x2^2"))


def test_sort_worked_rewrites():
    assert sort_pair(M("x1^2*x3"), M("x2*x3*x4")) == (M("x1*x2*x3"), M("x1*x3*x4"))
    assert sort_pair(M("x2^2"), M("x1*x3")) == (M("x1*x2"), M("x2*x3"))
    assert sort_pair(M("x1^2"), M("x2^2")) == (M("x1*x2"), M("x1*x2"))


def test_ord_rejects_degree_mismatch():
    with pytest.raises(ValueError):
        ord_pair(M("x1^2"), M("x1"))
    with pytest.raises(ValueError):
        sort_pair(M("x1^2"), M("x1"))


def test_ord_postconditions_random():
    rng = random.Random(7)
    for _ in range(2000):
        n = rng.randint(1, 6)
        p = rng.randint(1, 4)
        q = rng.randint(p, 5)
        u = rand_monomial(rng, n, p)
        v = rand_monomial(rng, n, q)
        a, b = ord_pair(u, v)
        assert product(a, b) == product(u, v)
        assert (a.degree, b.degree) == (p, q)
        # every variable of a sits at or below every variable of b
        assert a.head_index() >= b.tail_index()
        assert ord_pair(a, b) == (a, b)


def test_sort_postconditions_random():
    rng = random.Random(8)
    for _ in range(2000):
        n = rng.randint(1, 6)
        d = rng.randint(1, 5)
        u = rand_monomial(rng, n, d)
        v = rand_monomial(rng, n, d)
        a, b = sort_pair(u, v)
        assert product(a, b) == product(u, v)
        assert revlex_key(a) >= revlex_key(b)
        assert sort_pair(a, b) == (a, b)


def test_sort_matches_closed_form():
    rng = random.Random(9)
    for _ in range(10_000):
        n = rng.randint(1, 6)
        d = rng.randint(1, 5)
        u = rand_monomial(rng, n, d)
        v = rand_monomial(rng, n, d)
        assert sort_pair(u, v) == sort_closed_form(u, v)


def test_factor_rewrites_match_monomial_rewrites():
    """``sort_factors`` and ``ord_factors`` equal the per-variable
    references ``sort_closed_form`` and ``order_by_exponents``, read as
    factorizations."""
    rng = random.Random(13)
    for _ in range(5000):
        n = rng.randint(1, 6)
        p = rng.randint(0, 5)
        q = rng.randint(p, 6)
        u = rand_monomial(rng, n, p)
        v = rand_monomial(rng, n, q)
        w = rand_monomial(rng, n, p)
        assert ord_factors(u.factors(), v.factors()) == tuple(
            m.factors() for m in order_by_exponents(u, v))
        assert sort_factors(u.factors(), w.factors()) == tuple(
            m.factors() for m in sort_closed_form(u, w))


def test_exponent_dealing_matches_factor_rewrites():
    """``sort_pair`` and ``ord_pair`` rewrite on factorizations; on
    12,000 seeded pairs in 1..8 variables, a third of them of equal
    degrees, they equal the references that deal exponent vectors,
    ``sort_closed_form`` and ``order_by_exponents``, each image a tuple
    of ints with its true degree."""
    rng = random.Random(20261019)
    for k in range(12_000):
        n = rng.randint(1, 8)
        p = rng.randint(0, 6)
        q = p if k % 3 == 0 else rng.randint(p, 7)
        u = rand_monomial(rng, n, p)
        v = rand_monomial(rng, n, q)
        w = rand_monomial(rng, n, p)
        for got, want in ((ord_pair(u, v), order_by_exponents(u, v)),
                          (sort_pair(u, w), sort_closed_form(u, w))):
            assert got == want
            for m in got:
                assert type(m.exps) is tuple and m.degree == sum(m.exps)
                assert all(type(e) is int for e in m.exps)


def test_pair_rewrite_messages():
    for rewrite in (ord_pair, sort_pair):
        with pytest.raises(ValueError, match=r"\Avariable counts differ\Z"):
            rewrite(M("x1^2", 2), M("x1", 3))
    with pytest.raises(ValueError) as err:
        ord_pair(M("x1^2"), M("x1"))
    assert str(err.value) == "ord_pair needs deg(u) <= deg(v), got 2 > 1"
    with pytest.raises(ValueError) as err:
        sort_pair(M("x1^2"), M("x1"))
    assert str(err.value) == "sort_pair needs equal degrees, got 2 != 1"


def test_sort_stays_inside_borel_set():
    rng = random.Random(10)
    for _ in range(500):
        n = rng.randint(2, 5)
        d = rng.randint(1, 4)
        gen = rand_monomial(rng, n, d)
        members = borel_closure(gen)
        u = rng.choice(members)
        v = rng.choice(members)
        a, b = sort_pair(u, v)
        assert borel_member(a, gen) and borel_member(b, gen)


# ------------------------------------------------------------- borel sets

def test_borel_closure_frozen_tables():
    assert [m.text() for m in borel_closure(M("x3*x4"))] == [
        "x1^2", "x1*x2", "x2^2", "x1*x3", "x2*x3", "x3^2",
        "x1*x4", "x2*x4", "x3*x4"]
    assert [m.text() for m in borel_closure(M("x2^2*x3"))] == [
        "x1^3", "x1^2*x2", "x1*x2^2", "x2^3", "x1^2*x3", "x1*x2*x3",
        "x2^2*x3"]
    assert [m.text() for m in borel_closure(M("x1*x2^2"))] == [
        "x1^3", "x1^2*x2", "x1*x2^2"]
    assert [m.text() for m in borel_closure(M("x1^5"))] == ["x1^5"]


def test_borel_member_frozen():
    assert not borel_member(M("x4^2"), M("x3*x4"))
    assert borel_member(M("x1^2*x4"), M("x2*x3*x4"))
    assert borel_member(M("x2*x3^2"), M("x2*x3*x4"))
    assert not borel_member(M("x1^2*x4"), M("x2*x3^2"))
    assert not borel_member(M("x1*x2"), M("x1*x2^2"))  # degree mismatch


def test_borel_member_matches_move_closure():
    """On 200 seeded generators in up to 5 variables, of degree up to 4,
    ``borel_member`` accepts exactly the members of the closure under
    single moves, among every monomial of the generator's degree."""
    rng = random.Random(32)
    for _ in range(200):
        n = rng.randint(1, 5)
        gen = rand_monomial(rng, n, rng.randint(0, 4))
        closure = borel_closure_by_moves(gen)
        for fact in combinations_with_replacement(range(1, n + 1),
                                                  gen.degree):
            m = from_factors(fact, n)
            assert borel_member(m, gen) == (m in closure), (m, gen)


def test_borel_closure_matches_move_closure():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 5)
        d = rng.randint(1, 4)
        gen = rand_monomial(rng, n, d)
        ours = borel_closure(gen)
        assert set(ours) == borel_closure_by_moves(gen)
        assert len(set(ours)) == len(ours)
        assert ours[0] == parse_monomial(f"x1^{d}", n)
        assert ours[-1] == gen
        for a, b in zip(ours, ours[1:]):
            assert revlex_key(a) > revlex_key(b)


def test_borel_closure_matches_filter():
    rng = random.Random(14)
    for _ in range(400):
        n = rng.randint(1, 6)
        d = rng.randint(0, 6)
        gen = rand_monomial(rng, n, d)
        assert borel_closure(gen) == borel_closure_by_filter(gen)
        assert (borel_size(gen) == _borel_count(gen.exps)
                == len(borel_closure_by_filter(gen)))


def test_borel_count_matches_the_two_reversal_dp():
    """The DP that keeps its table last entry first counts as the one
    that reversed it twice per variable, on seeded exponent vectors,
    pure powers and single variables, uncapped and capped below, at and
    above the count: exact up to the cap, over it past that."""
    rng = random.Random(40)
    vectors = [tuple(rng.randint(0, 5) for _ in range(rng.randint(1, 7)))
               for _ in range(600)]
    vectors += [tuple(e if k == i else 0 for k in range(n))
                for n in range(1, 8) for i in range(n) for e in (0, 1, 5)]
    for exps in vectors:
        count = borel_count_by_two_reversals(exps)
        assert _borel_count(exps) == count, exps
        for cap in (count - 1, count, count + 1):
            capped = _borel_count(exps, cap)
            assert capped == borel_count_by_two_reversals(exps, cap), exps
            assert (capped == count) if cap >= count else (capped > cap), exps


def test_borel_factors_match_the_closure():
    """The pair scan's enumerator lists ``borel_closure``'s members as
    factorizations, in the same order."""
    def closure_factors(gen):
        return tuple(m.factors() for m in borel_closure(gen))

    rng = random.Random(30)
    for _ in range(400):
        n = rng.randint(1, 7)
        gen = rand_monomial(rng, n, rng.randint(0, 7))
        assert _borel_factors(gen) == closure_factors(gen), gen
    # level 0 of a rees family, a one-variable level, and long factors
    # in two variables
    for text, n in (("x7", 7), ("x1^5", 1), ("x2^1000", 2),
                    ("x1*x2^999", 2)):
        gen = parse_monomial(text, n)
        assert _borel_factors(gen) == closure_factors(gen), text
    assert _borel_factors(parse_monomial("x7", 7)) == tuple(
        (i,) for i in range(1, 8))
    assert len(_borel_factors(parse_monomial("x2^1000", 2))) == 1001
    assert _borel_factors(parse_monomial("x1*x2^999", 2))[-1] == (
        (1,) + (2,) * 999)


def test_borel_closure_cap(monkeypatch):
    # C(29, 10) = 20,030,010 members: refused before any is built
    with pytest.raises(ResourceCapError, match="more than 100000"):
        borel_closure(parse_monomial("x20^10", 20))
    with pytest.raises(ResourceCapError, match="more than 100000"):
        borel_size(parse_monomial("x20^10", 20))
    # the count alone is uncapped
    assert _borel_count(parse_monomial("x20^10", 20).exps) == 20030010
    with pytest.raises(ResourceCapError):
        borel_closure(parse_monomial(f"x2^{10**5}", 2))
    # the cap is inclusive: x3*x4 in four variables has 9 members
    monkeypatch.setattr(monomials, "BOREL_CAP", 9)
    assert len(borel_closure(M("x3*x4"))) == borel_size(M("x3*x4")) == 9
    monkeypatch.setattr(monomials, "BOREL_CAP", 8)
    with pytest.raises(ResourceCapError):
        borel_closure(M("x3*x4"))
    with pytest.raises(ResourceCapError):
        borel_size(M("x3*x4"))
    # x1^(d-t)*x2^t, t = 0..d, in two variables
    monkeypatch.setattr(monomials, "BOREL_CAP", 3)
    assert len(borel_closure(parse_monomial("x2^2", 2))) == 3
    with pytest.raises(ResourceCapError):
        borel_closure(parse_monomial("x2^3", 2))


def test_borel_closure_walks_a_long_two_variable_set():
    """B(x2^99999) in two variables, a set at the cap, is its 100,000
    members x1^(d-t)*x2^t in order.  ``borel_closure`` walks exponent
    vectors, two entries a member; built from factorizations, the set
    would hold about 5 * 10^9 factors."""
    d = 99_999
    gen = parse_monomial(f"x2^{d}", 2)
    members = borel_closure(gen)
    assert len(members) == 100_000
    assert members[0] == parse_monomial(f"x1^{d}", 2)
    assert members[-1] == gen
    assert all(m.exps == (d - t, t) for t, m in enumerate(members))


def test_parse_terms_is_the_sparse_parse():
    assert parse_terms("x2*x1*x2", 3) == {2: 2, 1: 1}
    assert parse_terms("x1^0*x3", 3) == {3: 1}
    assert parse_terms(" 1 ", 3) == {}
    for text in ("x2*x1*x2", "x1^0*x3", "1", "x3^4*x1"):
        terms = parse_terms(text, 3)
        exps = parse_monomial(text, 3).exps
        assert terms == {i: e for i, e in enumerate(exps, start=1) if e}
    with pytest.raises(MonomialParseError):
        parse_terms("x4", 3)
    with pytest.raises(MonomialParseError):
        parse_terms("x1", 0)


def test_borel_nesting():
    rng = random.Random(12)
    for _ in range(200):
        n = rng.randint(2, 5)
        d = rng.randint(1, 4)
        outer = rand_monomial(rng, n, d)
        inner = rng.choice(borel_closure(outer))
        assert set(borel_closure(inner)) <= set(borel_closure(outer))
