"""Monomials in K[x1..xn] with the order x1 > x2 > ... > xn.

A monomial is stored as its exponent vector.  Its standard factorization
lists the variables with multiplicity in ascending index order, which is
descending variable order; the first factor is the greatest variable
occurring, the last factor the least.  The sorting and ordering rewrites
(``sort_pair``, ``ord_pair``) and the Borel suffix-dominance test live
here; everything downstream is built on them.
"""

from __future__ import annotations

import re
from itertools import combinations_with_replacement

from .errors import MonomialParseError

_TERM_RE = re.compile(r"x(\d+)(?:\^(-?\d+))?\Z")


class Monomial:
    """Immutable monomial over a fixed variable count ``n``."""

    __slots__ = ("exps", "degree")

    def __init__(self, exps):
        exps = tuple(int(e) for e in exps)
        if not exps:
            raise ValueError("monomial needs at least one variable slot")
        if any(e < 0 for e in exps):
            raise ValueError(f"negative exponent in {exps}")
        object.__setattr__(self, "exps", exps)
        object.__setattr__(self, "degree", sum(exps))

    def __setattr__(self, name, value):
        raise AttributeError("Monomial is immutable")

    @property
    def n(self) -> int:
        return len(self.exps)

    @classmethod
    def one(cls, n: int) -> "Monomial":
        return cls((0,) * n)

    @classmethod
    def variable(cls, i: int, n: int) -> "Monomial":
        if not 1 <= i <= n:
            raise ValueError(f"variable index {i} out of range 1..{n}")
        return cls(tuple(1 if k == i else 0 for k in range(1, n + 1)))

    @classmethod
    def from_factors(cls, indices, n: int) -> "Monomial":
        """Build from a list of variable indices with multiplicity."""
        exps = [0] * n
        for i in indices:
            if not 1 <= i <= n:
                raise ValueError(f"variable index {i} out of range 1..{n}")
            exps[i - 1] += 1
        return cls(exps)

    def factors(self) -> tuple[int, ...]:
        """Standard factorization as variable indices, ascending.

        Ascending index order is descending variable order, so the first
        entry is the greatest variable dividing the monomial.
        """
        out = []
        for i, e in enumerate(self.exps, start=1):
            out.extend([i] * e)
        return tuple(out)

    def head_index(self) -> int:
        """Index of the greatest variable occurring (first standard factor)."""
        for i, e in enumerate(self.exps, start=1):
            if e:
                return i
        raise ValueError("the empty monomial has no factors")

    def tail_index(self) -> int:
        """Index of the least variable occurring (last standard factor)."""
        for i in range(len(self.exps), 0, -1):
            if self.exps[i - 1]:
                return i
        raise ValueError("the empty monomial has no factors")

    def __mul__(self, other: "Monomial") -> "Monomial":
        if self.n != other.n:
            raise ValueError("variable counts differ")
        return Monomial(a + b for a, b in zip(self.exps, other.exps))

    def __eq__(self, other) -> bool:
        return isinstance(other, Monomial) and self.exps == other.exps

    def __hash__(self) -> int:
        return hash(self.exps)

    def __lt__(self, other: "Monomial") -> bool:
        return revlex_cmp(self, other) < 0

    def __le__(self, other: "Monomial") -> bool:
        return revlex_cmp(self, other) <= 0

    def __gt__(self, other: "Monomial") -> bool:
        return revlex_cmp(self, other) > 0

    def __ge__(self, other: "Monomial") -> bool:
        return revlex_cmp(self, other) >= 0

    def text(self) -> str:
        if self.degree == 0:
            return "1"
        parts = []
        for i, e in enumerate(self.exps, start=1):
            if e == 1:
                parts.append(f"x{i}")
            elif e > 1:
                parts.append(f"x{i}^{e}")
        return "*".join(parts)

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"Monomial({self.text()!r}, n={self.n})"


def parse_monomial(text: str, n: int) -> Monomial:
    """Parse ``x3*x4``, ``x1^2*x3``, or ``1`` into a monomial in n variables."""
    if n < 1:
        raise MonomialParseError("need at least one variable")
    s = text.strip()
    if not s:
        raise MonomialParseError("empty monomial text")
    if s == "1":
        return Monomial.one(n)
    exps = [0] * n
    for raw in s.split("*"):
        term = raw.strip()
        m = _TERM_RE.match(term)
        if m is None:
            raise MonomialParseError(f"bad term {term!r} in {text!r}")
        try:
            idx = int(m.group(1))
            exp = 1 if m.group(2) is None else int(m.group(2))
        except ValueError:  # over Python's digit limit for int()
            raise MonomialParseError(
                f"number too long in term {term[:16]!r}...") from None
        if not 1 <= idx <= n:
            raise MonomialParseError(
                f"variable x{idx} out of range x1..x{n} in {text!r}")
        if exp < 0:
            raise MonomialParseError(f"negative exponent in term {term!r}")
        exps[idx - 1] += exp
    return Monomial(exps)


def revlex_cmp(u: Monomial, v: Monomial) -> int:
    """Graded reverse lexicographic comparison; positive when u > v.

    Degree decides first.  On equal degrees u > v exactly when the last
    nonzero entry of the exponent difference u - v is negative.
    """
    if u.n != v.n:
        raise ValueError("variable counts differ")
    if u.degree != v.degree:
        return -1 if u.degree < v.degree else 1
    for a, b in zip(reversed(u.exps), reversed(v.exps)):
        if a != b:
            return 1 if a < b else -1
    return 0


def revlex_key(u: Monomial):
    """Sort key: ascending by this key is ascending revlex order."""
    return (u.degree, tuple(-e for e in reversed(u.exps)))


def ord_pair(u: Monomial, v: Monomial) -> tuple[Monomial, Monomial]:
    """Ordering rewrite for deg(u) <= deg(v).

    Factor u*v in standard form and split: the last deg(u) factors make
    the first output, the first deg(v) factors the second.  The result
    multiplies back to u*v, keeps both degrees, and every variable of the
    first output is <= every variable of the second.
    """
    if u.n != v.n:
        raise ValueError("variable counts differ")
    p, q = u.degree, v.degree
    if p > q:
        raise ValueError(f"ord_pair needs deg(u) <= deg(v), got {p} > {q}")
    fact = (u * v).factors()
    return (Monomial.from_factors(fact[q:], u.n),
            Monomial.from_factors(fact[:q], u.n))


def sort_pair(u: Monomial, v: Monomial) -> tuple[Monomial, Monomial]:
    """Sorting rewrite for equal degrees: deal the factors of u*v
    alternately, odd positions to the first output, even to the second."""
    if u.n != v.n:
        raise ValueError("variable counts differ")
    if u.degree != v.degree:
        raise ValueError(
            f"sort_pair needs equal degrees, got {u.degree} != {v.degree}")
    fact = (u * v).factors()
    return (Monomial.from_factors(fact[0::2], u.n),
            Monomial.from_factors(fact[1::2], u.n))


def borel_member(candidate: Monomial, generator: Monomial) -> bool:
    """Suffix-dominance test for membership in the Borel set of ``generator``.

    True iff the degrees agree and for every k >= 2 the exponent mass of
    the candidate on x_k..x_n is at most that of the generator.
    """
    if candidate.n != generator.n:
        raise ValueError("variable counts differ")
    if candidate.degree != generator.degree:
        return False
    cs = vs = 0
    for k in range(candidate.n - 1, 0, -1):
        cs += candidate.exps[k]
        vs += generator.exps[k]
        if cs > vs:
            return False
    return True


def borel_closure(generator: Monomial) -> tuple[Monomial, ...]:
    """All monomials in the Borel set of ``generator``, revlex descending.

    The first element is always x1^d, the last is the generator itself.
    """
    d, n = generator.degree, generator.n
    if d == 0:
        return (generator,)
    members = [
        m
        for fact in combinations_with_replacement(range(1, n + 1), d)
        for m in (Monomial.from_factors(fact, n),)
        if borel_member(m, generator)
    ]
    members.sort(key=revlex_key, reverse=True)
    return tuple(members)
