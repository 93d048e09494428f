"""Monomials in K[x1..xn] with the order x1 > x2 > ... > xn.

A monomial is stored as its exponent vector.  Its standard factorization
lists the variables with multiplicity in ascending index order, which is
descending variable order; the first factor is the greatest variable
occurring, the last factor the least.  The sorting and ordering rewrites
work on standard factorizations (``sort_factors``, ``ord_factors``);
``sort_pair`` and ``ord_pair`` are their checked wrappers on
``Monomial`` pairs.  The Borel suffix-dominance test, ``borel_size``,
which counts a Borel set without building it, and ``borel_closure``,
which generates one directly, live here too; both refuse a set of more
than ``BOREL_CAP`` members.  Everything downstream is built on them.
"""

from __future__ import annotations

import re
from itertools import accumulate

from .errors import MonomialParseError, ResourceCapError

_TERM_RE = re.compile(r"x(\d+)(?:\^(-?\d+))?\Z")

# Largest Borel set ``borel_closure`` builds (bset, family levels).
BOREL_CAP = 10**5


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

    @classmethod
    def _of_exps(cls, exps: tuple, degree: int) -> "Monomial":
        """The monomial of a tuple of non-negative ints summing to
        ``degree``, taken as it is: no conversion, no check.  For callers
        that build valid exponents themselves; user input goes through
        the constructor."""
        mono = object.__new__(cls)
        object.__setattr__(mono, "exps", exps)
        object.__setattr__(mono, "degree", degree)
        return mono

    def __setattr__(self, name, value):
        raise AttributeError("Monomial is immutable")

    @property
    def n(self) -> int:
        return len(self.exps)

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
        return cls._of_exps(tuple(exps), sum(exps))

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


def parse_terms(text: str, n: int) -> dict[int, int]:
    """The exponents of ``x3*x4``, ``x1^2*x3`` or ``1`` in n variables,
    by variable index, zero ones left out.  Allocates nothing of size n,
    so a family can be counted before any of its monomials is built."""
    if n < 1:
        raise MonomialParseError("need at least one variable")
    s = text.strip()
    if not s:
        raise MonomialParseError("empty monomial text")
    terms: dict[int, int] = {}
    if s == "1":
        return terms
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
        if exp:
            terms[idx] = terms.get(idx, 0) + exp
    return terms


def monomial_of_terms(terms: dict[int, int], n: int) -> Monomial:
    """The monomial in n variables of a ``parse_terms`` result."""
    exps = [0] * n
    for idx, exp in terms.items():
        exps[idx - 1] = exp
    return Monomial._of_exps(tuple(exps), sum(terms.values()))


def parse_monomial(text: str, n: int) -> Monomial:
    """Parse ``x3*x4``, ``x1^2*x3``, or ``1`` into a monomial in n variables."""
    return monomial_of_terms(parse_terms(text, n), n)


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


def sort_factors(fu: tuple[int, ...], fv: tuple[int, ...]):
    """Sorting rewrite on two standard factorizations of equal length:
    merge them and deal the factors alternately, odd positions to the
    first output, even to the second."""
    fact = sorted(fu + fv)
    return tuple(fact[0::2]), tuple(fact[1::2])


def ord_factors(fu: tuple[int, ...], fv: tuple[int, ...]):
    """Ordering rewrite on two standard factorizations, len(fu) <= len(fv):
    merge them; the first len(fv) factors make the second output, the
    rest the first."""
    fact = sorted(fu + fv)
    q = len(fv)
    return tuple(fact[q:]), tuple(fact[:q])


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
    low, high = ord_factors(u.factors(), v.factors())
    return Monomial.from_factors(low, u.n), Monomial.from_factors(high, u.n)


def sort_pair(u: Monomial, v: Monomial) -> tuple[Monomial, Monomial]:
    """Sorting rewrite for equal degrees: deal the factors of u*v
    alternately, odd positions to the first output, even to the second."""
    if u.n != v.n:
        raise ValueError("variable counts differ")
    if u.degree != v.degree:
        raise ValueError(
            f"sort_pair needs equal degrees, got {u.degree} != {v.degree}")
    first, second = sort_factors(u.factors(), v.factors())
    return (Monomial.from_factors(first, u.n),
            Monomial.from_factors(second, u.n))


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


def _suffix_masses(exps) -> list[int]:
    """``bound[k]``: the exponent mass on x_(k+1)..x_n, 0-based k, with
    ``bound[n] = 0``."""
    bound = [0] * (len(exps) + 1)
    for k in range(len(exps) - 1, -1, -1):
        bound[k] = bound[k + 1] + exps[k]
    return bound


def borel_size(generator: Monomial) -> int:
    """Number of members of the Borel set of ``generator``, counted
    without building any.  Raises ``ResourceCapError`` when it is more
    than ``BOREL_CAP``.

    With ``bound`` the generator's suffix masses, ``ways[s]`` counts the
    exponent choices on x_2..x_(k+1) once mass s sits on x_(k+2)..x_n;
    ``ways[0]`` then counts the members on x1..x_(k+1), a subset of the
    whole set, so the count stops once that is over the cap.
    """
    bound = _suffix_masses(generator.exps)
    if bound[1] >= BOREL_CAP:  # x1^(d-t)*x2^t for t = 0..bound[1]
        size = bound[1] + 1
    else:
        ways = [1] * (bound[1] + 1)
        for k in range(1, len(bound) - 1):
            ways = list(accumulate(reversed(ways)))[::-1][:bound[k + 1] + 1]
            if ways[0] > BOREL_CAP:
                break
        size = ways[0]
    if size > BOREL_CAP:
        raise ResourceCapError(
            f"Borel set of {generator} has more than {BOREL_CAP} members")
    return size


def borel_closure(generator: Monomial) -> tuple[Monomial, ...]:
    """All monomials in the Borel set of ``generator``, revlex descending.

    The first element is always x1^d, the last is the generator itself.
    Members are generated directly: revlex descending order is ascending
    order of the exponents read from x_n down to x_2, and each exponent
    is bounded by the generator's suffix mass from its variable on, less
    what the later variables hold.  Raises ``ResourceCapError`` before
    building any member when the set has more than ``BOREL_CAP``.
    """
    borel_size(generator)
    d, n = generator.degree, generator.n
    bound = _suffix_masses(generator.exps)
    of_exps = Monomial._of_exps
    current = [d] + [0] * (n - 1)
    members = [of_exps(tuple(current), d)]
    while True:
        # lexicographic successor of (e_n, ..., e_2): raise the first
        # exponent from x_2 up that has room, clear the ones below it
        below = 0
        for k in range(1, n):
            mass = d - current[0] - below  # on x_(k+1)..x_n, k 0-based
            if mass < bound[k]:
                current[k] += 1
                current[1:k] = [0] * (k - 1)
                current[0] = d - mass - 1
                break
            below += current[k]
        else:
            return tuple(members)
        members.append(of_exps(tuple(current), d))
