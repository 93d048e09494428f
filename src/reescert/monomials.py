"""Monomials in K[x1..xn] with the order x1 > x2 > ... > xn.

A monomial is stored as its exponent vector.  Its standard factorization
lists the variables with multiplicity in ascending index order, which is
descending variable order; the first factor is the greatest variable
occurring, the last factor the least.  Rewriting and the Borel test work
on standard factorizations only: the sorting and ordering rewrites
(``sort_factors``, ``ord_factors``) and the componentwise Borel test
(``_factors_below``), with ``sort_pair``, ``ord_pair`` and
``borel_member`` their checked counterparts on ``Monomial`` arguments.
``borel_size``, which counts a Borel set without building it, and
``borel_closure``, which generates one directly on exponent vectors,
live here too; both refuse a set of more than ``BOREL_CAP`` members, and
``borel_closure`` also one whose members hold more than
``BOREL_ENTRY_CAP`` exponents in all.  ``_borel_factors`` lists the
standard factorizations of a Borel set in ``borel_closure``'s order,
without building a monomial, for the levels of a family.  Everything
downstream is built on them.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from itertools import accumulate
from operator import le

from .errors import MonomialParseError, ResourceCapError

# One term a match: x<index>, maybe ^<exponent>, then the "*" after it;
# any other character matches alone, with no index.
_TERMS_RE = re.compile(r"\s*(?:x(\d+)(?:\^(-?\d+))?\s*(?:\*|\Z)|.)", re.S)

# Largest Borel set ``borel_closure`` builds (bset, family levels).
BOREL_CAP = 10**5
# Most exponents, members times variables, that ``borel_closure`` keeps:
# each member holds an n-entry tuple, about 8 bytes an entry, so this is
# near 80 MB (x20*x400 in 400 variables: 7,810 members, 3.1 million).
# A counted level of a family keeps at most as many factors, members
# times degree, the same way.
BOREL_ENTRY_CAP = 10**7


def _integral(v) -> int:
    """v as an int, refusing a value that ``int`` would truncate."""
    if int(v) != v:
        raise ValueError(f"{v!r} is not an integer")
    return int(v)


class Monomial:
    """Immutable monomial over a fixed variable count ``n``."""

    __slots__ = ("exps", "degree")

    def __init__(self, exps):
        exps = tuple(map(_integral, exps))
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

    @classmethod
    def _of_factors(cls, factors: tuple, n: int) -> "Monomial":
        """The monomial in n variables of a standard factorization, taken
        as it is, like ``_of_exps``."""
        exps = [0] * n
        for i in factors:
            exps[i - 1] += 1
        return cls._of_exps(tuple(exps), len(factors))

    def __setattr__(self, name, value):
        raise AttributeError("Monomial is immutable")

    @property
    def n(self) -> int:
        return len(self.exps)

    @classmethod
    def variable(cls, i: int, n: int) -> "Monomial":
        if not 1 <= i <= n:
            raise ValueError(f"variable index {i} out of range 1..{n}")
        return cls._of_exps((0,) * (i - 1) + (1,) + (0,) * (n - i), 1)

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

    def __eq__(self, other) -> bool:
        return isinstance(other, Monomial) and self.exps == other.exps

    def __hash__(self) -> int:
        return hash(self.exps)

    def text(self) -> str:
        return "*".join(_power_parts(self.exps)) or "1"

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"Monomial({self.text()!r}, n={self.n})"


def _power_parts(exps, var: str = "x") -> list[str]:
    """``x1^2``, ``x3``, ... for the non-zero entries of an exponent
    vector in index order: joined by ``*`` they spell its monomial."""
    return [f"{var}{i}" if e == 1 else f"{var}{i}^{e}"
            for i, e in enumerate(exps, start=1) if e]


def parse_terms(text: str, n: int) -> dict[int, int]:
    """The exponents of ``x3*x4``, ``x1^2*x3`` or ``1`` in n variables,
    by variable index, zero ones left out.  Allocates nothing of size n,
    so a family can be counted before any of its monomials is built.
    One regex pass reads the terms; they are checked in order, and the
    first bad one is named."""
    if n < 1:
        raise MonomialParseError("need at least one variable")
    s = text.strip()
    if not s:
        raise MonomialParseError("empty monomial text")
    terms: dict[int, int] = {}
    if s == "1":
        return terms
    found = _TERMS_RE.findall(s)
    for i, e in found:
        if not i:  # no term starts here, so the one it is in is bad
            term = s.split("*")[found.index(("", ""))].strip()
            raise MonomialParseError(f"bad term {term!r} in {text!r}")
        try:
            idx, exp = int(i), int(e or 1)
        except ValueError:  # over Python's digit limit for int()
            term = f"x{i}^{e}" if e else f"x{i}"
            raise MonomialParseError(
                f"number too long in term {term[:16]!r}...") from None
        if not 1 <= idx <= n:
            raise MonomialParseError(
                f"variable x{idx} out of range x1..x{n} in {text!r}")
        if exp > 0:
            terms[idx] = terms.get(idx, 0) + exp
        elif exp:
            raise MonomialParseError(
                f"negative exponent in term {f'x{i}^{e}'!r}")
    if s.endswith("*"):  # its last term is empty
        raise MonomialParseError(f"bad term '' in {text!r}")
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


def sort_factors(fu: tuple[int, ...], fv: tuple[int, ...]):
    """Sorting rewrite on two standard factorizations of equal length:
    merge them and deal the factors alternately, odd positions to the
    first output, even to the second."""
    fact = tuple(sorted(fu + fv))
    return fact[0::2], fact[1::2]


def ord_factors(fu: tuple[int, ...], fv: tuple[int, ...]):
    """Ordering rewrite on two standard factorizations, len(fu) <= len(fv):
    merge them; the first len(fv) factors make the second output, the
    rest the first."""
    fact = tuple(sorted(fu + fv))
    q = len(fv)
    return fact[q:], fact[:q]


def ord_pair(u: Monomial, v: Monomial) -> tuple[Monomial, Monomial]:
    """Ordering rewrite for deg(u) <= deg(v), ``ord_factors`` on the
    standard factorizations.

    The last deg(u) factors of u*v make the first output, the first
    deg(v) factors the second.  The result multiplies back to u*v, keeps
    both degrees, and every variable of the first output is <= every
    variable of the second.
    """
    if u.n != v.n:
        raise ValueError("variable counts differ")
    p, q = u.degree, v.degree
    if p > q:
        raise ValueError(f"ord_pair needs deg(u) <= deg(v), got {p} > {q}")
    low, high = ord_factors(u.factors(), v.factors())
    return Monomial._of_factors(low, u.n), Monomial._of_factors(high, u.n)


def sort_pair(u: Monomial, v: Monomial) -> tuple[Monomial, Monomial]:
    """Sorting rewrite for equal degrees, ``sort_factors`` on the standard
    factorizations: deal the factors of u*v alternately, odd positions to
    the first output, even to the second."""
    if u.n != v.n:
        raise ValueError("variable counts differ")
    if u.degree != v.degree:
        raise ValueError(
            f"sort_pair needs equal degrees, got {u.degree} != {v.degree}")
    first, second = sort_factors(u.factors(), v.factors())
    return Monomial._of_factors(first, u.n), Monomial._of_factors(second, u.n)


def _factors_below(f: tuple[int, ...], u: tuple[int, ...]) -> bool:
    """Borel test on two standard factorizations of one length: the
    monomial of f lies in the Borel set of u's exactly when f_i <= u_i
    for every i, each factor of f a variable at least as great as the
    matching one of u."""
    return all(map(le, f, u))


def borel_member(candidate: Monomial, generator: Monomial) -> bool:
    """Membership in the Borel set of ``generator``: the degrees agree
    and the standard factorizations pass ``_factors_below``."""
    if candidate.n != generator.n:
        raise ValueError("variable counts differ")
    return (candidate.degree == generator.degree
            and _factors_below(candidate.factors(), generator.factors()))


def _suffix_masses(exps) -> list[int]:
    """``bound[k]``: the exponent mass on x_(k+1)..x_n, 0-based k, with
    ``bound[n] = 0``: the running sums of the exponents read from x_n
    back, in reverse."""
    bound = list(accumulate(reversed(exps), initial=0))
    bound.reverse()
    return bound


def _borel_count(exps, cap=None) -> int:
    """Number of members of the Borel set of the exponent vector
    ``exps``, counted without building any: exact when ``cap`` is None,
    else exact up to ``cap`` and some number over it past that.

    With ``bound`` the suffix masses, ``ways[s]`` counts the exponent
    choices on x_2..x_(k+1) once mass s sits on x_(k+2)..x_n; the table
    is kept last entry first, ``ways[s]`` at position ``len - 1 - s``,
    so the suffix sums that step k to k + 1 are one ``accumulate``,
    less the entries past ``bound[k + 1]``.  No mass sits past the
    least variable occurring, x_tail (``bound[tail]`` is the first 0),
    so the steps stop there, and the whole count is the table's sum,
    the one entry that step k = tail - 1 would leave.  Before that the
    last entry, ``ways[0]``, counts the members on x1..x_(k+1), a subset
    of the whole set, so a capped count stops once it is over the cap.
    """
    bound = _suffix_masses(exps)
    top = bound[1]
    if cap is not None and top >= cap:  # x1^(d-t)*x2^t, t <= top
        return top + 1
    ways = [1] * (top + 1)
    for mass in bound[2:]:  # bound[k + 1] for k = 1, 2, ...
        if not mass:
            break
        ways = list(accumulate(ways))[len(ways) - 1 - mass:]
        if cap is not None and ways[-1] > cap:
            return ways[-1]
    return sum(ways)


def borel_size(generator: Monomial) -> int:
    """Number of members of the Borel set of ``generator``, counted
    without building any.  Raises ``ResourceCapError`` when it is more
    than ``BOREL_CAP``."""
    size = _borel_count(generator.exps, BOREL_CAP)
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
    building any member when the set has more than ``BOREL_CAP``
    members, or members times variables over ``BOREL_ENTRY_CAP``.
    """
    size = borel_size(generator)
    d, n = generator.degree, generator.n
    if size * n > BOREL_ENTRY_CAP:
        raise ResourceCapError(
            f"Borel set of {generator} has {size} members in {n} variables,"
            f" {size * n} exponents, more than {BOREL_ENTRY_CAP}")
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


def _borel_factors(generator: Monomial) -> tuple[tuple[int, ...], ...]:
    """The standard factorizations of the members of the Borel set of
    ``generator``, in ``borel_closure``'s order, with no monomial built
    and no cap checked: the caller bounds the set.

    A monomial of the generator's degree is a member exactly when its
    factors are componentwise at most the generator's, f_i <= u_i
    (``_factors_below``).  Revlex descending is
    ascending lexicographic order of the factors read last to first, so
    the successor of f raises the first factor that can grow, which
    ends a run of equal factors and is below the generator's, and sets
    every factor before it to 1: O(degree) per member.
    """
    u = generator.factors()
    d = len(u)
    ones = (1,) * d
    f = ones
    members = [f]
    while True:
        i = 0
        while i < d:
            end = bisect_right(f, f[i], i)  # the run f[i:end]
            if f[end - 1] < u[end - 1]:
                break
            i = end
        else:
            return tuple(members)
        f = ones[:end - 1] + (f[end - 1] + 1,) + f[end:]
        members.append(f)
