"""Commutative polynomial arithmetic over Z, F_p and Z/p^a.

Provides the pieces of commutative machinery the decision procedures
need: normal forms modulo field ideals (p, X_i^q - X_i), division by
one generator X_i^p - X_i, the gcd of a polynomial's values at integer
points (which bounds the characteristic of any model), and factoring
under a step budget.
"""

from functools import lru_cache
from math import gcd, isqrt

from .errors import ResourceLimitError


def _canon(terms, modulus):
    out = {}
    for e, c in terms.items():
        if modulus is not None:
            c %= modulus
        if c:
            out[tuple(e)] = c
    return out


class CPoly:
    """Commutative polynomial in ``nvars`` variables.

    ``terms`` maps exponent tuples to nonzero coefficients; ``modulus``
    is None over Z.  Immutable.
    """

    __slots__ = ("terms", "nvars", "modulus")

    def __init__(self, terms=None, nvars=0, modulus=None):
        t = _canon(terms or {}, modulus)
        for e in t:
            if len(e) != nvars:
                raise ValueError("exponent arity %d != nvars %d" % (len(e), nvars))
        object.__setattr__(self, "terms", dict(sorted(t.items())))
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "modulus", modulus)

    def __setattr__(self, *a):
        raise AttributeError("CPoly is immutable")

    @staticmethod
    def zero(nvars=0, modulus=None):
        return CPoly({}, nvars, modulus)

    @staticmethod
    def const(c, nvars=0, modulus=None):
        return CPoly({(0,) * nvars: c}, nvars, modulus)

    @staticmethod
    def var(i, nvars, modulus=None):
        e = [0] * nvars
        e[i - 1] = 1
        return CPoly({tuple(e): 1}, nvars, modulus)

    def _check(self, other):
        if self.nvars != other.nvars or self.modulus != other.modulus:
            raise ValueError("incompatible CPoly operands")

    def __add__(self, other):
        if isinstance(other, int):
            other = CPoly.const(other, self.nvars, self.modulus)
        self._check(other)
        t = dict(self.terms)
        for e, c in other.terms.items():
            t[e] = t.get(e, 0) + c
        return CPoly(t, self.nvars, self.modulus)

    __radd__ = __add__

    def __neg__(self):
        return CPoly({e: -c for e, c in self.terms.items()}, self.nvars, self.modulus)

    def __sub__(self, other):
        if isinstance(other, int):
            other = CPoly.const(other, self.nvars, self.modulus)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._check(other)
        t = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                t[e] = t.get(e, 0) + c1 * c2
        return CPoly(t, self.nvars, self.modulus)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, k):
        out = CPoly.const(1, self.nvars, self.modulus)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def scale(self, c):
        return CPoly({e: c * v for e, v in self.terms.items()}, self.nvars, self.modulus)

    def mod(self, m):
        return CPoly(dict(self.terms), self.nvars, m)

    def lift(self):
        return CPoly(dict(self.terms), self.nvars, None)

    def is_zero(self):
        return not self.terms

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def content(self):
        g = 0
        for c in self.terms.values():
            g = gcd(g, c)
        return g

    def eval(self, point):
        if len(point) != self.nvars:
            raise ValueError("point arity mismatch")
        total = 0
        for e, c in self.terms.items():
            v = c
            for x, k in zip(point, e):
                v *= x ** k
            total += v
        if self.modulus is not None:
            total %= self.modulus
        return total

    def coeff(self, e):
        return self.terms.get(tuple(e), 0)

    def __eq__(self, other):
        if not isinstance(other, CPoly):
            return NotImplemented
        return (self.nvars == other.nvars and self.modulus == other.modulus
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, self.modulus, tuple(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "CPoly(0)"
        parts = []
        for e, c in self.terms.items():
            body = "*".join("X%d^%d" % (i + 1, k) if k > 1 else "X%d" % (i + 1)
                            for i, k in enumerate(e) if k)
            parts.append("%+d%s" % (c, "*" + body if body else ""))
        return "CPoly(%s)" % " ".join(parts)


def field_ideal_normal_form(P, p, n):
    """Canonical representative of P modulo (p, X_i^(p^n) - X_i).

    Reduces coefficients mod p and exponents e >= 1 into {1,...,p^n-1}
    by e -> ((e-1) mod (p^n - 1)) + 1.  The result is zero exactly when
    P is an identity for the field with p^n elements.
    """
    q = p ** n
    t = {}
    for e, c in P.terms.items():
        c %= p
        if not c:
            continue
        ne = tuple(((ei - 1) % (q - 1)) + 1 if ei >= 1 else 0 for ei in e)
        t[ne] = (t.get(ne, 0) + c) % p
    return CPoly(t, P.nvars, p)


def field_ideal_divmod(Q, i, p):
    """(A, R) with Q = (X_i^p - X_i) * A + R over F_p and
    deg_{X_i} R < p: the division by one field-ideal generator.

    Term by term, X^d = (X^p - X) * sum_q X^q + X^r with r the exponent
    field_ideal_normal_form keeps and q running from r - 1 up to d - p
    in steps of p - 1 (the sum telescopes).
    """
    quo, rem = {}, {}
    for e, c in Q.terms.items():
        d = e[i - 1]
        r = (d - 1) % (p - 1) + 1 if d else 0
        key = e[:i - 1] + (r,) + e[i:]
        rem[key] = rem.get(key, 0) + c
        for q in range(r - 1, d - p + 1, p - 1):
            key = e[:i - 1] + (q,) + e[i:]
            quo[key] = quo.get(key, 0) + c
    return CPoly(quo, Q.nvars, p), CPoly(rem, Q.nvars, p)


def value_gcd(polys):
    """gcd of the values of integer polynomials at all integer points;
    0 when every polynomial vanishes.

    A polynomial of total degree D is an integer combination of the
    binomial products C(X_1, m_1)...C(X_s, m_s) with m_1+...+m_s <= D,
    whose coefficients are in turn integer combinations of its values
    at the points of N^s with coordinate sum at most D.  Those points
    (``lattice_points``) therefore already fix the gcd; the scan stops
    early at 1.
    """
    g = 0
    for P in polys:
        for point in lattice_points(P.nvars, max(P.degree(), 0)):
            g = gcd(g, P.eval(point))
            if g == 1:
                return 1
    return g


def lattice_points(n, D):
    """The points of N^n with coordinate sum at most D, in colex order
    (the last nonzero coordinate never decreases): C(n + D, D) of them.
    A polynomial map of total degree at most D vanishes on all of N^n
    iff it vanishes at these points, since its coefficients in the
    binomial basis are forward differences of its values there."""
    yield (0,) * n
    # block j: points whose last nonzero coordinate is j; each recursion
    # level strips one nonzero coordinate, so the depth is at most D
    for j in range(n):
        for c in range(1, D + 1):
            for head in lattice_points(j, D - c):
                yield head + (c,) + (0,) * (n - j - 1)


def univ(coeffs, modulus=None):
    """Univariate CPoly from {degree: coefficient}."""
    return CPoly({(d,): c for d, c in coeffs.items()}, 1, modulus)


def trial_factor(N, step_budget=10 ** 7):
    """Factor |N| by trial division; returns sorted [(p, multiplicity)].
    Raises OverflowError when more than step_budget candidate divisors
    would be needed."""
    N = abs(N)
    if N in (0, 1):
        return []
    out = []
    d = 2
    steps = 0
    while d * d <= N:
        steps += 1
        if steps > step_budget:
            raise OverflowError("factoring budget exceeded")
        if N % d == 0:
            a = 0
            while N % d == 0:
                N //= d
                a += 1
            out.append((d, a))
        d += 1 if d == 2 else 2
    if N > 1:
        out.append((N, 1))
    return sorted(out)


@lru_cache(maxsize=1024)
def _factor_outcome(N):
    """``trial_factor(N)`` as a tuple, or None past its budget."""
    try:
        return tuple(trial_factor(N))
    except OverflowError:
        return None


def prime_factorization(N, stage, detail=""):
    """``trial_factor(N)``, with its budget overflow reported as a
    ResourceLimitError at ``stage``.  The outcome is cached, so stages
    that factor the same gcd pay for trial division once."""
    out = _factor_outcome(abs(N))
    if out is None:
        raise ResourceLimitError(stage, abs(N), detail)
    return list(out)


def is_prime(n):
    """True iff the int n is a prime.  Raises ValueError when n is too
    large for ``trial_factor`` to settle."""
    try:
        return trial_factor(n) == [(n, 1)]
    except OverflowError:
        raise ValueError("%d is too large to test for primality" % n)


def _primes_upto(n):
    """The primes up to n, ascending (sieve of Eratosthenes)."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(sieve[i * i::i]))
    return [i for i in range(2, n + 1) if sieve[i]]


def _vp(c, p):
    """Exponent of p in the integer c; 0 when c is zero."""
    e = 0
    c = abs(c)
    while c and c % p == 0:
        c //= p
        e += 1
    return e
