"""Closed-form decisions for special identity shapes.

Power identities (XY)^n = X^n Y^n, freshman identities
(X+Y)^n = X^n + Y^n and sets of homogeneous multilinear identities
admit complete arithmetic criteria, implemented here.  A univariate
identity P(X) = 0 and a central one [Q(X),Y] = 0 are decided by the
general stages themselves: ``univariate_decide`` is ``decide_Up`` and
``central_decide`` is ``decide_Ap`` on those shapes.  Every decider
returns a finite witness accepted by ``decide.verify`` or None (meaning
the shape forces commutativity).  Each hands its ``options``, the
run's ``DecideOptions``, to the stage or to ``verify``, so the run's
caps hold here too.  A certification routine covers identities of the
four-dimensional minimal witness ring.
"""

from dataclasses import dataclass
from itertools import product
from math import comb, gcd

from .commalg import (CPoly, _vp, field_ideal_divmod,
                      field_ideal_normal_form, is_prime, prime_factorization)
from .decide import IdentitySet, decide_Ap, decide_Up, verify
from .finitering import MinRing, TruncFree, make_ring
from .freealg import NcPoly, abelianize, from_cpoly, reduce_Ap

X = NcPoly.var(1)
Y = NcPoly.var(2)


def _prime_divisors(N):
    return [p for p, _ in prime_factorization(N, "characteristic-factoring")]


def _verified(p, ring, polys, options):
    """(p, ring), re-checked by ``decide.verify``.  The theorem
    guarantees the ring, so a rejection is a bug, never Forces."""
    s = max([1] + [v for P in polys for v in P.variables()])
    if not verify(ring, IdentitySet(s, tuple(polys)), options):
        raise AssertionError("%r failed its re-check" % (ring.family,))
    return (p, ring)


# ---------------------------------------------------------------------------
# multilinear identities

@dataclass(frozen=True)
class MultilinearProfile:
    arity: int
    total: int
    theta: dict


def is_multilinear(P):
    """True when every word of P is a permutation of X_1..X_m."""
    vs = P.variables()
    if not vs:
        return False
    m = max(vs)
    if vs != list(range(1, m + 1)):
        return False
    target = tuple(range(1, m + 1))
    return all(len(w) == m and tuple(sorted(w)) == target for w in P.terms)


def theta_profile(P):
    """Sum of coefficients plus, for each pair i < j, the sum over
    words placing X_i before X_j."""
    if not is_multilinear(P):
        raise ValueError("not a homogeneous multilinear polynomial")
    m = max(P.variables())
    total = sum(P.terms.values())
    theta = {}
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            theta[(i, j)] = sum(c for w, c in P.terms.items()
                                if w.index(i) < w.index(j))
    return MultilinearProfile(m, total, theta)


def multilinear_decide(polys, options=None):
    """(p, ring) with the identities verified on the minimal witness
    ring, or None when the multilinear set forces commutativity."""
    profiles = [theta_profile(P) for P in polys]
    g = 0
    for pr in profiles:
        g = gcd(g, pr.total)
        for v in pr.theta.values():
            g = gcd(g, v)
    if g == 1:
        return None
    p = 2 if g == 0 else _prime_divisors(g)[0]
    return _verified(p, make_ring(MinRing(p)), polys, options)


# ---------------------------------------------------------------------------
# univariate and central identities

def univariate_decide(P, options=None):
    """Witness (p, Up(p) ring) for a single univariate identity, or
    None: every ring satisfying P(X) = 0 is then commutative.  This is
    the ``decide_Up`` stage on the one-variable set {P}."""
    if any(v != 1 for v in P.variables()):
        raise ValueError("univariate polynomial required")
    return decide_Up(IdentitySet(1, (P,)), options)


def central_decide(Q, options=None):
    """Witness (p, ring) for the identity [Q(X), Y] = 0, with the
    truncated free algebra F_p{u,v}/(u,v)^3, or None.  This is the
    ``decide_Ap`` stage on the two-variable set {Q Y - Y Q}."""
    if any(v != 1 for v in Q.variables()):
        raise ValueError("univariate polynomial required")
    return decide_Ap(IdentitySet(2, (Q * Y - Y * Q,)), options)


def herstein_pair(a, b):
    """True when X^a - X^b (a > b >= 1) forces commutativity: either
    b = 1, or gcd(a, b) = 1 with a, b of opposite parity."""
    if not (a > b >= 1):
        raise ValueError("need a > b >= 1")
    return b == 1 or (gcd(a, b) == 1 and (a - b) % 2 == 1)


# ---------------------------------------------------------------------------
# power and freshman identities

def power_identity_decide(exponents, options=None):
    """Witness for the identities (XY)^n = X^n Y^n, n over the given
    set, or None.  A witness exists iff one prime divides every C(n,2)."""
    S = sorted(set(exponents))
    if not S or min(S) < 2:
        raise ValueError("exponents must be >= 2")
    g = 0
    for n in S:
        g = gcd(g, comb(n, 2))
    if g == 1:
        return None
    p = _prime_divisors(g)[0]
    return _verified(p, make_ring(TruncFree(p, 3)),
                     [(X * Y) ** n - X ** n * Y ** n for n in S], options)


def freshman_decide(exponents, options=None):
    """Witness for (X+Y)^n = X^n + Y^n, n over the given set, or None.
    Requires every n to be a power of one prime p, all >= 4 when p = 2;
    that p can only be the one prime factor of min(S)."""
    S = sorted(set(exponents))
    if not S or min(S) < 2:
        raise ValueError("exponents must be >= 2")
    ps = _prime_divisors(S[0])
    p = ps[0]
    if len(ps) > 1 or not all(p ** _vp(n, p) == n and (p > 2 or n >= 4)
                              for n in S):
        return None
    return _verified(p, make_ring(TruncFree(p, 3)),
                     [(X + Y) ** n - X ** n - Y ** n for n in S], options)


# ---------------------------------------------------------------------------
# certification on the minimal witness ring

@dataclass
class MinRingCertificate:
    """Constructive decomposition of P mod p into generators of the
    identity ideal of the minimal witness ring."""
    p: int
    qhat: dict    # (i, j), i <= j -> CPoly mod p
    dcoef: dict   # (i, j), i < j  -> CPoly mod p


@dataclass
class NotIdentityReport:
    p: int
    stage: str          # scalar | field-linear | commutator | field-square
    point: tuple        # scalar parameters of the failing substitution
    arguments: tuple    # ring element tuple
    value: tuple        # nonzero evaluation of P there


def _nonzero_point(G, p):
    """A point of F_p^s where the reduced polynomial G is nonzero."""
    for point in product(range(p), repeat=G.nvars):
        if G.eval(point) % p:
            return point
    raise AssertionError("reduced nonzero polynomial with no nonzero point")


def min_ring_certify(P, p):
    """Certify P = 0 as an identity of the minimal witness ring at p,
    or report a counterexample substitution.

    Peels the commutative image along the field ideal twice, reduces
    the remaining commutator part, and checks each extracted
    coefficient; every failure converts into an explicit nonvanishing
    ring substitution.  Raises ValueError unless p is prime.
    """
    if not is_prime(p):
        raise ValueError("p = %d is not a prime" % p)
    vs = P.variables()
    s = max(vs) if vs else 1
    ring = make_ring(MinRing(p))
    u = ring.basis_element(1)
    v = ring.basis_element(2)
    vu = ring.basis_element(3)

    def args(lam, extra):
        out = [ring.scalar(c) for c in lam]
        for idx, elem in extra.items():
            out[idx - 1] = ring.add(out[idx - 1], elem)
        return tuple(out)

    def report(stage, lam, extra):
        tup = args(lam, extra)
        return NotIdentityReport(p, stage, lam, tup, ring.eval(P, tup))

    Q = abelianize(P, s).mod(p)
    first = {}
    R = Q
    for i in range(1, s + 1):
        first[i], R = field_ideal_divmod(R, i, p)
    if not R.is_zero():
        return report("scalar", _nonzero_point(R, p), {})
    qhat = {}
    for i in range(1, s + 1):
        Ri = first[i]
        for k in range(1, s + 1):
            Bik, Ri = field_ideal_divmod(Ri, k, p)
            key = (min(i, k), max(i, k))
            qhat[key] = qhat.get(key, CPoly.zero(s, p)) + Bik
        if not Ri.is_zero():
            return report("field-linear", _nonzero_point(Ri, p), {i: vu})
    sub = NcPoly.zero(p)
    for (i, k), qh in sorted(qhat.items()):
        fi = CPoly.var(i, s, p) ** p - CPoly.var(i, s, p)
        fk = CPoly.var(k, s, p) ** p - CPoly.var(k, s, p)
        sub = sub + from_cpoly(fi * fk * qh)
    P1 = P.mod(p) - sub
    form = reduce_Ap(P1)
    dcoef = {}
    for (i, k), Acoef in sorted(form.A.items()):
        Dc = abelianize(Acoef, s).mod(p)
        dcoef[(i, k)] = Dc
        nfD = field_ideal_normal_form(Dc, p, 1)
        if not nfD.is_zero():
            lam = _nonzero_point(nfD, p)
            return report("commutator", lam, {i: u, k: v})
    for (i, k), qh in sorted(qhat.items()):
        nfq = field_ideal_normal_form(qh, p, 1)
        if not nfq.is_zero():
            lam = _nonzero_point(nfq, p)
            extra = {i: ring.add(u, v)} if i == k else {i: v, k: u}
            return report("field-square", lam, extra)
    return MinRingCertificate(p, qhat, dcoef)
