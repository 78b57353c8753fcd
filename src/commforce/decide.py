"""Decision procedures for commutativity-forcing identity sets.

A finite set of identities in Z{X_1,...,X_s} either forces every ring
satisfying it to be commutative or admits a finite noncommutative
model.  A model, when one exists, can always be found among three
families: upper triangular 2x2 matrices over F_p, the twisted rings
B(p,n,l) over F_{p^n}, and local rings with central commutators and
prime-power characteristic.  Each family has its own procedure here;
the orchestrator runs them in a fixed order and reports a verified
witness, a Forces certificate, or a resource limit.
"""

from dataclasses import dataclass
from itertools import product
from math import comb, gcd, isqrt, prod

from .commalg import (CPoly, _primes_upto, _vp, field_ideal_normal_form,
                      frobenius_scale, lattice_points, prime_factorization,
                      univ, value_gcd)
from .errors import ResourceLimitError
from .finitering import B, Mat, Presented, TruncFree, Up, make_ring
from .freealg import (NcPoly, abelianize, bar_transversal, format_ncpoly,
                      reduce_Ap, reduce_caseI, deglex_key)
from .gsb import COMMUTATOR, adjoin, complete, is_commutative_presentation


MAX_NORMAL_WORDS = 5000   # normal words a specialization scan may use
MAX_SPECIALIZATIONS = 200000   # points one presented search or check scans


# ---------------------------------------------------------------------------
# inputs and outputs

@dataclass(frozen=True)
class IdentitySet:
    """A finite list of integer identities in s noncommuting variables."""
    nvars: int
    polys: tuple

    def __post_init__(self):
        if self.nvars < 1:
            raise ValueError("at least one variable required")
        object.__setattr__(self, "polys", tuple(self.polys))
        for P in self.polys:
            vs = P.variables()
            if vs and max(vs) > self.nvars:
                raise ValueError("identity uses variable X_%d > declared %d"
                                 % (max(vs), self.nvars))


@dataclass(frozen=True)
class PrimeConstraint:
    """The primes a model's characteristic may be a power of: all of
    them, or a finite list of (p, max exponent)."""
    all_primes: bool
    primes: tuple = ()

    def candidates(self, bound, *gs):
        """The admitted primes up to ``bound`` or dividing some g > 1,
        ascending; each stage names its own bound and gcds.  A finite
        constraint tests its own primes against each g, so only the
        unrestricted one ever factors g."""
        if not self.all_primes:
            return [p for p, _ in self.primes
                    if p <= bound or any(g > 1 and g % p == 0 for g in gs)]
        cands = set(_primes_upto(bound))
        for g in gs:
            cands |= {p for p, _ in prime_factorization(
                g, "characteristic-factoring")}
        return sorted(cands)


@dataclass
class PresentedWitness:
    """A noncommutative quotient certified by its completed basis.
    ``scan_length`` records the word-length bound of the accepted
    specialization scan so the witness can be re-checked later."""
    family: object
    basis: object
    scan_length: int = 0

    def normal_form(self, P):
        return self.basis.normal_form(P)


@dataclass
class Verdict:
    kind: str                 # "forces" | "witness" | "limit"
    prime: int = None
    family: object = None
    witness: object = None    # TabledRing or PresentedWitness
    params: tuple = ()
    pair: tuple = None        # noncommuting element pair, when tabled
    stage: str = None
    limit: object = None
    detail: str = ""


@dataclass
class DecideOptions:
    """The caps of a run, handed to every decider: tuples per exhaustive
    ring check and steps per completion."""
    eval_cap: int = 10 ** 7
    max_gsb_steps: int = 10 ** 6


# ---------------------------------------------------------------------------
# characteristic constraints

def candidate_primes(ids):
    """Constrain the characteristic of any model.

    Every commutative image vanishes at every scalar point of a model,
    so its characteristic m divides the gcd g of all their values at
    integer points (``value_gcd``).  A ring of characteristic p^a with
    p not dividing g is zero, hence no model.  Every stage draws its
    primes from this constraint; no primes at all means Forces.
    """
    g = value_gcd([abelianize(P, ids.nvars) for P in ids.polys])
    if g == 0:
        return PrimeConstraint(True)
    return PrimeConstraint(False, tuple(prime_factorization(
        g, "candidate-primes", "factoring grid value")))


# ---------------------------------------------------------------------------
# upper triangular matrices

def _upper_gcd(ids):
    """The gcd g of ``decide_Up``, from the 4^s diagonal pairs."""
    g = 0
    masks = range(1 << ids.nvars)
    for P in ids.polys:
        diag, deriv = {}, {}   # mask -> coeff; (i, pre, post) -> coeff
        for w, c in P.terms.items():
            pres, m = [], 0
            for x in w:
                pres.append(m)
                m |= 1 << (x - 1)
            diag[m] = diag.get(m, 0) + c
            post = 0
            for x, pre in zip(reversed(w), reversed(pres)):
                deriv[x, pre, post] = deriv.get((x, pre, post), 0) + c
                post |= 1 << (x - 1)
        for a in masks:
            g = gcd(g, sum(c for m, c in diag.items() if not m & ~a))
            row = [(x, post, c) for (x, pre, post), c in deriv.items()
                   if not pre & ~a]
            for d in masks:
                D = [0] * (ids.nvars + 1)
                for x, post, c in row:
                    if not post & ~d:
                        D[x] += c
                g = gcd(g, *D)
    return g


def decide_Up(ids, options=None, plan=None):
    """Witness among upper triangular 2x2 matrix rings, or None.

    The gcd g of the identities' entries at every tuple of the eight
    {0,1} upper triangular integer matrices (a, b, d) pins down the
    usable primes: those dividing g, or only 2 when g = 0.  Since
    (a1,b1,d1)(a2,b2,d2) = (a1a2, a1b2 + b1d2, d1d2), P takes the value
    (P'(a), sum_i b_i D_i(a, d), P'(d)), P' its abelianization and D_i
    summing, over each letter x_i of each word, the product of a over
    the letters before it and of d over those after.  As b runs over
    {0,1}^s the middle entries are the subset sums of the D_i, so
    ``_upper_gcd`` takes g from the 4^s pairs (a, d) alone.  The cap
    still counts the 8^s tuples that g stands for.
    """
    options = options or DecideOptions()
    plan = plan or candidate_primes(ids)
    if not plan.all_primes and not plan.primes:
        return None   # no characteristic admits a model
    if 8 ** ids.nvars > options.eval_cap:
        raise ResourceLimitError("upper-matrix-scan", options.eval_cap,
                                 "8^%d integer tuples" % ids.nvars)
    g = _upper_gcd(ids)
    for p in plan.candidates(0 if g else 2, g):
        ring = make_ring(Up(p))
        if verify(ring, ids, options):
            return (p, ring)
    return None


# ---------------------------------------------------------------------------
# the twisted-sum membership test

def _instance_conditions(summands, s):
    """Coefficient condition polynomials, one per exponent index.

    For the sum S = sum (X_a^(p^k) - X_a) A^(p^k) B with p^k beyond
    every degree in sight, S vanishes identically mod p exactly when
    each condition polynomial does; the indices track the coefficient
    expansion of the unpowered factors.
    """
    conds = {}
    zero = CPoly.zero(s)
    for alpha, A, Bm in summands:
        Xa = CPoly.var(alpha, s)
        XA = Xa * A
        for e, c in Bm.terms.items():
            conds[e] = conds.get(e, zero) + XA.scale(c)
        XB = Xa * Bm
        for e, c in XB.terms.items():
            conds[e] = conds.get(e, zero) - A.scale(c)
    return conds


def _instance_gcd(summands, s):
    return gcd(*(T.content()
                 for T in _instance_conditions(summands, s).values()))


def _instance_value(summands, s, p, k):
    total = CPoly.zero(s, p)
    for alpha, A, Bm in summands:
        Xa = CPoly.var(alpha, s, p)
        Ap = A.mod(p)
        powered = frobenius_scale(Xa * Ap, k) - Xa * frobenius_scale(Ap, k)
        total = total + powered * Bm.mod(p)
    return total


def _instance_member(summands, s, p, n, k):
    val = _instance_value(summands, s, p, k)
    return field_ideal_normal_form(val, p, n).is_zero()


def _scan_bound(p, kappa):
    """Largest n worth scanning for a given prime: beyond it, any
    membership is already witnessed at a smaller n."""
    k1 = 1
    while p ** k1 <= kappa + 2:
        k1 += 1
    k2 = 0
    while p ** (k2 + 1) <= kappa + 2:
        k2 += 1
    n2 = 0
    while p ** (n2 + 1) <= kappa * kappa + 4 * kappa + 2:
        n2 += 1
    return max(2, 2 * k1 + 1, 2 * k2 + 1, n2)


# ---------------------------------------------------------------------------
# twisted rings B(p, n, l)

def _case_one_instances(ids):
    """Per identity and per target variable, the two summand lists
    whose vanishing on F_{p^n} characterizes the identity on B(p,n,l):
    one for twists with l <= n/2, one for the mirrored range."""
    s = ids.nvars
    low, high = [], []
    kappa = 0
    for P in ids.polys:
        form = reduce_caseI(P)
        per_low, per_high = {}, {}
        for (i, j, A, C) in form.comm_terms:
            Ab = abelianize(A, s)
            Cb = abelianize(C, s)
            kappa = max(kappa, Ab.degree(), Cb.degree())
            # coefficient of the j-slot: +(U_i^q - U_i) A^q C
            per_low.setdefault(j, []).append((i, Ab, Cb))
            # coefficient of the i-slot picks up the opposite sign
            per_low.setdefault(i, []).append((j, Ab, -Cb))
            # mirrored twist: the C side carries the power, signs flip
            per_high.setdefault(j, []).append((i, Cb, -Ab))
            per_high.setdefault(i, []).append((j, Cb, Ab))
        low.extend(v for _, v in sorted(per_low.items()))
        high.extend(v for _, v in sorted(per_high.items()))
    return low, high, kappa


def _case_one(ids, prime, options, plan):
    """Twisted-ring witness when only the twist data matters: at the
    given prime, or else at every admitted candidate."""
    s = ids.nvars
    low, high, kappa = _case_one_instances(ids)
    if prime is not None:
        cands = [prime]
    else:
        cands = plan.candidates(kappa + 2, *(
            gcd(*(_instance_gcd(lst, s) for lst in group))
            for group in (low, high)))
    for p in cands:
        for n in range(2, _scan_bound(p, kappa) + 1):
            for l in range(1, n):
                if l <= n - l:
                    ok = all(_instance_member(lst, s, p, n, l) for lst in low)
                else:
                    ok = all(_instance_member(lst, s, p, n, n - l) for lst in high)
                if not ok:
                    continue
                ring = make_ring(B(p, n, l))
                if verify(ring, ids, options):
                    return (p, n, l, ring)
    return None


def _case_two_small(ids, p, options):
    """Primes not killing the straightened parts: the field image of a
    surviving straightened polynomial bounds p^n, leaving an explicit
    finite list to test."""
    s = ids.nvars
    D = -1
    for P in ids.polys:
        img = abelianize(bar_transversal(P), s).mod(p)
        if not img.is_zero():
            D = img.degree()
            break
    if D < 0:
        return None
    n = 2
    while p ** n <= D:
        for l in range(1, n):
            ring = make_ring(B(p, n, l))
            if verify(ring, ids, options):
                return (p, n, l, ring)
        n += 1
    return None


def decide_B(ids, options=None, plan=None):
    """Least verified witness (p, n, l, ring) among the twisted rings,
    or None."""
    options = options or DecideOptions()
    plan = plan or candidate_primes(ids)
    bars = [bar_transversal(P) for P in ids.polys]
    if all(b.is_zero() for b in bars):
        return _case_one(ids, None, options, plan)
    d = gcd(*(b.content() for b in bars))
    degmax = max(b.degree() for b in bars)
    for p in plan.candidates(isqrt(degmax), d):
        if d % p == 0:
            # straightened parts vanish mod p; only twist data matters
            hit = _case_one(ids, p, options, plan)
        else:
            hit = _case_two_small(ids, p, options)
        if hit:
            return hit
    return None


# ---------------------------------------------------------------------------
# local rings with central commutators

def _ap_flat(ids, prime, options, plan):
    """All straightened parts vanish (absolutely, or mod the given
    prime): a model exists iff one prime makes every flattened
    commutator coefficient an identity for F_p."""
    s = ids.nvars
    coeffs = []
    for P in ids.polys:
        form = reduce_Ap(P)
        for Acoef in form.A.values():
            img = abelianize(Acoef, s)
            if not img.is_zero():
                coeffs.append(img)
    if prime is not None:
        cands = [prime]
    else:
        # no coefficient at all: any prime will do, so try 2
        bound = max((A.degree() for A in coeffs), default=2)
        cands = plan.candidates(bound, gcd(*(A.content() for A in coeffs)))
    for p in cands:
        if all(field_ideal_normal_form(A, p, 1).is_zero() for A in coeffs):
            ring = make_ring(TruncFree(p, 3))
            if verify(ring, ids, options):
                return (p, ring)
    return None


def _normal_words(basis, at):
    """Words of length < at with nonzero residue range modulo the
    basis, paired with that range p^e.  Breadth-first, lexicographic."""
    out = []
    frontier = [()]
    while frontier:
        nxt = []
        for w in frontier:
            e = min([h.lead_exp for h, _ in basis.reducers(w)],
                    default=basis.a)
            if e == 0:
                continue
            out.append((w, basis.p ** e))
            if len(out) > MAX_NORMAL_WORDS:
                raise ResourceLimitError("normal-words", MAX_NORMAL_WORDS,
                                         "quotient span too large")
            if len(w) + 1 < at:
                nxt.extend(w + (z,) for z in (1, 2))
        frontier = nxt
    return out


def _first_image(basis, words, s, cases, spent, detail):
    """Evaluate the identities of each (point, identities) case in the
    quotient, reducing after every product (``GsBasis.evaluate``): the
    first nonzero normal form or None, with the running count; past the
    cap the scan stops with a limit carrying ``detail``.  Coordinate
    j s + i of a point is variable i + 1's coefficient on ``words[j]``."""
    for k, polys in cases:
        spent += 1
        if spent > MAX_SPECIALIZATIONS:
            raise ResourceLimitError("specialization-scan",
                                     MAX_SPECIALIZATIONS, detail)
        images = {i + 1: {w: c for w, c in zip(words, k[i::s]) if c}
                  for i in range(s)}
        for P in polys:
            nf = basis.evaluate(P, images)
            if not nf.is_zero():
                return nf, spent
    return None, spent


def _specialization_scan(ids, basis, scan_length, spent, detail):
    """Evaluate every identity in the quotient at assignments over the
    normal words shorter than ``scan_length``.  Returns the first
    nonzero normal form (None when all vanish) with the running
    specialization count, which starts at ``spent``.  Each value is
    reduced after every product (``GsBasis.evaluate``); since normal
    forms modulo the complete basis are unique, it is the normal form
    of the substituted identity, which is never expanded.

    "All vanish" is decided exactly.  With x_i = sum_w t_(i,w) w over
    the N normal words, f(t) = P(x) mod the basis is a polynomial map of
    degree at most D = deg P in n = N s variables, so it vanishes on all
    of N^n iff it vanishes at the C(n + D, D) points of
    ``lattice_points``, each identity at the points with sum at most
    its degree.  N^n and the assignment box (each coefficient below its
    word's range p^e) give the same values: a coefficient past a range
    reduces into deg-lex smaller normal words.  The points are scanned
    when fewer than the box's assignments, the whole box otherwise.

    A completion round may add any nonzero image: each lies in the
    least ideal that contains the generators and satisfies the
    identities, so the final basis is the same in any order.  The order
    sets the speed.  Both enumerations are colex over coordinates laid
    out shortest word first, so assignments on short words, which
    usually give an image soonest, come first."""
    normal = _normal_words(basis, scan_length)
    words = [w for w, _ in normal]
    s = ids.nvars
    polys = ids.polys
    D = max([0] + [P.degree() for P in polys])
    n = len(normal) * s
    ranges = [rng for _, rng in normal for _ in range(s)]
    if comb(n + D, D) < prod(ranges):
        cases = ((k, [P for P in polys if P.degree() >= sum(k)])
                 for k in lattice_points(n, D))
    else:
        cases = ((k[::-1], polys)
                 for k in product(*(range(r) for r in reversed(ranges))))
    return _first_image(basis, words, s, cases, spent, detail)


def _kronecker_images(ids):
    """(d, Gs): the content gcd of the straightened parts, and each
    commutative image under X_i -> t^((D + 1)^(i - 1)), D the largest
    straightened degree."""
    s = ids.nvars
    bars = [bar_transversal(P) for P in ids.polys]
    D = max((b.degree() for b in bars), default=0)
    d = gcd(*(b.content() for b in bars))
    weights = [(D + 1) ** i for i in range(s)]
    Gs = []
    for P in ids.polys:
        Q = abelianize(P, s)
        terms = {}
        for e, c in Q.terms.items():
            k = sum(ei * wi for ei, wi in zip(e, weights))
            terms[k] = terms.get(k, 0) + c
        Gs.append(univ(terms))
    return d, Gs


def _presentation(p, a, d, Gs):
    """(starting generators, scan length a t) of the two-generator
    presentation for characteristic p^a, from ``_kronecker_images``, or
    None when no image has content exponent b = min(a, v_p(d)).  The
    first five generators, X[X, Y], Y[X, Y], [X, Y]X, [X, Y]Y and
    p[X, Y], make commutators central with square zero and kill
    p[X, Y]; the word generators after them kill p^b times every word
    of length a t.  From a t = 3 on, those are the words X^i Y^(a t - i)
    (the commutator generators sort any other word into one of them),
    which ``_first_basis`` appends without completing them."""
    b = min(a, _vp(d, p))
    pick = None
    for G in Gs:
        cg = G.content()
        if cg and _vp(cg, p) == b:
            pick = G
            break
    if pick is None:
        return None
    low = [e[0] for e, c in pick.terms.items() if _vp(c, p) == b]
    t = min(low)
    if t < 1:
        raise AssertionError("truncation exponent must be positive")
    at = a * t
    X = NcPoly.var(1)
    Y = NcPoly.var(2)
    comm = X * Y - Y * X
    gens = [X * comm, Y * comm, comm * X, comm * Y, comm.scale(p)]
    pb = p ** b
    if at >= 3:
        for i in range(at + 1):
            gens.append(NcPoly.from_word((1,) * i + (2,) * (at - i), pb))
    else:
        for w in product((1, 2), repeat=at):
            gens.append(NcPoly.from_word(w, pb))
    return gens, at


def _first_basis(gens, at, p, a, max_steps):
    """The complete basis of ``_presentation``'s generators: the
    commutator generators completed together with any word generator
    shorter than 3, then the longer word generators appended as they
    are (``gsb.adjoin``), so ``max_steps`` bounds the commutator
    completion alone.  It equals ``complete(gens)`` element for
    element: every leading word of the commutator completion contains
    YX and no word X^i Y^j does, so the words are irreducible modulo it
    and modulo each other, and every composition involving one reduces
    to zero.  Shorter words can absorb those leading words, so they are
    completed."""
    cut = 5 if at >= 3 else len(gens)
    return adjoin(complete(gens[:cut], p, a, max_steps), gens[cut:])


def _ap_presented(ids, p, a, d, Gs, options):
    """Build the two-generator presentation for characteristic p^a and
    decide by completion whether a noncommutative model survives.  The
    first round's basis is ``_first_basis``.  Each later round extends
    the previous complete basis by its new image alone (``complete``'s
    ``start``) and stops as soon as [X, Y] reduces to zero (``until``):
    the presentation is then commutative.  Normal forms modulo a complete
    basis are unique, so the scans see the same normal words, images and
    counts as from-scratch completions would; only the witness basis
    depends on the completion order, so a witness found after a later
    round is completed once more from all its generators."""
    start = _presentation(p, a, d, Gs)
    if start is None:
        return None
    gens, at = start
    basis = _first_basis(gens, at, p, a, options.max_gsb_steps)
    if is_commutative_presentation(basis):
        return None
    # the specialization count carries over from one completion round
    # to the next
    spent = 0
    first = len(gens)
    while True:
        nf, spent = _specialization_scan(ids, basis, at, spent,
                                         "p=%d a=%d" % (p, a))
        if nf is None:
            break
        gens.append(nf.lift())
        basis = complete(gens[-1:], p, a, options.max_gsb_steps,
                         start=basis, until=COMMUTATOR)
        if not basis.complete:
            return None
    if len(gens) > first:
        basis = complete(gens, p, a, options.max_gsb_steps)
    ordered = sorted(basis.elements, key=lambda g: deglex_key(g.lead_word))
    fam = Presented(p, a, tuple(format_ncpoly(g.as_ncpoly(), names="XY")
                                for g in ordered))
    return (p, PresentedWitness(fam, basis, at))


def _ap_general(ids, options, plan):
    d, Gs = _kronecker_images(ids)
    N = value_gcd(Gs)
    for p in plan.candidates(0, N):
        a = _vp(N, p)
        if d % (p ** a) == 0:
            hit = _ap_flat(ids, p, options, plan)
        else:
            hit = _ap_presented(ids, p, a, d, Gs, options)
        if hit:
            return hit
    return None


def decide_Ap(ids, options=None, plan=None):
    """Witness among local rings with central commutators, or None.
    Returns (p, ring) with a tabled truncated algebra, or
    (p, PresentedWitness) when only a presentation certifies it."""
    options = options or DecideOptions()
    plan = plan or candidate_primes(ids)
    bars = [bar_transversal(P) for P in ids.polys]
    if all(b.is_zero() for b in bars):
        return _ap_flat(ids, None, options, plan)
    return _ap_general(ids, options, plan)


def presented_scan_check(ids, basis, scan_length):
    """Re-check a presented witness against an identity set: the
    commutator must survive reduction and every identity must reduce to
    zero under every specialization over normal words shorter than
    ``scan_length``, decided exactly from the degree-bounded point set
    (``_specialization_scan``)."""
    if is_commutative_presentation(basis):
        return False
    nf, _ = _specialization_scan(ids, basis, scan_length, 0, "verify")
    return nf is None


def verify(witness, ids, options=None):
    """The acceptance check for every witness.  A presented one is
    rejected when the identities derive no presentation at its
    characteristic p^a (``_presentation``); otherwise its basis must
    reduce every starting generator of that presentation to zero, and
    it must pass ``presented_scan_check`` over the longer of its
    recorded scan length and the derived one a t, so a document cannot
    shorten the scan.  A tabled ring must be noncommutative and satisfy
    every identity at every tuple (``TabledRing.holds``)."""
    options = options or DecideOptions()
    if isinstance(witness, PresentedWitness):
        basis = witness.basis
        start = _presentation(basis.p, basis.a, *_kronecker_images(ids))
        if start is None:
            return False
        gens, at = start
        return (all(basis.normal_form(g).is_zero() for g in gens)
                and presented_scan_check(ids, basis,
                                         max(witness.scan_length, at)))
    return (witness.is_commutative() is not True
            and all(witness.holds(P, options.eval_cap) for P in ids.polys))


# ---------------------------------------------------------------------------
# orchestrator

def _witness_verdict(p, witness, params=()):
    if isinstance(witness, PresentedWitness):
        return Verdict("witness", prime=p, family=witness.family,
                       witness=witness, params=tuple(params))
    pair = witness.is_commutative()
    return Verdict("witness", prime=p, family=witness.family, witness=witness,
                   params=tuple(params), pair=None if pair is True else pair)


def _closed_form_verdict(hit):
    """Verdict of a closed-form decider's answer: None means Forces,
    otherwise (p, ring) is the witness."""
    return Verdict("forces") if hit is None else _witness_verdict(*hit)


def _central_form(P):
    """The univariate Q with P = Q(X)Y - YQ(X), if P has that shape."""
    if P.variables() != [1, 2]:
        return None
    Q = NcPoly({w[:-1]: c for w, c in P.terms.items()
                if w[-1:] == (2,) and 2 not in w[:-1]})
    Y = NcPoly.var(2)
    return Q if Q * Y - Y * Q == P else None


def _fast_path(ids, options):
    """The paper's criterion when every identity is homogeneous
    multilinear (``theorems.multilinear_decide``), else None."""
    from . import theorems
    if all(theorems.is_multilinear(P) for P in ids.polys):
        return _closed_form_verdict(
            theorems.multilinear_decide(ids.polys, options))
    return None


def _limit_verdict(err):
    return Verdict("limit", stage=err.stage, limit=err.limit,
                   detail=err.detail)


def _stages(ids, options, stages=None):
    """The general algorithm: one ``candidate_primes`` plan handed to
    each stage in turn, ``decide_Up``, ``decide_B`` and ``decide_Ap``
    unless ``stages`` names fewer.  A witness ends the run; when a stage
    hits a limit the later ones still run, and the first limit is
    reported only if no witness turns up."""
    try:
        plan = candidate_primes(ids)
    except ResourceLimitError as err:
        return _limit_verdict(err)
    if not plan.all_primes and not plan.primes:
        return Verdict("forces")
    limited = None
    for stage in stages or (decide_Up, decide_B, decide_Ap):
        try:
            hit = stage(ids, options, plan=plan)
        except ResourceLimitError as err:
            limited = limited or err
            continue
        if hit:
            # (p, ring), or (p, n, l, ring) from the twisted rings
            return _witness_verdict(hit[0], hit[-1], params=hit[1:-1])
    if limited is not None:
        return _limit_verdict(limited)
    return Verdict("forces")


def decide_all(ids, options=None):
    """Full decision: Forces, a verified Witness, or ResourceLimit.

    A set of homogeneous multilinear identities is decided by the
    paper's criterion (``_fast_path``).  Every other set goes through
    the stages (``_stages``).  A single identity of one of two shapes
    needs only one stage, the one the theory makes complete for it: a
    noncommutative ring satisfying P(X) = 0 exists only when some Up(p)
    does (``theorems.univariate_decide``), and one satisfying
    [Q(X), Y] = 0 only when a local ring with central commutators does
    (``theorems.central_decide``).  The other stages could find no
    answer those miss, only hit a limit or scan for a long time."""
    options = options or DecideOptions()
    if not ids.polys or all(P.is_zero() for P in ids.polys):
        ring = make_ring(Mat(2, 2, 1))
        return _witness_verdict(2, ring)
    try:
        fp = _fast_path(ids, options)
    except ResourceLimitError as err:
        return _limit_verdict(err)
    if fp is not None:
        return fp
    if len(ids.polys) == 1:
        # over the variables the identity uses, not all those declared
        P = ids.polys[0]
        if P.variables() in ([], [1]):
            return _stages(IdentitySet(1, (P,)), options, (decide_Up,))
        if _central_form(P) is not None:
            return _stages(IdentitySet(2, (P,)), options, (decide_Ap,))
    return _stages(ids, options)
