import random

import pytest

from commforce import decide, theorems
from commforce.commalg import prime_factorization, univ, value_gcd
from commforce.decide import DecideOptions, IdentitySet, decide_all
from commforce.errors import ResourceLimitError
from commforce.finitering import MinRing, TruncFree, Up, make_ring
from commforce.freealg import NcPoly, abelianize, commutator
from commforce.theorems import (MinRingCertificate, NotIdentityReport,
                                central_decide, freshman_decide, herstein_pair,
                                is_multilinear, min_ring_certify,
                                multilinear_decide, power_identity_decide,
                                theta_profile, univariate_decide)
from reference import univariate_membership

X = NcPoly.var(1)
Y = NcPoly.var(2)


def test_is_multilinear():
    assert is_multilinear(commutator(X, Y))
    assert not is_multilinear(X * Y + X)
    assert not is_multilinear(X * X)
    assert not is_multilinear(NcPoly.zero())


def test_theta_profile_commutator():
    pr = theta_profile(commutator(X, Y))
    assert pr.arity == 2
    assert pr.total == 0
    assert pr.theta == {(1, 2): 1}


def test_multilinear_commutator_forces():
    assert multilinear_decide([commutator(X, Y)]) is None


def test_multilinear_symmetrization_witness():
    # the full symmetrization of XYZ has total 6 and all thetas 3
    import itertools
    S3 = NcPoly.zero()
    for perm in itertools.permutations((1, 2, 3)):
        S3 = S3 + NcPoly.from_word(perm)
    pr = theta_profile(S3)
    assert pr.total == 6 and set(pr.theta.values()) == {3}
    hit = multilinear_decide([S3])
    assert hit is not None
    assert hit[0] == 3 and hit[1].family == MinRing(3)


def test_univariate_jacobson_forces(run_stages):
    # the gcd of the values k^n - k stays small (the product of the
    # primes p with p - 1 | n - 1) while 2^n - 2 outgrows trial division
    for n in range(2, 200):
        assert univariate_decide(X ** n - X) is None
    s = IdentitySet(1, (X ** 62 - X,))
    assert decide_all(s).kind == run_stages(s).kind == "forces"


def test_univariate_square_witness():
    # (X^2 - X)^2 = 0 holds in upper triangular matrices mod 2
    P = X ** 4 - (X ** 3).scale(2) + X ** 2
    hit = univariate_decide(P)
    assert hit is not None
    assert hit[0] == 2 and hit[1].family == Up(2)
    assert hit[1].is_identity(P) is True


def test_univariate_zero_image():
    hit = univariate_decide(NcPoly.zero())
    assert hit[0] == 2 and hit[1].family == Up(2)


def test_central_forces_and_witness():
    assert central_decide(X ** 2 - X) is None
    hit = central_decide(X ** 2)
    assert hit is not None
    assert hit[0] == 2 and hit[1].family == TruncFree(2, 3)


def _reference_verified(p, family, P):
    ring = make_ring(family)
    s = max([1] + P.variables())
    return (p, ring) if decide.verify(ring, IdentitySet(s, (P,))) else None


def _reference_prime_divisors(N):
    return [p for p, _ in prime_factorization(N, "characteristic-factoring")]


def _reference_univariate(P):
    """The arithmetic criterion: a witness prime p divides every value
    of Q = P(x) and puts Q in (p, (X^p - X)^2); Up(p) then satisfies P."""
    Q = abelianize(P, 1)
    if Q.is_zero():
        return _reference_verified(2, Up(2), P)
    for p in _reference_prime_divisors(value_gcd([Q])):
        if univariate_membership(Q, "sq", p):
            hit = _reference_verified(p, Up(p), P)
            if hit:
                return hit
    return None


def _reference_central(Q):
    """The arithmetic criterion for [Q(X), Y]: a witness prime p puts
    the derivative Q' in (p, X^p - X); TruncFree(p, 3) then satisfies
    it.  Q' = 0 admits every prime, so 2."""
    Qc = abelianize(Q, 1)
    dQ = univ({e[0] - 1: e[0] * c for e, c in Qc.terms.items() if e[0] >= 1})
    N = value_gcd([dQ])
    for p in _reference_prime_divisors(N) if N else [2]:
        if dQ.is_zero() or univariate_membership(dQ, "lin", p):
            hit = _reference_verified(p, TruncFree(p, 3), Q * Y - Y * Q)
            if hit:
                return hit
    return None


def _outcome(decider, Q):
    try:
        hit = decider(Q)
    except ResourceLimitError:
        return ("limit",)
    return ("forces",) if hit is None else ("witness", hit[0], hit[1].family)


_COEFFS = (-3, -2, -1, 1, 2, 3, 4, 6, 8, 9, 12)


def _random_univariate(rng):
    """1-4 terms c X^e with e <= 9, so constant terms occur."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        w = (1,) * rng.randint(0, 9)
        terms[w] = terms.get(w, 0) + rng.choice(_COEFFS)
    return NcPoly(terms)


def test_closed_forms_match_arithmetic_criteria(monkeypatch):
    # the witness check behind both sides runs under a 10^6 evaluation
    # cap, so TruncFree(7, 3) (5.8 * 10^6 tuples) ends in a limit on
    # both sides instead of 9 s of scanning per case
    full_verify = decide.verify
    monkeypatch.setattr(
        decide, "verify", lambda ring, ids, options=None:
        full_verify(ring, ids, DecideOptions(eval_cap=10 ** 6)))
    rng = random.Random(14)
    polys = [NcPoly.const(c) for c in (0, 1, 2, 6, -3, 12)]
    polys += [_random_univariate(rng) for _ in range(300)]
    kinds = set()
    for Q in polys:
        for closed, reference in ((univariate_decide, _reference_univariate),
                                  (central_decide, _reference_central)):
            out = _outcome(closed, Q)
            assert out == _outcome(reference, Q), (closed.__name__, Q)
            kinds.add(out[0])
    assert kinds == {"forces", "witness", "limit"}


def test_herstein_pair_matches_central():
    for a in range(2, 9):
        for b in range(1, a):
            forces = central_decide(X ** a - X ** b) is None
            assert herstein_pair(a, b) == forces


def test_power_identity():
    assert power_identity_decide({2}) is None
    hit = power_identity_decide({3})
    assert hit is not None and hit[0] == 3
    hit = power_identity_decide({3, 5})
    assert hit is None  # C(3,2)=3, C(5,2)=10 are coprime


def test_power_identity_verifies_every_exponent(monkeypatch):
    seen = []

    def recording(ring, ids, options=None):
        seen.append(ids)
        return True

    monkeypatch.setattr(theorems, "verify", recording)
    assert power_identity_decide({3, 4}) is not None
    assert [set(ids.polys) for ids in seen] == [
        {(X * Y) ** n - X ** n * Y ** n for n in (3, 4)}]


@pytest.mark.parametrize("closed,arg,family", [
    (multilinear_decide, [commutator(X, Y).scale(2)], MinRing(2)),
    (power_identity_decide, {3}, TruncFree(3, 3)),
    (freshman_decide, {4}, TruncFree(2, 3)),
], ids=["multilinear", "power", "freshman"])
def test_rejected_closed_form_witness_is_a_bug(monkeypatch, closed, arg,
                                               family):
    # the theorem guarantees the ring, so a failed re-check raises and
    # names it instead of reading as Forces
    monkeypatch.setattr(theorems, "verify",
                        lambda ring, ids, options=None: False)
    with pytest.raises(AssertionError, match="failed its re-check") as e:
        closed(arg)
    assert repr(family) in str(e.value)


def test_rejected_fast_path_witness_is_not_forces(monkeypatch):
    monkeypatch.setattr(theorems, "verify",
                        lambda ring, ids, options=None: False)
    with pytest.raises(AssertionError, match="MinRing"):
        decide_all(IdentitySet(2, (commutator(X, Y).scale(2),)))


def test_freshman():
    assert freshman_decide({2}) is None
    assert freshman_decide({6}) is None
    hit = freshman_decide({4, 8})
    assert hit is not None and hit[0] == 2


def test_certify_identity_of_min_ring():
    Z = NcPoly.var(3)
    for p in (2, 3):
        for P in [commutator(X, Y) * commutator(X, Y),
                  X.scale(p),
                  commutator(commutator(X, Y), Z)]:
            out = min_ring_certify(P, p)
            assert isinstance(out, MinRingCertificate)
            assert out.p == p


def test_certify_reports_carry_nonzero_value():
    for P, stage in [(NcPoly.const(1), "scalar"),
                     (X ** 2 - X, "field-linear"),
                     (commutator(X, Y), "commutator")]:
        out = min_ring_certify(P, 2)
        assert isinstance(out, NotIdentityReport)
        assert out.stage == stage
        assert any(out.value)


def test_certify_matches_exhaustive_small_sample():
    rng = random.Random(7)
    ring2 = make_ring(MinRing(2))
    for _ in range(40):
        terms = {}
        for _ in range(rng.randrange(1, 4)):
            w = tuple(rng.randrange(1, 3)
                      for _ in range(rng.randrange(0, 5)))
            terms[w] = rng.randrange(-2, 3) or 1
        P = NcPoly(terms)
        out = min_ring_certify(P, 2)
        holds = ring2.is_identity(P) is True
        assert isinstance(out, MinRingCertificate) == holds
        if not holds:
            assert any(ring2.eval(P, out.arguments))


@pytest.mark.parametrize("p", [1, 4])
def test_certify_rejects_non_prime(p):
    with pytest.raises(ValueError):
        min_ring_certify(X.scale(4) * Y, p)


def test_certify_rejects_prime_beyond_factoring_budget():
    with pytest.raises(ValueError, match="too large"):
        min_ring_certify(X.scale(4) * Y, 2 ** 61 - 1)
