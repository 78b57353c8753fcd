import random

import pytest

from commforce import theorems
from commforce.decide import DecideOptions, IdentitySet, decide_all
from commforce.finitering import MinRing, TruncFree, Up, make_ring
from commforce.freealg import NcPoly, commutator
from commforce.theorems import (MinRingCertificate, NotIdentityReport,
                                central_decide, freshman_decide, herstein_pair,
                                is_multilinear, min_ring_certify,
                                multilinear_decide, power_identity_decide,
                                theta_profile, univariate_decide)

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


def test_univariate_jacobson_forces():
    # the gcd of the values k^n - k stays small (the product of the
    # primes p with p - 1 | n - 1) while 2^n - 2 outgrows trial division
    for n in range(2, 200):
        assert univariate_decide(X ** n - X) is None
    for fast in (True, False):
        v = decide_all(IdentitySet(1, (X ** 62 - X,)),
                       DecideOptions(fast_paths=fast))
        assert v.kind == "forces"


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
