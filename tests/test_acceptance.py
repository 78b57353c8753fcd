"""End-to-end acceptance checks, one per headline capability.

Each test is a single pass/fail line under ``pytest -v`` and carries
its own wall-clock budget.
"""

import itertools
import json
import random
import subprocess
import sys
import time

from commforce.commalg import CPoly, field_ideal_normal_form
from commforce.decide import (IdentitySet, candidate_primes, decide_Ap,
                              decide_B, decide_Up, decide_all)
from commforce.finitering import (B, Fq, MinRing, TruncFree, Up, make_ring)
from commforce.freealg import NcPoly, commutator, from_cpoly
from commforce.gsb import complete, is_commutative_presentation
from commforce.oracle import (RandomProfile, SearchBounds, cross_validate,
                              random_identities)
from commforce.theorems import (MinRingCertificate, central_decide,
                                freshman_decide, herstein_pair,
                                min_ring_certify, multilinear_decide,
                                power_identity_decide, univariate_decide)
from reference import cartier_reconstruct, truncated_ideal_membership

X = NcPoly.var(1)
Y = NcPoly.var(2)
Z = NcPoly.var(3)

QUARTIC = X ** 2 * Y ** 2 + X ** 4 * Y ** 2 + X * Y * X * Y
SEXTIC = (X ** 2 * Y * X * Y - X ** 2 * Y ** 2 * X - X * Y * X ** 2 * Y
          + X * Y ** 2 * X ** 2 + Y * X ** 2 * Y * X - Y * X * Y * X ** 2)


class Budget:
    def __init__(self, seconds):
        self.seconds = seconds
        self.start = time.monotonic()

    def check(self):
        assert time.monotonic() - self.start < self.seconds


def test_01_quartic_forces_with_prime_3_only():
    t = Budget(60)
    ids = IdentitySet(2, (QUARTIC,))
    c = candidate_primes(ids)
    assert not c.all_primes and [p for p, _ in c.primes] == [3]
    # mod 3 the identity still fails on upper triangular matrices:
    # substituting (e11, e12 + e22) evaluates to -e12
    ring = make_ring(Up(3))
    assert ring.eval(QUARTIC, ((1, 0, 0), (0, 1, 1))) == (0, 2, 0)
    assert decide_Up(ids) is None
    assert decide_B(ids) is None
    assert decide_Ap(ids) is None
    assert decide_all(ids).kind == "forces"
    t.check()


def test_02_sextic_upper_triangular_witness():
    t = Budget(1)
    v = decide_all(IdentitySet(2, (SEXTIC,)))
    assert v.kind == "witness" and v.prime == 2 and v.family == Up(2)
    a, b = v.pair
    assert v.witness.mul(a, b) != v.witness.mul(b, a)
    t.check()


def test_03_opposite_parity_power_differences_force():
    t = Budget(300)
    for m in range(3, 7):
        for n in range(2, m):
            if (m - n) % 2 == 1:
                v = decide_all(IdentitySet(1, (X ** m - X ** n,)))
                assert v.kind == "forces", (m, n)
    t.check()


def test_04_jacobson_identities_force():
    t = Budget(10)
    for n in range(2, 9):
        assert univariate_decide(X ** n - X) is None
        assert central_decide(X ** n - X) is None
    t.check()


def test_05_closed_form_matches_central_decision():
    t = Budget(30)
    for a in range(2, 9):
        for b in range(1, a):
            forces = central_decide(X ** a - X ** b) is None
            assert herstein_pair(a, b) == forces, (a, b)
    t.check()


def test_06_power_identity_exponent_threshold():
    t = Budget(300)
    assert power_identity_decide({2}) is None
    hit = power_identity_decide({3})
    assert hit is not None and hit[0] == 3
    ring = hit[1]
    assert ring.family == TruncFree(3, 3) and ring.size == 2187
    assert ring.is_identity((X * Y) ** 3 - X ** 3 * Y ** 3) is True
    t.check()


def test_07_freshman_exponents():
    t = Budget(30)
    assert freshman_decide({2}) is None
    hit = freshman_decide({4, 8})
    assert hit is not None and hit[0] == 2
    for n in (4, 8):
        assert hit[1].is_identity((X + Y) ** n - X ** n - Y ** n) is True
    t.check()


def test_08_symmetrization_minimal_witness():
    t = Budget(120)
    S3 = NcPoly.zero()
    for perm in itertools.permutations((1, 2, 3)):
        S3 = S3 + NcPoly.from_word(perm)
    hit = multilinear_decide([S3])
    assert hit is not None
    p, ring = hit
    assert p == 3 and ring.family == MinRing(3)
    assert ring.is_identity(S3) is True   # all 81^3 substitutions
    t.check()


def test_09_certification_matches_exhaustive_on_random_corpus():
    t = Budget(300)
    checked = 0
    for p in (2, 3):
        ring = make_ring(MinRing(p))
        profile = RandomProfile(nvars=2, max_degree=2 * p + 2,
                                max_terms=4, coeff_bound=3, count=1)
        for seed in range(100):
            P = random_identities(seed, profile).polys[0]
            cert = min_ring_certify(P, p)
            holds = ring.is_identity(P) is True
            assert isinstance(cert, MinRingCertificate) == holds, (p, seed)
            if not holds:
                assert any(ring.eval(P, cert.arguments))
            checked += 1
    assert checked == 200
    t.check()


def _fq_eval(P, fq, point):
    acc = tuple(0 for _ in fq.one())
    for e, c in P.terms.items():
        term = tuple((c % fq.p) * t % fq.p for t in fq.one())
        for x, ei in zip(point, e):
            if ei:
                term = fq.mul(term, fq.pow(x, ei))
        acc = fq.add(acc, term)
    return acc


def test_10_field_ideal_normal_form_is_exact():
    t = Budget(120)
    rng = random.Random(10)
    cases = [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2)]
    zero_tuple = {}
    done = 0
    for p, n in cases:
        fq = Fq(p, n)
        q = p ** n
        pts = list(itertools.product(fq.elements(), repeat=2))
        for _ in range(35):
            terms = {}
            for _ in range(rng.randrange(1, 4)):
                e = (rng.randrange(0, q + 2), rng.randrange(0, q + 2))
                terms[e] = rng.randrange(1, p)
            P = CPoly(terms, 2, None)
            nf = field_ideal_normal_form(P, p, n)
            vanishes = all(not any(_fq_eval(P, fq, pt)) for pt in pts)
            assert nf.is_zero() == vanishes, (p, n, terms)
            # multiples of X^q - X are identities, and any nonzero
            # identity has degree at least q
            M = CPoly({(q, 0): 1, (1, 0): -1}, 2, None) * P
            assert field_ideal_normal_form(M, p, n).is_zero()
            if not P.is_zero() and vanishes:
                assert P.degree() >= q
            done += 1
    assert done >= 200
    t.check()


def test_11_digit_block_decomposition_reconstructs():
    t = Budget(60)
    rng = random.Random(11)
    for i in range(500):
        p = (2, 3, 5)[i % 3]
        terms = {}
        for _ in range(rng.randrange(1, 5)):
            e = (rng.randrange(0, 12), rng.randrange(0, 12))
            terms[e] = rng.randrange(1, p)
        P = CPoly(terms, 2, p)
        assert cartier_reconstruct(P) == P
    t.check()


def test_12_completion_engine_suite():
    t = Budget(300)
    basis = complete([NcPoly.const(2), commutator(X, Y)], 2, 2)
    assert is_commutative_presentation(basis)
    assert not is_commutative_presentation(complete([Y * X], 2, 1))
    # membership agrees with the linear-algebra oracle in truncations
    agreements = 0
    for p, k in [(2, 3), (2, 4), (2, 5), (3, 3), (3, 4)]:
        rng = random.Random(100 * p + k)
        trunc = [NcPoly.from_word(w)
                 for w in itertools.product((1, 2), repeat=k)]
        for _ in range(25):
            terms = {}
            for _ in range(rng.randrange(1, 3)):
                w = tuple(rng.randrange(1, 3)
                          for _ in range(rng.randrange(1, k)))
                terms[w] = rng.randrange(1, p)
            gens = [NcPoly(terms)]
            basis = complete(gens + trunc, p, 1)
            f = NcPoly({tuple(rng.randrange(1, 3)
                              for _ in range(rng.randrange(0, k))): 1})
            assert (basis.normal_form(f).is_zero()
                    == truncated_ideal_membership(f, gens, p, k))
            agreements += 1
    assert agreements >= 100
    # presentations in the structural regime always terminate
    for p in (2, 3, 5):
        for a in (1, 2):
            gens = [X * commutator(X, Y), Y * commutator(X, Y),
                    commutator(X, Y) * X, commutator(X, Y) * Y,
                    commutator(X, Y).scale(p)]
            assert complete(gens, p, a).complete
    t.check()


def test_13_cross_validation_over_corpus():
    t = Budget(600)
    corpus = [
        IdentitySet(2, (QUARTIC,)),
        IdentitySet(2, (SEXTIC,)),
        IdentitySet(2, (commutator(X, Y),)),
        IdentitySet(1, (X ** 2 - X,)),
        IdentitySet(1, (X ** 3 - X,)),
        IdentitySet(2, ((X * Y) ** 3 - X ** 3 * Y ** 3,)),
        IdentitySet(2, (commutator(X, Y) * commutator(X, Y),)),
        IdentitySet(3, (X * commutator(Y, Z) - commutator(Y, Z) * X * X,)),
        IdentitySet(2, ((X + Y) ** 4 - X ** 4 - Y ** 4,)),
        IdentitySet(2, (commutator(X * X, Y),)),
        IdentitySet(1, (X ** 4 + (X ** 3).scale(2) + X ** 2,)),
        IdentitySet(2, ()),
    ]
    bounds = SearchBounds(max_p=5, max_n=3, max_trunc_k=4)
    for ids in corpus:
        verdict = decide_all(ids)
        assert verdict.kind in ("forces", "witness")
        rep = cross_validate(ids, verdict, bounds)
        assert rep.agree, rep.to_json()
    t.check()


def test_14_json_output_is_deterministic(tmp_path):
    t = Budget(120)
    files = {
        "quartic.ids": "vars X Y\nid X^2*Y^2 + X^4*Y^2 + X*Y*X*Y\n",
        "sextic.ids": ("vars X Y\nid X^2*Y*X*Y - X^2*Y^2*X - X*Y*X^2*Y"
                       " + X*Y^2*X^2 + Y*X^2*Y*X - Y*X*Y*X^2\n"),
    }
    for name, body in files.items():
        path = tmp_path / name
        path.write_text(body)
        runs = [subprocess.run(
            [sys.executable, "-m", "commforce.cli", "decide",
             str(path), "--json"],
            capture_output=True, check=True).stdout for _ in range(2)]
        assert runs[0] == runs[1] and runs[0]
        json.loads(runs[0])
    t.check()
