import itertools
import json
import math
import random
import time

import pytest

from commforce import commalg, decide, theorems
from commforce.cli import verdict_doc
from commforce.decide import (DecideOptions, IdentitySet, PresentedWitness,
                              PrimeConstraint, _closed_form_verdict,
                              candidate_primes, decide_Ap, decide_B, decide_Up,
                              decide_all, presented_scan_check, verify)
from commforce.errors import ResourceLimitError
from commforce.finitering import B, Mat, Presented, Up, family_json
from commforce.freealg import NcPoly, commutator, format_ncpoly
from commforce.gsb import COMMUTATOR, complete, is_commutative_presentation
from commforce.oracle import RandomProfile, cross_validate, random_identities
from reference import upper_scan_gcd

X = NcPoly.var(1)
Y = NcPoly.var(2)
Z = NcPoly.var(3)

# the quartic whose only candidate characteristic is 3 yet no witness exists
QUARTIC = X ** 2 * Y ** 2 + X ** 4 * Y ** 2 + X * Y * X * Y
# the sextic satisfied by upper triangular matrices mod 2
SEXTIC = (X ** 2 * Y * X * Y - X ** 2 * Y ** 2 * X - X * Y * X ** 2 * Y
          + X * Y ** 2 * X ** 2 + Y * X ** 2 * Y * X - Y * X * Y * X ** 2)


def ids(*polys, nvars=2):
    return IdentitySet(nvars, tuple(polys))


def test_identity_set_validation():
    with pytest.raises(ValueError):
        IdentitySet(1, (X * Y,))
    with pytest.raises(ValueError):
        IdentitySet(0, ())


def test_candidate_primes_quartic():
    c = candidate_primes(ids(QUARTIC))
    assert not c.all_primes
    assert c.primes == ((3, 1),)


def test_candidate_primes_unrestricted():
    assert candidate_primes(ids(commutator(X, Y))).all_primes


def test_candidate_primes_take_the_value_gcd():
    # X^62 - X: the first nonzero value 2^62 - 2 is beyond trial
    # division, but the gcd of all values is 2
    c = candidate_primes(ids(X ** 62 - X, nvars=1))
    assert c == PrimeConstraint(False, ((2, 1),))
    assert c.candidates(5) == [2] and c.candidates(1, 6) == [2]
    assert c.candidates(1, 9) == []
    assert PrimeConstraint(True).candidates(5, 14) == [2, 3, 5, 7]


def test_finite_plan_candidates_filter_the_unrestricted_ones():
    # a finite plan tests its own primes against g instead of factoring
    # g; the result must be the unrestricted candidates it admits
    plan = PrimeConstraint(False, ((2, 3), (3, 1), (7, 2)))
    for bound in range(10):
        for gs in [(), (0,), (1,), (14,), (9, 10), (49, 0), (11,)]:
            full = PrimeConstraint(True).candidates(bound, *gs)
            assert plan.candidates(bound, *gs) == \
                [p for p in full if p in (2, 3, 7)]


def decided(s, fast, run_stages):
    """``decide_all``, which sends a multilinear set to the paper's
    criterion, when ``fast``; otherwise the three stages alone."""
    return decide_all(s) if fast else run_stages(s)


@pytest.mark.parametrize("fast", [True, False])
def test_decide_all_reports_factoring_limit(fast, run_stages):
    # big [X,Y] is multilinear: the criterion and the stages both stop
    # factoring big
    big = 2 ** 61 - 1
    v = decided(ids(commutator(X, Y).scale(big)), fast, run_stages)
    assert (v.kind, v.stage, v.limit) == \
        ("limit", "characteristic-factoring", big)


def test_gcd_is_factored_once_across_stages(monkeypatch, run_stages):
    # decide_Up, _case_one and _ap_flat all factor the same g; its
    # budget overflow is remembered, each stage still reports its limit
    big = 2 ** 61 - 1
    calls = []
    trial_factor = commalg.trial_factor

    def counting(N, *a):
        if abs(N) == big:
            calls.append(N)
            raise OverflowError("factoring budget exceeded")
        return trial_factor(N, *a)

    monkeypatch.setattr(commalg, "trial_factor", counting)
    commalg._factor_outcome.cache_clear()
    v = run_stages(ids(commutator(X, Y).scale(big)))
    commalg._factor_outcome.cache_clear()
    assert (v.kind, v.stage, v.limit) == \
        ("limit", "characteristic-factoring", big)
    assert len(calls) == 1


PROFILES = [RandomProfile(1, 6, 4, 3, 1), RandomProfile(2, 4, 4, 3, 1),
            RandomProfile(2, 5, 4, 3, 2), RandomProfile(3, 4, 3, 3, 1),
            RandomProfile(2, 6, 3, 2, 1)]


@pytest.mark.parametrize("fast", [True, False])
def test_prime_plan_matches_unrestricted_stages(monkeypatch, fast,
                                               run_stages):
    # a prime the plan drops can host no model, so handing every stage
    # the unrestricted constraint instead must not change any verdict
    sets = [random_identities(seed, pr)
            for pr in PROFILES for seed in range(100, 150)]

    def docs():
        return [json.dumps(verdict_doc("decide",
                                       decided(s, fast, run_stages)))
                for s in sets]

    planned = docs()
    for name in ("decide_Up", "decide_B", "decide_Ap"):
        stage = getattr(decide, name)
        monkeypatch.setattr(decide, name,
                            lambda i, o, plan, stage=stage:
                            stage(i, o, plan=PrimeConstraint(True)))
    assert docs() == planned


def test_candidate_primes_empty_forces():
    v = decide_all(ids(X * Y * 3 + NcPoly.const(1)))
    assert v.kind == "forces"


def test_decide_up_sextic():
    hit = decide_Up(ids(SEXTIC))
    assert hit is not None
    p, ring = hit
    assert p == 2 and ring.family == Up(2)


def test_decide_up_rejects_commutator():
    assert decide_Up(ids(commutator(X, Y))) is None


def random_ncpoly(rng, nvars):
    """Up to five terms over words of length 0-5, with small, even or
    about 10^30-sized coefficients; possibly the zero polynomial."""
    terms = {}
    for _ in range(rng.randrange(6)):
        word = tuple(rng.randint(1, nvars) for _ in range(rng.randrange(6)))
        terms[word] = rng.choice([rng.randint(-5, 5), 2 * rng.randint(-4, 4),
                                  rng.randint(-10 ** 30, 10 ** 30),
                                  10 ** 30 + rng.randint(-3, 3)])
    return NcPoly(terms)


def test_upper_gcd_matches_the_matrix_scan():
    """The gcd from 4^s diagonal pairs equals the 8^s matrix-tuple scan."""
    rng = random.Random(23)
    fixed = [ids(NcPoly.zero(), nvars=1), ids(NcPoly.const(6), nvars=2),
             ids(NcPoly.const(-4) + X * Y, NcPoly.const(10 ** 30), nvars=3),
             ids(NcPoly.const(2) + X, NcPoly.const(-2) - X, nvars=1),
             ids(SEXTIC), ids(QUARTIC), ids(commutator(X, Y) * 4)]
    randoms = []
    for s in (1, 2, 3):
        for _ in range(120):
            P, Q = random_ncpoly(rng, s), random_ncpoly(rng, s)
            # a second identity whose sum with the first has a large gcd
            randoms.append(IdentitySet(s, rng.choice(
                [(P,), (P, Q), (P, Q.scale(rng.choice([2, 6])) - P)])))
    for case in fixed + randoms:
        assert decide._upper_gcd(case) == upper_scan_gcd(case), case


def test_decide_all_sextic_witness():
    v = decide_all(ids(SEXTIC))
    assert v.kind == "witness"
    assert v.prime == 2 and v.family == Up(2)
    a, b = v.pair
    assert v.witness.mul(a, b) != v.witness.mul(b, a)


def test_decide_b_twisted_identity():
    hit = decide_B(ids(X * commutator(Y, Z) - commutator(Y, Z) * X * X,
                       nvars=3))
    assert hit is not None
    p, n, l, ring = hit
    assert (p, n, l) == (2, 2, 1)
    assert ring.is_identity(
        X * commutator(Y, Z) - commutator(Y, Z) * X * X) is True
    assert ring.is_commutative() is not True


def test_decide_b_and_ap_reject_quartic():
    assert decide_B(ids(QUARTIC)) is None
    assert decide_Ap(ids(QUARTIC)) is None


@pytest.fixture
def case_two_hits(monkeypatch):
    hits = []
    real = decide._case_two_small

    def spy(*args):
        hit = real(*args)
        hits.append(hit and hit[:3])
        return hit

    monkeypatch.setattr(decide, "_case_two_small", spy)
    return hits


def test_case_two_small_witness_from_decide_all(case_two_hits):
    # the straightened part of (X^4 - X)^2 survives mod 2 with degree
    # 8 >= 2^2, so B(2, 2, 1) is found by the explicit small-field list
    c = commutator(X, Y)
    S = ids(X * c - c * X ** 2, (X ** 4 - X) ** 2)
    v = decide_all(S)
    assert (v.kind, v.family, v.params) == ("witness", B(2, 2, 1), (2, 1))
    assert case_two_hits == [(2, 2, 1)]
    assert cross_validate(S, v).agree


def test_case_two_small_witness_from_decide_b(case_two_hits):
    hit = decide_B(ids((X ** 4 - X) ** 2, nvars=1))
    assert hit[:3] == (2, 2, 1)
    assert case_two_hits == [(2, 2, 1)]


def test_decide_ap_presented_witness():
    # (x^2 + x)^2 = 0 admits a char-4 noncommutative model that no
    # tabled family in the pipeline catches
    hit = decide_Ap(ids(X ** 4 + (X ** 3).scale(2) + X ** 2, nvars=1))
    assert hit is not None
    p, w = hit
    assert p == 2
    assert isinstance(w, PresentedWitness)
    assert w.family.p == 2 and w.family.a == 2
    assert w.scan_length == 4
    assert not w.normal_form(commutator(X, Y)).is_zero()
    trunc = {format_ncpoly(NcPoly({word: 1}), names="XY")
             for word in [(1, 1), (2, 2)]} | {"X*Y + Y*X"}
    assert trunc <= set(w.family.generators)
    assert presented_scan_check(ids(X ** 4 + (X ** 3).scale(2) + X ** 2,
                                    nvars=1),
                                w.basis, w.scan_length)


def test_decide_ap_rejects_x4_minus_x2():
    assert decide_Ap(ids(X ** 4 - X ** 2, nvars=1)) is None


def test_decide_all_empty_set_witness():
    v = decide_all(IdentitySet(2, ()))
    assert v.kind == "witness"
    assert v.family == Mat(2, 2, 1)


def test_fast_path_consistency(run_stages):
    # each closed form against the three stages on its own shape: the
    # same kind, and every witness passes verify
    cases = [
        (theorems.univariate_decide(X ** 2 - X), ids(X ** 2 - X, nvars=1)),
        (theorems.univariate_decide(X ** 4 - X ** 2), ids(X ** 4 - X ** 2,
                                                           nvars=1)),
        (theorems.multilinear_decide([commutator(X, Y)]),
         ids(commutator(X, Y))),
        (theorems.multilinear_decide([commutator(X, Y).scale(2)]),
         ids(commutator(X, Y).scale(2))),
        (theorems.central_decide(X ** 3), ids(commutator(X ** 3, Y))),
        (theorems.central_decide(X ** 2 - X), ids(commutator(X ** 2 - X, Y))),
    ]
    for hit, s in cases:
        closed = _closed_form_verdict(hit)
        staged = run_stages(s)
        assert closed.kind == staged.kind, s
        for v in (closed, staged):
            assert v.kind != "witness" or verify(v.witness, s), s
    # no closed form takes the sextic, so decide_all is the stages
    assert decide_all(ids(SEXTIC)).family == run_stages(ids(SEXTIC)).family


@pytest.mark.parametrize("n,cap", [(17, 64), (257, 1000), (999, 10 ** 7)])
def test_univariate_identity_stops_after_decide_up(n, cap, run_stages):
    # decide_Up alone decides one identity in one variable; decide_B
    # would build and scan B(2,m,l) for every 2^m <= n, hitting a small
    # cap or taking seconds under the default one
    s = ids(X ** n - X, nvars=1)
    opts = DecideOptions(eval_cap=cap)
    t = time.perf_counter()
    assert decide_all(s, opts).kind == "forces"
    assert time.perf_counter() - t < 2.0
    if cap < 10 ** 7:
        assert run_stages(s, opts).stage == "exhaustive-eval"


def test_central_identity_skips_the_twisted_ring_scan():
    # decide_Ap alone decides [Q(X),Y]; decide_B's twist-membership scan
    # on this Q runs for seconds before it finds nothing
    t = time.perf_counter()
    v = decide_all(ids(commutator((X ** 257).scale(3) + X.scale(2), Y)))
    assert v.kind == "forces"
    assert time.perf_counter() - t < 2.0


def test_central_identity_reports_eval_limit():
    # TruncFree(11,3) has 11^7 elements: the witness check stops at the
    # tuple count before it allocates anything
    v = decide_all(ids(commutator(X ** 11, Y)))
    assert (v.kind, v.stage) == ("limit", "exhaustive-eval")


def test_eval_cap_surfaces_as_limit():
    opts = DecideOptions(eval_cap=4)
    with pytest.raises(ResourceLimitError):
        decide_Up(ids(SEXTIC), opts)


def test_presented_scan_limits(monkeypatch):
    # (X^2 + X)^2: building the witness takes two completion rounds and
    # its specialization count carries across them; a re-check starts
    # from zero and meets the same cap on its own
    sq = ids(X ** 4 + (X ** 3).scale(2) + X ** 2, nvars=1)
    p, w = decide_Ap(sq)
    monkeypatch.setattr(decide, "MAX_SPECIALIZATIONS", 50)
    with pytest.raises(ResourceLimitError) as e:
        decide_Ap(sq)
    assert (e.value.stage, e.value.limit, e.value.detail) == \
        ("specialization-scan", 50, "p=2 a=2")
    with pytest.raises(ResourceLimitError) as e:
        presented_scan_check(sq, w.basis, w.scan_length)
    assert (e.value.stage, e.value.limit, e.value.detail) == \
        ("specialization-scan", 50, "verify")
    monkeypatch.setattr(decide, "MAX_SPECIALIZATIONS", 1000)
    assert decide_Ap(sq) is not None
    assert presented_scan_check(sq, w.basis, w.scan_length)


SQUARE_BASIS = "X1^2\nX1*X2 + X2*X1\nX2^2"


PINNED = [
    ((X ** 2 + X) ** 2, 43, 4, SQUARE_BASIS),
    ((X ** 3 - X) ** 2, 18, 4, SQUARE_BASIS),
    ((X ** 3 + X) ** 2, 18, 4, SQUARE_BASIS),
    ((X ** 2 - X).scale(4), 54, 3,
     "4*X1\n"
     "4*X2\n"
     "6*X1*X2 + 2*X2*X1\n"
     "4*X1*X2 + 3*X1^2*X2 + X1*X2*X1\n"
     "4*X1*X2 + 3*X1^2*X2 + X2*X1^2\n"
     "4*X1*X2 + 3*X1*X2^2 + X2*X1*X2\n"
     "4*X1*X2 + 2*X1*X2^2 + X2*X1*X2 + X2^2*X1"),
    ((X ** 2 - X) ** 2, 43, 4, SQUARE_BASIS),
    ((X ** 3 - X).scale(4), 41, 3,
     "4*X1\n"
     "4*X2\n"
     "2*X1*X2 + 2*X2*X1\n"
     "3*X1^2*X2 + X1*X2*X1\n"
     "3*X1^2*X2 + X2*X1^2\n"
     "3*X1*X2^2 + X2*X1*X2\n"
     "2*X1*X2^2 + X2*X1*X2 + X2^2*X1"),
    ((X ** 2 - X).scale(8), 55, 4,
     "8*X1\n"
     "8*X2\n"
     "14*X1*X2 + 2*X2*X1\n"
     "8*X1*X2 + 7*X1^2*X2 + X1*X2*X1\n"
     "8*X1*X2 + 7*X1^2*X2 + X2*X1^2\n"
     "8*X1*X2 + 7*X1*X2^2 + X2*X1*X2\n"
     "8*X1*X2 + 6*X1*X2^2 + X2*X1*X2 + X2^2*X1"),
    ((X ** 3 - X).scale(9), 41, 3,
     "9*X1\n"
     "9*X2\n"
     "15*X1*X2 + 3*X2*X1\n"
     "17*X1^2*X2 + X1*X2*X1\n"
     "17*X1^2*X2 + X2*X1^2\n"
     "17*X1*X2^2 + X2*X1*X2\n"
     "3*X1*X2^2 + 14*X2*X1*X2 + X2^2*X1"),
    # over a minute before the scan reduced after every product
    ((X ** 2 + X) ** 3, 208, 9,
     "4*X1 + 2*X1^2\n"
     "4*X1*X2\n"
     "6*X1*X2 + 2*X2*X1\n"
     "4*X2 + 2*X2^2\n"
     "X1^3\n"
     "X1^2*X2 + X1*X2*X1\n"
     "X1^2*X2 + X1*X2^2\n"
     "X1^2*X2 + X2*X1^2\n"
     "X1*X2^2 + X2*X1*X2\n"
     "X2*X1*X2 + X2^2*X1\n"
     "X2^3"),
]


@pytest.mark.parametrize("P,steps,scan_length,dump", PINNED)
def test_presented_witness_pinned(P, steps, scan_length, dump):
    # the completed basis, its step count and the scan length of each
    # presented witness are pinned: a faster reducer or another scan
    # order must reproduce them.  All are at p = 2 but 9(X^3 - X)
    start = time.perf_counter()
    p, w = decide_Ap(ids(P, nvars=1))
    assert time.perf_counter() - start < 5.0
    assert p == (3 if P == (X ** 3 - X).scale(9) else 2)
    assert isinstance(w, PresentedWitness)
    assert (w.basis.steps, w.scan_length) == (steps, scan_length)
    assert w.basis.dump() == dump


# the presented cases the benchmark once left out as slow: the witness
# family document, steps, scan length and re-check of each, as recorded
# before later rounds were completed incrementally
SLOW_PRESENTED = {
    "(X^3+X)^2": ((X ** 3 + X) ** 2, 18, 4, 2, 2,
                  ["X^2", "X*Y + Y*X", "Y^2"]),
    "4(X^3-X)": ((X ** 3 - X).scale(4), 41, 3, 2, 3,
                 ["4*X", "4*Y", "2*X*Y + 2*Y*X", "3*X^2*Y + X*Y*X",
                  "3*X^2*Y + Y*X^2", "3*X*Y^2 + Y*X*Y",
                  "2*X*Y^2 + Y*X*Y + Y^2*X"]),
    "(X^2+X)^3": ((X ** 2 + X) ** 3, 208, 9, 2, 3,
                  ["4*X + 2*X^2", "4*X*Y", "6*X*Y + 2*Y*X", "4*Y + 2*Y^2",
                   "X^3", "X^2*Y + X*Y*X", "X^2*Y + X*Y^2", "X^2*Y + Y*X^2",
                   "X*Y^2 + Y*X*Y", "Y*X*Y + Y^2*X", "Y^3"]),
    "9(X^3-X)": ((X ** 3 - X).scale(9), 41, 3, 3, 3,
                 ["9*X", "9*Y", "15*X*Y + 3*Y*X", "17*X^2*Y + X*Y*X",
                  "17*X^2*Y + Y*X^2", "17*X*Y^2 + Y*X*Y",
                  "3*X*Y^2 + 14*Y*X*Y + Y^2*X"]),
    "8(X^2-X)": ((X ** 2 - X).scale(8), 55, 4, 2, 4,
                 ["8*X", "8*Y", "14*X*Y + 2*Y*X", "8*X*Y + 7*X^2*Y + X*Y*X",
                  "8*X*Y + 7*X^2*Y + Y*X^2", "8*X*Y + 7*X*Y^2 + Y*X*Y",
                  "8*X*Y + 6*X*Y^2 + Y*X*Y + Y^2*X"]),
}


@pytest.mark.parametrize("name", list(SLOW_PRESENTED))
def test_slow_presented_cases_pinned(name):
    P, steps, scan_length, p, a, generators = SLOW_PRESENTED[name]
    sid = ids(P, nvars=1)
    start = time.perf_counter()
    got_p, w = decide_Ap(sid)
    assert presented_scan_check(sid, w.basis, w.scan_length)
    assert time.perf_counter() - start < 2.0
    assert got_p == p
    assert family_json(w.family) == {"family": "Presented", "p": p, "a": a,
                                     "generators": generators}
    assert (w.basis.steps, w.scan_length) == (steps, scan_length)


def test_presented_scan_never_substitutes(monkeypatch):
    # the scan evaluates in the quotient, reducing after every product;
    # no full image is expanded while building or re-checking a witness
    def refuse(self, assignment):
        raise AssertionError("substitute on the presented scan path")

    monkeypatch.setattr(NcPoly, "substitute", refuse)
    for P, *_ in PINNED:
        sid = ids(P, nvars=1)
        p, w = decide_Ap(sid)
        assert presented_scan_check(sid, w.basis, w.scan_length)


def presentation_key(p, a, b, at):
    # the starting generators for characteristic p^a, content exponent
    # b and scan length a t, from one image p^b t^t
    gens, scan_length = decide._presentation(
        p, a, p ** b, [commalg.univ({at // a: p ** b})])
    assert scan_length == at
    return gens


FIRST_BASIS_KEYS = (
    [(p, a, b, at) for p in (2, 3, 5, 7) for a in range(1, 5)
     for b in range(a + 1) for at in range(a, 17, a)]
    + [(2, 1, 0, 40), (2, 2, 1, 40), (3, 4, 2, 40), (3, 5, 5, 40),
       (1000003, 1, 0, 5), (101, 2, 1, 6)])


def test_first_basis_equals_the_completed_generators():
    # the first round appends the word generators X^i Y^(a t - i) to the
    # completed commutator generators once a t >= 3, and completes all of
    # them below; either way the basis is complete(gens), element for
    # element, with the same lead words in the same dump order
    def elements(basis):
        return sorted(tuple(sorted(g.terms.items())) for g in basis.elements)

    short = 0
    for p, a, b, at in FIRST_BASIS_KEYS:
        gens = presentation_key(p, a, b, at)
        first = decide._first_basis(gens, at, p, a, 10 ** 6)
        full = complete(gens, p, a)
        assert first.complete
        assert elements(first) == elements(full), (p, a, b, at)
        assert first.dump() == full.dump()
        short += at <= 2
    assert short == 28


def test_first_basis_caps_only_the_commutator_completion():
    # max_gsb_steps bounds the commutator completion of the first round;
    # the word generators cost no step.  A cap below that completion's
    # steps still ends at gsb-completion with a partial basis
    p, a, b, at = 2, 2, 1, 8
    gens = presentation_key(p, a, b, at)
    steps = complete(gens[:5], p, a).steps
    assert steps < complete(gens, p, a).steps
    assert decide._first_basis(gens, at, p, a, steps).steps == steps
    with pytest.raises(ResourceLimitError) as info:
        decide._first_basis(gens, at, p, a, steps - 1)
    assert (info.value.stage, info.value.detail) == ("gsb-completion",
                                                     "max_steps")
    assert not info.value.partial.complete
    with pytest.raises(ResourceLimitError) as info:
        decide_Ap(ids((X ** 3 - X).scale(4), nvars=1),
                  DecideOptions(max_gsb_steps=5))
    assert info.value.stage == "gsb-completion"
    assert not info.value.partial.complete


def test_later_rounds_extend_the_previous_basis():
    # each later round completes its new image alone, from the previous
    # round's complete basis; the scan must see the same normal words and
    # the same images as on complete(gens).  An image comes from the scan
    # of a seeded identity, or else is the normal form of a seeded
    # polynomial.  With [X, Y] as ``until`` a round stops exactly when
    # complete(gens) is commutative, and otherwise runs as without it
    rng = random.Random(24)
    rounds = collapsed = scanned = 0
    for p in (2, 3, 5):
        for a in (1, 2, 3):
            for b, at in [(b, t * a) for b in range(a + 1) for t in (1, 2, 3)
                          if t * a <= 4]:
                gens = presentation_key(p, a, b, at)
                grown = decide._first_basis(gens, at, p, a, 10 ** 6)
                full = complete(gens, p, a)
                m = p ** a
                for _ in range(10):
                    P = NcPoly({(1,) * k: rng.randrange(-3, 4)
                                for k in range(1, 4)})
                    sid = ids(P.scale(p ** rng.randrange(a)), nvars=1)
                    scans = [decide._specialization_scan(sid, basis, at, 0, "")
                             for basis in (grown, full)]
                    assert scans[0] == scans[1]
                    nf = scans[0][0]
                    scanned += nf is not None
                    if nf is None:
                        f = NcPoly({tuple(rng.randint(1, 2)
                                          for _ in range(rng.randint(2, 4))):
                                    p * rng.randrange(1, m)
                                    for _ in range(rng.randint(1, 3))}, m)
                        nf = full.normal_form(f)
                        assert grown.normal_form(f) == nf
                        if nf.is_zero():
                            continue
                    gens.append(nf.lift())
                    cut = complete(gens[-1:], p, a, start=grown,
                                   until=COMMUTATOR)
                    grown = complete(gens[-1:], p, a, start=grown)
                    full = complete(gens, p, a)
                    rounds += 1
                    assert grown.complete
                    assert cut.complete != is_commutative_presentation(full)
                    if not cut.complete:
                        collapsed += 1
                        break
                    assert cut.dump() == grown.dump()
                    assert decide._normal_words(grown, at) == \
                        decide._normal_words(full, at)
    assert rounds - collapsed >= 25 and collapsed >= 25 and scanned >= 50


def test_overlong_word_generator_ends_the_first_round(monkeypatch):
    # at = 41 > gsb.MAX_DEGREE: the first round stops at the word
    # generators, before any normal word is listed
    def refuse(basis, at):
        raise AssertionError("normal words listed past MAX_DEGREE")

    monkeypatch.setattr(decide, "_normal_words", refuse)
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError) as info:
        decide_Ap(ids(X ** 41 - X ** 42, nvars=1))
    assert time.perf_counter() - start < 1.0
    assert (info.value.stage, info.value.limit,
            info.value.detail) == ("gsb-completion", 40, "max_degree")
    assert not info.value.partial.complete


def enumerated_scan(ids, basis, scan_length, spent, detail):
    # the specialization scan without the point set: every assignment of
    # the box, in plain product order, until one gives a nonzero image.
    # The words go longest first and lexicographic within a length, so
    # the constant word varies fastest, then X2 before X1, where the scan
    # tries X1 first.  (With the longest word fastest, the first round
    # of (X^2 + X)^2 ran for over a minute without an image.)
    normal = sorted(decide._normal_words(basis, scan_length),
                    key=lambda wr: (-len(wr[0]), wr[0]))
    words = [w for w, _ in normal]
    s = ids.nvars
    for k in itertools.product(*(range(r) for _, r in normal
                                 for _ in range(s))):
        spent += 1
        if spent > decide.MAX_SPECIALIZATIONS:
            raise ResourceLimitError("specialization-scan",
                                     decide.MAX_SPECIALIZATIONS, detail)
        assignment = {i + 1: NcPoly(dict(zip(words, k[i::s])))
                      for i in range(s)}
        for P in ids.polys:
            nf = basis.normal_form(P.substitute(assignment))
            if not nf.is_zero():
                return nf, spent
    return None, spent


WITNESS_IDENTITIES = [(X ** 2 + X) ** 2, (X ** 2 - X) ** 2, (X ** 3 - X) ** 2,
                      (X ** 3 + X) ** 2, (X ** 2 - X).scale(4),
                      (X ** 3 - X).scale(4)]


@pytest.fixture(scope="module")
def witness_bases():
    return [(P, decide_Ap(ids(P, nvars=1))[1]) for P in WITNESS_IDENTITIES]


def _random_identity(rng, nvars, degree):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        w = tuple(rng.randint(1, nvars)
                  for _ in range(rng.randint(1, degree)))
        terms[w] = terms.get(w, 0) + rng.choice([-2, -1, 1, 2, 3])
    return NcPoly(terms)


def _scan_sets(rng, P, p, a, s, space):
    # seeded random sets of one or two identities, plus, where the full
    # enumeration is short, sets that vanish on the witness: a multiple
    # of its identity and a p^a-multiple
    v = NcPoly.var(rng.randint(1, s))
    sets = [tuple(_random_identity(rng, s, 3)
                  for _ in range(rng.randint(1, 2))) for _ in range(8)]
    if space <= 1024:
        sets += [(rng.choice([P * v, v * P]),),
                 (_random_identity(rng, s, 3).scale(p ** a), P)]
    return [IdentitySet(s, S) for S in sets]


def test_evaluate_matches_reduced_substitution(witness_bases):
    # reducing after every product must give the normal form of the
    # whole image term for term, also for coefficients at and past a
    # word's range p^e and for identities with a constant term
    rng = random.Random(12)
    for _, w in witness_bases:
        basis = w.basis
        normal = decide._normal_words(basis, w.scan_length)
        for s in (1, 2):
            for _ in range(5):
                P = _random_identity(rng, s, 6) + rng.randint(-1, 1)
                for _ in range(3):
                    images = {i: {wd: rng.choice([0, 1, r - 1, r, r + 1,
                                                  2 * r, -1])
                                  for wd, r in normal}
                              for i in range(1, s + 1)}
                    got = basis.evaluate(P, images)
                    want = basis.normal_form(P.substitute(
                        {i: NcPoly(t) for i, t in images.items()}))
                    assert got == want
                    assert list(got.terms.items()) == \
                        list(want.terms.items())


def test_point_set_scan_matches_full_enumeration(witness_bases, monkeypatch):
    # the scan must agree with the full enumeration on whether every
    # specialization vanishes, and a set that fails must get a nonzero
    # reduced image
    rng = random.Random(10)
    seen = set()
    for P, w in witness_bases:
        p, a = w.family.p, w.family.a
        for length in range(1, w.scan_length + 1):
            normal = decide._normal_words(w.basis, length)
            for s in (1, 2):
                space = math.prod(r for _, r in normal) ** s
                if space > 20000:
                    continue
                for S in _scan_sets(rng, P, p, a, s, space):
                    D = max(0, *(Q.degree() for Q in S.polys))
                    points = math.comb(len(normal) * s + D, D)
                    got, _ = decide._specialization_scan(
                        S, w.basis, length, 0, "test")
                    with monkeypatch.context() as roomy:
                        roomy.setattr(decide, "MAX_SPECIALIZATIONS", 10 ** 6)
                        ref, _ = enumerated_scan(S, w.basis, length, 0,
                                                 "test")
                    assert (got is None) == (ref is None)
                    if got is not None:
                        assert not got.is_zero()
                        assert w.basis.normal_form(got) == got
                    seen.add((points < space, got is None))
    assert seen == {(True, True), (True, False), (False, True),
                    (False, False)}


def test_completion_ends_in_the_same_basis_in_any_scan_order(monkeypatch):
    # each nonzero image lies in the least ideal that contains the
    # generators and satisfies the identities, so which image a round
    # adds cannot change the final basis: rounds that take the plain
    # enumeration's image, another one at least once, must end in the
    # same witness.  Whether the last round vanishes is the scan's
    # answer, checked against the enumeration above.
    expected = [decide_Ap(ids(P, nvars=1))[1] for P in WITNESS_IDENTITIES]
    scan = decide._specialization_scan
    differs = []

    def reference(ids, basis, length, spent, detail):
        got = scan(ids, basis, length, spent, detail)
        if got[0] is None:
            return got
        ref = enumerated_scan(ids, basis, length, spent, detail)
        assert ref[0] is not None
        differs.append(ref[0] != got[0])
        return ref

    monkeypatch.setattr(decide, "_specialization_scan", reference)
    for P, w in zip(WITNESS_IDENTITIES, expected):
        p, got = decide_Ap(ids(P, nvars=1))
        assert isinstance(got, PresentedWitness)
        assert (got.basis.dump(), got.scan_length) == \
            (w.basis.dump(), w.scan_length)
    assert any(differs)


@pytest.mark.parametrize("P", [(X ** 3 - X).scale(4), (X ** 2 - X).scale(8),
                               (X ** 3 - X).scale(9)],
                         ids=["4(X^3-X)", "8(X^2-X)", "9(X^3-X)"])
def test_presented_witness_decided_from_the_point_set(P):
    # the full enumeration took seconds or hit the specialization-space
    # limit on each; the point set decides all three at once
    sid = ids(P, nvars=1)
    start = time.perf_counter()
    p, w = decide_Ap(sid)
    assert time.perf_counter() - start < 1.0
    assert isinstance(w, PresentedWitness)
    assert decide.verify(w, sid)
    # spot check from outside the scan: random elements spanned by all
    # words shorter than the scan length, coefficients mod p^a
    q = w.family.p ** w.family.a
    words = [wd for n in range(w.scan_length)
             for wd in itertools.product((1, 2), repeat=n)]
    rng = random.Random(2000)
    for _ in range(2000):
        x = NcPoly({wd: rng.randrange(q) for wd in words})
        assert w.normal_form(P.substitute({1: x})).is_zero()
