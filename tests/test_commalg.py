import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from commforce.commalg import (CPoly, field_ideal_divmod,
                               field_ideal_normal_form, frobenius_scale,
                               prime_factorization, lattice_points,
                               trial_factor, univ, value_gcd)
from commforce.errors import ResourceLimitError
from reference import cartier, cartier_reconstruct, univariate_membership


def cpolys(p, nvars=2):
    exps = st.tuples(*([st.integers(0, 7)] * nvars))
    return st.dictionaries(exps, st.integers(1, p - 1) if p > 2
                           else st.just(1), max_size=5).map(
        lambda t: CPoly(t, nvars, p))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_cartier_reconstruct_examples(p):
    P = CPoly({(3, 1): 1, (0, 4): p - 1, (2, 2): 1}, 2, p)
    assert cartier_reconstruct(P) == P


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_cartier_reconstruct_random(data):
    p = data.draw(st.sampled_from([2, 3, 5]))
    P = data.draw(cpolys(p))
    assert cartier_reconstruct(P) == P


def test_cartier_extracts_blocks():
    # X^5 Y^2 mod 3: index (2, 2), inner exponent (1, 0)
    P = CPoly({(5, 2): 2}, 2, 3)
    assert cartier(P, (2, 2)).terms == {(1, 0): 2}
    assert cartier(P, (0, 0)).is_zero()


def test_frobenius_scale():
    P = CPoly({(1, 2): 1}, 2, 3)
    assert frobenius_scale(P, 2).terms == {(9, 18): 1}


def test_field_ideal_normal_form_frozen():
    # X^5 modulo (2, X^4 - X): exponent folds to 2
    P = CPoly({(5,): 1}, 1, None)
    assert field_ideal_normal_form(P, 2, 2).terms == {(2,): 1}
    # (X^2 - X)^2 expands to X^4 + X^2 mod 2 and vanishes on F_2
    sq = CPoly({(4,): 1, (2,): 1}, 1, None)
    assert field_ideal_normal_form(sq, 2, 1).is_zero()
    # X^2 + X + 1 is 1 at both points of F_2
    assert field_ideal_normal_form(CPoly({(2,): 1, (1,): 1, (0,): 1}, 1, None),
                                   2, 1).terms == {(0,): 1}
    # but X^2 - X itself is an identity of F_2
    assert field_ideal_normal_form(CPoly({(2,): 1, (1,): -1}, 1, None),
                                   2, 1).is_zero()


def test_field_ideal_vs_brute_force():
    # nf zero iff the polynomial vanishes on all of F_p^s (n = 1)
    for p in (2, 3):
        P = CPoly({(p, 0): 1, (1, 0): -1}, 2, p)
        assert field_ideal_normal_form(P, p, 1).is_zero()
        Q = CPoly({(1, 1): 1}, 2, p)
        nf = field_ideal_normal_form(Q, p, 1)
        vanishes = all(Q.eval(pt) % p == 0
                       for pt in itertools.product(range(p), repeat=2))
        assert nf.is_zero() == vanishes


def test_value_gcd():
    # x^2 y^2 (2 + x^2) is divisible by 3 at every integer point
    P = CPoly({(2, 2): 2, (4, 2): 1}, 2, None)
    assert value_gcd([P]) == 3
    assert value_gcd([P.scale(2), CPoly({(1, 0): 6}, 2)]) == 6
    assert value_gcd([CPoly.zero(2)]) == 0
    assert value_gcd([]) == 0
    # Jacobson: gcd of k^n - k is the product of the p with p-1 | n-1
    assert value_gcd([univ({13: 1, 1: -1})]) == 2 * 3 * 5 * 7 * 13


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda s: st.dictionaries(
    st.tuples(*([st.integers(0, 3)] * s)),
    st.integers(-40, 40).filter(bool), max_size=4).map(
        lambda t: CPoly(t, s, None))))
def test_value_gcd_matches_larger_box(P):
    D = max(P.degree(), 0)
    g = 0
    for point in itertools.product(range(-2, D + 3), repeat=P.nvars):
        g = math.gcd(g, P.eval(point))
    assert value_gcd([P]) == g


def test_univariate_membership():
    assert univariate_membership(univ({3: 1, 1: -1}), "lin", 3)
    assert not univariate_membership(univ({2: 1}), "lin", 3)
    # X^p(X^p - ... ) square membership: (X^2 - X)^2 itself
    sq = univ({4: 1, 3: -2, 2: 1})
    assert univariate_membership(sq, "sq", 2)
    assert not univariate_membership(univ({2: 1, 1: -1}), "sq", 2)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_field_ideal_divmod_reconstructs(data):
    p = data.draw(st.sampled_from([2, 3, 5]))
    s = data.draw(st.integers(1, 3))
    P = data.draw(st.dictionaries(st.tuples(*([st.integers(0, 12)] * s)),
                                  st.integers(-9, 9), max_size=6).map(
        lambda t: CPoly(t, s, None)))
    i = data.draw(st.integers(1, s))
    A, R = field_ideal_divmod(P, i, p)
    Xi = CPoly.var(i, s, p)
    assert (Xi ** p - Xi) * A + R == P.mod(p)
    assert all(e[i - 1] < p for e in R.terms)


@given(st.sampled_from([2, 3, 5, 7]),
       st.dictionaries(st.integers(0, 16), st.integers(-6, 6), max_size=6))
@settings(max_examples=300, deadline=None)
def test_univariate_membership_vs_brute_force(p, coeffs):
    # X^p - X is squarefree over F_p with every point of F_p a root, so
    # P lies in (p, X^p - X) iff P vanishes on F_p, and in
    # (p, (X^p - X)^2) iff both P and its derivative do
    P = univ(coeffs)
    dP = univ({d - 1: d * c for d, c in coeffs.items() if d})
    lin = all(P.eval((x,)) % p == 0 for x in range(p))
    sq = lin and all(dP.eval((x,)) % p == 0 for x in range(p))
    assert univariate_membership(P, "lin", p) == lin
    assert univariate_membership(P, "sq", p) == sq


def test_trial_factor():
    assert trial_factor(360) == [(2, 3), (3, 2), (5, 1)]
    assert trial_factor(-7) == [(7, 1)]
    assert trial_factor(1) == []
    assert trial_factor(0) == []
    with pytest.raises(OverflowError):
        trial_factor((10 ** 9 + 7) * (10 ** 9 + 9), step_budget=10)


def test_prime_factorization_budget_is_a_limit():
    assert prime_factorization(-360, "s") == [(2, 3), (3, 2), (5, 1)]
    with pytest.raises(ResourceLimitError) as e:
        prime_factorization(-(2 ** 61 - 1), "characteristic-factoring")
    assert (e.value.stage, e.value.limit, e.value.detail) == \
        ("characteristic-factoring", 2 ** 61 - 1, "")


@pytest.mark.parametrize("n,D", [(0, 0), (0, 3), (1, 4), (3, 0), (3, 3),
                                 (5, 2)])
def test_lattice_points_by_sum(n, D):
    pts = list(lattice_points(n, D))
    assert len(pts) == len(set(pts)) == math.comb(n + D, D)
    assert set(pts) == {pt for pt in itertools.product(range(D + 1), repeat=n)
                        if sum(pt) <= D}
    # colex: the last nonzero coordinate never decreases
    last = [max((i for i, c in enumerate(pt) if c), default=-1) for pt in pts]
    assert last == sorted(last)


@given(st.lists(st.dictionaries(st.tuples(*([st.integers(0, 4)] * 2)),
                                st.integers(-30, 30), max_size=4),
                min_size=1, max_size=3))
@settings(max_examples=150, deadline=None)
def test_value_gcd_matches_the_filtered_grid(termss):
    # the gcd over the lattice points equals the gcd over the points of
    # {0,...,D}^2 with sum at most D, and over the whole grid {0,...,D+2}^2
    polys = [CPoly(t, 2) for t in termss]
    ref = wide = 0
    for P in polys:
        D = max(P.degree(), 0)
        for pt in itertools.product(range(D + 3), repeat=2):
            wide = math.gcd(wide, P.eval(pt))
            if sum(pt) <= D:
                ref = math.gcd(ref, P.eval(pt))
    assert value_gcd(polys) == ref == wide
