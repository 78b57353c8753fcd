import itertools
import random

import pytest

from commforce.errors import ResourceLimitError
from commforce.freealg import NcPoly, commutator
from commforce.gsb import (COMMUTATOR, GsBasis, GsPoly, _compositions,
                           complete, is_commutative_presentation,
                           reduce_terms)
from reference import initial_term, truncated_ideal_membership

X = NcPoly.var(1)
Y = NcPoly.var(2)


def test_gspoly_normalizes_lead_to_p_power():
    # lead 3*XY over Z/4 scales by 3^-1 = 3
    g = GsPoly({(1, 2): 3, (1,): 2}, 2, 2)
    assert initial_term(g) == (1, (1, 2))
    assert g.terms[(1, 2)] == 1
    assert g.terms[(1,)] == 2


def test_commutative_presentation_mod4():
    basis = complete([NcPoly.const(2), commutator(X, Y)], 2, 2)
    assert basis.complete
    assert is_commutative_presentation(basis)
    # 2*anything also dies: the coefficient composition fired
    assert basis.normal_form((X * Y).scale(2)).is_zero()


def test_noncommutative_presentation():
    basis = complete([Y * X], 2, 1)
    assert not is_commutative_presentation(basis)
    assert basis.normal_form(X * Y).coeff((1, 2)) == 1


def test_coefficient_composition_membership():
    # over Z/4 the pair {X^2 + X, X^4} puts X itself in the ideal:
    # squaring gives X^2 = -X, so X^4 = X^2 = -X up to multiples
    basis = complete([X * X + X, X ** 4], 2, 2)
    assert basis.normal_form(X).is_zero()


def test_compositions_include_overlapping_inclusions():
    # in(g) = XX occurs in in(f) = XXX at positions 0 and 1; each gives
    # the inclusion composition f - left g right (degree 3), in order
    f = GsPoly({(1, 1, 1): 1, (2,): 1}, 3, 1)
    g = GsPoly({(1, 1): 1, (2,): 1}, 3, 1)
    inclusions = [t for deg, t in _compositions(f, g, 3, 1) if deg == 3]
    assert inclusions == [{(2,): 1, (2, 1): 2}, {(2,): 1, (1, 2): 2}]
    assert not [t for deg, t in _compositions(f, f, 3, 1) if deg == 3]


@pytest.mark.parametrize("p,a", [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)])
def test_structural_generators_terminate(p, a):
    gens = [X * commutator(X, Y), Y * commutator(X, Y),
            commutator(X, Y) * X, commutator(X, Y) * Y,
            commutator(X, Y).scale(p)]
    basis = complete(gens, p, a)
    assert basis.complete
    assert not basis.normal_form(commutator(X, Y)).is_zero()
    assert basis.normal_form(X * Y * X * Y - X * X * Y * Y).is_zero()


def test_completion_limit_carries_partial():
    with pytest.raises(ResourceLimitError) as info:
        complete([Y * X, X * Y, commutator(X, Y)], 2, 1, max_steps=1)
    assert info.value.partial is not None
    assert not info.value.partial.complete


@pytest.mark.parametrize("p,a", [(2, 1), (2, 2), (3, 2), (5, 1)])
def test_completion_from_a_complete_start(p, a):
    # extending a complete basis by new generators alone gives a complete
    # basis of the same ideal as completing everything from scratch, in
    # fewer steps than the scratch completion takes
    rng = random.Random(100 * p + a)
    m = p ** a
    trunc = [NcPoly.from_word(w) for w in itertools.product((1, 2), repeat=4)]
    for _ in range(8):
        old = [NcPoly(random_terms(rng, (1, 2), 3, m), m) for _ in range(2)]
        new = [NcPoly(random_terms(rng, (1, 2), 3, m), m)]
        start = complete(old + trunc, p, a)
        grown = complete(new, p, a, start=start)
        full = complete(old + trunc + new, p, a)
        assert grown.complete
        assert grown.steps < full.steps
        for _ in range(20):
            f = NcPoly(random_terms(rng, (1, 2), 5, m), m)
            assert grown.normal_form(f) == full.normal_form(f)


def test_completion_stops_once_until_reduces_to_zero():
    # X^2 - Y and X^3 make XY, YX and then [X, Y] reduce to zero; the
    # completion returns the partial basis at once, flagged incomplete
    gens = [X * X - Y, X ** 3]
    full = complete(gens, 2, 2)
    assert is_commutative_presentation(full)
    cut = complete(gens, 2, 2, until=COMMUTATOR)
    assert not cut.complete
    assert 0 < cut.steps < full.steps
    assert not reduce_terms(COMMUTATOR, cut.elements, 2, 2)
    # a completion whose ideal misses [X, Y] runs to the end as before
    kept = complete([Y * X], 2, 1, until=COMMUTATOR)
    assert kept.complete
    assert kept.dump() == complete([Y * X], 2, 1).dump()


def test_normal_form_requires_no_completion_flag_for_membership():
    basis = complete([X * X], 3, 1)
    assert basis.normal_form(Y * X * X * Y).is_zero()
    assert not basis.normal_form(X * Y * X).is_zero()


def random_poly(rng, max_len, p):
    terms = {}
    for _ in range(rng.randrange(1, 4)):
        w = tuple(rng.randrange(1, 3) for _ in range(rng.randrange(0, max_len)))
        terms[w] = rng.randrange(1, p)
    return NcPoly(terms)


@pytest.mark.parametrize("p", [2, 3])
def test_membership_agrees_with_truncated_oracle(p):
    # completing with all length-k words appended makes the truncated
    # quotient exact, so nf == 0 must match the linear-algebra oracle
    rng = random.Random(p)
    k = 4
    trunc = [NcPoly.from_word(w)
             for w in itertools.product((1, 2), repeat=k)]
    hits = 0
    for trial in range(60):
        gens = [random_poly(rng, k - 1, p) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        basis = complete(gens + trunc, p, 1)
        f = random_poly(rng, k - 1, p)
        member = truncated_ideal_membership(f, gens, p, k)
        assert basis.normal_form(f).is_zero() == member
        hits += member
    assert hits > 0


def _linear_reduce_terms(terms, basis, p, a):
    """Reference reducer: rescan the work dict for its deg-lex greatest
    word and the basis for the first element whose p-power lead
    coefficient fits and whose initial word occurs, at its first
    occurrence."""
    def occurrences(needle, haystack):
        n = len(needle)
        return [i for i in range(len(haystack) - n + 1)
                if haystack[i:i + n] == needle]

    m = p ** a
    work = {w: c % m for w, c in terms.items() if c % m}
    out = {}
    while work:
        w = max(work, key=lambda u: (len(u), u))
        c = work.pop(w)
        hit = None
        for h in basis:
            if c // (p ** h.lead_exp) == 0:
                continue
            occ = occurrences(h.lead_word, w)
            if occ:
                hit = (h, occ[0])
                break
        if hit is None:
            out[w] = c
            continue
        h, pos = hit
        work[w] = c
        factor = c // (p ** h.lead_exp)
        left, right = w[:pos], w[pos + len(h.lead_word):]
        for hw, hc in h.terms.items():
            key = left + hw + right
            v = (work.get(key, 0) - factor * hc) % m
            if v:
                work[key] = v
            elif key in work:
                del work[key]
    return out


def random_terms(rng, letters, max_len, m):
    return {tuple(rng.choice(letters) for _ in range(rng.randrange(max_len + 1))):
            rng.randrange(1, m) for _ in range(rng.randrange(1, 8))}


def assert_reducers_agree(rng, elements, p, a, letters, trials=30):
    m = p ** a
    basis = GsBasis(elements, p, a, False)
    for _ in range(trials):
        terms = random_terms(rng, letters, 7, m)
        want = _linear_reduce_terms(terms, elements, p, a)
        got = reduce_terms(terms, elements, p, a)
        assert list(got.items()) == list(want.items())
        assert basis.normal_form(NcPoly(terms)) == NcPoly(want, m)


@pytest.mark.parametrize("p,a", [(2, 2), (3, 2), (5, 1)])
def test_reducer_matches_linear_scan(p, a):
    # random term dicts against incomplete bases (random generators in
    # random order) and against their completions with every length-4
    # word added; lead coefficients p^e with e > 0 occur over Z/p^2
    rng = random.Random(10 * p + a)
    m = p ** a
    trunc = [NcPoly.from_word(w) for w in itertools.product((1, 2), repeat=4)]
    seen_exp = set()
    for _ in range(12):
        gens = [NcPoly(random_terms(rng, (1, 2), 3, m), m)
                for _ in range(rng.randrange(1, 4))]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        incomplete = [GsPoly(g.terms, p, a) for g in gens]
        basis = complete(gens + trunc, p, a)
        for elements in (incomplete, list(basis.elements)):
            seen_exp.update(g.lead_exp for g in elements)
            assert_reducers_agree(rng, elements, p, a, (1, 2))
    assert seen_exp == set(range(a))


def test_reducer_handles_variable_index_above_255():
    rng = random.Random(7)
    big, other = NcPoly.var(300), NcPoly.var(257)
    gens = [big * X - X, (big * big).scale(2) + other, other * X * big]
    elements = [GsPoly(g.terms, 2, 2) for g in gens]
    assert_reducers_agree(rng, elements, 2, 2, (1, 257, 300), trials=60)
    assert reduce_terms({(300, 300, 1): 2}, elements, 2, 2) == {(1,): 2}
