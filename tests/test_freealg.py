import pytest
from hypothesis import given, settings, strategies as st

from commforce import freealg
from commforce.errors import ResourceLimitError
from commforce.freealg import (NcPoly, abelianize, bar_transversal, commutator,
                               deglex_key, format_ncpoly, from_cpoly,
                               reduce_Ap, reduce_caseI)

X = NcPoly.var(1)
Y = NcPoly.var(2)


def words(max_len=4, nvars=2):
    return st.lists(st.integers(1, nvars), max_size=max_len).map(tuple)


def ncpolys(max_len=4, nvars=2):
    return st.dictionaries(words(max_len, nvars), st.integers(-5, 5),
                           max_size=5).map(NcPoly)


def test_deglex_order():
    assert deglex_key((1,)) < deglex_key((2,))
    assert deglex_key((2,)) < deglex_key((1, 1))
    assert deglex_key((1, 2)) < deglex_key((2, 1))


@given(st.dictionaries(words(max_len=5, nvars=3), st.integers(-5, 5),
                       max_size=30))
def test_terms_iterate_in_deglex_order(t):
    ws = list(NcPoly(t).terms)
    assert ws == sorted(ws, key=deglex_key)
    assert set(ws) == {w for w, c in t.items() if c}


def test_arithmetic_basics():
    assert (X + Y) * (X - Y) == X * X - X * Y + Y * X - Y * Y
    assert X ** 3 == NcPoly.from_word((1, 1, 1))
    assert commutator(X, Y) == X * Y - Y * X
    assert (X * Y).coeff((1, 2)) == 1


@given(ncpolys(), ncpolys(), ncpolys())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * (b * c) == (a * b) * c
    assert a * (b + c) == a * b + a * c


@given(ncpolys(3), ncpolys(3))
@settings(max_examples=40, deadline=None)
def test_substitute_is_multiplicative(a, b):
    sub = {1: X + Y, 2: X * Y}
    assert (a * b).substitute(sub) == a.substitute(sub) * b.substitute(sub)
    assert (a + b).substitute(sub) == a.substitute(sub) + b.substitute(sub)


@given(ncpolys(3), ncpolys(3), st.integers(-5, 5),
       st.sampled_from([None, 4, 9]))
@settings(max_examples=60, deadline=None)
def test_substitute_matches_product_of_images(P, A, c, m):
    # reference: c_w * img(w_1) * ... * img(w_k) summed over the terms,
    # reducing mod m after every product
    P, A = P.mod(m), A.mod(m)
    sub = {1: A, 2: c}
    imgs = {1: A, 2: NcPoly.const(c, m)}
    want = NcPoly.zero(m)
    for w, k in P.terms.items():
        term = NcPoly.const(k, m)
        for letter in w:
            term = term * imgs[letter]
        want = want + term
    got = P.substitute(sub)
    assert got == want
    assert list(got.terms) == list(want.terms)


def test_substitute_checks_assignment():
    with pytest.raises(KeyError):
        (X * Y).substitute({1: X})
    with pytest.raises(ValueError):
        (X * Y).substitute({1: X.mod(4), 2: Y})


@given(ncpolys())
@settings(max_examples=60, deadline=None)
def test_bar_preserves_commutative_image(P):
    assert abelianize(bar_transversal(P), 2) == abelianize(P, 2)
    # sorted-word transversal is a projection
    assert bar_transversal(bar_transversal(P)) == bar_transversal(P)


def test_abelianize_roundtrip():
    P = X * Y * X + Y * X * X
    Q = abelianize(P, 2)
    assert Q.coeff((2, 1)) == 2
    assert abelianize(from_cpoly(Q), 2) == Q


def test_reduce_caseI_known_form():
    # X^2Y^2 + X^4Y^2 + XYXY splits into a sorted part 2X^2Y^2 + X^4Y^2
    # and the commutator part -X [X,Y] Y
    P = X * X * Y * Y + X ** 4 * Y * Y + X * Y * X * Y
    form = reduce_caseI(P)
    assert form.bar == (X ** 2 * Y ** 2).scale(2) + X ** 4 * Y ** 2
    assert form.pairs() == [(1, 2)]
    total = NcPoly.zero()
    for (i, j, A, C) in form.comm_terms:
        assert (i, j) == (1, 2)
        total = total + A * commutator(X, Y) * C
    assert total == -(X * commutator(X, Y) * Y)


def test_reduce_caseI_pure_commutator():
    form = reduce_caseI(Y * X)
    assert form.bar == X * Y
    assert len(form.comm_terms) == 1
    i, j, A, C = form.comm_terms[0]
    assert (i, j) == (1, 2)
    assert A * commutator(X, Y) * C == -commutator(X, Y)


@given(ncpolys(4))
@settings(max_examples=40, deadline=None)
def test_reduce_caseI_reassembles(P):
    form = reduce_caseI(P)
    R = form.reassemble()
    # equality modulo the square of the commutator ideal is certified
    # elsewhere; the commutative images always agree
    assert abelianize(R, 2) == abelianize(P, 2)


def test_reduce_Ap_known_form():
    form = reduce_Ap(X * Y * X * Y)
    assert form.H == X ** 2 * Y ** 2
    assert set(form.A) == {(1, 2)}
    assert abelianize(form.A[(1, 2)], 2) == abelianize(-(X * Y), 2)


def test_format_roundtrip_shape():
    P = (X ** 2 * Y).scale(2) - Y ** 3
    assert format_ncpoly(P, names="XY") == "2*X^2*Y - Y^3"


def test_reduce_caseI_records_are_words_with_collected_sandwiches():
    # YXX = XXY - [X,Y]X - X[X,Y] and YXY = XYY - [X,Y]Y: the left word 1
    # collects both right sandwiches, X and Y, into one record
    form = reduce_caseI(Y * X * X + Y * X * Y)
    assert form.bar == X * X * Y + X * Y * Y
    assert form.comm_terms == [(1, 2, NcPoly.const(1), -X - Y),
                               (1, 2, X, NcPoly.const(-1))]


def test_expansion_budget_is_a_limit():
    assert (X + Y) ** 16 == (X + Y) ** 15 * (X + Y)
    with pytest.raises(ResourceLimitError) as e:
        (X + Y) ** 17
    assert (e.value.stage, e.value.limit) == ("expansion",
                                              freealg.MAX_TERM_PAIRS)
    assert (X ** 2) ** (freealg.MAX_POWER_DEGREE // 2) == \
        X ** freealg.MAX_POWER_DEGREE
    for base in (X ** 2, NcPoly.const(2)):
        with pytest.raises(ResourceLimitError) as e:
            base ** (freealg.MAX_POWER_DEGREE + 1)
        assert (e.value.stage, e.value.limit) == ("expansion",
                                                  freealg.MAX_POWER_DEGREE)


@given(ncpolys(max_len=3), st.integers(0, 4),
       st.sampled_from([None, 2, 4, 6, 7]))
@settings(max_examples=80, deadline=None)
def test_power_is_repeated_product(P, k, m):
    """``term_power`` (a single term in one step) equals k products."""
    if m is not None:
        P = P.mod(m)
    out = NcPoly.const(1, m)
    for _ in range(k):
        out = out * P
    assert P ** k == out
    assert list((P ** k).terms) == list(out.terms)
