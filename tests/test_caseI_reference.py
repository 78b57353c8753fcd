"""Differential tests of the case-I normal form against a rank-factorized
reference.

The reference condenses each commutator pair's sandwich matrix into
independent A and C families by unimodular integer row reduction, the
way ``reduce_caseI`` once did.  Every consumer of the form is bilinear
in (A, C), so the library's one-record-per-word form must give the same
flattened form, the same kappa and the same lemma-3.3 instance values.
"""

import pytest
from hypothesis import given, settings, strategies as st

from commforce import decide
from commforce.decide import (IdentitySet, _case_one_instances, _instance_gcd,
                              _instance_value)
from commforce.freealg import (CaseIForm, NcPoly, _straighten_collect,
                               bar_transversal, deglex_key, reduce_Ap,
                               reduce_caseI)


def rank_factorization(M):
    """M = L*R over Z with L of independent columns and R of independent
    rows, by unimodular row reduction M = U*H."""
    r = len(M)
    c = len(M[0]) if r else 0
    H = [list(row) for row in M]
    U = [[1 if i == j else 0 for j in range(r)] for i in range(r)]

    def row_op(i, j, t):
        for k in range(c):
            H[i][k] -= t * H[j][k]
        for k in range(r):
            U[k][j] += t * U[k][i]

    def row_swap(i, j):
        H[i], H[j] = H[j], H[i]
        for k in range(r):
            U[k][i], U[k][j] = U[k][j], U[k][i]

    piv = 0
    for col in range(c):
        if piv >= r:
            break
        while True:
            rows = [i for i in range(piv, r) if H[i][col]]
            if not rows:
                break
            best = min(rows, key=lambda i: abs(H[i][col]))
            done = True
            for i in rows:
                if i == best:
                    continue
                row_op(i, best, H[i][col] // H[best][col])
                if H[i][col]:
                    done = False
            if done:
                if best != piv:
                    row_swap(best, piv)
                break
        if piv < r and H[piv][col]:
            if H[piv][col] < 0:
                H[piv] = [-v for v in H[piv]]
                for k in range(r):
                    U[k][piv] = -U[k][piv]
            piv += 1
    L = [[U[i][k] for k in range(piv)] for i in range(r)]
    return L, H[:piv]


def reference_caseI(P):
    bar_terms, comm = _straighten_collect(P)
    records = []
    for (i, j) in sorted(comm):
        block = {(aw, cw): c for aw, row in comm[(i, j)].items()
                 for cw, c in row.items()}
        a_words = sorted({aw for (aw, _) in block}, key=deglex_key)
        c_words = sorted({cw for (_, cw) in block}, key=deglex_key)
        M = [[block.get((aw, cw), 0) for cw in c_words] for aw in a_words]
        L, R = rank_factorization(M)
        for k in range(len(R)):
            A = NcPoly({aw: L[r][k] for r, aw in enumerate(a_words)},
                       P.modulus)
            C = NcPoly({cw: R[k][s] for s, cw in enumerate(c_words)},
                       P.modulus)
            if not (A.is_zero() or C.is_zero()):
                records.append((i, j, A, C))
    return CaseIForm(NcPoly(bar_terms, P.modulus), records)


def reference_Ap(P):
    form = reference_caseI(P)
    A = {}
    for (i, j, Ak, Ck) in form.comm_terms:
        prod = bar_transversal(Ak * Ck)
        A[(i, j)] = A[(i, j)] + prod if (i, j) in A else prod
    return form.bar, {k: v for k, v in A.items() if not v.is_zero()}


def test_rank_factorization_reconstructs():
    M = [[2, 4, 6], [1, 2, 3], [0, 3, -1]]
    L, R = rank_factorization(M)
    assert len(R) == 2
    assert [[sum(L[i][k] * R[k][j] for k in range(len(R))) for j in range(3)]
            for i in range(3)] == M


def polys(nvars):
    words = st.lists(st.integers(1, nvars), max_size=5).map(tuple)
    return st.dictionaries(words, st.integers(-5, 5), max_size=8).map(NcPoly)


def identity_sets():
    return st.integers(2, 3).flatmap(lambda s: st.tuples(
        st.just(s), st.lists(polys(s), min_size=1, max_size=2)))


def tensor(form):
    """sum_k A_k (x) C_k per pair, as {(i, j, A-word, C-word): coeff}."""
    out = {}
    for (i, j, A, C) in form.comm_terms:
        for aw, a in A.terms.items():
            for cw, c in C.terms.items():
                key = (i, j, aw, cw)
                out[key] = out.get(key, 0) + a * c
    return {k: v for k, v in out.items() if v}


@given(identity_sets())
@settings(max_examples=150, deadline=None)
def test_caseI_matches_rank_factorized_reference(case):
    s, ps = case
    for P in ps:
        form, ref = reduce_caseI(P), reference_caseI(P)
        assert form.bar == ref.bar
        assert tensor(form) == tensor(ref)
        assert form.pairs() == ref.pairs()
        flat = reduce_Ap(P)
        assert (flat.H, flat.A) == reference_Ap(P)
    ids = IdentitySet(s, tuple(ps))
    low, high, kappa = _case_one_instances(ids)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decide, "reduce_caseI", reference_caseI)
        rlow, rhigh, rkappa = _case_one_instances(ids)
    assert kappa == rkappa
    assert (len(low), len(high)) == (len(rlow), len(rhigh))
    for got, want in zip(low + high, rlow + rhigh):
        assert _instance_gcd(got, s) == _instance_gcd(want, s)
        for p in (2, 3, 5):
            for k in (1, 2):
                assert _instance_value(got, s, p, k) == \
                    _instance_value(want, s, p, k)
