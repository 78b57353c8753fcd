import hashlib
import json
import os
import random
import tracemalloc

import numpy as np
import pytest

from commforce import finitering
from commforce.errors import ResourceLimitError
from commforce.finitering import (B, Fq, Mat, MinRing, Presented, TruncFree,
                                  Up, family_from_json, family_json,
                                  TabledRing, least_irreducible, make_ring)
from commforce.freealg import NcPoly, commutator
from commforce.oracle import SearchBounds, _families
from reference import eval_batch_per_prefix, exact_product

X = NcPoly.var(1)
Y = NcPoly.var(2)
Z = NcPoly.var(3)


def test_least_irreducible_f4():
    # X^2 + X + 1 is the first irreducible quadratic mod 2
    assert least_irreducible(2, 2) == (1, 1)


def test_fq_arithmetic_and_frobenius():
    fq = Fq(2, 2)
    g = fq.gen()
    assert fq.mul(g, g) == fq.add(g, fq.one())          # g^2 = g + 1
    assert fq.frobenius(g, 1) == fq.mul(g, g)
    assert fq.pow(g, 3) == fq.one()
    assert sorted(fq.elements()) == sorted(
        [(0, 0), (1, 0), (0, 1), (1, 1)])


def test_ring_sizes_frozen():
    assert make_ring(TruncFree(2, 3)).dim == 7
    assert make_ring(TruncFree(2, 3)).size == 128
    assert make_ring(MinRing(3)).size == 81
    assert make_ring(Up(2)).size == 8
    assert make_ring(B(2, 2, 1)).size == 16
    assert make_ring(Mat(2, 2, 1)).size == 16


def test_up_noncommutative_with_valid_pair():
    ring = make_ring(Up(3))
    pair = ring.is_commutative()
    assert pair is not True
    a, b = pair
    assert ring.mul(a, b) != ring.mul(b, a)


def test_minring_relations():
    ring = make_ring(MinRing(3))
    u = ring.basis_element(1)
    v = ring.basis_element(2)
    vu = ring.basis_element(3)
    assert ring.mul(u, u) == ring.zero()
    assert ring.mul(v, v) == ring.zero()
    assert ring.mul(u, v) == ring.zero()
    assert ring.mul(v, u) == vu
    assert ring.mul(vu, u) == ring.zero()
    assert ring.mul(u, vu) == ring.zero()


def test_b_ring_satisfies_twisted_identity():
    ring = make_ring(B(2, 2, 1))
    P = X * commutator(Y, Z) - commutator(Y, Z) * X * X
    assert ring.is_identity(P) is True
    assert ring.is_commutative() is not True


def test_is_identity_counterexample_is_real():
    ring = make_ring(Up(2))
    res = ring.is_identity(commutator(X, Y))
    assert res is not True
    assert any(ring.eval(commutator(X, Y), res))


def test_is_identity_eval_cap():
    ring = make_ring(MinRing(3))
    with pytest.raises(ResourceLimitError):
        ring.is_identity(commutator(X, Y), eval_cap=10)


def test_family_json_roundtrip():
    for fam in [Up(3), B(2, 2, 1), Mat(2, 2, 1), TruncFree(3, 3),
                MinRing(5), Presented(2, 2, ("X^2", "Y^2"))]:
        doc = family_json(fam)
        assert family_from_json(doc) == fam
    assert family_json(B(2, 2, 1))["modulus"] == [1, 1]


@pytest.mark.parametrize("doc", [
    {"family": "U", "p": 2.0},
    {"family": "U", "p": True},
    {"family": "U", "p": 4},
    {"family": "MinRing", "p": 0},
    {"family": "B", "p": 2, "n": 1, "l": 1},
    {"family": "B", "p": 2, "n": 3, "l": 3},
    {"family": "B", "p": 2, "n": 17, "l": 1},         # dimension 34
    {"family": "B", "p": 1031, "n": 2, "l": 1},       # field 1031^2
    {"family": "Mat", "k": 2, "p": 2, "n": 0},
    {"family": "TruncFree", "p": 2, "k": 1, "relations": []},
    {"family": "TruncFree", "p": 2, "k": 6, "relations": []},
    {"family": "TruncFree", "p": 2, "k": 3, "relations": [[]]},
    {"family": "TruncFree", "p": 2, "k": 3, "relations": [[1, 3]]},
    {"family": "TruncFree", "p": 2, "k": 3, "relations": "XY"},
    {"family": "Presented", "p": 2, "a": 65, "generators": []},
    {"family": "Presented", "p": 2, "a": 1, "generators": "X"},
    {"family": "Presented", "p": 9, "a": 1, "generators": []},
    {"family": "Tabled", "p": 2},
    [1],
])
def test_family_from_json_rejects_before_building(doc):
    with pytest.raises(ValueError):
        family_from_json(doc)


def test_family_size_bounds_documents():
    # the largest documents accepted in each direction
    for fam in (TruncFree(2, 5), B(2, 16, 1), B(1021, 2, 1), Mat(2, 2, 2)):
        assert family_from_json(family_json(fam)) == fam
        assert finitering.family_size(fam) <= finitering.MAX_DOC_SIZE
    assert finitering.family_size(TruncFree(2, 10 ** 9)) > \
        finitering.MAX_DOC_SIZE


def test_presented_not_tabled():
    with pytest.raises(ValueError):
        make_ring(Presented(2, 2, ()))


def test_truncfree_with_relations():
    # killing u^2, v^2, uv but keeping vu matches the minimal ring sizes
    ring = make_ring(TruncFree(2, 3, ((1, 1), (2, 2), (1, 2))))
    assert ring.size == 2 ** 4


def _fixed_chunk_scan(ring, P):
    # reference scan in fixed 65536-tuple batches with the element table
    # built inline: is_identity must return the same result, True or the
    # first failing tuple, whatever its batch schedule
    chunk = 1 << 16
    vs = P.variables()
    s = max(vs) if vs else 1
    total = ring.size ** s
    digits = np.arange(ring.size, dtype=np.int64)
    elems = np.empty((ring.size, ring.dim), dtype=np.int64)
    rest = digits
    for i in range(ring.dim - 1, -1, -1):
        elems[:, i] = rest % ring.char
        rest = rest // ring.char
    for lo in range(0, total, chunk):
        hi = min(lo + chunk, total)
        flat = np.arange(lo, hi, dtype=np.int64)
        rest = flat
        idxs = []
        for v in range(s - 1, -1, -1):
            idxs.append(rest % ring.size)
            rest = rest // ring.size
        idxs.reverse()
        vals = ring.eval_batch(P, [elems[ix] for ix in idxs])
        bad = np.nonzero(vals.any(axis=1))[0]
        if bad.size:
            k = int(flat[bad[0]])
            tup = []
            for v in range(s - 1, -1, -1):
                tup.append(ring.element_from_index(k % ring.size))
                k //= ring.size
            return tuple(reversed(tup))
    return True


C = commutator
SCAN_CASES = [
    (Up(2), X * X - X),
    (Up(2), C(X, Y) * C(X, Y)),
    (Up(2), C(X, Y) * Z * C(X, Y)),
    (Up(5), X ** 5 - X),
    (Up(5), C(X, Y) * C(X, Y)),
    (Up(5), X * C(Y, Z) - C(Y, Z) * X),          # first failure at 15755
    (B(2, 3, 1), X ** 8 - X),
    (B(2, 3, 1), C(X, Y)),
    (B(2, 3, 1), C(X, Y) * C(X, Y)),
    (B(2, 3, 1), X * C(Y, Z) - C(Y, Z) * X),
    (Mat(2, 3, 1), X ** 9 - X),
    (Mat(2, 3, 1), C(X, Y)),
    (Mat(2, 3, 1), C(C(X, Y) * C(X, Y), X)),     # Hall identity holds
    (Mat(2, 3, 1), X * Y * Z - Z * Y * X),       # first failure at 6645
    (TruncFree(3, 3), X ** 3 - X),
    (TruncFree(3, 3), X ** 9 - X ** 3),
    (TruncFree(3, 3), C(X, Y)),                  # first failure at 177390
    (MinRing(3), C(X, Y)),
    (MinRing(3), C(X, Y) * C(X, Y)),
    (MinRing(3), X * C(Y, Z)),                   # first failure at 177399
]


@pytest.mark.parametrize("fam,P", SCAN_CASES, ids=[
    "%r-%d" % (fam, i) for i, (fam, _) in enumerate(SCAN_CASES)])
def test_is_identity_matches_fixed_chunk_scan(fam, P):
    ring = make_ring(fam)
    assert ring.is_identity(P) == _fixed_chunk_scan(ring, P)


@pytest.mark.parametrize("fam,P", SCAN_CASES, ids=[
    "%r-%d" % (fam, i) for i, (fam, _) in enumerate(SCAN_CASES)])
def test_holds_matches_is_identity(fam, P):
    ring = make_ring(fam)
    assert ring.holds(P) == (ring.is_identity(P) is True)


def test_holds_scans_linear_variables_over_the_basis(monkeypatch):
    # [X,Y] is linear in both variables: 15^2 basis pairs, no 5^15-row
    # element array
    ring = make_ring(TruncFree(5, 4))

    def no_elements(self):
        raise AssertionError("element array built")

    monkeypatch.setattr(TabledRing, "elements", no_elements)
    assert ring.holds(C(X, Y)) is False
    with pytest.raises(ResourceLimitError):
        ring.holds(X * X * Y)


def test_elements_match_element_from_index():
    ring = make_ring(TruncFree(2, 3))
    assert [tuple(map(int, row)) for row in ring.elements()] == [
        ring.element_from_index(i) for i in range(ring.size)]


def _record_batches(monkeypatch):
    rows = []
    eval_batch = TabledRing.eval_batch

    def recording(self, P, columns):
        rows.append(columns[0].shape[0])
        return eval_batch(self, P, columns)

    monkeypatch.setattr(TabledRing, "eval_batch", recording)
    return rows


def test_is_identity_batches_grow_to_chunk(monkeypatch):
    rows = _record_batches(monkeypatch)
    ring = make_ring(MinRing(3))
    assert ring.is_identity(C(X, Y) * C(X, Y)) is True
    assert max(rows) <= finitering._CHUNK
    assert sum(rows) == ring.size ** 2
    assert rows[:3] == [256, 512, 1024]


def test_is_identity_early_failure_stops_in_first_batch(monkeypatch):
    rows = _record_batches(monkeypatch)
    ring = make_ring(MinRing(3))
    assert ring.is_identity(C(X, Y)) is not True      # first failure at 252
    assert sum(rows) <= 256
    rows.clear()
    assert ring.is_identity(X * C(Y, Z)) is not True  # first failure at 177399
    assert max(rows) <= finitering._CHUNK


BIG_CHAR = 1073741789   # the largest prime below 2^30


def _minus_e_ring():
    # e*e = (char-1)*e = -e
    return TabledRing(BIG_CHAR, ["1", "e"], [1, 0],
                      [[[1, 0], [0, 1]], [[0, 1], [0, BIG_CHAR - 1]]], None)


def test_mul_batch_exact_at_large_char():
    # scaling an unreduced a*b by char-1 would pass 2^63
    char, ring = BIG_CHAR, _minus_e_ring()
    a, b = (3, char - 2), (1, char - 7)
    ref = [a[0] * b[0] % char,
           (a[0] * b[1] + a[1] * b[0] + (char - 1) * a[1] * b[1]) % char]
    got = ring.eval_batch(X * Y, [np.array([a]), np.array([b])])
    assert [int(x) for x in got[0]] == ref


def test_eval_exact_at_large_char():
    # every word is -e at X = Y = -e, so nine terms (char-1)*w sum to
    # 9e; unreduced, their sum would pass 2^63
    char, ring = BIG_CHAR, _minus_e_ring()
    words = [(1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2), (1, 1, 1),
             (1, 1, 2), (1, 2, 1)]
    P = NcPoly({w: char - 1 for w in words})
    assert ring.eval(P, ((0, char - 1), (0, char - 1))) == (0, 9)


def test_mul_exact_at_large_char():
    # in Z/char[t]/(t^9) nine products a_i b_(8-i) land in coordinate
    # 8; at char near 2^30 their unreduced sum would pass 2^63
    char, n = BIG_CHAR, 9
    table = [[[int(i + j == k) for k in range(n)] for j in range(n)]
             for i in range(n)]
    ring = TabledRing(char, ["t^%d" % i for i in range(n)],
                      [1] + [0] * (n - 1), table, None)
    a = tuple(char - 1 - i for i in range(n))
    b = tuple(char - 2 - 3 * i for i in range(n))
    ref = tuple(sum(a[i] * b[k - i] for i in range(k + 1)) % char
                for k in range(n))
    assert ring.mul(a, b) == ref
    got = ring.eval_batch(X * Y, [np.array([a]), np.array([b])])
    assert tuple(int(x) for x in got[0]) == ref


# Z/BIG_PRIME[t]/(t^4): (BIG_PRIME - 1)^2 < 2^63, but sums of a few
# unreduced products of its structure constants pass 2^63
BIG_PRIME = 3037000493


def _big_char_table(n=4, seed=0):
    # structure constants of Z/c[t]/(t^n) in the basis
    # f_i = sum_k P[k][i] t^k, P unitriangular with random upper entries
    c, rng = BIG_PRIME, random.Random(seed)
    P = [[int(i == k) for i in range(n)] for k in range(n)]
    for k in range(n):
        for i in range(k + 1, n):
            P[k][i] = rng.randrange(c)
    Q = [[int(i == k) for i in range(n)] for k in range(n)]   # P^-1 mod c
    for i in range(n):
        for k in range(i - 1, -1, -1):
            Q[k][i] = -sum(P[k][m] * Q[m][i] for m in range(k + 1, i + 1)) % c
    T = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            t = [sum(P[a][i] * P[s - a][j] for a in range(s + 1)) for s in range(n)]
            for k in range(n):
                T[i][j][k] = sum(Q[k][m] * t[m] for m in range(n)) % c
    return T


@pytest.mark.parametrize("seed", [0, 1, 3])
def test_axiom_check_exact_at_large_char(seed):
    # the table is associative with unit f_0 = 1 (checked exactly with
    # Python ints); an int64 dense einsum wraps on it and rejects it
    T = _big_char_table(seed=seed)
    exact = np.array(T, dtype=object)
    assert (np.einsum("ijm,mkl->ijkl", exact, exact) % BIG_PRIME ==
            np.einsum("jkm,iml->ijkl", exact, exact) % BIG_PRIME).all()
    labels = ["f0", "f1", "f2", "f3"]
    ring = TabledRing(BIG_PRIME, labels, [1, 0, 0, 0], T, None)
    assert ring.is_commutative() is True
    T[1][2][3] += 1
    with pytest.raises(ValueError, match="not associative"):
        TabledRing(BIG_PRIME, labels, [1, 0, 0, 0], T, None)


def _dense_axiom_error(char, one, table):
    # the former axiom check: dense int64 einsums over all d^5 terms,
    # exact while every sum stays below 2^63; the message it raises
    # for (char, one, table), or None
    T = np.array(table, dtype=np.int64) % char
    left = np.einsum("ijm,mkl->ijkl", T, T) % char
    right = np.einsum("jkm,iml->ijkl", T, T) % char
    if not np.array_equal(left, right):
        return "multiplication table is not associative"
    eye = np.eye(len(T), dtype=np.int64)
    one_left = np.einsum("i,ijk->jk", one, T) % char
    one_right = np.einsum("j,ijk->ik", one, T) % char
    if not (np.array_equal(one_left, eye) and np.array_equal(one_right, eye)):
        return "declared identity element is not an identity"
    return None


def _axiom_error(char, labels, one, table):
    try:
        TabledRing(char, labels, one, table, None)
    except ValueError as e:
        return str(e)
    return None


def test_axiom_check_rejects_non_associative_table():
    # 1, u, v with u u = v, u v = u, v u = v v = 0 and unit 1:
    # (u u) u = 0 but u (u u) = u
    T = np.zeros((3, 3, 3), dtype=np.int64)
    T[0, range(3), range(3)] = T[range(3), 0, range(3)] = 1
    T[1, 1, 2] = T[1, 2, 1] = 1
    with pytest.raises(ValueError, match="multiplication table is not associative"):
        TabledRing(2, ["1", "u", "v"], [1, 0, 0], T, None)
    T[1, 2, 1] = 0
    assert _axiom_error(2, ["1", "u", "v"], [1, 0, 0], T) is None


def test_axiom_check_rejects_wrong_unit():
    # e11 alone is not the unit of U(2): e11 e22 = 0
    ring = make_ring(Up(2))
    with pytest.raises(ValueError, match="declared identity element is not an identity"):
        TabledRing(2, ring.basis_labels, [1, 0, 0], ring.table, None)


# the oracle's 27 families, the field and matrix rings with constants
# c = 2 or large n, and truncated free algebras with relations
PINNED_FAMILIES = list(_families(SearchBounds(5, 3, 4))) + [
    B(2, 4, 3), B(3, 4, 2), Mat(2, 2, 2), Mat(2, 3, 2)] + [
    TruncFree(p, k, r) for p in (2, 3) for k in (3, 4)
    for r in (((1, 1), (2, 2), (1, 2)), ((2, 1),), ((1, 2, 1),))]


def _digest(*parts):
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def test_ring_tables_pinned():
    # sha256 of each ring's table, unit and labels, and of its nonzero
    # constant terms, as the former per-pair constructors built them
    path = os.path.join(os.path.dirname(__file__), "ring_table_digests.json")
    with open(path) as fh:
        pinned = json.load(fh)
    assert sorted(pinned) == sorted(map(repr, PINNED_FAMILIES))
    for fam in PINNED_FAMILIES:
        ring = make_ring(fam)
        assert _digest(ring.table.tobytes(), ring.one.tobytes(),
                       ring.basis_labels) == pinned[repr(fam)]["table"], fam
        assert _digest(ring._terms, ring._idle) == pinned[repr(fam)]["terms"], fam


@pytest.mark.parametrize("fam", PINNED_FAMILIES, ids=repr)
def test_axiom_check_matches_dense_check(fam):
    # accepted as built, and after a +1 on any of a seeded sample of
    # entries (zero or not) accepted or rejected with the dense check's
    # message
    ring = make_ring(fam)
    args = (ring.char, ring.basis_labels, ring.one)
    assert _dense_axiom_error(ring.char, ring.one, ring.table) is None
    rng = random.Random(repr(fam))
    cells = [tuple(int(x) for x in cell) for cell in np.argwhere(ring.table)]
    cells = rng.sample(cells, min(4, len(cells))) + [
        tuple(rng.randrange(ring.dim) for _ in range(3)) for _ in range(8)]
    for cell in cells:
        T = ring.table.copy()
        T[cell] += 1
        assert _axiom_error(*args, T) == _dense_axiom_error(ring.char, ring.one, T), cell


def _dense_product(ring, A, Bm):
    # the former product: a dense (N,d) x (d,d*d) matmul, reduced, then
    # contracted with the right factor
    d = ring.dim
    tmp = A @ ring.table.reshape(d, d * d)
    tmp %= ring.char
    out = np.einsum("njk,nj->nk", tmp.reshape(-1, d, d), Bm)
    return out % ring.char


# B(3,3,1) and Mat(2,3,2) have structure constants c = 2
PRODUCT_FAMILIES = sorted({fam for fam, _ in SCAN_CASES}, key=repr) + [
    B(3, 3, 1), Mat(2, 2, 2), Mat(2, 3, 2)]


@pytest.mark.parametrize("fam", PRODUCT_FAMILIES, ids=repr)
def test_product_matches_dense_product(fam):
    ring = make_ring(fam)
    rng = np.random.default_rng(7)
    A = rng.integers(0, ring.char, (500, ring.dim))
    Bm = rng.integers(0, ring.char, (500, ring.dim))
    ref = _dense_product(ring, A, Bm)
    assert np.array_equal(ring.eval_batch(X * Y, [A, Bm]), ref)
    for a, b, r in zip(A[:50], Bm[:50], ref):
        assert ring.mul(tuple(a), tuple(b)) == tuple(int(x) for x in r)


def test_eval_batch_keeps_one_prefix_chain():
    # (X+Y)^10 has 2^11 - 1 word prefixes; besides the two column copies
    # and the accumulator, only the current word's chain of products is
    # alive, so the peak stays within (max word length + 3) arrays
    ring = make_ring(TruncFree(3, 3))
    rng = np.random.default_rng(10)
    elems = ring.elements().T
    N = 2048
    columns = [elems[:, rng.integers(0, ring.size, N)].T for _ in range(2)]
    P = (X + Y) ** 10
    tracemalloc.start()
    try:
        got = ring.eval_batch(P, columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (10 + 3) * ring.dim * N * 8
    S = ring.eval_batch(X + Y, columns)
    assert np.array_equal(got, ring.eval_batch(X ** 10, [S]))


@pytest.mark.parametrize("P", [(X + Y) ** 4, X * Y * Z - Z * Y * X + X ** 3,
                               (X * Y).scale(2) - Y * X * Y + Y.scale(3),
                               NcPoly.const(4) + X * X * Y - Y * Y])
def test_eval_batch_computes_each_prefix_once(monkeypatch, P):
    # one product per distinct word prefix of length at least 2, and the
    # value of each word as the product of its letters
    ring = make_ring(TruncFree(3, 3))
    calls = []
    mul = TabledRing._mul_batch

    def counting(self, A, Bm, out):
        calls.append(1)
        return mul(self, A, Bm, out)

    rng = np.random.default_rng(4)
    rows = [rng.integers(0, 3, (40, ring.dim)) for _ in range(3)]
    monkeypatch.setattr(TabledRing, "_mul_batch", counting)
    got = ring.eval_batch(P, rows)
    prefixes = {w[:i] for w in P.terms for i in range(2, len(w) + 1)}
    assert len(calls) == len(prefixes)
    monkeypatch.undo()
    for n in range(0, 40, 7):
        tup = [tuple(int(x) for x in r[n]) for r in rows]
        ref = ring.zero()
        for w, c in P.terms.items():
            v = ring.scalar(c)
            for z in w:
                v = ring.mul(v, tup[z - 1])
            ref = ring.add(ref, v)
        assert tuple(int(x) for x in got[n]) == ref


@pytest.mark.parametrize("p", [3037000537, 2 ** 61 - 1])
@pytest.mark.parametrize("family", [Up, MinRing, lambda p: TruncFree(p, 3)],
                         ids=["Up", "MinRing", "TruncFree3"])
def test_products_exact_past_the_int64_bound(p, family):
    # (p - 1)^2 >= 2^63: products and identity values are taken on Python
    # ints and agree with exact arithmetic on seeded elements
    ring = make_ring(family(p))
    assert ring.mul((p - 1,) * ring.dim, (p - 2,) * ring.dim) == \
        exact_product(ring, (p - 1,) * ring.dim, (p - 2,) * ring.dim)
    rng = random.Random(p % 1000)
    P = X * Y * X - (Y * Y).scale(p - 3) + X.scale(5) + NcPoly.const(p - 1)
    elems = [tuple(rng.choice([rng.randrange(p), p - 1 - rng.randrange(9)])
                   for _ in range(ring.dim)) for _ in range(12)]
    for a, b in zip(elems, elems[1:]):
        assert ring.mul(a, b) == exact_product(ring, a, b)
        xyx = exact_product(ring, exact_product(ring, a, b), a)
        yy = exact_product(ring, b, b)
        ref = tuple((u - (p - 3) * v + 5 * x + (p - 1) * e) % p for u, v, x, e
                    in zip(xyx, yy, a, ring.one.tolist()))
        assert ring.eval(P, (a, b)) == ref
    batch = ring.eval_batch(P, [np.array(elems[:-1], dtype=object),
                                np.array(elems[1:], dtype=object)])
    assert [tuple(int(x) for x in row) for row in batch] == \
        [ring.eval(P, (a, b)) for a, b in zip(elems, elems[1:])]


def test_int64_products_up_to_the_bound():
    # 3037000499 is the largest char whose (char - 1)^2 stays below 2^63
    p = 3037000499
    ring = make_ring(MinRing(p))
    assert ring._dtype is np.int64
    a, b = (p - 1,) * 4, (p - 2,) * 4
    assert ring.mul(a, b) == exact_product(ring, a, b)
    assert make_ring(MinRing(3037000537))._dtype is object


@pytest.mark.parametrize("fam", [TruncFree(3, 3), TruncFree(5, 3), Up(7),
                                 MinRing(5), B(2, 3, 1)], ids=repr)
def test_eval_batch_reuses_buffers_as_per_prefix(fam):
    # one buffer per chain depth, reused across words with shared
    # prefixes and words of different lengths, gives the values of a
    # fresh array per prefix
    ring = make_ring(fam)
    rng = random.Random(repr(fam))
    nrng = np.random.default_rng(11)
    for _ in range(6):
        terms = {}
        for _ in range(rng.randint(3, 12)):
            w = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 6)))
            terms[w] = rng.randint(-4, 4)
            # a word sharing a prefix with w
            cut = rng.randint(0, len(w))
            terms[w[:cut] + tuple(rng.randint(1, 3) for _ in range(
                rng.randint(0, 3)))] = rng.randint(1, 4)
        P = NcPoly(terms)
        cols = [nrng.integers(0, ring.char, (300, ring.dim)) for _ in range(3)]
        cols[1][:ring.dim] = np.eye(ring.dim, dtype=np.int64)
        before = [c.copy() for c in cols]
        got = ring.eval_batch(P, cols)
        assert np.array_equal(got, eval_batch_per_prefix(ring, P, cols))
        assert all(np.array_equal(c, b) for c, b in zip(cols, before))
    assert np.array_equal(ring.one, make_ring(fam).one)
