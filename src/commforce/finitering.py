"""Finite fields and tabled finite rings.

A TabledRing is a free Z/char-module with structure constants
e_i e_j = sum_k c e_k; elements are coefficient tuples.  Every product
adds c a_i b_j into coordinate k over the nonzero constants only, on
column-major batches.  Constructors cover the witness families used by
the decision procedures: 2x2 upper triangular matrices over F_p, the
Frobenius-twisted rings over F_{p^n}, matrix rings, truncated free
algebras and the 4-dimensional minimal ring for multilinear identities.
Each writes its (dim, dim, dim) structure-constant array directly, the
field families from the small tables of F_q basis products and
Frobenius images.  The ring axioms are checked by summing reduced terms
over the nonzero constants only.
Identity checks run over all tuples in lexicographic order, in numpy
batches that grow from 256 to 65536 tuples, so a failing identity stops
after the batch that holds its first counterexample; ``holds`` lets
each variable that occurs exactly once in every word range over the
basis only.  Products are int64 while (char - 1)^2 < 2^63, and exact on
Python ints (object arrays) past that bound.
"""

from dataclasses import dataclass
from itertools import product
from math import prod

import numpy as np

from .commalg import is_prime
from .errors import ResourceLimitError

# TabledRing._scan evaluates _FIRST_BATCH tuples first, then
# doubles the batch after each one up to at most _CHUNK tuples
_FIRST_BATCH = 1 << 8
_CHUNK = 1 << 16


# ---------------------------------------------------------------------------
# finite fields

def _poly_mul_mod(a, b, modulus, p, n):
    out = [0] * (2 * n - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    for d in range(2 * n - 2, n - 1, -1):
        c = out[d]
        if c:
            out[d] = 0
            # X^n = -(modulus tail)
            for j in range(n):
                out[d - n + j] = (out[d - n + j] - c * modulus[j]) % p
    return tuple(out[:n])


def _is_irreducible(modulus, p, n):
    # trial division by every monic polynomial of degree 1..n//2
    coeffs = list(modulus) + [1]
    for d in range(1, n // 2 + 1):
        for tail in product(range(p), repeat=d):
            div = list(tail) + [1]
            rem = list(coeffs)
            for k in range(len(rem) - 1, d - 1, -1):
                c = rem[k]
                if c:
                    rem[k] = 0
                    for j in range(d):
                        rem[k - d + j] = (rem[k - d + j] - c * div[j]) % p
            if not any(rem):
                return False
    return True


def least_irreducible(p, n):
    """Tail coefficients (c_0,...,c_{n-1}) of the lexicographically
    least monic irreducible X^n + c_{n-1}X^{n-1} + ... + c_0 over F_p,
    comparing coefficient vectors low degree first."""
    if n == 1:
        return (0,)
    for tail in product(range(p), repeat=n):
        if _is_irreducible(tail, p, n):
            return tail
    raise ValueError("no irreducible polynomial found")


class Fq:
    """The field with p^n elements as F_p[X]/(modulus).

    Elements are length-n coefficient tuples, low degree first.
    """

    def __init__(self, p, n):
        self.p = p
        self.n = n
        self.modulus = least_irreducible(p, n)

    def zero(self):
        return (0,) * self.n

    def one(self):
        return (1,) + (0,) * (self.n - 1)

    def gen(self):
        if self.n == 1:
            raise ValueError("prime field has no proper generator element")
        return tuple(1 if i == 1 else 0 for i in range(self.n))

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def mul(self, a, b):
        return _poly_mul_mod(a, b, self.modulus, self.p, self.n)

    def pow(self, a, k):
        out = self.one()
        base = a
        while k:
            if k & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            k >>= 1
        return out

    def frobenius(self, a, k=1):
        """a^(p^k) via k successive p-th power maps."""
        for _ in range(k % self.n if self.n > 1 else 1):
            a = self.pow(a, self.p)
        return a

    def elements(self):
        for tup in product(range(self.p), repeat=self.n):
            yield tup


# ---------------------------------------------------------------------------
# ring family descriptors

@dataclass(frozen=True)
class Up:
    p: int


@dataclass(frozen=True)
class B:
    p: int
    n: int
    l: int


@dataclass(frozen=True)
class Mat:
    k: int
    p: int
    n: int


@dataclass(frozen=True)
class TruncFree:
    p: int
    k: int
    relations: tuple = ()


@dataclass(frozen=True)
class MinRing:
    p: int


@dataclass(frozen=True)
class Presented:
    """Quotient of Z/p^a{X,Y} by a completed basis; not tabled here,
    verified through gsb normal forms."""
    p: int
    a: int
    generators: tuple = ()


def family_json(family):
    """Canonical JSON-able description, enough to rebuild the ring."""
    if isinstance(family, Up):
        return {"family": "U", "p": family.p}
    if isinstance(family, B):
        return {"family": "B", "p": family.p, "n": family.n, "l": family.l,
                "modulus": list(least_irreducible(family.p, family.n))}
    if isinstance(family, Mat):
        return {"family": "Mat", "k": family.k, "p": family.p, "n": family.n,
                "modulus": list(least_irreducible(family.p, family.n))}
    if isinstance(family, TruncFree):
        return {"family": "TruncFree", "p": family.p, "k": family.k,
                "relations": [list(w) for w in family.relations]}
    if isinstance(family, MinRing):
        return {"family": "MinRing", "p": family.p}
    if isinstance(family, Presented):
        return {"family": "Presented", "p": family.p, "a": family.a,
                "generators": list(family.generators)}
    raise TypeError("unknown family %r" % (family,))


# A family document may name a tabled ring of ``family_size`` at most
# MAX_DOC_SIZE and a presented quotient modulo p^a with a at most
# MAX_DOC_EXPONENT.  Decided witnesses fit: a ring that ``holds`` scans
# whole under the default cap has p^dim <= 10^7 elements, so dim <= 23,
# and a completion stops at words of length 40 (``gsb.MAX_DEGREE``),
# while a presentation holds words of length at least a.
MAX_DOC_SIZE = 1 << 20
MAX_DOC_EXPONENT = 64

# each document kind: its family and int fields with their least values
_DOC_KINDS = {"U": (Up, {"p": 2}), "MinRing": (MinRing, {"p": 2}),
              "B": (B, {"p": 2, "n": 2, "l": 1}),
              "Mat": (Mat, {"k": 1, "p": 2, "n": 1}),
              "TruncFree": (TruncFree, {"p": 2, "k": 2}),
              "Presented": (Presented, {"p": 2, "a": 1})}


def family_size(family):
    """max(dim^4, q) of a tabled family: dim^4 entries in each bracketing
    the axiom check compares (8 MB at dimension 32; the terms it sums for
    one bracketing, dim^2 per nonzero constant, take 27 MB for B(2,16,1)),
    and q = p^n elements in the field that B and Mat are built over,
    which bounds the search of ``least_irreducible(p, n)``.  TruncFree
    counts its dimension without relations, 2^k - 1.  Exponents past 64
    count as 64, which keeps the size past any bound without building
    huge ints."""
    q = 0
    if isinstance(family, Up):
        dim = 3
    elif isinstance(family, MinRing):
        dim = 4
    elif isinstance(family, TruncFree):
        dim = 2 ** min(family.k, 64) - 1
    elif isinstance(family, (B, Mat)):
        n = min(family.n, 64)
        dim = 2 * n if isinstance(family, B) else family.k ** 2 * n
        q = family.p ** n
    else:
        raise TypeError("no table for %r" % (family,))
    return max(dim ** 4, q)


def family_from_json(doc):
    """Family of a ring document, checked before anything is built:
    int fields (not bools or floats) in range with a prime p, a tabled
    ring within MAX_DOC_SIZE, and a presented quotient with
    a <= MAX_DOC_EXPONENT and a list of string generators.  Raises
    ValueError, or KeyError for a missing field."""
    if not isinstance(doc, dict) or doc.get("family") not in _DOC_KINDS:
        raise ValueError("unknown family document %r" % (doc,))
    kind = doc["family"]
    cls, least = _DOC_KINDS[kind]
    v = {}
    for name, low in least.items():
        v[name] = doc[name]
        if type(v[name]) is not int or v[name] < low:
            raise ValueError("%s must be an int >= %d" % (name, low))
    if kind == "B" and v["l"] >= v["n"]:
        raise ValueError("B requires l < n")
    if not is_prime(v["p"]):
        raise ValueError("p must be a prime")
    if kind == "Presented":
        gens = doc["generators"]
        if not (isinstance(gens, list) and all(isinstance(g, str) for g in gens)):
            raise ValueError("generators must be a list of strings")
        if v["a"] > MAX_DOC_EXPONENT:
            raise ValueError("a must be at most %d" % MAX_DOC_EXPONENT)
        return Presented(generators=tuple(gens), **v)
    if kind == "TruncFree":
        rels = doc["relations"]
        if not (isinstance(rels, list) and all(
                isinstance(w, list) and w and all(type(z) is int and z in (1, 2)
                                                  for z in w) for w in rels)):
            raise ValueError("relations must be nonempty lists of 1s and 2s")
        v["relations"] = tuple(tuple(w) for w in rels)
    fam = cls(**v)
    if family_size(fam) > MAX_DOC_SIZE:
        raise ValueError("%r is larger than %d" % (fam, MAX_DOC_SIZE))
    return fam


# ---------------------------------------------------------------------------
# tabled rings

class TabledRing:
    """Finite ring given by structure constants over Z/char."""

    def __init__(self, char, basis_labels, one, table, family):
        self.char = char
        self.dim = len(basis_labels)
        self.basis_labels = list(basis_labels)
        self.one = np.array(one, dtype=np.int64) % char
        self.table = np.array(table, dtype=np.int64) % char
        self.family = family
        if self.table.shape != (self.dim, self.dim, self.dim):
            raise ValueError("bad table shape")
        self._check_axioms()
        # products of two coordinates pass int64 past this bound, and are
        # then taken on Python ints
        self._dtype = object if (char - 1) ** 2 >= 1 << 63 else np.int64
        # the nonzero structure constants e_i e_j = ... + c e_k as
        # (i, j, k, c, start, fold): row k's first term starts out[k],
        # fold reduces out[k] before a term that could pass 2^63
        top = (char - 1) ** 2
        bound = {}
        self._terms = []
        nonzero = np.nonzero(self.table)
        for i, j, k, c in zip(*(x.tolist() for x in nonzero),
                              self.table[nonzero].tolist()):
            start = k not in bound
            fold = not start and bound[k] + top >= 1 << 63
            bound[k] = (0 if start else char - 1 if fold else bound[k]) + top
            self._terms.append((i, j, k, c, start, fold))
        self._idle = [k for k in range(self.dim) if k not in bound]

    @property
    def size(self):
        return self.char ** self.dim

    def _check_axioms(self):
        # over the nonzero constants e_a e_b = ... + c e_m, grouped by
        # pair (a, b): (e_a e_b) e_k = sum c e_m e_k takes row m of the
        # table, e_k (e_a e_b) = sum c e_k e_m takes column m, and each
        # term is reduced before it is summed, so no sum passes dim * char
        T, char, d = self.table, self.char, self.dim
        a, b, m = np.nonzero(T)
        pair = a * d + b
        first = np.ones(pair.size, dtype=bool)
        first[1:] = pair[1:] != pair[:-1]
        starts = np.flatnonzero(first)
        c = T[a, b, m, None, None]
        sums = np.zeros((2, d * d, d, d), dtype=np.int64)
        for out, view in zip(sums, (T, T.transpose(1, 0, 2))):
            terms = view[m]
            terms *= c
            terms %= char
            out[pair[starts]] = np.add.reduceat(terms, starts, axis=0) % char
        # e_l coefficients: left[i, j, k, l] of (e_i e_j) e_k and
        # right[j, k, i, l] of e_i (e_j e_k)
        left, right = sums.reshape(2, d, d, d, d)
        if not (left == right.transpose(2, 0, 1, 3)).all():
            raise ValueError("multiplication table is not associative")
        # 1 e_b and e_b 1, each term reduced
        terms = np.array((T, T.transpose(1, 0, 2)))
        terms *= self.one[:, None, None]
        terms %= char
        if not (terms.sum(axis=1) % char == np.eye(d, dtype=np.int64)).all():
            raise ValueError("declared identity element is not an identity")

    # single-element helpers; elements are int tuples of length dim
    def add(self, a, b):
        return tuple((x + y) % self.char for x, y in zip(a, b))

    def mul(self, a, b):
        A, Bm = (np.array(x, dtype=self._dtype)[:, None] % self.char
                 for x in (a, b))
        out = self._mul_batch(A, Bm, np.empty_like(A))
        return tuple(int(x) for x in out[:, 0])

    def scalar(self, c):
        return tuple(int(x) for x in (c * self.one) % self.char)

    def zero(self):
        return (0,) * self.dim

    def basis_element(self, i):
        return tuple(1 if j == i else 0 for j in range(self.dim))

    def elements(self):
        """All ring elements as a (size, dim) array; row i is
        element_from_index(i)."""
        shape = (self.char,) * self.dim
        return np.indices(shape, dtype=np.int64).reshape(self.dim, -1).T

    def element_from_index(self, idx):
        """Mixed-radix decode; index order equals lexicographic order on
        coefficient vectors."""
        out = []
        for i in range(self.dim - 1, -1, -1):
            out.append(idx % self.char)
            idx //= self.char
        return tuple(reversed(out))

    def eval(self, P, tup):
        """Evaluate an NcPoly at a tuple of ring elements."""
        vs = P.variables()
        if vs and max(vs) > len(tup):
            raise ValueError("tuple arity %d < variables in P" % len(tup))
        if P.modulus is not None and self.char % P.modulus != 0 and P.modulus % self.char != 0:
            raise ValueError("modulus incompatible with ring characteristic")
        rows = [np.array([t], dtype=self._dtype) % self.char for t in tup]
        return tuple(int(x) for x in self.eval_batch(P, rows)[0])

    def _mul_batch(self, A, Bm, out):
        """Products of reduced column-major (dim, N) arrays, written into
        ``out`` (the same shape, aliasing neither factor) and returned:
        c a_i b_j added into coordinate k over the nonzero structure
        constants."""
        char = self.char
        out[self._idle] = 0
        for i, j, k, c, start, fold in self._terms:
            row = out[k]
            t = np.multiply(A[i], Bm[j], out=row if start else None)
            if c != 1:
                t %= char
                t *= c
            if fold:
                row %= char
            if not start:
                row += t
        out %= char
        return out

    def eval_batch(self, P, columns):
        """Evaluate P at many tuples at once.  ``columns`` is a list of
        reduced (N, dim) arrays, one per variable; returns an (N, dim)
        array."""
        N = columns[0].shape[0] if columns else 1
        dtype = self._dtype
        cols = [np.ascontiguousarray(col.T, dtype=dtype) for col in columns]
        acc = np.zeros((self.dim, N), dtype=dtype)
        # at a large char the sum of the terms could pass 2^63
        fold = len(P.terms) * (self.char - 1) ** 2 >= 1 << 63
        # words in lexicographic order share their prefixes with their
        # neighbours, so each distinct prefix product is computed once
        # while only the current word's chain is kept: chain[i] is the
        # product of its first i letters, a letter being its column.
        # From i = 2 on, chain[i] is written into buffers[i], which the
        # chain of a later word overwrites
        chain = [np.broadcast_to(self.one.astype(dtype, copy=False)[:, None],
                                 (self.dim, N))]
        buffers = [None, None]
        prev = ()
        for w in sorted(P.terms):
            keep = next((i for i, (a, b) in enumerate(zip(w, prev)) if a != b),
                        min(len(w), len(prev)))
            del chain[keep + 1:]
            for z in w[keep:]:
                i = len(chain)
                if i == 1:
                    chain.append(cols[z - 1])
                    continue
                if i == len(buffers):
                    buffers.append(np.empty((self.dim, N), dtype=dtype))
                chain.append(self._mul_batch(chain[-1], cols[z - 1],
                                             buffers[i]))
            c = P.terms[w] % self.char
            acc += chain[-1] if c == 1 else c * chain[-1]
            if fold:
                acc %= self.char
            prev = w
        acc %= self.char
        return acc.T

    def _scan(self, P, linear, eval_cap):
        """The first tuple in lexicographic order at which P does not
        vanish, or None.  Variables in ``linear`` range over the basis
        elements, the others over the whole ring."""
        vs = P.variables()
        s = max(vs) if vs else 1
        radix = [self.dim if v in linear else self.size
                 for v in range(1, s + 1)]
        total = prod(radix)
        if total > eval_cap:
            raise ResourceLimitError("exhaustive-eval", eval_cap,
                                     "%d tuples on %r" % (total, self.family))
        # gathered column-major, so eval_batch takes the columns as is
        elems = self.elements().T if len(linear) < s else None
        basis = np.eye(self.dim, dtype=np.int64)
        tables = [basis if v in linear else elems for v in range(1, s + 1)]
        lo, step = 0, _FIRST_BATCH
        while lo < total:
            hi = min(lo + step, total)
            rest = np.arange(lo, hi, dtype=np.int64)
            columns = []
            for table, r in zip(reversed(tables), reversed(radix)):
                columns.append(table[:, rest % r].T)
                rest = rest // r
            columns.reverse()
            bad = np.nonzero(self.eval_batch(P, columns).any(axis=1))[0]
            if bad.size:
                return tuple(tuple(int(x) for x in col[bad[0]])
                             for col in columns)
            lo, step = hi, min(2 * step, _CHUNK)
        return None

    def is_identity(self, P, eval_cap=10 ** 7):
        """True if P vanishes at every tuple, else the first failing
        tuple in scan order."""
        bad = self._scan(P, (), eval_cap)
        return True if bad is None else bad

    def holds(self, P, eval_cap=10 ** 7):
        """Whether P vanishes at every tuple.  A variable occurring
        exactly once in every word enters P Z-linearly, so basis values
        certify all values and it ranges over the basis only."""
        linear = {v for v in P.variables()
                  if all(w.count(v) == 1 for w in P.terms)}
        return self._scan(P, linear, eval_cap) is None

    def is_commutative(self):
        """True, or the first pair of basis elements (a, b) in
        lexicographic order with ab != ba."""
        T = self.table
        pairs = np.argwhere((T != T.transpose(1, 0, 2)).any(axis=2))
        if not len(pairs):
            return True
        return tuple(self.basis_element(int(i)) for i in pairs[0])

    def describe(self, element):
        parts = []
        for c, lab in zip(element, self.basis_labels):
            if c:
                parts.append(lab if c == 1 else "%d*%s" % (c, lab))
        return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# constructors

def _make_up(p):
    T = np.zeros((3, 3, 3), dtype=np.int64)
    # e11*e12 = e12, e12*e22 = e12, idempotents on the diagonal
    T[0, 0, 0] = T[0, 1, 1] = T[1, 2, 1] = T[2, 2, 2] = 1
    return TabledRing(p, ["e11", "e12", "e22"], [1, 0, 1], T, Up(p))


def _fq_powers(fq, x, count):
    """(count, n) table of x^0, ..., x^(count-1) in F_q."""
    out = [fq.one()]
    for _ in range(count - 1):
        out.append(fq.mul(out[-1], x))
    return np.array(out, dtype=np.int64)


def _fq_products(fq):
    """(n, n, n) table of the F_q basis products: row (a, b) holds the
    coordinates of t^a t^b."""
    n = fq.n
    powers = _fq_powers(fq, fq.gen() if n > 1 else fq.zero(), 2 * n - 1)
    return powers[np.add.outer(np.arange(n), np.arange(n))]


def _make_b(p, n, l):
    # basis x*t^a, then y*t^a; product rule
    # (x,y)(x',y') = (x x', x^(p^l) y' + y x'), where row a of frob is
    # (t^a)^(p^l) = (t^(p^l))^a
    fq = Fq(p, n)
    prods = _fq_products(fq)
    t = fq.gen() if n > 1 else fq.zero()
    frob = _fq_powers(fq, fq.frobenius(t, l), n)
    T = np.zeros((2 * n, 2 * n, 2 * n), dtype=np.int64)
    T[:n, :n, :n] = prods
    T[:n, n:, n:] = np.einsum("ac,cbk->abk", frob, prods) % p
    T[n:, :n, n:] = prods
    labels = ["x*t^%d" % i for i in range(n)] + ["y*t^%d" % i for i in range(n)]
    one = np.zeros(2 * n, dtype=np.int64)
    one[0] = 1
    return TabledRing(p, labels, one, T, B(p, n, l))


def _make_mat(k, p, n):
    # basis e_ij*t^a at index (i*k + j)*n + a; e_ij e_jm = e_im
    prods = _fq_products(Fq(p, n))
    T = np.zeros((k, k, n) * 3, dtype=np.int64)
    for i, j, m in product(range(k), repeat=3):
        T[i, j, :, j, m, :, i, m, :] = prods
    d = k * k * n
    labels = ["e%d%d*t^%d" % (i + 1, j + 1, a)
              for i in range(k) for j in range(k) for a in range(n)]
    one = np.zeros((k, k, n), dtype=np.int64)
    one[range(k), range(k), 0] = 1
    return TabledRing(p, labels, one.ravel(), T.reshape(d, d, d), Mat(k, p, n))


def _trunc_words(k, rels):
    # words over {1, 2} of length < k with no relation word as a factor
    words = []
    for length in range(k):
        for w in product((1, 2), repeat=length):
            if any(w[i:i + len(r)] == r for r in rels for i in range(len(w) - len(r) + 1)):
                continue
            words.append(w)
    return words


def _make_truncfree(p, k, relations):
    rels = tuple(tuple(w) for w in relations)
    words = _trunc_words(k, rels)
    index = {w: i for i, w in enumerate(words)}
    d = len(words)
    # the product of two kept words is their concatenation when kept
    T = np.zeros((d, d, d), dtype=np.int64)
    for i, u in enumerate(words):
        for j, v in enumerate(words):
            if u + v in index:
                T[i, j, index[u + v]] = 1
    labels = ["".join("xy"[c - 1] for c in w) or "1" for w in words]
    one = np.zeros(d, dtype=np.int64)
    one[index[()]] = 1
    return TabledRing(p, labels, one, T, TruncFree(p, k, rels))


def _make_minring(p):
    T = np.zeros((4, 4, 4), dtype=np.int64)
    # 1 is the unit, u^2 = v^2 = uv = 0 and vu is annihilated by u, v
    T[0, range(4), range(4)] = T[range(4), 0, range(4)] = 1
    T[2, 1, 3] = 1
    return TabledRing(p, ["1", "u", "v", "vu"], [1, 0, 0, 0], T, MinRing(p))


def make_ring(family):
    """Build the tabled ring for a family descriptor."""
    if isinstance(family, Up):
        return _make_up(family.p)
    if isinstance(family, B):
        return _make_b(family.p, family.n, family.l)
    if isinstance(family, Mat):
        return _make_mat(family.k, family.p, family.n)
    if isinstance(family, TruncFree):
        return _make_truncfree(family.p, family.k, family.relations)
    if isinstance(family, MinRing):
        return _make_minring(family.p)
    if isinstance(family, Presented):
        raise ValueError("Presented quotients are handled through gsb normal forms")
    raise TypeError("unknown family %r" % (family,))
