"""Reference implementations that tests compare the library against.
No library code calls them; they favour clarity over speed and suit
small inputs only."""

from itertools import product
from math import gcd

import numpy as np

from commforce.cli import ParseError, _tokenize
from commforce.commalg import (CPoly, field_ideal_divmod,
                               field_ideal_normal_form, frobenius_scale)
from commforce.decide import IdentitySet
from commforce.freealg import NcPoly


def initial_term(f):
    """(coefficient p^e, word) of a GsPoly's initial term."""
    return (f.lead_pow, f.lead_word)


def truncated_ideal_membership(f, generators, p, k):
    """Does f lie in the two-sided ideal of the generators plus all
    words of length >= k, inside F_p{X_1,...}/(words of length >= k)?

    Pure linear algebra over F_p: span the padded generator multiples
    and row-reduce.  Intended as an oracle for small k only.
    """
    s = max([1] + [max(P.variables(), default=1)
                   for P in list(generators) + [f]])
    words = [()]
    frontier = [()]
    for _ in range(k - 1):
        frontier = [w + (z,) for w in frontier for z in range(1, s + 1)]
        words.extend(frontier)
    index = {w: i for i, w in enumerate(words)}

    def vec(P):
        v = np.zeros(len(words), dtype=np.int64)
        for w, c in P.terms.items():
            if len(w) < k:
                v[index[w]] = (v[index[w]] + c) % p
        return v

    rows = []
    letters = list(range(1, s + 1))
    for g in generators:
        gdeg = min((len(w) for w in g.terms), default=0)
        pads = [()]
        budget = k - 1 - gdeg
        layer = [()]
        for _ in range(max(budget, 0)):
            layer = [w + (z,) for w in layer for z in letters]
            pads.extend(layer)
        for left in pads:
            for right in pads:
                if len(left) + len(right) > max(budget, 0):
                    continue
                shifted = {left + w + right: c for w, c in g.terms.items()}
                rows.append(vec(NcPoly(shifted)))
    target = vec(f)
    if not rows:
        return not target.any()
    M = np.array(rows, dtype=np.int64) % p
    t = target % p
    ncols = M.shape[1]
    r = 0
    for col in range(ncols):
        piv = None
        for i in range(r, M.shape[0]):
            if M[i, col] % p:
                piv = i
                break
        if piv is None:
            continue
        M[[r, piv]] = M[[piv, r]]
        inv = pow(int(M[r, col]), -1, p)
        M[r] = (M[r] * inv) % p
        for i in range(M.shape[0]):
            if i != r and M[i, col]:
                M[i] = (M[i] - M[i, col] * M[r]) % p
        if t[col]:
            t = (t - t[col] * M[r]) % p
        r += 1
        if r == M.shape[0]:
            break
    # eliminate remaining coordinates of t with the reduced rows
    for i in range(r):
        lead = next((c for c in range(ncols) if M[i, c]), None)
        if lead is not None and t[lead]:
            t = (t - t[lead] * M[i]) % p
    return not t.any()


# ---------------------------------------------------------------------------
# Cartier operators and univariate membership

def cartier(P, j):
    """Cartier operator Lambda_j: coefficient of X^(j + p*k) becomes the
    coefficient of X^k.  P must be tagged mod a prime p and every entry
    of j must lie in {0,...,p-1}."""
    p = P.modulus
    if p is None:
        raise ValueError("cartier requires a mod-p polynomial")
    j = tuple(j)
    if len(j) != P.nvars:
        raise ValueError("index arity mismatch")
    if any(not (0 <= ji < p) for ji in j):
        raise ValueError("index entries must lie in 0..p-1")
    t = {}
    for e, c in P.terms.items():
        if all(ei % p == ji for ei, ji in zip(e, j)):
            t[tuple(ei // p for ei in e)] = c
    return CPoly(t, P.nvars, p)


def cartier_reconstruct(P):
    """Rebuild P as sum_j X^j * Lambda_j(P)^(p) -- exact for mod-p P."""
    p = P.modulus
    out = CPoly.zero(P.nvars, p)
    for j in product(range(p), repeat=P.nvars):
        mono = CPoly({tuple(j): 1}, P.nvars, p)
        out = out + mono * frobenius_scale(cartier(P, j))
    return out


def univariate_membership(P, kind, p):
    """Membership of a univariate integer polynomial in (p, X^p - X)
    (kind='lin') or (p, (X^p - X)^2) (kind='sq'): the remainder by
    X^p - X vanishes, and for 'sq' so does the quotient mod X^p - X."""
    if P.nvars != 1:
        raise ValueError("univariate polynomial required")
    if kind == "lin":
        return field_ideal_normal_form(P, p, 1).is_zero()
    Q, R = field_ideal_divmod(P, 1, p)
    return R.is_zero() and field_ideal_normal_form(Q, p, 1).is_zero()


# ---------------------------------------------------------------------------
# the upper triangular matrix scan

_UPPER_MATS = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]


def _upper_mul(m1, m2):
    a1, b1, d1 = m1
    a2, b2, d2 = m2
    return (a1 * a2, a1 * b2 + b1 * d2, d1 * d2)


def _upper_eval(P, tup):
    acc = (0, 0, 0)
    for w, c in P.terms.items():
        v = (1, 0, 1)
        for letter in w:
            v = _upper_mul(v, tup[letter - 1])
        acc = (acc[0] + c * v[0], acc[1] + c * v[1], acc[2] + c * v[2])
    return acc


def upper_scan_gcd(ids):
    """gcd of every entry of every identity at each of the 8^s tuples
    of {0,1} upper triangular integer matrices."""
    g = 0
    for P in ids.polys:
        for tup in product(_UPPER_MATS, repeat=ids.nvars):
            for entry in _upper_eval(P, tup):
                g = gcd(g, entry)
    return g


# ---------------------------------------------------------------------------
# the identity-file parser on NcPoly, one NcPoly per token and operation

class ExprParser:
    def __init__(self, toks, varmap, line_no, end_col):
        self.toks = toks
        self.varmap = varmap
        self.line = line_no
        self.end_col = end_col
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self):
        t = self.peek()
        if t is None:
            raise ParseError(self.line, self.end_col,
                             "unexpected end of expression")
        self.pos += 1
        return t

    def expect(self, sym):
        t = self.take()
        if t[0] != "sym" or t[1] != sym:
            raise ParseError(self.line, t[2], "expected %r" % sym)

    def fail(self, msg):
        t = self.peek()
        raise ParseError(self.line, t[2] if t else self.end_col, msg)

    def expr(self):
        neg = False
        t = self.peek()
        if t and t[0] == "sym" and t[1] in "+-":
            self.take()
            neg = t[1] == "-"
        acc = self.term()
        if neg:
            acc = -acc
        while True:
            t = self.peek()
            if t and t[0] == "sym" and t[1] in "+-":
                self.take()
                rhs = self.term()
                acc = acc - rhs if t[1] == "-" else acc + rhs
            else:
                return acc

    def term(self):
        acc = self.factor()
        while True:
            t = self.peek()
            if t and t[0] == "sym" and t[1] == "*":
                self.take()
                acc = acc * self.factor()
            else:
                return acc

    def factor(self):
        acc = self.atom()
        while True:
            t = self.peek()
            if t and t[0] == "sym" and t[1] == "^":
                self.take()
                e = self.take()
                if e[0] != "int":
                    raise ParseError(self.line, e[2],
                                     "exponent must be a non-negative integer")
                acc = acc ** e[1]
            else:
                return acc

    def atom(self):
        t = self.take()
        if t[0] == "int":
            return NcPoly.const(t[1])
        if t[0] == "name":
            if t[1] not in self.varmap:
                raise ParseError(self.line, t[2],
                                 "undeclared variable %r" % t[1])
            return NcPoly.var(self.varmap[t[1]])
        if t[0] == "sym" and t[1] == "(":
            inner = self.expr()
            self.expect(")")
            return inner
        if t[0] == "sym" and t[1] == "[":
            a = self.expr()
            self.expect(",")
            b = self.expr()
            self.expect("]")
            return a * b - b * a
        raise ParseError(self.line, t[2], "unexpected token %r" % (t[1],))


def _parse_whole(toks, varmap, line_no, empty_col,
                 trailing="trailing input after expression"):
    p = ExprParser(toks, varmap, line_no, toks[-1][2] if toks else empty_col)
    out = p.expr()
    if p.peek() is not None:
        p.fail(trailing)
    return out


def parse_identity_file(text):
    """``cli.parse_identity_file`` with an NcPoly for every token and
    every operation."""
    varmap = {}
    polys = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        toks = _tokenize(raw, ln)
        if not toks:
            continue
        head = toks[0]
        if head[0] == "name" and head[1] == "vars":
            if varmap:
                raise ParseError(ln, head[2], "duplicate vars declaration")
            for t in toks[1:]:
                if t[0] != "name":
                    raise ParseError(ln, t[2], "variable name expected")
                if t[1] in varmap:
                    raise ParseError(ln, t[2], "duplicate variable %r" % t[1])
                varmap[t[1]] = len(varmap) + 1
            if not varmap:
                raise ParseError(ln, head[2], "vars needs at least one name")
            continue
        if head[0] == "name" and head[1] == "id":
            if not varmap:
                raise ParseError(ln, head[2], "vars must come before id lines")
            body = toks[1:]
            split = None
            depth = 0
            for k, t in enumerate(body):
                if t[0] != "sym":
                    continue
                if t[1] in "([":
                    depth += 1
                elif t[1] in ")]":
                    depth -= 1
                elif t[1] == "=" and depth == 0:
                    split = k
                    break
            if split is None:
                poly = _parse_whole(body, varmap, ln, head[2])
            else:
                eq = body[split][2]
                poly = (_parse_whole(body[:split], varmap, ln, eq,
                                     "trailing input before '='")
                        - _parse_whole(body[split + 1:], varmap, ln, eq))
            polys.append(poly)
            continue
        raise ParseError(ln, head[2], "expected 'vars' or 'id'")
    if not varmap:
        raise ParseError(1, 1, "missing vars declaration")
    return IdentitySet(len(varmap), tuple(polys)), varmap


def eval_batch_per_prefix(ring, P, columns):
    """``TabledRing.eval_batch`` as it was before it reused buffers: the
    same lexicographic prefix chain, with a fresh (dim, N) array for
    every prefix product."""
    N = columns[0].shape[0] if columns else 1
    dtype = ring._dtype
    cols = [np.ascontiguousarray(col.T, dtype=dtype) for col in columns]
    acc = np.zeros((ring.dim, N), dtype=dtype)
    chain = [np.broadcast_to(ring.one.astype(dtype)[:, None], (ring.dim, N))]
    prev = ()
    for w in sorted(P.terms):
        keep = next((i for i, (a, b) in enumerate(zip(w, prev)) if a != b),
                    min(len(w), len(prev)))
        del chain[keep + 1:]
        for z in w[keep:]:
            chain.append(ring._mul_batch(chain[-1], cols[z - 1],
                                         np.empty((ring.dim, N), dtype=dtype))
                         if len(chain) > 1 else cols[z - 1])
        acc += (P.terms[w] % ring.char) * chain[-1]
        acc %= ring.char
        prev = w
    return acc.T


def exact_product(ring, a, b):
    """The product of two ring elements from the structure constants,
    on Python ints."""
    table = ring.table.tolist()
    out = [0] * ring.dim
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            for k, c in enumerate(table[i][j]):
                out[k] += c * ai * bj
    return tuple(x % ring.char for x in out)
