"""Arithmetic in the free associative algebra Z{X_1,...,X_s}.

Words are tuples of 1-based variable indices; polynomials map words to
integer (or modular) coefficients.  Products and powers that would
expand past a fixed budget raise a ResourceLimitError at stage
``expansion`` instead of exhausting memory or time.  The module also
provides the two normal forms modulo powers of the commutator ideal
that the decision procedures consume, both read off one straightening
pass: a sum of sandwiched commutators A*[X_i,X_j]*C (valid mod J^2,
where J is the commutator ideal) and the flattened version
H + sum A_{i,j}*[X_i,X_j] (valid mod J^2 + [[J],X_k]).
"""

from .errors import ResourceLimitError

# expansion budget: term pairs in one product, and degree of a power
MAX_TERM_PAIRS = 2 ** 16
MAX_POWER_DEGREE = 1000


def deglex_key(word):
    """Sort key realizing degree-lexicographic order on words."""
    return (len(word), word)


def _canon(terms, modulus):
    out = {}
    for w, c in terms.items():
        if modulus is not None:
            c %= modulus
        if c:
            out[w] = c
    return out


def term_product(t1, t2):
    """Term dict of the product of two canonical term dicts, zero
    coefficients kept; more than MAX_TERM_PAIRS term pairs raise."""
    pairs = len(t1) * len(t2)
    if pairs > MAX_TERM_PAIRS:
        raise ResourceLimitError("expansion", MAX_TERM_PAIRS,
                                 "%d term pairs in a product" % pairs)
    t = {}
    for w1, c1 in t1.items():
        for w2, c2 in t2.items():
            w = w1 + w2
            t[w] = t.get(w, 0) + c1 * c2
    return t


def term_power(t, k, modulus=None):
    """Canonical term dict of the k-th power of a canonical term dict:
    k products, or {w^k: c^k} for one term c*w.  A power past
    MAX_POWER_DEGREE raises before any product."""
    if k < 0:
        raise ValueError("negative exponent")
    # a constant still costs k multiplications, so it counts as degree 1
    d = k * max([1, *map(len, t)])
    if d > MAX_POWER_DEGREE:
        raise ResourceLimitError("expansion", MAX_POWER_DEGREE,
                                 "power of degree %d" % d)
    if len(t) == 1:
        (w, c), = t.items()
        return _canon({w * k: c ** k}, modulus)
    out = _canon({(): 1}, modulus)
    for _ in range(k):
        out = _canon(term_product(out, t), modulus)
    return out


class NcPoly:
    """Noncommutative polynomial with integer or Z/m coefficients.

    Immutable.  ``terms`` maps words (tuples of 1-based variable ids)
    to nonzero coefficients; iteration order is deg-lex.
    """

    __slots__ = ("terms", "modulus", "_hash")

    def __init__(self, terms=None, modulus=None):
        t = _canon(terms or {}, modulus)
        if len(t) > 1:
            # lexicographic, then a stable sort by length: deg-lex order
            t = {w: t[w] for w in sorted(sorted(t), key=len)}
        object.__setattr__(self, "terms", t)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):
        raise AttributeError("NcPoly is immutable")

    @staticmethod
    def zero(modulus=None):
        return NcPoly({}, modulus)

    @staticmethod
    def const(c, modulus=None):
        return NcPoly({(): c}, modulus)

    @staticmethod
    def var(i, modulus=None):
        if i < 1:
            raise ValueError("variable indices are 1-based")
        return NcPoly({(i,): 1}, modulus)

    @staticmethod
    def from_word(word, c=1, modulus=None):
        return NcPoly({tuple(word): c}, modulus)

    def _check(self, other):
        if self.modulus != other.modulus:
            raise ValueError("modulus mismatch: %r vs %r" % (self.modulus, other.modulus))

    def __add__(self, other):
        if isinstance(other, int):
            other = NcPoly.const(other, self.modulus)
        self._check(other)
        t = dict(self.terms)
        for w, c in other.terms.items():
            t[w] = t.get(w, 0) + c
        return NcPoly(t, self.modulus)

    __radd__ = __add__

    def __neg__(self):
        return NcPoly({w: -c for w, c in self.terms.items()}, self.modulus)

    def __sub__(self, other):
        if isinstance(other, int):
            other = NcPoly.const(other, self.modulus)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._check(other)
        return NcPoly(term_product(self.terms, other.terms), self.modulus)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, k):
        return NcPoly(term_power(self.terms, k, self.modulus), self.modulus)

    def scale(self, c):
        return NcPoly({w: c * v for w, v in self.terms.items()}, self.modulus)

    def mod(self, m):
        """Reduce coefficients into {0,...,m-1} and tag the modulus."""
        return NcPoly(dict(self.terms), m)

    def lift(self):
        """Drop the modulus tag, keeping representatives as they are."""
        return NcPoly(dict(self.terms), None)

    def is_zero(self):
        return not self.terms

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        return max((len(w) for w in self.terms), default=-1)

    def variables(self):
        vs = set()
        for w in self.terms:
            vs.update(w)
        return sorted(vs)

    def coeff(self, word):
        return self.terms.get(tuple(word), 0)

    def content(self):
        """gcd of all coefficients; 0 for the zero polynomial."""
        from math import gcd
        g = 0
        for c in self.terms.values():
            g = gcd(g, c)
        return g

    def substitute(self, assignment):
        """Image under X_i -> assignment[i] (an NcPoly or int), expanded
        into one term dict."""
        imgs = {}
        for i, val in assignment.items():
            if isinstance(val, int):
                val = NcPoly.const(val, self.modulus)
            imgs[i] = val
        t = {}
        for w, c in self.terms.items():
            term = {(): c}
            for letter in w:
                if letter not in imgs:
                    raise KeyError("variable X_%d not assigned" % letter)
                img = imgs[letter]
                self._check(img)
                nxt = {}
                for w1, c1 in term.items():
                    for w2, c2 in img.terms.items():
                        u = w1 + w2
                        nxt[u] = nxt.get(u, 0) + c1 * c2
                term = nxt
            for u, v in term.items():
                t[u] = t.get(u, 0) + v
        return NcPoly(t, self.modulus)

    def __eq__(self, other):
        if not isinstance(other, NcPoly):
            return NotImplemented
        return self.modulus == other.modulus and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            h = hash((self.modulus, tuple(self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        return "NcPoly(%s)" % format_ncpoly(self)


def format_ncpoly(P, names=None):
    """Render in canonical deg-lex order, e.g. ``2*X1*X2 - X2^3``."""
    if not P.terms:
        return "0"
    def name(i):
        return names[i - 1] if names else "X%d" % i
    parts = []
    for w, c in P.terms.items():
        factors = []
        k = 0
        while k < len(w):
            j = k
            while j < len(w) and w[j] == w[k]:
                j += 1
            factors.append(name(w[k]) + ("^%d" % (j - k) if j - k > 1 else ""))
            k = j
        body = "*".join(factors)
        if not body:
            frag = str(abs(c))
        elif abs(c) == 1:
            frag = body
        else:
            frag = "%d*%s" % (abs(c), body)
        parts.append(("- " if c < 0 else "+ ") + frag)
    s = " ".join(parts)
    return s[2:] if s.startswith("+ ") else "-" + s[2:]


def commutator(P, Q):
    return P * Q - Q * P


def bar_transversal(P):
    """Letter-sort every word: the straightened representative of P.

    The result has the same commutative image and is supported on
    monomials X_1^{i_1}...X_s^{i_s}.
    """
    t = {}
    for w, c in P.terms.items():
        sw = tuple(sorted(w))
        t[sw] = t.get(sw, 0) + c
    return NcPoly(t, P.modulus)


def abelianize(P, nvars=None):
    """Image of P in the commutative polynomial ring (a CPoly)."""
    from .commalg import CPoly
    s = nvars if nvars is not None else (max(P.variables()) if P.variables() else 0)
    t = {}
    for w, c in P.terms.items():
        e = [0] * s
        for letter in w:
            e[letter - 1] += 1
        e = tuple(e)
        t[e] = t.get(e, 0) + c
    return CPoly(t, s, P.modulus)


def from_cpoly(Q):
    """Lift a commutative polynomial to its straightened NcPoly."""
    t = {}
    for e, c in Q.terms.items():
        w = []
        for i, k in enumerate(e, start=1):
            w.extend([i] * k)
        t[tuple(w)] = c
    return NcPoly(t, Q.modulus)


class CaseIForm:
    """P == bar + sum_k A_k*[X_i,X_j]*C_k modulo J^2.

    ``comm_terms`` is a list of records (i, j, A, C) with i < j; for a
    fixed pair (i, j) the A's are distinct words, while the C's need
    not be independent.  Every consumer is bilinear in (A, C), so only
    sum_k A_k (x) C_k matters.
    """

    def __init__(self, bar, comm_terms):
        self.bar = bar
        self.comm_terms = list(comm_terms)

    def pairs(self):
        return sorted({(i, j) for (i, j, _, _) in self.comm_terms})

    def reassemble(self):
        """bar + sum A*[X_i,X_j]*C, for evaluation-based checks."""
        out = self.bar
        for (i, j, A, C) in self.comm_terms:
            out = out + A * commutator(NcPoly.var(i, out.modulus), NcPoly.var(j, out.modulus)) * C
        return out


class ApForm:
    """P == H + sum_{i<j} A_{i,j}*[X_i,X_j] where commutators are
    central and products of two commutators vanish."""

    def __init__(self, H, A):
        self.H = H
        self.A = dict(A)

    def reassemble(self):
        out = self.H
        for (i, j), A in sorted(self.A.items()):
            out = out + A * commutator(NcPoly.var(i, out.modulus), NcPoly.var(j, out.modulus))
        return out


def _straighten_collect(P):
    """Straighten P, collecting one sandwich A-word [X_i,X_j] C-word per
    transposition.  Returns (bar, {(i,j): {Aword: {Cword: coeff}}}).

    Uses X_a X_b = X_b X_a - [X_b, X_a] for a > b at the leftmost
    out-of-order position; the sandwich sides are themselves letter
    sorted, which only changes the result by J^2 terms.
    """
    bar_terms = {}
    comm = {}
    pending = list(P.terms.items())
    while pending:
        w, c = pending.pop()
        if not c:
            continue
        pos = -1
        for k in range(len(w) - 1):
            if w[k] > w[k + 1]:
                pos = k
                break
        if pos < 0:
            bar_terms[w] = bar_terms.get(w, 0) + c
            continue
        a, b = w[pos], w[pos + 1]
        pending.append((w[:pos] + (b, a) + w[pos + 2:], c))
        aw, cw = tuple(sorted(w[:pos])), tuple(sorted(w[pos + 2:]))
        row = comm.setdefault((b, a), {}).setdefault(aw, {})
        row[cw] = row.get(cw, 0) - c
    return bar_terms, comm


def reduce_caseI(P):
    """Normal form of P modulo J^2 as bar + sum A*[X_i,X_j]*C.

    One record per commutator pair and letter-sorted left sandwich
    word: A is that word with coefficient 1, and C collects its right
    sandwiches with their coefficients.
    """
    bar_terms, comm = _straighten_collect(P)
    records = []
    for (i, j) in sorted(comm):
        rows = comm[(i, j)]
        for aw in sorted(rows, key=deglex_key):
            C = NcPoly(rows[aw], P.modulus)
            if not C.is_zero():
                records.append((i, j, NcPoly.from_word(aw, 1, P.modulus), C))
    return CaseIForm(NcPoly(bar_terms, P.modulus), records)


def reduce_Ap(P):
    """Normal form of P where commutators are central and J^2 = 0:
    H + sum_{i<j} A_{i,j}*[X_i,X_j] with straightened coefficients."""
    form = reduce_caseI(P)
    A = {}
    for (i, j, Ak, Ck) in form.comm_terms:
        prod = bar_transversal(Ak * Ck)
        key = (i, j)
        A[key] = (A[key] + prod) if key in A else prod
    A = {k: v for k, v in A.items() if not v.is_zero()}
    return ApForm(form.bar, A)
