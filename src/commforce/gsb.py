"""Groebner-Shirshov machinery for free algebras over Z/p^a.

Polynomials live in Z/p^a{X_1,...,X_s} (two generators X, Y in the
intended use) with degree-lexicographic order, higher variable index
greater, so Y > X.  Leading coefficients are normalized to powers of p
by dividing out units, making divisibility tests syntactic.  The
completion closes a generating set under overlap and inclusion
compositions of initial words plus the coefficient compositions that
kill a p-power initial coefficient, yielding normal forms that decide
ideal membership.

Reduction takes the terms greatest first from a heap keyed by deg-lex
order, with lazy deletion of cancelled words; every word a reduction
step adds is smaller than the word it reduces, so the order is that of
a full rescan.  A term c*w is reduced by the first basis element, in
basis order, whose leading coefficient p^e is at most c and whose
initial word occurs in w, at its first occurrence.  Initial words are
encoded as strings so that occurrence is a substring search.  A
GsBasis is fixed once built, so it memoizes per word the elements
whose initial word occurs in it; the completion, whose basis changes
at every step, scans its basis in order instead.  A completion
stops past ``max_steps`` steps (``DecideOptions.max_gsb_steps``).

A completion may start from a complete basis and push only new
generators, so that only compositions involving their descendants are
formed (Buchberger's pair bookkeeping), and may stop early once a given
polynomial reduces to zero modulo the partial basis: a completion round
of a presentation ends as soon as it kills [X, Y].
"""

import heapq
from operator import neg

from .commalg import _vp
from .errors import ResourceLimitError
from .freealg import NcPoly, deglex_key


# fixed caps of a completion; its step cap is ``complete``'s max_steps
MAX_BASIS_SIZE = 20000
MAX_DEGREE = 40

# [X_1, X_2] as a term dict
COMMUTATOR = {(1, 2): 1, (2, 1): -1}


class GsPoly:
    """Normalized nonzero polynomial over Z/p^a with cached initial
    term: the deg-lex greatest word, leading coefficient p^e.  Also
    cached: ``lead_pow`` = p^e, ``lead_key`` (the encoded initial word)
    and ``tail`` (the other terms)."""

    __slots__ = ("terms", "p", "a", "lead_word", "lead_exp", "lead_pow",
                 "lead_key", "tail")

    def __init__(self, terms, p, a):
        m = p ** a
        t = {}
        for w, c in terms.items():
            c %= m
            if c:
                t[w] = c
        if not t:
            raise ValueError("zero polynomial has no initial term")
        lead = max(t, key=deglex_key)
        e = _vp(t[lead], p)
        unit = t[lead] // (p ** e)
        if unit != 1:
            inv = pow(unit, -1, m)
            t = {w: (c * inv) % m for w, c in t.items()}
        self.terms = dict(sorted(t.items(), key=lambda kv: deglex_key(kv[0])))
        self.p = p
        self.a = a
        self.lead_word = lead
        self.lead_exp = e
        self.lead_pow = p ** e
        self.lead_key = _encode(lead)
        self.tail = tuple(self.terms.items())[:-1]

    def as_ncpoly(self):
        return NcPoly(dict(self.terms), self.p ** self.a)

    def __repr__(self):
        return "GsPoly(%r mod %d^%d)" % (self.as_ncpoly(), self.p, self.a)


def _encode(word):
    """Search key of a word: one character per letter, so a substring
    found at index i is an occurrence at word position i."""
    return "".join(map(chr, word))


def _sub_scaled(terms, factor, left, poly, right, m):
    """terms -= factor * left * poly * right (in place)."""
    for w, c in poly.items():
        key = left + w + right
        v = (terms.get(key, 0) - factor * c) % m
        if v:
            terms[key] = v
        elif key in terms:
            del terms[key]


def _reduce(terms, first_reducer, m):
    """Fully reduce a term dict modulo m, greatest word first.
    ``first_reducer(w, c)`` returns the (element, position) that
    reduces c*w, or None when c*w is irreducible."""
    heappush, heappop = heapq.heappush, heapq.heappop
    work = {}
    for w, c in terms.items():
        c %= m
        if c:
            work[w] = c
    # min-heap on (-length, negated letters) pops the deg-lex greatest
    heap = [(-len(w), tuple(map(neg, w)), w) for w in work]
    heapq.heapify(heap)
    out = {}
    while heap:
        w = heappop(heap)[2]
        c = work.pop(w, 0)
        while c:
            hit = first_reducer(w, c)
            if hit is None:
                out[w] = c
                break
            h, pos = hit
            factor = c // h.lead_pow
            c -= factor * h.lead_pow
            left = w[:pos]
            right = w[pos + len(h.lead_word):]
            for hw, hc in h.tail:
                key = left + hw + right
                v = work.get(key)
                if v is None:
                    v = -factor * hc % m
                    if v:
                        work[key] = v
                        heappush(heap, (-len(key), tuple(map(neg, key)), key))
                else:
                    v = (v - factor * hc) % m
                    if v:
                        work[key] = v
                    else:
                        del work[key]
    return out


def reduce_terms(terms, basis, p, a):
    """Fully reduce a term dict against a sequence of GsPoly; the
    result's coefficients are remainders modulo the applicable p-powers
    and its words contain no reducible initial word with a large enough
    coefficient."""
    def first_reducer(w, c):
        key = None
        for h in basis:
            if h.lead_pow <= c:
                if key is None:
                    key = _encode(w)
                pos = key.find(h.lead_key)
                if pos >= 0:
                    return h, pos
        return None

    return _reduce(terms, first_reducer, p ** a)


class GsBasis:
    """A (possibly completed) basis with its completion step count.
    Fixed once built: ``elements`` is a tuple and reducer lookups are
    memoized per word."""

    def __init__(self, elements, p, a, complete, steps=0):
        self.elements = tuple(elements)
        self.p = p
        self.a = a
        self.complete = complete
        self.steps = steps
        self._reducers = {}

    def reducers(self, word):
        """(element, first position) of each element whose initial word
        occurs in ``word``, in basis order, up to the first element with
        leading coefficient 1, after which none is ever chosen."""
        hits = self._reducers.get(word)
        if hits is None:
            key = _encode(word)
            hits = []
            for h in self.elements:
                pos = key.find(h.lead_key)
                if pos >= 0:
                    hits.append((h, pos))
                    if h.lead_exp == 0:
                        break
            hits = self._reducers[word] = tuple(hits)
        return hits

    def _first_reducer(self, w, c):
        hits = self._reducers.get(w)
        for h, pos in self.reducers(w) if hits is None else hits:
            if h.lead_pow <= c:
                return h, pos
        return None

    def normal_form(self, f):
        """Normal form of an NcPoly (or GsPoly) as an NcPoly mod p^a;
        zero iff f lies in the ideal when the basis is complete."""
        m = self.p ** self.a
        return NcPoly(_reduce(f.terms, self._first_reducer, m), m)

    def evaluate(self, P, images):
        """Normal form of P under X_i -> images[i] (a term dict), equal
        to ``normal_form(P.substitute(...))`` without expanding the
        image.  Each proper prefix of P's words is valued once, as the
        reduced product of its own prefix's value and its last letter's
        image (a one-letter prefix is the image itself); a word adds its
        last product to a sum that is reduced once.  Normal forms modulo
        a complete basis are unique, so NF(u v) = NF(NF(u) v)."""
        m = self.p ** self.a
        first = self._first_reducer

        def times(value, letter):
            img = images[letter].items()
            prod = {}
            for u, a in value.items():
                for v, b in img:
                    k = u + v
                    prod[k] = prod.get(k, 0) + a * b
            return prod

        values = {(): {(): 1}}
        total = {}
        # longest words first: a word that is also a prefix of a longer
        # one then finds its reduced value
        for w, c in reversed(P.terms.items()):
            value = values.get(w)
            if value is None:
                for j in range(1, len(w)):
                    if w[:j] not in values:
                        values[w[:j]] = (images[w[0]] if j == 1 else _reduce(
                            times(values[w[:j - 1]], w[j - 1]), first, m))
                value = times(values[w[:-1]], w[-1])
            for u, a in value.items():
                total[u] = total.get(u, 0) + c * a
        return NcPoly(_reduce(total, first, m), m)

    def dump(self):
        """One element per line in canonical order (stable debug form)."""
        from .freealg import format_ncpoly
        lines = []
        for g in sorted(self.elements, key=lambda g: deglex_key(g.lead_word)):
            lines.append(format_ncpoly(g.as_ncpoly()))
        return "\n".join(lines)


def _compositions(f, g, p, a):
    """All compositions of the ordered pair (f, g): overlap words where
    a suffix of in(f) is a prefix of in(g), and inclusions of in(g)
    inside in(f).  Yields (degree, term-dict)."""
    m = p ** a
    wf, wg = f.lead_word, g.lead_word
    E = max(f.lead_exp, g.lead_exp)
    cf = p ** (E - f.lead_exp)
    cg = p ** (E - g.lead_exp)
    for k in range(1, min(len(wf), len(wg))):
        if wf[len(wf) - k:] == wg[:k]:
            right_tail = wg[k:]
            left_head = wf[:len(wf) - k]
            terms = {}
            _sub_scaled(terms, -cf, (), f.terms, right_tail, m)
            _sub_scaled(terms, cg, left_head, g.terms, (), m)
            if terms:
                yield (len(wf) + len(wg) - k, terms)
    # every occurrence, overlapping ones included, in ascending order
    pos = f.lead_key.find(g.lead_key) if f is not g else -1
    while pos >= 0:
        left = wf[:pos]
        right = wf[pos + len(wg):]
        terms = {}
        _sub_scaled(terms, -cf, (), f.terms, (), m)
        _sub_scaled(terms, cg, left, g.terms, right, m)
        if terms:
            yield (len(wf), terms)
        pos = f.lead_key.find(g.lead_key, pos + 1)


def complete(generators, p, a, max_steps=10 ** 6, start=None, until=None):
    """Close the generated two-sided ideal's basis under compositions.

    ``generators`` is a list of NcPoly (any modulus tag, coefficients
    taken mod p^a).  Returns a complete GsBasis or raises
    ResourceLimitError carrying the partial basis once more than
    ``max_steps`` compositions are processed.

    ``start``, a complete GsBasis mod p^a, seeds the basis with its
    elements: their compositions with each other already reduce to zero,
    so only the generators are pushed, and ``max_steps`` and the
    returned ``steps`` count only the steps they cause.  ``until``, a
    nonzero term dict, ends the completion as soon as it reduces to zero
    modulo the partial basis, which is returned with ``complete=False``.
    Only an element whose initial word is no longer than ``until``'s
    longest word can act on it, so the test runs when such an element
    joins.
    """
    m = p ** a
    heap = []
    seq = 0

    def push(terms):
        nonlocal seq
        t = {w: c % m for w, c in terms.items() if c % m}
        if t:
            deg = max(len(w) for w in t)
            heapq.heappush(heap, (deg, seq, t))
            seq += 1

    for g in generators:
        push(dict(g.terms))

    basis = list(start.elements) if start is not None else []
    steps = 0
    reach = max(map(len, until)) if until else -1

    def fail(which, value):
        err = ResourceLimitError("gsb-completion", value, which)
        err.partial = GsBasis(basis, p, a, False, steps)
        raise err

    while heap:
        steps += 1
        if steps > max_steps:
            fail("max_steps", max_steps)
        _, _, terms = heapq.heappop(heap)
        red = reduce_terms(terms, basis, p, a)
        if not red:
            continue
        g = GsPoly(red, p, a)
        if len(g.lead_word) > MAX_DEGREE:
            fail("max_degree", MAX_DEGREE)
        keep = []
        for b in basis:
            if g.lead_exp <= b.lead_exp and g.lead_key in b.lead_key:
                push(dict(b.terms))
            else:
                keep.append(b)
        basis = keep
        basis.append(g)
        if len(basis) > MAX_BASIS_SIZE:
            fail("max_basis_size", MAX_BASIS_SIZE)
        if len(g.lead_word) <= reach and not reduce_terms(until, basis, p, a):
            return GsBasis(basis, p, a, False, steps)
        if g.lead_exp >= 1:
            # coefficient composition: the multiple killing the lead
            scaled = {w: (c * p ** (a - g.lead_exp)) % m for w, c in g.terms.items()}
            push(scaled)
        for b in basis:
            for _, t in _compositions(g, b, p, a):
                push(t)
            if b is not g:
                for _, t in _compositions(b, g, p, a):
                    push(t)
    return GsBasis(basis, p, a, True, steps)


def adjoin(basis, generators):
    """A complete ``basis`` with the generators nonzero mod p^a appended
    as elements, in order, without forming a composition.  The result is
    complete only when each appended element is irreducible modulo the
    others and every composition it takes part in reduces to zero; the
    caller must show that.  An initial word longer than ``MAX_DEGREE``
    ends it as it ends ``complete``, with the partial basis."""
    p, a = basis.p, basis.a
    m = p ** a
    elements = list(basis.elements)
    for f in generators:
        if any(c % m for c in f.terms.values()):
            g = GsPoly(f.terms, p, a)
            if len(g.lead_word) > MAX_DEGREE:
                err = ResourceLimitError("gsb-completion", MAX_DEGREE,
                                         "max_degree")
                err.partial = GsBasis(elements, p, a, False, basis.steps)
                raise err
            elements.append(g)
    return GsBasis(elements, p, a, True, basis.steps)


def is_commutative_presentation(basis):
    """True iff [X_1, X_2] lies in the presented ideal."""
    if not basis.complete:
        raise ValueError("basis must be complete")
    return basis.normal_form(NcPoly(COMMUTATOR)).is_zero()
