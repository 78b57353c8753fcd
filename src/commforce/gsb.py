"""Groebner-Shirshov machinery for free algebras over Z/p^a.

Polynomials live in Z/p^a{X_1,...,X_s} (two generators X, Y in the
intended use) with degree-lexicographic order, higher variable index
greater, so Y > X.  Leading coefficients are normalized to powers of p
by dividing out units, making divisibility tests syntactic.  The
completion closes a generating set under overlap and inclusion
compositions of initial words plus the coefficient compositions that
kill a p-power initial coefficient, yielding normal forms that decide
ideal membership.
"""

import heapq
from dataclasses import dataclass

from .commalg import _vp
from .errors import ResourceLimitError
from .freealg import NcPoly, deglex_key


@dataclass
class CompletionLimits:
    max_basis_size: int = 20000
    max_degree: int = 40
    max_steps: int = 10 ** 6


class GsPoly:
    """Normalized nonzero polynomial over Z/p^a with cached initial
    term: the deg-lex greatest word, leading coefficient p^e."""

    __slots__ = ("terms", "p", "a", "lead_word", "lead_exp")

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

    def as_ncpoly(self):
        return NcPoly(dict(self.terms), self.p ** self.a)

    def __repr__(self):
        return "GsPoly(%r mod %d^%d)" % (self.as_ncpoly(), self.p, self.a)


def initial_term(f):
    """(coefficient p^e, word) of the initial term."""
    return (f.p ** f.lead_exp, f.lead_word)


def _occurrences(needle, haystack):
    n, h = len(needle), len(haystack)
    return [i for i in range(h - n + 1) if haystack[i:i + n] == needle]


def _sub_scaled(terms, factor, left, poly, right, m):
    """terms -= factor * left * poly * right (in place)."""
    for w, c in poly.items():
        key = left + w + right
        v = (terms.get(key, 0) - factor * c) % m
        if v:
            terms[key] = v
        elif key in terms:
            del terms[key]


def reduce_terms(terms, basis, p, a):
    """Fully reduce a term dict against a list of GsPoly; the result's
    coefficients are remainders modulo the applicable p-powers and its
    words contain no reducible initial word with a large enough
    coefficient."""
    m = p ** a
    work = {w: c % m for w, c in terms.items() if c % m}
    out = {}
    while work:
        w = max(work, key=deglex_key)
        c = work.pop(w)
        hit = None
        for h in basis:
            if c // (p ** h.lead_exp) == 0:
                continue
            occ = _occurrences(h.lead_word, w)
            if occ:
                hit = (h, occ[0])
                break
        if hit is None:
            out[w] = c
            continue
        h, pos = hit
        work[w] = c
        factor = c // (p ** h.lead_exp)
        left = w[:pos]
        right = w[pos + len(h.lead_word):]
        _sub_scaled(work, factor, left, h.terms, right, m)
    return out


class GsBasis:
    """A (possibly completed) basis with its completion step count."""

    def __init__(self, elements, p, a, complete, steps=0):
        self.elements = list(elements)
        self.p = p
        self.a = a
        self.complete = complete
        self.steps = steps

    def normal_form(self, f):
        """Normal form of an NcPoly (or GsPoly) as an NcPoly mod p^a;
        zero iff f lies in the ideal when the basis is complete."""
        red = reduce_terms(f.terms, self.elements, self.p, self.a)
        return NcPoly(red, self.p ** self.a)

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
    if len(wg) <= len(wf) and (f is not g):
        for pos in _occurrences(wg, wf):
            left = wf[:pos]
            right = wf[pos + len(wg):]
            terms = {}
            _sub_scaled(terms, -cf, (), f.terms, (), m)
            _sub_scaled(terms, cg, left, g.terms, right, m)
            if terms:
                yield (len(wf), terms)


def complete(generators, p, a, limits=None):
    """Close the generated two-sided ideal's basis under compositions.

    ``generators`` is a list of NcPoly (any modulus tag, coefficients
    taken mod p^a).  Returns a complete GsBasis or raises
    ResourceLimitError carrying the partial basis.
    """
    limits = limits or CompletionLimits()
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

    basis = []
    steps = 0

    def fail(which, value):
        err = ResourceLimitError("gsb-completion", value, which)
        err.partial = GsBasis(basis, p, a, False, steps)
        raise err

    while heap:
        steps += 1
        if steps > limits.max_steps:
            fail("max_steps", limits.max_steps)
        _, _, terms = heapq.heappop(heap)
        red = reduce_terms(terms, basis, p, a)
        if not red:
            continue
        g = GsPoly(red, p, a)
        if len(g.lead_word) > limits.max_degree:
            fail("max_degree", limits.max_degree)
        keep = []
        for b in basis:
            if (g.lead_exp <= b.lead_exp
                    and _occurrences(g.lead_word, b.lead_word)):
                push(dict(b.terms))
            else:
                keep.append(b)
        basis = keep
        basis.append(g)
        if len(basis) > limits.max_basis_size:
            fail("max_basis_size", limits.max_basis_size)
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


def is_commutative_presentation(basis):
    """True iff [X_1, X_2] lies in the presented ideal."""
    if not basis.complete:
        raise ValueError("basis must be complete")
    comm = NcPoly({(1, 2): 1, (2, 1): -1})
    return basis.normal_form(comm).is_zero()
