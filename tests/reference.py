"""Reference implementations that tests compare the library against.
No library code calls them; they favour clarity over speed and suit
small inputs only."""

import numpy as np

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
