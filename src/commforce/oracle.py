"""Independent cross-checks for the decision procedures.

A bounded brute-force search over the small witness families gives an
oracle that is slow but shares no search code with the decision logic;
cross_validate compares its outcome with a verdict.  The search refutes
a ring on tuples of basis elements first and accepts one only by the
exhaustive scan.  A witness is re-checked by the decision path's own
acceptance check (decide.verify): a tabled ring by exhaustive
evaluation, where each variable occurring exactly once in every word
ranges over the basis only, and a presented witness, which has no
finite table, by its specialization scan.
Seeded random identity generation supports the regression corpus.
"""

import hashlib
import random
from dataclasses import dataclass, field

from .commalg import _primes_upto
from .decide import DecideOptions, IdentitySet, PresentedWitness, verify
from .errors import ResourceLimitError
from .finitering import (B, MinRing, Mat, TruncFree, Up, family_json,
                         make_ring)
from .freealg import NcPoly, format_ncpoly


@dataclass(frozen=True)
class SearchBounds:
    max_p: int = 5
    max_n: int = 3
    max_trunc_k: int = 4
    eval_cap: int = 10 ** 7


@dataclass
class SearchResult:
    family: object = None      # first verified witness family, or None
    ring: object = None
    skipped: list = field(default_factory=list)


def _families(bounds):
    ps = _primes_upto(bounds.max_p)
    for p in ps:
        yield Up(p)
    for p in ps:
        for n in range(2, bounds.max_n + 1):
            for l in range(1, n):
                yield B(p, n, l)
    for p in ps:
        yield Mat(2, p, 1)
    for p in ps:
        for k in range(2, bounds.max_trunc_k + 1):
            yield TruncFree(p, k)
    for p in ps:
        yield MinRing(p)


def _vanishes(ring, P, eval_cap):
    """Whether P vanishes at every tuple of the ring.  Within the cap a
    nonzero value on a tuple of basis elements refutes it at once; the
    exhaustive scan alone accepts, and raises past the cap."""
    s = max(P.variables(), default=1)
    if (ring.size ** s <= eval_cap
            and ring._scan(P, range(1, s + 1), eval_cap) is not None):
        return False
    return ring.is_identity(P, eval_cap=eval_cap) is True


def witness_search(ids, bounds=None):
    """First noncommutative ring in the bounded family enumeration on
    which every identity vanishes exhaustively.  Rings whose check
    would exceed the evaluation cap are skipped and recorded; a ring
    within it is refuted on basis tuples before any exhaustive scan."""
    bounds = bounds or SearchBounds()
    result = SearchResult()
    for fam in _families(bounds):
        ring = make_ring(fam)
        if ring.is_commutative() is True:
            continue
        try:
            ok = all(_vanishes(ring, P, bounds.eval_cap) for P in ids.polys)
        except ResourceLimitError:
            result.skipped.append(fam)
            continue
        if ok:
            result.family = fam
            result.ring = ring
            return result
    return result


def identity_digest(ids):
    """SHA-256 over the canonical rendering of the identity set."""
    body = "s=%d;" % ids.nvars + ";".join(format_ncpoly(P) for P in ids.polys)
    return hashlib.sha256(body.encode()).hexdigest()


@dataclass
class CrossReport:
    digest: str
    verdict_kind: str
    oracle_family: object
    agree: bool
    skipped: list
    detail: str = ""

    def to_json(self):
        return {
            "digest": self.digest,
            "verdict": self.verdict_kind,
            "oracle": None if self.oracle_family is None
                      else family_json(self.oracle_family),
            "agree": self.agree,
            "skipped": [family_json(f) for f in self.skipped],
            "detail": self.detail,
        }


def cross_validate(ids, verdict, bounds=None):
    """Compare a verdict against the brute-force oracle.

    A Witness is re-checked by ``decide.verify`` (a presented one by
    the specialization scan over its recorded scan length); Forces is
    checked against the bounded search coming up empty; a
    resource-limited verdict is recorded without assertion.
    """
    bounds = bounds or SearchBounds()
    digest = identity_digest(ids)
    if verdict.kind == "witness":
        w = verdict.witness
        ok = verify(w, ids, DecideOptions(eval_cap=bounds.eval_cap))
        detail = ("presented witness re-checked by specialization scan"
                  if isinstance(w, PresentedWitness)
                  else "witness re-verified exhaustively")
        return CrossReport(digest, "witness", verdict.family, ok, [], detail)
    if verdict.kind == "forces":
        res = witness_search(ids, bounds)
        return CrossReport(digest, "forces", res.family, res.family is None,
                           res.skipped,
                           "bounded search found nothing" if res.family is None
                           else "bounded search found a model")
    res = witness_search(ids, bounds)
    return CrossReport(digest, verdict.kind, res.family, True, res.skipped,
                       "resource-limited verdict recorded without assertion")


# ---------------------------------------------------------------------------
# seeded corpus

@dataclass(frozen=True)
class RandomProfile:
    nvars: int = 2
    max_degree: int = 4
    max_terms: int = 4
    coeff_bound: int = 3
    count: int = 1


def random_identities(seed, profile=None):
    """Deterministic identity set from a seed; same seed, same set."""
    profile = profile or RandomProfile()
    rng = random.Random(seed)
    polys = []
    for _ in range(profile.count):
        terms = {}
        for _ in range(rng.randint(1, profile.max_terms)):
            length = rng.randint(0, profile.max_degree)
            w = tuple(rng.randint(1, profile.nvars) for _ in range(length))
            c = 0
            while not c:
                c = rng.randint(-profile.coeff_bound, profile.coeff_bound)
            terms[w] = terms.get(w, 0) + c
        polys.append(NcPoly(terms))
    return IdentitySet(profile.nvars, tuple(polys))
