import json
import os

import pytest

from commforce.decide import IdentitySet, Verdict, decide_all, decide_Ap
from commforce.errors import ResourceLimitError
from commforce.finitering import B, TabledRing, TruncFree, Up, make_ring
from commforce.freealg import NcPoly, commutator
from commforce.oracle import (RandomProfile, SearchBounds, _families,
                              cross_validate, identity_digest,
                              random_identities, witness_search)
from reference import truncated_ideal_membership

X = NcPoly.var(1)
Y = NcPoly.var(2)

QUARTIC = X ** 2 * Y ** 2 + X ** 4 * Y ** 2 + X * Y * X * Y
SEXTIC = (X ** 2 * Y * X * Y - X ** 2 * Y ** 2 * X - X * Y * X ** 2 * Y
          + X * Y ** 2 * X ** 2 + Y * X ** 2 * Y * X - Y * X * Y * X ** 2)

SMALL = SearchBounds(max_p=3, max_n=2, max_trunc_k=3, eval_cap=10 ** 6)


def test_search_finds_sextic_witness():
    res = witness_search(IdentitySet(2, (SEXTIC,)), SMALL)
    assert res.family == Up(2)
    assert res.ring.is_commutative() is not True


def test_search_empty_for_quartic_with_skips():
    res = witness_search(IdentitySet(2, (QUARTIC,)), SMALL)
    assert res.family is None
    # the 3^7-element truncated algebra exceeds the small eval cap
    assert TruncFree(3, 3) in res.skipped


def test_search_walk_for_commutator_pinned():
    # the crosscheck bounds: no ring satisfies [X,Y], and the rings past
    # the 10^7-tuple cap are skipped in enumeration order
    res = witness_search(IdentitySet(2, (commutator(X, Y),)),
                         SearchBounds(5, 3, 4))
    assert res.family is None
    assert res.skipped == [B(5, 3, 1), B(5, 3, 2), TruncFree(2, 4),
                           TruncFree(3, 4), TruncFree(5, 3), TruncFree(5, 4)]


def _reference_walk(ids, bounds):
    # the search as a plain exhaustive scan of every identity on every
    # noncommutative ring, with no basis pass in front of it
    skipped = []
    for fam in _families(bounds):
        ring = make_ring(fam)
        if ring.is_commutative() is True:
            continue
        try:
            ok = all(ring.is_identity(P, eval_cap=bounds.eval_cap) is True
                     for P in ids.polys)
        except ResourceLimitError:
            skipped.append(fam)
            continue
        if ok:
            return fam, skipped
    return None, skipped


def _pool_set(nvars, max_degree, max_terms, coeff_bound, seed):
    return random_identities(seed, RandomProfile(nvars, max_degree,
                                                 max_terms, coeff_bound, 1))


# an 8-variable identity exceeds the 10^7-tuple cap on every ring
WIDE = (commutator(NcPoly.var(1), NcPoly.var(2))
        * commutator(NcPoly.var(3), NcPoly.var(4))
        * commutator(NcPoly.var(5), NcPoly.var(6))
        * commutator(NcPoly.var(7), NcPoly.var(8)))

DIFFERENTIAL_SETS = [
    # the crosscheck benchmark sets: [X,Y], Jacobson n = 2, 3, 5 and
    # the pool sets t4-73, b6-70, b4-35, t4-45
    IdentitySet(2, (commutator(X, Y),)),
    IdentitySet(1, (X ** 2 - X,)),
    IdentitySet(1, (X ** 3 - X,)),
    IdentitySet(1, (X ** 5 - X,)),
    _pool_set(3, 4, 3, 3, 73),
    _pool_set(2, 6, 3, 2, 70),
    _pool_set(2, 4, 4, 3, 35),
    _pool_set(3, 4, 3, 3, 45),
    IdentitySet(2, (QUARTIC,)),
    IdentitySet(2, (SEXTIC,)),
    IdentitySet(2, (commutator(X ** 2, Y),)),
    IdentitySet(2, ()),
    # 2X holds on every ring of characteristic 2, whose check of the
    # second identity then exceeds the cap, so those rings are skipped;
    # the others fail 2X at X = 1 and are not
    IdentitySet(8, (X.scale(2), WIDE)),
    # [X,Y] fails on a pair of basis elements of every ring it reaches,
    # before the second identity's cap is looked at
    IdentitySet(8, (commutator(X, Y), WIDE)),
]


@pytest.mark.parametrize("bounds", [SearchBounds(5, 3, 4), SMALL],
                         ids=["crosscheck", "small"])
@pytest.mark.parametrize("ids", DIFFERENTIAL_SETS,
                         ids=range(len(DIFFERENTIAL_SETS)))
def test_witness_search_matches_exhaustive_walk(ids, bounds):
    family, skipped = _reference_walk(ids, bounds)
    res = witness_search(ids, bounds)
    assert res.family == family
    assert res.skipped == skipped


def test_witness_search_refutes_on_basis_tuples(monkeypatch):
    # each ring within the cap is refuted on basis pairs, so it sees at
    # most dim^2 tuples (TruncFree(3, 3) took 177,390 in the exhaustive
    # scan), and only the skipped rings reach is_identity
    rows, scanned = {}, []
    eval_batch, is_identity = TabledRing.eval_batch, TabledRing.is_identity

    def recording(self, P, columns):
        rows[self] = rows.get(self, 0) + columns[0].shape[0]
        return eval_batch(self, P, columns)

    def spying(self, P, eval_cap=10 ** 7):
        scanned.append(self.family)
        return is_identity(self, P, eval_cap)

    monkeypatch.setattr(TabledRing, "eval_batch", recording)
    monkeypatch.setattr(TabledRing, "is_identity", spying)
    res = witness_search(IdentitySet(2, (commutator(X, Y),)),
                         SearchBounds(5, 3, 4))
    assert res.family is None and len(res.skipped) == 6
    assert rows and all(n <= ring.dim ** 2 for ring, n in rows.items())
    assert TruncFree(3, 3) in {ring.family for ring in rows}
    assert set(scanned) <= set(res.skipped)


def test_cross_validate_rejects_commutative_tabled_witness():
    # TruncFree(2, 2) is commutative, so it satisfies [X,Y] but is no
    # witness
    ids = IdentitySet(2, (commutator(X, Y),))
    fam = TruncFree(2, 2)
    rep = cross_validate(ids, Verdict("witness", prime=2, family=fam,
                                      witness=make_ring(fam)), SMALL)
    assert not rep.agree


def test_cross_validate_agrees_on_both_examples():
    for P in (QUARTIC, SEXTIC):
        ids = IdentitySet(2, (P,))
        rep = cross_validate(ids, decide_all(ids), SMALL)
        assert rep.agree
        doc = rep.to_json()
        assert doc["digest"] == identity_digest(ids)
        assert doc["verdict"] in ("forces", "witness")


def test_cross_validate_catches_wrong_witness():
    from commforce.decide import Verdict
    from commforce.finitering import make_ring
    ids = IdentitySet(2, (commutator(X, Y),))
    bogus = make_ring(Up(2))
    rep = cross_validate(ids, Verdict("witness", prime=2, family=Up(2),
                                      witness=bogus), SMALL)
    assert not rep.agree


def test_random_identities_deterministic():
    a = random_identities(17)
    b = random_identities(17)
    assert a == b
    assert identity_digest(a) == identity_digest(b)
    assert random_identities(18) != a


def test_golden_digests():
    path = os.path.join(os.path.dirname(__file__), "golden_random.json")
    with open(path) as fh:
        golden = json.load(fh)
    profile = RandomProfile(**golden["profile"])
    for entry in golden["entries"]:
        ids = random_identities(entry["seed"], profile)
        assert identity_digest(ids) == entry["digest"]


def test_truncated_membership_basics():
    # mod words of length >= 3 over F_2: YX lies in (YX), XY does not
    assert truncated_ideal_membership(Y * X, [Y * X], 2, 3)
    assert not truncated_ideal_membership(X * Y, [Y * X], 2, 3)
    # padding: anything of length >= k is in the ideal for free
    assert truncated_ideal_membership(X * Y * X, [], 2, 3)
    assert truncated_ideal_membership(NcPoly.zero(), [], 2, 3)
    assert not truncated_ideal_membership(X, [], 2, 3)
    # scaled generators over F_3
    assert truncated_ideal_membership(X.scale(2), [X], 3, 2)
    assert truncated_ideal_membership(commutator(X, Y),
                                      [X * Y + Y * X, (X * Y).scale(2)], 3, 3)


def test_cross_validate_rechecks_presented_witness():
    # the (X^2 + X)^2 witness survives the commutator test but does not
    # satisfy X^2 = X, so it must not count as agreeing for that set
    sq = IdentitySet(1, (X ** 4 + (X ** 3).scale(2) + X ** 2,))
    p, w = decide_Ap(sq)
    verdict = Verdict("witness", prime=p, family=w.family, witness=w)
    assert cross_validate(sq, verdict).agree
    for P in (X ** 2 - X, X.scale(2), X ** 3, X ** 4):
        rep = cross_validate(IdentitySet(1, (P,)), verdict)
        assert not rep.agree
        assert rep.detail == "presented witness re-checked by specialization scan"
