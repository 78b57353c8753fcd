import json
import os

from commforce.decide import IdentitySet, Verdict, decide_all, decide_Ap
from commforce.finitering import B, TruncFree, Up, make_ring
from commforce.freealg import NcPoly, commutator
from commforce.oracle import (RandomProfile, SearchBounds, cross_validate,
                              identity_digest, random_identities,
                              truncated_ideal_membership, witness_search)

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
