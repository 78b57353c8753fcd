"""Case definitions for the commforce benchmark.

Every case is an identity set written in the CLI's identity-file
grammar.  Named cases come from the paper and from the library's own
acceptance tests; ``typical`` adds a fixed pool of seeded random sets
from several ``RandomProfile`` shapes.  The run seed never changes
which cases a workload holds, only their order and how each file is
spelled (variable names, and which side of ``=`` the identity sits on).
Per-case cost is heavy-tailed (0.2 ms to seconds), so a sampled mix
would move throughput by more than any useful regression bound; the
library still receives exactly the identity sets of the reference.
"""

import re

# name -> RandomProfile(nvars, max_degree, max_terms, coeff_bound, count)
POOL_PROFILES = {
    "u6": (1, 6, 4, 3, 1),
    "b4": (2, 4, 4, 3, 1),
    "b5x2": (2, 5, 4, 3, 2),
    "t4": (3, 4, 3, 3, 1),
    "b6": (2, 6, 3, 2, 1),
}
POOL_SEEDS = range(100)

QUARTIC = "X^2*Y^2 + X^4*Y^2 + X*Y*X*Y"
SEXTIC = ("X^2*Y*X*Y - X^2*Y^2*X - X*Y*X^2*Y + X*Y^2*X^2"
          " + Y*X^2*Y*X - Y*X*Y*X^2")

# id -> (nvars, expressions); each expression is one identity E = 0
NAMED = {
    "quartic": (2, [QUARTIC]),
    "sextic": (2, [SEXTIC]),
    "comm": (2, ["[X,Y]"]),
    "comm-x2": (2, ["[X^2,Y]"]),
}
for _n in range(2, 7):
    NAMED["jacobson-%d" % _n] = (1, ["X^%d - X" % _n])

TABLED = {}
for _m in (2, 3, 4, 5, 8, 9):
    TABLED["xyz-m%d" % _m] = (3, ["X*[Y,Z] - [Y,Z]*X^%d" % _m])
for _m in (2, 3, 4, 5, 6, 8, 9):
    TABLED["xxy-m%d" % _m] = (2, ["X*[X,Y] - [X,Y]*X^%d" % _m])
for _n in (4, 5, 9):
    TABLED["power-%d" % _n] = (2, ["(X*Y)^%d - X^%d*Y^%d" % (_n, _n, _n)])
for _n in (4, 8):
    TABLED["freshman-%d" % _n] = (2, ["(X+Y)^%d - X^%d - Y^%d" % (_n, _n, _n)])
TABLED["comm-x3"] = (2, ["[X^3,Y]"])

# one pass must fit in a run three times, for a median of each case;
# (X^3+X)^2 (5 s) and 4(X^3-X) (20 s) are left out for that
PRESENTED = {
    "sq-x2+x": (1, ["(X^2+X)^2"]),
    "sq-x2-x": (1, ["(X^2-X)^2"]),
    "sq-x3-x": (1, ["(X^3-X)^2"]),
    "4(x2-x)": (1, ["4*(X^2-X)"]),
}

TYPICAL_NAMED = ["quartic", "sextic", "comm", "comm-x2"] + \
    ["jacobson-%d" % n for n in range(2, 7)]
# Forces sets, each cross-checked in 0.4-1.4 s, so that one pass
# (about 8 s) fits in a run four or five times
CROSSCHECK = ["comm", "jacobson-2", "jacobson-3", "jacobson-5",
              "t4-73", "b6-70", "b4-35", "t4-45"]

NAME_SETS = [("X", "Y", "Z"), ("A", "B", "C"), ("x", "y", "z"),
             ("U", "V", "W")]
FORMS = ["id {E}", "id {E} = 0", "id 0 = -({E})"]
N_VARIANTS = len(NAME_SETS) * len(FORMS)


def pool_ids():
    return ["%s-%d" % (name, s) for name in POOL_PROFILES for s in POOL_SEEDS]


def _pool_source(case_id, lib):
    name, seed = case_id.rsplit("-", 1)
    nv, deg, terms, coeff, count = POOL_PROFILES[name]
    profile = lib.oracle.RandomProfile(nvars=nv, max_degree=deg,
                                       max_terms=terms, coeff_bound=coeff,
                                       count=count)
    ids = lib.oracle.random_identities(int(seed), profile)
    return ids.nvars, ids.polys


def identity_text(case_id, lib, variant=0):
    """Identity-file text of a case.  ``variant`` picks the spelling;
    every spelling parses to the same identity set."""
    names = NAME_SETS[variant % len(NAME_SETS)]
    form = FORMS[(variant // len(NAME_SETS)) % len(FORMS)]
    for table in (NAMED, TABLED, PRESENTED):
        if case_id in table:
            nvars, exprs = table[case_id]
            rename = dict(zip("XYZ", names))
            exprs = [re.sub("[XYZ]", lambda m: rename[m.group()], e)
                     for e in exprs]
            break
    else:
        nvars, polys = _pool_source(case_id, lib)
        exprs = [lib.freealg.format_ncpoly(P, names=names) for P in polys]
    lines = ["vars " + " ".join(names[:nvars])]
    lines += [form.format(E=e) for e in exprs]
    return "\n".join(lines) + "\n"
