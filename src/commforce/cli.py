"""Command line front end.

Identity files use a small line-based grammar::

    # comment
    vars X Y
    id X*Y*X*Y + X^2*Y^2
    id [X,Y]*X = X*[X,Y]

``id a = b`` records the identity a - b.  The parser works on term
dicts {word: coefficient}, with NcPoly's expansion budget for products
and powers (``term_product``, ``term_power``), and builds one NcPoly
per identity.  Commands print a short text summary by default or a
stable JSON document with --json; exit status is 0 for a verdict, 1
when ``verify`` rejects the witness, 2 for parse or usage errors and
any other malformed input (ring or witness JSON, checked by
``family_from_json``, presented witness fields, a cap or oracle bound
that is not an int >= 1 or whose families exceed the size bound, an
integer literal past Python's digit limit, ``--set``, a ``--p`` that
is not a prime or too large to test), 3 when a resource limit was hit.

``decide`` sends a set of homogeneous multilinear identities to the
paper's criterion and every other set through the stages
``decide_Up``, ``decide_B`` and ``decide_Ap`` (``decide_all``); a
single univariate identity needs ``decide_Up`` alone and a single
``[Q(X), Y]`` ``decide_Ap`` alone, so there ``decide`` answers as the
``univariate`` and ``central`` commands do.  The other commands run
one closed form each.

Each command hands one ``DecideOptions`` (``_options``) to what it
runs and takes only the cap flags that reach its code: --max-eval and
--max-gsb-steps for decide, central and verify, neither for certify,
--max-eval alone for the rest.  Any other cap flag is a usage error.
"""

import argparse
import json
import sys

from .commalg import is_prime
from .decide import (DecideOptions, IdentitySet, PresentedWitness,
                     _closed_form_verdict, _limit_verdict, decide_all, verify)
from .errors import ResourceLimitError
from .finitering import (MAX_DOC_SIZE, B, Mat, Presented, TruncFree,
                         family_from_json, family_json, family_size,
                         make_ring)
from .freealg import (NcPoly, _canon, format_ncpoly, term_power,
                      term_product)
from .gsb import complete
from .oracle import SearchBounds, identity_digest, witness_search
from .theorems import (MinRingCertificate, central_decide, freshman_decide,
                       is_multilinear, min_ring_certify, multilinear_decide,
                       power_identity_decide, univariate_decide)

SCHEMA = 1


class ParseError(Exception):
    def __init__(self, line, col, msg):
        self.line = line
        self.col = col
        super().__init__("line %d, column %d: %s" % (line, col, msg))


# ---------------------------------------------------------------------------
# tokenizer and expression parser

_SYMBOLS = "+-*^()[],="
_DIGITS = "0123456789"   # str.isdigit also admits e.g. superscripts


def _tokenize(text, line_no):
    """Tokens of one logical line: (kind, value, column)."""
    toks = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t":
            i += 1
            continue
        if ch == "#":
            break
        col = i + 1
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            try:
                value = int(text[i:j])
            except ValueError:   # past the int conversion digit limit
                raise ParseError(line_no, col, "integer literal of %d digits "
                                 "is too long" % (j - i))
            toks.append(("int", value, col))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("name", text[i:j], col))
            i = j
            continue
        if ch in _SYMBOLS:
            toks.append(("sym", ch, col))
            i += 1
            continue
        raise ParseError(line_no, col, "unexpected character %r" % ch)
    return toks


def _accumulate(acc, terms, sign):
    """acc += sign * terms, in place, on canonical term dicts."""
    for w, c in terms.items():
        c = acc.get(w, 0) + sign * c
        if c:
            acc[w] = c
        else:
            del acc[w]


class _ExprParser:
    """Recursive descent over tokens closed by an "end" token at
    ``end_col``; each method returns a fresh canonical term dict."""

    def __init__(self, toks, varmap, line_no, end_col):
        self.toks = toks + [("end", None, end_col)]
        self.varmap = varmap
        self.line = line_no
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def take(self):
        t = self.toks[self.pos]
        if t[0] == "end":
            raise ParseError(self.line, t[2], "unexpected end of expression")
        self.pos += 1
        return t

    def expect(self, sym):
        t = self.take()
        if t[0] != "sym" or t[1] != sym:
            raise ParseError(self.line, t[2], "expected %r" % sym)

    def fail(self, msg):
        raise ParseError(self.line, self.peek()[2], msg)

    def expr(self):
        neg = False
        t = self.peek()
        if t[0] == "sym" and t[1] in "+-":
            self.take()
            neg = t[1] == "-"
        acc = self.term()
        if neg:
            acc = {w: -c for w, c in acc.items()}
        while True:
            t = self.peek()
            if t[0] == "sym" and t[1] in "+-":
                self.take()
                _accumulate(acc, self.term(), -1 if t[1] == "-" else 1)
            else:
                return acc

    def term(self):
        acc = self.factor()
        while True:
            t = self.peek()
            if t[0] == "sym" and t[1] == "*":
                self.take()
                acc = _canon(term_product(acc, self.factor()), None)
            else:
                return acc

    def factor(self):
        acc = self.atom()
        while True:
            t = self.peek()
            if t[0] == "sym" and t[1] == "^":
                self.take()
                e = self.take()
                if e[0] != "int":
                    raise ParseError(self.line, e[2],
                                     "exponent must be a non-negative integer")
                acc = term_power(acc, e[1])
            else:
                return acc

    def atom(self):
        t = self.take()
        if t[0] == "int":
            return {(): t[1]} if t[1] else {}
        if t[0] == "name":
            if t[1] not in self.varmap:
                raise ParseError(self.line, t[2],
                                 "undeclared variable %r" % t[1])
            return {(self.varmap[t[1]],): 1}
        if t[0] == "sym" and t[1] == "(":
            inner = self.expr()
            self.expect(")")
            return inner
        if t[0] == "sym" and t[1] == "[":
            a = self.expr()
            self.expect(",")
            b = self.expr()
            self.expect("]")
            ab = _canon(term_product(a, b), None)
            _accumulate(ab, _canon(term_product(b, a), None), -1)
            return ab
        raise ParseError(self.line, t[2], "unexpected token %r" % (t[1],))


def _parse_whole(toks, varmap, line_no, empty_col,
                 trailing="trailing input after expression"):
    """Term dict of the expression spanning all of ``toks``; leftover
    tokens fail with the message ``trailing``.  The input ends at the
    last token, or at ``empty_col`` when there is none."""
    p = _ExprParser(toks, varmap, line_no, toks[-1][2] if toks else empty_col)
    out = p.expr()
    if p.peek()[0] != "end":
        p.fail(trailing)
    return out


def parse_expression(text, varmap, line_no=1):
    toks = _tokenize(text, line_no)
    if not toks:
        raise ParseError(line_no, 1, "empty expression")
    return NcPoly(_parse_whole(toks, varmap, line_no, 1))


def parse_identity_file(text):
    """IdentitySet from the ``vars``/``id`` line grammar."""
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
                terms = _parse_whole(body, varmap, ln, head[2])
            else:
                eq = body[split][2]
                terms = _parse_whole(body[:split], varmap, ln, eq,
                                     "trailing input before '='")
                _accumulate(terms, _parse_whole(body[split + 1:], varmap,
                                                ln, eq), -1)
            polys.append(NcPoly(terms))
            continue
        raise ParseError(ln, head[2], "expected 'vars' or 'id'")
    if not varmap:
        raise ParseError(1, 1, "missing vars declaration")
    return IdentitySet(len(varmap), tuple(polys)), varmap


def render_identities(ids, names):
    lines = ["vars " + " ".join(names)]
    for P in ids.polys:
        lines.append("id " + format_ncpoly(P, names=names))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# output documents

def _pair_json(pair):
    if pair is None:
        return None
    return [list(map(int, pair[0])), list(map(int, pair[1]))]


def verdict_doc(command, verdict):
    doc = {"schema": SCHEMA, "command": command, "verdict": verdict.kind}
    if verdict.kind == "witness":
        doc["prime"] = verdict.prime
        doc["ring"] = family_json(verdict.family)
        doc["params"] = list(verdict.params)
        doc["pair"] = _pair_json(verdict.pair)
        if isinstance(verdict.witness, PresentedWitness):
            doc["scan_length"] = verdict.witness.scan_length
    elif verdict.kind == "limit":
        doc["stage"] = verdict.stage
        doc["limit"] = verdict.limit
        doc["detail"] = verdict.detail
    return doc


def _emit(doc, as_json, lines):
    if as_json:
        print(json.dumps(doc, indent=2, sort_keys=False))
    else:
        for line in lines:
            print(line)


def _verdict_lines(doc):
    if doc["verdict"] == "forces":
        return ["Forces: every ring satisfying the identities is commutative."]
    if doc["verdict"] == "witness":
        out = ["Witness: noncommutative model found (p = %d)." % doc["prime"],
               "  ring: %s" % json.dumps(doc["ring"])]
        if doc.get("params"):
            out.append("  params: %s" % (tuple(doc["params"]),))
        if doc.get("pair"):
            out.append("  noncommuting pair: %s" % (doc["pair"],))
        return out
    return ["ResourceLimit at stage %r (limit %r)." % (doc["stage"], doc["limit"])]


def _exit_for(doc):
    return 3 if doc["verdict"] == "limit" else 0


# ---------------------------------------------------------------------------
# command implementations

def _options(args):
    opts = DecideOptions()
    if getattr(args, "max_eval", None) is not None:
        opts.eval_cap = args.max_eval
    if getattr(args, "max_gsb_steps", None) is not None:
        opts.max_gsb_steps = args.max_gsb_steps
    return opts


def _positive_int(text):
    """argparse type of the cap and search-bound flags: an int >= 1."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError("%s is not an int >= 1" % text)
    return n


def _prime(text):
    """argparse type of ``certify --p``: the prime of the minimal ring."""
    p = int(text)
    try:
        if is_prime(p):
            return p
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err))
    raise argparse.ArgumentTypeError("%s is not a prime" % text)


def _load_ids(path):
    with open(path) as fh:
        return parse_identity_file(fh.read())


def _cmd_decide(args):
    ids, _ = _load_ids(args.file)
    verdict = decide_all(ids, _options(args))
    doc = verdict_doc("decide", verdict)
    doc["digest"] = identity_digest(ids)
    _emit(doc, args.json, _verdict_lines(doc))
    return _exit_for(doc)


def _cmd_closed_form(args):
    """Report the command's closed-form decider on the input its reader
    parses, under the run's options (None means Forces)."""
    hit = args.decider(args.read(args), _options(args))
    doc = verdict_doc(args.cmd, _closed_form_verdict(hit))
    _emit(doc, args.json, _verdict_lines(doc))
    return _exit_for(doc)


def _multilinear_polys(args):
    ids, _ = _load_ids(args.file)
    for P in ids.polys:
        if not is_multilinear(P):
            raise ParseError(1, 1, "identities must be homogeneous multilinear")
    return ids.polys


def _poly_in_x(args):
    return parse_expression(args.poly, {"X": 1})


def _exponent_set(args):
    try:
        S = sorted({int(x) for x in args.set.split(",") if x.strip()})
    except ValueError:
        S = []
    if not S or S[0] < 2:
        raise ParseError(1, 1, "--set expects comma-separated integers >= 2")
    return S


def _family(doc):
    """Family of a ring document from the command line or a witness
    file, with its tabled ring (None for a presented quotient)."""
    try:
        fam = family_from_json(doc)
        return fam, None if isinstance(fam, Presented) else make_ring(fam)
    except (ValueError, KeyError, TypeError) as err:
        raise ParseError(1, 1, "bad ring spec: %s" % err)


def _cmd_check(args):
    ids, _ = _load_ids(args.file)
    try:
        doc = json.loads(args.ring)
    except ValueError as err:
        raise ParseError(1, 1, "bad ring spec: %s" % err)
    fam, ring = _family(doc)
    if ring is None:
        raise ParseError(1, 1, "check needs a tabled ring family")
    opts = _options(args)
    results = []
    all_ok = True
    for P in ids.polys:
        res = ring.is_identity(P, eval_cap=opts.eval_cap)
        if res is True:
            results.append({"identity": format_ncpoly(P), "holds": True})
        else:
            all_ok = False
            results.append({"identity": format_ncpoly(P), "holds": False,
                            "counterexample": [list(map(int, e)) for e in res]})
    doc = {"schema": SCHEMA, "command": "check", "ring": family_json(fam),
           "all_hold": all_ok, "results": results}
    lines = ["%s: %s" % (r["identity"], "holds" if r["holds"]
                         else "fails at %s" % r["counterexample"])
             for r in results]
    _emit(doc, args.json, lines)
    return 0


def _cmd_certify(args):
    ids, _ = _load_ids(args.file)
    results = []
    all_ok = True
    for P in ids.polys:
        cert = min_ring_certify(P, args.p)
        if isinstance(cert, MinRingCertificate):
            results.append({"identity": format_ncpoly(P), "certified": True})
        else:
            all_ok = False
            results.append({"identity": format_ncpoly(P), "certified": False,
                            "stage": cert.stage, "point": list(cert.point),
                            "value": [list(map(int, cert.value))]})
    doc = {"schema": SCHEMA, "command": "certify", "p": args.p,
           "all_certified": all_ok, "results": results}
    lines = ["%s: %s" % (r["identity"],
                         "certified" if r["certified"]
                         else "not an identity (stage %s)" % r["stage"])
             for r in results]
    _emit(doc, args.json, lines)
    return 0


def _cmd_verify(args):
    with open(args.witness) as fh:
        try:
            wdoc = json.load(fh)
            ring_doc = wdoc["ring"]
        except (ValueError, KeyError, TypeError) as err:
            raise ParseError(1, 1, "bad witness document: %s" % err)
    ids, _ = _load_ids(args.file)
    fam, witness = _family(ring_doc)
    opts = _options(args)
    if witness is None:
        # a missing scan_length fails the int check: nothing recorded it
        scan_length = wdoc.get("scan_length")
        if type(scan_length) is not int or scan_length < 0:
            raise ParseError(1, 1, "bad presented witness: scan_length "
                             "must be an int >= 0")
        gens = [parse_expression(g, {"X": 1, "Y": 2}) for g in fam.generators]
        witness = PresentedWitness(fam, complete(gens, fam.p, fam.a,
                                                 opts.max_gsb_steps),
                                   scan_length)
    ok = verify(witness, ids, opts)
    doc = {"schema": SCHEMA, "command": "verify", "ring": ring_doc,
           "valid": bool(ok)}
    _emit(doc, args.json,
          ["witness %s" % ("confirmed" if ok else "REJECTED")])
    return 0 if ok else 1


def _cmd_oracle(args):
    ids, _ = _load_ids(args.file)
    for fam in (B(args.max_p, args.max_n, 1), Mat(2, args.max_p, 1),
                TruncFree(args.max_p, args.max_trunc_k)):
        if family_size(fam) > MAX_DOC_SIZE:
            raise ParseError(1, 1, "oracle bounds reach %r, larger than %d"
                             % (fam, MAX_DOC_SIZE))
    bounds = SearchBounds(max_p=args.max_p, max_n=args.max_n,
                          max_trunc_k=args.max_trunc_k,
                          eval_cap=_options(args).eval_cap)
    res = witness_search(ids, bounds)
    doc = {"schema": SCHEMA, "command": "oracle",
           "digest": identity_digest(ids),
           "witness": None if res.family is None else family_json(res.family),
           "skipped": [family_json(f) for f in res.skipped]}
    lines = (["no witness within bounds"] if res.family is None
             else ["witness: %s" % json.dumps(doc["witness"])])
    _emit(doc, args.json, lines)
    return 0


# ---------------------------------------------------------------------------
# argument wiring

def _add_common(sp, max_eval=True, max_gsb_steps=False):
    sp.add_argument("--json", action="store_true",
                    help="emit a stable JSON document")
    if max_eval:
        sp.add_argument("--max-eval", type=_positive_int, default=None,
                        metavar="N",
                        help="evaluation cap for exhaustive ring checks")
    if max_gsb_steps:
        sp.add_argument("--max-gsb-steps", type=_positive_int, default=None,
                        metavar="N",
                        help="completion step cap for presented quotients")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="commforce",
        description="Decide whether polynomial identities force rings "
                    "to be commutative.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    d = sub.add_parser("decide", help="full decision on an identity file")
    d.add_argument("file")
    _add_common(d, max_gsb_steps=True)
    d.set_defaults(fn=_cmd_decide)

    m = sub.add_parser("multilinear", help="multilinear identity sets")
    m.add_argument("file")
    _add_common(m)
    m.set_defaults(fn=_cmd_closed_form, read=_multilinear_polys,
                   decider=multilinear_decide)

    u = sub.add_parser("univariate", help="a single identity P(X) = 0")
    u.add_argument("poly")
    _add_common(u)
    u.set_defaults(fn=_cmd_closed_form, read=_poly_in_x,
                   decider=univariate_decide)

    c = sub.add_parser("central", help="the identity [Q(X), Y] = 0")
    c.add_argument("poly")
    _add_common(c, max_gsb_steps=True)
    c.set_defaults(fn=_cmd_closed_form, read=_poly_in_x,
                   decider=central_decide)

    pw = sub.add_parser("power", help="(XY)^n = X^n Y^n for n in --set")
    pw.add_argument("--set", required=True)
    _add_common(pw)
    pw.set_defaults(fn=_cmd_closed_form, read=_exponent_set,
                    decider=power_identity_decide)

    fr = sub.add_parser("freshman", help="(X+Y)^n = X^n + Y^n for n in --set")
    fr.add_argument("--set", required=True)
    _add_common(fr)
    fr.set_defaults(fn=_cmd_closed_form, read=_exponent_set,
                    decider=freshman_decide)

    ck = sub.add_parser("check", help="test identities on a named ring")
    ck.add_argument("--ring", required=True,
                    help='family JSON, e.g. {"family": "U", "p": 2}')
    ck.add_argument("file")
    _add_common(ck)
    ck.set_defaults(fn=_cmd_check)

    ce = sub.add_parser("certify",
                        help="certify identities on the minimal witness ring")
    ce.add_argument("--p", type=_prime, required=True)
    ce.add_argument("file")
    _add_common(ce, max_eval=False)
    ce.set_defaults(fn=_cmd_certify)

    ve = sub.add_parser("verify", help="re-verify an emitted witness document")
    ve.add_argument("witness")
    ve.add_argument("file")
    _add_common(ve, max_gsb_steps=True)
    ve.set_defaults(fn=_cmd_verify)

    orc = sub.add_parser("oracle", help="bounded brute-force witness search")
    orc.add_argument("file")
    orc.add_argument("--max-p", type=_positive_int, default=5)
    orc.add_argument("--max-n", type=_positive_int, default=3)
    orc.add_argument("--max-trunc-k", type=_positive_int, default=4)
    _add_common(orc)
    orc.set_defaults(fn=_cmd_oracle)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    except FileNotFoundError as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    except ResourceLimitError as err:
        doc = verdict_doc(args.cmd, _limit_verdict(err))
        _emit(doc, args.json, _verdict_lines(doc))
        return 3


if __name__ == "__main__":
    sys.exit(main())
