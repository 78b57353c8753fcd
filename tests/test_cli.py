import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import reference
from commforce.cli import (ParseError, build_parser, main, parse_expression,
                           parse_identity_file, render_identities)
from commforce.decide import IdentitySet, decide_all, verify
from commforce.errors import ResourceLimitError
from commforce.finitering import B, TruncFree, Up, family_json
from commforce.freealg import NcPoly, commutator
from commforce.oracle import cross_validate
from commforce.theorems import central_decide

X = NcPoly.var(1)
Y = NcPoly.var(2)

SEXTIC_FILE = """\
# satisfied by upper triangular matrices mod 2
vars X Y
id X^2*Y*X*Y - X^2*Y^2*X - X*Y*X^2*Y + X*Y^2*X^2 + Y*X^2*Y*X - Y*X*Y*X^2
"""

QUARTIC_FILE = """\
vars X Y
id X^2*Y^2 + X^4*Y^2 + X*Y*X*Y
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_parse_expression_sugar():
    vm = {"X": 1, "Y": 2}
    assert parse_expression("[X,Y]", vm) == commutator(X, Y)
    assert parse_expression("2*X^2*Y - Y^3", vm) == \
        (X ** 2 * Y).scale(2) - Y ** 3
    assert parse_expression("(X + Y)*(X - Y)", vm) == (X + Y) * (X - Y)


def test_parse_identity_file_equation_form():
    ids, varmap = parse_identity_file("vars X Y\nid X*Y = Y*X\n")
    assert varmap == {"X": 1, "Y": 2}
    assert ids.polys == (commutator(X, Y),)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as e:
        parse_identity_file("vars X Y\nid X*W\n")
    assert e.value.line == 2
    with pytest.raises(ParseError):
        parse_identity_file("id X\n")          # vars must come first
    with pytest.raises(ParseError):
        parse_identity_file("vars X X\n")      # duplicate name
    with pytest.raises(ParseError):
        parse_identity_file("vars X\nid X^-2\n")


@pytest.mark.parametrize("text,col", [
    ("vars X\nid X =\n", 6),      # the '='
    ("vars X\nid = X\n", 4),      # the '='
    ("vars X\nid\n", 1),          # the 'id'
    ("vars X\n  id  # none\n", 3),
])
def test_empty_side_of_equals_reports_its_column(text, col):
    with pytest.raises(ParseError) as e:
        parse_identity_file(text)
    assert (e.value.line, e.value.col) == (2, col)
    assert str(e.value).endswith("unexpected end of expression")


def parse_outcome(parse, text):
    """What a parser makes of ``text``: the identity set with each
    identity's term order, or the fields of the error it raises."""
    try:
        ids, varmap = parse(text)
    except ParseError as err:
        return ("parse", err.line, err.col, str(err))
    except ResourceLimitError as err:
        return ("limit", err.stage, err.limit, err.detail)
    return ("ok", ids, [list(P.terms) for P in ids.polys], varmap)


NAMES = ("X", "Y", "Z")
SYMBOLS = list("+-*^()[],=") + ["W", "0", "2", "17", "id", "$"]


def expr_tokens(nvars):
    """Token lists of well-formed expressions over ``nvars`` names."""
    atom = st.one_of(st.integers(0, 12).map(str),
                     st.sampled_from(NAMES[:nvars])).map(lambda a: [a])

    def expr(factor):
        term = st.lists(factor, min_size=1, max_size=3).map(
            lambda fs: sum(([*f, "*"] for f in fs), [])[:-1])
        return st.tuples(st.sampled_from([[], ["-"], ["+"]]),
                         st.lists(st.tuples(st.sampled_from("+-"), term),
                                  min_size=1, max_size=3)).map(
            lambda t: t[0] + sum(([op, *tm] for op, tm in t[1]), [])[1:])

    def extend(inner):
        base = st.one_of(atom, inner.map(lambda e: ["(", *e, ")"]),
                         st.tuples(inner, inner).map(
                             lambda ab: ["[", *ab[0], ",", *ab[1], "]"]))
        factor = st.tuples(base, st.sampled_from([None, 0, 1, 2, 3])).map(
            lambda t: t[0] if t[1] is None else [*t[0], "^", str(t[1])])
        return expr(factor)

    return st.recursive(atom, extend, max_leaves=8)


def spell(data, toks):
    """Join tokens with drawn blanks, keeping names and numbers apart."""
    out = toks[:1]
    for a, b in zip(toks, toks[1:]):
        apart = a[-1].isalnum() and b[0].isalnum()
        out.append(data.draw(st.sampled_from(
            [" ", "\t", "  "] if apart else ["", " ", "\t "])))
        out.append(b)
    return "".join(out)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_parser_matches_the_ncpoly_reference(data):
    nvars = data.draw(st.integers(1, 3))
    lines = ["vars " + " ".join(NAMES[:nvars])]
    for _ in range(data.draw(st.integers(1, 3))):
        toks = ["id", *data.draw(expr_tokens(nvars))]
        if data.draw(st.booleans()):
            toks += ["=", *data.draw(expr_tokens(nvars))]
        line = spell(data, toks)
        if data.draw(st.booleans()):
            line += data.draw(st.sampled_from(["  # [X,Y", "# ^", " #"]))
        lines.append(data.draw(st.sampled_from(["", " ", "\t"])) + line)
        if data.draw(st.booleans()):
            lines.append(data.draw(st.sampled_from(["", "# note", "  "])))
    text = "\n".join(lines) + "\n"
    got = parse_outcome(parse_identity_file, text)
    assert got[0] in ("ok", "limit")
    assert got == parse_outcome(reference.parse_identity_file, text)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_parser_errors_match_the_ncpoly_reference(data):
    """Malformed lines: a well-formed one with a token deleted, inserted
    or replaced, or tokens drawn at random."""
    nvars = data.draw(st.integers(1, 3))
    toks = ["id", *data.draw(expr_tokens(nvars))]
    for _ in range(data.draw(st.integers(1, 2))):
        k = data.draw(st.integers(0, len(toks)))
        edit = data.draw(st.sampled_from(["delete", "insert", "replace"]))
        sym = data.draw(st.sampled_from(SYMBOLS))
        if edit == "insert":
            toks.insert(k, sym)
        elif k < len(toks):
            toks[k:k + 1] = [] if edit == "delete" else [sym]
    if data.draw(st.booleans()):
        toks = data.draw(st.lists(st.sampled_from(SYMBOLS), max_size=10))
    text = "vars %s\n%s\n" % (" ".join(NAMES[:nvars]), spell(data, toks))
    assert parse_outcome(parse_identity_file, text) == \
        parse_outcome(reference.parse_identity_file, text)


@pytest.mark.parametrize("body", [
    "(X+Y)^1001", "X^1001", "2^1001", "(X*Y)^501",
    "(X+Y)^8*(X+Y)^9",          # 256 * 512 term pairs
    "((X+Y)^8 + X - X)*(X+Y)^9",   # still 256 * 512: X - X cancels
    "(X+Y)^17",                 # 65536 * 2 inside the power
    "[(X+Y)^8, (X+Y)^9]",
])
def test_parser_expansion_limits_match_the_ncpoly_reference(body):
    text = "vars X Y\nid %s\n" % body
    got = parse_outcome(parse_identity_file, text)
    assert got[0] == "limit"
    assert got == parse_outcome(reference.parse_identity_file, text)


def test_render_round_trip():
    ids, varmap = parse_identity_file(QUARTIC_FILE)
    names = sorted(varmap, key=varmap.get)
    again, _ = parse_identity_file(render_identities(ids, names))
    assert again == ids


def test_cli_decide_witness(tmp_path, capsys):
    f = write(tmp_path, "a.ids", SEXTIC_FILE)
    assert main(["decide", f, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == 1
    assert doc["verdict"] == "witness"
    assert doc["prime"] == 2
    assert doc["ring"]["family"] == "U"
    assert doc["pair"] is not None


def test_cli_decide_deterministic_output(tmp_path, capsys):
    f = write(tmp_path, "a.ids", SEXTIC_FILE)
    main(["decide", f, "--json"])
    first = capsys.readouterr().out
    main(["decide", f, "--json"])
    assert capsys.readouterr().out == first


def test_cli_parse_error_exit_2(tmp_path, capsys):
    f = write(tmp_path, "bad.ids", "vars X\nid X*W\n")
    assert main(["decide", f]) == 2
    assert "line 2" in capsys.readouterr().err
    assert main(["decide", str(tmp_path / "missing.ids")]) == 2
    capsys.readouterr()


def test_cli_univariate_and_central(capsys):
    assert main(["univariate", "X^2 - X", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "forces"
    assert main(["central", "X^2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "witness" and doc["ring"]["family"] == "TruncFree"


def test_cli_power_and_freshman(capsys):
    assert main(["power", "--set", "2", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "forces"
    assert main(["freshman", "--set", "4,8", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "witness" and doc["prime"] == 2


def test_cli_check_and_certify(tmp_path, capsys):
    f = write(tmp_path, "c.ids", "vars X Y\nid [X,Y]*[X,Y]\nid [X,Y]\n")
    ring = json.dumps({"family": "MinRing", "p": 2})
    assert main(["check", "--ring", ring, f, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [r["holds"] for r in doc["results"]] == [True, False]
    assert main(["certify", "--p", "2", f, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [r["certified"] for r in doc["results"]] == [True, False]
    assert doc["results"][1]["stage"] == "commutator"


def test_cli_check_counterexample_pinned(tmp_path, capsys):
    # the first failure is tuple 177390 in scan order, past several
    # batch boundaries and past the first 65536 tuples
    f = write(tmp_path, "xy.ids", "vars X Y\nid [X,Y]\n")
    ring = '{"family":"TruncFree","p":3,"k":3,"relations":[]}'
    assert main(["check", "--ring", ring, f]) == 0
    assert capsys.readouterr().out == (
        "X1*X2 - X2*X1: fails at "
        "[[0, 0, 1, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0]]\n")
    assert main(["check", "--ring", ring, f, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_hold"] is False
    assert doc["results"] == [{
        "identity": "X1*X2 - X2*X1", "holds": False,
        "counterexample": [[0, 0, 1, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0]]}]


def test_cli_verify_round_trip(tmp_path, capsys):
    f = write(tmp_path, "a.ids", SEXTIC_FILE)
    main(["decide", f, "--json"])
    wdoc = capsys.readouterr().out
    w = write(tmp_path, "w.json", wdoc)
    assert main(["verify", w, f]) == 0
    assert "confirmed" in capsys.readouterr().out
    # the same witness does not validate the plain commutator identity
    g = write(tmp_path, "comm.ids", "vars X Y\nid [X,Y]\n")
    assert main(["verify", w, g]) == 1
    assert "REJECTED" in capsys.readouterr().out


def test_cli_verify_presented_witness(tmp_path, capsys):
    # build a presentation-only witness directly, then re-verify it
    from commforce.cli import verdict_doc
    from commforce.decide import IdentitySet, decide_Ap, _witness_verdict
    ids = IdentitySet(1, (X ** 4 + (X ** 3).scale(2) + X ** 2,))
    p, witness = decide_Ap(ids)
    doc = verdict_doc("decide", _witness_verdict(p, witness))
    assert doc["ring"]["family"] == "Presented"
    assert doc["scan_length"] == 4
    f = write(tmp_path, "sq.ids", "vars X\nid X^4 + 2*X^3 + X^2\n")
    w = write(tmp_path, "w.json", json.dumps(doc))
    assert main(["verify", w, f]) == 0
    assert "confirmed" in capsys.readouterr().out


@pytest.mark.parametrize("scan_length,identities", [
    (0, "id 2*X^2 - 2*X\n"), (1, "id 2*X^2 - 2*X\n"), (3, "")])
def test_cli_verify_derives_the_presented_scan_length(tmp_path, capsys,
                                                      scan_length,
                                                      identities):
    # 2X^2 - 2X gives the presentation at p^a = 4 scan length 2; a
    # shorter recorded scan must not confirm a ring where x = X maps to
    # -2X, which lies outside the ideal.  No identity derives no
    # presentation, so nothing confirms a presented witness for it.
    ring = {"family": "Presented", "p": 2, "a": 2,
            "generators": ["X^2", "X*Y + Y*X", "Y^2"]}
    w = write(tmp_path, "w.json",
              json.dumps({"ring": ring, "scan_length": scan_length}))
    f = write(tmp_path, "d.ids", "vars X\n" + identities)
    assert main(["verify", w, f]) == 1
    assert "REJECTED" in capsys.readouterr().out


def test_central_quintic_witness_checks_agree(tmp_path, capsys,
                                              run_stages):
    # [X^5,Y]: the closed form, decide_all and the three stages give the
    # same TruncFree(5,3) witness, and the re-checks accept it with Y
    # over the basis only
    ids = IdentitySet(2, (commutator(X ** 5, Y),))
    _, ring = central_decide(X ** 5)
    staged = run_stages(ids)
    assert ring.family == decide_all(ids).family == staged.family == \
        TruncFree(5, 3)
    assert verify(ring, ids) and verify(staged.witness, ids)
    assert cross_validate(ids, staged).agree
    f = write(tmp_path, "q.ids", "vars X Y\nid [X^5,Y]\n")
    assert main(["decide", f, "--json"]) == 0
    w = write(tmp_path, "w.json", capsys.readouterr().out)
    assert main(["verify", w, f]) == 0


@pytest.mark.parametrize("Q,text,staged,closed", [
    ((X ** 3).scale(3), "3*X^3", Up(3), TruncFree(3, 3)),
    (X ** 6, "X^6", B(2, 2, 1), TruncFree(2, 3)),
], ids=["3X^3", "X^6"])
def test_central_identity_decides_by_decide_ap(tmp_path, capsys, run_stages,
                                               Q, text, staged, closed):
    # decide_Ap alone decides [Q(X),Y], so decide answers as the central
    # command does; the three stages find a smaller ring first, and every
    # witness passes verify and the cross-check
    ids = IdentitySet(2, (commutator(Q, Y),))
    for v, fam in ((decide_all(ids), closed), (run_stages(ids), staged)):
        assert v.family == fam
        assert verify(v.witness, ids) and cross_validate(ids, v).agree
    f = write(tmp_path, "c.ids", "vars X Y\nid [%s,Y]\n" % text)
    for argv in (["decide", f], ["central", text]):
        assert main(argv + ["--json"]) == 0
        assert json.loads(capsys.readouterr().out)["ring"] == \
            family_json(closed)


def test_cli_oracle(tmp_path, capsys):
    f = write(tmp_path, "q.ids", QUARTIC_FILE)
    assert main(["oracle", f, "--max-p", "3", "--max-n", "2",
                 "--max-trunc-k", "3", "--max-eval", "1000000",
                 "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["witness"] is None
    assert doc["skipped"]


def test_cli_resource_limit_exit_3(tmp_path, capsys):
    f = write(tmp_path, "a.ids", SEXTIC_FILE)
    code = main(["decide", f, "--max-eval", "4", "--json"])
    capsys.readouterr()
    assert code == 3


BIG = "2305843009213693951"   # 2^61 - 1, prime, beyond trial division


HUGE = [
    (["decide", "%(big)s"], "characteristic-factoring"),
    (["univariate", BIG + "*X"], "candidate-primes"),
    (["central", BIG + "*X^2"], "characteristic-factoring"),
    (["power", "--set", "4611686014132420609"], "characteristic-factoring"),
    (["central", "X^11"], "exhaustive-eval"),
    (["freshman", "--set", "25"], "expansion"),
    (["freshman", "--set", "4611686014132420609"], "characteristic-factoring"),
    (["freshman", "--set", "1000000007"], "expansion"),
    (["univariate", "X^99999999"], "expansion"),
]


# argv1 was "decide --no-fast-path", the same command as argv0 once
# decide took one route; the other ids keep their numbers
@pytest.mark.parametrize("argv,stage", HUGE,
                         ids=["argv0"] + ["argv%d" % i
                                          for i in range(2, len(HUGE) + 1)])
def test_cli_huge_numbers_exit_3(tmp_path, capsys, argv, stage):
    big = write(tmp_path, "big.ids", "vars X Y\nid %s*[X,Y]\n" % BIG)
    assert main([a % {"big": big} for a in argv] + ["--json"]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert (doc["verdict"], doc["stage"]) == ("limit", stage)


def test_cli_univariate_limit_stage_matches_stages(tmp_path, capsys):
    # the univariate closed form is the decide_Up stage, so it stops
    # where decide's stages do: factoring the value gcd 2^61 - 1.  (c*X
    # is also multilinear and goes to the multilinear criterion, hence
    # X^2.)
    f = write(tmp_path, "u.ids", "vars X\nid %s*X^2\n" % BIG)
    stages = []
    for argv in (["decide", f], ["univariate", BIG + "*X^2"]):
        assert main(argv + ["--json"]) == 3
        stages.append(json.loads(capsys.readouterr().out)["stage"])
    assert stages == ["candidate-primes", "candidate-primes"]


def _capped_run(argv, capsys):
    """(exit code, limit stage, seconds) of one capped command."""
    start = time.perf_counter()
    code = main(argv + ["--json"])
    took = time.perf_counter() - start
    return code, json.loads(capsys.readouterr().out).get("stage"), took


@pytest.mark.parametrize("body,closed,cap,stage", [
    ("vars X\nid X^4 - X^2\n", ["univariate", "X^4-X^2"], "1",
     "upper-matrix-scan"),
    ("vars X Y\nid X^7*Y - Y*X^7\n", ["central", "X^7"], "1000",
     "exhaustive-eval"),
], ids=["univariate", "central"])
def test_fast_and_slow_paths_stop_at_the_same_stage(tmp_path, capsys, body,
                                                     closed, cap, stage):
    # the univariate and central closed forms are stages run under the
    # same options, so one cap ends them and decide at the same place
    f = write(tmp_path, "f.ids", body)
    for argv in (["decide", f], closed):
        code, got, took = _capped_run(argv + ["--max-eval", cap], capsys)
        assert (code, got) == (3, stage), argv
        assert took < 2.0, argv


@pytest.mark.parametrize("body,cap", [
    ("vars X\nid X^17 - X\n", "64"),
    ("vars X Y\nid X^2 - X\n", "10"),
], ids=["X^17-X", "unused-Y"])
def test_cli_univariate_forces_under_a_small_eval_cap(tmp_path, capsys, body,
                                                      cap):
    # decide runs decide_Up alone on one identity in one variable, and
    # over that variable only: no B(2,m,l) past the cap is built, and an
    # unused declared variable does not raise the 8^s matrix scan
    f = write(tmp_path, "u.ids", body)
    assert main(["decide", f, "--max-eval", cap, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "forces"


@pytest.mark.parametrize("argv,stage", [
    (["central", "X^7", "--max-eval", "1000"], "exhaustive-eval"),
    (["power", "--set", "3", "--max-eval", "1000"], "exhaustive-eval"),
    (["freshman", "--set", "3", "--max-eval", "1000"], "exhaustive-eval"),
    (["univariate", "X^4-X^2", "--max-eval", "1"], "upper-matrix-scan"),
    (["multilinear", "%(ml)s", "--max-eval", "1"], "exhaustive-eval"),
], ids=lambda v: v[0] if isinstance(v, list) else None)
def test_closed_form_commands_honour_max_eval(tmp_path, capsys, argv, stage):
    paths = {"ml": write(tmp_path, "m.ids", "vars X Y\nid 2*X*Y - 2*Y*X\n")}
    code, got, took = _capped_run([a % paths for a in argv], capsys)
    assert (code, got) == (3, stage)
    assert took < 2.0


@pytest.mark.parametrize("argv", [
    ["certify", "--p", "2", "%(ids)s", "--max-eval", "5"],
    ["check", "--ring", '{"family":"U","p":2}', "%(ids)s",
     "--max-gsb-steps", "5"],
    ["oracle", "%(ids)s", "--max-gsb-steps", "5"],
    ["decide", "%(ids)s", "--no-fast-path"],
], ids=["certify", "check", "oracle", "decide"])
def test_unread_cap_flags_are_usage_errors(tmp_path, capsys, argv):
    paths = {"ids": write(tmp_path, "c.ids", "vars X Y\nid [X,Y]\n")}
    with pytest.raises(SystemExit) as e:
        main([a % paths for a in argv])
    assert e.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


CAP_FLAGS = {
    "decide": {"--max-eval", "--max-gsb-steps"},
    "central": {"--max-eval", "--max-gsb-steps"},
    "verify": {"--max-eval", "--max-gsb-steps"},
    "univariate": {"--max-eval"},
    "multilinear": {"--max-eval"},
    "power": {"--max-eval"},
    "freshman": {"--max-eval"},
    "check": {"--max-eval"},
    "oracle": {"--max-eval"},
    "certify": set(),
}


def test_each_command_registers_the_cap_flags_it_reads():
    # a command may accept only the caps its code hands on
    sub, = [a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)]
    flags = {name: {opt for a in parser._actions for opt in a.option_strings
                    if opt in ("--max-eval", "--max-gsb-steps")}
             for name, parser in sub.choices.items()}
    assert flags == CAP_FLAGS


@pytest.mark.parametrize("argv", [
    ["check", "--ring", '{"family":"B","p":2,"n":1,"l":1}', "%(ids)s"],
    ["check", "--ring", "[1]", "%(ids)s"],
    ["power", "--set", "1"],
    ["freshman", "--set", "1"],
    ["verify", "%(notjson)s", "%(ids)s"],
    ["verify", "%(noring)s", "%(ids)s"],
    ["univariate", "X^\u00b2"],
    ["decide", "%(superscript)s"],
])
def test_cli_malformed_input_exit_2(tmp_path, capsys, argv):
    paths = {"ids": write(tmp_path, "c.ids", "vars X Y\nid [X,Y]\n"),
             "notjson": write(tmp_path, "w.json", "not json\n"),
             "noring": write(tmp_path, "r.json", '{"schema": 1}\n'),
             "superscript": write(tmp_path, "s.ids", "vars X\nid X^\u00b2\n")}
    assert main([a % paths for a in argv]) == 2
    assert capsys.readouterr().err.startswith("error:")


OUTSIDE_INPUTS = {
    "float-p": ["check", "--ring", '{"family":"U","p":2.5}', "%(comm)s"],
    "mat-n0": ["check", "--ring", '{"family":"Mat","k":2,"p":2,"n":0}',
               "%(comm)s"],
    "truncfree-k26": ["check", "--ring",
                      '{"family":"TruncFree","p":2,"k":26,"relations":[]}',
                      "%(comm)s"],
    "b-n40": ["check", "--ring", '{"family":"B","p":2,"n":40,"l":1}',
              "%(comm)s"],
    "presented-a1e9": ["verify", "%(huge_a)s", "%(comm)s"],
    "max-eval-0": ["decide", "%(sextic)s", "--max-eval", "0"],
    "max-eval-neg": ["decide", "%(sextic)s", "--max-eval", "-5"],
    "max-gsb-steps-0": ["decide", "%(sextic)s", "--max-gsb-steps", "0"],
    "oracle-n40": ["oracle", "%(comm)s", "--max-n", "40"],
    "oracle-k30": ["oracle", "%(comm)s", "--max-trunc-k", "30"],
    "long-literal-file": ["decide", "%(long)s"],
    "long-literal-arg": ["univariate", "3" * 5000 + "*X"],
}


def _limit_memory():
    # the address-space limit of ``ulimit -v 2000000``
    resource.setrlimit(resource.RLIMIT_AS, (2000000 * 1024,) * 2)


@pytest.mark.parametrize("argv", OUTSIDE_INPUTS.values(),
                         ids=OUTSIDE_INPUTS.keys())
def test_cli_outside_input_exit_2_quickly(tmp_path, argv):
    # documents, flags and literals from outside are checked before any
    # ring, search or number is built from them
    paths = {"comm": write(tmp_path, "c.ids", "vars X Y\nid X*Y - Y*X\n"),
             "sextic": write(tmp_path, "s.ids", SEXTIC_FILE),
             "long": write(tmp_path, "l.ids",
                           "vars X Y\nid %s*X*Y\n" % ("7" * 5000)),
             "huge_a": write(tmp_path, "w.json", json.dumps(
                 {"ring": {"family": "Presented", "p": 2, "a": 10 ** 9,
                           "generators": ["X^2"]}, "scan_length": 1}))}
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "commforce.cli"] + [a % paths for a in argv],
        env=env, capture_output=True, text=True, timeout=20,
        preexec_fn=_limit_memory)
    assert time.perf_counter() - start < 5.0
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    assert any(line.startswith("error:") or ": error: " in line
               for line in done.stderr.splitlines())


@pytest.mark.parametrize("ring,extra", [
    ({"family": "Presented", "p": 2, "a": 1, "generators": [1]}, {}),
    ({"family": "Presented", "p": 2, "a": 1, "generators": ["Y*X"]},
     {"scan_length": "3"}),
    ({"family": "Presented", "p": 2, "a": 1, "generators": "Y*X"}, {}),
    ({"family": "Presented", "p": 4, "a": 1, "generators": ["Y*X"]}, {}),
    ({"family": "Presented", "p": 2, "a": 0, "generators": ["Y*X"]}, {}),
    ({"family": "Presented", "p": 2, "a": 1, "generators": ["Y*X"]},
     {"scan_length": -1}),
    ({"family": "Presented", "p": 2, "a": 1, "generators": ["Y*X"]}, {}),
])
def test_cli_verify_rejects_malformed_presented_witness(tmp_path, capsys,
                                                        ring, extra):
    ids = write(tmp_path, "c.ids", "vars X\nid X^2\n")
    wit = write(tmp_path, "w.json", json.dumps(dict(ring=ring, **extra)))
    assert main(["verify", wit, ids]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_cli_certify_huge_p_exit_2(tmp_path, capsys):
    # 2^61 - 1 is prime but beyond the trial-division budget
    f = write(tmp_path, "d.ids", "vars X Y\nid 4*X*Y\n")
    with pytest.raises(SystemExit) as e:
        main(["certify", "--p", "2305843009213693951", f])
    assert e.value.code == 2
    assert "too large to test for primality" in capsys.readouterr().err


@pytest.mark.parametrize("p", ["1", "4"])
def test_cli_certify_rejects_non_prime(tmp_path, capsys, p):
    f = write(tmp_path, "d.ids", "vars X Y\nid 4*X*Y\n")
    with pytest.raises(SystemExit) as e:
        main(["certify", "--p", p, f])
    assert e.value.code == 2
    assert "error: argument --p: %s is not a prime" % p in \
        capsys.readouterr().err
