"""Certificate round trips and tamper resistance of the searchless verifier.

Each YES verdict serializes to a line-oriented text certificate that replays
without any search.  The tests here cover the happy path for all criteria and
then corrupt certificates line by line; every corruption must come back as a
clean (False, problems) rejection, never an exception.
"""
import hashlib
import json
import re
from types import SimpleNamespace

import pytest

from confl.certificate import (
    CertificateError,
    certificate_text,
    parse_certificate,
    verify_certificate,
)
from confl.completion import (
    SearchState,
    _replacement_candidates,
    _rule_names,
    check_confluence,
    decompose,
)
from confl.criteria import Partition, check_criterion
from confl.rewriting import Rule, Trs
from confl.run import Run
from confl.terms import App
from confl.trs_format import parse_trs

from systems import CHAIN3, R2, R3, R5, R6, R8, decided

# the non-confluent fork, and the confluent system with g(x) -> h(x) added
FORK = parse_trs("(VAR x)\n(RULES\n  f(x) -> g(x)\n  f(x) -> h(x)\n)\n")
FORK_CLOSED = parse_trs(
    "(VAR x)\n(RULES\n  f(x) -> g(x)\n  f(x) -> h(x)\n  g(x) -> h(x)\n)\n")


@pytest.fixture(scope="module")
def cert_r3():
    result = decided(R3)
    assert result.verdict == "YES"
    return certificate_text(R3, result)


@pytest.fixture(scope="module")
def cert_r2():
    result = decided(R2)
    assert result.verdict == "YES"
    return certificate_text(R2, result)


@pytest.fixture(scope="module")
def cert_r6():
    result = decided(R6)
    assert result.verdict == "YES"
    return certificate_text(R6, result)


@pytest.fixture(scope="module")
def cert_chain3():
    result = decided(CHAIN3)
    assert result.verdict == "YES"
    return certificate_text(CHAIN3, result)


@pytest.fixture(scope="module")
def cert_r5():
    result = decided(R5)
    assert result.verdict == "YES"
    return certificate_text(R5, result)


@pytest.fixture(scope="module")
def cert_r8():
    result = decided(R8)
    assert result.verdict == "YES"
    return certificate_text(R8, result)


@pytest.fixture(scope="module")
def cert_r3_huet():
    result = check_confluence(R3, criteria=("huet",))
    assert result.verdict == "YES"
    return certificate_text(R3, result)


@pytest.fixture(scope="module")
def cert_fork_closed():
    result = check_confluence(FORK_CLOSED)
    assert result.verdict == "YES"
    return certificate_text(FORK_CLOSED, result)


def mutate(text, prefix, change=None, which=0):
    """Rewrite (or drop, when change is None) the which-th line with prefix."""
    lines = text.splitlines()
    hits = [i for i, ln in enumerate(lines) if ln.startswith(prefix)]
    assert hits, f"no line starts with {prefix!r}"
    if change is None:
        del lines[hits[which]]
    else:
        lines[hits[which]] = change(lines[hits[which]])
    return "\n".join(lines) + "\n"


def rejected(text, problem=None):
    ok, problems = verify_certificate(text, problem)
    assert not ok
    assert problems
    return problems


def with_history(text, block, drop_input=()):
    """The certificate with a history section of the given lines placed
    before its partition, and the named input rules left out."""
    lines = [ln for ln in text.splitlines()
             if not any(ln.startswith(f"rule {n}:") for n in drop_input)]
    at = lines.index("section partition")
    return "\n".join(lines[:at] + ["section history", *block] + lines[at:]) + "\n"


def history_problems(problems, name):
    return [p for p in problems if p.startswith(f"history step {name}")]


def test_yes_certificates_verify(cert_r3, cert_r2, cert_r5, cert_r8, cert_r3_huet):
    for trs, text in ((R3, cert_r3), (R2, cert_r2), (R5, cert_r5),
                      (R8, cert_r8), (R3, cert_r3_huet)):
        ok, problems = verify_certificate(text, trs)
        assert ok, problems
        # also standalone, without the cross-check against the problem
        ok, problems = verify_certificate(text)
        assert ok, problems


# sha256 of each certificate above: a change that should leave the prover's
# output alone (a speed-up, a refactor) must leave these bytes alone too
GOLDEN_DIGESTS = {
    "cert_r2": "4e57e6f6ea348e44b4e9f8a3c621cf2f3c8ef009f3eb0c7670993ebf2bbc81a1",
    "cert_r3": "f810f499853776614fa32d980e771f81fc7f9d4507cbc5bb6061ac9b6756cd4b",
    "cert_r5": "dd1d1c8632c79e87099aa2453de32c59205a314c0e739c4521efb14fc658bb7f",
    "cert_r8": "587512951132abe752e776c6a7e449474413cfa1c476d169a51c83eb83225072",
    "cert_r3_huet": "cc837f44c93621e10d409b132d6cbda42cc564af11d345d409e68871ff139d1d",
    "cert_fork_closed": "ff1274b0aae3cdb7179b35e301e0823a25c724e9f1c102cc43d1f86c36a68db0",
    # R6 and chain3 need completion: 4 and 11 additions
    "cert_r6": "857aaffd81425ac5279b22b58f5ca048035414a8d6da6a6bc777daefe1b38d72",
    "cert_chain3": "5577e24a5555d1526b5579dfba3f5e20089836bcef688e7105e44d9ce43db91f",
}


def test_certificate_bytes_are_pinned(cert_r2, cert_r3, cert_r5, cert_r8, cert_r3_huet,
                                      cert_fork_closed, cert_r6, cert_chain3):
    texts = dict(cert_r2=cert_r2, cert_r3=cert_r3, cert_r5=cert_r5, cert_r8=cert_r8,
                 cert_r3_huet=cert_r3_huet, cert_fork_closed=cert_fork_closed,
                 cert_r6=cert_r6, cert_chain3=cert_chain3)
    got = {name: hashlib.sha256(text.encode()).hexdigest() for name, text in texts.items()}
    assert got == GOLDEN_DIGESTS


def test_round_trip_structure(cert_r3):
    cert = parse_certificate(cert_r3)
    assert cert.verdict == "YES"
    assert cert.criterion in ("linear", "parallel", "pcp", "huet")
    assert len(cert.input_rules) == len(R3)
    assert Trs(cert.input_rules).key() == R3.key()
    names = set(cert.s_names) | set(cert.p_names)
    assert names == {r.name for r in R3}
    assert not set(cert.s_names) & set(cert.p_names)
    # the commutativity rule can never live on the terminating side
    assert "C" in cert.p_names
    assert cert.has_partition and cert.has_reversibility
    assert cert.joins and all(j.segments for j in cert.joins)


def test_certificate_text_is_deterministic(cert_r3):
    assert cert_r3 == certificate_text(R3, check_confluence(R3))


def test_maybe_certificate_round_trip():
    bad = Trs([Rule(App("f", ()), App("a", ()), "fa"),
               Rule(App("f", ()), App("b", ()), "fb")])
    result = check_confluence(bad, max_steps=2, timeout=10.0)
    assert result.verdict == "MAYBE"
    text = certificate_text(bad, result)
    cert = parse_certificate(text)
    assert cert.verdict == "MAYBE"
    assert cert.reason
    ok, problems = verify_certificate(text, bad)
    assert ok and problems == []


def test_malformed_text_is_rejected_not_raised():
    for junk in ("", "hello world", "BEGIN CERTIFICATE\nformat 1"):
        ok, problems = verify_certificate(junk)
        assert not ok
        assert "unparsable" in problems[0]
    with pytest.raises(CertificateError):
        parse_certificate("no markers here at all")


def test_unknown_format_or_verdict_rejected(cert_r3):
    rejected(mutate(cert_r3, "format ", lambda ln: "format 99"), R3)
    rejected(mutate(cert_r3, "verdict ", lambda ln: "verdict PROBABLY"), R3)


def test_problem_mismatch_detected(cert_r3):
    problems = rejected(cert_r3, R5)
    assert any("differs" in p for p in problems)


def test_tampered_input_rule_rejected(cert_r3):
    bad = mutate(cert_r3, "rule add1:", lambda ln: ln.split("->")[0] + "-> +(0,0)")
    rejected(bad, R3)


def test_renamed_rule_breaks_the_partition(cert_r3):
    bad = mutate(cert_r3, "rule add1:",
                 lambda ln: ln.replace("rule add1:", "rule addX:"))
    problems = rejected(bad, R3)
    assert any("partition" in p for p in problems)


@pytest.mark.parametrize("prefix, repeated", [("final-s ", "add2"), ("final-p ", "C")],
                         ids=["final-s", "final-p"])
def test_repeated_partition_name_rejected_not_raised(cert_r3, prefix, repeated):
    bad = mutate(cert_r3, prefix, lambda ln: ln + "," + repeated)
    assert "final S/P is not a partition of the final system" in rejected(bad, R3)


def test_nonreversible_rule_in_p_rejected(cert_r3):
    def strip_add1(ln):
        names = [n for n in ln.split(" ", 1)[1].split(",") if n != "add1"]
        return "final-s " + ",".join(names)

    bad = mutate(cert_r3, "final-s ", strip_add1)
    bad = mutate(bad, "final-p ", lambda ln: ln + ",add1")
    problems = rejected(bad, R3)
    assert any("bidirectional" in p for p in problems)


def test_missing_join_rejected(cert_r3):
    lines = cert_r3.splitlines()
    start = max(i for i, ln in enumerate(lines) if ln.startswith("join "))
    end = next(i for i in range(start, len(lines)) if lines[i] == "endjoin")
    bad = "\n".join(lines[:start] + lines[end + 1:]) + "\n"
    problems = rejected(bad, R3)
    assert any("no valid join" in p for p in problems)


def test_duplicated_join_rejected(cert_r3):
    lines = cert_r3.splitlines()
    start = next(i for i, ln in enumerate(lines) if ln.startswith("join "))
    end = next(i for i in range(start, len(lines)) if lines[i] == "endjoin")
    block = lines[start:end + 1]
    bad = "\n".join(lines[:start] + block + block + lines[end + 1:]) + "\n"
    problems = rejected(bad, R3)
    assert any("matches no recomputed pair" in p for p in problems)


def test_tampered_join_step_rule_rejected(cert_r3):
    bad = mutate(cert_r3, "step ", lambda ln: ln.rsplit(" ", 1)[0] + " nosuchrule")
    rejected(bad, R3)


def test_wild_position_rejected_not_crash(cert_r3):
    bad = mutate(cert_r3, "step ",
                 lambda ln: "step 9.9.9 " + ln.rsplit(" ", 1)[1])
    rejected(bad, R3)


def test_tampered_termination_payload_rejected(cert_r3):
    def corrupt(fields):
        def change(ln):
            head, _, payload = ln.partition(" ")
            d = json.loads(payload)
            d.update(fields)
            return head + " " + json.dumps(d, sort_keys=True)
        return change

    # an unknown method, then payloads of the wrong type or shape
    edits = ({"method": "mystery"}, {"precedence": 5}, {"s_names": 3},
             {"method": "poly", "rounds": [[1, 2, 3]]})
    for prefix, label in (("termcert ", "plain termination"),
                          ("relterm ", "relative termination")):
        for fields in edits:
            problems = rejected(mutate(cert_r3, prefix, corrupt(fields)), R3)
            assert any(label in p for p in problems), (fields, problems)
        problems = rejected(mutate(cert_r3, prefix, None), R3)
        assert any(label in p for p in problems)


def test_tampered_reversibility_rejected(cert_r3):
    problems = rejected(mutate(cert_r3, "revseq ", None), R3)
    assert any("reversibility" in p for p in problems)
    bad = mutate(cert_r3, "revseq ", lambda ln: ln.partition(":")[0] + ": -")
    problems = rejected(bad, R3)
    assert any("reversibility" in p for p in problems)


def test_history_replays_and_rejects_tampering(cert_r2):
    cert = parse_certificate(cert_r2)
    assert cert.history  # this system genuinely needs transformations
    assert {h.kind for h in cert.history} <= {"addition", "replacement"}
    # the first "step " line is a history step: history precedes the joins
    bad = mutate(cert_r2, "step ", lambda ln: ln.rsplit(" ", 1)[0] + " nosuchrule")
    problems = rejected(bad, R2)
    assert any("history" in p for p in problems)


def test_p_prime_rules_checked_against_p(cert_r5):
    cert = parse_certificate(cert_r5)
    assert cert.criterion == "pcp"
    names = {r.name for r in cert.pp_rules}
    assert "ss2" in names and "ss1" not in names
    # a rule outside P and its inverses cannot be smuggled into P'
    bad = mutate(cert_r5, "final-p ",
                 lambda ln: ln + "\npprule zz: s(?w1) -> ?w1")
    problems = rejected(bad, R5)
    assert any("P'" in p for p in problems)
    # dropping P' breaks either the joins or the relative termination replay
    bad = cert_r5
    while any(ln.startswith("pprule") for ln in bad.splitlines()):
        bad = mutate(bad, "pprule")
    rejected(bad, R5)


def test_variable_condition_is_part_of_the_join_identity(cert_r5):
    lines = cert_r5.splitlines()
    idx = [i for i, ln in enumerate(lines) if ln.startswith("jx ") and ln != "jx -"]
    assert idx  # at least one inner pair carries a real variable constraint
    lines[idx[0]] = "jx -"
    rejected("\n".join(lines) + "\n", R5)


def test_constrained_variables_are_part_of_the_pair_key(cert_r5):
    # a jx line widened to more variables of its own pair and peak still
    # meets the variable condition, so the join checks; but the recomputed
    # pair constrains fewer variables, so the join matches no pair
    lines = cert_r5.splitlines()
    for i, ln in enumerate(lines):
        if not ln.startswith("jx ") or ln == "jx -":
            continue
        assert lines[i - 2].startswith("jpair ") and lines[i - 1].startswith("jpeak ")
        xs = set(ln[3:].split(","))
        wider = set(re.findall(r"\?\w+", lines[i - 2] + lines[i - 1])) | xs
        if wider > xs:
            lines[i] = "jx " + ",".join(sorted(wider))
            break
    else:
        pytest.fail("no jx line can be widened")
    problems = rejected("\n".join(lines) + "\n", R5)
    assert not any("variable condition violated" in p for p in problems)
    assert any(p.endswith("matches no recomputed pair") for p in problems)


def test_parallel_requires_no_inner_pairs(cert_r3, cert_r5):
    # R5's ss1/ss2 overlap S from inside, so its pcp joins cannot pass as parallel
    problems = rejected(mutate(cert_r5, "criterion ", lambda ln: "criterion parallel"), R5)
    assert "inner critical pairs of P∪P⁻¹ into S must be empty" in problems
    # R3 has no inner pairs of C and A into S, so parallel genuinely holds
    relabelled = mutate(cert_r3, "criterion ", lambda ln: "criterion parallel")
    ok, problems = verify_certificate(relabelled, R3)
    assert ok, problems


def test_overlapping_parallel_positions_rejected(cert_r5):
    # parallel steps are plain records; the verifier checks their positions
    bad = mutate(cert_r5, "pstep C@1", lambda ln: "pstep C@1,C@1.1")
    problems = rejected(bad, R5)
    assert any("parallel step positions overlap" in p for p in problems)


@pytest.mark.parametrize("nesting", [700, 1200])
def test_deeply_nested_input_rule_rejected_not_raised(cert_r3, nesting):
    # 700 used to overflow the stack in Trs.key, 1200 already in the parser
    deep = "h(" + "s(" * nesting + "?v1" + ")" * nesting + ") -> h(?v1)"
    bad = mutate(cert_r3, "section input", lambda ln: f"{ln}\nrule deep: {deep}")
    for problem in (R3, None):
        ok, problems = verify_certificate(bad, problem)
        assert not ok and problems
    assert any("nested too deeply" in p for p in rejected(bad, R3))


def test_huet_certificate_shape(cert_r3_huet):
    cert = parse_certificate(cert_r3_huet)
    assert cert.criterion == "huet"
    assert cert.relterm_cert is not None
    assert not cert.pp_rules
    problems = rejected(mutate(cert_r3_huet, "relterm ", None), R3)
    assert any("relative termination" in p for p in problems)
    # swapping the criterion invalidates every join shape
    rejected(mutate(cert_r3_huet, "criterion ", lambda ln: "criterion linear"), R3)


@pytest.mark.parametrize("steps", [["step e r1~", "step e r2"], ["step e r2"], []],
                         ids=["inverse-then-r2", "r2-alone", "no-steps"])
def test_forged_history_cannot_make_a_fork_confluent(cert_fork_closed, steps):
    assert check_confluence(FORK).verdict == "MAYBE"
    ok, problems = verify_certificate(cert_fork_closed, FORK_CLOSED)
    assert ok, problems
    # g(x) -> h(x) is only convertible in the fork (g ← f → h), not derivable
    block = ["addition r3: g(?v1)", *steps, "yields h(?v1)", "endadd"]
    problems = rejected(with_history(cert_fork_closed, block, ["r3"]), FORK)
    assert history_problems(problems, "r3"), problems


def test_format_1_forgery_rejected(cert_fork_closed):
    # format 1 replayed this step as a conversion over a P it never checked
    # for reversibility, and accepted the certificate
    block = ["addition r3: g(?v1)", "with S=r2 P=r1", "cstep e r1~", "sstep e r2",
             "yields h(?v1)", "endadd"]
    forged = with_history(cert_fork_closed, block, ["r3"])
    rejected(forged.replace("format 2", "format 1"), FORK)
    rejected(forged, FORK)


def test_replacement_name_clash_rejected_not_raised(cert_r3):
    block = ["replace add2 with add1", "step 1 C", "back 1 C", "endreplace"]
    problems = rejected(with_history(cert_r3, block), R3)
    assert history_problems(problems, "add1"), problems


def test_replacement_needs_its_back_steps(cert_r3):
    honest = ["replace add2 with q1", "step 1 C", "back 1 C", "endreplace"]
    text = mutate(with_history(cert_r3, honest), "final-s ",
                  lambda ln: ln.replace("add2", "q1"))
    ok, problems = verify_certificate(text, R3)
    assert not history_problems(problems, "q1"), problems
    # without back steps nothing shows that the old rule stays derivable
    forged = ["replace add2 with q1", "step 1 C", "endreplace"]
    problems = rejected(with_history(cert_r3, forged), R3)
    assert history_problems(problems, "q1"), problems


def test_rendered_replacement_replays(cert_r3):
    # a replacement the prover offers on R2 (add2's right side one C-step
    # on), rendered as the history of R3, which has add2 too
    s2, p2 = decompose(R2)[0]
    report = check_criterion("pcp", Partition(s2, p2))
    old, new, just = _replacement_candidates(
        SearchState(s2, p2, "pcp"), report, Run(named=_rule_names(R2)))[0]
    assert old.name == "add2"
    result = decided(R3)
    text = certificate_text(R3, SimpleNamespace(
        verdict="YES", report=result.report, state=SimpleNamespace(history=(just,))))
    assert f"replace add2 with {new.name}" in text and "\nback " in text
    ok, problems = verify_certificate(text, R3)
    assert not history_problems(problems, new.name), problems


def _input_rules(*lines):
    text = "\n".join(["BEGIN CERTIFICATE", "format 2", "verdict YES", "section input",
                      *lines, "END CERTIFICATE"])
    return parse_certificate(text).input_rules


def test_parser_reads_a_deeply_nested_term():
    (rule,) = _input_rules("rule deep: h(" + "s(" * 5000 + "?v1" + ")" * 5000 + ") -> h(?v1)")
    t, depth = rule.lhs.args[0], 0
    while isinstance(t, App):
        assert t.fn == "s" and len(t.args) == 1
        t, depth = t.args[0], depth + 1
    assert depth == 5000 and t == rule.rhs.args[0]


def test_certificate_names_are_alphanumeric_or_marks():
    # dependency-pair marks and inverse names occur in certificates; so may
    # any str.isalnum character
    (rule,) = _input_rules("rule r: f#(g~(?x),é) -> é")
    assert (rule.lhs.fn, rule.lhs.args[0].fn, rule.lhs.args[1].fn) == ("f#", "g~", "é")
    assert rule.rhs == App("é")
    for bad in ("rule r: f(?x)(a) -> a", "rule r: ?x(a) -> a", "rule r: f(a,) -> a",
                "rule r: f(a -> a", "rule r: f$ -> a"):
        with pytest.raises(CertificateError):
            _input_rules(bad)
