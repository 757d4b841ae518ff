"""Certificate round trips and tamper resistance of the searchless verifier.

Each YES verdict serializes to a line-oriented text certificate that replays
without any search.  The tests here cover the happy path for all criteria and
then corrupt certificates line by line; every corruption must come back as a
clean (False, problems) rejection, never an exception.
"""
import json

import pytest

from confl.certificate import (
    CertificateError,
    certificate_text,
    parse_certificate,
    verify_certificate,
)
from confl.completion import check_confluence
from confl.rewriting import Rule, Trs
from confl.terms import App

from systems import R2, R3, R5, R8


@pytest.fixture(scope="module")
def cert_r3():
    result = check_confluence(R3)
    assert result.verdict == "YES"
    return certificate_text(R3, result)


@pytest.fixture(scope="module")
def cert_r2():
    result = check_confluence(R2)
    assert result.verdict == "YES"
    return certificate_text(R2, result)


@pytest.fixture(scope="module")
def cert_r5():
    result = check_confluence(R5)
    assert result.verdict == "YES"
    return certificate_text(R5, result)


@pytest.fixture(scope="module")
def cert_r8():
    result = check_confluence(R8)
    assert result.verdict == "YES"
    return certificate_text(R8, result)


@pytest.fixture(scope="module")
def cert_r3_huet():
    result = check_confluence(R3, criteria=("huet",))
    assert result.verdict == "YES"
    return certificate_text(R3, result)


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


def test_yes_certificates_verify(cert_r3, cert_r2, cert_r5, cert_r8, cert_r3_huet):
    for trs, text in ((R3, cert_r3), (R2, cert_r2), (R5, cert_r5),
                      (R8, cert_r8), (R3, cert_r3_huet)):
        ok, problems = verify_certificate(text, trs)
        assert ok, problems
        # also standalone, without the cross-check against the problem
        ok, problems = verify_certificate(text)
        assert ok, problems


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
    lines = cert_r2.splitlines()
    target = next(p for p in ("cstep ", "sstep ")
                  if any(ln.startswith(p) for ln in lines))
    bad = mutate(cert_r2, target, lambda ln: ln.rsplit(" ", 1)[0] + " nosuchrule")
    problems = rejected(bad, R2)
    assert any("history" in p for p in problems)
    # a name that is not part of the current system cannot enter the split
    bad = mutate(cert_r2, "with S=", lambda ln: ln + ",ghost")
    problems = rejected(bad, R2)
    assert any("not in the system" in p for p in problems)


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


def test_parallel_requires_no_inner_pairs(cert_r3, cert_r5):
    # R5's ss1/ss2 overlap S from inside, so its pcp joins cannot pass as parallel
    problems = rejected(mutate(cert_r5, "criterion ", lambda ln: "criterion parallel"), R5)
    assert "inner critical pairs of P∪P⁻¹ into S must be empty" in problems
    # R3 has no inner pairs of C and A into S, so parallel genuinely holds
    relabelled = mutate(cert_r3, "criterion ", lambda ln: "criterion parallel")
    ok, problems = verify_certificate(relabelled, R3)
    assert ok, problems


def test_huet_certificate_shape(cert_r3_huet):
    cert = parse_certificate(cert_r3_huet)
    assert cert.criterion == "huet"
    assert cert.relterm_cert is not None
    assert not cert.pp_rules
    problems = rejected(mutate(cert_r3_huet, "relterm ", None), R3)
    assert any("relative termination" in p for p in problems)
    # swapping the criterion invalidates every join shape
    rejected(mutate(cert_r3_huet, "criterion ", lambda ln: "criterion linear"), R3)
