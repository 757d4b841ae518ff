"""Certificate round trips and tamper resistance of the searchless verifier.

Each YES verdict serializes to a line-oriented text certificate that replays
without any search.  The tests here cover the happy path for all criteria and
then corrupt certificates line by line; every corruption must come back as a
clean (False, problems) rejection, never an exception.
"""
import dataclasses
import hashlib
import re
import sys
from collections import Counter
from types import SimpleNamespace

import pytest

from confl import certificate, critical_pairs, termination
from confl.certificate import (
    FORMAT,
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
from confl.critical_pairs import _dedup
from confl.rewriting import Rule, Trs
from confl.run import Run
from confl.terms import App, shape_key, unify_all, var_ids
from confl.trs_format import parse_trs

from systems import CHAIN3, DEEP16, R1, R2, R3, R4, R5, R6, R7, R8, WIDE4, decided

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
    # wide4 and deep16 of the parallel benchmark: hundreds of pcp (ii)
    # joins, and (iii) joins whose parallel steps apply P's rules
    parallel = [(trs, certificate_text(trs, decided(trs))) for trs in (WIDE4, DEEP16)]
    for trs, text in [(R3, cert_r3), (R2, cert_r2), (R5, cert_r5),
                      (R8, cert_r8), (R3, cert_r3_huet)] + parallel:
        ok, problems = verify_certificate(text, trs)
        assert ok, problems
        # also standalone, without the cross-check against the problem
        ok, problems = verify_certificate(text)
        assert ok, problems


# sha256 of each certificate above: a change that should leave the prover's
# output alone (a speed-up, a refactor) must leave these bytes alone too
GOLDEN_DIGESTS = {
    "cert_r2": "12854d5e216156092054098ec0c3eb81d195dfa6fa7f73d79df011c646e51b21",
    "cert_r3": "d99e41581f6dec68b56166c41bdce6b0007909196807c099afdeac0b32bd13cb",
    "cert_r5": "2d4ce99d2d849ae67984d21b02c704b9b452d9b048c4a987851b17d861beef81",
    "cert_r8": "09689043cb60bdfd2877fdef878a97122288cedfd4bec17d4f9b8c83608b4afb",
    "cert_r3_huet": "fcf575e153e7fa81fdb48b922c526ec268bd8bcf09f042d91b6bde880f8307e5",
    "cert_fork_closed": "6326ea6208b77632294b05c18c3fda9035ce82bf1baacec65c6acd52574689ee",
    # R6 and chain3 need completion: 4 and 11 additions
    "cert_r6": "67e3047e92e05cc33871b54b9d1190f013704b4768eb38c6ba165ec37e0baebe",
    "cert_chain3": "d511e7484c7254d62cf6c8da420a9b911d08cfa206b2bb575540f59d35593773",
}


@pytest.mark.parametrize("case, unifications, renamings",
                         [("chain3", 204, 84), ("R2", 78, 18)])
def test_the_verifier_generates_its_pairs_without_a_memo(case, unifications, renamings,
                                                         cert_chain3, cert_r2, monkeypatch):
    """The verifier recomputes the pairs without a run, so each call fills a
    fresh Run's pair memo and no block comes from a prover run: its
    unifications and renamings are those of generating every family afresh,
    each block once per call."""
    text, problem = {"chain3": (cert_chain3, CHAIN3), "R2": (cert_r2, R2)}[case]
    calls = {"unify_all": 0, "rename_apart": 0}

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    for module in (critical_pairs, termination):
        monkeypatch.setattr(module, "unify_all", counted("unify_all", unify_all))
    monkeypatch.setattr(Rule, "rename_apart", counted("rename_apart", Rule.rename_apart))
    assert verify_certificate(text, problem) == (True, [])
    assert calls == {"unify_all": unifications, "rename_apart": renamings}


def test_the_verifier_walks_each_pair_once(monkeypatch):
    """A recomputed pair's key walk also names its variables, so verifying
    wide4's certificate walks each pair's (left, right) with shape_key once,
    whichever confl module calls it."""
    text = certificate_text(WIDE4, decided(WIDE4))
    walked, pairs = [], []  # walked keeps each walked tuple, so no id is reused

    def counted(ts):
        walked.append(ts)
        return shape_key(ts)

    def recording(gen):
        def call(*args, **kwargs):
            pairs.extend(got := gen(*args, **kwargs))
            return got
        return call

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "confl" and hasattr(module, "shape_key"):
            monkeypatch.setattr(module, "shape_key", counted)
    for gen in ("cp", "cp_in", "pcp_in"):
        monkeypatch.setattr(certificate, gen, recording(getattr(certificate, gen)))
    assert verify_certificate(text, WIDE4) == (True, [])
    walks = Counter((id(ts[0]), id(ts[1])) for ts in walked if len(ts) == 2)
    assert len(pairs) >= 255
    assert [walks[id(pr.left), id(pr.right)] for pr in pairs] == [1] * len(pairs)


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
    assert {"section partition", "section reversibility"} <= set(cert_r3.splitlines())
    # a join writes only segments that do a step; a pair whose sides are
    # one term, as <0, 0> is, writes none
    assert any(j.segments for j in cert.joins)
    assert all(seg.ops for j in cert.joins for seg in j.segments)
    assert "pstep -" not in cert_r3.splitlines()


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


@pytest.mark.parametrize("after, block", [
    ("join ", ["step 1 add1"]),
    ("join ", ["pstep C@1"]),
    ("section joins", ["segment star SP fwd | 0"]),
    ("section partition", ["segment star SP fwd | 0"]),
    ("section partition", ["pstep C@1"]),
    (None, ["step 1 C"]),
    (None, ["back 1 C"]),
    (None, ["yields 0"]),
    (None, ["replace add2 with q1", "yields 0"]),
], ids=["join-step", "join-pstep", "segment-before-join", "segment-outside-joins",
        "pstep-outside-joins", "history-step", "history-back", "history-yields",
        "replacement-yields"])
def test_line_outside_its_block_rejected_not_raised(cert_r3, after, block):
    """A line that no header of its block precedes (a segment's, a join's,
    an addition's), or that stands outside its section, is a parse error."""
    if after is None:  # a history section of just these lines
        text = with_history(cert_r3, block)
    else:
        text = mutate(cert_r3, after, lambda ln: "\n".join([ln, *block]))
    with pytest.raises(CertificateError):
        parse_certificate(text)
    problems = rejected(text, R3)
    assert problems[0].startswith("unparsable certificate: "), problems
    assert not any("NoneType" in p for p in problems), problems


@pytest.mark.parametrize("case, line", [("R2", "back 9.9.9 nosuchrule"), ("chain3", "back 1 r3")],
                         ids=["R2", "chain3"])
def test_back_line_under_an_addition_rejected(cert_r2, cert_chain3, case, line):
    """Only a replacement has back steps, so a back line under an addition
    would never be replayed: it stands outside its block."""
    text, problem = {"R2": (cert_r2, R2), "chain3": (cert_chain3, CHAIN3)}[case]
    lines = text.splitlines()
    at = next(i for i, ln in enumerate(lines) if ln.startswith("addition ")) + 1
    while lines[at].startswith("step "):
        at += 1
    lines.insert(at, line)
    assert rejected("\n".join(lines) + "\n", problem) == [
        f"unparsable certificate: line {line!r}: line outside its block"]


@pytest.mark.parametrize("after, line", [
    ("section joins", "join i | 0"),
    ("section joins", "join i A s(0)"),
    ("join ", "segment star SP | 0"),
    ("join ", "segment star SP sideways | 0"),
    ("segment ", "step 1"),
    ("rule add1:", "rule add9 +(0,?v1) -> ?v1"),
    ("rule add1:", "rule add9: +(0,?v1)"),
    ("revseq ", "revseq A e C"),
    ("section partition", "section history\nreplace add2"),
    ("rule add1:", "rule : +(0,?v1) -> ?v1"),
    ("rule add1:", "rule add1,add2: +(0,?v1) -> ?v1"),
    ("section partition", "section history\naddition : +(0,0)"),
    ("section partition", "section history\nreplace add2 x with q1"),
    ("section partition", "section history\nreplace add2 with q@1"),
    ("rule add1:", "rule add9: +(0,?v1 -> ?v1"),
    ("rule add1:", "rule add9: +(0,?v1) -> ?v1)"),
    ("section partition", "section history\naddition q1: s(("),
], ids=["join-fields", "join-term", "segment-fields", "segment-direction", "step-fields",
        "rule-colon", "rule-arrow", "revseq-colon", "replace-with", "rule-empty-name",
        "rule-name-comma", "addition-empty-name", "replace-old-name-space",
        "replace-new-name-at", "rule-term-open", "rule-term-trailing", "addition-term"])
def test_malformed_line_rejected_by_its_text(cert_r3, after, line):
    """A line short of a field, or with a field no line takes, is an error
    that quotes the line."""
    problems = rejected(mutate(cert_r3, after, lambda ln: f"{ln}\n{line}"), R3)
    last = line.splitlines()[-1]
    assert len(problems) == 1, problems
    assert problems[0].startswith(f"unparsable certificate: line {last!r}: "), problems


@pytest.mark.parametrize("after, line, problem", [
    ("criterion ", "criterion huet", "repeats an earlier line"),
    ("relterm ", "relterm trivial", "repeats an earlier line"),
    ("final-s ", "final-s add1", "repeats an earlier line"),
    ("section joins", "section joins", "repeats an earlier line"),
    ("section joins", "section notes", "no such section"),
    ("relterm ", 'termcert lpo ["+","0","s"]', "unexpected in section 'termination'"),
], ids=["criterion", "relterm", "final-s", "section", "unknown-section", "termcert"])
def test_line_the_verifier_would_not_read_rejected(cert_r3, after, line, problem):
    # of two copies of a one-fact line only one would be read, and no line
    # would be read in a section the format does not have
    bad = mutate(cert_r3, after, lambda ln: f"{ln}\n{line}")
    assert rejected(bad, R3) == [f"unparsable certificate: line {line!r}: {problem}"]


@pytest.mark.parametrize("end, problem", [
    ("s((", "bad term syntax at offset 2 in 's((': expected an identifier, found '('"),
    ("s(?v1))", "trailing input after term: ')'"),
    ("?v1(0)", "bad term syntax at offset 0 in '?v1(0)': variable ?v1 used as a function symbol"),
    ("", "bad term syntax at offset 0 in '': expected an identifier, found 'end of input'"),
], ids=["open", "trailing", "variable-applied", "empty"])
def test_malformed_segment_end_is_one_problem_of_its_join(cert_r3, end, problem):
    """A segment's end is read when its join is checked, in its pair's
    variables: a malformed one is that join's one problem, naming the
    segment and quoting the end."""
    lines, blocks = join_blocks(cert_r3)
    start, stop = blocks[2]
    at = [k for k in range(start, stop) if lines[k].startswith("segment ")][-1]
    segment = sum(ln.startswith("segment ") for ln in lines[start:at + 1])
    lines[at] = lines[at].rpartition("| ")[0] + "| " + end
    _, cond, branch = lines[start].split()
    assert rejected("\n".join(lines) + "\n", R3) == [
        f"join <{cond},{branch}> segment {segment}: {problem}"]


def test_maybe_certificate_with_a_join_rejected():
    # a MAYBE has no pairs, so its join ends would never be read
    text = "\n".join(["BEGIN CERTIFICATE", f"format {FORMAT}", "verdict MAYBE", "reason none",
                      "section joins", "join i A", "segment star S fwd | s((", "step e r",
                      "END CERTIFICATE"]) + "\n"
    assert verify_certificate(text) == (False, ["a MAYBE certificate gives no joins"])


def test_maybe_certificate_with_the_lines_of_a_proof_rejected():
    # a MAYBE states its verdict and reason only: the verifier reads none of
    # a proof's lines under it, so each part it gives is an error
    text = "\n".join(["BEGIN CERTIFICATE", f"format {FORMAT}", "verdict MAYBE", "reason x",
                      "criterion pcp", "section input", "rule r: f(?v1) -> ?v1",
                      "section partition", "final-s nosuch", "final-p r",
                      "section termination", 'relterm lpo ["f"]', "END CERTIFICATE"]) + "\n"
    assert verify_certificate(text) == (False, [
        f"a MAYBE certificate gives no {part}"
        for part in ("criterion", "input", "partition", "termination")])


def test_reason_in_a_yes_certificate_rejected(cert_r3):
    bad = mutate(cert_r3, "verdict ", lambda ln: f"{ln}\nreason trust me")
    assert rejected(bad, R3) == ["a YES certificate gives no reason"]


@pytest.mark.parametrize("after, line, problem", [
    ("section termination", "termcert trivial",
     "unparsable certificate: line 'termcert trivial': unexpected in section 'termination'"),
    ("final-p ", "pprime C", "huet fixes P' = ∅ and reads no pprime line"),
], ids=["termcert", "pprime"])
def test_huet_reads_no_p_prime_and_no_plain_termination(cert_r3_huet, after, line, problem):
    # huet's obligation is S terminating relative to all of P, so P' = ∅;
    # no certificate has a plain termination line
    bad = mutate(cert_r3_huet, after, lambda ln: f"{ln}\n{line}")
    assert rejected(bad, R3) == [problem]


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


def join_blocks(text):
    """The lines of the certificate, and the [start, end) line span of each
    join block in order: a block runs to the next join or the end line."""
    lines = text.splitlines()
    starts = [i for i, ln in enumerate(lines) if ln.startswith("join ")]
    return lines, list(zip(starts, starts[1:] + [lines.index("END CERTIFICATE")]))


def segment_span(lines, header):
    """The [start, end) line span of the first segment written as header:
    the header and its step lines."""
    start = lines.index(header)
    end = start + 1
    while lines[end].startswith(("step ", "pstep ")):
        end += 1
    return start, end


def test_missing_join_rejected(cert_r3):
    lines, blocks = join_blocks(cert_r3)
    start, end = blocks[-1]
    bad = "\n".join(lines[:start] + lines[end:]) + "\n"
    n = len(blocks)
    assert rejected(bad, R3) == [f"{n - 1} join(s) for {n} recomputed pair(s)"]


def test_duplicated_join_rejected(cert_r3):
    lines, blocks = join_blocks(cert_r3)
    start, end = blocks[0]
    bad = "\n".join(lines[:end] + lines[start:]) + "\n"
    n = len(blocks)
    assert rejected(bad, R3) == [f"{n + 1} join(s) for {n} recomputed pair(s)"]


def test_join_in_another_conditions_slot_rejected(cert_r3):
    # swap the last condition (i) join with the first condition (iii) join:
    # each is a sound join, but of a pair the verifier expects elsewhere
    lines, blocks = join_blocks(cert_r3)
    k = next(k for k, (i, _) in enumerate(blocks) if lines[i].startswith("join iii "))
    assert lines[blocks[k - 1][0]].startswith("join i ")
    (a0, a1), (b0, b1) = blocks[k - 1], blocks[k]
    bad = "\n".join(lines[:a0] + lines[b0:b1] + lines[a0:a1] + lines[b1:]) + "\n"
    assert rejected(bad, R3) == ["join <iii,B>: stands where a condition i join is due",
                                 "join <i,A>: stands where a condition iii join is due"]


def test_join_that_ends_off_its_pair_rejected(cert_r3):
    # s(?v1) joins s(+(?v1,0)) by one add3 step backwards; one add1 step
    # backwards from s(+(0,?v1)) also reaches s(?v1), but that segment ends
    # off the pair's right term
    lines = cert_r3.splitlines()
    start, end = segment_span(lines, "segment star SP rev | s(+(?v1,0))")
    assert lines[start - 1] == "join i A" and lines[start + 1:end] == ["step 1 add3"]
    lines[start:end] = ["segment star SP rev | s(+(0,?v1))", "step 1 add1"]
    problems = rejected("\n".join(lines) + "\n", R3)
    assert len(problems) == 1
    assert problems[0].startswith("join <i,A>: does not connect its pair <s(")


def test_consistently_renamed_join_rejected(cert_r3):
    # a join's variables are its pair's: the first join whose segments name
    # ?v1 and ?v2, with the two swapped on every segment end, connects a
    # variant of its pair, but not the pair itself
    lines, blocks = join_blocks(cert_r3)
    start, end = next((i, j) for i, j in blocks
                      if all(v in "\n".join(lines[i:j]) for v in ("?v1", "?v2")))
    swap = {"?v1": "?v2", "?v2": "?v1"}
    for k in range(start, end):
        if lines[k].startswith("segment "):
            lines[k] = re.sub(r"\?v[12]\b", lambda m: swap[m.group()], lines[k])
    assert lines[start] == "join i A"
    problems = rejected("\n".join(lines) + "\n", R3)
    assert len(problems) == 1
    assert problems[0].startswith("join <i,A>: does not connect its pair <s("), problems


def test_join_line_writing_a_term_is_unparsable(cert_r3):
    # format 6 wrote each join's left term after a bar; format 7 reads none
    bad = mutate(cert_r3, "join i A", lambda ln: ln + " | s(?v1)", which=1)
    assert rejected(bad, R3) == [
        "unparsable certificate: line 'join i A | s(?v1)': "
        "too many values to unpack (expected 2)"]


def test_wide4_join_lines_write_no_term():
    # a join line is its condition and branch: none of wide4's 255 joins
    # writes a term of its pair
    lines = certificate_text(WIDE4, decided(WIDE4)).splitlines()
    joins = [ln.split() for ln in lines if ln.startswith("join ")]
    assert len(joins) == 255 and all(len(words) == 3 for words in joins), joins


def test_tampered_join_step_rule_rejected(cert_r3):
    bad = mutate(cert_r3, "step ", lambda ln: ln.rsplit(" ", 1)[0] + " nosuchrule")
    rejected(bad, R3)


def test_join_through_a_branch_its_condition_lacks_rejected(cert_r3):
    # pcp's condition (i) has branch A only
    assert parse_certificate(cert_r3).criterion == "pcp"
    bad = mutate(cert_r3, "join i A", lambda ln: ln.replace("join i A", "join i B"))
    assert rejected(bad, R3) == ["join <i,B>: no such condition/branch for pcp"]


@pytest.mark.parametrize("segment", ["plus SP fwd", "star S fwd", "step S rev", "star XX fwd"])
def test_join_segment_off_its_branch_rejected(cert_r3, segment):
    # the first written segment is star SP fwd in pcp's (i) branch A; its one
    # step, by the S rule add1, still replays as the other relation or class
    # would.  pcp has step S rev segments, in (iii)'s branch B, but (i) has
    # none, and no branch has a class XX, so no segment is replayed over it
    bad = mutate(cert_r3, "segment star SP fwd",
                 lambda ln: ln.replace("star SP fwd", segment))
    assert rejected(bad, R3) == ["join <i,A>: segment shape mismatch"]


@pytest.mark.parametrize("case, header, problem", [
    ("step", "segment step S rev | +(?v1,0)", "join <iii,B>: unwritten step segment"),
    ("plus", "segment plus S rev | +(?v1,0)", "join <iii,A>: unwritten plus segment"),
], ids=["step", "plus"])
def test_join_without_its_step_or_plus_segment_rejected(cert_r3, cert_r3_huet, case,
                                                        header, problem):
    # ?v1 joins +(?v1,0) only by an S step backwards: a step or plus entry
    # is not reflexive, so its segment must be written
    text = {"step": cert_r3, "plus": cert_r3_huet}[case]
    lines = text.splitlines()
    start, end = segment_span(lines, header)
    assert lines[start - 1].startswith("join ") and lines[end].startswith("join ")
    del lines[start:end]
    assert rejected("\n".join(lines) + "\n", R3) == [problem]


def test_written_segments_out_of_branch_order_rejected(cert_r3):
    # s(+(s(?v1),?v2)) joins its pair by star SP fwd, then star SP rev; each
    # segment is sound, but the written ones must keep the branch's order
    lines = cert_r3.splitlines()
    fwd = segment_span(lines, "segment star SP fwd | s(s(+(?v1,?v2)))")
    rev = segment_span(lines, "segment star SP rev | s(+(?v1,s(?v2)))")
    assert lines[fwd[0] - 1] == "join i A" and fwd[1] == rev[0]
    lines[fwd[0]:rev[1]] = lines[rev[0]:rev[1]] + lines[fwd[0]:fwd[1]]
    assert rejected("\n".join(lines) + "\n", R3) == ["join <i,A>: segment shape mismatch"]


def test_no_join_writes_a_term_twice():
    # a written segment does a step, so a join's segments' ends are distinct
    # terms, written once each
    for trs in (R1, R2, R3, R4, R5, R6, R7, R8, CHAIN3, WIDE4, DEEP16):
        lines, blocks = join_blocks(certificate_text(trs, decided(trs)))
        for start, end in blocks:
            terms = [ln.rpartition(" | ")[2] for ln in lines[start:end]
                     if ln.startswith("segment ")]
            assert len(set(terms)) == len(terms), lines[start:end]


def test_parallel_segment_of_a_single_step_rejected(cert_r3):
    # the same redex contracted by a step line instead of a pstep line
    # reaches the same end, but a parallel segment takes one pstep
    lines = cert_r3.splitlines()
    at = lines.index("pstep C@1")
    start = max(i for i in range(at) if lines[i].startswith("join "))
    join = lines[start]
    segment = sum(ln.startswith("segment ") for ln in lines[start:at])
    lines[at] = "step 1 C"
    label = f"join <{join.split()[1]},{join.split()[2]}>"
    assert rejected("\n".join(lines) + "\n", R3) == [
        f"{label} segment {segment}: step count violates relation 'parallel'"]


def test_wild_position_rejected_not_crash(cert_r3):
    bad = mutate(cert_r3, "step ",
                 lambda ln: "step 9.9.9 " + ln.rsplit(" ", 1)[1])
    rejected(bad, R3)


def test_tampered_termination_payload_rejected(cert_r3):
    # an unknown method, facts its method has not, facts of the wrong type or
    # shape, and no certificate at all
    assert 'relterm lpo ["+","0","s"]' in cert_r3.splitlines()
    for line, problem in (
        ('relterm mystery ["+","0","s"]', "malformed: unknown method 'mystery'"),
        ('relterm trivial ["+","0","s"]', "malformed: a trivial certificate has no facts"),
        ("relterm poly [[1,2,3]]", "malformed: too many values to unpack"),
        ("relterm lpo 5", "line 'relterm lpo 5': termination facts must be a nonempty"),
        ("relterm lpo []", "line 'relterm lpo []': termination facts must be a nonempty"),
        ('relterm lpo ["+"', "line 'relterm lpo [\"+\"': bad termination facts"),
        ('relterm lpo {"precedence":["+","0","s"]}', "termination facts must be a nonempty"),
        ('relterm poly [[[["+",[]],["0",["lin",[],2]],["s",["lin",[1],0]]],["add1"]]]',
         "malformed: list index out of range"),
        (None, "missing relative termination certificate for S/P'"),
    ):
        problems = rejected(mutate(cert_r3, "relterm ", line and (lambda ln: line)), R3)
        assert len(problems) == 1 and problem in problems[0], (line, problems)


# b -> a, g(a) -> g(b), g(a) -> d, g(b) -> e: every critical pair joins, but
# d <- g(a) -> g(b) -> e, and g(a) -> g(b) -> g(a) -> ... does not terminate.
# The poly rounds "remove" b, d and e's rules under g(x) = 0x + 3, which is
# not monotone, and then g(a) -> g(b)
NOT_CONFLUENT = parse_trs("(RULES\n  b -> a\n  g(a) -> g(b)\n  g(a) -> d\n  g(b) -> e\n)\n")
FORGED_TERMINATION = """BEGIN CERTIFICATE
format 7
verdict YES
criterion linear
section input
rule r1: b -> a
rule r2: g(a) -> g(b)
rule r3: g(a) -> d
rule r4: g(b) -> e
section partition
final-s r1,r2,r3,r4
final-p
section reversibility
section termination
relterm poly [[[["a",["lin",[],2]],["b",["lin",[],3]],["d",["lin",[],2]],["e",["lin",[],2]],\
["g",["lin",[0],3]]],["r1","r3","r4"]],[[["a",["lin",[],3]],["b",["lin",[],2]],\
["g",["lin",[1],0]]],["r2"]]]
section joins
join i A
segment star SP rev | g(b)
step 1 r1
step e r3
join i A
segment star SP fwd | d
step 1 r1
step e r3
join i A
segment star SP fwd | e
step e r2
step e r4
END CERTIFICATE
"""


def test_a_non_monotone_interpretation_proves_no_yes():
    # without the monotonicity check this certificate verifies
    assert check_confluence(NOT_CONFLUENT).verdict == "MAYBE"
    assert rejected(FORGED_TERMINATION, NOT_CONFLUENT) == [
        "relative termination certificate for S/P' malformed: "
        "round interprets g by a non-monotone ['lin', [0], 3]"]


def test_deeply_nested_termination_payload_rejected_not_raised(cert_r3):
    # json.loads gives up on 100,000 nested arrays; that is a bad payload,
    # not a deep term
    def nest(ln):
        return "relterm lpo " + "[" * 100_000 + "]" * 100_000

    problems = rejected(mutate(cert_r3, "relterm ", nest), R3)
    assert len(problems) == 1
    assert "bad termination facts" in problems[0]
    assert "nested too deeply" not in problems[0]


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
    assert "ss2" in cert.p_prime and "ss1" not in cert.p_prime
    # P' names rules of P and its inverses: an S rule, or a name given twice,
    # cannot be smuggled into P'
    for extra, problem in (("add1", "P' rule add1 is not a rule of P∪P⁻¹"),
                           ("ss2", "bad P' set: duplicate rule names")):
        bad = mutate(cert_r5, "pprime ", lambda ln: f"{ln},{extra}")
        problems = rejected(bad, R5)
        assert any(p.startswith(problem) for p in problems), problems
    # dropping P' breaks either the joins or the relative termination replay
    rejected(mutate(cert_r5, "pprime "), R5)
    # P' = ∅ is spelled by leaving the line out
    problems = rejected(mutate(cert_r5, "pprime ", lambda ln: "pprime"), R5)
    assert problems[0].startswith("unparsable certificate: line 'pprime': "), problems


# S = f(+(x,y)) -> g(x,y), P = commutativity of + and of g: the one inner
# parallel pair <f(+(y,x)), g(x,y)> constrains {x, y}, and its join swaps
# both variables by one parallel step at the root
SWAP = parse_trs("(VAR x y)\n(RULES\n  f(+(x,y)) -> g(x,y)\n  +(x,y) -> +(y,x)\n"
                 "  g(x,y) -> g(y,x)\n)\n")


@pytest.fixture(scope="module")
def cert_swap():
    r1, r2, r3 = SWAP
    report = check_criterion("pcp", Partition(Trs([r1]), Trs([r2, r3]), Trs([])))
    assert report.holds()
    text = certificate_text(SWAP, SimpleNamespace(
        verdict="YES", report=report, state=SimpleNamespace(history=())))
    (join,) = parse_certificate(text).joins
    assert (join.condition, join.branch) == ("ii", "B")
    assert "pstep r3@e" in text.splitlines()
    ok, problems = verify_certificate(text, SWAP)
    assert ok, problems
    return text


def recompute_pcp_in(monkeypatch, change):
    """Make the verifier recompute pcp_in as change(pairs, run)."""
    pcp_in = certificate.pcp_in
    monkeypatch.setattr(certificate, "pcp_in", lambda q_rules, r_rules, run=None:
                        change(pcp_in(q_rules, r_rules, run), run or Run()))


def with_var_limit(pairs, var_limit):
    return [dataclasses.replace(pr, var_limit=var_limit(pr)) for pr in pairs]


def test_variable_condition_is_part_of_the_join_identity(cert_swap, monkeypatch):
    # the same join, checked against a pair that constrains no variable: the
    # certificate carries no variable set, so the verifier's own pair decides
    recompute_pcp_in(monkeypatch, lambda pairs, run:
                     with_var_limit(pairs, lambda pr: frozenset()))
    assert rejected(cert_swap, SWAP) == ["join <ii,B>: variable condition violated"]


def test_variable_condition_is_read_through_the_pairs_renaming(cert_swap, monkeypatch):
    # the same join, checked against a pair that constrains fewer variables
    recompute_pcp_in(monkeypatch, lambda pairs, run: with_var_limit(
        pairs, lambda pr: frozenset(sorted(pr.var_limit)[1:])))
    assert rejected(cert_swap, SWAP) == ["join <ii,B>: variable condition violated"]


def test_constrained_variables_are_part_of_the_pair_key(cert_r5, monkeypatch):
    # a pair widened to every variable of its peak is another pair: the
    # verifier keeps both, so R5's joins no longer cover its pairs
    added = []

    def widened(pairs, run):
        wide = with_var_limit(pairs, lambda pr: pr.var_limit | var_ids(pr.peak))
        assert all(w.key() != pr.key() for pr, w in zip(pairs, wide))
        added.extend(wide)
        return _dedup(pairs + wide, run)

    recompute_pcp_in(monkeypatch, widened)
    problems = rejected(cert_r5, R5)
    assert added
    n = len(parse_certificate(cert_r5).joins)
    assert problems == [f"{n} join(s) for {n + len(added)} recomputed pair(s)"]


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
    # 700 used to overflow the stack in Trs.key, 1200 already in the parser;
    # the deep rule reaches the checks, which find it in no partition
    deep = "h(" + "s(" * nesting + "?v1" + ")" * nesting + ") -> h(?v1)"
    bad = mutate(cert_r3, "section input", lambda ln: f"{ln}\nrule deep: {deep}")
    assert rejected(bad, R3) == ["certificate input differs from the supplied problem",
                                 "final S/P is not a partition of the final system"]
    assert rejected(bad) == ["final S/P is not a partition of the final system"]


def test_huet_certificate_shape(cert_r3_huet):
    cert = parse_certificate(cert_r3_huet)
    assert cert.criterion == "huet"
    assert cert.relterm_cert is not None
    assert cert.p_prime is None
    assert not any(ln.startswith(("pprime", "termcert")) for ln in cert_r3_huet.splitlines())
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
    block = ["addition r3: g(?v1)", *steps]
    problems = rejected(with_history(cert_fork_closed, block, ["r3"]), FORK)
    assert history_problems(problems, "r3"), problems


def test_format_1_forgery_rejected(cert_fork_closed):
    # format 1 replayed this step as a conversion over a P it never checked
    # for reversibility, and accepted the certificate
    block = ["addition r3: g(?v1)", "with S=r2 P=r1", "cstep e r1~", "sstep e r2"]
    forged = with_history(cert_fork_closed, block, ["r3"])
    assert f"\nformat {FORMAT}\n" in forged
    rejected(forged.replace(f"format {FORMAT}", "format 1"), FORK)
    rejected(forged, FORK)


def test_format_2_rejected(cert_r3):
    # format 2 wrote each join's pair, peak and constrained variables
    bad = mutate(cert_r3, "format ", lambda ln: "format 2")
    assert rejected(bad, R3) == ["unparsable certificate: unsupported certificate format '2'"]


def test_replacement_name_clash_rejected_not_raised(cert_r3):
    block = ["replace add2 with add1", "step 1 C", "back 1 C"]
    problems = rejected(with_history(cert_r3, block), R3)
    assert history_problems(problems, "add1"), problems


def test_replacement_needs_its_back_steps(cert_r3):
    honest = ["replace add2 with q1", "step 1 C", "back 1 C"]
    text = mutate(with_history(cert_r3, honest), "final-s ",
                  lambda ln: ln.replace("add2", "q1"))
    ok, problems = verify_certificate(text, R3)
    assert not history_problems(problems, "q1"), problems
    # without back steps nothing shows that the old rule stays derivable
    forged = ["replace add2 with q1", "step 1 C"]
    problems = rejected(with_history(cert_r3, forged), R3)
    assert history_problems(problems, "q1"), problems


def test_rendered_replacement_replays(cert_r3):
    # a replacement the prover offers on R2 (add2's right side one C-step
    # on), rendered as the history of R3, which has add2 too
    s2, p2 = decompose(R2)[0]
    report = check_criterion("pcp", Partition(s2, p2))
    old, new, just = _replacement_candidates(
        SearchState(s2, p2), report, Run(named=_rule_names(R2)))[0]
    assert old.name == "add2"
    result = decided(R3)
    text = certificate_text(R3, SimpleNamespace(
        verdict="YES", report=result.report, state=SimpleNamespace(history=(just,))))
    assert f"replace add2 with {new.name}" in text and "\nback " in text
    ok, problems = verify_certificate(text, R3)
    assert not history_problems(problems, new.name), problems


def _input_rules(*lines):
    text = "\n".join(["BEGIN CERTIFICATE", f"format {FORMAT}", "verdict YES", "section input",
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
