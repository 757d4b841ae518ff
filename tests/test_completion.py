"""Reduction-preserving completion: transformation search with replayable
side conditions."""
from confl import termination
from confl.certificate import certificate_text, verify_certificate
from confl.completion import CompletionResult, check_confluence, decompose
from confl.rewriting import Rule, Trs, empty_trs, replay_steps
from confl.terms import App
from confl.trs_format import parse_trs

from systems import (
    ADD3,
    ADD4,
    P5,
    P_CA,
    R1,
    R2,
    R3,
    R5,
    R6,
    R8,
    S3,
    g1,
    h1,
    plus,
    s,
    x,
    y,
    zero,
)


def test_decompose_finds_reversible_parts():
    [(s6, p6), *rest] = decompose(R6)
    assert {r.name for r in p6} == {"C", "A", "add5"}
    assert {r.name for r in s6} == {"add1", "add2", "add3", "dbl"}
    assert rest == [(R6, empty_trs())]

    [(s5, p5), *rest5] = decompose(R5)
    assert {r.name for r in p5} == {"C", "A", "ss1", "ss2"}
    assert {r.name for r in s5} == {"add1", "add2", "add3", "add4"}

    # all-reversible input: no trivial split is offered twice
    outs = decompose(R1)
    assert len(outs) == 1
    assert {r.name for r in outs[0][1]} == {"C", "A"}
    assert len(outs[0][0]) == 0


def test_decompose_prunes_oriented_leftovers():
    # g->h alone looks flippable by shape but cannot be undone: lands in S
    q = Trs([Rule(g1(x), h1(x), "gh"), Rule(plus(x, y), plus(y, x), "C")])
    outs = decompose(q)
    assert any({r.name for r in p} == {"C"} for _, p in outs)
    assert (q, empty_trs()) == outs[-1] or len(outs[0][1]) == 1


def replay_history(result: CompletionResult, initial: Trs):
    """Every transformation's side condition must replay: additions need
    lhs ↔*_P mid →*_S rhs, replacements a single P-step on the rhs."""
    assert result.state is not None
    for j in result.history:
        if j.kind == "addition":
            mid = replay_steps(j.rule.lhs, j.conv_steps)
            assert replay_steps(mid, j.s_steps) == j.rule.rhs
            for st in j.conv_steps:
                assert st.rule.name in j.p_names or st.rule.name.rstrip("~") in {
                    n.rstrip("~") for n in j.p_names
                }
        else:
            assert j.kind == "replacement"
            assert j.old_rule is not None
            assert j.rule.lhs == j.old_rule.lhs
            assert len(j.conv_steps) == 1
            assert replay_steps(j.old_rule.rhs, j.conv_steps) == j.rule.rhs


def test_r2_completes_to_yes_with_add3_add4():
    result = check_confluence(R2, max_steps=20, timeout=60.0)
    assert result.verdict == "YES", result.reason
    assert result.history, "R2 needs at least one transformation"
    final = result.state.system()
    # the classic additions must be present (up to renaming/swap of add4)
    assert final.contains_variant(ADD3)
    add4_variants = [
        ADD4,
        Rule(plus(y, s(x)), s(plus(x, y)), "swapped"),
    ]
    assert any(final.contains_variant(r) for r in add4_variants)
    replay_history(result, R2)
    # the final state's criterion report is attached and holds
    assert result.report is not None and result.report.holds()


def test_r2_completion_is_deterministic():
    r1 = check_confluence(R2, max_steps=20, timeout=60.0)
    r2 = check_confluence(R2, max_steps=20, timeout=60.0)
    assert r1.verdict == r2.verdict == "YES"
    assert [j.rule.key() for j in r1.history] == [j.rule.key() for j in r2.history]
    assert r1.state.s.key() == r2.state.s.key()
    assert r1.report.tag == r2.report.tag


def test_r3_completes_immediately():
    result = check_confluence(R3)
    assert result.verdict == "YES"
    assert result.history == ()
    assert "0 transformation" in result.reason


def test_r6_completes():
    result = check_confluence(R6, max_steps=20, timeout=60.0)
    assert result.verdict == "YES", result.reason
    replay_history(result, R6)


def test_generated_names_avoid_the_input_names():
    # the input already uses the names completion would generate first
    q_named = Trs([Rule(r.lhs, r.rhs, f"q{i}") for i, r in enumerate(R6, 1)])
    result = check_confluence(q_named, max_steps=20, timeout=60.0)
    assert result.verdict == "YES", result.reason
    replay_history(result, q_named)
    ok, problems = verify_certificate(certificate_text(q_named, result), q_named)
    assert ok, problems


def test_no_system_is_proved_twice_up_to_renaming(monkeypatch):
    # a rule keeps one name for the whole run, so a system met again on
    # another branch or under another criterion is answered by the cache
    swap = parse_trs("""(VAR x y z)
(RULES
  g(+(a,b)) -> c
  g(+(b,a)) -> d
  +(x,y) -> +(y,x)
  +(+(x,y),z) -> +(x,+(y,z))
)""")
    proved = []
    plain, relative = termination._prove_termination, termination._prove_relative

    def plain_counted(s_trs, hook):
        proved.append((s_trs.key(), empty_trs().key()))
        return plain(s_trs, hook)

    def relative_counted(s_trs, p_trs):
        proved.append((s_trs.key(), p_trs.key()))
        return relative(s_trs, p_trs)

    monkeypatch.setattr(termination, "_prove_termination", plain_counted)
    monkeypatch.setattr(termination, "_prove_relative", relative_counted)
    termination.clear_cache()
    result = check_confluence(swap)
    assert result.verdict == "MAYBE"
    assert proved
    assert len(proved) == len(set(proved))


def test_r8_completes():
    result = check_confluence(R8, max_steps=20, timeout=60.0)
    assert result.verdict == "YES", result.reason
    replay_history(result, R8)


def test_single_criterion_restriction():
    result = check_confluence(R3, criteria=("huet",))
    assert result.verdict == "YES"
    assert result.report.criterion == "huet"


def test_budget_exhaustion_returns_maybe():
    # a non-confluent system: no completion should ever claim YES
    bad = Trs([Rule(App("f", ()), App("a", ()), "fa"), Rule(App("f", ()), App("b", ()), "fb")])
    result = check_confluence(bad, max_steps=3, timeout=10.0)
    assert result.verdict == "MAYBE"
    assert result.reason


def test_zero_budget_still_tries_initial_states():
    result = check_confluence(R3, max_steps=0)
    assert result.verdict == "YES"  # no expansions needed
