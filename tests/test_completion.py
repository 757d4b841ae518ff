"""Reduction-preserving completion: transformation search with replayable
side conditions."""
from confl import termination
from confl.certificate import certificate_text, verify_certificate
from confl.completion import (
    COMPLETION_CRITERIA,
    CompletionResult,
    SearchState,
    _forward,
    _replacement_candidates,
    _rule_names,
    check_confluence,
    decompose,
)
from confl.criteria import Partition, check_criterion
from confl.reversibility import is_reversible
from confl.rewriting import Rule, Trs, empty_trs, replay_steps, step_at
from confl.run import Run
from confl.terms import App
from confl.trs_format import parse_trs

from systems import (
    ADD3,
    ADD4,
    A,
    P5,
    P_CA,
    R1,
    R2,
    R3,
    R5,
    R6,
    R8,
    S3,
    decided,
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


def replaced(q: Trs, old: Rule, new: Rule) -> Trs:
    return Trs([r for r in q if r.key() != old.key()] + [new])


def replay_history(result: CompletionResult, initial: Trs):
    """Every transformation replays forward in the system Q it transforms:
    an addition l -> r as l →*_Q r, a replacement of l -> r by l -> r' as
    r →*_Q r' and back r' →*_Q' r; the last Q is the final system."""
    assert result.state is not None
    q = initial
    for j in result.history:
        if j.kind == "addition":
            assert replay_steps(j.rule.lhs, j.steps, q) == j.rule.rhs
            q = q.union(Trs([j.rule]))
        else:
            assert j.kind == "replacement"
            assert j.rule.lhs == j.old_rule.lhs
            assert replay_steps(j.old_rule.rhs, j.steps, q) == j.rule.rhs
            q = replaced(q, j.old_rule, j.rule)
            assert replay_steps(j.rule.rhs, j.back, q) == j.old_rule.rhs
    assert q.key() == result.state.system().key()


def test_replacement_candidates_replay_both_ways():
    # no final history of the reference systems holds a replacement, so take
    # every candidate the failing initial states of R2, R6 and R8 offer
    count = 0
    for trs in (R2, R6, R8):
        run = Run(named=_rule_names(trs))
        for s0, p0 in decompose(trs):
            for crit in COMPLETION_CRITERIA:
                state = SearchState(s0, p0, crit)
                rep = check_criterion(crit, Partition(s0, p0), run=run)
                if rep.holds():
                    continue
                q = state.system()
                for old, new, j in _replacement_candidates(state, rep, run):
                    assert replay_steps(old.rhs, j.steps, q) == new.rhs
                    assert replay_steps(new.rhs, j.back, replaced(q, old, new)) == old.rhs
                    count += 1
    assert count >= 8


def test_forward_expands_inverse_steps_by_the_reversal_witness():
    rev = is_reversible(P_CA)
    a_inv = Rule(A.rhs, A.lhs, "A~")
    t = s(plus(zero, plus(s(zero), plus(x, y))))
    st = step_at(t, (1,), a_inv)
    fwd = _forward((st,), P_CA, rev)
    assert len(fwd) == len(rev.sequence("A")) > 1
    assert all(f.position[:1] == (1,) for f in fwd)
    assert replay_steps(t, fwd, P_CA) == st.target
    # forward P steps are kept as they are
    c_step = step_at(t, (1,), P_CA.rule("C"))
    assert _forward((c_step,), P_CA, rev) == (c_step,)


def test_r2_completes_to_yes_with_add3_add4():
    result = decided(R2)
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
    result = decided(R3)
    assert result.verdict == "YES"
    assert result.history == ()
    assert "0 transformation" in result.reason


def test_r6_completes():
    result = decided(R6)
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
    # another branch or under another criterion is answered by the run's memo
    swap = parse_trs("""(VAR x y z)
(RULES
  g(+(a,b)) -> c
  g(+(b,a)) -> d
  +(x,y) -> +(y,x)
  +(+(x,y),z) -> +(x,+(y,z))
)""")
    proved = []
    prove = termination._prove_termination

    def counted(s_trs, p_trs, run):
        proved.append((s_trs.key(), p_trs.key()))
        return prove(s_trs, p_trs, run)

    monkeypatch.setattr(termination, "_prove_termination", counted)
    result = check_confluence(swap)
    assert result.verdict == "MAYBE"
    assert proved
    assert len(proved) == len(set(proved))


def test_r8_completes():
    result = decided(R8)
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
