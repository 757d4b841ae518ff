"""Reduction-preserving completion: transformation search with replayable
side conditions."""
import pytest

from confl import completion, rewriting, termination
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
from confl.rewriting import Rule, Trs, empty_trs, step_at
from confl.run import Run, TimedOut
from confl.terms import App
from confl.trs_format import parse_trs

import systems
from helpers import replay_steps
from systems import (
    ADD3,
    ADD4,
    CHAIN3,
    CHAIN4,
    FORK,
    SWAP,
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

    # every split's P is bidirectional, as a Partition requires
    for trs in [v for v in vars(systems).values() if isinstance(v, Trs)]:
        for _, p in decompose(trs):
            assert p.bidirectional()


def test_decompose_prunes_oriented_leftovers():
    # g->h alone looks flippable by shape but cannot be undone: lands in S
    q = Trs([Rule(g1(x), h1(x), "gh"), Rule(plus(x, y), plus(y, x), "C")])
    outs = decompose(q)
    assert any({r.name for r in p} == {"C"} for _, p in outs)
    assert (q, empty_trs()) == outs[-1] or len(outs[0][1]) == 1


def test_decompose_keeps_the_deadline():
    # the pruning rounds' reach searches call the check before each term
    with pytest.raises(TimedOut, match="rewriting"):
        decompose(R6, Run(timeout=0))
    # a deadline passed while splitting the input still answers MAYBE
    got = check_confluence(R6, timeout=0)
    assert (got.verdict, got.reason) == ("MAYBE", "timed out in rewriting after 0 expansion(s)")


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
            state = SearchState(s0, p0)
            for crit in COMPLETION_CRITERIA:
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


def test_a_400_deep_left_side_is_confluent_and_verifies(monkeypatch):
    # its join search and certificate hold terms 400 deep, more than the
    # interpreter's recursion limit allows a recursive walker; the rule is
    # past rewriting.COMPILE_NODES, so its join search compiles nothing
    lhs = "x"
    for _ in range(400):
        lhs = f"s({lhs})"
    trs = parse_trs(f"(VAR x)\n(RULES\n  {lhs} -> x\n)\n")
    compiled = []
    monkeypatch.setattr(rewriting, "compile_contractor", lambda *args: compiled.append(args))
    result = check_confluence(trs)
    assert result.verdict == "YES"
    ok, problems = verify_certificate(certificate_text(trs, result), trs)
    assert ok, problems
    assert compiled == []


def test_a_5000_deep_rule_is_confluent_and_verifies():
    # every walker on the way, termination's and the verifier's included,
    # keeps its pending calls on a heap stack
    n = 5000
    trs = parse_trs(f"(VAR x)\n(RULES\n  h({'s(' * n}x{')' * n}) -> h(x)\n)\n")
    result = check_confluence(trs)
    assert result.verdict == "YES"
    ok, problems = verify_certificate(certificate_text(trs, result), trs)
    assert ok, problems


def test_single_criterion_restriction():
    result = check_confluence(R3, criteria=("huet",))
    assert result.verdict == "YES"
    assert result.report.criterion == "huet"
    # searches that expand: one criterion makes one expansion per split
    result = check_confluence(R2, criteria=("huet",))
    assert (result.verdict, result.explored, len(result.history)) == ("YES", 1, 4)
    result = check_confluence(SWAP, criteria=("linear",))
    assert (result.verdict, result.explored) == ("MAYBE", 4)


@pytest.mark.parametrize("criterion", ["linear", "pcp", "huet"])
def test_r2_is_proved_by_each_criterion_alone_in_one_expansion(criterion):
    result = check_confluence(R2, criteria=(criterion,))
    assert (result.verdict, result.report.criterion) == ("YES", criterion)
    assert result.explored <= 1
    ok, problems = verify_certificate(certificate_text(R2, result), R2)
    assert ok, problems


def counted_calls(monkeypatch, *names):
    """Count the calls completion makes to each of `names`."""
    calls = dict.fromkeys(names, 0)

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name in names:
        monkeypatch.setattr(completion, name, counting(name, getattr(completion, name)))
    return calls


def test_a_split_is_checked_under_every_criterion_and_expanded_once(monkeypatch):
    # R2's first split fails all three criteria on pairs, so it counts three
    # expansions but is expanded once, from pcp's failing pairs; pcp holds on
    # a successor, the first criterion checked there
    calls = counted_calls(monkeypatch, "check_criterion", "successors")
    result = check_confluence(R2)
    assert (result.verdict, result.explored) == ("YES", 3)
    assert calls == {"check_criterion": 7, "successors": 1}


def test_each_failing_criterion_counts_one_expansion(monkeypatch):
    # chain4 is confluent, but no criterion holds within the default budget
    calls = counted_calls(monkeypatch, "check_criterion")
    result = check_confluence(CHAIN4)
    assert result.verdict == "MAYBE"
    assert result.reason.startswith("search exhausted after 18 expansion(s);")
    assert calls["check_criterion"] <= 316
    # a split is expanded only while its failing criteria fit the budget
    for max_steps in range(6):
        assert check_confluence(SWAP, max_steps=max_steps).explored <= max_steps


CUT_INPUTS = {"R2": R2, "chain3": CHAIN3, "chain4": CHAIN4, "swap": SWAP, "fork": FORK}


@pytest.mark.parametrize("name", CUT_INPUTS)
def test_a_scan_cut_at_its_first_unjoined_pair_decides_as_the_full_scan(name, monkeypatch):
    """A criterion checked after one failed on pairs stops at its first
    unjoined pair.  On every split the run checks, under every criterion, the
    cut scan agrees with the full one: it holds with the same joins, or fails
    with the full scan's first failing pair, or fails with no pair for the
    same reason."""
    checked, check = {}, completion.check_criterion

    def recording(crit, pt, run=None, **kwargs):
        checked.setdefault((pt.s.rules, pt.p.rules), (pt.s, pt.p))
        return check(crit, pt, run, **kwargs)

    monkeypatch.setattr(completion, "check_criterion", recording)
    check_confluence(CUT_INPUTS[name])
    cut_short = 0
    for s_trs, p_trs in checked.values():
        run = Run()
        for crit in COMPLETION_CRITERIA:
            full = check_criterion(crit, Partition(s_trs, p_trs), run)
            cut = check_criterion(crit, Partition(s_trs, p_trs), run, first_only=True)
            assert cut.holds() == full.holds()
            assert bool(cut.failing) == bool(full.failing)
            if full.failing:
                first, got = full.failing[0], cut.failing
                assert [(f.origin, f.pair.key()) for f in got] == \
                    [(first.origin, first.pair.key())]
                assert cut.reason == "at least 1 critical pair(s) not joined within the bound"
                cut_short += len(full.failing) > 1
            else:
                assert (cut.reason, cut.evidence) == (full.reason, full.evidence)
    assert cut_short


def test_budget_exhaustion_returns_maybe():
    # a non-confluent system: no completion should ever claim YES
    bad = Trs([Rule(App("f", ()), App("a", ()), "fa"), Rule(App("f", ()), App("b", ()), "fb")])
    result = check_confluence(bad, max_steps=3, timeout=10.0)
    assert result.verdict == "MAYBE"
    assert result.reason


def test_zero_budget_still_tries_initial_states():
    result = check_confluence(R3, max_steps=0)
    assert result.verdict == "YES"  # no expansions needed
