"""The criteria matrix on the reference partitions, plus evidence hygiene.

Each cell asserts both the verdict and, where the verdict is negative, the
kind of obstacle (precondition vs unjoined pairs) so regressions stay loud.
"""
import pytest

from confl import completion
from confl.criteria import (
    CRITERIA,
    SHAPES,
    Partition,
    PreconditionViolation,
    check_criterion,
    check_huet,
    check_linear,
    check_parallel,
    check_pcp,
)
from confl.rewriting import Rule, Trs, empty_trs, replay, replay_steps
from confl.run import Run
from confl.reversibility import replay_reversibility
from confl.termination import replay_certificate
from confl.terms import all_parallel

from systems import (
    P5,
    P8,
    P_CA,
    PPRIME_SS2,
    R3,
    R6,
    R8,
    S3,
    S4,
    S6,
    S8,
    SS1,
    plus,
    s,
    x,
    y,
)


def segments_replay(rep):
    """Every evidence must have its SHAPES row, and every segment must chain
    and replay over its declared rules.  A failing auto-mode report has no
    collected P', so its SP segments replay over S ∪ P ∪ P⁻¹."""
    pp = rep.p.with_inverses()
    tables = {
        "S": rep.s,
        "PP": pp,
        "SP": rep.s.union(rep.p_prime if rep.p_prime is not None else pp),
        "P": pp,
    }
    for ev in rep.evidence:
        assert ev.criterion == rep.criterion
        shape = tuple((seg.rel, seg.rules, seg.reverse) for seg in ev.segments)
        assert shape == SHAPES[(rep.criterion, ev.condition, ev.branch)]
        cur = ev.pair_left
        for seg in ev.segments:
            assert seg.start == cur
            rules = tables[seg.rules]
            src, dst = (seg.end, seg.start) if seg.reverse else (seg.start, seg.end)
            if seg.rel == "parallel":
                (wit,) = seg.steps
                assert wit.source == src and wit.target == dst
                # parallel redexes contract one after another to the same end
                assert all_parallel(wit.positions)
                assert all(rules.contains_variant(rule) for _, rule in wit.parts)
                assert replay(src, wit.parts) == dst
            else:
                assert replay_steps(src, seg.steps, rules) == dst
                if seg.rel == "step":
                    assert len(seg.steps) == 1
                if seg.rel == "opt":
                    assert len(seg.steps) <= 1
                if seg.rel == "plus":
                    assert len(seg.steps) >= 1
            cur = seg.end
        assert cur == ev.pair_right


def assert_certs_replay(rep):
    if rep.term_cert is not None:
        assert replay_certificate(rep.s, empty_trs(), rep.term_cert)
    if rep.relterm_cert is not None:
        # huet proves relative termination against all of P, the others
        # against the (explicit or collected) P'
        rel_part = rep.p if rep.criterion == "huet" else rep.p_prime
        assert replay_certificate(rep.s, rel_part, rep.relterm_cert)
    if rep.reversibility is not None:
        assert replay_reversibility(rep.p, rep.reversibility)


# --- R3: the fully linear add system ------------------------------------------


def test_r3_all_criteria_hold():
    pt = Partition(S3, P_CA)
    for name in CRITERIA:
        rep = check_criterion(name, pt)
        assert rep.holds(), f"{name}: {rep.reason}"
        segments_replay(rep)
        assert_certs_replay(rep)


def test_r3_explicit_empty_p_prime_holds():
    pt = Partition(S3, P_CA, p_prime=empty_trs())
    for name in ("linear", "parallel", "pcp"):
        rep = check_criterion(name, pt)
        assert rep.holds(), f"{name}: {rep.reason}"
        assert rep.p_prime is not None and len(rep.p_prime) == 0
        assert "P'=[]" in rep.tag


def test_auto_p_prime_collects_nothing_on_r3_and_r4():
    # Which join is found first decides which P' rules auto mode collects.
    # With the scan order _Searcher documents, R3 and R4 need none, so lpo proves
    # S terminating relative to the empty P'.
    for s_rules, names in ((S3, ("linear", "parallel", "pcp")), (S4, ("parallel", "pcp"))):
        for name in names:
            rep = check_criterion(name, Partition(s_rules, P_CA))
            assert rep.holds(), f"{name}: {rep.reason}"
            assert rep.p_prime is not None and len(rep.p_prime) == 0, name
            assert rep.relterm_cert.method == "lpo", name


def test_reversibility_witness_takes_rev_bound_not_depth():
    # undoing A takes five steps, so a join depth of 4 must not cut its witness
    rep = check_criterion("linear", Partition(S3, P_CA), run=Run(depth=4, rev_bound=10))
    assert rep.holds(), rep.reason
    assert rep.reversibility.bound == 10
    result = completion.check_confluence(R3, depth=4, rev_bound=10)
    assert result.verdict == "YES", result.reason
    assert result.report.reversibility.bound == 10
    rep = check_criterion("linear", Partition(S3, P_CA), run=Run(rev_bound=4))
    assert rep.reason == "P was not shown reversible within the search bound"


# --- R4: duplication forces the parallel route --------------------------------


def test_r4_linear_blocked_by_nonlinearity():
    rep = check_linear(Partition(S4, P_CA))
    assert not rep.holds()
    assert "linear" in rep.reason


def test_r4_parallel_pcp_huet_hold():
    pt = Partition(S4, P_CA)
    for checker in (check_parallel, check_pcp, check_huet):
        rep = checker(pt)
        assert rep.holds(), rep.reason
        segments_replay(rep)
        assert_certs_replay(rep)


# --- R5: successor padding needs a restricted P' ------------------------------


def test_r5_linear_holds():
    rep = check_linear(Partition(S3, P5))
    assert rep.holds(), rep.reason
    segments_replay(rep)
    assert_certs_replay(rep)


def test_r5_pcp_with_empty_p_prime_fails_on_variable_condition():
    rep = check_pcp(Partition(S3, P5, p_prime=empty_trs()))
    assert not rep.holds()
    assert rep.failing
    assert any(f.origin == "pcp_in(PP,S)" for f in rep.failing)


def test_r5_pcp_with_ss2_holds():
    rep = check_pcp(Partition(S3, P5, p_prime=PPRIME_SS2))
    assert rep.holds(), rep.reason
    assert "ss2" in rep.tag
    segments_replay(rep)
    assert_certs_replay(rep)


def test_r5_pcp_auto_collects_a_safe_p_prime():
    rep = check_pcp(Partition(S3, P5))
    assert rep.holds(), rep.reason
    assert rep.p_prime is not None
    # ss1 (padding) can never be part of a relatively terminating P'
    assert not rep.p_prime.contains_variant(SS1)
    assert_certs_replay(rep)


def test_r5_huet_blocked_by_relative_termination():
    rep = check_huet(Partition(S3, P5))
    assert not rep.holds()
    assert "relative termination" in rep.reason


# --- R6: swapped recursion, no safe P' at all ----------------------------------


def test_r6_pcp_and_parallel_hold_s_only():
    # the strong claim: joins exist without any P' help at all
    pt = Partition(S6, P_CA, p_prime=empty_trs())
    for checker in (check_pcp, check_parallel):
        rep = checker(pt)
        assert rep.holds(), rep.reason
        assert rep.p_prime is not None and len(rep.p_prime) == 0
        segments_replay(rep)
        assert_certs_replay(rep)


def test_r6_pcp_auto_mode_also_holds():
    rep = check_pcp(Partition(S6, P_CA))
    assert rep.holds(), rep.reason
    segments_replay(rep)
    assert_certs_replay(rep)


def test_r6_linear_and_huet_blocked():
    rep = check_linear(Partition(S6, P_CA))
    assert not rep.holds() and "linear" in rep.reason
    rep = check_huet(Partition(S6, P_CA))
    assert not rep.holds() and "relative termination" in rep.reason


# --- R7: union of R4 and R5 ----------------------------------------------------


def test_r7_pcp_needs_ss2():
    assert check_pcp(Partition(S4, P5, p_prime=empty_trs())).holds() is False
    rep = check_pcp(Partition(S4, P5, p_prime=PPRIME_SS2))
    assert rep.holds(), rep.reason
    segments_replay(rep)
    assert_certs_replay(rep)
    auto = check_pcp(Partition(S4, P5))
    assert auto.holds(), auto.reason
    assert not auto.p_prime.contains_variant(SS1)


def test_r7_other_criteria_blocked():
    assert not check_linear(Partition(S4, P5)).holds()
    assert not check_huet(Partition(S4, P5)).holds()


# --- R8: the swap system -------------------------------------------------------


def test_r8_linear_holds_s_only():
    rep = check_linear(Partition(S8, P8))
    assert rep.holds(), rep.reason
    assert rep.p_prime is not None and len(rep.p_prime) == 0
    segments_replay(rep)
    assert_certs_replay(rep)


def test_r8_pcp_fails_on_variable_condition():
    rep = check_pcp(Partition(S8, P8))
    assert not rep.holds()
    assert rep.failing
    assert any(f.origin == "pcp_in(PP,S)" for f in rep.failing)


def test_r8_parallel_blocked_by_inner_pairs():
    rep = check_parallel(Partition(S8, P8))
    assert not rep.holds()
    assert "inner critical pairs" in rep.reason


def test_r8_huet_blocked():
    rep = check_huet(Partition(S8, P8))
    assert not rep.holds()
    assert "relative termination" in rep.reason


# --- every report of a completion run -------------------------------------------


def test_every_report_of_a_completion_run_has_its_shapes(monkeypatch):
    # failing criteria and non-final states leave evidence no certificate shows
    reports = []

    def recording(*args, **kwargs):
        rep = check_criterion(*args, **kwargs)
        reports.append(rep)
        return rep

    monkeypatch.setattr(completion, "check_criterion", recording)
    for trs in (R6, R8):
        assert completion.check_confluence(trs).verdict == "YES"
    assert any(not rep.holds() and rep.evidence for rep in reports)
    for rep in reports:
        segments_replay(rep)


# --- structural ----------------------------------------------------------------


def test_partition_validation():
    with pytest.raises(PreconditionViolation):
        Partition(S3, Trs([Rule(plus(x, y), x, "proj")]))
    with pytest.raises(PreconditionViolation):
        Partition(S3, P_CA, p_prime=PPRIME_SS2)  # ss2 is not in {C,A} ∪ inverses
    pt = Partition(S3, P5, p_prime=PPRIME_SS2)  # inverse variants are accepted
    assert pt.pp.contains_variant(SS1)


def test_unknown_criterion_rejected():
    with pytest.raises(ValueError):
        check_criterion("magic", Partition(S3, P_CA))


def test_failure_reports_name_the_unjoined_pairs():
    # commutativity alone in S cannot be terminating
    rep = check_linear(Partition(Trs([Rule(plus(x, y), plus(y, x), "swap")]), empty_trs()))
    assert not rep.holds()
    assert "termination" in rep.reason
