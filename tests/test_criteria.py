"""The criteria matrix on the reference partitions, plus evidence hygiene.

Each cell asserts both the verdict and, where the verdict is negative, the
kind of obstacle (precondition vs unjoined pairs) so regressions stay loud.
"""
import re
from pathlib import Path
from types import SimpleNamespace

import pytest

from confl import completion, criteria, critical_pairs, rewriting
from confl.completion import decompose
from confl.criteria import (
    CRITERIA,
    CRITERION_TABLE,
    PAIR_SCAN_CAP,
    Partition,
    PreconditionViolation,
    _Searcher,
    check_criterion,
)
from confl.rewriting import Rule, Trs, empty_trs, reach_set_bounded, replay
from confl.run import Run, TimedOut
from confl.termination import replay_certificate
from confl.terms import App, all_parallel
from confl.trs_format import parse_trs

from helpers import replay_reversibility, replay_steps
from systems import (
    ALL_SYSTEMS,
    CHAIN3,
    CHAIN4,
    FORK,
    P5,
    P8,
    P_CA,
    PPRIME_SS2,
    R2,
    R3,
    R6,
    R8,
    S2,
    S3,
    S4,
    S6,
    S8,
    SS1,
    SWAP,
    WIDE4,
    decided,
    plus,
    s,
    x,
    y,
    zero,
)


def segments_replay(rep):
    """Every evidence must have its CRITERION_TABLE branch, and every segment
    must chain and replay over its declared rules.  A failing auto-mode report has no
    collected P', so its SP segments replay over S ∪ P ∪ P⁻¹."""
    pp = rep.p.with_inverses()
    tables = {
        "S": rep.s,
        "PP": pp,
        "SP": rep.s.union(rep.p_prime if rep.p_prime is not None else pp),
        "P": pp,
    }
    for ev in rep.evidence:
        shape = tuple((seg.rel, seg.rules, seg.reverse) for seg in ev.segments)
        rows = {cond: dict(zip("AB", branches))
                for cond, _family, branches in CRITERION_TABLE[rep.criterion][2]}
        assert shape == rows[ev.condition][ev.branch]
        cur = ev.pair_left
        for seg in ev.segments:
            rules = tables[seg.rules]
            src, dst = (seg.end, cur) if seg.reverse else (cur, seg.end)
            if seg.rel == "parallel":
                (wit,) = seg.steps
                assert wit.source == src and wit.target == dst
                # parallel redexes contract one after another to the same end
                assert all_parallel(wit.positions)
                assert all(rules.contains_variant(rule) for _, rule in wit.parts)
                done = replay(src, wit.parts)
                assert (done[-1].target if done else src) == dst
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
    if rep.relterm_cert is not None:
        # huet proves relative termination against all of P, the others
        # against the (explicit or collected) P'
        rel_part = rep.p if rep.criterion == "huet" else rep.p_prime
        assert replay_certificate(rep.s, rel_part, rep.relterm_cert)
        # the one certificate proves S terminating on its own too
        assert replay_certificate(rep.s, empty_trs(), rep.relterm_cert)
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
    rep = check_criterion("linear", Partition(S4, P_CA))
    assert not rep.holds()
    assert "linear" in rep.reason


def test_r4_parallel_pcp_huet_hold():
    pt = Partition(S4, P_CA)
    for name in ("parallel", "pcp", "huet"):
        rep = check_criterion(name, pt)
        assert rep.holds(), rep.reason
        segments_replay(rep)
        assert_certs_replay(rep)


# --- R5: successor padding needs a restricted P' ------------------------------


def test_r5_linear_holds():
    rep = check_criterion("linear", Partition(S3, P5))
    assert rep.holds(), rep.reason
    segments_replay(rep)
    assert_certs_replay(rep)


def test_r5_pcp_with_empty_p_prime_fails_on_variable_condition():
    rep = check_criterion("pcp", Partition(S3, P5, p_prime=empty_trs()))
    assert not rep.holds()
    assert rep.failing
    assert any(f.origin == "pcp_in(PP,S)" for f in rep.failing)


def test_r5_pcp_with_ss2_holds():
    rep = check_criterion("pcp", Partition(S3, P5, p_prime=PPRIME_SS2))
    assert rep.holds(), rep.reason
    assert "ss2" in rep.tag
    segments_replay(rep)
    assert_certs_replay(rep)


def test_r5_pcp_auto_collects_a_safe_p_prime():
    rep = check_criterion("pcp", Partition(S3, P5))
    assert rep.holds(), rep.reason
    assert rep.p_prime is not None
    # ss1 (padding) can never be part of a relatively terminating P'
    assert not rep.p_prime.contains_variant(SS1)
    assert_certs_replay(rep)


def test_r5_huet_blocked_by_relative_termination():
    rep = check_criterion("huet", Partition(S3, P5))
    assert not rep.holds()
    assert "relative termination" in rep.reason


# --- R6: swapped recursion, no safe P' at all ----------------------------------


def test_r6_pcp_and_parallel_hold_s_only():
    # the strong claim: joins exist without any P' help at all
    pt = Partition(S6, P_CA, p_prime=empty_trs())
    for name in ("pcp", "parallel"):
        rep = check_criterion(name, pt)
        assert rep.holds(), rep.reason
        assert rep.p_prime is not None and len(rep.p_prime) == 0
        segments_replay(rep)
        assert_certs_replay(rep)


def test_r6_pcp_auto_mode_also_holds():
    rep = check_criterion("pcp", Partition(S6, P_CA))
    assert rep.holds(), rep.reason
    segments_replay(rep)
    assert_certs_replay(rep)


def test_r6_linear_and_huet_blocked():
    rep = check_criterion("linear", Partition(S6, P_CA))
    assert not rep.holds() and "linear" in rep.reason
    rep = check_criterion("huet", Partition(S6, P_CA))
    assert not rep.holds() and "relative termination" in rep.reason


# --- R7: union of R4 and R5 ----------------------------------------------------


def test_r7_pcp_needs_ss2():
    assert check_criterion("pcp", Partition(S4, P5, p_prime=empty_trs())).holds() is False
    rep = check_criterion("pcp", Partition(S4, P5, p_prime=PPRIME_SS2))
    assert rep.holds(), rep.reason
    segments_replay(rep)
    assert_certs_replay(rep)
    auto = check_criterion("pcp", Partition(S4, P5))
    assert auto.holds(), auto.reason
    assert not auto.p_prime.contains_variant(SS1)


def test_r7_other_criteria_blocked():
    assert not check_criterion("linear", Partition(S4, P5)).holds()
    assert not check_criterion("huet", Partition(S4, P5)).holds()


# --- R8: the swap system -------------------------------------------------------


def test_r8_linear_holds_s_only():
    rep = check_criterion("linear", Partition(S8, P8))
    assert rep.holds(), rep.reason
    assert rep.p_prime is not None and len(rep.p_prime) == 0
    segments_replay(rep)
    assert_certs_replay(rep)


def test_r8_pcp_fails_on_variable_condition():
    rep = check_criterion("pcp", Partition(S8, P8))
    assert not rep.holds()
    assert rep.failing
    assert any(f.origin == "pcp_in(PP,S)" for f in rep.failing)


def test_r8_parallel_blocked_by_inner_pairs():
    rep = check_criterion("parallel", Partition(S8, P8))
    assert not rep.holds()
    assert "inner critical pairs" in rep.reason


def test_r8_huet_blocked():
    rep = check_criterion("huet", Partition(S8, P8))
    assert not rep.holds()
    assert "relative termination" in rep.reason


# --- parallel against pcp --------------------------------------------------------

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_parallel_split():
    """The final split of the README example decided under parallel alone."""
    blocks = re.findall(r"```text\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    trs = parse_trs(next(b for b in blocks if b.startswith("(VAR")))
    rep = completion.check_confluence(trs, criteria=("parallel",)).report
    return Partition(rep.s, rep.p)


@pytest.mark.parametrize("case", ["R3", "R4", "R6", "README"])
def test_where_parallel_holds_pcp_holds_with_the_same_joins(case):
    """parallel joins (i) and (iii) through pcp's branches and asks (ii)'s
    inner pairs to be absent, where pcp has no pairs to join either."""
    if case == "README":
        pt = readme_parallel_split()
    else:
        pt = Partition({"R3": S3, "R4": S4, "R6": S6}[case], P_CA)
    par, pcp = check_criterion("parallel", pt), check_criterion("pcp", pt)
    assert par.holds() and pcp.holds()
    assert par.evidence

    def joins(rep):
        return [(ev.condition, ev.branch, ev.segments) for ev in rep.evidence]
    assert joins(par) == joins(pcp)


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
    swap = Trs([Rule(plus(x, y), plus(y, x), "swap")])
    rep = check_criterion("linear", Partition(swap, empty_trs()))
    assert not rep.holds()
    assert "termination" in rep.reason


# --- what one split's checks share ---------------------------------------------


def test_a_split_generates_each_pair_family_once(monkeypatch):
    """pcp, linear and huet all fail on pairs of chain3's first split.  On
    one Partition they generate cp(S,S), cp(S,PP) and cp(PP,S) once each,
    cp_in(PP,S) as the inner part of cp(PP,S), and show P reversible once."""
    calls = {name: 0 for name in ("cp", "cp_in", "pcp_in", "is_reversible")}

    def counted(name):
        fn = getattr(criteria, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    for name in calls:
        monkeypatch.setattr(criteria, name, counted(name))
    pt, run = Partition(*decompose(CHAIN3)[0]), Run()
    for name in ("pcp", "linear", "huet"):
        rep = check_criterion(name, pt, run)
        assert rep.failing and not rep.holds(), name
    assert calls == {"cp": 3, "cp_in": 0, "pcp_in": 1, "is_reversible": 1}


def test_pp_safe_tries_the_whole_set_first(monkeypatch):
    """S terminates relative to all of wide4's P ∪ P⁻¹, so one proof keeps
    it whole.  Where the whole set fails (R8's splits), the kept rules are
    the greedy prefix loop's."""
    calls = []
    prove = criteria.prove_relative_termination

    def counted(s_trs, p_trs, run=None):
        calls.append(p_trs)
        return prove(s_trs, p_trs, run=run)

    monkeypatch.setattr(criteria, "prove_relative_termination", counted)
    pt = Partition(*decompose(WIDE4)[0])
    assert list(pt.pp_safe(Run())) == list(pt.pp)
    assert len(calls) == 1
    for s_trs, p_trs in decompose(R8):
        pt, run = Partition(s_trs, p_trs), Run()
        kept = []
        for r in pt.pp:
            if prove(s_trs, Trs(kept + [r]), run=run)[0] is not None:
                kept.append(r)
        assert list(pt.pp_safe(run)) == kept


FAMILIES = list(dict.fromkeys(
    family for _linearity, _relative_to, conditions in CRITERION_TABLE.values()
    for _cond, family, _branches in conditions))
SPLIT_INPUTS = {**{f"R{i}": trs for i, trs in enumerate(ALL_SYSTEMS, 1)},
                "chain3": CHAIN3, "swap": SWAP, "fork": FORK}


@pytest.mark.parametrize("name", SPLIT_INPUTS)
def test_a_memoized_family_is_the_generators_own(name):
    """Every family a split's memo hands out, in CRITERION_TABLE order (so a
    cp_in family before the cp family it filters), has the pairs, kinds and
    order of a fresh generator call: the order is part of the certificate."""
    for s_trs, p_trs in decompose(SPLIT_INPUTS[name]):
        pt, run = Partition(s_trs, p_trs), Run()
        classes = {"S": pt.s, "PP": pt.pp}
        for gen, left, right in FAMILIES:
            fresh = getattr(criteria, gen)(classes[left], classes[right])
            for _ in range(2):
                got = pt.pairs(gen, left, right, run)
                assert [pr.key() for pr in got] == [pr.key() for pr in fresh], (gen, left, right)


RUN_INPUTS = {"R2": R2, "R6": R6, "chain3": CHAIN3, "chain4": CHAIN4, "swap": SWAP,
              "fork": FORK}


@pytest.fixture(scope="module")
def drawn_by_run():
    """Per input, every family a completion run of it draws, as (generator,
    pairs drawn, left system, right system): the families the checked splits
    draw from Partition.pairs and the `cp_in` of the replacement candidates."""
    out = {}
    pairs = Partition.pairs
    for name, trs in RUN_INPUTS.items():
        drawn = out[name] = []

        def recording(self, gen, left, right, run, drawn=drawn):
            got = pairs(self, gen, left, right, run)
            classes = {"S": self.s, "PP": self.pp}
            drawn.append((gen, got, classes[left], classes[right]))
            return got

        def recording_cp_in(r_rules, q_rules, run=None, drawn=drawn):
            assert run is not None
            got = critical_pairs.cp_in(r_rules, q_rules, run)
            drawn.append(("cp_in", got, r_rules, q_rules))
            return got

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Partition, "pairs", recording)
            mp.setattr(completion, "cp_in", recording_cp_in)
            assert completion.check_confluence(trs).explored  # more than one split
    return out


@pytest.mark.parametrize("name", RUN_INPUTS)
def test_a_family_drawn_through_the_runs_memo_is_the_generators_own(name, drawn_by_run):
    """Over a whole completion run, where the run's pair memo hands later
    splits and `successors` the blocks of earlier ones, every family a
    checked split draws, and every `cp_in` of the replacement candidates,
    has the keys, kinds and order of a fresh generator call without a run.
    Some run draws a `cp_in` family: not every run need, since a criterion
    after the first that failed stops at its first unjoined pair (fork's
    linear stops in (i), before its (ii) draws one)."""
    assert {"cp", "cp_in"} <= {gen for drawn in drawn_by_run.values() for gen, *_ in drawn}
    assert "cp" in {gen for gen, *_ in drawn_by_run[name]}
    for gen, got, left, right in drawn_by_run[name]:
        fresh = getattr(critical_pairs, gen)(left, right)
        assert [(pr.kind, pr.key()) for pr in got] == \
            [(pr.kind, pr.key()) for pr in fresh], gen


# --- the join search's cost and deadline ------------------------------------------


@pytest.mark.parametrize("case", ["R2 final", "R6 pcp"])
def test_a_join_matches_each_rule_and_subterm_once_per_system(case, monkeypatch):
    """Within one join, a system matches a rule against equal subterms once:
    its root-contractum table holds what the first match found.  R2's final
    partition joins by outer S-steps, SP-reach sets and parallel PP steps
    (pcp), as does R6's pcp check.  Every match of the join search is a call
    of a rule's contractor, made in `rewriting._contracta`, which names the
    system; the reach sets are built as the scan reads them, after the call
    that makes them has returned."""
    if case == "R2 final":
        rep = decided(R2).report
        name, pt = rep.criterion, Partition(rep.s, rep.p)
    else:
        name, pt = "pcp", Partition(S6, P_CA)
    joins, in_join, systems, seen, repeats = [0], [False], [], set(), []

    def counting_join(self, *args):
        joins[0] += 1
        in_join[0] = True  # matches outside a join are not counted
        try:
            return searcher_join(self, *args)
        finally:
            in_join[0] = False

    def naming_contracta(sub, trs, table):  # the match in progress names its system
        systems.append(trs)
        try:
            return contracta(sub, trs, table)
        finally:
            systems.pop()

    def recording_compile(rule, codes):
        contract = compile_contractor(rule, codes)

        def recording_contract(subject):
            if in_join[0] and systems:
                key = (joins[0], id(systems[-1]), rule.key(), subject)
                if key in seen:
                    repeats.append(key)
                seen.add(key)
            return contract(subject)
        return recording_contract

    searcher_join, contracta = _Searcher.join, rewriting._contracta
    compile_contractor = rewriting.compile_contractor
    monkeypatch.setattr(_Searcher, "join", counting_join)
    monkeypatch.setattr(rewriting, "_contracta", naming_contracta)
    monkeypatch.setattr(rewriting, "compile_contractor", recording_compile)
    assert check_criterion(name, pt).holds()
    assert joins[0] > 20 and len(seen) > 300
    assert not repeats, f"{len(repeats)} repeated matches, the first in join {repeats[0][0]}"


def test_a_join_reach_set_keeps_the_deadline():
    """The join search's reach sets check the run's deadline before each term
    they expand.  Unchecked, this one fills its 4,000-term cap first.  A
    reach set expands terms only when it is read, so it is read here."""
    t = s(s(zero))
    for _ in range(10):
        t = plus(s(s(zero)), t)
    searcher = _Searcher(Partition(S2, P_CA), Run(timeout=0))
    with pytest.raises(TimedOut, match="rewriting"):
        len(searcher._reach("S", t))


# --- the scan bound ----------------------------------------------------------------


def test_a_pair_past_the_scan_cap_is_joined_within_the_bound():
    """R2's final split has one cp(S,S) pair with 560 ends on each side, so
    560 · 560 (a, b) combinations, past PAIR_SCAN_CAP.  The scan reads its
    first PAIR_SCAN_CAP // 560 = 71 left ends and finds the join there."""
    rep = decided(R2).report
    assert rep.criterion == "pcp"
    pt, run = Partition(rep.s, rep.p), Run()
    rules = pt.search_rules(run)

    def ends(t):
        return len(reach_set_bounded(t, rules, run.depth))

    wide = [pair for pair in pt.pairs("cp", "S", "S", run)
            if ends(pair.left) * ends(pair.right) > PAIR_SCAN_CAP]
    assert [(ends(pair.left), ends(pair.right)) for pair in wide] == [(560, 560)]
    ev = _Searcher(pt, run).join("i", CRITERION_TABLE["pcp"][2][0][2], wide[0])
    assert ev is not None


@pytest.mark.parametrize("k, joined", [(9, True), (10, False)])
def test_the_scan_reads_the_bound_of_left_ends_and_builds_no_more(k, joined, monkeypatch):
    """h(a,…,a) with ten arguments and a → b → c reaches 4,000 terms (the
    cap), and so does its k-th end e_k, so the scan reads 40,000 // 4,000 =
    10 left ends.  Each step moves one argument on, from a to b or from b to
    c, so every other term reachable from e_k comes after e_k among the left
    ends: (h(a,…,a), e_k) joins, by an empty step at e_k, exactly when e_k is
    among the first 10 left ends.  The left set is built only as far as the
    scan reads it: the 10 ends and at most one expansion's terms more."""
    a, b, c = App("a", ()), App("b", ()), App("c", ())
    pt, run = Partition(Trs([Rule(a, b, "ab"), Rule(b, c, "bc")]), empty_trs()), Run()
    u = App("h", (a,) * 10)
    e = list(reach_set_bounded(u, pt.s, run.depth))
    assert len(e) == len(reach_set_bounded(e[k], pt.s, run.depth)) == 4000
    built = {}

    def recording(t, *args, **kwargs):
        built[t] = reach_set_bounded(t, *args, **kwargs)
        return built[t]

    monkeypatch.setattr(criteria, "reach_set_bounded", recording)
    pair = SimpleNamespace(left=u, right=e[k], var_limit=None, variables=())
    ev = _Searcher(pt, run).join("i", CRITERION_TABLE["linear"][2][0][2], pair)
    assert (ev is not None) == joined
    bound = PAIR_SCAN_CAP // 4000
    assert bound <= len(built[u].paths) <= bound + len(u.args)

