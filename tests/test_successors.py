"""Completion's successors against a reference copy of the earlier design.

The reference below is the candidate generation as it was before completion
took over every repair of a failing pair: the criteria S-normalized both sides
of each failing pair (a side without a normal form within the fuel standing
for itself), and a pair with a P∪P⁻¹ side was repaired by two mirror-image
routines, one for cp(S,PP) pairs and one for inner (PP,S) pairs.  Every
successors call made while deciding the inputs below must return the same
states, in the same order, as the reference.
"""
import pytest

from confl import completion, criteria
from confl.completion import (
    COMPLETION_CRITERIA,
    MAX_SUCCESSORS,
    Justification,
    SearchState,
    _addition_candidates,
    _forward,
    _replacement_candidates,
    _rule_names,
    _valid_rule,
    check_confluence,
    decompose,
)
from confl.criteria import Partition, check_criterion
from confl.critical_pairs import cp_in
from confl.rewriting import (
    FuelExhausted,
    Trs,
    normalize_steps,
    reach_bounded,
    reducts,
    step_at,
)
from confl.run import Run, TimedOut
from confl.trs_format import parse_trs

from systems import CHAIN3, CHAIN4, R2, R6, SWAP


# --- the reference ------------------------------------------------------------

def ref_nf(t, s):
    try:
        return normalize_steps(t, s, fuel=2_000)[0]
    except FuelExhausted:
        return t


def ref_maybe_inverse(rule):
    try:
        return rule.inverse()
    except ValueError:
        return None


def ref_reverse_steps(steps):
    out = []
    for st in reversed(steps):
        inv = ref_maybe_inverse(st.rule)
        if inv is None:
            return None
        rst = step_at(st.target, st.position, inv)
        if rst is None or rst.target != st.source:
            return None
        out.append(rst)
    return tuple(out)


def ref_addition_candidates(state, report, named, depth):
    s, p, rev = state.s, state.p, report.reversibility
    u_big, b_singles = [], []
    seen_keys = set()

    def remember(bucket, rule, conv_steps, s_steps):
        if rule is None or rule.key() in seen_keys:
            return
        if state.system().contains_variant(rule):
            return
        seen_keys.add(rule.key())
        steps = _forward(conv_steps, p, rev) + tuple(s_steps)
        bucket.append((rule, Justification("addition", rule, steps=steps)))

    for f in report.failing:
        pair = f.pair
        left_nf, right_nf = ref_nf(pair.left, s), ref_nf(pair.right, s)
        try:
            if f.origin == "cp(S,PP)" or (f.origin == "cp(PP,S)" and pair.kind == "outer"):
                if f.origin == "cp(PP,S)":
                    continue
                rule = _valid_rule(pair.right, left_nf, named)
                if rule is None:
                    continue
                inv = ref_maybe_inverse(pair.outer_rule)
                if inv is None:
                    continue
                st0 = step_at(pair.right, (), inv)
                if st0 is None or st0.target != pair.peak:
                    continue
                (pos, irule), = pair.redexes
                st1 = step_at(pair.peak, pos, irule)
                if st1 is None or st1.target != pair.left:
                    continue
                nf, nsteps = normalize_steps(pair.left, s, fuel=2_000)
                if nf != left_nf:
                    continue
                remember(u_big, rule, (st0,), (st1, *nsteps))
            elif f.origin == "cp(S,S)":
                if left_nf == right_nf:
                    continue
                conv = reach_bounded(left_nf, right_nf, p.with_inverses(), depth)
                if conv is None:
                    continue
                rule = _valid_rule(left_nf, right_nf, named)
                if rule is not None:
                    remember(u_big, rule, conv, ())
                rule2 = _valid_rule(right_nf, left_nf, named)
                if rule2 is not None:
                    rconv = ref_reverse_steps(conv)
                    if rconv is not None:
                        remember(u_big, rule2, rconv, ())
            elif f.origin in ("cp_in(PP,S)", "pcp_in(PP,S)") or (
                    f.origin == "cp(PP,S)" and pair.kind == "inner"):
                rule = _valid_rule(pair.left, right_nf, named)
                if rule is None:
                    continue
                cur, csteps, ok = pair.left, [], True
                for pos, irule in pair.redexes:
                    inv = ref_maybe_inverse(irule)
                    st = step_at(cur, pos, inv) if inv is not None else None
                    if st is None:
                        ok = False
                        break
                    csteps.append(st)
                    cur = st.target
                if not ok or cur != pair.peak:
                    continue
                st_root = step_at(pair.peak, (), pair.outer_rule)
                if st_root is None or st_root.target != pair.right:
                    continue
                nf, nsteps = normalize_steps(pair.right, s, fuel=2_000)
                if nf != right_nf:
                    continue
                remember(b_singles, rule, csteps, (st_root, *nsteps))
        except (ValueError, FuelExhausted):
            continue
    return u_big, b_singles


def ref_replacement_candidates(state, report, named):
    s, p, rev = state.s, state.p, report.reversibility
    pp = p.with_inverses()
    involved = set()
    for f in report.failing:
        pair = f.pair
        for r in [rule for _, rule in pair.redexes] + [pair.outer_rule]:
            if s.contains_variant(r):
                involved.add(r.key())
    out = []
    for rule in s:
        if rule.key() not in involved and not cp_in(pp, Trs([rule])):
            continue
        for st in reducts(rule.rhs, pp):
            new_rule = _valid_rule(rule.lhs, st.target, named)
            if new_rule is None or new_rule.key() == rule.key():
                continue
            if state.system().contains_variant(new_rule):
                continue
            out.append((rule, new_rule, Justification(
                "replacement", new_rule, old_rule=rule,
                steps=_forward((st,), p, rev),
                back=_forward(ref_reverse_steps((st,)), p, rev))))
    return out


def ref_successors(state, report, run):
    u_big, b_singles = ref_addition_candidates(state, report, run.named, run.depth)
    repls = ref_replacement_candidates(state, report, run.named)
    new_systems = []

    def extend(adds):
        q2 = state.system()
        hist = list(state.history)
        added = False
        for rule, just in adds:
            if q2.contains_variant(rule):
                continue
            q2 = q2.union(Trs([rule]))
            hist.append(just)
            added = True
        if added:
            new_systems.append((q2, tuple(hist)))

    if u_big:
        extend(u_big)
    if len(b_singles) > 1:
        extend(b_singles)
    for cand in u_big + b_singles:
        extend([cand])
    for old, new, just in repls:
        rest = [r for r in state.system() if r.key() != old.key()]
        try:
            q2 = Trs(rest + [new])
        except ValueError:
            continue
        new_systems.append((q2, tuple(state.history) + (just,)))

    out, seen = [], set()
    for q2, hist in new_systems:
        if q2.key() == state.system().key():
            continue
        for s2, p2 in decompose(q2, run):
            k = (s2.key(), p2.key())
            if k not in seen:
                seen.add(k)
                out.append(SearchState(s2, p2, hist))
        if len(out) >= MAX_SUCCESSORS:
            break
    return out[:MAX_SUCCESSORS]


# --- the comparison -----------------------------------------------------------

def identity(states):
    return [(st.s.key(), st.p.key(), st.history) for st in states]


@pytest.fixture(scope="module")
def successor_calls():
    """(input, criteria, successors' states, the reference's) for every
    successors call made while deciding each input once under all criteria
    and once under each single criterion.  R2 under pcp alone or linear alone
    is left out: each takes 25-40 s, in the joins of one split."""
    calls = []
    successors = completion.successors

    def compared(state, report, *, run):
        got = successors(state, report, run=run)
        calls.append((name, criteria, identity(got),
                      identity(ref_successors(state, report, run))))
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(completion, "successors", compared)
        for criteria in [COMPLETION_CRITERIA] + [(c,) for c in COMPLETION_CRITERIA]:
            for name, trs in (("R2", R2), ("R6", R6), ("chain3", CHAIN3),
                              ("chain4", CHAIN4), ("swap", SWAP)):
                if name != "R2" or criteria in (COMPLETION_CRITERIA, ("huet",)):
                    check_confluence(trs, criteria)
    return calls


def test_successors_match_the_reference(successor_calls):
    assert {name for name, _, _, _ in successor_calls} == {"R2", "R6", "chain3", "chain4", "swap"}
    for name, criteria, got, want in successor_calls:
        assert got == want, (name, criteria)
    assert any(got for _, _, got, _ in successor_calls)
    default = [c for c in successor_calls if c[1] == COMPLETION_CRITERIA]
    assert len(default) == 18
    assert len(successor_calls) >= 68


# --- fuel ---------------------------------------------------------------------

# P holds two commutativity rules, of + and of *.  S loops with the first
# (+(s(x),y) -> +(x,s(y)) then C), so it may not join inside an S∪P' reach
# set, and the (S,S) pairs of the two f rules are two nested C steps apart,
# where a parallel step does one.  Every pair of the pcp criterion fails, in
# each family it checks.
FUEL = parse_trs("""(VAR x y z)
(RULES
  +(s(x),y) -> +(x,s(y))
  f(x,y,z) -> +(x,+(y,z))
  f(x,y,z) -> +(+(z,y),x)
  g(*(x,y)) -> g(x)
  +(x,y) -> +(y,x)
  *(x,y) -> *(y,x)
)""")


def fuel_report():
    """The pcp criterion's state and report on FUEL split as S and P."""
    s, p = Trs(list(FUEL)[:4]), Trs(list(FUEL)[4:])
    return SearchState(s, p), check_criterion("pcp", Partition(s, p))


def fuel_candidates():
    """The failing pairs of the pcp criterion on FUEL by family, and the
    (lhs, rhs) of completion's addition candidates in their two buckets."""
    state, rep = fuel_report()
    pairs = {}
    for f in rep.failing:
        pairs.setdefault(f.origin, []).append(f.pair)
    assert sorted(pairs) == ["cp(S,PP)", "cp(S,S)", "pcp_in(PP,S)"]
    u_big, b_singles = _addition_candidates(state, rep, Run(named=_rule_names(FUEL)))
    return pairs, [(r.lhs, r.rhs) for r, _ in u_big], [(r.lhs, r.rhs) for r, _ in b_singles]


def test_every_failing_family_is_repaired_with_fuel():
    pairs, u_big, b_singles = fuel_candidates()
    ss, [spp], [pps] = pairs["cp(S,S)"][0], pairs["cp(S,PP)"], pairs["pcp_in(PP,S)"]
    assert u_big[:2] == [(ss.left, ss.right), (ss.right, ss.left)]
    assert [lhs for lhs, _ in u_big[2:]] == [spp.right]
    assert [lhs for lhs, _ in b_singles] == [pps.left]


def test_without_fuel_only_the_s_s_pair_is_repaired(monkeypatch):
    def exhausted(t, trs, fuel=10_000):
        raise FuelExhausted(f"no normal form within {fuel} steps")

    monkeypatch.setattr(criteria, "normalize_steps", exhausted)
    monkeypatch.setattr(completion, "normalize_steps", exhausted)
    pairs, u_big, b_singles = fuel_candidates()
    ss = pairs["cp(S,S)"][0]
    # the (S,S) pair's sides stand for their normal forms; the pairs with a
    # P∪P⁻¹ side have no normal form to be oriented towards
    assert u_big == [(ss.left, ss.right), (ss.right, ss.left)]
    assert b_singles == []


def test_addition_candidates_keep_the_deadline():
    # the (S,S) pair's sides are joined by a P∪P⁻¹ conversion search, which
    # calls the run's check before each term
    state, rep = fuel_report()
    with pytest.raises(TimedOut, match="rewriting"):
        _addition_candidates(state, rep, Run(named=_rule_names(FUEL), timeout=-1))


def test_successors_keep_the_deadline():
    state, rep = fuel_report()
    assert completion.successors(state, rep, run=Run(named=_rule_names(FUEL)))
    with pytest.raises(TimedOut, match="completion"):
        completion.successors(state, rep, run=Run(named=_rule_names(FUEL), timeout=-1))


def test_replacement_candidates_keep_the_deadline():
    # each rule of S is checked for replacements after the deadline check
    state, rep = fuel_report()
    with pytest.raises(TimedOut, match="completion"):
        _replacement_candidates(state, rep, Run(named=_rule_names(FUEL), timeout=-1))
