"""Reduction-preserving completion: search for an extension of the input
system, built from rewrites of existing rules, on which one of the
critical-pair criteria applies.  Additions and replacements are justified by
forward rewrite sequences in the current system, which show that the
transformation keeps →* unchanged, so a YES verdict can be certified.

The criteria only report which pairs failed; every repair is derived here.
An (S,S) pair gives rules between the S-normal forms of its two sides, each
justified by a P-conversion.  A pair t₁ ← s → t₂ with one P∪P⁻¹ step gives
the rule from that P side to the S-normal form of the other side, derived
through the peak: back to s by P steps (P is reversible, so a P⁻¹ step becomes
the P steps that undo it), then on by the pair's S step and the S steps to the
normal form.  Normalization stops after 2,000 steps: an (S,S) side without a
normal form by then stands for itself, and a pair with a P side whose other
side has none gives no rule."""
import itertools
from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .terms import signature
from .rewriting import (
    FuelExhausted,
    Rule,
    Trs,
    conversion_bounded,
    empty_trs,
    normalize_steps,
    reach_bounded,
    reducts,
    step_at,
)
from .critical_pairs import ParallelCriticalPair, cp_in
from .criteria import (
    CriterionReport,
    Partition,
    PreconditionViolation,
    check_criterion,
)
from .run import DEFAULT_DEPTH, Run, TimedOut

COMPLETION_CRITERIA = ("pcp", "linear", "huet")
MAX_SUCCESSORS = 24


@dataclass(frozen=True)
class Justification:
    """One transformation of the current system Q, witnessed by forward
    rewrite steps (history steps are derivations, not conversions).

    addition:    new ``rule`` l -> r with ``steps`` l →*_Q r
    replacement: ``old_rule`` l -> r becomes ``rule`` l -> r' with ``steps``
                 r →*_Q r' and ``back`` r' →*_Q' r, Q' the system after it

    Either way →*_Q' = →*_Q, so the final system is confluent exactly when
    the input is.
    """

    kind: str  # "addition" | "replacement"
    rule: Rule
    old_rule: Rule | None = None
    steps: tuple = ()
    back: tuple = ()


@dataclass(frozen=True)
class SearchState:
    s: Trs
    p: Trs
    criterion: str
    history: tuple = ()

    def system(self) -> Trs:
        return self._system

    @cached_property
    def _system(self) -> Trs:  # Q = S ∪ P, built once per state
        return self.s.union(self.p)


@dataclass
class CompletionResult:
    verdict: str  # "YES" | "MAYBE"
    reason: str
    report: CriterionReport | None = None
    state: SearchState | None = None
    explored: int = 0

    @property
    def history(self) -> tuple:
        return self.state.history if self.state is not None else ()


def decompose(q: Trs, rev_bound: int = DEFAULT_DEPTH) -> list:
    """Candidate (S, P) splits of q: the largest reversible P whose rules
    either have their reversal in q or keep root and function symbols, plus
    the trivial split with empty P."""
    cand = []
    for r in q:
        if not r.is_bidirectional():
            continue
        reversed_in_q = q.contains_variant(r.inverse())
        same_shape = (
            r.lhs.fn == r.rhs.fn and signature([r.lhs]) == signature([r.rhs])
        )
        if reversed_in_q or same_shape:
            cand.append(r)
    # prune until every candidate rule is undone inside the candidate set
    while cand:
        p = Trs(cand)
        keep = [r for r in cand if reach_bounded(r.rhs, r.lhs, p, rev_bound) is not None]
        if len(keep) == len(cand):
            break
        cand = keep
    out = []
    if cand:
        p = Trs(cand)
        s = Trs([r for r in q if not p.contains_variant(r)])
        out.append((s, p))
    if not cand or len(cand) < len(q):
        out.append((q, empty_trs()))
    return out


def _path(t, moves, end):
    """The steps of the moves [(position, rule)] applied in order from t, or
    None unless each move applies and the last one ends at `end`."""
    steps = []
    for pos, rule in moves:
        st = step_at(t, pos, rule)
        if st is None:
            return None
        steps.append(st)
        t = st.target
    return tuple(steps) if t == end else None


def _reverse_steps(steps):
    """The steps undone in reverse order by the inverses of their rules,
    which must be bidirectional."""
    moves = [(st.position, st.rule.inverse()) for st in reversed(steps)]
    return _path(steps[-1].target, moves, steps[0].source)


def _forward(steps, p: Trs, rev) -> tuple:
    """The P∪P⁻¹ steps as forward P steps: each P⁻¹ step is replaced by its P
    rule's reversal sequence from the witness rev, shifted to its position."""
    fwd = {r.key(): r for r in p}
    undo = {r.inverse().key(): rev.sequence(r.name) for r in p}
    out = []
    for st in steps:
        rule = fwd.get(st.rule.key())
        chain = ([(st.position, rule)] if rule is not None else
                 [(st.position + rs.position, rs.rule) for rs in undo[st.rule.key()]])
        out.extend(_path(st.source, chain, st.target))
    return tuple(out)


def _rule_names(trs: Trs):
    """One name per rule for the whole run: a rule is named by its canonical
    key, with the input's own name or else the first q<n> no input rule uses.
    Returns the function that names a rule."""
    names = {r.key(): r.name for r in trs}
    taken = {r.name for r in trs}
    unused = (f"q{i}" for i in itertools.count(1) if f"q{i}" not in taken)

    def named(rule: Rule) -> Rule:
        key = rule.key()
        if key not in names:
            names[key] = next(unused)
        return Rule(rule.lhs, rule.rhs, names[key])
    return named


def _valid_rule(lhs, rhs, named):
    if lhs == rhs:
        return None
    try:
        return named(Rule(lhs, rhs))
    except ValueError:
        return None


def _inner_redexes(pair) -> list:
    """[(position, rule)] of the pair's inner step: one redex for a critical
    pair, one per position for a parallel critical pair."""
    if isinstance(pair, ParallelCriticalPair):
        return list(zip(pair.positions, pair.inner_rules))
    return [(pair.position, pair.inner_rule)]


def _normal_form(t, s: Trs):
    """(S-normal form of t, the steps to it), or None when S does not reach
    one within 2,000 steps."""
    try:
        return normalize_steps(t, s, fuel=2_000)
    except FuelExhausted:
        return None


def _through_peak(f, s: Trs, named):
    """The repair of a failing pair t₁ ← peak → t₂ with one P∪P⁻¹ side: the
    rule from its P side to the S-normal form of the other side.  Returns
    (rule, P∪P⁻¹ steps back to the peak, S steps from the peak to the normal
    form), or None."""
    pair = f.pair
    if f.origin == "cp(S,PP)":  # the P side is the outer rule's reduct
        p_side, other = pair.right, pair.left
        back, forward = [((), pair.outer_rule.inverse())], _inner_redexes(pair)
    else:  # an inner (PP,S) pair: the P side holds the inner reducts
        p_side, other = pair.left, pair.right
        back = [(pos, rule.inverse()) for pos, rule in _inner_redexes(pair)]
        forward = [((), pair.outer_rule)]
    found = _normal_form(other, s)
    if found is None:
        return None
    nf, nsteps = found
    rule = _valid_rule(p_side, nf, named)
    if rule is None:
        return None
    to_peak = _path(p_side, back, pair.peak)
    from_peak = _path(pair.peak, forward, other)
    if to_peak is None or from_peak is None:
        return None
    return rule, to_peak, from_peak + tuple(nsteps)


def _addition_candidates(state: SearchState, report: CriterionReport, run: Run):
    """(big-union candidates, partition-repair candidates) derived from the
    failing pairs: each is a (rule, justification) pair."""
    s, p, rev, named = state.s, state.p, report.reversibility, run.named
    u_big, b_singles = [], []
    seen_keys = set(state.system().key())

    def remember(bucket, rule, conv_steps, s_steps):
        if rule is None or rule.key() in seen_keys:
            return
        seen_keys.add(rule.key())
        steps = _forward(conv_steps, p, rev) + tuple(s_steps)
        bucket.append((rule, Justification("addition", rule, steps=steps)))

    for f in report.failing:
        pair = f.pair
        if f.origin == "cp(S,S)":
            # a side S does not normalize within the fuel stands for itself
            left, right = ((_normal_form(t, s) or (t,))[0] for t in (pair.left, pair.right))
            if left == right:
                continue
            conv = conversion_bounded(left, right, p, run.depth)
            if conv is None:
                continue
            remember(u_big, _valid_rule(left, right, named), conv, ())
            rule2 = _valid_rule(right, left, named)
            if rule2 is not None:
                rconv = _reverse_steps(conv)
                if rconv is not None:
                    remember(u_big, rule2, rconv, ())
        elif f.origin == "cp(S,PP)" or (f.origin.endswith("(PP,S)") and pair.kind == "inner"):
            # an outer (PP,S) pair mirrors a cp(S,PP) pair, so it is left out
            found = _through_peak(f, s, named)
            if found is not None:
                remember(u_big if f.origin == "cp(S,PP)" else b_singles, *found)
    return u_big, b_singles


def _replacement_candidates(state: SearchState, report: CriterionReport, run: Run):
    """Rules of S implicated in failures, rewritten one P-step on the right."""
    s, p, rev, named = state.s, state.p, report.reversibility, run.named
    q, pp = state.system(), p.with_inverses()
    involved = set()
    for f in report.failing:
        pair = f.pair
        for r in [rule for _, rule in _inner_redexes(pair)] + [pair.outer_rule]:
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
            if q.contains_variant(new_rule):
                continue
            out.append((rule, new_rule, Justification(
                "replacement", new_rule, old_rule=rule,
                steps=_forward((st,), p, rev),
                back=_forward(_reverse_steps((st,)), p, rev))))
    return out


def successors(state: SearchState, report: CriterionReport, run: Run) -> list:
    u_big, b_singles = _addition_candidates(state, report, run)
    repls = _replacement_candidates(state, report, run)
    q = state.system()

    new_systems = []

    def extend(adds):
        # _addition_candidates leaves no rule with a variant in q and no repeat
        q2, hist = q, state.history
        for rule, just in adds:
            q2, hist = q2.union(Trs([rule])), hist + (just,)
        new_systems.append((q2, hist))

    if u_big:
        extend(u_big)
    if len(b_singles) > 1:
        extend(b_singles)
    for cand in u_big + b_singles:
        extend([cand])
    for old, new, just in repls:
        try:
            q2 = q.replace(old, new)
        except ValueError:
            continue
        new_systems.append((q2, state.history + (just,)))

    out, seen = [], set()
    q_key = q.key()
    for q2, hist in new_systems:
        if q2.key() == q_key:
            continue
        for s2, p2 in decompose(q2, run.rev_bound):
            k = (s2.key(), p2.key(), state.criterion)
            if k not in seen:
                seen.add(k)
                out.append(SearchState(s2, p2, state.criterion, hist))
        if len(out) >= MAX_SUCCESSORS:
            break
    return out[:MAX_SUCCESSORS]


def check_confluence(trs: Trs, criteria=COMPLETION_CRITERIA,
                     max_steps: int = 20, timeout: float = 60.0,
                     depth: int = DEFAULT_DEPTH, rev_bound: int = DEFAULT_DEPTH,
                     hook=None) -> CompletionResult:
    """Breadth-first completion over (S, P, criterion) states.  Returns YES
    with the successful report and state, or MAYBE with the last reason."""
    run = Run(depth, rev_bound, hook, timeout, named=_rule_names(trs))
    queue: deque = deque()
    seen = set()

    def enqueue(st: SearchState):
        k = (st.s.key(), st.p.key(), st.criterion)
        if k not in seen:
            seen.add(k)
            queue.append(st)

    for s0, p0 in decompose(trs, rev_bound):
        for crit in criteria:
            enqueue(SearchState(s0, p0, crit))

    explored = 0
    last_reason = "no applicable partition"
    try:
        while queue:
            run.check("completion")
            state = queue.popleft()
            try:
                pt = Partition(state.s, state.p)
            except PreconditionViolation as exc:
                last_reason = str(exc)
                continue
            rep = check_criterion(state.criterion, pt, run=run)
            if rep.holds():
                return CompletionResult(
                    "YES", f"criterion {rep.tag} holds after {len(state.history)} "
                           f"transformation step(s)",
                    report=rep, state=state, explored=explored)
            last_reason = f"{state.criterion}: {rep.reason}"
            if explored >= max_steps or not rep.failing:
                continue
            explored += 1
            for nxt in successors(state, rep, run=run):
                enqueue(nxt)
    except TimedOut as exc:
        return CompletionResult(
            "MAYBE", f"timed out in {exc.layer} after {explored} expansion(s)",
            explored=explored)
    return CompletionResult(
        "MAYBE", f"search exhausted after {explored} expansion(s); last: {last_reason}",
        explored=explored)
