"""Reduction-preserving completion: search for an extension of the input
system, built from rewrites of existing rules, on which one of the
critical-pair criteria applies.  Additions and replacements are justified by
replayable conversion witnesses, so a YES verdict can be certified."""
import itertools
import time
from collections import deque
from dataclasses import dataclass

from .terms import funs
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
    DEFAULT_DEPTH,
    CriterionReport,
    Partition,
    PreconditionViolation,
    check_criterion,
)

COMPLETION_CRITERIA = ("pcp", "linear", "huet")
MAX_SUCCESSORS = 24


@dataclass(frozen=True)
class Justification:
    """One system transformation together with its side-condition witness.

    addition:    new ``rule`` with   rule.lhs ↔*_P mid →*_S rule.rhs
                 (conv_steps chain lhs to mid, s_steps chain mid to rhs)
    replacement: ``old_rule`` becomes ``rule`` (same lhs); conv_steps is the
                 single P∪P⁻¹ step old_rule.rhs → rule.rhs
    """

    kind: str  # "addition" | "replacement"
    s_names: tuple
    p_names: tuple
    rule: Rule
    old_rule: Rule | None = None
    conv_steps: tuple = ()
    s_steps: tuple = ()


@dataclass(frozen=True)
class SearchState:
    s: Trs
    p: Trs
    criterion: str
    history: tuple = ()

    def system(self) -> Trs:
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


def _maybe_inverse(rule: Rule) -> Rule | None:
    try:
        return rule.inverse()
    except ValueError:
        return None


def decompose(q: Trs, rev_bound: int = DEFAULT_DEPTH) -> list:
    """Candidate (S, P) splits of q: the largest reversible P whose rules
    either have their reversal in q or keep root and function symbols, plus
    the trivial split with empty P."""
    cand = []
    for r in q:
        if not r.is_bidirectional():
            continue
        inv = _maybe_inverse(r)
        reversed_in_q = inv is not None and q.contains_variant(inv)
        same_shape = (
            funs(r.lhs) == funs(r.rhs) and r.lhs.fn == r.rhs.fn
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


def _reverse_steps(steps):
    """Reverse a conversion chain (all rules must be invertible)."""
    out = []
    for st in reversed(steps):
        inv = _maybe_inverse(st.rule)
        if inv is None:
            return None
        rst = step_at(st.target, st.position, inv)
        if rst is None or rst.target != st.source:
            return None
        out.append(rst)
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


def _addition_candidates(state: SearchState, report: CriterionReport,
                         named, depth: int):
    """(big-union candidates, partition-repair candidates) derived from the
    failing pairs: each is a (rule, justification) pair."""
    s, p = state.s, state.p
    s_names = tuple(r.name for r in s)
    p_names = tuple(r.name for r in p)
    u_big, b_singles = [], []
    seen_keys = set()

    def remember(bucket, rule, conv_steps, s_steps):
        if rule is None or rule.key() in seen_keys:
            return
        if state.system().contains_variant(rule):
            return
        seen_keys.add(rule.key())
        bucket.append((rule, Justification(
            "addition", s_names, p_names, rule,
            conv_steps=tuple(conv_steps), s_steps=tuple(s_steps))))

    for f in report.failing:
        pair = f.pair
        try:
            if f.origin == "cp(S,PP)" or (f.origin == "cp(PP,S)" and pair.kind == "outer"):
                if f.origin == "cp(PP,S)":
                    continue  # mirrored by a cp(S,PP) pair
                # orient the P-side towards the S-normal form of the S-side
                rule = _valid_rule(pair.right, f.left_nf, named)
                if rule is None:
                    continue
                inv = _maybe_inverse(pair.outer_rule)
                if inv is None:
                    continue
                st0 = step_at(pair.right, (), inv)
                if st0 is None or st0.target != pair.peak:
                    continue
                st1 = step_at(pair.peak, pair.position, pair.inner_rule)
                if st1 is None or st1.target != pair.left:
                    continue
                nf, nsteps = normalize_steps(pair.left, s, fuel=2_000)
                if nf != f.left_nf:
                    continue
                remember(u_big, rule, (st0,), (st1, *nsteps))
            elif f.origin == "cp(S,S)":
                if f.left_nf == f.right_nf:
                    continue
                conv = conversion_bounded(f.left_nf, f.right_nf, p, depth)
                if conv is None:
                    continue
                rule = _valid_rule(f.left_nf, f.right_nf, named)
                if rule is not None:
                    remember(u_big, rule, conv, ())
                rule2 = _valid_rule(f.right_nf, f.left_nf, named)
                if rule2 is not None:
                    rconv = _reverse_steps(conv)
                    if rconv is not None:
                        remember(u_big, rule2, rconv, ())
            elif f.origin in ("cp_in(PP,S)", "pcp_in(PP,S)") or (
                    f.origin == "cp(PP,S)" and pair.kind == "inner"):
                rule = _valid_rule(pair.left, f.right_nf, named)
                if rule is None:
                    continue
                if isinstance(pair, ParallelCriticalPair):
                    redexes = list(zip(pair.positions, pair.inner_rules))
                else:
                    redexes = [(pair.position, pair.inner_rule)]
                cur, csteps, ok = pair.left, [], True
                for pos, irule in redexes:
                    inv = _maybe_inverse(irule)
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
                if nf != f.right_nf:
                    continue
                remember(b_singles, rule, csteps, (st_root, *nsteps))
        except (ValueError, FuelExhausted):
            continue
    return u_big, b_singles


def _replacement_candidates(state: SearchState, report: CriterionReport, named):
    """Rules of S implicated in failures, rewritten one P-step on the right."""
    s, p = state.s, state.p
    pp = p.with_inverses()
    s_names = tuple(r.name for r in s)
    p_names = tuple(r.name for r in p)
    involved = set()
    for f in report.failing:
        pair = f.pair
        if isinstance(pair, ParallelCriticalPair):
            prov = list(pair.inner_rules) + [pair.outer_rule]
        else:
            prov = [pair.inner_rule, pair.outer_rule]
        for r in prov:
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
                "replacement", s_names, p_names, new_rule,
                old_rule=rule, conv_steps=(st,))))
    return out


def successors(state: SearchState, report: CriterionReport, named,
               rev_bound: int = DEFAULT_DEPTH, depth: int = DEFAULT_DEPTH) -> list:
    u_big, b_singles = _addition_candidates(state, report, named, depth)
    repls = _replacement_candidates(state, report, named)

    new_systems = []

    def add_system(q2: Trs, hist):
        new_systems.append((q2, tuple(hist)))

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
            add_system(q2, hist)

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
        add_system(q2, list(state.history) + [just])

    out, seen = [], set()
    for q2, hist in new_systems:
        if q2.key() == state.system().key():
            continue
        for s2, p2 in decompose(q2, rev_bound):
            st2 = SearchState(s2, p2, state.criterion, hist)
            k = (s2.key(), p2.key(), state.criterion)
            if k not in seen:
                seen.add(k)
                out.append(st2)
        if len(out) >= MAX_SUCCESSORS:
            break
    return out[:MAX_SUCCESSORS]


def check_confluence(trs: Trs, criteria=COMPLETION_CRITERIA,
                     max_steps: int = 20, timeout: float = 60.0,
                     depth: int = DEFAULT_DEPTH, rev_bound: int = DEFAULT_DEPTH,
                     hook=None) -> CompletionResult:
    """Breadth-first completion over (S, P, criterion) states.  Returns YES
    with the successful report and state, or MAYBE with the last reason."""
    start = time.monotonic()
    named = _rule_names(trs)
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
    while queue:
        if time.monotonic() - start > timeout:
            return CompletionResult(
                "MAYBE", f"timed out after {explored} expansion(s)",
                explored=explored)
        state = queue.popleft()
        try:
            pt = Partition(state.s, state.p)
        except PreconditionViolation as exc:
            last_reason = str(exc)
            continue
        rep = check_criterion(state.criterion, pt, depth=depth, hook=hook)
        if rep.holds():
            return CompletionResult(
                "YES", f"criterion {rep.tag} holds after {len(state.history)} "
                       f"transformation step(s)",
                report=rep, state=state, explored=explored)
        last_reason = f"{state.criterion}: {rep.reason}"
        if explored >= max_steps or not rep.failing:
            continue
        explored += 1
        for nxt in successors(state, rep, named, rev_bound, depth):
            enqueue(nxt)
    return CompletionResult(
        "MAYBE", f"search exhausted after {explored} expansion(s); last: {last_reason}",
        explored=explored)
