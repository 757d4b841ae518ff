"""Rewrite rules, rule systems, single/parallel steps and bounded searches.

A Step is a checked witness: constructing one verifies that the claimed rule,
position and substitution really send the source to the target, so stored
evidence can always be replayed without trusting the search that found it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product

from .terms import (
    App,
    Position,
    Subst,
    Term,
    Var,
    all_parallel,
    apply,
    canonical_tuple,
    fresh_id,
    is_var,
    match_term,
    positions_fun,
    rename_term,
    renaming_apart,
    replace_at,
    replace_parallel,
    subterm_at,
    term_vars,
    var_ids,
)


class FuelExhausted(Exception):
    """normalize ran out of rewrite budget (possibly nonterminating input)."""


@dataclass(frozen=True)
class Rule:
    lhs: Term
    rhs: Term
    name: str = ""

    def __post_init__(self):
        if is_var(self.lhs):
            raise ValueError("rule left-hand side must not be a variable")
        if not var_ids(self.rhs) <= var_ids(self.lhs):
            raise ValueError(f"rule {self.name or self}: extra variables on the right")

    def key(self):
        """Identity up to renaming."""
        return self._key

    @cached_property
    def _key(self):
        # stored outside the fields, so == and hash are unaffected
        return canonical_tuple((self.lhs, self.rhs))

    def rename_apart(self) -> Rule:
        """A variant on fresh variables."""
        mapping = renaming_apart([self.lhs])
        return Rule(
            rename_term(self.lhs, mapping), rename_term(self.rhs, mapping), self.name
        )

    def inverse(self) -> Rule:
        return Rule(self.rhs, self.lhs, self.name + "~")

    def is_bidirectional(self) -> bool:
        return not is_var(self.rhs) and var_ids(self.lhs) == var_ids(self.rhs)

    def __repr__(self):
        tag = f"{self.name}: " if self.name else ""
        return f"{tag}{self.lhs!r} -> {self.rhs!r}"


def _linear(t: Term) -> bool:
    seen: set[int] = set()

    def walk(u: Term) -> bool:
        if isinstance(u, Var):
            if u.id in seen:
                return False
            seen.add(u.id)
            return True
        return all(walk(a) for a in u.args)
    return walk(t)


class Trs:
    """An ordered collection of rules with a consistent signature."""

    def __init__(self, rules):
        rules = list(rules)
        named = []
        for i, r in enumerate(rules):
            named.append(r if r.name else Rule(r.lhs, r.rhs, f"r{i + 1}"))
        names = [r.name for r in named]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate rule names: {names}")
        self.rules: tuple[Rule, ...] = tuple(named)
        self.signature: dict[str, int] = {}
        for r in self.rules:
            for t in (r.lhs, r.rhs):
                self._collect_signature(t)

    def _collect_signature(self, t: Term):
        if isinstance(t, App):
            known = self.signature.setdefault(t.fn, len(t.args))
            if known != len(t.args):
                raise ValueError(
                    f"symbol {t.fn} used with arities {known} and {len(t.args)}"
                )
            for a in t.args:
                self._collect_signature(a)

    def __iter__(self):
        return iter(self.rules)

    def __len__(self):
        return len(self.rules)

    def __repr__(self):
        return f"Trs({list(self.rules)!r})"

    def __eq__(self, other):
        return isinstance(other, Trs) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def key(self):
        """Set identity up to renaming and rule order."""
        return frozenset(r.key() for r in self.rules)

    def rule(self, name: str) -> Rule:
        for r in self.rules:
            if r.name == name:
                return r
        raise KeyError(name)

    def left_linear(self) -> bool:
        return all(_linear(r.lhs) for r in self.rules)

    def linear(self) -> bool:
        return all(_linear(r.lhs) and _linear(r.rhs) for r in self.rules)

    def bidirectional(self) -> bool:
        """Every rule can be flipped and still be a rule."""
        return all(r.is_bidirectional() for r in self.rules)

    def contains_variant(self, rule: Rule) -> bool:
        return rule.key() in {r.key() for r in self.rules}

    def inverse(self) -> Trs:
        if not self.bidirectional():
            raise ValueError("inverse requires a bidirectional system")
        return Trs([r.inverse() for r in self.rules])

    def union(self, other) -> Trs:
        out = list(self.rules)
        keys = {r.key() for r in out}
        names = {r.name for r in out}
        for r in other:
            if r.key() in keys:
                continue
            name = r.name
            while name in names:
                name += "'"
            out.append(Rule(r.lhs, r.rhs, name))
            keys.add(r.key())
            names.add(name)
        return Trs(out)

    def with_inverses(self) -> Trs:
        """The symmetric closure P ∪ P⁻¹, variants deduplicated."""
        return self.union(self.inverse())


def empty_trs() -> Trs:
    return Trs([])


# --- single steps -------------------------------------------------------------


@dataclass(frozen=True)
class Step:
    source: Term
    target: Term
    position: Position
    rule: Rule
    subst: Subst = field(compare=False)

    def __post_init__(self):
        lhs_inst = apply(self.subst, self.rule.lhs)
        if subterm_at(self.source, self.position) != lhs_inst:
            raise ValueError("step does not match its rule at its position")
        rhs_inst = apply(self.subst, self.rule.rhs)
        if replace_at(self.source, self.position, rhs_inst) != self.target:
            raise ValueError("step target does not follow from rule application")

    def __repr__(self):
        p = ".".join(map(str, self.position)) or "e"
        return f"{self.source!r} -[{self.rule.name}@{p}]-> {self.target!r}"


def step_at(t: Term, p: Position, rule: Rule) -> Step | None:
    m = match_term(rule.lhs, subterm_at(t, p))
    if m is None:
        return None
    return Step(t, replace_at(t, p, apply(m, rule.rhs)), p, rule, m)


def reducts(t: Term, trs: Trs) -> list[Step]:
    """All one-step rewrites of t, positions in preorder, rules in order."""
    out = []
    for p in positions_fun(t):
        for rule in trs:
            s = step_at(t, p, rule)
            if s is not None:
                out.append(s)
    return out


def is_nf(t: Term, trs: Trs) -> bool:
    return all(
        match_term(rule.lhs, subterm_at(t, p)) is None
        for p in positions_fun(t)
        for rule in trs
    )


def _positions_postorder(t: Term, at: Position = ()):
    if isinstance(t, App):
        for i, a in enumerate(t.args, start=1):
            yield from _positions_postorder(a, at + (i,))
    yield at


def normalize_steps(t: Term, trs: Trs, fuel: int = 10_000):
    """Leftmost-innermost normalization returning (normal form, steps)."""
    steps = []
    changed = True
    while changed:
        changed = False
        for p in _positions_postorder(t):
            if isinstance(subterm_at(t, p), Var):
                continue
            for rule in trs:
                st = step_at(t, p, rule)
                if st is not None:
                    if len(steps) >= fuel:
                        raise FuelExhausted(f"no normal form within {fuel} steps")
                    steps.append(st)
                    t = st.target
                    changed = True
                    break
            if changed:
                break
    return t, steps


def normalize(t: Term, trs: Trs, fuel: int = 10_000) -> Term:
    """Leftmost-innermost normal form; raises FuelExhausted if fuel runs out."""
    budget = [fuel]

    def go(u: Term) -> Term:
        if isinstance(u, Var):
            return u
        u = App(u.fn, tuple(go(a) for a in u.args))
        for rule in trs:
            m = match_term(rule.lhs, u)
            if m is not None:
                if budget[0] <= 0:
                    raise FuelExhausted(f"no normal form within {fuel} steps")
                budget[0] -= 1
                return go(apply(m, rule.rhs))
        return u

    return go(t)


# --- parallel steps -----------------------------------------------------------


@dataclass(frozen=True)
class ParallelStep:
    """Simultaneous contraction of pairwise parallel redexes (possibly none)."""

    source: Term
    target: Term
    parts: tuple  # of (position, rule, subst)

    def __post_init__(self):
        ps = [p for p, _, _ in self.parts]
        if not all_parallel(ps):
            raise ValueError(f"parallel step positions overlap: {ps}")
        repl = []
        for p, rule, subst in self.parts:
            if subterm_at(self.source, p) != apply(subst, rule.lhs):
                raise ValueError("parallel step part does not match its rule")
            repl.append((p, apply(subst, rule.rhs)))
        if replace_parallel(self.source, repl) != self.target:
            raise ValueError("parallel step target mismatch")

    @property
    def positions(self) -> tuple[Position, ...]:
        return tuple(p for p, _, _ in self.parts)

    def __repr__(self):
        ps = ",".join(".".join(map(str, p)) or "e" for p in self.positions)
        return f"{self.source!r} =[{ps}]=> {self.target!r}"


def _parallel_options(s: Term, t: Term, trs: Trs, limit: int):
    """All redex-part lists turning s into t in one parallel step."""
    options = []
    if s == t:
        options.append([])
    for rule in trs:
        m = match_term(rule.lhs, s)
        if m is not None and apply(m, rule.rhs) == t:
            options.append([((), rule, m)])
    if (
        isinstance(s, App)
        and isinstance(t, App)
        and s.fn == t.fn
        and len(s.args) == len(t.args)
        and s.args  # no point decomposing constants
    ):
        per_arg = []
        for a, b in zip(s.args, t.args):
            opts = _parallel_options(a, b, trs, limit)
            if not opts:
                per_arg = None
                break
            per_arg.append(opts)
        if per_arg is not None:
            for combo in product(*per_arg):
                parts = []
                for i, sub in enumerate(combo, start=1):
                    parts.extend(((i,) + p, r, m) for p, r, m in sub)
                if parts:  # bare identity already covered when s == t
                    options.append(parts)
                if len(options) > limit:
                    break
    # several routes can contract the same positions with the same rules
    seen = set()
    out = []
    for parts in options:
        key = tuple((p, r.name) for p, r, _ in parts)
        if key not in seen:
            seen.add(key)
            out.append(parts)
    return out


def parallel_step_witnesses(
    s: Term, t: Term, trs: Trs, limit: int = 500
) -> list[ParallelStep]:
    """Every parallel step from s to t (distinct redex sets), small first."""
    opts = _parallel_options(s, t, trs, limit)
    opts.sort(key=lambda parts: (len(parts), [p for p, _, _ in parts]))
    return [ParallelStep(s, t, tuple(parts)) for parts in opts[:limit]]


def parallel_step_exists(s: Term, t: Term, trs: Trs) -> ParallelStep | None:
    """One parallel step from s to t if any (identity counts)."""
    wits = parallel_step_witnesses(s, t, trs, limit=1)
    return wits[0] if wits else None


# --- bounded reachability -----------------------------------------------------


def reach_set_bounded(
    s: Term, trs: Trs, depth: int, cap: int = 4000
) -> dict[Term, tuple[Step, ...]]:
    """Breadth-first reachable set within `depth` steps, with shortest
    witness paths; iteration order is discovery order (s itself first)."""
    paths: dict[Term, tuple[Step, ...]] = {s: ()}
    frontier = deque([(s, 0)])
    while frontier:
        t, d = frontier.popleft()
        if d >= depth:
            continue
        for step in reducts(t, trs):
            if step.target not in paths:
                if len(paths) >= cap:
                    return paths
                paths[step.target] = paths[t] + (step,)
                frontier.append((step.target, d + 1))
    return paths


def reach_bounded(s: Term, goal, trs: Trs, depth: int, cap: int = 4000):
    """Shortest rewrite sequence (list of Steps) from s to a goal, or None.

    `goal` is a term or a predicate on terms; the empty sequence is allowed.
    """
    want = goal if callable(goal) else (lambda t: t == goal)
    if want(s):
        return []
    paths: dict[Term, tuple[Step, ...]] = {s: ()}
    frontier = deque([(s, 0)])
    while frontier:
        t, d = frontier.popleft()
        if d >= depth:
            continue
        for step in reducts(t, trs):
            if step.target in paths:
                continue
            path = paths[t] + (step,)
            if want(step.target):
                return list(path)
            if len(paths) >= cap:
                return None
            paths[step.target] = path
            frontier.append((step.target, d + 1))
    return None


def conversion_bounded(s: Term, t: Term, p_rules: Trs, depth: int, cap: int = 4000):
    """Conversion s ↔* t using steps of a bidirectional system in either
    orientation, as a list of Steps over p_rules ∪ p_rules⁻¹; None if not
    found within the bound."""
    return reach_bounded(s, t, p_rules.with_inverses(), depth, cap)


def replay_steps(s: Term, steps, trs: Trs | None = None) -> Term:
    """Re-check a step sequence starting at s; returns the end term.

    Each Step re-validates itself on construction, so here we only need
    chaining, membership of the rules, and source equality.
    """
    cur = s
    keys = {r.key() for r in trs} if trs is not None else None
    for st in steps:
        if st.source != cur:
            raise ValueError("step sequence does not chain")
        if keys is not None and st.rule.key() not in keys:
            raise ValueError(f"step uses foreign rule {st.rule.name}")
        # reconstruct to force the checked-constructor validation
        Step(st.source, st.target, st.position, st.rule, st.subst)
        cur = st.target
    return cur
