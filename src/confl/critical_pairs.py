"""Critical pairs and parallel critical pairs between rule systems.

cp(R, Q) overlaps rules of R onto left-hand sides of rules of Q: for a rule
l1 -> r1 of R, a rule l2 -> r2 of Q (renamed apart) and a function position p
of l2 unifiable with l1 (mgu s), the pair is <(l2 with r1 at p))s, r2 s> with
peak l2 s.  Root overlaps of a rule with its own variant are skipped.  Pairs
are deduplicated up to variable renaming, separately per kind; the first
provenance found is kept.

pcp_in(Q, R) generalizes the inner case to any nonempty set of pairwise
parallel non-root function positions rewritten simultaneously by rules of Q,
and records the variable set X occurring in the rewritten part of the peak,
which downstream joinability conditions constrain.

Enumeration order is part of the contract, because deduplication keeps the
first provenance, and certificate text and evidence order follow the pair
order.  cp goes through outer rules, then inner rules, in system order, then
positions in left-to-right preorder.  pcp_in goes through outer rules in
system order, then position sets by size and, within a size,
lexicographically by preorder index, then tuples of inner rules in system
order, the rule at the first position varying slowest.  pcp_in never builds
a tuple that cannot unify: a rule is tried at a set of positions only if its
left side unifies with the subterm at each of them on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product

from .rewriting import Rule, Trs
from .terms import (
    Position,
    Subst,
    Term,
    all_parallel,
    apply,
    canonical_tuple,
    positions_fun,
    replace_at,
    replace_parallel,
    subterm_at,
    term_vars,
    unify_all,
    var_ids,
)


@dataclass(frozen=True)
class CriticalPair:
    left: Term
    right: Term
    kind: str  # "outer" (root overlap) or "inner"
    peak: Term = field(compare=False)
    inner_rule: Rule = field(compare=False)
    outer_rule: Rule = field(compare=False)
    position: Position = field(compare=False)
    mgu: Subst = field(compare=False)

    def key(self):
        return (self.kind,) + canonical_tuple((self.left, self.right))

    def __repr__(self):
        return f"<{self.left!r}, {self.right!r}> ({self.kind})"


@dataclass(frozen=True)
class ParallelCriticalPair:
    left: Term
    right: Term
    kind: str  # "inner" or "outer"
    peak: Term = field(compare=False)
    inner_rules: tuple = field(compare=False)  # one Rule per position
    outer_rule: Rule = field(compare=False)
    positions: tuple = field(compare=False)
    mgu: Subst = field(compare=False)
    var_limit: frozenset = frozenset()  # ids of the constrained variables X

    def key(self):
        # peak last so the (left, right) canonical forms are unaffected by it
        canon = canonical_tuple((self.left, self.right, self.peak))
        mapping = {}
        for t, c in zip((self.left, self.right, self.peak), canon):
            for v, cv in zip(term_vars(t), term_vars(c)):
                mapping[v.id] = cv.id
        return (
            self.kind,
            canon[0],
            canon[1],
            frozenset(mapping[x] for x in self.var_limit),
        )

    def __repr__(self):
        xs = "{" + ",".join(map(str, sorted(self.var_limit))) + "}"
        return f"<{self.left!r}, {self.right!r}>_{xs} ({self.kind})"


def _dedup(pairs):
    seen = set()
    out = []
    for pr in pairs:
        k = pr.key()
        if k not in seen:
            seen.add(k)
            out.append(pr)
    return out


def cp(r_rules: Trs, q_rules: Trs) -> list[CriticalPair]:
    """Critical pairs of rules from r_rules overlapping into q_rules."""
    pairs = []
    for outer in q_rules:
        subterms = [(p, subterm_at(outer.lhs, p)) for p in positions_fun(outer.lhs)]
        for inner in r_rules:
            ren = None  # renamed apart at the first position with its head symbol
            self_overlap = inner.key() == outer.key()
            for p, sub in subterms:
                if sub.fn != inner.lhs.fn or (p == () and self_overlap):
                    continue
                ren = ren or inner.rename_apart()
                sigma = unify_all([(ren.lhs, sub)])
                if sigma is None:
                    continue
                pairs.append(
                    CriticalPair(
                        left=apply(sigma, replace_at(outer.lhs, p, ren.rhs)),
                        right=apply(sigma, outer.rhs),
                        kind="outer" if p == () else "inner",
                        peak=apply(sigma, outer.lhs),
                        inner_rule=ren,
                        outer_rule=outer,
                        position=p,
                        mgu=sigma,
                    )
                )
    return _dedup(pairs)


def cp_in(r_rules: Trs, q_rules: Trs) -> list[CriticalPair]:
    return [pr for pr in cp(r_rules, q_rules) if pr.kind == "inner"]


def cp_out(r_rules: Trs, q_rules: Trs) -> list[CriticalPair]:
    return [pr for pr in cp(r_rules, q_rules) if pr.kind == "outer"]


def _overlapping(q_rules: Trs, outer: Rule) -> list[tuple[Position, list[Rule]]]:
    """Each inner function position of outer.lhs, in preorder, with the rules
    of q_rules (renamed apart, in system order) whose left side unifies with
    the subterm there; positions no rule overlaps are left out."""
    out = []
    for p in positions_fun(outer.lhs):
        if p == ():
            continue
        sub = subterm_at(outer.lhs, p)
        rules = []
        for r in q_rules:
            if r.lhs.fn != sub.fn:
                continue
            rr = r.rename_apart()
            if unify_all([(rr.lhs, sub)]) is not None:
                rules.append(rr)
        if rules:
            out.append((p, rules))
    return out


def pcp_in(q_rules: Trs, r_rules: Trs) -> list[ParallelCriticalPair]:
    """Inner parallel critical pairs of q_rules into r_rules."""
    pairs = []
    for outer in r_rules:
        candidates = _overlapping(q_rules, outer)
        for n in range(1, len(candidates) + 1):
            for chosen in combinations(candidates, n):
                ps = [p for p, _ in chosen]
                if not all_parallel(ps):
                    continue
                for renamed in product(*(rules for _, rules in chosen)):
                    sigma = unify_all(
                        [(rr.lhs, subterm_at(outer.lhs, p)) for rr, p in zip(renamed, ps)]
                    )
                    if sigma is None:
                        continue
                    peak = apply(sigma, outer.lhs)
                    left = apply(
                        sigma,
                        replace_parallel(
                            outer.lhs, [(p, rr.rhs) for rr, p in zip(renamed, ps)]
                        ),
                    )
                    x_ids = frozenset(
                        v for p in ps for v in var_ids(subterm_at(peak, p))
                    )
                    pairs.append(
                        ParallelCriticalPair(
                            left=left,
                            right=apply(sigma, outer.rhs),
                            kind="inner",
                            peak=peak,
                            inner_rules=tuple(renamed),
                            outer_rule=outer,
                            positions=tuple(ps),
                            mgu=sigma,
                            var_limit=x_ids,
                        )
                    )
    return _dedup(pairs)
