"""Critical pairs and parallel critical pairs between rule systems.

cp(R, Q) overlaps rules of R onto left-hand sides of rules of Q: for a rule
l1 -> r1 of R, a rule l2 -> r2 of Q (renamed apart) and a function position p
of l2 unifiable with l1 (mgu s), the pair is <(l2 with r1 at p))s, r2 s> with
peak l2 s.  Root overlaps of a rule with its own variant are skipped.  Pairs
are deduplicated up to variable renaming, separately per kind; the first
provenance found is kept.

A pair's key is its identity up to renaming: the kind and the flat
`terms.shape_key` of (left, right), built in one walk without new terms.  A
parallel pair's key adds the indexes of its constrained variables, numbered
through left, right and then peak, so the peak counts only through the
variables it constrains.  The verifier matches joins to pairs by the same
keys (`parallel_key`).

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

cp checks the run's deadline once per outer rule, pcp_in once per position
set: a system's parallel critical pairs can be exponentially many.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product

from .rewriting import Rule, Trs
from .run import Run
from .terms import (
    Position,
    Subst,
    Term,
    all_parallel,
    apply,
    fun_subterms,
    replace_at,
    replace_parallel,
    shape_key,
    subterm_at,
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
        return (self.kind, shape_key((self.left, self.right))[0])

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
        return (self.kind,) + parallel_key(
            self.left, self.right, self.peak, self.var_limit)

    def __repr__(self):
        xs = "{" + ",".join(map(str, sorted(self.var_limit))) + "}"
        return f"<{self.left!r}, {self.right!r}>_{xs} ({self.kind})"


def parallel_key(left: Term, right: Term, peak: Term, var_limit) -> tuple:
    """The pair <left, right> up to renaming, with the indexes of its
    constrained variables.  Variables are numbered through left, right, then
    peak, so the peak only fixes the numbering of constrained variables that
    occur in neither side."""
    flat, index = shape_key((left, right))
    for v in shape_key((peak,))[1]:
        index.setdefault(v, len(index))
    return flat, frozenset(index[x] for x in var_limit)


def _dedup(pairs):
    seen = set()
    out = []
    for pr in pairs:
        k = pr.key()
        if k not in seen:
            seen.add(k)
            out.append(pr)
    return out


def cp(r_rules: Trs, q_rules: Trs, run: Run | None = None) -> list[CriticalPair]:
    """Critical pairs of rules from r_rules overlapping into q_rules."""
    run = run or Run()
    pairs = []
    for outer in q_rules:
        run.check("critical_pairs")
        subterms = fun_subterms(outer.lhs)
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


def cp_in(r_rules: Trs, q_rules: Trs, run: Run | None = None) -> list[CriticalPair]:
    return [pr for pr in cp(r_rules, q_rules, run) if pr.kind == "inner"]


def cp_out(r_rules: Trs, q_rules: Trs) -> list[CriticalPair]:
    return [pr for pr in cp(r_rules, q_rules) if pr.kind == "outer"]


def _overlapping(q_rules: Trs, outer: Rule) -> list[tuple[Position, list[Rule]]]:
    """Each inner function position of outer.lhs, in preorder, with the rules
    of q_rules (renamed apart, in system order) whose left side unifies with
    the subterm there; positions no rule overlaps are left out."""
    out = []
    for p, sub in fun_subterms(outer.lhs)[1:]:
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


def pcp_in(q_rules: Trs, r_rules: Trs, run: Run | None = None) -> list[ParallelCriticalPair]:
    """Inner parallel critical pairs of q_rules into r_rules."""
    run = run or Run()
    pairs = []
    for outer in r_rules:
        candidates = _overlapping(q_rules, outer)
        for n in range(1, len(candidates) + 1):
            for chosen in combinations(candidates, n):
                ps = [p for p, _ in chosen]
                if not all_parallel(ps):
                    continue
                run.check("critical_pairs")
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
