"""Critical pairs and parallel critical pairs between rule systems.

cp(R, Q) overlaps rules of R onto left-hand sides of rules of Q: for a rule
l1 -> r1 of R, a rule l2 -> r2 of Q (renamed apart) and a function position p
of l2 unifiable with l1 (mgu s), the pair is <(l2 with r1 at p))s, r2 s> with
peak l2 s.  Root overlaps of a rule with its own variant are skipped.  Pairs
are deduplicated up to variable renaming, separately per kind; the first
provenance found is kept.  cp renames each inner rule apart once per call,
at its first overlap, and unifies that one variant with every outer rule's
positions: each pair unifies it with a single subterm of a single outer left
side, so its pairs need no variables apart from each other's.  The prover
asks for each family once per (S, P) split (`criteria.Partition.pairs`).

cp and pcp_in build a family from blocks kept in a run's pair memo
(`Run.pairs`), so each rule pair is overlapped once per completion run
however many splits and successors hold it, as completion provers overlap
each new rule with the kept ones once (the given-clause discipline of
DISCOUNT and Waldmeister).  Without a run they use a fresh Run's memo, so
each block is generated once per call.  cp keeps one block per (outer
rule, inner rule), pcp_in one per outer rule, keyed also by the inner rules
and by whether tuples are unified jointly, which depends on the whole outer
system.  Keys are the Rule objects, names included, since a pair records
its rules.  A family is its blocks concatenated in enumeration order and
deduplicated on every call, so it has the same pairs whatever the memo
held, up to the variables of memoized pairs.  Only a block generated in a
call renames its inner rule, in that call: a rule made from a memoized pair
carries that pair's variables, so a variant kept for the whole run would
not be apart from it.  A block cut off by the deadline stores nothing.

Both kinds of pair are one record, `CriticalPair`.  Its `redexes` are the
(position, inner rule renamed apart) of its inner step, as in
`rewriting.ParallelStep.parts`: one for an ordinary pair, one per position
for a parallel one.  Its `var_limit` is None for an ordinary pair and the
set X of a parallel pair, possibly empty.

A pair's key is its identity up to renaming: the kind and the flat
`terms.shape_key` of (left, right), built in one walk without new terms and
kept on the pair, so deduplicating memoized pairs again costs no walk.  A
parallel pair's key adds the indexes of its constrained variables, numbered
through left, right and then peak, so the peak counts only through the
variables it constrains.  The same walk gives `variables`, the ids of the
sides' variables in that numbering, by which a certificate names a join's.

pcp_in(Q, R) generalizes the inner case to any nonempty set of pairwise
parallel non-root function positions rewritten simultaneously by rules of Q,
and records the variable set X occurring in the rewritten part of the peak,
which downstream joinability conditions constrain.

Enumeration order is part of the contract, because deduplication keeps the
first provenance, evidence and certificate text follow the pair order, and
the verifier checks the k-th join of a certificate against its own k-th
pair.  cp goes through outer rules, then inner rules, in system order, then
positions in left-to-right preorder.  pcp_in goes through outer rules in
system order, then position sets by size and, within a size,
lexicographically by preorder index, then tuples of inner rules in system
order, the rule at the first position varying slowest.

pcp_in renames a rule apart once per position, since one tuple can use the
same rule at two positions.  It unifies each (position, rule) overlap once,
into a piece that keeps the unifier, the peak's subterm there and its
contractum, and builds every tuple from the pieces of its positions; a rule
no piece holds is never tried in a tuple.  When the outer left sides are
linear, as the pcp criterion requires of S, the positions of a tuple share
no variable, so its mgu is the union of its pieces' unifiers: the peak is
the outer left side with each piece's subterm put in, the left side is the
peak with each contractum put in, and X is the union of the pieces'
variables.  Only the right side is built by substitution.  A system with a
nonlinear left side, which the verifier reaches when it recomputes the pairs
of a flagged precondition, unifies each tuple jointly and takes its pieces
from the joint mgu.

cp checks the run's deadline before each unification (one deep rule
overlaps itself at every position), pcp_in once per position set, and both
every 1,024 pairs while deduplicating: a system's parallel critical pairs can
be exponentially many.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
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
    outer_rule: Rule = field(compare=False)
    redexes: tuple = field(compare=False)  # ((position, inner Rule renamed apart), ...)
    var_limit: frozenset | None = None  # a parallel pair's constrained variable ids X

    def key(self):
        """The kind, the pair up to renaming and, for a parallel pair, the
        indexes of its constrained variables (see the module docstring)."""
        return self._walk[0]

    @property
    def variables(self) -> tuple:
        """The ids of left's, then right's, variables in the key's numbering."""
        return self._walk[1]

    @cached_property
    def _walk(self):  # computed once, outside the fields, like Rule._key
        flat, index = shape_key((self.left, self.right))
        variables = tuple(index)
        if self.var_limit is None:
            return (self.kind, flat), variables
        for v in term_vars(self.peak):
            index.setdefault(v.id, len(index))
        return (self.kind, flat, frozenset(index[x] for x in self.var_limit)), variables

    def __repr__(self):
        xs = ""
        if self.var_limit is not None:
            xs = "_{" + ",".join(map(str, sorted(self.var_limit))) + "}"
        return f"<{self.left!r}, {self.right!r}>{xs} ({self.kind})"


def _dedup(pairs, run: Run):
    seen = set()
    out = []
    for i, pr in enumerate(pairs, 1):
        if i % 1024 == 0:
            run.check("critical_pairs")
        k = pr.key()
        if k not in seen:
            seen.add(k)
            out.append(pr)
    return out


def cp(r_rules: Trs, q_rules: Trs, run: Run | None = None) -> list[CriticalPair]:
    """Critical pairs of rules from r_rules overlapping into q_rules.  Each
    (outer, inner) block comes from the pair memo of the run, or of a fresh
    Run without one, and a block not there yet is generated and stored."""
    run = run or Run()
    pairs = []
    renamed = {}  # index of an inner rule -> its variant on fresh variables
    for outer in q_rules:
        subterms = None
        for i, inner in enumerate(r_rules):
            block = run.pairs.get((outer, inner))
            if block is not None:
                pairs.extend(block)
                continue
            block = []
            if subterms is None:
                subterms = fun_subterms(outer.lhs)
            self_overlap = inner.key() == outer.key()
            for p, sub in subterms:
                if sub.fn != inner.lhs.fn or (p == () and self_overlap):
                    continue
                run.check("critical_pairs")
                if i not in renamed:  # at its first position with its head symbol
                    renamed[i] = inner.rename_apart()
                ren = renamed[i]
                sigma = unify_all([(ren.lhs, sub)])
                if sigma is None:
                    continue
                block.append(
                    CriticalPair(
                        left=apply(sigma, replace_at(outer.lhs, p, ren.rhs)),
                        right=apply(sigma, outer.rhs),
                        kind="outer" if p == () else "inner",
                        peak=apply(sigma, outer.lhs),
                        outer_rule=outer,
                        redexes=((p, ren),),
                    )
                )
            run.pairs[outer, inner] = block
            pairs.extend(block)
    return _dedup(pairs, run)


def cp_in(r_rules: Trs, q_rules: Trs, run: Run | None = None) -> list[CriticalPair]:
    return [pr for pr in cp(r_rules, q_rules, run) if pr.kind == "inner"]


@dataclass(frozen=True)
class _Piece:
    """One inner rule at one position of a parallel peak."""

    rule: Rule  # renamed apart
    sigma: Subst  # mgu of rule.lhs and the subterm of the outer left side
    redex: Term  # sigma(subterm), the peak's subterm there
    contractum: Term  # sigma(rule.rhs)
    var_ids: frozenset  # ids of the variables of redex


def _piece(rule: Rule, sigma: Subst, sub: Term) -> _Piece:
    redex = apply(sigma, sub)
    return _Piece(rule, sigma, redex, apply(sigma, rule.rhs), frozenset(var_ids(redex)))


def _overlapping(q_rules: Trs, outer: Rule) -> list[tuple[Position, Term, list[_Piece]]]:
    """Each inner function position of outer.lhs, in preorder, with its
    subterm and one piece per rule of q_rules (renamed apart, in system
    order) whose left side unifies with that subterm on its own; positions
    no rule overlaps are left out."""
    out = []
    for p, sub in fun_subterms(outer.lhs)[1:]:
        pieces = []
        for r in q_rules:
            if r.lhs.fn != sub.fn:
                continue
            rr = r.rename_apart()
            sigma = unify_all([(rr.lhs, sub)])
            if sigma is not None:
                pieces.append(_piece(rr, sigma, sub))
        if pieces:
            out.append((p, sub, pieces))
    return out


def pcp_in(q_rules: Trs, r_rules: Trs, run: Run | None = None) -> list[CriticalPair]:
    """Inner parallel critical pairs of q_rules into r_rules.  Each outer
    rule's block comes from the pair memo of the run, or of a fresh Run
    without one, and a block not there yet is generated and stored."""
    run = run or Run()
    joint = not r_rules.left_linear()  # else a tuple's mgu is the union of its pieces'
    pairs = []
    for outer in r_rules:
        key = (outer, q_rules.rules, joint)
        block = run.pairs.get(key)
        if block is not None:
            pairs.extend(block)
            continue
        block = []
        candidates = _overlapping(q_rules, outer)
        for n in range(1, len(candidates) + 1):
            for chosen in combinations(candidates, n):
                ps, subs, choices = zip(*chosen)
                if not all_parallel(ps):
                    continue
                run.check("critical_pairs")
                for pieces in product(*choices):
                    if joint:
                        sigma = unify_all([(pc.rule.lhs, sub) for pc, sub in zip(pieces, subs)])
                        if sigma is None:
                            continue
                        pieces = [_piece(pc.rule, sigma, sub) for pc, sub in zip(pieces, subs)]
                        peak = apply(sigma, outer.lhs)
                    else:
                        sigma = {x: u for pc in pieces for x, u in pc.sigma.items()}
                        peak = replace_parallel(
                            outer.lhs, [(p, pc.redex) for p, pc in zip(ps, pieces)]
                        )
                    block.append(
                        CriticalPair(
                            left=replace_parallel(
                                peak, [(p, pc.contractum) for p, pc in zip(ps, pieces)]
                            ),
                            right=apply(sigma, outer.rhs),
                            kind="inner",
                            peak=peak,
                            outer_rule=outer,
                            redexes=tuple((p, pc.rule) for p, pc in zip(ps, pieces)),
                            var_limit=frozenset().union(*(pc.var_ids for pc in pieces)),
                        )
                    )
        run.pairs[key] = block
        pairs.extend(block)
    return _dedup(pairs, run)
