"""Finite abstract reduction systems: an exhaustive oracle for
Church-Rosser-modulo and the abstract joinability criteria.

Relations are edge sets over a small integer carrier, so every closure is
computed exactly by fixpoint and well-foundedness is just acyclicity.  The
module exists to property-test the abstract layer: whenever a criterion's
hypotheses evaluate to true on a finite system, Church-Rosser modulo the
equivalence must hold; for the necessary-and-sufficient variants the converse
holds under the well-foundedness precondition.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

Relation = frozenset  # of (int, int) pairs


class UnknownCriterion(Exception):
    pass


# criterion tags:
#   "main"          two-branch sufficient criterion with a counted subset of sym
#   "plain-wf"      counted subset empty, plain well-foundedness of the arrow
#   "strict-second" like main but (ii) must take the arrow-first branch
#   "all-sym-iff"   counted = sym; necessary and sufficient
#   "plus-iff"      (ii) needs a nonempty arrow prefix; necessary and sufficient
#   "star-iff"      (ii) with a possibly empty arrow prefix; necessary and sufficient
TAGS = ("main", "plain-wf", "strict-second", "all-sym-iff", "plus-iff", "star-iff")
IFF_TAGS = ("all-sym-iff", "plus-iff", "star-iff")


@dataclass(frozen=True)
class FiniteArs:
    size: int  # carrier is range(size)
    arrow: Relation = frozenset()
    sym: Relation = frozenset()
    counted_sym: Relation = frozenset()  # the part of sym treated like arrows

    def __post_init__(self):
        for rel in (self.arrow, self.sym, self.counted_sym):
            for a, b in rel:
                if not (0 <= a < self.size and 0 <= b < self.size):
                    raise ValueError("edge outside carrier")
        if inverse(self.sym) != self.sym:
            raise ValueError("sym must be symmetric")
        if not self.counted_sym <= self.sym:
            raise ValueError("counted_sym must be contained in sym")

    @property
    def carrier(self):
        return range(self.size)


# --- relation algebra ---------------------------------------------------------


def compose(r: Relation, s: Relation) -> Relation:
    by_src: dict = {}
    for b, c in s:
        by_src.setdefault(b, []).append(c)
    return frozenset((a, c) for a, b in r for c in by_src.get(b, ()))


def union(*rels) -> Relation:
    out = set()
    for r in rels:
        out |= r
    return frozenset(out)


def inverse(r: Relation) -> Relation:
    return frozenset((b, a) for a, b in r)


def identity(carrier) -> Relation:
    return frozenset((a, a) for a in carrier)


def refl(r: Relation, carrier) -> Relation:
    return union(r, identity(carrier))


def star(r: Relation, carrier) -> Relation:
    """Reflexive-transitive closure by fixpoint."""
    out = refl(r, carrier)
    while True:
        nxt = union(out, compose(out, out))
        if nxt == out:
            return out
        out = nxt


def plus(r: Relation, carrier) -> Relation:
    return compose(r, star(r, carrier))


def acyclic(r: Relation, carrier) -> bool:
    """Well-foundedness on a finite carrier: no cycle."""
    return all((a, a) not in plus(r, carrier) for a in carrier)


def subset(r: Relation, s: Relation) -> bool:
    return r <= s


# --- ground truth -------------------------------------------------------------


def is_crm(a: FiniteArs) -> bool:
    """Every conversion (arrow either way or sym) joins as →* ∘ ∼ ∘ ←*."""
    c = a.carrier
    conv = star(union(a.arrow, inverse(a.arrow), a.sym), c)
    fwd = star(a.arrow, c)
    equiv = star(a.sym, c)
    join = compose(fwd, compose(equiv, inverse(fwd)))
    return subset(conv, join)


# --- the criteria -------------------------------------------------------------


def _evaluate(a: FiniteArs, which: str):
    """(precondition, conditions) of one abstract criterion."""
    c = a.carrier
    arrow, sym = a.arrow, a.sym
    if which == "main" or which == "strict-second":
        counted = a.counted_sym
    elif which == "plain-wf":
        counted = frozenset()
    elif which in IFF_TAGS:
        counted = sym
    else:
        raise UnknownCriterion(which)

    pre = acyclic(compose(arrow, star(counted, c)), c)

    peak = compose(inverse(arrow), arrow)  # ← ∘ →
    cliff = compose(sym, arrow)  # ⊢⊣ ∘ →
    fast = star(union(arrow, counted), c)  # ⇒*
    back = inverse(fast)  # ⇐*
    sym_opt = refl(sym, c)  # ⊢⊣ or nothing
    equiv = star(sym, c)  # ∼
    fwd = star(arrow, c)  # →*
    bwd = inverse(fwd)  # ←*

    if which in ("main", "strict-second"):
        cond_i = subset(peak, compose(fast, compose(sym_opt, back)))
        second = compose(arrow, compose(fast, compose(sym_opt, back)))
        if which == "main":
            cond_ii = subset(cliff, union(compose(sym_opt, back), second))
        else:
            cond_ii = subset(cliff, second)
    elif which == "plain-wf":
        shape = compose(fwd, compose(sym_opt, bwd))
        cond_i = subset(peak, shape)
        cond_ii = subset(cliff, shape)
    elif which == "all-sym-iff":
        cond_i = subset(peak, compose(fast, back))
        cond_ii = subset(cliff, compose(arrow, compose(fast, back)))
    elif which == "plus-iff":
        cond_i = subset(peak, compose(fwd, compose(equiv, bwd)))
        cond_ii = subset(cliff, compose(plus(arrow, c), compose(equiv, bwd)))
    elif which == "star-iff":
        shape = compose(fwd, compose(equiv, bwd))
        cond_i = subset(peak, shape)
        cond_ii = subset(cliff, shape)
    return pre, cond_i and cond_ii


def precondition_holds(a: FiniteArs, which: str) -> bool:
    return _evaluate(a, which)[0]


def check_abstract_criterion(a: FiniteArs, which: str) -> tuple[bool, bool]:
    """(hypotheses_hold, crm): hypotheses = precondition + both inclusions."""
    pre, conds = _evaluate(a, which)
    return pre and conds, is_crm(a)


# --- random instances ---------------------------------------------------------


def random_ars(rng: random.Random) -> FiniteArs:
    n = rng.randint(3, 6)
    density = rng.uniform(0.1, 0.4)
    arrow = set()
    for x in range(n):
        for y in range(n):
            if x != y and rng.random() < density:
                arrow.add((x, y))
            elif x == y and rng.random() < density / 4:
                arrow.add((x, y))
    sym = set()
    for x in range(n):
        for y in range(x + 1, n):
            if rng.random() < density:
                sym.add((x, y))
                sym.add((y, x))
    counted = {e for e in sym if rng.random() < 0.4}
    return FiniteArs(n, frozenset(arrow), frozenset(sym), frozenset(counted))
