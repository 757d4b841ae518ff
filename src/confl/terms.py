"""First-order terms, positions, substitutions, matching and unification.

Terms are immutable: a variable is identified by an integer id (the display
name is cosmetic and ignored by equality), a function application is a symbol
name plus a tuple of argument terms.  Arities are not fixed here; rule systems
check arity consistency when they are built.

Positions are tuples of 1-based argument indexes; () is the root.
Substitutions are plain dicts mapping variable ids to terms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

Position = tuple[int, ...]


@dataclass(frozen=True)
class Var:
    id: int
    # purely for printing; two Vars with the same id are the same variable
    name: str = field(default="", compare=False, repr=False)

    def __repr__(self):
        return self.name or f"v{self.id}"


@dataclass(frozen=True)
class App:
    fn: str
    args: tuple = ()

    def __repr__(self):
        if not self.args:
            return self.fn
        return f"{self.fn}({','.join(map(repr, self.args))})"


Term = Var | App

# fresh variable ids start well above anything a parser or test will hand out
_fresh_ids = itertools.count(1_000_000)


def fresh_id() -> int:
    return next(_fresh_ids)


def is_var(t: Term) -> bool:
    return isinstance(t, Var)


def term_size(t: Term) -> int:
    if isinstance(t, Var):
        return 1
    return 1 + sum(term_size(a) for a in t.args)


def positions(t: Term) -> list[Position]:
    """All positions of t, root first, in left-to-right preorder."""
    out: list[Position] = [()]
    if isinstance(t, App):
        for i, a in enumerate(t.args, start=1):
            out.extend((i,) + p for p in positions(a))
    return out


def positions_fun(t: Term) -> list[Position]:
    """Positions whose subterm is a function application."""
    return [p for p in positions(t) if isinstance(subterm_at(t, p), App)]


def subterm_at(t: Term, p: Position) -> Term:
    for i in p:
        if isinstance(t, Var) or not 1 <= i <= len(t.args):
            raise ValueError(f"invalid position {p}")
        t = t.args[i - 1]
    return t


def replace_at(t: Term, p: Position, s: Term) -> Term:
    if not p:
        return s
    if isinstance(t, Var) or not 1 <= p[0] <= len(t.args):
        raise ValueError(f"invalid position {p}")
    i = p[0]
    args = list(t.args)
    args[i - 1] = replace_at(args[i - 1], p[1:], s)
    return App(t.fn, tuple(args))


def pos_le(p: Position, q: Position) -> bool:
    """p is a prefix of (at or above) q."""
    return len(p) <= len(q) and q[: len(p)] == p


def pos_parallel(p: Position, q: Position) -> bool:
    return not pos_le(p, q) and not pos_le(q, p)


def all_parallel(ps) -> bool:
    ps = list(ps)
    return all(
        pos_parallel(p, q) for i, p in enumerate(ps) for q in ps[i + 1 :]
    )


def replace_parallel(t: Term, repl: list[tuple[Position, Term]]) -> Term:
    """Replace at several pairwise parallel positions at once."""
    ps = [p for p, _ in repl]
    if not all_parallel(ps):
        raise ValueError(f"positions not pairwise parallel: {ps}")
    for p, s in repl:
        t = replace_at(t, p, s)
    return t


def term_vars(t: Term) -> list[Var]:
    """Variables of t in order of first occurrence (no duplicates)."""
    seen: dict[int, Var] = {}

    def walk(u: Term):
        if isinstance(u, Var):
            seen.setdefault(u.id, u)
        else:
            for a in u.args:
                walk(a)

    walk(t)
    return list(seen.values())


def var_ids(t: Term) -> set[int]:
    return {v.id for v in term_vars(t)}


def funs(t: Term) -> set[str]:
    if isinstance(t, Var):
        return set()
    out = {t.fn}
    for a in t.args:
        out |= funs(a)
    return out


# --- substitutions -----------------------------------------------------------

Subst = dict  # var id -> Term


def apply(sigma: Subst, t: Term) -> Term:
    if isinstance(t, Var):
        return sigma.get(t.id, t)
    return App(t.fn, tuple(apply(sigma, a) for a in t.args))


def compose(sigma: Subst, tau: Subst) -> Subst:
    """Composition: apply(compose(s,t), u) == apply(t, apply(s, u))."""
    out = {x: apply(tau, s) for x, s in sigma.items()}
    for x, s in tau.items():
        out.setdefault(x, s)
    return {x: s for x, s in out.items() if not (isinstance(s, Var) and s.id == x)}


def occurs(x: int, t: Term) -> bool:
    if isinstance(t, Var):
        return t.id == x
    return any(occurs(x, a) for a in t.args)


def match_term(pattern: Term, subject: Term) -> Subst | None:
    """Substitution sigma with apply(sigma, pattern) == subject, or None.

    No occurs check; the domain is exactly the variables of the pattern.
    """
    sigma: Subst = {}
    stack = [(pattern, subject)]
    while stack:
        p, s = stack.pop()
        if isinstance(p, Var):
            if p.id in sigma:
                if sigma[p.id] != s:
                    return None
            else:
                sigma[p.id] = s
        else:
            if not isinstance(s, App) or s.fn != p.fn or len(s.args) != len(p.args):
                return None
            stack.extend(zip(p.args, s.args))
    return sigma


def unify(s: Term, t: Term) -> Subst | None:
    """Most general unifier of s and t (idempotent), or None.

    Rule-based solved-form construction with occurs check.
    """
    return unify_all([(s, t)])


def unify_all(eqs: list[tuple[Term, Term]]) -> Subst | None:
    """Simultaneous mgu of a list of equations, or None."""
    sigma: Subst = {}
    work = list(eqs)
    while work:
        s, t = work.pop()
        s, t = apply(sigma, s), apply(sigma, t)
        if s == t:
            continue
        if isinstance(s, Var):
            if occurs(s.id, t):
                return None
            bind = {s.id: t}
            sigma = {x: apply(bind, u) for x, u in sigma.items()}
            sigma[s.id] = t
        elif isinstance(t, Var):
            work.append((t, s))
        else:
            if s.fn != t.fn or len(s.args) != len(t.args):
                return None
            work.extend(zip(s.args, t.args))
    return sigma


# --- renaming ----------------------------------------------------------------


def rename_term(t: Term, mapping: dict[int, Var]) -> Term:
    if isinstance(t, Var):
        return mapping.get(t.id, t)
    return App(t.fn, tuple(rename_term(a, mapping) for a in t.args))


def renaming_apart(ts) -> dict[int, Var]:
    """Fresh-variable renaming for every variable occurring in terms ts.

    Fresh ids come from one global counter, so the renamed terms share no
    variable with any term built before."""
    mapping: dict[int, Var] = {}
    for t in ts:
        for v in term_vars(t):
            if v.id not in mapping:
                mapping[v.id] = Var(fresh_id(), v.name)
    return mapping


def rename_apart(t1: Term, t2: Term) -> tuple[Term, dict[int, Var]]:
    """Rename t2 so it shares no variables with t1; returns (t2', mapping).

    The mapping is a bijection onto fresh variables, so t2' is a variant.
    """
    mapping = renaming_apart([t2])
    return rename_term(t2, mapping), mapping


# --- canonical forms (equality up to renaming) -------------------------------

_CANON_NAMES = ["x", "y", "z", "w", "v", "u"]


def _canon_var(i: int) -> Var:
    if i < len(_CANON_NAMES):
        return Var(i, _CANON_NAMES[i])
    return Var(i, f"x{i}")


def canonical_tuple(ts: tuple) -> tuple:
    """Rename variables across the given terms to 0,1,2,... in order of first
    occurrence (left to right through the tuple).  Two tuples of terms are
    equal up to consistent renaming iff their canonical tuples are equal."""
    mapping: dict[int, Var] = {}

    def walk(u: Term) -> Term:
        if isinstance(u, Var):
            if u.id not in mapping:
                mapping[u.id] = _canon_var(len(mapping))
            return mapping[u.id]
        return App(u.fn, tuple(walk(a) for a in u.args))

    return tuple(walk(t) for t in ts)


def canonical(t: Term) -> Term:
    return canonical_tuple((t,))[0]


def variants(ts1: tuple, ts2: tuple) -> bool:
    """Equal up to a consistent variable renaming?"""
    return canonical_tuple(ts1) == canonical_tuple(ts2)
