"""First-order terms, positions, substitutions, matching and unification.

A variable is identified by an integer id (the display name is cosmetic and
ignored by equality), a function application is a symbol name plus a tuple of
argument terms.  Arities are not fixed here; rule systems check arity
consistency when they are built.

Hashing a term never walks it: a function application stores its hash when
it is built, from its arguments' hashes, and a variable hashes its id.
Terms are immutable by contract: nothing assigns to the fields of a built
term.

Positions are tuples of 1-based argument indexes; () is the root.
Substitutions are plain dicts mapping variable ids to terms.

`write_term` and `read_term` are the one term writer and reader (for `repr`,
the TRS format and certificates); callers decide only how variables are
spelled.  Neither recurses, so nesting depth is not limited.
"""

from __future__ import annotations

import itertools
import re

Position = tuple[int, ...]


class Var:
    """A variable; two Vars with the same id are the same variable, the name
    is only for printing."""

    __slots__ = ("id", "name")

    def __init__(self, id: int, name: str = ""):
        self.id = id
        self.name = name

    def __hash__(self):
        # not stored: a stored hash is one more object per variable, and
        # the parsed variables of a certificate are many
        return hash((self.id,))

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not Var:
            return NotImplemented
        return self.id == other.id

    def __repr__(self):
        return self.name or f"v{self.id}"


class App:
    """A function symbol applied to a tuple of argument terms."""

    __slots__ = ("fn", "args", "_hash")

    def __init__(self, fn: str, args: tuple = ()):
        self.fn = fn
        self.args = args
        # an App argument gives its stored hash; nothing below is walked
        self._hash = hash((fn, args))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not App:
            return NotImplemented
        return (self._hash == other._hash and self.fn == other.fn
                and self.args == other.args)

    def __repr__(self):
        return write_term(self, repr)


Term = Var | App

# fresh variable ids start well above anything a parser or test will hand out
_fresh_ids = itertools.count(1_000_000)


def fresh_id() -> int:
    return next(_fresh_ids)


def is_var(t: Term) -> bool:
    return isinstance(t, Var)


def positions(t: Term) -> list[Position]:
    """All positions of t, root first, in left-to-right preorder."""
    out: list[Position] = [()]
    if isinstance(t, App):
        for i, a in enumerate(t.args, start=1):
            out.extend((i,) + p for p in positions(a))
    return out


def fun_subterms(t: Term) -> list[tuple[Position, App]]:
    """(position, subterm) for every function application in t, in
    left-to-right preorder, from one walk of t."""
    out = []
    stack = [((), t)] if isinstance(t, App) else []
    while stack:
        p, u = stack.pop()
        out.append((p, u))
        for i in range(len(u.args), 0, -1):
            if isinstance(u.args[i - 1], App):
                stack.append(((*p, i), u.args[i - 1]))
    return out


def pos_str(p: Position) -> str:
    """A position as text: "e" for the root, else dotted indexes."""
    return ".".join(map(str, p)) or "e"


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
    stack = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, Var):
            seen.setdefault(u.id, u)
        else:
            stack.extend(reversed(u.args))
    return list(seen.values())


def var_ids(t: Term) -> set[int]:
    return {v.id for v in term_vars(t)}


def signature(ts) -> dict[str, int]:
    """The function symbols of the terms ts with their arities, sorted by
    name.  Raises ValueError when a symbol occurs with two arities."""
    return dict(sorted(add_signature({}, ts).items()))


def add_signature(sig: dict[str, int], ts) -> dict[str, int]:
    """sig with the function symbols of the terms ts added, in any order.
    Raises ValueError when a symbol occurs with two arities."""
    stack = list(ts)
    while stack:
        u = stack.pop()
        if u.__class__ is App:
            n = len(u.args)
            known = sig.setdefault(u.fn, n)
            if known != n:
                low, high = sorted((known, n))
                raise ValueError(f"symbol {u.fn} used with arities {low} and {high}")
            stack += u.args
    return sig


# --- text --------------------------------------------------------------------


def write_term(t: Term, var_text) -> str:
    """t as text; `var_text(v)` spells the variable v, called in left-to-right
    order of occurrence."""
    out: list[str] = []
    rest: list = []  # per unclosed application, an iterator over its other arguments
    u = t
    while True:
        if u.__class__ is Var:
            out.append(var_text(u))
        elif u.args:
            out.append(u.fn + "(")
            rest.append(iter(u.args))
            u = next(rest[-1])
            continue
        else:
            out.append(u.fn)
        # u is written: go on with the next argument, closing what is complete
        while rest:
            u = next(rest[-1], None)
            if u is not None:
                out.append(",")
                break
            rest.pop()
            out.append(")")
        else:
            return "".join(out)


class TermSyntaxError(ValueError):
    """Malformed term text; `token` indexes the offending token."""

    def __init__(self, message: str, token: int):
        super().__init__(message)
        self.token = token


def term_tokens(ident: str) -> re.Pattern:
    """The tokenizer of a term syntax whose names match the regex `ident`
    (with no capturing group).  Its `findall` gives a (space, name, mark)
    triple per token, a mark being ``->`` or one other character; the list
    ends with a token that has neither, at the end of the text."""
    return re.compile(rf"(\s*)(?:({ident})|(->|.?))", re.S)


def token_offset(tokens: list, i: int) -> int:
    """The offset of token i in the text `tokens` was read from."""
    return sum(len(s) + len(n) + len(m) for s, n, m in tokens[:i]) + len(tokens[i][0])


def token_text(token: tuple) -> str:
    """A token for an error message."""
    return repr(token[1] or token[2] or "end of input")


def read_term(tokens: list, i: int, leaf) -> tuple[Term, int]:
    """The term that `tokens` (from a `term_tokens` tokenizer) spell from
    token i on, and the index of the token after it.  `leaf(name)` gives the
    Var a name stands for, or None for a function symbol; ``f()`` is the
    constant f.  Raises TermSyntaxError at the first token that does not fit."""
    open_apps: list = []  # (symbol, arguments so far) of unclosed applications
    while True:
        name = tokens[i][1]
        if not name:
            raise TermSyntaxError(f"expected an identifier, found {token_text(tokens[i])}", i)
        var = leaf(name)
        if tokens[i + 1][2] == "(":
            if var is not None:
                raise TermSyntaxError(f"variable {name} used as a function symbol", i)
            if tokens[i + 2][2] != ")":
                open_apps.append((name, []))
                i += 2
                continue
            i += 3
            t = App(name, ())
        else:
            i += 1
            t = var if var is not None else App(name, ())
        # t is complete and token i follows it: close what t completes
        while open_apps:
            fn, args = open_apps[-1]
            args.append(t)
            mark = tokens[i][2]
            if mark == ",":
                i += 1
                break
            if mark != ")":
                raise TermSyntaxError(f"expected ',' or ')', found {token_text(tokens[i])}", i)
            open_apps.pop()
            t = App(fn, tuple(args))
            i += 1
        else:
            return t, i


# --- substitutions -----------------------------------------------------------

Subst = dict  # var id -> Term


def apply(sigma: Subst, t: Term) -> Term:
    if isinstance(t, Var):
        return sigma.get(t.id, t)
    return App(t.fn, tuple(apply(sigma, a) for a in t.args))


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
    """Simultaneous mgu of a list of equations, or None.

    Bindings stay triangular (a bound term may mention variables bound
    later) and are resolved once at the end.  Every decision falls out as
    if the substitution were applied to each equation as it is taken up,
    so the idempotent mgu and the order of its keys are the same."""
    bound: Subst = {}

    def deref(u: Term) -> Term:
        while isinstance(u, Var) and u.id in bound:
            u = bound[u.id]
        return u

    def occurs(x: int, u: Term) -> bool:
        stack = [u]
        while stack:
            u = deref(stack.pop())
            if isinstance(u, Var):
                if u.id == x:
                    return True
            else:
                stack.extend(u.args)
        return False

    work = list(eqs)
    while work:
        s, t = work.pop()
        s, t = deref(s), deref(t)
        if isinstance(s, Var):
            if isinstance(t, Var) and s.id == t.id:
                continue
            if occurs(s.id, t):
                return None
            bound[s.id] = t
        elif isinstance(t, Var):
            work.append((t, s))
        else:
            if s.fn != t.fn or len(s.args) != len(t.args):
                return None
            work.extend(zip(s.args, t.args))

    resolved: Subst = {}
    return {x: _resolve(u, bound, resolved) for x, u in bound.items()}


def _resolve(u: Term, bound: Subst, resolved: Subst) -> Term:
    """u with the triangular bindings `bound` applied until none is left;
    `resolved` memoizes the resolved value of each bound variable."""
    if isinstance(u, Var):
        if u.id not in bound:
            return u
        if u.id not in resolved:
            resolved[u.id] = _resolve(bound[u.id], bound, resolved)
        return resolved[u.id]
    return App(u.fn, tuple(_resolve(a, bound, resolved) for a in u.args))


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

_CANON_NAMES = ("x", "y", "z", "w", "v", "u")


def _canon_var(i: int) -> Var:
    if i < len(_CANON_NAMES):
        return Var(i, _CANON_NAMES[i])
    return Var(i, f"x{i}")


def canonical_tuple(ts: tuple) -> tuple:
    """Rename variables across the given terms to 0,1,2,... in order of first
    occurrence (left to right through the tuple).  Two tuples of terms are
    equal up to consistent renaming iff their canonical tuples are equal."""
    mapping: dict[int, Var] = {}
    return tuple(_canon_walk(t, mapping) for t in ts)


def _canon_walk(u: Term, mapping: dict[int, Var]) -> Term:
    """u renamed by `mapping`, which gets the next canonical variable for
    each variable id it does not hold yet."""
    if isinstance(u, Var):
        if u.id not in mapping:
            mapping[u.id] = _canon_var(len(mapping))
        return mapping[u.id]
    return App(u.fn, tuple(_canon_walk(a, mapping) for a in u.args))


def shape_key(ts) -> tuple[tuple, dict[int, int]]:
    """The terms ts up to renaming, as one flat tuple, with the index each
    variable id got.  One preorder walk: a function symbol is followed by
    its arity, a variable is -1 - index, indexes counting variables in order
    of first occurrence.  The code is prefix-free, so two tuples of terms
    have equal keys iff their canonical tuples are equal."""
    flat: list = []
    index: dict[int, int] = {}
    stack = list(reversed(ts))
    while stack:
        u = stack.pop()
        if isinstance(u, Var):
            flat.append(-1 - index.setdefault(u.id, len(index)))
        else:
            flat.append(u.fn)
            flat.append(len(u.args))
            stack.extend(reversed(u.args))
    return tuple(flat), index


def canonical(t: Term) -> Term:
    return canonical_tuple((t,))[0]


def variants(ts1: tuple, ts2: tuple) -> bool:
    """Equal up to a consistent variable renaming?"""
    return canonical_tuple(ts1) == canonical_tuple(ts2)
