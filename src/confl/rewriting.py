"""Rewrite rules, rule systems, single/parallel steps and bounded searches.

`_contract` is the trusted application of a rule: it matches the rule's
left side against a subterm (`match_term`) and instantiates the right side
(`apply`).  Steps, normalization and `replay`, and so all of certificate
verification, call it directly; reducts, reach sets and parallel steps go
through `_contracta`, every rule at the root of one subterm, which looks the
subterm up in a table first.  A caller that passes one table to every call
over one system, as the join search does per join, matches each (rule,
subterm) once however many terms hold the subterm.  The prover's join search
passes `Contractions` tables, which contract by contractors instead: per
rule key, straight-line code compiled once per run (`compile_contractor`),
its fast path, which must agree with `_contract` on every term; a rule past
`COMPILE_NODES` nodes keeps `_contract`.  Steps are plain records
built from a match (by `step_at` and `parallel_step`).  A step is checked
when it is replayed, by `replay`, the one routine that re-applies
(position, rule) moves and returns the steps it takes; `replay_named`, which
the certificate verifier calls for every step sequence a certificate names,
resolves rule names and reports a failing move as text.  A rule's key is
`terms.shape_key` of its two sides, the identity up to renaming that pairs
and witnesses use too.

Reach sets and goal searches are one breadth-first walk, `ReachSet`, which
expands terms only as far as it is read, checks the deadline before each
term it expands, and keeps one cap rule (see there); a goal search is the
walk run to its end, which stops at the first term it wants.
`normalize_steps` is the one normalizer.
Nothing here recurses: `parallel_step` keeps an explicit stack, the
normalizer runs on `unrecurse`, and a contractor is flat code, one statement
per node, generated by a loop.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import islice
from types import CodeType, FunctionType

from .terms import (
    App,
    Position,
    Term,
    Var,
    apply,
    fun_subterms,
    is_var,
    match_term,
    pos_str,
    renaming_apart,
    replace_at,
    shape_key,
    signature,
    subterm_at,
    unrecurse,
    var_ids,
)


class FuelExhausted(Exception):
    """normalize_steps ran out of rewrite budget (possibly nonterminating input)."""


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
        return shape_key((self.lhs, self.rhs))[0]

    # linearity, stored outside the fields like `_key`: every criterion
    # check asks for it
    @cached_property
    def left_linear(self) -> bool:
        return _linear(self.lhs)

    @cached_property
    def linear(self) -> bool:
        return self.left_linear and _linear(self.rhs)

    def __hash__(self):  # rules key the pair memo: hash the fields once
        return self._hash

    @cached_property
    def _hash(self):
        return hash((self.lhs, self.rhs, self.name))

    def rename_apart(self) -> Rule:
        """A variant on fresh variables."""
        mapping = renaming_apart([self.lhs])
        return Rule(apply(mapping, self.lhs), apply(mapping, self.rhs), self.name)

    def inverse(self) -> Rule:
        return Rule(self.rhs, self.lhs, self.name + "~")

    def is_bidirectional(self) -> bool:
        return not is_var(self.rhs) and var_ids(self.lhs) == var_ids(self.rhs)

    def __repr__(self):
        tag = f"{self.name}: " if self.name else ""
        return f"{tag}{self.lhs!r} -> {self.rhs!r}"


def _linear(t: Term) -> bool:
    """No variable occurs twice in t: its shape key has one negative code
    per variable occurrence and numbers each variable once."""
    flat, index = shape_key((t,))
    return sum(isinstance(c, int) and c < 0 for c in flat) == len(index)


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
        self.signature: dict[str, int] = signature(
            t for r in self.rules for t in (r.lhs, r.rhs))
        self.roots = frozenset(r.lhs.fn for r in self.rules)  # left sides' root symbols

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

    def key(self) -> frozenset:
        """Set identity up to renaming and rule order."""
        return self._key

    @cached_property
    def _key(self):
        return frozenset(r.key() for r in self.rules)

    def rule(self, name: str) -> Rule:
        for r in self.rules:
            if r.name == name:
                return r
        raise KeyError(name)

    def left_linear(self) -> bool:
        return all(r.left_linear for r in self.rules)

    def linear(self) -> bool:
        return all(r.linear for r in self.rules)

    def bidirectional(self) -> bool:
        """Every rule can be flipped and still be a rule."""
        return all(r.is_bidirectional() for r in self.rules)

    def contains_variant(self, rule: Rule) -> bool:
        return rule.key() in self.key()

    def replace(self, old: Rule, new: Rule) -> Trs:
        """The system with the variants of `old` removed and `new` last."""
        return Trs([r for r in self.rules if r.key() != old.key()] + [new])

    def inverse(self) -> Trs:
        if not self.bidirectional():
            raise ValueError("inverse requires a bidirectional system")
        return Trs([r.inverse() for r in self.rules])

    def union(self, other) -> Trs:
        out = list(self.rules)
        keys = set(self.key())
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
    """One rewrite step, as `step_at` builds it."""

    source: Term
    target: Term
    position: Position
    rule: Rule

    def __repr__(self):
        at = f"{self.rule.name}@{pos_str(self.position)}"
        return f"{self.source!r} -[{at}]-> {self.target!r}"


def step_at(t: Term, p: Position, rule: Rule) -> Step | None:
    """The step of `rule` at position p of t, or None if it does not apply
    there; raises ValueError if p is not a position of t."""
    c = _contract(rule, subterm_at(t, p))
    return None if c is None else Step(t, replace_at(t, p, c), p, rule)


def _contract(rule: Rule, sub: Term) -> Term | None:
    """The term that `rule` rewrites sub to at its root, or None if it does
    not apply there."""
    m = match_term(rule.lhs, sub)
    return None if m is None else apply(m, rule.rhs)


def _contracta(sub: App, trs: Trs, table: dict) -> tuple:
    """(rule, contractum) for every rule of trs that rewrites sub at its root,
    in rule order.  `table` maps subterms to these tuples for this one trs;
    most are empty, and () is one shared object.  A plain dict table
    contracts by `_contract`, a `Contractions` table by the contractors it
    carries.  A subterm whose root symbol is no left side's root is not
    looked up: in the join search most subterms are such, and looking them
    up cost more than it saved."""
    if sub.fn not in trs.roots:
        return ()
    out = table.get(sub)
    if out is None:
        out = ()
        if table.__class__ is Contractions:
            for rule, contract in table.rules[sub.fn]:
                c = contract(sub)
                if c is not None:
                    out += ((rule, c),)
        else:
            for rule in trs:
                if rule.lhs.fn == sub.fn:
                    c = _contract(rule, sub)
                    if c is not None:
                        out += ((rule, c),)
        table[sub] = out
    return out


# --- contractors --------------------------------------------------------------

# A rule whose two sides hold more nodes than this keeps `_contract`.  On
# s^n(x) -> s^(n-1)(x), compiling costs about 40 µs per node and saves under
# 1 µs per node and contraction, so only a rule contracted some 50 times
# earns its compile back, and a deep rule is contracted a few times.
COMPILE_NODES = 64


class Contractions(dict):
    """A root-contractum table (see `_contracta`) that contracts by given
    contractors: `rules` maps each left side's root symbol to the (rule,
    contractor) pairs of the table's trs with that root, in rule order, as
    `root_contractors` makes them."""

    __slots__ = ("rules",)

    def __init__(self, rules: dict):
        super().__init__()
        self.rules = rules


def root_contractors(trs: Trs, memo: dict) -> dict:
    """Root symbol -> ((rule, contractor), ...) of trs in rule order, for a
    `Contractions` table.  Each contractor is taken from memo (a run's
    `contractors`: rule key -> contractor, generated source -> code), or made
    and stored there at its first request."""
    out: dict = {}
    for rule in trs:
        key = rule.key()
        contract = memo.get(key)
        if contract is None:
            small = _nodes_within(rule, COMPILE_NODES)
            contract = memo[key] = (compile_contractor(rule, memo) if small
                                    else partial(_contract, rule))
        out[rule.lhs.fn] = out.get(rule.lhs.fn, ()) + ((rule, contract),)
    return out


def _nodes_within(rule: Rule, n: int) -> bool:
    """The rule's two sides hold at most n nodes; walks at most n + 1."""
    stack = [rule.lhs, rule.rhs]
    while stack:
        n -= 1
        if n < 0:
            return False
        u = stack.pop()
        if u.__class__ is App:
            stack += u.args
    return True


def compile_contractor(rule: Rule, codes: dict):
    """The contractor of rule: a function of one term that returns what
    `_contract(rule, term)` does, compiled from straight-line code, and so
    the same for every rule of rule's key.  The code tests the left side's
    symbols and arities breadth-first, then the equal copies of each repeated
    variable, and builds the right side bottom-up, a ground subterm of it
    being the rule's own.  It is one flat statement per node; symbols and
    ground terms are globals of the function, never text of its source, so
    rules of one shape share their source, which `codes` (source -> code)
    compiles once."""
    glob = {"App": App, "len": len}
    names: dict = {}  # symbol, or id of a ground term -> its global's name

    def global_name(key, value) -> str:
        name = names.get(key)
        if name is None:
            name = names[key] = f"g{len(names)}"
            glob[name] = value
        return name

    lines = ["def contract(t0):"]
    bound: dict = {}  # variable id -> the local holding its match
    repeats = []
    todo, n = deque([(rule.lhs, "t0")]), 1
    while todo:
        p, local = todo.popleft()
        if p.__class__ is Var:
            if p.id in bound:
                repeats.append(f"    if {local} != {bound[p.id]}: return None")
            else:
                bound[p.id] = local
            continue
        arity = len(p.args)
        shape = f"len({local}.args) != {arity}" if arity else f"{local}.args"
        lines.append(f"    if {local}.__class__ is not App or {local}.fn != "
                     f"{global_name(p.fn, p.fn)} or {shape}: return None")
        if arity:
            subs = [f"t{n + i}" for i in range(arity)]
            n += arity
            lines.append(f"    {', '.join(subs)}, = {local}.args")
            todo.extend(zip(p.args, subs))
    lines += repeats
    # the right side bottom-up: the local of each node built, None for a
    # ground node, which is the rule's own and a global where it is used
    built: dict = {}  # id of a right-side node -> its local, or None

    def arg(u) -> str:
        return built[id(u)] or global_name(id(u), u)

    preorder, stack = [], [rule.rhs]
    while stack:
        u = stack.pop()
        preorder.append(u)
        if u.__class__ is App:
            stack += u.args
    for u in reversed(preorder):  # each node after its arguments
        if id(u) in built:
            continue
        if u.__class__ is Var:
            built[id(u)] = bound[u.id]
        elif all(built[id(a)] is None for a in u.args):
            built[id(u)] = None
        else:
            local = built[id(u)] = f"r{len(built)}"
            args = "".join(f"{arg(a)}, " for a in u.args)
            lines.append(f"    {local} = App({global_name(u.fn, u.fn)}, ({args}))")
    lines.append(f"    return {arg(rule.rhs)}")
    source = "\n".join(lines)
    code = codes.get(source)
    if code is None:  # the function's code, so that glob does not hold the function
        module = compile(source, "<contractor>", "exec")
        code = codes[source] = next(c for c in module.co_consts if c.__class__ is CodeType)
    return FunctionType(code, glob)


def replay(t: Term, moves) -> tuple[Step, ...]:
    """The steps of the moves [(position, rule)] applied in order from t; the
    end term is the last step's target, or t without steps.  Raises
    ValueError naming the first move that does not apply."""
    steps = []
    for pos, rule in moves:
        try:
            st = step_at(t, pos, rule)
        except ValueError:  # the position is not in the term
            st = None
        if st is None:
            raise ValueError(f"step {rule.name} at {pos_str(pos)} does not apply")
        steps.append(st)
        t = st.target
    return tuple(steps)


def replay_named(t: Term, moves, trs: Trs):
    """The end term of the moves [(position, rule name)] of trs applied in
    order from t, or a string saying which move fails: the one replay of
    steps that a certificate names."""
    try:
        done = replay(t, ((pos, trs.rule(name)) for pos, name in moves))
    except KeyError as exc:
        return f"rule {exc.args[0]!r} is not available"
    except ValueError as exc:
        return str(exc)
    return done[-1].target if done else t


def _rewrites(t: Term, trs: Trs, table: dict):
    """(position, rule, target) of every one-step rewrite of t, positions in
    preorder, rules in order; `table` as for `_contracta`."""
    for p, sub in fun_subterms(t):
        for rule, c in _contracta(sub, trs, table):
            yield p, rule, replace_at(t, p, c)


def reducts(t: Term, trs: Trs, *, table: dict | None = None) -> list[Step]:
    """All one-step rewrites of t, positions in preorder, rules in order.
    `table` is the root-contractum table of trs to use (see `_contracta`)."""
    rewrites = _rewrites(t, trs, {} if table is None else table)
    return [Step(t, u, p, rule) for p, rule, u in rewrites]


def normalize_steps(t: Term, trs: Trs, fuel: int = 10_000):
    """Leftmost-innermost normalization returning (normal form, steps):
    arguments left to right, then the rules at the root in order; after a
    rewrite the walk goes on inside the new subterm."""
    steps: list[Step] = []
    return unrecurse(_innermost, t, (), t, trs, steps, fuel), steps


def _innermost(u: Term, p: Position, start: Term, trs: Trs, steps: list, fuel: int):
    """Body of the normalizer, run by `unrecurse`: the normal form of u, the
    subterm at p of the term that `steps` (from `start`) have reached so far;
    appends the steps it takes."""
    while isinstance(u, App):
        args = []
        for i, a in enumerate(u.args, start=1):
            args.append((yield a, (*p, i), start, trs, steps, fuel))
        u = App(u.fn, tuple(args))
        for rule in trs:
            if rule.lhs.fn == u.fn:
                v = _contract(rule, u)
                if v is not None:
                    break
        else:
            return u
        if len(steps) >= fuel:
            raise FuelExhausted(f"no normal form within {fuel} steps")
        u = v
        whole = steps[-1].target if steps else start
        steps.append(Step(whole, replace_at(whole, p, u), p, rule))
    return u


# --- parallel steps -----------------------------------------------------------


@dataclass(frozen=True)
class ParallelStep:
    """Simultaneous contraction of pairwise parallel redexes (possibly none),
    as `parallel_step` builds it."""

    source: Term
    target: Term
    parts: tuple  # of (position, rule)

    @property
    def positions(self) -> tuple[Position, ...]:
        return tuple(p for p, _ in self.parts)

    def __repr__(self):
        ps = ",".join(pos_str(p) for p in self.positions)
        return f"{self.source!r} =[{ps}]=> {self.target!r}"


def parallel_step(s: Term, t: Term, trs: Trs, allowed=None, *,
                  table: dict | None = None) -> ParallelStep | None:
    """The first smallest parallel step s ⇉ t, or None: fewest redexes, then
    positions in preorder, then rules in order; s ⇉ s has none.  Given
    `allowed` (variable ids), a redex counts only if the subterm of t it
    rewrites to has no other variables.  That order splits per node, so one
    top-down pass decides: equal subterms need nothing, a subterm the first
    rule rewrites at its root to its counterpart needs that redex, and any
    other pair must share its root symbol and is split into its arguments.
    `table` is the root-contractum table of trs to use (see `_contracta`)."""
    table = {} if table is None else table
    parts = []
    stack = [((), s, t)]
    while stack:
        p, a, b = stack.pop()
        if a == b:
            continue
        if a.__class__ is Var:
            return None
        for rule, c in _contracta(a, trs, table):
            if c == b and (allowed is None or var_ids(b) <= allowed):
                parts.append((p, rule))
                break
        else:
            if b.__class__ is Var or b.fn != a.fn or len(b.args) != len(a.args):
                return None
            for i in range(len(a.args), 0, -1):
                stack.append(((*p, i), a.args[i - 1], b.args[i - 1]))
    return ParallelStep(s, t, tuple(parts))


# --- bounded reachability -----------------------------------------------------


class ReachSet(Mapping):
    """The terms reachable from s within `depth` steps of trs, mapped to
    shortest witness paths in discovery order (s itself first), built
    breadth-first only as far as it is read.  `ends()` reads it in discovery
    order and expands no term the reader does not get to; every mapping read
    (len, iteration, get, in) builds it whole first.

    The walk builds a `Step` only for a term it has not reached before and,
    given `check(layer)`, calls it before each term it expands, so a deadline
    holds inside the walk; a term cut off by the deadline stays on the
    frontier.  `table` is the root-contractum table of trs (one local to the
    set if None).  The cap rule: the set holds at most `cap` terms, and the
    walk stops at the first new term past the cap, even mid-expansion.
    Given `want`, the walk tests s first and each new term before the cap,
    stops at the first term it accepts, and keeps the path to it in `found`
    (None if no term was accepted); so a goal found as term cap+1 is still
    found."""

    __slots__ = ("paths", "found", "_frontier", "_walk")

    def __init__(self, s: Term, trs: Trs, depth: int, cap: int = 4000, want=None, *,
                 table: dict | None = None, check=None):
        self.paths: dict[Term, tuple[Step, ...]] = {s: ()}
        self.found = () if want is not None and want(s) else None
        self._frontier = self._walk = None  # both None once the walk is over
        if self.found is None and depth > 0:
            self._frontier = deque([(s, 0)])
            self._walk = (trs, depth, cap, want, {} if table is None else table, check)

    def _grow(self, until: float = math.inf):
        """Expand frontier terms, in order, until the set holds `until`
        terms or the walk is over."""
        frontier = self._frontier
        if frontier is None:
            return
        paths = self.paths
        trs, depth, cap, want, table, check = self._walk
        while frontier and len(paths) < until:
            t, d = frontier[0]
            if d < depth and check is not None:
                check("rewriting")
            frontier.popleft()
            if d >= depth:
                continue
            for p, rule, u in _rewrites(t, trs, table):
                if u in paths:
                    continue
                path = paths[t] + (Step(t, u, p, rule),)
                if want is not None and want(u):
                    self.found = path
                    break
                if len(paths) >= cap:
                    break
                paths[u] = path
                frontier.append((u, d + 1))
            else:
                continue
            frontier.clear()  # a goal or the cap stops the walk
        if not frontier:
            self._frontier = self._walk = None

    def complete(self) -> dict:
        """The whole set, as a plain dict."""
        if self._frontier is not None:
            self._grow()
        return self.paths

    def ends(self, n: int | None = None):
        """The first n (term, path), all of them if n is None, in discovery
        order; the set is built only as far as they are read."""
        return islice(self.paths.items() if self._frontier is None else self._ends(), n)

    def _ends(self):
        paths, n = self.paths, 0
        while True:
            if n == len(paths):
                self._grow(n + 1)
                if n == len(paths):
                    return
            new = list(islice(reversed(paths.items()), len(paths) - n))
            n = len(paths)
            yield from reversed(new)

    def __len__(self):
        return len(self.complete())

    def __iter__(self):
        return iter(self.complete())

    def __getitem__(self, t: Term):
        return self.complete()[t]


def reach_set_bounded(s: Term, trs: Trs, depth: int, cap: int = 4000, *, table=None,
                      check=None) -> ReachSet:
    """Breadth-first reachable set within `depth` steps, with shortest
    witness paths, built as far as it is read (see `ReachSet`)."""
    return ReachSet(s, trs, depth, cap, table=table, check=check)


def reach_bounded(s: Term, goal, trs: Trs, depth: int, cap: int = 4000, *, check=None):
    """Shortest rewrite sequence (list of Steps) from s to a goal, or None.

    `goal` is a term or a predicate on terms; the empty sequence is allowed.
    `check` is as for `ReachSet`.
    """
    want = goal if callable(goal) else (lambda t: t == goal)
    walk = ReachSet(s, trs, depth, cap, want, check=check)
    walk.complete()
    return None if walk.found is None else list(walk.found)
