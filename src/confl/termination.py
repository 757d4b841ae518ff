"""Termination and relative termination proving with replayable certificates.

Three engines, tried in order of cheapness:

* lexicographic path orders over an exhaustively searched total precedence
  (plain termination only, small signatures);
* polynomial interpretations with iterated rule removal.  Shapes per symbol:
  linear with coefficients in {1,2} and constants in {0..3}, a binary product
  x*y, and 2*x^2 for unary symbols.  Interpretations live over the naturals
  >= 2 (the product shape is only strictly monotone there); comparisons are
  decided symbolically by evaluating both sides with every variable x
  entered as x + 2 and checking coefficient nonnegativeness, so a stored
  certificate replays exactly.
  This engine also handles relative problems: all rules of S and P' must be
  weakly decreasing, some rules of S strictly; the strict ones are removed
  and the search repeats on the rest.  It values a subterm again only when
  the deepest of its symbols in the search order gets a new shape, through
  interned polynomials and two memos that end with the search.  The run
  records each finished search, so a later one with more weak rules and
  fewer candidates resumes past every assignment a recorded answer rules
  out, and gets a recorded failure without searching.
* a small dependency-pair engine for plain termination: marked pairs, a
  unification-estimated graph, reduction pairs from weakly monotone linear
  polynomials (coefficient 0 allowed), iterated removal of strictly
  decreasing pairs until the remaining graph is acyclic.

A certificate is a method plus its facts, and nothing else: it is for the
systems its caller hands over, so it names no system.  The facts are an lpo
precedence (symbols, highest first), or poly or dp removal rounds ((interp
items, names of the rules or pairs removed), ...); trivial and external
have none.  replay_certificate re-checks every claim without searching.
Nothing here recurses: `_nodes` reads a rule's flat key for the search and
for `rule_decrease`, the checker, which keeps no memo; the other term
walkers are generator bodies run by `terms.unrecurse`.
"""

from __future__ import annotations

import subprocess
import threading
from dataclasses import dataclass
from itertools import permutations, product

from .rewriting import Rule, Trs, empty_trs
from .run import Run
from .terms import (App, Term, Var, fresh_id, fun_subterms, is_var, match_term, signature,
                    unify_all, unrecurse, var_ids)
from .trs_format import print_trs


class MalformedCertificate(Exception):
    pass


@dataclass(frozen=True)
class TerminationCertificate:
    method: str  # trivial | lpo | poly | dp | external
    facts: tuple = ()


# ---------------------------------------------------------------------------
# lexicographic path order


def lpo_gt(s: Term, t: Term, prec: dict) -> bool:
    """s >_lpo t under the precedence prec (symbol -> rank, higher first)."""
    return unrecurse(_lpo_gt, s, t, prec)


def _lpo_gt(s: Term, t: Term, prec: dict):
    """Body of `lpo_gt`, run by `unrecurse`."""
    if s == t or is_var(s):
        return False
    if is_var(t):
        return t.id in var_ids(s)
    # s = f(...), t = g(...)
    for a in s.args:
        if a == t or (yield a, t, prec):
            return True
    if prec[s.fn] > prec[t.fn]:
        rest = t.args
    elif s.fn == t.fn:
        i = next((i for i, (a, b) in enumerate(zip(s.args, t.args)) if a != b), None)
        if i is None or not (yield s.args[i], t.args[i], prec):
            return False
        rest = t.args[i + 1 :]
    else:
        return False
    for b in rest:
        if not (yield s, b, prec):
            return False
    return True


def _find_lpo(rules, run: Run) -> tuple | None:
    syms = list(signature(t for r in rules for t in (r.lhs, r.rhs)))
    if not syms:
        return tuple()
    if len(syms) > 8:
        return None
    for perm in permutations(syms):
        run.check("termination")
        prec = {f: len(perm) - i for i, f in enumerate(perm)}
        if all(lpo_gt(r.lhs, r.rhs, prec) for r in rules):
            return tuple(perm)
    return None


# ---------------------------------------------------------------------------
# polynomials: dict mapping monomials (sorted ((var, exp), ...)) to int


def _p_scale(a, k):
    if k == 0:
        return {}
    return {m: c * k for m, c in a.items()}


def _p_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            exps = dict(m1)
            for x, e in m2:
                exps[x] = exps.get(x, 0) + e
            m = tuple(sorted(exps.items()))
            out[m] = out.get(m, 0) + c1 * c2
            if out[m] == 0:
                del out[m]
    return out


# interpretation shapes: ("lin", coeffs, const) | ("prod",) | ("sq", k)


def shape_value(shape, args):
    tag = shape[0]
    if tag == "lin":
        _, coeffs, const = shape
        if len(coeffs) != len(args):
            raise MalformedCertificate(f"linear shape arity mismatch: {shape}")
        out = {(): const}
        for c, a in zip(coeffs, args):
            for m, v in a.items():
                out[m] = out.get(m, 0) + c * v
        return {m: v for m, v in out.items() if v}
    if tag == "prod":
        if len(args) != 2:
            raise MalformedCertificate("product shape needs arity 2")
        return _p_mul(args[0], args[1])
    if tag == "sq":
        if len(args) != 1:
            raise MalformedCertificate("square shape needs arity 1")
        return _p_scale(_p_mul(args[0], args[0]), shape[1])
    raise MalformedCertificate(f"unknown interpretation shape {shape!r}")


def _nodes(rule: Rule, nodes: list, index: dict):
    """The indexes in `nodes` of the rule's two sides, appending the nodes
    they lack.  The rule's flat key is read right to left, where an arity
    says how many nodes the symbol before it takes, so a node comes after
    its children: a variable's is its negative index, a symbol's is (symbol,
    indexes of its children).  `index` maps each node to its index, so equal
    subterms share one."""
    stack: list = []
    n = 0
    for c in reversed(rule.key()):
        if c.__class__ is str:
            node = (c, tuple(stack[len(stack) - n:][::-1]))
            del stack[len(stack) - n:]
        elif c < 0:
            node = c
        else:
            n = c
            continue
        i = index.get(node)
        if i is None:
            i = index[node] = len(nodes)
            nodes.append(node)
        stack.append(i)
    rhs, lhs = stack
    return lhs, rhs


def _var_value(v: int, shift: bool) -> dict:
    """A variable's value, entered as v + 2 with `shift`."""
    return {((v, 1),): 1, (): 2} if shift else {((v, 1),): 1}


def _decrease(lhs: dict, rhs: dict):
    """(weak, strict): lhs - rhs has no negative coefficient, and for strict
    a constant of at least 1 too."""
    diff = dict(lhs)
    for m, c in rhs.items():
        diff[m] = diff.get(m, 0) - c
    weak = all(c >= 0 for c in diff.values())
    return weak, weak and diff.get((), 0) >= 1


def rule_decrease(assign: dict, rule: Rule, *, shift: bool = True):
    """(weak, strict) decrease of a rule under an interpretation, both sides
    valued node by node with nothing kept.  With `shift`, each variable x
    enters as x + 2, so the difference is taken over the naturals >= 2."""
    nodes: list = []
    lhs, rhs = _nodes(rule, nodes, {})
    values: list = []
    for node in nodes:
        if node.__class__ is int:
            values.append(_var_value(node, shift))
        elif node[0] not in assign:
            raise MalformedCertificate(f"no interpretation for symbol {node[0]}")
        else:
            values.append(shape_value(assign[node[0]], [values[i] for i in node[1]]))
    return _decrease(values[lhs], values[rhs])


def _shapes_strict(fn: str, arity: int):
    """Candidate shapes over naturals >= 2, strictly monotone, for removal."""
    if arity == 0:
        return [("lin", (), d) for d in (2, 3)]
    out = [
        ("lin", cs, d)
        for cs in product((1, 2), repeat=arity)
        for d in (0, 1, 2, 3)
    ]
    if arity == 2:
        out.append(("prod",))
    if arity == 1:
        out.append(("sq", 2))
    return out


def _shapes_weak(fn: str, arity: int):
    """Weakly monotone linear shapes over the plain naturals (DP engine)."""
    if arity == 0:
        return [("lin", (), d) for d in (0, 1, 2)]
    return [
        ("lin", cs, d)
        for cs in product((0, 1, 2), repeat=arity)
        for d in (0, 1, 2)
    ]


def _decrease_of(memo: dict, lhs: dict, rhs: dict):
    """`_decrease(lhs, rhs)` for interned values, kept in memo."""
    key = (id(lhs), id(rhs))
    hit = memo.get(key)
    if hit is None:
        hit = memo[key] = _decrease(lhs, rhs)
    return hit


def _find_interpretation(weak_rules, strict_candidates, shapes_for, *, shift, cap=300_000,
                         run: Run | None = None):
    """Search an interpretation making all weak_rules weakly decreasing and at
    least one strict candidate strictly decreasing; returns (assign, strict).

    The answer is the first one in `product` order over the symbols' shape
    lists.  Symbols get their shapes in signature order, and a weak rule is
    checked as soon as its last symbol has one: a prefix that fails it is
    abandoned with every assignment that extends it.  The run's deadline is
    checked every 1,024 assignments.

    A search resumes what the run's earlier ones settled.  Each finished
    search over the same shape lists is recorded on the run by the keys of
    its weak rules W and of its candidates C, with the choice vector of its
    answer or None.  More weak rules or fewer candidates can only remove
    answers, so a record with W inside these weak rules and C holding these
    candidates rules out every assignment before its answer: the walk starts
    at the largest such answer, and a recorded failure is the answer.  A
    search cut off by the deadline records nothing.

    Evaluation is incremental.  The rules' sides are compiled once into
    shared nodes (`_nodes`), and a node's level is the highest signature
    position of a symbol under it: when symbol k gets a shape, only the
    nodes of level k are valued again, and the lower ones keep their values.
    Values are interned, one dict per polynomial, so a memo keyed by (shape,
    ids of the child values) gives a node's value and one keyed by the ids
    of a rule's two values gives its decrease.  These two memos end with the
    call; only the record outlives it."""
    run = run or Run()
    rules = list(dict.fromkeys(list(weak_rules) + list(strict_candidates)))
    sig = signature(t for r in rules for t in (r.lhs, r.rhs))
    names = list(sig)
    lists = [shapes_for(f, sig[f]) for f in names]
    total = 1
    for l in lists:
        total *= len(l)
    if total > cap or not names:
        return None
    weak_keys = frozenset(r.key() for r in weak_rules)
    candidate_keys = frozenset(r.key() for r in strict_candidates)
    settled = run.interpretations.setdefault((shapes_for, shift, tuple(sig.items())), {})
    found = [answer for (weak, candidates), answer in settled.items()
             if candidate_keys <= candidates and weak <= weak_keys]
    if None in found:
        return None
    floor = max(found, default=(0,) * len(names))  # every assignment before it fails
    nodes: list = []
    index: dict = {}
    sides = {id(r): _nodes(r, nodes, index) for r in rules}
    position = {f: k for k, f in enumerate(names)}
    interned: dict = {}  # frozenset of a polynomial's items -> its one dict
    levels, values = [], []
    by_level = [[] for _ in names]  # the nodes of level k, children first
    for i, node in enumerate(nodes):
        if node.__class__ is int:
            levels.append(-1)
            value = _var_value(node, shift)
            values.append(interned.setdefault(frozenset(value.items()), value))
            continue
        levels.append(max([position[node[0]], *(levels[j] for j in node[1])]))
        values.append(None)
        by_level[levels[i]].append((i, *node))
    due = [[] for _ in names]  # the weak rules' sides whose last symbol is names[k]
    for r in dict.fromkeys(weak_rules):
        lhs, rhs = sides[id(r)]
        due[max(levels[lhs], levels[rhs])].append((lhs, rhs))
    valued: dict = {}  # (shape, ids of the child values) -> value
    decreases: dict = {}  # (id of lhs value, id of rhs value) -> (weak, strict)

    # choice[k] indexes lists[k]; symbols before k are assigned, and the
    # dict's keys, set first in names order, keep that order.  The levels
    # before `held` hold the floor's choices, and a level entered while all
    # the levels before it do starts at the floor's choice, not at 0
    assign: dict = {}
    choice = [floor[0] - 1] + [-1] * (len(names) - 1)
    held = len(names)
    k = tried = 0
    while k >= 0:
        choice[k] += 1
        if choice[k] == len(lists[k]):
            k -= 1
            continue
        if held > k and choice[k] != floor[k]:
            held = k
        assign[names[k]] = lists[k][choice[k]]
        tried += 1
        if not tried & 1023:
            run.check("termination")
        for i, fn, kids in by_level[k]:
            shape = assign[fn]
            key = (shape, *[id(values[j]) for j in kids])
            value = valued.get(key)
            if value is None:
                value = shape_value(shape, [values[j] for j in kids])
                value = valued[key] = interned.setdefault(frozenset(value.items()), value)
            values[i] = value
        if not all(_decrease_of(decreases, values[lhs], values[rhs])[0] for lhs, rhs in due[k]):
            continue
        if k + 1 < len(names):
            k += 1
            choice[k] = floor[k] - 1 if held > k else -1
            continue
        strict = [r for r in strict_candidates
                  if _decrease_of(decreases, *[values[i] for i in sides[id(r)]])[1]]
        if strict:
            settled[weak_keys, candidate_keys] = tuple(choice)
            return assign, strict
    settled[weak_keys, candidate_keys] = None
    return None


def _removal_rounds(candidates, weak, shapes_for, *, shift, sort, done, run: Run):
    """Rounds that remove candidates until done(the remaining ones): each
    round's interpretation makes the remaining candidates and the weak rules
    weakly decreasing and some remaining candidates strictly, and removes
    those, listing their names (sorted if `sort`).  Returns the rounds, or
    None when a round finds no interpretation."""
    remaining = list(candidates)
    rounds = []
    while not done(remaining):
        run.check("termination")
        found = _find_interpretation(remaining + weak, remaining, shapes_for,
                                     shift=shift, run=run)
        if found is None:
            return None
        assign, strict = found
        names = [r.name for r in strict]
        rounds.append((tuple(sorted(assign.items())), tuple(sorted(names) if sort else names)))
        gone = {id(r) for r in strict}
        remaining = [r for r in remaining if id(r) not in gone]
    return tuple(rounds)


# ---------------------------------------------------------------------------
# dependency pairs (plain termination)

_MARK = "#"


def _mark(t: App) -> App:
    return App(t.fn + _MARK, t.args)


def dependency_pairs(s_trs: Trs, *, check=None) -> list[Rule]:
    """The marked dependency pairs of s_trs.  `check(layer)`, if given, is
    called before each pair is built: one deep rule can give thousands."""
    check = check or Run().check
    defined = {r.lhs.fn for r in s_trs}
    dps = []
    for r in s_trs:
        k = 0
        for _, u in fun_subterms(r.rhs):
            if u.fn in defined:
                check("termination")
                k += 1
                dps.append(Rule(_mark(r.lhs), _mark(u), f"{r.name}{_MARK}{k}"))
    return dps


def _cap_ren(t: Term, defined: set):
    """Body of REN(CAP(t)), run by `unrecurse`: variables and defined-rooted
    subterms become fresh vars, from the counter renaming apart draws on."""
    if isinstance(t, Var) or t.fn in defined:
        return Var(fresh_id())
    args = []
    for a in t.args:
        args.append((yield a, defined))
    return App(t.fn, tuple(args))


def dp_graph(dps: list[Rule], defined: set, *, check=None) -> set[tuple[Rule, Rule]]:
    """Estimated edges d1 -> d2 between dependency pairs.  Each pair's left
    side is renamed apart once; REN(CAP) gives every d1 fresh variables of
    its own, so one renaming serves all of them.  `check(layer)`, if given,
    is called before each renaming and each unification."""
    check = check or Run().check
    edges = set()
    lhss = []
    for d2 in dps:
        check("termination")
        lhss.append(d2.rename_apart().lhs)
    for d1 in dps:
        rhs = unrecurse(_cap_ren, d1.rhs, defined)  # its marked root is kept
        for d2, lhs in zip(dps, lhss):
            check("termination")
            if unify_all([(rhs, lhs)]) is not None:
                edges.add((d1, d2))
    return edges


def _has_cycle(nodes, edges) -> bool:
    """Do the edges among nodes close a cycle?  Nodes that no edge among the
    rest enters are dropped until none is left or every one is entered."""
    rest = set(nodes)
    while rest:
        entered = {b for a, b in edges if a in rest and b in rest}
        if entered == rest:
            return True
        rest = entered
    return False


# ---------------------------------------------------------------------------
# structural failure reasons


def homeomorphic_embeds(s: Term, t: Term, run: Run | None = None) -> bool:
    """s embeds into t (dive into arguments or match the same symbol).
    Each pair of a node of s and a node of t is decided once, so the test
    takes O(|s|·|t|) steps, each under the run's deadline."""
    run = run or Run()
    memo = {}  # (id of a node of s, id of a node of t) -> embeds

    def embeds(u: Term, v: Term):
        key = (id(u), id(v))
        if key not in memo:
            run.check("termination")
            memo[key] = yield from _embeds(u, v)
        return memo[key]

    return unrecurse(embeds, s, t)


def _embeds(s: Term, t: Term):
    """Body of `homeomorphic_embeds`, run by `unrecurse`."""
    if s == t:
        return True
    if isinstance(t, App):
        for a in t.args:
            if (yield s, a):
                return True
        if isinstance(s, App) and s.fn == t.fn and len(s.args) == len(t.args):
            for a, b in zip(s.args, t.args):
                if not (yield a, b):
                    return False
            return True
    return False


def _rule_loops(r: Rule) -> bool:
    """Right-hand side contains an instance of the left-hand side."""
    return any(match_term(r.lhs, u) is not None for _, u in fun_subterms(r.rhs))


def _failure_reason(rules, run: Run) -> str:
    if any(_rule_loops(r) for r in rules):
        return "structural: a right-hand side contains an instance of its left-hand side"
    if any(homeomorphic_embeds(r.lhs, r.rhs, run) for r in rules):
        return "structural: self-embedding rule, no simplification order applies"
    return "search exhausted"


# ---------------------------------------------------------------------------
# entry points

def clear_cache():
    """Nothing to clear: the memo lives on the Run.  Kept because
    bench/run.py calls it before every input."""


def _named_key(trs: Trs) -> frozenset:
    """Memo key of a system: its rules by name and canonical shape.  A
    certificate is only handed to a system whose rules carry the same names,
    so it always replays against the caller's system."""
    return frozenset((r.name, r.key()) for r in trs)


def prove_termination(s_trs: Trs, run: Run | None = None):
    """Returns (TerminationCertificate | None, reason string), memoized on
    the run."""
    return prove_relative_termination(s_trs, empty_trs(), run)


def prove_relative_termination(s_trs: Trs, p_trs: Trs, run: Run | None = None):
    """S terminating relative to P (P-steps allowed in between, only S-steps
    counted; plain termination for an empty P); returns
    (TerminationCertificate | None, reason string), memoized on the run."""
    run = run or Run()
    key = (_named_key(s_trs), _named_key(p_trs))
    if key not in run.termination:
        run.termination[key] = _prove_termination(s_trs, p_trs, run)
    return run.termination[key]


def _prove_termination(s_trs: Trs, p_trs: Trs, run: Run):
    if not s_trs.rules:
        return TerminationCertificate("trivial"), ""
    if any(_rule_loops(r) for r in s_trs):
        return None, _failure_reason(s_trs.rules, run)
    relative = bool(p_trs.rules)  # then only the polynomial engine applies
    prec = None if relative else _find_lpo(s_trs.rules, run)
    if prec is not None:
        return TerminationCertificate("lpo", prec), ""
    rounds = _removal_rounds(list(s_trs.rules), list(p_trs.rules), _shapes_strict, shift=True,
                             sort=False, done=lambda rest: not rest, run=run)
    if rounds is not None:
        return TerminationCertificate("poly", rounds), ""
    if relative:
        return None, "search exhausted"
    dps = dependency_pairs(s_trs, check=run.check)  # removed until the graph is acyclic
    edges = dp_graph(dps, {r.lhs.fn for r in s_trs}, check=run.check)
    dp_rounds = _removal_rounds(dps, list(s_trs.rules), _shapes_weak, shift=False, sort=True,
                                done=lambda rest: not _has_cycle(rest, edges), run=run)
    if dp_rounds is not None:
        return TerminationCertificate("dp", dp_rounds), ""
    if run.hook and run_external_prover(run.hook, s_trs):
        return TerminationCertificate("external"), ""
    return None, _failure_reason(s_trs.rules, run)


def run_external_prover(path: str, s_trs: Trs, timeout: float = 10.0) -> bool:
    """Feed the system to an external prover; YES on the first line wins.
    Only the first line is read, and at most 4 KiB of it: the hook is stopped
    as soon as that line is read, or at the timeout."""
    try:
        proc = subprocess.Popen([path], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL)
    except OSError:
        return False
    first = []

    def talk():
        try:
            with proc.stdin:
                proc.stdin.write(print_trs(s_trs).encode())
        except OSError:  # the hook stopped, or did not read its input
            pass
        first.append(proc.stdout.readline(4096))

    # not joined past the timeout: a process the hook started may hold its
    # pipes open after the hook is stopped
    talker = threading.Thread(target=talk, daemon=True)
    talker.start()
    talker.join(timeout)
    proc.kill()
    proc.wait()
    if not talker.is_alive():
        proc.stdout.close()
    return bool(first) and first[0].decode(errors="replace").strip() == "YES"


# ---------------------------------------------------------------------------
# replay


def replay_certificate(s_trs: Trs, p_trs: Trs, cert: TerminationCertificate, hook=None) -> bool:
    """Re-check a termination certificate without searching.

    Structural defects raise MalformedCertificate; honest claim failures
    return False.
    """
    if cert.method not in ("trivial", "lpo", "poly", "dp", "external"):
        raise MalformedCertificate(f"unknown method {cert.method!r}")
    if cert.facts and cert.method in ("trivial", "external"):
        raise MalformedCertificate(f"a {cert.method} certificate has no facts")
    if p_trs.rules and cert.method in ("lpo", "dp", "external"):
        raise MalformedCertificate(f"{cert.method} certificates cannot be relative")

    if cert.method == "trivial":
        return not s_trs.rules
    if cert.method == "lpo":
        if set(s_trs.signature) - set(cert.facts):
            raise MalformedCertificate("precedence does not cover the signature")
        prec = {f: len(cert.facts) - i for i, f in enumerate(cert.facts)}
        return all(lpo_gt(r.lhs, r.rhs, prec) for r in s_trs)
    if cert.method == "poly":
        if not cert.facts and s_trs.rules:
            raise MalformedCertificate("poly certificate with no rounds")
        return _replay_rounds(cert.facts, s_trs, p_trs.rules, shift=True,
                              what="round", noun="rule") == []
    if cert.method == "dp":
        dps = dependency_pairs(s_trs)
        left = _replay_rounds(cert.facts, dps, s_trs.rules, shift=False,
                              what="dp round", noun="pair")
        return left is not None and not _has_cycle(left, dp_graph(dps, {r.lhs.fn for r in s_trs}))
    # external: not independently checkable; accept only with the same hook present
    return bool(hook) and run_external_prover(hook, s_trs)


def _monotone(shape, *, strict: bool) -> bool:
    """Does the shape map the naturals >= 2 (with `strict`; else all
    naturals) into themselves, strictly (else weakly) monotonically?"""
    least = 1 if strict else 0
    if shape[0] == "sq":
        return isinstance(shape[1], int) and shape[1] >= least
    if shape[0] != "lin":
        return True  # prod is, on both domains; shape_value rejects other shapes
    _, coeffs, const = shape
    floor = 2 if strict and not coeffs else 0  # a constant's value lies in the domain
    return (all(isinstance(c, int) for c in (*coeffs, const))
            and min(coeffs, default=least) >= least and const >= floor)


def _replay_rounds(rounds, candidates, weak, *, shift, what, noun):
    """The candidates that removal rounds leave, or None when a round's claim
    fails: each round's interpretation must be monotone (strictly over the
    naturals >= 2 with `shift`), make the remaining candidates and the weak
    rules weakly decreasing and the candidates it removes strictly."""
    remaining = {r.name: r for r in candidates}
    for interp_items, strict_names in rounds:
        assign = dict(interp_items)
        for f, shape in assign.items():
            if not _monotone(shape, strict=shift):
                raise MalformedCertificate(f"{what} interprets {f} by a non-monotone {shape}")
        if not strict_names:
            raise MalformedCertificate(f"{what} removes nothing")
        for n in strict_names:
            if n not in remaining:
                raise MalformedCertificate(f"{what} removes unknown {noun} {n}")
        for r in [*remaining.values(), *weak]:
            if not rule_decrease(assign, r, shift=shift)[0]:
                return None
        for n in strict_names:
            if not rule_decrease(assign, remaining[n], shift=shift)[1]:
                return None
        for n in strict_names:
            remaining.pop(n, None)
    return list(remaining.values())
