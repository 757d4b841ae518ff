"""Termination and relative termination proving with replayable certificates.

Three engines, tried in order of cheapness:

* lexicographic path orders over an exhaustively searched total precedence
  (plain termination only, small signatures);
* polynomial interpretations with iterated rule removal.  Shapes per symbol:
  linear with coefficients in {1,2} and constants in {0..3}, a binary product
  x*y, and 2*x^2 for unary symbols.  Interpretations live over the naturals
  >= 2 (the product shape is only strictly monotone there); comparisons are
  decided symbolically by shifting every variable by two and checking
  coefficient nonnegativeness, so a stored certificate replays exactly.
  This engine also handles relative problems: all rules of S and P' must be
  weakly decreasing, some rules of S strictly; the strict ones are removed
  and the search repeats on the rest.
* a small dependency-pair engine for plain termination: marked pairs, a
  unification-estimated graph, reduction pairs from weakly monotone linear
  polynomials (coefficient 0 allowed), iterated removal of strictly
  decreasing pairs until the remaining graph is acyclic.

Certificates carry the method tag and per-round facts; replay_certificate
re-checks every claim without searching.
"""

from __future__ import annotations

import subprocess
from dataclasses import dataclass
from itertools import count, permutations, product

from .rewriting import Rule, Trs
from .terms import App, Term, Var, fun_subterms, is_var, match_term, signature, unify_all, var_ids
from .trs_format import print_trs


class MalformedCertificate(Exception):
    pass


@dataclass(frozen=True)
class TerminationCertificate:
    method: str  # trivial | lpo | poly | dp | external
    s_names: tuple  # rule names proved terminating
    p_names: tuple = ()  # rules only required to be weakly compatible
    precedence: tuple = ()  # lpo: symbols, highest first
    rounds: tuple = ()  # poly: ((interp items, strict names), ...)
    dp_rounds: tuple = ()  # dp: ((interp items, strict pair names), ...)
    detail: str = ""


# ---------------------------------------------------------------------------
# lexicographic path order


def lpo_gt(s: Term, t: Term, prec: dict) -> bool:
    if s == t or is_var(s):
        return False
    if is_var(t):
        return t.id in var_ids(s)
    # s = f(...), t = g(...)
    if any(a == t or lpo_gt(a, t, prec) for a in s.args):
        return True
    if prec[s.fn] > prec[t.fn]:
        return all(lpo_gt(s, b, prec) for b in t.args)
    if s.fn == t.fn:
        for i, (a, b) in enumerate(zip(s.args, t.args)):
            if a == b:
                continue
            return lpo_gt(a, b, prec) and all(
                lpo_gt(s, tb, prec) for tb in t.args[i + 1 :]
            )
    return False


def _find_lpo(rules) -> tuple | None:
    syms = list(signature(t for r in rules for t in (r.lhs, r.rhs)))
    if not syms:
        return tuple()
    if len(syms) > 8:
        return None
    for perm in permutations(syms):
        prec = {f: len(perm) - i for i, f in enumerate(perm)}
        if all(lpo_gt(r.lhs, r.rhs, prec) for r in rules):
            return tuple(perm)
    return None


# ---------------------------------------------------------------------------
# polynomials: dict mapping monomials (sorted ((var, exp), ...)) to int


def _p_add(a, b):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + c
        if out[m] == 0:
            del out[m]
    return out


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


def _p_sub(a, b):
    return _p_add(a, _p_scale(b, -1))


def _p_const(c):
    return {(): c} if c else {}


def _p_var(x):
    return {((x, 1),): 1}


def _p_shift2(p):
    """Substitute x := x + 2 for every variable (domain embedding)."""
    out = {}
    for mono, c in p.items():
        term = _p_const(c)
        for x, e in mono:
            binom = _p_add(_p_var(x), _p_const(2))
            for _ in range(e):
                term = _p_mul(term, binom)
        out = _p_add(out, term)
    return out


def _nonneg(p) -> bool:
    return all(c >= 0 for c in p.values())


# interpretation shapes: ("lin", coeffs, const) | ("prod",) | ("sq", k)


def shape_value(shape, args):
    tag = shape[0]
    if tag == "lin":
        _, coeffs, const = shape
        if len(coeffs) != len(args):
            raise MalformedCertificate(f"linear shape arity mismatch: {shape}")
        out = _p_const(const)
        for c, a in zip(coeffs, args):
            out = _p_add(out, _p_scale(a, c))
        return out
    if tag == "prod":
        if len(args) != 2:
            raise MalformedCertificate("product shape needs arity 2")
        return _p_mul(args[0], args[1])
    if tag == "sq":
        if len(args) != 1:
            raise MalformedCertificate("square shape needs arity 1")
        return _p_scale(_p_mul(args[0], args[0]), shape[1])
    raise MalformedCertificate(f"unknown interpretation shape {shape!r}")


def interpret(assign: dict, t: Term):
    if isinstance(t, Var):
        return _p_var(t.id)
    if t.fn not in assign:
        raise MalformedCertificate(f"no interpretation for symbol {t.fn}")
    return shape_value(assign[t.fn], [interpret(assign, a) for a in t.args])


def rule_decrease(assign: dict, rule: Rule, *, shift: bool = True):
    """(weak, strict) decrease of a rule under an interpretation."""
    diff = _p_sub(interpret(assign, rule.lhs), interpret(assign, rule.rhs))
    if shift:
        diff = _p_shift2(diff)
    weak = _nonneg(diff)
    strict = weak and diff.get((), 0) >= 1
    return weak, strict


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


def _find_interpretation(weak_rules, strict_candidates, shapes_for, *, shift, cap=300_000):
    """Search an interpretation making all weak_rules weakly decreasing and at
    least one strict candidate strictly decreasing; returns (assign, strict).

    The answer is the first one in `product` order over the symbols' shape
    lists.  Symbols get their shapes in signature order, and a weak rule is
    checked as soon as its last symbol has one: a prefix that fails it is
    abandoned with every assignment that extends it."""
    rules = list(dict.fromkeys(list(weak_rules) + list(strict_candidates)))
    sig = signature(t for r in rules for t in (r.lhs, r.rhs))
    names = list(sig)
    lists = [shapes_for(f, sig[f]) for f in names]
    total = 1
    for l in lists:
        total *= len(l)
    if total > cap or not names:
        return None
    rule_syms = {id(r): list(signature((r.lhs, r.rhs))) for r in rules}
    level = {f: k for k, f in enumerate(names)}
    due = [[] for _ in names]  # the weak rules whose last symbol is names[k]
    for r in dict.fromkeys(weak_rules):
        due[max(level[f] for f in rule_syms[id(r)])].append(r)
    cache: dict = {}

    def decrease(r, assign):
        key = (id(r), tuple(assign[f] for f in rule_syms[id(r)]))
        hit = cache.get(key)
        if hit is None:
            hit = rule_decrease(assign, r, shift=shift)
            cache[key] = hit
        return hit

    # choice[k] indexes lists[k]; symbols before k are assigned, and the
    # dict's keys, set first in names order, keep that order
    assign: dict = {}
    choice = [-1] * len(names)
    k = 0
    while k >= 0:
        choice[k] += 1
        if choice[k] == len(lists[k]):
            choice[k] = -1
            k -= 1
            continue
        assign[names[k]] = lists[k][choice[k]]
        if not all(decrease(r, assign)[0] for r in due[k]):
            continue
        if k + 1 < len(names):
            k += 1
            continue
        strict = [r for r in strict_candidates if decrease(r, assign)[1]]
        if strict:
            return assign, strict
    return None


def _poly_removal(s_rules, p_rules):
    """Iterated rule removal; returns certificate rounds or None."""
    remaining = list(s_rules)
    rounds = []
    while remaining:
        found = _find_interpretation(
            remaining + list(p_rules), remaining, _shapes_strict, shift=True
        )
        if found is None:
            return None
        assign, strict = found
        rounds.append(
            (tuple(sorted(assign.items())), tuple(r.name for r in strict))
        )
        gone = {id(r) for r in strict}
        remaining = [r for r in remaining if id(r) not in gone]
    return tuple(rounds)


# ---------------------------------------------------------------------------
# dependency pairs (plain termination)

_MARK = "#"


def _mark(t: App) -> App:
    return App(t.fn + _MARK, t.args)


def dependency_pairs(s_trs: Trs) -> list[Rule]:
    defined = {r.lhs.fn for r in s_trs}
    dps = []
    for r in s_trs:
        k = 0
        for _, u in fun_subterms(r.rhs):
            if u.fn in defined:
                k += 1
                dps.append(Rule(_mark(r.lhs), _mark(u), f"{r.name}{_MARK}{k}"))
    return dps


def _cap_ren(t: Term, defined: set, fresh) -> Term:
    """REN(CAP(t)): defined-rooted subterms and variables become fresh vars."""
    if isinstance(t, Var):
        return Var(next(fresh))
    if t.fn in defined:
        return Var(next(fresh))
    return App(t.fn, tuple(_cap_ren(a, defined, fresh) for a in t.args))


def dp_graph(dps: list[Rule], defined: set) -> set[tuple[int, int]]:
    """Estimated edges i -> j between dependency pairs (by index)."""
    edges = set()
    fresh = count(5_000_000)
    for i, d1 in enumerate(dps):
        rhs = App(d1.rhs.fn, tuple(_cap_ren(a, defined, fresh) for a in d1.rhs.args))
        for j, d2 in enumerate(dps):
            lhs = d2.rename_apart().lhs
            if unify_all([(rhs, lhs)]) is not None:
                edges.add((i, j))
    return edges


def _has_cycle(nodes, edges) -> bool:
    adj = {n: [] for n in nodes}
    for a, b in edges:
        if a in adj and b in adj:
            adj[a].append(b)
    state = dict.fromkeys(nodes, 0)  # 0 new, 1 on stack, 2 done
    return any(state[n] == 0 and _dfs_finds_cycle(n, adj, state) for n in nodes)


def _dfs_finds_cycle(n, adj, state) -> bool:
    """Depth-first from the new node n: is a node on the stack reachable?"""
    state[n] = 1
    for m in adj[n]:
        if state[m] == 1 or (state[m] == 0 and _dfs_finds_cycle(m, adj, state)):
            return True
    state[n] = 2
    return False


def _dp_removal(s_trs: Trs):
    """Rounds removing strictly decreasing pairs until the graph is acyclic."""
    dps = dependency_pairs(s_trs)
    if not dps:
        return tuple(), dps
    defined = {r.lhs.fn for r in s_trs}
    edges = dp_graph(dps, defined)
    remaining = list(range(len(dps)))
    rounds = []
    while _has_cycle(remaining, edges):
        found = _find_interpretation(
            list(s_trs.rules) + [dps[i] for i in remaining],
            [dps[i] for i in remaining],
            _shapes_weak,
            shift=False,
        )
        if found is None:
            return None, dps
        assign, strict = found
        strict_names = {r.name for r in strict}
        rounds.append((tuple(sorted(assign.items())), tuple(sorted(strict_names))))
        remaining = [i for i in remaining if dps[i].name not in strict_names]
    return tuple(rounds), dps


# ---------------------------------------------------------------------------
# structural failure reasons


def homeomorphic_embeds(s: Term, t: Term) -> bool:
    """s embeds into t (dive into arguments or match the same symbol)."""
    if s == t:
        return True
    if isinstance(t, App):
        if any(homeomorphic_embeds(s, a) for a in t.args):
            return True
        if isinstance(s, App) and s.fn == t.fn and len(s.args) == len(t.args):
            return all(homeomorphic_embeds(a, b) for a, b in zip(s.args, t.args))
    return False


def _rule_loops(r: Rule) -> bool:
    """Right-hand side contains an instance of the left-hand side."""
    return any(match_term(r.lhs, u) is not None for _, u in fun_subterms(r.rhs))


def _failure_reason(rules) -> str:
    if any(_rule_loops(r) for r in rules):
        return "structural: a right-hand side contains an instance of its left-hand side"
    if any(homeomorphic_embeds(r.lhs, r.rhs) for r in rules):
        return "structural: self-embedding rule, no simplification order applies"
    return "search exhausted"


# ---------------------------------------------------------------------------
# entry points

_cache: dict = {}


def clear_cache():
    _cache.clear()


def _named_key(trs: Trs) -> frozenset:
    """Cache key of a system: its rules by name and canonical shape.  A
    certificate is only handed to a system whose rules carry the same names,
    so it always replays against the caller's system."""
    return frozenset((r.name, r.key()) for r in trs)


def prove_termination(s_trs: Trs, hook: str | None = None):
    """Returns (TerminationCertificate | None, reason string)."""
    key = ("plain", _named_key(s_trs), hook)
    if key not in _cache:
        _cache[key] = _prove_termination(s_trs, hook)
    return _cache[key]


def _prove_termination(s_trs: Trs, hook):
    names = tuple(r.name for r in s_trs)
    if not s_trs.rules:
        return TerminationCertificate("trivial", names), ""
    if any(_rule_loops(r) for r in s_trs):
        return None, _failure_reason(s_trs.rules)
    prec = _find_lpo(s_trs.rules)
    if prec is not None:
        return TerminationCertificate("lpo", names, precedence=prec), ""
    rounds = _poly_removal(list(s_trs.rules), [])
    if rounds is not None:
        return TerminationCertificate("poly", names, rounds=rounds), ""
    dp_rounds, _dps = _dp_removal(s_trs)
    if dp_rounds is not None:
        return TerminationCertificate("dp", names, dp_rounds=dp_rounds), ""
    if hook:
        if run_external_prover(hook, s_trs):
            return TerminationCertificate("external", names, detail=hook), ""
    return None, _failure_reason(s_trs.rules)


def prove_relative_termination(s_trs: Trs, p_trs: Trs, hook: str | None = None):
    """S terminating relative to P (P-steps allowed in between, only S-steps
    counted); returns (TerminationCertificate | None, reason string)."""
    if not p_trs.rules:
        return prove_termination(s_trs, hook)
    key = ("rel", _named_key(s_trs), _named_key(p_trs))
    if key not in _cache:
        _cache[key] = _prove_relative(s_trs, p_trs)
    return _cache[key]


def _prove_relative(s_trs: Trs, p_trs: Trs):
    s_names = tuple(r.name for r in s_trs)
    p_names = tuple(r.name for r in p_trs)
    if not s_trs.rules:
        return TerminationCertificate("trivial", s_names, p_names), ""
    if any(_rule_loops(r) for r in s_trs):
        return None, _failure_reason(s_trs.rules)
    rounds = _poly_removal(list(s_trs.rules), list(p_trs.rules))
    if rounds is not None:
        return (
            TerminationCertificate("poly", s_names, p_names, rounds=rounds),
            "",
        )
    return None, "search exhausted"


def run_external_prover(path: str, s_trs: Trs, timeout: float = 10.0) -> bool:
    """Feed the system to an external prover; YES on the first line wins."""
    try:
        proc = subprocess.run(
            [path],
            input=print_trs(s_trs).encode(),
            capture_output=True,
            timeout=timeout,
        )
    except (OSError, subprocess.TimeoutExpired):
        return False
    first = proc.stdout.decode(errors="replace").splitlines()
    return bool(first) and first[0].strip() == "YES"


# ---------------------------------------------------------------------------
# replay


def replay_certificate(s_trs: Trs, p_trs: Trs, cert: TerminationCertificate, hook=None) -> bool:
    """Re-check a termination certificate without searching.

    Structural defects raise MalformedCertificate; honest claim failures
    return False.
    """
    if not isinstance(cert, TerminationCertificate):
        raise MalformedCertificate("not a termination certificate")
    if set(cert.s_names) != {r.name for r in s_trs}:
        raise MalformedCertificate("certificate names do not match the system")
    if set(cert.p_names) != {r.name for r in p_trs}:
        raise MalformedCertificate("certificate relative part does not match")

    if cert.method == "trivial":
        return not s_trs.rules
    if cert.method == "lpo":
        if p_trs.rules:
            raise MalformedCertificate("lpo certificates cannot be relative")
        if set(s_trs.signature) - set(cert.precedence):
            raise MalformedCertificate("precedence does not cover the signature")
        prec = {f: len(cert.precedence) - i for i, f in enumerate(cert.precedence)}
        return all(lpo_gt(r.lhs, r.rhs, prec) for r in s_trs)
    if cert.method == "poly":
        return _replay_poly(s_trs, p_trs, cert)
    if cert.method == "dp":
        if p_trs.rules:
            raise MalformedCertificate("dp certificates cannot be relative")
        return _replay_dp(s_trs, cert)
    if cert.method == "external":
        # not independently checkable; accept only with the same hook present
        return bool(hook) and run_external_prover(hook, s_trs)
    raise MalformedCertificate(f"unknown method {cert.method!r}")


def _replay_poly(s_trs: Trs, p_trs: Trs, cert) -> bool:
    remaining = {r.name: r for r in s_trs}
    if not cert.rounds and remaining:
        raise MalformedCertificate("poly certificate with no rounds")
    for interp_items, strict_names in cert.rounds:
        assign = dict(interp_items)
        if not strict_names:
            raise MalformedCertificate("round removes nothing")
        for n in strict_names:
            if n not in remaining:
                raise MalformedCertificate(f"round removes unknown rule {n}")
        for r in list(remaining.values()) + list(p_trs.rules):
            if not rule_decrease(assign, r)[0]:
                return False
        for n in strict_names:
            if not rule_decrease(assign, remaining[n])[1]:
                return False
        for n in strict_names:
            del remaining[n]
    return not remaining


def _replay_dp(s_trs: Trs, cert) -> bool:
    dps = dependency_pairs(s_trs)
    defined = {r.lhs.fn for r in s_trs}
    edges = dp_graph(dps, defined)
    remaining = list(range(len(dps)))
    by_name = {d.name: i for i, d in enumerate(dps)}
    for interp_items, strict_names in cert.dp_rounds:
        assign = dict(interp_items)
        if not strict_names:
            raise MalformedCertificate("dp round removes nothing")
        for n in strict_names:
            if n not in by_name or by_name[n] not in remaining:
                raise MalformedCertificate(f"dp round removes unknown pair {n}")
        for r in list(s_trs.rules) + [dps[i] for i in remaining]:
            if not rule_decrease(assign, r, shift=False)[0]:
                return False
        for n in strict_names:
            if not rule_decrease(assign, dps[by_name[n]], shift=False)[1]:
                return False
        remaining = [i for i in remaining if dps[i].name not in set(strict_names)]
    return not _has_cycle(remaining, edges)
