"""Golden critical-pair sets for the reference systems, plus structural laws."""
from confl.critical_pairs import (
    CriticalPair,
    ParallelCriticalPair,
    cp,
    cp_in,
    cp_out,
    pcp_in,
)
from itertools import combinations, product

from confl import critical_pairs
from confl.rewriting import Rule, Trs, replay_steps, step_at
from confl.terms import (
    App,
    Var,
    all_parallel,
    apply,
    canonical_tuple,
    pos_le,
    positions_fun,
    rename_apart,
    rename_term,
    replace_at,
    replace_parallel,
    subterm_at,
    unify_all,
    var_ids,
)

from systems import P5, P8, P_CA, R3, S2, S3, S4, S6, S8, SS1, SS2, f2, g1, h1, plus, s, x, y, z, zero


def keyset(pairs):
    return {canonical_tuple((p.left, p.right)) for p in pairs}


def expect_keys(pairs):
    return {canonical_tuple(lr) for lr in pairs}


def test_cp_s_s_for_full_add_system():
    got = cp(S3, S3)
    expected = expect_keys(
        [
            (zero, zero),
            (s(y), s(plus(zero, y))),
            (s(plus(x, zero)), s(x)),
            (s(x), s(plus(x, zero))),
            (s(plus(zero, y)), s(y)),
            (s(plus(x, s(y))), s(plus(s(x), y))),
            (s(plus(s(x), y)), s(plus(x, s(y)))),
        ]
    )
    assert keyset(got) == expected
    assert len(got) == 7


def test_cp_in_pp_s_empty_for_full_add_system():
    assert cp_in(P_CA.with_inverses(), S3) == []


def test_cp_s_pp_sixteen_pairs():
    pp = P_CA.with_inverses()
    got = cp(S3, pp)
    expected = expect_keys(
        [
            (y, plus(y, zero)),
            (plus(y, z), plus(zero, plus(y, z))),
            (plus(y, z), plus(plus(zero, y), z)),
            (plus(x, z), plus(plus(x, zero), z)),
            (s(plus(x, y)), plus(y, s(x))),
            (plus(s(plus(x, y)), z), plus(s(x), plus(y, z))),
            (s(plus(x, plus(y, z))), plus(plus(s(x), y), z)),
            (plus(x, s(plus(y, z))), plus(plus(x, s(y)), z)),
            (x, plus(zero, x)),
            (plus(x, y), plus(x, plus(y, zero))),
            (plus(y, z), plus(y, plus(zero, z))),
            (plus(x, y), plus(plus(x, y), zero)),
            (s(plus(x, y)), plus(s(y), x)),
            (s(plus(plus(x, y), z)), plus(x, plus(y, s(z)))),
            (plus(s(plus(x, y)), z), plus(x, plus(s(y), z))),
            (plus(x, s(plus(y, z))), plus(plus(x, y), s(z))),
        ]
    )
    assert keyset(got) == expected
    assert len(got) == 16


def test_cp_out_add1_add2_into_commutativity():
    got = cp_out(S2, P_CA.with_inverses())
    for pair in [(y, plus(y, zero)), (s(plus(x, y)), plus(y, s(x)))]:
        assert canonical_tuple(pair) in keyset(got)


def test_root_self_overlap_skipped_but_renamed_copy_overlaps():
    # C over its own variant at the root is not a critical pair ...
    c_only = Trs([Rule(plus(x, y), plus(y, x), "C")])
    assert cp(c_only, c_only) == []
    # ... but a genuinely different rule with the same shape is
    swap = Trs([Rule(plus(x, y), App("pair", (y, x)), "swap")])
    assert len(cp_out(c_only, swap)) == 1


def test_pcp_in_golden_example():
    r_big = Trs([Rule(f2(g1(x), g1(y)), h1(g1(x)), "big")])
    q = Trs([Rule(g1(x), h1(x), "gh")])
    got = pcp_in(q, r_big)

    def pkey(left, right, peak, limit_ids):
        return ParallelCriticalPair(
            left=left, right=right, kind="inner", peak=peak,
            inner_rules=(), outer_rule=None, positions=(), mgu={},
            var_limit=frozenset(limit_ids),
        ).key()

    peak = f2(g1(x), g1(y))
    expected = {
        pkey(f2(h1(x), h1(y)), h1(g1(x)), peak, {x.id, y.id}),
        pkey(f2(g1(x), h1(y)), h1(g1(x)), peak, {y.id}),
        pkey(f2(h1(x), g1(y)), h1(g1(x)), peak, {x.id}),
    }
    assert {p.key() for p in got} == expected
    assert len(got) == 3
    # no outer parallel pairs and no pairs the other way around
    assert cp_out(q, r_big) == []
    assert cp(r_big, q) == []


def test_pcp_in_contains_double_successor_overlap():
    pp = P5.with_inverses()
    got = pcp_in(pp, S3)
    expected_key = ParallelCriticalPair(
        left=plus(s(s(x)), y),
        right=s(plus(x, y)),
        kind="inner",
        peak=plus(s(x), y),
        inner_rules=(),
        outer_rule=None,
        positions=(),
        mgu={},
        var_limit=frozenset({x.id}),
    ).key()
    assert expected_key in {p.key() for p in got}


def test_every_pair_is_a_genuine_peak():
    pp = P5.with_inverses()
    for pair in cp(S3, pp) + cp(pp, S3) + cp(S3, S3):
        # inner rule rewrites peak to left at the stored position
        st = step_at(pair.peak, pair.position, pair.inner_rule)
        assert st is not None and st.target == pair.left
        # outer rule rewrites peak to right at the root
        st2 = step_at(pair.peak, (), pair.outer_rule)
        assert st2 is not None and st2.target == pair.right


def test_every_parallel_pair_is_a_genuine_parallel_peak():
    pp = P5.with_inverses()
    pairs = pcp_in(pp, S3)
    assert pairs
    for pair in pairs:
        assert all_parallel(pair.positions)
        assert all(p != () for p in pair.positions)
        repl = []
        below = set()
        for pos, rule in zip(pair.positions, pair.inner_rules):
            sub = apply(pair.mgu, rule.rhs)
            repl.append((pos, sub))
            from confl.terms import subterm_at

            below |= var_ids(subterm_at(pair.peak, pos))
        assert replace_parallel(pair.peak, repl) == pair.left
        st = step_at(pair.peak, (), pair.outer_rule)
        assert st is not None and st.target == pair.right
        assert pair.var_limit == below


def test_dedup_is_up_to_renaming():
    two_copies = Trs(
        [
            Rule(plus(zero, y), y, "a1"),
            Rule(plus(zero, z), z, "a2"),  # a variant with other variable names
        ]
    )
    got = cp(two_copies, P_CA.with_inverses())
    # variants collapse: same pairs as from a single copy
    single = cp(Trs([Rule(plus(zero, y), y, "a1")]), P_CA.with_inverses())
    assert keyset(got) == keyset(single)


# --- the brute-force enumeration, kept as an oracle for order and content ---


def _fresh(rule, avoid):
    lhs, mapping = rename_apart(avoid, rule.lhs)
    return Rule(lhs, rename_term(rule.rhs, mapping), rule.name)


def brute_cp(r_rules, q_rules):
    """cp without any pre-filter: every rule at every function position."""
    pairs = []
    for outer in q_rules:
        for inner in r_rules:
            ren = _fresh(inner, outer.lhs)
            self_overlap = inner.key() == outer.key()
            for p in positions_fun(outer.lhs):
                if p == () and self_overlap:
                    continue
                sigma = unify_all([(ren.lhs, subterm_at(outer.lhs, p))])
                if sigma is None:
                    continue
                pairs.append(CriticalPair(
                    left=apply(sigma, replace_at(outer.lhs, p, ren.rhs)),
                    right=apply(sigma, outer.rhs),
                    kind="outer" if p == () else "inner",
                    peak=apply(sigma, outer.lhs),
                    inner_rule=ren, outer_rule=outer, position=p, mgu=sigma,
                ))
    return critical_pairs._dedup(pairs)


def brute_pcp_in(q_rules, r_rules):
    """pcp_in over every subset of inner positions times every rule tuple."""
    pairs = []
    for outer in r_rules:
        inner_pos = [p for p in positions_fun(outer.lhs) if p != ()]
        for n in range(1, len(inner_pos) + 1):
            for ps in combinations(inner_pos, n):
                if not all_parallel(ps):
                    continue
                for rules in product(list(q_rules), repeat=n):
                    renamed = [_fresh(r, outer.lhs) for r in rules]
                    sigma = unify_all(
                        [(rr.lhs, subterm_at(outer.lhs, p)) for rr, p in zip(renamed, ps)]
                    )
                    if sigma is None:
                        continue
                    peak = apply(sigma, outer.lhs)
                    left = apply(sigma, replace_parallel(
                        outer.lhs, [(p, rr.rhs) for rr, p in zip(renamed, ps)]))
                    pairs.append(ParallelCriticalPair(
                        left=left, right=apply(sigma, outer.rhs), kind="inner",
                        peak=peak, inner_rules=tuple(renamed), outer_rule=outer,
                        positions=tuple(ps), mgu=sigma,
                        var_limit=frozenset(
                            v for p in ps for v in var_ids(subterm_at(peak, p))),
                    ))
    return critical_pairs._dedup(pairs)


def cp_trail(pairs):
    return [(pr.key(), pr.position, pr.inner_rule.name, pr.outer_rule.name) for pr in pairs]


def pcp_trail(pairs):
    return [
        (pr.key(), pr.positions, tuple(r.name for r in pr.inner_rules), pr.outer_rule.name)
        for pr in pairs
    ]


def _const(name):
    return App(name, ())


def _sum(terms):
    out = terms[-1]
    for t in reversed(terms[:-1]):
        out = plus(t, out)
    return out


def _chain(n):
    return Trs([Rule(g1(_sum([_const(f"a{i}") for i in range(n)])), _const("c"), "g")])


def _wide(k):
    xs = [Var(10 + i, f"x{i}") for i in range(k)]
    ys = [Var(20 + i, f"y{i}") for i in range(k)]
    return Trs([Rule(App("f", tuple(plus(a, b) for a, b in zip(xs, ys))), _const("c"), "w")])


def _deep(n):
    t = x
    for _ in range(n):
        t = s(t)
    return Trs([Rule(h1(t), h1(x), "d")]).union(S3)


SWAP = Trs([
    Rule(g1(plus(_const("a"), _const("b"))), _const("c"), "g1"),
    Rule(g1(plus(_const("b"), _const("a"))), _const("d"), "g2"),
])

# (S, P) of R1-R8, then systems shaped like the benchmark's search and
# parallel inputs
PARTITIONS = [
    (Trs([]), P_CA),
    (S2, P_CA),
    (S3, P_CA),
    (S4, P_CA),
    (S3, P5),
    (S6, P_CA),
    (S4, Trs(list(P_CA) + [SS1, SS2])),
    (S8, P8),
    (_chain(3), P_CA),
    (_chain(4), P_CA),
    (_wide(3), P_CA),
    (SWAP, P_CA),
    (_deep(4), P_CA),
]


def test_pcp_in_and_cp_match_brute_force():
    for s_rules, p_rules in PARTITIONS:
        pp = p_rules.with_inverses()
        for q, r in [(pp, s_rules), (s_rules, s_rules), (s_rules, pp)]:
            assert pcp_trail(pcp_in(q, r)) == pcp_trail(brute_pcp_in(q, r))
            assert cp_trail(cp(q, r)) == cp_trail(brute_cp(q, r))


def test_pcp_in_skips_non_unifying_tuples(monkeypatch):
    pp = P_CA.with_inverses()
    chain = _chain(4)
    expected = pcp_trail(brute_pcp_in(pp, chain))
    calls = []

    def counting(eqs):
        calls.append(eqs)
        return unify_all(eqs)

    monkeypatch.setattr(critical_pairs, "unify_all", counting)
    got = pcp_in(pp, chain)
    # the brute force tries 318 tuples here, nearly all doomed
    assert len(calls) <= 30
    assert pcp_trail(got) == expected
