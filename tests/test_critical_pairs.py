"""Golden critical-pair sets for the reference systems, plus structural laws."""
from confl.critical_pairs import (
    CriticalPair,
    cp,
    cp_in,
    pcp_in,
)
from itertools import combinations, product

import pytest

from confl import critical_pairs
from confl.completion import check_confluence
from confl.rewriting import Rule, Trs, replay, step_at
from confl.run import Run, TimedOut
from confl.terms import (
    App,
    Var,
    all_parallel,
    apply,
    fun_subterms,
    pos_le,
    replace_at,
    replace_parallel,
    shape_key,
    subterm_at,
    unify_all,
    var_ids,
)

from helpers import cp_out, rename_apart, replay_steps
from systems import (ALL_SYSTEMS, CHAIN3, P5, P8, P_CA, R2, R3, S2, S3, S4, S6, S8, SS1, SS2,
                     WIDE4, decided, f2, g1, h1, plus, s, x, y, z, zero)


def keyset(pairs):
    return {shape_key((p.left, p.right))[0] for p in pairs}


def expect_keys(pairs):
    return {shape_key(lr)[0] for lr in pairs}


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
        assert shape_key(pair)[0] in keyset(got)


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
        return CriticalPair(
            left=left, right=right, kind="inner", peak=peak,
            outer_rule=None, redexes=(),
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
    expected_key = CriticalPair(
        left=plus(s(s(x)), y),
        right=s(plus(x, y)),
        kind="inner",
        peak=plus(s(x), y),
        outer_rule=None,
        redexes=(),
        var_limit=frozenset({x.id}),
    ).key()
    assert expected_key in {p.key() for p in got}


def test_every_pair_is_a_genuine_peak():
    pp = P5.with_inverses()
    for pairs, ordinary in [(cp(S3, pp) + cp(pp, S3) + cp(S3, S3), True),
                            (pcp_in(pp, S3), False)]:
        assert pairs
        for pair in pairs:
            # the inner redexes rewrite peak to left; an ordinary pair has one
            assert replay(pair.peak, pair.redexes)[-1].target == pair.left
            assert len(pair.redexes) == 1 or not ordinary
            # outer rule rewrites peak to right at the root
            st2 = step_at(pair.peak, (), pair.outer_rule)
            assert st2 is not None and st2.target == pair.right
            # only a parallel pair constrains variables
            assert (pair.var_limit is None) == ordinary


def test_every_parallel_pair_is_a_genuine_parallel_peak():
    pp = P5.with_inverses()
    pairs = pcp_in(pp, S3)
    assert pairs
    for pair in pairs:
        positions = [pos for pos, _ in pair.redexes]
        assert all_parallel(positions)
        assert all(p != () for p in positions)
        assert replay(pair.peak, pair.redexes)[-1].target == pair.left
        below = set()
        for pos in positions:
            below |= var_ids(subterm_at(pair.peak, pos))
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


def test_a_pairs_variables_are_numbered_by_its_key_walk():
    """`variables` lists the ids of the pair's variables in the order the
    key's `shape_key` walk numbers them, through left then right."""
    for trs in (*ALL_SYSTEMS, WIDE4):
        pairs = cp(trs, trs) + pcp_in(trs, trs)
        assert pairs
        for pr in pairs:
            assert pr.variables == tuple(shape_key((pr.left, pr.right))[1]), pr


def test_a_variable_only_the_peak_holds_is_keyed_but_not_listed():
    # g(x) -> a erases x: the one parallel pair <h(a), c> of it into
    # h(g(x)) -> c constrains x, which occurs only in its peak h(g(x))
    erasing = Trs([Rule(g1(x), App("a", ()), "er")])
    (pr,) = pcp_in(erasing, Trs([Rule(h1(g1(x)), App("c", ()), "h")]))
    assert len(pr.var_limit) == 1 and pr.var_limit <= var_ids(pr.peak)
    assert pr.key()[2] == frozenset({0})
    assert pr.variables == ()


# --- the brute-force enumeration, kept as an oracle for order and content ---


def _fresh(rule, avoid):
    lhs, mapping = rename_apart(avoid, rule.lhs)
    return Rule(lhs, apply(mapping, rule.rhs), rule.name)


def brute_cp(r_rules, q_rules):
    """cp without any pre-filter: every rule at every function position."""
    pairs = []
    for outer in q_rules:
        for inner in r_rules:
            ren = _fresh(inner, outer.lhs)
            self_overlap = inner.key() == outer.key()
            for p, _ in fun_subterms(outer.lhs):
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
                    outer_rule=outer, redexes=((p, ren),),
                ))
    return critical_pairs._dedup(pairs, Run())


def brute_pcp_in(q_rules, r_rules):
    """pcp_in over every subset of inner positions times every rule tuple."""
    pairs = []
    for outer in r_rules:
        inner_pos = [p for p, _ in fun_subterms(outer.lhs) if p != ()]
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
                    pairs.append(CriticalPair(
                        left=left, right=apply(sigma, outer.rhs), kind="inner",
                        peak=peak, outer_rule=outer, redexes=tuple(zip(ps, renamed)),
                        var_limit=frozenset(
                            v for p in ps for v in var_ids(subterm_at(peak, p))),
                    ))
    return critical_pairs._dedup(pairs, Run())


def trail(pairs):
    return [
        (pr.key(), tuple((p, r.name) for p, r in pr.redexes), pr.outer_rule.name)
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
    # a variable shared by two inner positions: tuples unify jointly
    (Trs([Rule(f2(plus(x, y), plus(x, z)), _const("c"), "nl")]), P_CA),
]


def test_pcp_in_and_cp_match_brute_force():
    for s_rules, p_rules in PARTITIONS:
        pp = p_rules.with_inverses()
        for q, r in [(pp, s_rules), (s_rules, s_rules), (s_rules, pp)]:
            assert trail(pcp_in(q, r)) == trail(brute_pcp_in(q, r))
            assert trail(cp(q, r)) == trail(brute_cp(q, r))


def test_pcp_in_skips_non_unifying_tuples(monkeypatch):
    pp = P_CA.with_inverses()
    chain = _chain(4)
    expected = trail(brute_pcp_in(pp, chain))
    calls = []

    def counting(eqs):
        calls.append(eqs)
        return unify_all(eqs)

    monkeypatch.setattr(critical_pairs, "unify_all", counting)
    got = pcp_in(pp, chain)
    # the brute force tries 318 tuples here, nearly all doomed
    assert len(calls) <= 30
    assert trail(got) == expected


def test_dedup_keeps_the_deadline():
    pairs = [CriticalPair(left=App(f"c{i}"), right=zero, kind="outer", peak=zero,
                          outer_rule=None, redexes=())
             for i in range(1024)]
    assert critical_pairs._dedup(pairs, Run()) == pairs
    with pytest.raises(TimedOut):
        critical_pairs._dedup(pairs, Run(timeout=-1))


def test_pcp_in_unifies_each_overlap_once(monkeypatch):
    calls = []

    def counting(eqs):
        calls.append(eqs)
        return unify_all(eqs)

    monkeypatch.setattr(critical_pairs, "unify_all", counting)
    got = pcp_in(P_CA.with_inverses(), _wide(4))
    # 4 positions with 3 overlapping rules each: 12 overlaps, each unified on
    # its own, and none of the 255 tuples built from them unified again
    assert len(got) == 255
    assert len(calls) == 12


def test_cp_renames_each_inner_rule_once_per_call(monkeypatch):
    """One variant of an inner rule serves every outer rule: each pair
    unifies it with one subterm of one outer left side."""
    rep = decided(R2).report
    renamed = []

    def counting(rule):
        renamed.append(rule.name)
        return rename_apart_rule(rule)

    rename_apart_rule = Rule.rename_apart
    monkeypatch.setattr(Rule, "rename_apart", counting)
    pairs = cp(rep.s, rep.s)
    assert pairs and len(rep.s) > 4
    assert len(renamed) == len(set(renamed)) <= len(rep.s)


def test_a_rule_made_from_a_memoized_pair_is_overlapped_on_a_fresh_variant():
    """A memoized pair keeps the variables of the inner variant it was made
    with, and so does a rule made from its sides.  A later call on the same
    run renames the inner rule apart afresh, so its overlaps with that rule
    are the ones a call without a run finds: on the first call's variant,
    s(s(x')) would meet s(x') in D's left side and fail the occurs check."""
    ss = Rule(s(s(x)), x, "ss")
    s_trs, run = Trs([ss]), Run()
    first = cp(s_trs, s_trs, run)
    assert len(first) == 1  # s(x') ← s(s(s(x'))) → s(x')
    d = Rule(g1(first[0].left), first[0].right, "d")
    q_rules = Trs([ss, d])
    got = cp(s_trs, q_rules, run)
    assert got[0] is first[0]  # the (ss, ss) block comes from the memo
    assert [pr.key() for pr in got] == [pr.key() for pr in cp(s_trs, q_rules)]
    assert len(got) == 2


@pytest.mark.parametrize("gen", [cp, pcp_in])
def test_a_block_cut_off_by_the_deadline_stores_nothing(gen):
    run = Run(timeout=-1)
    with pytest.raises(TimedOut):
        gen(P_CA.with_inverses(), _wide(2), run)
    assert run.pairs == {}


def test_critical_pairs_unify_each_overlap_once_per_completion_run(monkeypatch):
    """chain3's run checks 47 splits that differ by few rules.  Each (outer,
    inner) overlap is unified in the first split that asks for it, and the
    replacement candidates of `successors` read the same blocks.  Generated
    afresh per split, and once per S rule in `successors`, the same run took
    1,666 unifications."""
    calls = [0]

    def counting(eqs):
        calls[0] += 1
        return unify_all(eqs)

    monkeypatch.setattr(critical_pairs, "unify_all", counting)
    assert check_confluence(CHAIN3).verdict == "YES"
    assert calls[0] == 258
