"""Reversibility witnesses: found where expected, replayable, honest."""
import pytest

from confl import completion, reversibility
from confl.completion import check_confluence
from confl.criteria import Partition
from confl.reversibility import ReversibilityWitness, is_reversible
from confl.rewriting import Rule, Trs
from confl.run import Run, TimedOut

from helpers import replay_reversibility
from systems import CHAIN4, A, C, P5, P_CA, S2, S3, SS1, SS2, g1, h1, plus, s, x, y, z


def test_assoc_comm_is_reversible():
    wit = is_reversible(P_CA)
    assert wit is not None
    assert replay_reversibility(P_CA, wit)
    # undoing associativity takes the full five-step round trip via C and A
    assert len(wit.sequence("A")) == 5
    assert len(wit.sequence("C")) == 1


def test_successor_padding_rules_are_reversible():
    wit = is_reversible(P5)
    assert wit is not None
    assert replay_reversibility(P5, wit)
    assert len(wit.sequence("ss1")) == 1
    assert len(wit.sequence("ss2")) == 1


def test_flip_pair_is_reversible():
    fg = Trs([Rule(g1(x), h1(x), "f"), Rule(h1(x), g1(x), "g")])
    wit = is_reversible(fg)
    assert wit is not None and replay_reversibility(fg, wit)


def test_non_bidirectional_is_not_reversible():
    assert is_reversible(Trs([Rule(plus(x, y), x, "proj")])) is None
    # bidirectional but still not reversible: padding only grows
    assert is_reversible(Trs([Rule(g1(x), g1(g1(x)), "pad")])) is None
    # collapsing rule: rhs var set != lhs var set
    assert is_reversible(Trs([Rule(plus(x, y), plus(x, x), "collapse")])) is None


def test_orientable_but_not_reversible():
    # g(x) -> h(x) alone cannot be undone
    assert is_reversible(Trs([Rule(g1(x), h1(x), "gh")])) is None


def test_bound_matters():
    # undoing A needs 5 steps; a bound of 2 must fail, 5 must succeed
    assert is_reversible(P_CA, bound=2) is None
    assert is_reversible(P_CA, bound=5) is not None


def test_replay_rejects_tampering():
    wit = is_reversible(P_CA)
    # foreign rule set
    assert not replay_reversibility(P5, wit)
    # truncated sequence no longer ends at the lhs
    broken = ReversibilityWitness(
        wit.bound,
        tuple((n, steps[:-1]) for n, steps in wit.sequences),
    )
    assert not replay_reversibility(P_CA, broken)


def test_reversibility_keeps_the_deadline():
    # every split's P is searched through Partition.reversibility, whose
    # reach searches call the run's check before each term
    split = Partition(S2, P_CA)
    with pytest.raises(TimedOut, match="rewriting"):
        split.reversibility(Run(timeout=-1))
    # the cut-off search stored nothing
    assert split.reversibility(Run()) == is_reversible(P_CA)


def test_a_run_searches_each_reversal_once(monkeypatch):
    """chain4's run decomposes many systems and checks many splits, each
    asking whether its P is reversible.  Each P, as its rules stand in order,
    is searched once per bound: one reach search per rule, wherever the run
    asks, in `decompose`'s pruning rounds or for a criterion's witness."""
    searches = []

    def recording(module):
        reach = module.reach_bounded

        def call(start, goal, trs, depth, *args, **kwargs):
            if any((r.rhs, r.lhs) == (start, goal) for r in trs):  # a reversal
                searches.append((trs.rules, depth, start, goal))
            return reach(start, goal, trs, depth, *args, **kwargs)
        return call

    decomposed, decompose = [], completion.decompose

    def counted(q, *args, **kwargs):
        decomposed.append(q)
        return decompose(q, *args, **kwargs)

    for module in (completion, reversibility):
        monkeypatch.setattr(module, "reach_bounded", recording(module))
    monkeypatch.setattr(completion, "decompose", counted)
    assert check_confluence(CHAIN4).verdict == "MAYBE"
    per_p = {}
    for rules, depth, start, goal in searches:
        per_p.setdefault((rules, depth), []).append((start, goal))
    # 56 systems decomposed, and all their P the same commutativity and
    # associativity, searched once
    assert len(decomposed) > 50 and len(per_p) == 1
    for (rules, _), asked in per_p.items():
        assert asked == [(r.rhs, r.lhs) for r in rules]
