"""Test oracles over the prover's own objects: replay a Step sequence, the
outer critical pairs, a reversibility witness re-checked with the verifier's
reversal check, and a term renamed apart from another."""
from confl.critical_pairs import CriticalPair, cp
from confl.reversibility import ReversibilityWitness, reversal_problems
from confl.rewriting import Trs, replay
from confl.terms import Term, Var, apply, pos_str, renaming_apart


def replay_steps(s: Term, steps, trs: Trs | None = None) -> Term:
    """Re-check a Step sequence starting at s; returns the end term.

    Each step must start where the previous one ended, use a rule of trs
    (when given), and reach its stored target when replayed; otherwise
    ValueError.
    """
    cur = s
    keys = {r.key() for r in trs} if trs is not None else None
    for st in steps:
        if st.source != cur:
            raise ValueError("step sequence does not chain")
        if keys is not None and st.rule.key() not in keys:
            raise ValueError(f"step uses foreign rule {st.rule.name}")
        (done,) = replay(cur, [(st.position, st.rule)])
        cur = done.target
        if cur != st.target:
            raise ValueError(f"step {st.rule.name} at {pos_str(st.position)} "
                             f"does not reach its stated target")
    return cur


def cp_out(r_rules: Trs, q_rules: Trs) -> list[CriticalPair]:
    """The critical pairs of r_rules on q_rules that overlap at the root."""
    return [pr for pr in cp(r_rules, q_rules) if pr.kind == "outer"]


def replay_reversibility(p_trs: Trs, witness: ReversibilityWitness) -> bool:
    """Re-check a reversibility witness step by step."""
    return not reversal_problems(p_trs, [
        (name, [(st.position, st.rule.name) for st in steps])
        for name, steps in witness.sequences])


def rename_apart(t1: Term, t2: Term) -> tuple[Term, dict[int, Var]]:
    """Rename t2 so it shares no variables with t1; returns (t2', mapping).

    The mapping is a bijection onto fresh variables, so t2' is a variant
    that shares no variable with t1 or any other term built before it.
    """
    mapping = renaming_apart([t2])
    return apply(mapping, t2), mapping
