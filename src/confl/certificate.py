"""Self-contained, replayable proof certificates.

A YES certificate records the input system, every completion transformation
with its witness, the final S/P split, the reversibility witness, termination
certificates, and one join witness per critical pair.  The verifier replays
all of it without search: steps are applied positionally, termination
certificates are checked arithmetically, critical pairs are recomputed.

Every line is checked, and each fact is written once.  What the verifier
derives is not written: a history step's right side is where its steps end,
P' is named by its rules in P ∪ P⁻¹, and the one termination certificate,
for S relative to P' (or to all of P), is its method and that method's
facts, for the systems the verifier hands it; it proves S terminating too.
A line the verifier would not read is an error: one outside its block or
section, a second copy of a one-fact line, a YES certificate's reason, a
MAYBE certificate's criterion or section, and `pprime` under huet, whose
obligation fixes P' = ∅.  Errors quote the line.

Format 7, a line each (<names> comma-separated, <pos> `e` or `1.2`, <name>
one word without `,;:@`, and ?v1, ?v2, ... variables numbered per rule,
history block or join; a join's are its pair's, below):

    BEGIN CERTIFICATE
    format 7
    verdict YES                            (else: reason <text>, then END)
    criterion <linear|parallel|pcp|huet>
    section input                          then per input rule:
      rule <name>: <lhs> -> <rhs>
    section history                        only after completion, per step:
      addition <name>: <lhs>               then step <pos> <rule> lines
      replace <old> with <new>             then step lines, then back lines
    section partition                      then final-s <names>, final-p
      <names>, and pprime <names> when P' ⊆ P ∪ P⁻¹ is nonempty
    section reversibility                  then per rule of P:
      revseq <name>: <pos> <rule>; ...     (- for no step)
    section termination                    then relterm <method>, followed by
      its facts as a JSON array when it has any (S relative to P', or to P)
    section joins                          then per recomputed pair:
      join <cond> <branch>                 then per segment that steps:
      segment <rel> <rules> <fwd|rev> | <end>
      step <pos> <rule> lines, or one pstep <rule>@<pos>,... line
    END CERTIFICATE

The k-th join is checked against the verifier's k-th pair: conditions in
`CRITERION_TABLE` order, each family in `critical_pairs` order.  It writes
no term of that pair.  Its variables are the pair's own, ?v<i+1> for the
pair's i-th `variables` entry, and `parse_certificate` keeps a segment's
end as text, read in them when its join is checked: the verifier renames
nothing.  A join must connect its pair by equality through a branch of its
condition's row, which also gives the linearity precondition and
termination obligation.  A segment starts where the one before it ends,
the first at the pair's left term.  A segment that does no step is not
written: the written ones take the branch's entries in order, and an entry
left over must be reflexive, as star, opt, conv and parallel are and step
and plus are not.  A join still writes its condition, which its place
gives, so a reader sees which family it closes.

A history step is a forward derivation in the current system Q, by Q's rule
names: an addition l -> r gives l →*_Q r, a replacement of l -> r by l -> r'
gives r →*_Q r' and back steps r' →*_Q' r in the system Q' after it, and a
new rule's sides differ.  So →* never changes, and the final system is
confluent exactly when the input is.
"""
import json
import re
from dataclasses import dataclass, field

from .terms import (
    Position,
    Term,
    TermSyntaxError,
    Var,
    all_parallel,
    fresh_id,
    pos_str,
    read_term,
    subterm_at,
    term_tokens,
    token_offset,
    var_ids,
    write_term,
)
from .rewriting import Rule, Trs, replay_named
# cp, cp_in and pcp_in are called by the names CRITERION_TABLE gives
from .critical_pairs import cp, cp_in, pcp_in
from .criteria import CRITERION_TABLE
from .reversibility import reversal_problems
from .termination import MalformedCertificate, TerminationCertificate, replay_certificate

FORMAT = "7"


# --- term scope: stable local variable names per block ------------------------

# names: what str.isalnum accepts plus +*'_-~#; a variable is ?name
_TOKENS = term_tokens(r"\??[\w+*'~#-]+")


class _Scope:
    def __init__(self):
        self.names: dict[int, str] = {}

    def var_text(self, v: Var) -> str:
        if v.id not in self.names:
            self.names[v.id] = f"v{len(self.names) + 1}"
        return "?" + self.names[v.id]

    def print_term(self, t: Term) -> str:
        return write_term(t, self.var_text)


class _ParseScope:
    def __init__(self):
        self.vars: dict[str, Var] = {}

    def leaf(self, name: str) -> Var | None:
        if name[0] != "?":
            return None
        if name not in self.vars:
            self.vars[name] = Var(fresh_id(), name[1:])
        return self.vars[name]


class CertificateError(ValueError):
    pass


def parse_term(text: str, scope: _ParseScope) -> Term:
    text = text.strip()
    tokens = _TOKENS.findall(text)
    try:
        t, i = read_term(tokens, 0, scope.leaf)
    except TermSyntaxError as exc:
        at = token_offset(tokens, exc.token)
        raise CertificateError(f"bad term syntax at offset {at} in {text!r}: {exc}") from exc
    if tokens[i][1] or tokens[i][2]:
        raise CertificateError(f"trailing input after term: {text[token_offset(tokens, i):]!r}")
    return t


def _parse_pos(s: str) -> Position:
    if s == "e":
        return ()
    try:
        return tuple(int(x) for x in s.split("."))
    except ValueError as exc:
        raise CertificateError(f"bad position {s!r}") from exc


_NAME = re.compile(r"[^\s,;:@]+")


def _name(text: str) -> str:
    """A header's rule name: one word without the separators of the lines
    that refer to it."""
    if not _NAME.fullmatch(name := text.strip()):
        raise CertificateError(f"bad rule name {name!r}")
    return name


def _facts(payload: str) -> list:
    """A termination certificate's facts: a nonempty JSON array."""
    try:
        facts = json.loads(payload)
    except (ValueError, RecursionError) as exc:  # RecursionError: arrays nested too deeply
        raise CertificateError(f"bad termination facts: {exc}") from exc
    if not isinstance(facts, list) or not facts:
        raise CertificateError("termination facts must be a nonempty JSON array")
    return facts


# --- serialization -------------------------------------------------------------


def _resolve_name(rule: Rule, table: Trs, what: str) -> str:
    for r in table:
        if r.key() == rule.key():
            return r.name
    raise CertificateError(f"cannot resolve {what} rule {rule!r} against its table")


def _moves(steps, table: Trs, what: str) -> list:
    """Each step as `<position> <rule name>`, the rule named as in table."""
    return [f"{pos_str(st.position)} {_resolve_name(st.rule, table, what)}" for st in steps]


def certificate_text(problem: Trs, result) -> str:
    """Render a completion result as a replayable plain-text certificate."""
    lines = ["BEGIN CERTIFICATE", f"format {FORMAT}", f"verdict {result.verdict}"]
    if result.verdict != "YES":
        return "\n".join(lines + [f"reason {result.reason}", "END CERTIFICATE"]) + "\n"

    rep, state = result.report, result.state
    lines.append(f"criterion {rep.criterion}")

    lines.append("section input")
    for r in problem:
        sc = _Scope()
        lines.append(f"rule {r.name}: {sc.print_term(r.lhs)} -> {sc.print_term(r.rhs)}")

    if state.history:
        # witness steps are named by the rules of the system they rewrite in
        q = problem
        lines.append("section history")
        for j in state.history:
            if j.kind == "addition":
                lines.append(f"addition {j.rule.name}: {_Scope().print_term(j.rule.lhs)}")
                lines.extend("step " + m for m in _moves(j.steps, q, "history"))
                q = Trs([*q, j.rule])
            else:
                lines.append(f"replace {j.old_rule.name} with {j.rule.name}")
                lines.extend("step " + m for m in _moves(j.steps, q, "history"))
                q = q.replace(j.old_rule, j.rule)
                lines.extend("back " + m for m in _moves(j.back, q, "history"))

    lines.append("section partition")
    lines.append(f"final-s {','.join(r.name for r in rep.s)}")
    lines.append(f"final-p {','.join(r.name for r in rep.p)}")
    # P' by the names the verifier gives P ∪ P⁻¹, and its S ∪ P' from those
    pp = rep.p.with_inverses()
    pp_names = list(dict.fromkeys(_resolve_name(r, pp, "P'") for r in rep.p_prime or ()))
    if pp_names:
        lines.append(f"pprime {','.join(pp_names)}")

    if rep.reversibility is not None:
        lines.append("section reversibility")
        for name, steps in rep.reversibility.sequences:
            lines.append(f"revseq {name}: {'; '.join(_moves(steps, rep.p, 'reversal')) or '-'}")

    lines.append("section termination")
    term = rep.relterm_cert
    facts = f" {json.dumps(term.facts, separators=(',', ':'))}" if term.facts else ""
    lines.append(f"relterm {term.method}{facts}")

    lines.append("section joins")
    tables = {"S": rep.s, "PP": pp, "SP": rep.s.union(Trs([pp.rule(n) for n in pp_names])),
              "P": pp}
    for ev in rep.evidence:
        sc = _Scope()  # named as the verifier names its pair's variables
        sc.names = {x: f"v{i + 1}" for i, x in enumerate(ev.variables)}
        lines.append(f"join {ev.condition} {ev.branch}")
        for seg in ev.segments:
            parallel = seg.rel == "parallel"
            if not (seg.steps[0].parts if parallel else seg.steps):
                continue  # no rewrite step: the end is the start
            table = tables[seg.rules]
            dirn = "rev" if seg.reverse else "fwd"
            lines.append(f"segment {seg.rel} {seg.rules} {dirn} | {sc.print_term(seg.end)}")
            if parallel:
                lines.append("pstep " + ",".join(
                    f"{_resolve_name(rl, table, 'parallel')}@{pos_str(p)}"
                    for p, rl in seg.steps[0].parts))
            else:
                lines.extend("step " + m for m in _moves(seg.steps, table, f"{seg.rel} segment"))
    lines.append("END CERTIFICATE")
    return "\n".join(lines) + "\n"


# --- parsing -------------------------------------------------------------------


@dataclass
class SegData:
    rel: str
    rules: str
    reverse: bool
    end: str  # read when its join is checked, in its pair's variables
    ops: list = field(default_factory=list)  # ("step", pos, name) | ("pstep", [(pos,name)])


@dataclass
class JoinData:
    condition: str
    branch: str
    segments: list = field(default_factory=list)


@dataclass
class HistoryData:
    kind: str
    name: str
    old_name: str = ""
    lhs: Term = None
    steps: list = field(default_factory=list)  # [(pos, rulename)], forward in Q
    back: list = field(default_factory=list)  # replacements: new rhs back to old in Q'


@dataclass
class CertificateData:
    verdict: str = ""
    reason: str = ""
    criterion: str = ""
    input_rules: list = field(default_factory=list)
    history: list = field(default_factory=list)
    s_names: tuple = ()
    p_names: tuple = ()
    p_prime: tuple | None = None  # names in P ∪ P⁻¹; None without a pprime line
    rev_seqs: list = field(default_factory=list)  # (name, [(pos, rulename)])
    relterm_cert: TerminationCertificate | None = None
    joins: list = field(default_factory=list)
    parts: list = field(default_factory=list)  # "criterion" and section names, as written


# the lines that state one fact each, so a second copy is never read
_ONCE = frozenset("verdict reason criterion final-s final-p pprime relterm".split())
_SECTIONS = frozenset("input history partition reversibility termination joins".split())


def _parse_names(s: str) -> tuple:
    return tuple(n for n in s.strip().split(",") if n)


def _move(text: str) -> tuple:
    """A `<position> <rule name>` move."""
    pos_s, name = text.split()
    return _parse_pos(pos_s), name


def _open(block):
    """The block a line continues, which a header must have opened."""
    if block is None:
        raise CertificateError("line outside its block")
    return block


def parse_certificate(text: str) -> CertificateData:
    cert = CertificateData()
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "BEGIN CERTIFICATE" or lines[-1] != "END CERTIFICATE":
        raise CertificateError("missing BEGIN/END CERTIFICATE markers")
    word, _, version = lines[1].partition(" ")
    if word != "format":
        raise CertificateError("no format line after BEGIN CERTIFICATE")
    if version != FORMAT:
        raise CertificateError(f"unsupported certificate format {version!r}")
    section = ""
    seen = set()  # the one-fact lines' words and the section lines
    cur_join = cur_seg = cur_hist = cur_back = None
    for line in lines[2:-1]:
        try:
            word, _, rest = line.partition(" ")
            rest = rest.strip()
            if word in _ONCE or word == "section":
                key = line if word == "section" else word
                if key in seen:
                    raise CertificateError("repeats an earlier line")
                seen.add(key)
            if word == "verdict":
                cert.verdict = rest
            elif word == "reason":
                cert.reason = rest
            elif word == "criterion":
                cert.criterion = rest
                cert.parts.append(word)
            elif word == "section":
                if rest not in _SECTIONS:
                    raise CertificateError("no such section")
                section = rest
                cert.parts.append(rest)
                cur_join = cur_seg = cur_hist = cur_back = None
            elif word == "rule" and section == "input":
                name, body = rest.split(":", 1)
                lhs_s, rhs_s = body.split("->")
                sc = _ParseScope()
                cert.input_rules.append(Rule(parse_term(lhs_s, sc), parse_term(rhs_s, sc),
                                             _name(name)))
            elif word == "addition" and section == "history":
                name, lhs_s = rest.split(":", 1)
                cur_hist = HistoryData("addition", _name(name),
                                       lhs=parse_term(lhs_s, _ParseScope()))
                cur_back = None  # back lines belong to a replacement
                cert.history.append(cur_hist)
            elif word == "replace" and section == "history":
                old, new = rest.split(" with ")
                cur_hist = HistoryData("replacement", _name(new), old_name=_name(old))
                cur_back = cur_hist.back
                cert.history.append(cur_hist)
            elif word == "step" and section == "history":
                _open(cur_hist).steps.append(_move(rest))
            elif word == "back" and section == "history":
                _open(cur_back).append(_move(rest))
            elif word == "final-s" and section == "partition":
                cert.s_names = _parse_names(rest)
            elif word == "final-p" and section == "partition":
                cert.p_names = _parse_names(rest)
            elif word == "pprime" and section == "partition":
                cert.p_prime = _parse_names(rest)
                if not cert.p_prime:
                    raise CertificateError("an empty P' is written as no pprime line")
            elif word == "revseq" and section == "reversibility":
                name, steps_s = rest.split(":", 1)
                steps_s = steps_s.strip()
                steps = [] if steps_s == "-" else [_move(chunk) for chunk in steps_s.split(";")]
                cert.rev_seqs.append((name.strip(), steps))
            elif word == "relterm" and section == "termination":
                method, _, facts = rest.partition(" ")
                cert.relterm_cert = TerminationCertificate(method, _facts(facts) if facts else ())
            elif word == "join" and section == "joins":
                cond, branch = rest.split()
                cur_join = JoinData(cond, branch)
                cur_seg = None
                cert.joins.append(cur_join)
            elif word == "segment" and section == "joins":
                head, end_s = rest.split("|", 1)
                rel, rules, dirn = head.split()
                if dirn not in ("fwd", "rev"):
                    raise CertificateError(f"direction {dirn!r} is neither fwd nor rev")
                cur_seg = SegData(rel, rules, dirn == "rev", end_s)
                _open(cur_join).segments.append(cur_seg)
            elif word == "step" and section == "joins":
                _open(cur_seg).ops.append(("step", *_move(rest)))
            elif word == "pstep" and section == "joins":
                parts = []
                for chunk in rest.split(","):
                    rn, _, pos_s = chunk.strip().rpartition("@")
                    parts.append((_parse_pos(pos_s), rn))
                _open(cur_seg).ops.append(("pstep", parts))
            else:
                raise CertificateError(f"unexpected in section {section!r}")
        except ValueError as exc:  # a CertificateError, or a line short of its fields
            shown = line if len(line) <= 200 else line[:200] + "..."
            raise CertificateError(f"line {shown!r}: {exc}") from exc
    return cert


# --- verification --------------------------------------------------------------


def _replay_segment(seg: SegData, start: Term, end: Term, tables: dict, problems: list,
                    label: str):
    table = tables[seg.rules]
    cur, goal = (end, start) if seg.reverse else (start, end)
    simple = psteps = 0
    par_positions = ()
    for op in seg.ops:
        if op[0] == "step":
            _, pos, rn = op
            steps = [(pos, rn)]
            simple += 1
        else:
            _, steps = op
            positions = [pos for pos, _rn in steps]
            if not all_parallel(positions):
                problems.append(f"{label}: parallel step positions overlap")
                return None
            psteps += 1
            par_positions = tuple(positions)
        cur = replay_named(cur, steps, table)
        if isinstance(cur, str):
            problems.append(f"{label}: {seg.rules} {cur}")
            return None
    if cur != goal:
        problems.append(f"{label}: segment does not connect its endpoints")
        return None
    need = seg.rel
    ok_count = (
        (need == "step" and simple == 1 and psteps == 0)
        or (need == "opt" and simple <= 1 and psteps == 0)
        or (need in ("star", "conv", "plus") and psteps == 0
            and (simple >= 1 if need == "plus" else True))
        or (need == "parallel" and simple == 0 and psteps == 1)
    )
    if not ok_count:
        problems.append(f"{label}: step count violates relation {need!r}")
        return None
    return par_positions


def _check_join(join: JoinData, criterion: str, cond: str, branches: tuple, pair,
                tables: dict, problems: list):
    """Check one join against the recomputed pair of condition `cond` that it
    stands for, and against that condition's branches."""
    label = f"join <{join.condition},{join.branch}>"
    if join.condition != cond:
        problems.append(f"{label}: stands where a condition {cond} join is due")
        return
    shape = dict(zip("AB", branches)).get(join.branch)
    if shape is None:
        problems.append(f"{label}: no such condition/branch for {criterion}")
        return
    # the written segments take branch entries in order; an entry left
    # unwritten stands for no step, which only a reflexive relation allows
    written = [(seg.rel, seg.rules, seg.reverse) for seg in join.segments]
    k = 0
    for entry in shape:
        if written[k:k + 1] == [entry]:
            k += 1
        elif entry[0] in ("step", "plus"):
            problems.append(f"{label}: unwritten {entry[0]} segment")
            return
    if k < len(written):
        problems.append(f"{label}: segment shape mismatch")
        return
    # the ends in the pair's own variables: its i-th is ?v<i+1>
    scope, ends = _ParseScope(), []
    scope.vars = {f"?v{i + 1}": Var(x) for i, x in enumerate(pair.variables)}
    try:
        for seg in join.segments:
            ends.append(parse_term(seg.end, scope))
    except CertificateError as exc:
        problems.append(f"{label} segment {len(ends) + 1}: {exc}")
        return
    if (ends[-1] if ends else pair.left) != pair.right:
        problems.append(f"{label}: does not connect its pair {pair!r}")
        return
    start = pair.left
    for k, (seg, end) in enumerate(zip(join.segments, ends), 1):
        positions = _replay_segment(seg, start, end, tables, problems, f"{label} segment {k}")
        if positions is None:
            return
        if seg.rel == "parallel" and pair.var_limit is not None:
            # pcp's (ii): the variables below the parallel step must be
            # constrained ones; replay has checked that the positions are in
            # the term.  An unwritten parallel step has no redex, so no check
            target = start if seg.reverse else end
            used = set().union(*(var_ids(subterm_at(target, pos)) for pos in positions))
            if not used <= pair.var_limit:
                problems.append(f"{label}: variable condition violated")
        start = end


def verify_certificate(text: str, problem: Trs | None = None, hook=None):
    """Replay a certificate.  Returns (ok, problems)."""
    problems: list[str] = []
    try:
        cert = parse_certificate(text)
    except (CertificateError, ValueError, AttributeError, KeyError, IndexError) as exc:
        return False, [f"unparsable certificate: {exc}"]

    if cert.verdict == "MAYBE":  # it states its verdict and reason only
        return not cert.parts, [f"a MAYBE certificate gives no {part}" for part in cert.parts]
    if cert.verdict != "YES":
        return False, [f"unknown verdict {cert.verdict!r}"]
    if cert.reason:
        problems.append("a YES certificate gives no reason")

    try:
        q = Trs(cert.input_rules)
    except ValueError as exc:
        return False, [f"bad input section: {exc}"]
    if problem is not None and q.key() != problem.key():
        problems.append("certificate input differs from the supplied problem")

    # 1. replay the completion history: each step is a forward derivation in
    # the current system q (and a replacement's back steps one in the next),
    # so every transformation keeps →* unchanged
    for h in cert.history:
        label = f"history step {h.name}"
        old = None
        if h.kind == "replacement":
            try:
                old = q.rule(h.old_name)
            except KeyError:
                problems.append(f"{label}: unknown rule {h.old_name}")
                return False, problems
        lhs, start = (h.lhs, h.lhs) if old is None else (old.lhs, old.rhs)
        rhs = replay_named(start, h.steps, q)
        if isinstance(rhs, str):
            problems.append(f"{label}: {rhs}")
            return False, problems
        if rhs == lhs:
            problems.append(f"{label}: the new rule's sides are one term")
            return False, problems
        try:
            new = Rule(lhs, rhs, h.name)
            q = Trs([*q, new]) if old is None else q.replace(old, new)
        except ValueError as exc:
            problems.append(f"{label}: invalid rule: {exc}")
            return False, problems
        if old is not None:
            back = replay_named(rhs, h.back, q)
            if back != old.rhs:
                why = back if isinstance(back, str) else "steps do not reach the old right side"
                problems.append(f"{label}: back {why}")
                return False, problems

    # 2. the final partition
    if sorted(cert.s_names + cert.p_names) != sorted(r.name for r in q):
        problems.append("final S/P is not a partition of the final system")
        return False, problems
    s = Trs([q.rule(n) for n in cert.s_names])
    p = Trs([q.rule(n) for n in cert.p_names])
    if not p.bidirectional():
        return False, problems + ["final P is not bidirectional"]
    pp = p.with_inverses()

    # 3. reversibility of P: every rule needs its reversal sequence
    problems.extend(reversal_problems(p, cert.rev_seqs))

    crit = cert.criterion
    if crit not in CRITERION_TABLE:
        return False, problems + [f"unknown criterion {crit!r}"]
    (prop, linear_classes), relative_to, conditions = CRITERION_TABLE[crit]

    # 4. P' ⊆ P∪P⁻¹, named by its rules there, and the one termination
    # certificate: S terminating relative to P' (or to P), so terminating
    try:
        p_prime = Trs([pp.rule(n) for n in cert.p_prime or ()])
    except KeyError as exc:
        return False, problems + [f"P' rule {exc.args[0]} is not a rule of P∪P⁻¹"]
    except ValueError as exc:  # a name given twice
        return False, problems + [f"bad P' set: {exc}"]
    if relative_to == "P" and cert.p_prime is not None:
        problems.append(f"{crit} fixes P' = ∅ and reads no pprime line")
    label = f"relative termination certificate for S/{relative_to}"
    if cert.relterm_cert is None:
        problems.append(f"missing {label}")
    else:
        try:
            if not replay_certificate(s, p_prime if relative_to == "P'" else p,
                                      cert.relterm_cert, hook=hook):
                problems.append(f"{label} rejected")
        except (MalformedCertificate, TypeError, ValueError, LookupError) as exc:
            problems.append(f"{label} malformed: {exc}")

    # 5. linearity preconditions
    classes = {"S": s, "P": p, "PP": pp}
    if not all(getattr(classes[c], prop)() for c in linear_classes):
        problems.append(f"{prop.replace('_', '-')}ity precondition violated")

    # 6. the k-th join joins the k-th recomputed critical pair
    tables = {"S": s, "PP": pp, "SP": s.union(p_prime), "P": pp}
    due = []  # (condition, branches, pair) in the order the joins are written
    for cond, (gen, left, right), branches in conditions:
        pairs = globals()[gen](classes[left], classes[right])
        if branches:
            due.extend((cond, branches, pair) for pair in pairs)
        elif pairs:  # parallel's (ii), the one family that must be empty
            problems.append("inner critical pairs of P∪P⁻¹ into S must be empty")
    if len(cert.joins) != len(due):
        problems.append(f"{len(cert.joins)} join(s) for {len(due)} recomputed pair(s)")
    else:
        for join, (cond, branches, pair) in zip(cert.joins, due):
            _check_join(join, crit, cond, branches, pair, tables, problems)

    return (not problems), problems
