"""Reader and writer for the plain first-order TRS problem format:

    (VAR x y)
    (RULES
      +(0,y) -> y
      +(s(x),y) -> s(+(x,y))
    )
    (COMMENT anything)

Identifiers may contain letters, digits, ``+``, ``*``, ``'``, ``_`` and ``-``
(as long as ``-`` does not start an arrow).  Parse errors carry line/column
information."""
import re

from .terms import App, Term, Var, fresh_id
from .rewriting import Rule, Trs

_IDENT = re.compile(r"(?:[A-Za-z0-9+*'_]|-(?!>))+")


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _line_col(self, at: int):
        line = self.text.count("\n", 0, at) + 1
        last_nl = self.text.rfind("\n", 0, at)
        return line, at - last_nl

    def error(self, message: str, at: int | None = None):
        line, col = self._line_col(self.pos if at is None else at)
        raise ParseError(message, line, col)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def eof(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def expect(self, ch: str):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            got = self.text[self.pos] if self.pos < len(self.text) else "end of input"
            self.error(f"expected {ch!r}, found {got!r}")
        self.pos += 1

    def try_char(self, ch: str) -> bool:
        self.skip_ws()
        if self.pos < len(self.text) and self.text[self.pos] == ch:
            self.pos += 1
            return True
        return False

    def ident(self) -> str:
        self.skip_ws()
        m = _IDENT.match(self.text, self.pos)
        if not m:
            got = self.text[self.pos] if self.pos < len(self.text) else "end of input"
            self.error(f"expected an identifier, found {got!r}")
        self.pos = m.end()
        return m.group()

    def try_arrow(self) -> bool:
        self.skip_ws()
        if self.text.startswith("->", self.pos):
            self.pos += 2
            return True
        return False


def _parse_term(sc: _Scanner, var_ids: dict) -> Term:
    start = sc.pos
    name = sc.ident()
    if sc.try_char("("):
        args = []
        if not sc.try_char(")"):
            while True:
                args.append(_parse_term(sc, var_ids))
                if sc.try_char(")"):
                    break
                sc.expect(",")
        if name in var_ids:
            sc.error(f"variable {name} used as a function symbol", start)
        return App(name, tuple(args))
    if name in var_ids:
        return Var(var_ids[name], name)
    return App(name, ())


def parse_trs(text: str) -> Trs:
    sc = _Scanner(text)
    var_ids: dict = {}
    rules: list[Rule] = []
    saw_rules = False
    while not sc.eof():
        open_at = sc.pos
        sc.expect("(")
        section = sc.ident()
        if section == "VAR":
            while not sc.try_char(")"):
                name = sc.ident()
                if name not in var_ids:
                    var_ids[name] = fresh_id()
        elif section == "RULES":
            saw_rules = True
            while not sc.try_char(")"):
                at = sc.pos
                lhs = _parse_term(sc, var_ids)
                if not sc.try_arrow():
                    sc.error("expected '->' after left-hand side")
                rhs = _parse_term(sc, var_ids)
                try:
                    rules.append(Rule(lhs, rhs))
                    Trs(rules)  # signature stays arity-consistent
                except ValueError as exc:
                    sc.error(str(exc), at)
        elif section == "COMMENT":
            depth = 1
            while depth:
                if sc.pos >= len(sc.text):
                    sc.error("unterminated COMMENT section", open_at)
                ch = sc.text[sc.pos]
                if ch == "(":
                    depth += 1
                elif ch == ")":
                    depth -= 1
                sc.pos += 1
        else:
            sc.error(f"unknown section {section!r}", open_at)
    if not saw_rules:
        sc.error("missing (RULES ...) section", len(sc.text))
    try:
        return Trs(rules)
    except ValueError as exc:
        raise ParseError(str(exc), 1, 1) from exc


def parse_trs_file(path: str) -> Trs:
    with open(path, encoding="utf-8") as fh:
        return parse_trs(fh.read())


def print_term(t: Term, names: dict | None = None) -> str:
    if isinstance(t, Var):
        if names is not None:
            return names[t.id]
        return t.name or f"x{t.id}"
    if not t.args:
        return t.fn
    return f"{t.fn}({','.join(print_term(a, names) for a in t.args)})"


def _rule_var_names(rule: Rule, taken_funs: set) -> dict:
    """Distinct display names for the rule's variables (ids may share names)."""
    from .terms import term_vars

    names: dict[int, str] = {}
    used: set[str] = set(taken_funs)
    for v in term_vars(rule.lhs) + term_vars(rule.rhs):
        if v.id in names:
            continue
        base = v.name or f"x{v.id}"
        cand = base
        i = 0
        while cand in used:
            i += 1
            cand = f"{base}{i}"
        names[v.id] = cand
        used.add(cand)
    return names


def print_trs(trs: Trs) -> str:
    taken = set(trs.signature)
    per_rule = [_rule_var_names(r, taken) for r in trs]
    var_names: dict[str, None] = {}
    for names in per_rule:
        for n in names.values():
            var_names.setdefault(n, None)
    lines = []
    if var_names:
        lines.append(f"(VAR {' '.join(var_names)})")
    lines.append("(RULES")
    for r, names in zip(trs, per_rule):
        lines.append(f"  {print_term(r.lhs, names)} -> {print_term(r.rhs, names)}")
    lines.append(")")
    return "\n".join(lines) + "\n"
