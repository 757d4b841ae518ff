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
from .terms import (
    Term,
    TermSyntaxError,
    Var,
    add_signature,
    fresh_id,
    read_term,
    term_tokens,
    token_offset,
    token_text,
    write_term,
)
from .rewriting import Rule, Trs

_TOKENS = term_tokens(r"(?:[A-Za-z0-9+*'_]|-(?!>))+")


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


def parse_trs(text: str) -> Trs:
    tokens = _TOKENS.findall(text)
    variables: dict[str, Var] = {}  # the VAR-declared names

    def fail(message: str, i: int):
        at = token_offset(tokens, i)
        line = text.count("\n", 0, at) + 1
        raise ParseError(message, line, at - text.rfind("\n", 0, at))

    def past(mark: str, i: int) -> int:
        if tokens[i][2] != mark:
            fail(f"expected {mark!r}, found {token_text(tokens[i])}", i)
        return i + 1

    def term(i: int):
        try:
            return read_term(tokens, i, variables.get)
        except TermSyntaxError as exc:
            fail(str(exc), exc.token)

    rules: list[Rule] = []
    arities: dict[str, int] = {}  # the signature of the rules so far
    saw_rules = False
    i = 0
    while any(tokens[i][1:]):
        start = i
        i = past("(", i)
        section = tokens[i][1]
        if section not in ("VAR", "RULES", "COMMENT"):
            fail(f"unknown section {token_text(tokens[i])}", start)
        i += 1
        if section == "VAR":
            while tokens[i][1]:
                name = tokens[i][1]
                if name not in variables:
                    variables[name] = Var(fresh_id(), name)
                i += 1
        elif section == "RULES":
            saw_rules = True
            while tokens[i][2] != ")":
                lhs, j = term(i)
                rhs, j = term(past("->", j))
                try:
                    rules.append(Rule(lhs, rhs))
                    add_signature(arities, (lhs, rhs))
                except ValueError as exc:
                    fail(str(exc), i)
                i = j
        else:
            depth = 0  # parentheses opened inside the comment
            while depth or tokens[i][2] != ")":
                if not any(tokens[i][1:]):
                    fail("unterminated COMMENT section", start)
                depth += {"(": 1, ")": -1}.get(tokens[i][2], 0)
                i += 1
        i = past(")", i)
    if not saw_rules:
        fail("missing (RULES ...) section", i)
    return Trs(rules)  # checked rule by rule above


def parse_trs_file(path: str) -> Trs:
    with open(path, encoding="utf-8") as fh:
        return parse_trs(fh.read())


def print_term(t: Term, names: dict | None = None) -> str:
    if names is not None:
        return write_term(t, lambda v: names[v.id])
    return write_term(t, lambda v: v.name or f"x{v.id}")


def print_trs(trs: Trs) -> str:
    taken = set(trs.signature)
    var_names: dict[str, None] = {}  # every display name, in order of first use
    rules = []
    for r in trs:
        # distinct names for the rule's variables (ids may share names)
        names: dict[int, str] = {}
        used = set(taken)

        def var_text(v: Var) -> str:
            if v.id not in names:
                base = name = v.name or f"x{v.id}"
                i = 0
                while name in used:
                    i += 1
                    name = f"{base}{i}"
                names[v.id] = name
                used.add(name)
                var_names[name] = None
            return names[v.id]
        rules.append(f"  {write_term(r.lhs, var_text)} -> {write_term(r.rhs, var_text)}")
    head = [f"(VAR {' '.join(var_names)})"] if var_names else []
    return "\n".join(head + ["(RULES", *rules, ")"]) + "\n"
