"""Concrete syntax of the attribute-based language: tokenizer, parsers,
and the pretty-printers that invert them.  The parser plumbing is shared
with the broadcast calculus, whose grammar lives in ``bpi``.

The grammar is LL with one token of lookahead except for one spot where
the parser scans ahead to a matching parenthesis: distinguishing output
prefixes, input prefixes and grouping, which all start with `(`.  An
input is read left to right, its guard before the binders that the guard
may mention.  A comparison is a name of ``predicates.RELATIONS``.
"""

from __future__ import annotations

import re

from . import semantics as sem
from .predicates import (And, Atom, DomainContext, EMPTY_DOMAINS, FF, Ff, Not, Or, RELATIONS,
                         TT, Tt)
from .terms import (
    Attr,
    AttrEnv,
    Aware,
    Call,
    Choice,
    Component,
    Const,
    DomainViolation,
    In,
    Inact,
    Leaf,
    MsgIdx,
    Op,
    OPERATORS,
    Out,
    ParC,
    ParP,
    Process,
    Record,
    ResIn,
    ResOut,
    RestrictionFn,
    SelfAttr,
    SndAttr,
    Upd,
    Var,
    atom_map,
    flatten,
    map_atoms,
    pretty_value,
    values_equal,
)


class ParseError(Exception):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class UnguardedRecursion(Exception):
    """A recursion that reaches a call of itself through choice, parallel,
    awareness or other calls, with no action prefix in between: unfolding
    it never ends."""

    def __init__(self, name: str):
        super().__init__(f"unguarded recursion: {name}")


# ---------------------------------------------------------------------------
# Tokenizer


# Whitespace and comments are the unnamed alternatives; ``bad`` is any
# other character, which no token starts with.
_TOKEN_RE = re.compile(
    r"""[ \t\r\n]+ | //[^\n]*
      | (?P<int>\d+)
      | (?P<id>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<str>"(?:[^"\\\n]|\\.)*")
      | (?P<sym>:=|==|!=|<=|>=|&&|\|\||[-+*.,;:@=!<>(){}\[\]|])
      | (?P<bad>.)
    """,
    re.VERBOSE,
)


_KEYWORDS = frozenset({
    "comp", "iface", "env", "run", "def", "fn", "domain", "system",
    "universe", "restrictOut", "restrictIn", "this", "msg", "snd",
    "tt", "ff", "true", "false", "in", "tup", "proj", "insert",
    "remove", "contains", "nil", "tau", "rec",
})


class Model(Record):
    """A parsed source file: the system component plus its context."""

    def __init__(self, component: Component = None, defs=None, fns=None,
                 domains: DomainContext = EMPTY_DOMAINS, universe: tuple = (), components=None):
        self.component = component
        self.defs = {} if defs is None else defs
        self.fns = {} if fns is None else fns
        self.domains = domains
        self.universe = universe  # the labels of the universe block
        self.components = {} if components is None else components


def check_domains(comps, domains: DomainContext):
    """Every environment of the components gives each declared attribute
    a value of its domain; otherwise raise DomainViolation."""
    for leaf in (leaf for comp in comps for leaf in flatten(comp)[1]):
        for attr, value in leaf.env.items:
            dom = domains.get(attr)
            if dom is not None and not any(values_equal(value, d) for d in dom):
                raise DomainViolation(f"{attr} = {pretty_value(value)} outside its declared domain")


class Parser:
    """Token cursor and the grammar of models; ``bpi`` extends it with the
    grammar of broadcast terms.  A token is a tuple ``(kind, text, offset)``
    of kind ``id``, ``int``, ``str`` or ``sym``; the last is ``eof``, which
    the cursor never passes."""

    def __init__(self, text: str):
        self.text = text
        self.toks = toks = []
        for m in _TOKEN_RE.finditer(text):
            kind = m.lastgroup
            if kind:
                tok = (kind, m.group(), m.start())
                if kind == "bad":
                    raise self.error(f"unexpected character {tok[1]!r}", tok)
                toks.append(tok)
        toks.append(("eof", "", len(text)))
        self.pos = 0
        self.calls = []  # the names called since the last prefix: unguarded calls

    def error(self, message: str, tok: tuple) -> ParseError:
        """A ParseError at ``tok``, with its line and column counted from 1."""
        at = tok[2]
        line = self.text.count("\n", 0, at) + 1
        return ParseError(message, line, at - self.text.rfind("\n", 0, at))

    # -- plumbing

    def peek(self, ahead: int = 0) -> tuple:
        return self.toks[self.pos + ahead]

    def advance(self) -> tuple:
        tok = self.toks[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def at(self, value: str) -> bool:
        kind, text, _ = self.toks[self.pos]
        return text == value and (kind == "sym" or kind == "id")

    def eat(self, value: str) -> bool:
        if self.at(value):
            self.pos += 1
            return True
        return False

    def expect(self, value: str) -> tuple:
        tok = self.toks[self.pos]
        if not self.at(value):
            raise self.error(f"expected {value!r}, found {tok[1]!r}", tok)
        self.pos += 1
        return tok

    def ident(self, what: str = "identifier") -> str:
        kind, text, _ = tok = self.toks[self.pos]
        if kind != "id" or text in _KEYWORDS:
            raise self.error(f"expected {what}, found {text!r}", tok)
        self.pos += 1
        return text

    def done(self):
        tok = self.peek()
        if tok[0] != "eof":
            raise self.error(f"trailing input {tok[1]!r}", tok)

    def fail(self, message: str):
        raise self.error(message, self.peek())

    def match_paren(self, start: int) -> int:
        """Index of the token closing the parenthesis at index start."""
        depth = 0
        for i in range(start, len(self.toks)):
            kind, text, _ = self.toks[i]
            if kind != "sym":
                continue
            if text == "(":
                depth += 1
            elif text == ")":
                depth -= 1
                if depth == 0:
                    return i
        raise self.error("unbalanced parenthesis", self.toks[start])

    def comma_list(self, close: str, item, *args) -> list:
        """``item(*args)`` repeated with commas between, up to and
        including the token ``close``; empty when ``close`` comes first."""
        items = []
        if not self.at(close):
            items.append(item(*args))
            while self.eat(","):
                items.append(item(*args))
        self.expect(close)
        return items

    def guarded(self, mark: int, cont):
        """``cont``, the continuation of a prefix, parsed after ``calls``
        had ``mark`` entries: the calls in it are guarded, so they are
        dropped.  It takes the parsed term, so a prefix costs no frame."""
        del self.calls[mark:]
        return cont

    def binders(self, what: str) -> tuple:
        """Distinct names with commas between, up to and including ``)``;
        a name given twice is a ParseError."""
        tok = self.peek()
        return self.distinct(self.comma_list(")", self.ident, what), what, tok)

    def distinct(self, names, what: str, tok: tuple) -> tuple:
        """``names`` as a tuple; a ParseError at ``tok`` if one repeats."""
        for i, name in enumerate(names):
            if name in names[:i]:
                raise self.error(f"repeated {what} {name!r}", tok)
        return tuple(names)

    def env_literal(self) -> AttrEnv:
        """``{a = v, ...}``."""
        self.expect("{")
        return AttrEnv.of(dict(self.comma_list("}", self.binding)))

    def binding(self) -> tuple:
        attr = self.ident("attribute")
        self.expect("=")
        return attr, self.value()

    # -- literal values

    def value(self):
        kind, text, _ = tok = self.peek()
        if kind == "int":
            self.advance()
            return int(text)
        if text == "-" and self.peek(1)[0] == "int":
            self.advance()
            return -int(self.advance()[1])
        if kind == "str":
            self.advance()
            return _unquote(text)
        if text == "true":
            self.advance()
            return True
        if text == "false":
            self.advance()
            return False
        if self.eat("{"):
            members = self.comma_list("}", self.value)
            for i, v in enumerate(members):  # a frozenset would merge 1 and true
                for w in members[:i]:
                    if v == w and not values_equal(v, w):
                        raise self.error(f"a set cannot hold both {pretty_value(w)} and "
                                         f"{pretty_value(v)}", tok)
            return frozenset(members)
        if self.eat("tup"):
            self.expect("(")
            return tuple(self.comma_list(")", self.value))
        self.fail(f"expected a literal value, found {text!r}")

    # -- expressions

    def expr(self, bound: frozenset):
        left = self.term(bound)
        while self.at("+") or self.at("-"):
            op = self.advance()[1]
            left = Op(op, (left, self.term(bound)))
        return left

    def term(self, bound: frozenset):
        left = self.factor(bound)
        while self.at("*"):
            self.advance()
            left = Op("*", (left, self.factor(bound)))
        return left

    def factor(self, bound: frozenset):
        kind, text, _ = self.peek()
        if (kind == "int" or kind == "str" or text in ("true", "false", "{")
                or (text == "-" and self.peek(1)[0] == "int")):
            return Const(self.value())
        if self.eat("this"):
            self.expect(".")
            return SelfAttr(self.ident("attribute"))
        if self.eat("msg"):
            self.expect("[")
            idx_kind, idx, _ = self.peek()
            if idx_kind != "int":
                self.fail("expected a message index")
            self.advance()
            self.expect("]")
            return MsgIdx(int(idx))
        if self.eat("snd"):
            self.expect(".")
            return SndAttr(self.ident("attribute"))
        if kind == "id" and text in OPERATORS and text not in "+-*":
            self.advance()
            self.expect("(")
            return Op(text, tuple(self.comma_list(")", self.expr, bound)))
        if kind == "id" and text not in _KEYWORDS:
            self.advance()
            return Var(text) if text in bound else Attr(text)
        if self.eat("("):
            e = self.expr(bound)
            self.expect(")")
            return e
        self.fail(f"expected an expression, found {text!r}")

    # -- predicates

    def pred(self, bound: frozenset):
        left = self.pred_and(bound)
        while self.at("||"):
            self.advance()
            left = Or(left, self.pred_and(bound))
        return left

    def pred_and(self, bound: frozenset):
        left = self.pred_not(bound)
        while self.at("&&"):
            self.advance()
            left = And(left, self.pred_not(bound))
        return left

    def pred_not(self, bound: frozenset):
        if self.eat("!"):
            return Not(self.pred_not(bound))
        return self.pred_primary(bound)

    def pred_primary(self, bound: frozenset):
        if self.eat("tt"):
            return TT
        if self.eat("ff"):
            return FF
        if self.at("("):
            save = self.pos
            try:
                self.advance()
                inner = self.pred(bound)
                self.expect(")")
            except ParseError:
                self.pos = save
            else:
                nxt = self.peek()[1]
                if nxt not in RELATIONS and nxt not in ("+", "-", "*"):
                    return inner
                self.pos = save
        return self.atom(bound)

    def atom(self, bound: frozenset):
        left = self.expr(bound)
        op = self.peek()[1]
        if op in RELATIONS:
            self.advance()
            return Atom(op, left, self.expr(bound))
        self.fail(f"expected a comparison operator, found {op!r}")

    def guard(self, bound: frozenset):
        """Predicate in guard position: tt, ff, or parenthesized."""
        if self.eat("tt"):
            return TT
        if self.eat("ff"):
            return FF
        self.expect("(")
        p = self.pred(bound)
        self.expect(")")
        return p

    # -- processes

    def process(self, bound: frozenset):
        left = self.proc_par(bound)
        while self.at("+"):
            self.advance()
            left = Choice(left, self.proc_par(bound))
        return left

    def proc_par(self, bound: frozenset):
        left = self.proc_pre(bound)
        while self.at("|"):
            self.advance()
            left = ParP(left, self.proc_pre(bound))
        return left

    def proc_pre(self, bound: frozenset):
        (kind, text, _), mark = self.peek(), len(self.calls)
        if kind == "int" and text == "0":
            self.advance()
            return Inact()
        if self.at("["):
            assigns = []
            while self.eat("["):
                attr = self.ident("attribute")
                self.expect(":=")
                assigns.append((attr, self.expr(bound)))
                self.expect("]")
            return Upd(tuple(assigns), self.guarded(mark, self.proc_pre(bound)))
        if self.eat("<"):
            p = self.guard(bound)
            self.expect(">")
            return Aware(p, self.proc_pre(bound))
        if self.at("("):
            close = self.match_paren(self.pos)
            after = self.toks[close + 1][1]
            if after == "@":
                self.advance()
                exprs = self.comma_list(")", self.expr, bound)
                self.expect("@")
                p = self.guard(bound)
                self.expect(".")
                return Out(tuple(exprs), p, self.guarded(mark, self.proc_pre(bound)))
            if after == "(":
                # input: the guard, then the binders; a bare name in the
                # guard that is a binder is a variable
                p = self.guard(bound)
                self.expect("(")
                vars_ = self.binders("variable")
                inner = bound | frozenset(vars_)
                p = map_atoms(p, atom_map(
                    lambda e: Var(e.name) if isinstance(e, Attr) and e.name in vars_ else e))
                self.expect(".")
                return In(p, vars_, self.guarded(mark, self.proc_pre(inner)))
            self.advance()
            p = self.process(bound)
            self.expect(")")
            return p
        if kind == "id" and text not in _KEYWORDS:
            self.advance()
            args = self.comma_list(")", self.expr, bound) if self.eat("(") else ()
            self.calls.append(text)
            return Call(text, tuple(args))
        self.fail(f"expected a process, found {text!r}")

    # -- components

    def component(self, model: Model):
        left = self.comp_term(model)
        while self.at("||"):
            self.advance()
            left = ParC(left, self.comp_term(model))
        return left

    def comp_term(self, model: Model):
        if self.at("comp"):
            return self.comp_block(model)
        if self.eat("restrictOut"):
            return self.restriction(model, ResOut)
        if self.eat("restrictIn"):
            return self.restriction(model, ResIn)
        if self.eat("("):
            c = self.component(model)
            self.expect(")")
            return c
        name = self.ident("component name")
        if name not in model.components:
            self.fail(f"unknown component {name!r}")
        return model.components[name]

    def restriction(self, model: Model, ctor):
        self.expect("(")
        fname = self.ident("restriction function")
        if fname not in model.fns:
            self.fail(f"unknown restriction function {fname!r}")
        self.expect(")")
        self.expect("{")
        inner = self.component(model)
        self.expect("}")
        return ctor(inner, model.fns[fname])

    def comp_block(self, model: Model):
        self.expect("comp")
        name = None
        kind, text, _ = self.peek()
        if kind == "id" and text not in _KEYWORDS:
            name = self.advance()[1]
        self.expect("{")
        self.expect("iface")
        self.expect(":")
        self.expect("[")
        iface = self.comma_list("]", self.ident, "attribute")
        self.expect(";")
        self.expect("env")
        self.expect(":")
        env = self.env_literal()
        self.expect(";")
        self.expect("run")
        self.expect(":")
        proc = self.process(frozenset())
        self.expect("}")
        leaf = Leaf(env, frozenset(iface), proc)
        if name is not None:
            model.components[name] = leaf
        return leaf

    # -- top level

    def model(self) -> Model:
        model = Model()
        domains = {}
        system = None
        labels = []
        heads = {}  # definition -> the calls its body makes unguarded
        while self.peek()[0] != "eof":
            if self.at("domain"):
                self.advance()
                attr = self.ident("attribute")
                self.expect("in")
                vals = self.value()
                if not isinstance(vals, frozenset):
                    self.fail("domain must be a set literal")
                domains[attr] = vals
                self.expect(";")
            elif self.at("def"):
                self.advance()
                name = self.ident("definition name")
                params = self.binders("parameter") if self.eat("(") else ()
                self.expect("=")
                del self.calls[:]
                body = self.process(frozenset(params))
                self.expect(";")
                model.defs[name] = (params, body)
                heads[name], self.calls = self.calls, []
            elif self.at("fn"):
                self.advance()
                name = self.ident("restriction function name")
                self.expect("=")
                template = self.guard(frozenset())
                self.expect(";")
                model.fns[name] = RestrictionFn(name, template)
            elif self.at("comp"):
                self.comp_block(model)
            elif self.at("system"):
                self.advance()
                self.expect(":")
                system = self.component(model)
                self.expect(";")
            elif self.at("universe"):
                self.advance()
                self.expect("{")
                while not self.at("}"):
                    labels.append(self.universe_entry())
                self.expect("}")
            else:
                self.fail(f"unexpected {self.peek()[1]!r} at top level")
        _check_guarded(heads)
        model.domains = DomainContext.of(domains) if domains else EMPTY_DOMAINS
        model.universe = tuple(labels)
        if system is None and len(model.components) == 1:
            system = next(iter(model.components.values()))
        model.component = system
        check_domains([c for c in (system, *model.components.values()) if c], model.domains)
        return model

    def universe_entry(self):
        self.expect("msg")
        env = self.env_literal()
        self.expect("@")
        p = self.guard(frozenset())
        self.expect("(")
        values = self.comma_list(")", self.value)
        self.expect(";")
        return sem.Label(sem.IN, env, p, tuple(values))


def _check_guarded(heads: dict):
    """Raise UnguardedRecursion for the first definition that reaches a
    call of itself through the unguarded calls of ``heads``."""
    for name in heads:
        seen, todo = set(), list(heads[name])
        while todo:
            callee = todo.pop()
            if callee == name:
                raise UnguardedRecursion(name)
            if callee in heads and callee not in seen:
                seen.add(callee)
                todo += heads[callee]


def _unquote(raw: str) -> str:
    body = raw[1:-1]
    return body.replace('\\"', '"').replace("\\\\", "\\")


# ---------------------------------------------------------------------------
# Public parsing API


def parse_abc(text: str) -> Model:
    p = Parser(text)
    return p.model()


def parse_process(text: str, bound=frozenset()) -> Process:
    p = Parser(text)
    out = p.process(frozenset(bound))
    p.done()
    return out


def parse_predicate(text: str, bound=frozenset()):
    p = Parser(text)
    out = p.pred(frozenset(bound))
    p.done()
    return out


# ---------------------------------------------------------------------------
# Pretty-printing


def pretty_expr(e) -> str:
    if isinstance(e, Const):
        return pretty_value(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Attr):
        return e.name
    if isinstance(e, SelfAttr):
        return f"this.{e.name}"
    if isinstance(e, MsgIdx):
        return f"msg[{e.index}]"
    if isinstance(e, SndAttr):
        return f"snd.{e.name}"
    if isinstance(e, Op):
        if e.name in ("+", "-", "*"):
            l, r = e.args
            return f"({pretty_expr(l)} {e.name} {pretty_expr(r)})"
        return e.name + "(" + ", ".join(pretty_expr(a) for a in e.args) + ")"
    raise TypeError(f"not an expression: {e!r}")


def pretty_pred(p) -> str:
    if isinstance(p, Tt):
        return "tt"
    if isinstance(p, Ff):
        return "ff"
    if isinstance(p, Atom):
        return f"{pretty_expr(p.left)} {p.op} {pretty_expr(p.right)}"
    if isinstance(p, Not):
        return f"!({pretty_pred(p.pred)})"
    if isinstance(p, And):
        return f"({pretty_pred(p.left)} && {pretty_pred(p.right)})"
    if isinstance(p, Or):
        return f"({pretty_pred(p.left)} || {pretty_pred(p.right)})"
    raise TypeError(f"not a predicate: {p!r}")


def _guard_text(p) -> str:
    # a conjunction or disjunction prints in its own parentheses
    text = pretty_pred(p)
    return text if isinstance(p, (Tt, Ff, And, Or)) else f"({text})"


def pretty_process(p) -> str:
    if isinstance(p, Inact):
        return "0"
    if isinstance(p, Out):
        exprs = ", ".join(pretty_expr(e) for e in p.exprs)
        return f"({exprs})@{_guard_text(p.pred)}.{_pre_text(p.cont)}"
    if isinstance(p, In):
        vars_ = ", ".join(p.vars)
        return f"{_in_guard_text(p.pred)}({vars_}).{_pre_text(p.cont)}"
    if isinstance(p, Upd):
        parts = "".join(f"[{a} := {pretty_expr(e)}]" for a, e in p.assigns)
        return f"{parts} {_pre_text(p.cont)}"
    if isinstance(p, Aware):
        return f"<{_guard_text(p.pred)}> {_pre_text(p.proc)}"
    if isinstance(p, Choice):
        left = pretty_process(p.left)
        right = pretty_process(p.right)
        if isinstance(p.right, Choice):
            right = f"({right})"
        return f"{left} + {right}"
    if isinstance(p, ParP):
        left = pretty_process(p.left) if isinstance(p.left, ParP) else _pre_text(p.left)
        right = _pre_text(p.right)
        return f"{left} | {right}"
    if isinstance(p, Call):
        if p.args:
            return p.name + "(" + ", ".join(pretty_expr(a) for a in p.args) + ")"
        return p.name
    raise TypeError(f"not a process: {p!r}")


def _in_guard_text(p) -> str:
    text = _guard_text(p)
    if text in ("tt", "ff"):
        return f"({text})"
    return text


def _pre_text(p) -> str:
    if isinstance(p, (Choice, ParP)):
        return f"({pretty_process(p)})"
    return pretty_process(p)


def pretty_env(env: AttrEnv) -> str:
    inner = ", ".join(f"{a} = {pretty_value(v)}" for a, v in env.items)
    return "{" + inner + "}"


def pretty_component(c) -> str:
    return "".join([p if p.__class__ is str else _leaf_text(p) for p in layout(c)])


def layout(c, binary=ParC) -> list:
    """The text of a tree of ``binary`` ``||`` and restrictions, read by a
    loop: its fixed text as strings, and in between each leaf itself, left
    to right.  A right operand that is a ``||`` goes in parentheses."""
    out, todo = [], [c]
    while todo:
        node = todo.pop()
        if node.__class__ is str:
            out.append(node)
        elif isinstance(node, binary):
            nested = isinstance(node.right, binary)
            todo += (")" if nested else "", node.right, " || (" if nested else " || ", node.left)
        elif isinstance(node, (ResOut, ResIn)):
            kind = "Out" if isinstance(node, ResOut) else "In"
            todo += (" }", node.comp, f"restrict{kind}({node.fn.name}){{ ")
        else:
            out.append(node)
    return out


def _leaf_text(c) -> str:
    if not isinstance(c, Leaf):
        raise TypeError(f"not a component: {c!r}")
    iface = ", ".join(sorted(c.iface))
    return ("comp { iface: [" + iface + "]; env: " + pretty_env(c.env)
            + "; run: " + pretty_process(c.proc) + " }")


def pretty_label(lab: sem.Label) -> str:
    mark = "!" if lab.kind == sem.OUT else "?"
    values = ", ".join(pretty_value(v) for v in lab.values)
    return f"{pretty_env(lab.env)}@{_guard_text(lab.pred)}{mark}({values})"


def pretty_universe(labels) -> str:
    lines = ["universe {"]
    for lab in labels:
        values = ", ".join(pretty_value(v) for v in lab.values)
        lines.append(f"  msg {pretty_env(lab.env)} @ {_guard_text(lab.pred)} ({values});")
    lines.append("}")
    return "\n".join(lines)


def pretty_model(model: Model) -> str:
    lines = []
    for attr, vals in model.domains.items:
        lines.append(f"domain {attr} in {pretty_value(frozenset(vals))};")
    for name, fn in sorted(model.fns.items()):
        lines.append(f"fn {name} = {_guard_text(fn.template)};")
    for name, (params, body) in sorted(model.defs.items()):
        head = f"def {name}({', '.join(params)})" if params else f"def {name}"
        lines.append(f"{head} = {pretty_process(body)};")
    if model.component is not None:
        lines.append(f"system: {pretty_component(model.component)};")
    if model.universe:
        lines.append(pretty_universe(model.universe))
    return "\n".join(lines) + "\n"
