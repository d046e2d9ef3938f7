"""Transducer expression syntax trees, concrete syntax and size metrics.

Expression grammar (combinators):

    h ::= e -> "v" | h + h | h . h | h .r h | h* | h*r
        | h odot h | kstar{k, e}(h) | krstar{k, e}(h) | dup{#} | rev

Regexes use `+`, juxtaposition or `.` for concatenation, postfix `*`, `@` for
the empty word and `!` for the empty language.  Precedence, tightest first:
postfix stars, products (`.`, `.r`), `odot`, `+`.  The concrete syntax is an
invention of this package; the pretty printer emits the canonical form and
`parse_rte(pretty(h)) == h` holds for every tree.

Parsing costs a few Python operations per token: compiled patterns read
whitespace, runs of plain letters and the multi-character tokens where
they start, and each rule returns its tree's depth with the tree.  So its
time is linear in the text, but for backtracking, which reads a
parenthesized part again.  Trees share their leaves: one `r_lit` node per
letter, one `r_eps` and one `r_empty`.  Regex operators and the binary and
starred combinators are built without the dataclass __init__; their
fields, equality, hash and repr are those of nodes made by it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from functools import cache


class RteSyntaxError(ValueError):
    """Raised on malformed expression text; carries the offending position."""

    def __init__(self, msg: str, pos: int):
        super().__init__("%s (at position %d)" % (msg, pos))
        self.pos = pos


class _TooDeep(RteSyntaxError):
    """Nesting beyond MAX_NESTING: backtracking cannot repair it."""


class TreeTooDeep(RteSyntaxError):
    """A parsed tree deeper than MAX_TREE_DEPTH."""


# ---------------------------------------------------------------------------
# Regexes

EMPTY = "empty"
EPS = "eps"
LIT = "lit"
RSUM = "rsum"
RCAT = "rcat"
RSTAR = "rstar"


def _tree_eq(a, b):
    """The dataclass equality, fields compared in turn as tuples compare
    them, but walked without recursion, so that trees of any depth
    compare."""
    if b.__class__ is not a.__class__:
        return NotImplemented
    todo = [(a, b)]
    while todo:
        (a, b) = todo.pop()
        for f in _FIELDS[a.__class__]:
            (x, y) = (getattr(a, f), getattr(b, f))
            if x is y:
                continue
            if x.__class__ in _FIELDS or y.__class__ in _FIELDS:
                if x.__class__ is not y.__class__:
                    return False
                todo.append((x, y))
            elif not x == y:
                return False
    return True


def _tree_repr(node) -> str:
    """The dataclass repr, built without recursion."""
    out = []
    todo = [node]
    while todo:
        n = todo.pop()
        if n.__class__ is str:
            out.append(n)
            continue
        todo.append(")")
        for (i, f) in reversed(list(enumerate(_FIELDS[n.__class__]))):
            v = getattr(n, f)
            todo.append(v if v.__class__ in _FIELDS else repr(v))
            todo.append("%s%s=" % (", " if i else "", f))
        todo.append(n.__class__.__qualname__ + "(")
    return "".join(out)


@dataclass(frozen=True)
class Regex:
    kind: str
    ch: str | None = None
    left: "Regex | None" = None
    right: "Regex | None" = None

    __eq__ = _tree_eq
    __repr__ = _tree_repr


_new = object.__new__
_setattr = object.__setattr__


def _inner(cls, kind: str, left, right=None):
    """A node of the frozen dataclass cls with `kind`, `left` and `right`
    set and its other fields at their class defaults.  The generated
    __init__ takes keyword arguments and sets every field; this skips both.
    Setting fields in place, not through the instance dict, keeps the
    instance as small as one made by __init__."""
    n = _new(cls)
    _setattr(n, "kind", kind)
    _setattr(n, "left", left)
    if right is not None:
        _setattr(n, "right", right)
    return n


_EMPTY = Regex(EMPTY)
_EPS = Regex(EPS)


def r_empty() -> Regex:
    return _EMPTY


def r_eps() -> Regex:
    return _EPS


@cache
def r_lit(ch: str) -> Regex:
    """The one literal node of ch; trees share their leaves."""
    return Regex(LIT, ch=ch)


def r_sum(a: Regex, b: Regex) -> Regex:
    return _inner(Regex, RSUM, a, b)


def r_cat(a: Regex, b: Regex) -> Regex:
    return _inner(Regex, RCAT, a, b)


def r_star(a: Regex) -> Regex:
    return _inner(Regex, RSTAR, a)


def r_word(w: str) -> Regex:
    """Regex denoting the single word w."""
    if not w:
        return r_eps()
    e = r_lit(w[0])
    for c in w[1:]:
        e = r_cat(e, r_lit(c))
    return e


def nl(e: Regex) -> int:
    """Number of literal occurrences; the Glushkov automaton has 1+nl states."""
    if e.kind in (EMPTY, EPS):
        return 0
    if e.kind == LIT:
        return 1
    if e.kind == RSTAR:
        return nl(e.left)
    return nl(e.left) + nl(e.right)


def regex_size(e: Regex) -> int:
    """Standard node-count size |e|; satisfies nl(e) <= |e|."""
    if e.kind in (EMPTY, EPS, LIT):
        return 1
    if e.kind == RSTAR:
        return 1 + regex_size(e.left)
    return 1 + regex_size(e.left) + regex_size(e.right)


# ---------------------------------------------------------------------------
# Expressions

BASE = "base"
SUM = "sum"
CAUCHY = "cauchy"
CAUCHY_REV = "cauchy_rev"
STAR = "star"
STAR_REV = "star_rev"
HADAMARD = "hadamard"
KSTAR = "kstar"
KSTAR_REV = "kstar_rev"
DUP = "dup"
REV = "rev"

_BINARY = (SUM, CAUCHY, CAUCHY_REV, HADAMARD)
_UNARY = (STAR, STAR_REV)
_KSTARS = (KSTAR, KSTAR_REV)


@dataclass(frozen=True)
class Expr:
    kind: str
    regex: Regex | None = None
    out: str | None = None
    left: "Expr | None" = None
    right: "Expr | None" = None
    k: int | None = None
    sep: str | None = None

    __eq__ = _tree_eq
    __repr__ = _tree_repr


def base(e: Regex, v: str) -> Expr:
    return Expr(BASE, regex=e, out=v)


def esum(f: Expr, g: Expr) -> Expr:
    return _inner(Expr, SUM, f, g)


def cauchy(f: Expr, g: Expr) -> Expr:
    return _inner(Expr, CAUCHY, f, g)


def cauchy_rev(f: Expr, g: Expr) -> Expr:
    return _inner(Expr, CAUCHY_REV, f, g)


def star(f: Expr) -> Expr:
    return _inner(Expr, STAR, f)


def star_rev(f: Expr) -> Expr:
    return _inner(Expr, STAR_REV, f)


def hadamard(f: Expr, g: Expr) -> Expr:
    return _inner(Expr, HADAMARD, f, g)


def kstar(k: int, e: Regex, f: Expr) -> Expr:
    if k < 1:
        raise ValueError("chained star needs k >= 1")
    return Expr(KSTAR, regex=e, left=f, k=k)


def kstar_rev(k: int, e: Regex, f: Expr) -> Expr:
    if k < 1:
        raise ValueError("chained star needs k >= 1")
    return Expr(KSTAR_REV, regex=e, left=f, k=k)


def dup(sep_ch: str) -> Expr:
    return Expr(DUP, sep=sep_ch)


def rev() -> Expr:
    return Expr(REV)


def tree_depth(node) -> int:
    """Nodes on the longest root-to-leaf path of an expression or regex
    tree, the regexes inside an expression included.  Iterative, so that
    any tree can be measured."""
    best = 0
    todo = [(node, 1)]
    while todo:
        n, d = todo.pop()
        best = max(best, d)
        for c in (getattr(n, "regex", None), n.left, n.right):
            if c is not None:
                todo.append((c, d + 1))
    return best


def children(h: Expr):
    if h.left is not None:
        yield h.left
    if h.right is not None:
        yield h.right


def size(h: Expr) -> int:
    """Expression size |h|.

    base: 1 + (1 + nl(e)) + max(1, |v|); binary combinators: 1 + |f| + |g|;
    stars: 1 + |f|; chained stars: 1 + nl(e) + |f| + k + 1; dup, rev: 3.
    """
    if h.kind == BASE:
        return 1 + (1 + nl(h.regex)) + max(1, len(h.out))
    if h.kind in _BINARY:
        return 1 + size(h.left) + size(h.right)
    if h.kind in _UNARY:
        return 1 + size(h.left)
    if h.kind in _KSTARS:
        return 1 + nl(h.regex) + size(h.left) + h.k + 1
    if h.kind in (DUP, REV):
        return 3
    raise ValueError(h.kind)


def width(h: Expr) -> int:
    """Maximum number of reads of an input position needed to evaluate h."""
    if h.kind in (BASE, DUP, REV):
        return 1
    if h.kind in (SUM, CAUCHY, CAUCHY_REV):
        return max(width(h.left), width(h.right))
    if h.kind in _UNARY:
        return width(h.left)
    if h.kind == HADAMARD:
        return width(h.left) + width(h.right)
    if h.kind in _KSTARS:
        return 2 + h.k * width(h.left)
    raise ValueError(h.kind)


def regex_nullable(e: Regex) -> bool:
    if e.kind in (EMPTY, LIT):
        return False
    if e.kind in (EPS, RSTAR):
        return True
    if e.kind == RSUM:
        return regex_nullable(e.left) or regex_nullable(e.right)
    return regex_nullable(e.left) and regex_nullable(e.right)


def dom_nullable(h: Expr) -> bool:
    """Whether the empty word lies in dom(h)."""
    if h.kind == BASE:
        return regex_nullable(h.regex)
    if h.kind in (DUP, REV, STAR, STAR_REV, KSTAR, KSTAR_REV):
        return True
    if h.kind == SUM:
        return dom_nullable(h.left) or dom_nullable(h.right)
    return dom_nullable(h.left) and dom_nullable(h.right)


def _uses(h: Expr, kinds) -> bool:
    """Whether h has a node of one of `kinds`, walked without recursion."""
    todo = [h]
    while todo:
        n = todo.pop()
        if n.kind in kinds:
            return True
        todo.extend(children(n))
    return False


def uses_hadamard_or_kstar(h: Expr) -> bool:
    return _uses(h, (HADAMARD, KSTAR, KSTAR_REV))


def uses_kstar(h: Expr) -> bool:
    return _uses(h, _KSTARS)


# ---------------------------------------------------------------------------
# Occurrence labeling

@dataclass(frozen=True)
class LabeledExpr:
    """An Expr node carrying a distinct occurrence id (pre-order, from 1)."""

    occ: int
    kind: str
    regex: Regex | None = None
    out: str | None = None
    left: "LabeledExpr | None" = None
    right: "LabeledExpr | None" = None
    k: int | None = None
    sep: str | None = None

    __eq__ = _tree_eq
    __repr__ = _tree_repr


# each tree class's fields, in order, for _tree_eq and _tree_repr
_FIELDS = {c: tuple(f.name for f in fields(c))
           for c in (Regex, Expr, LabeledExpr)}


def label_occurrences(h: Expr) -> LabeledExpr:
    """Assign occurrence ids by pre-order traversal starting at 1."""

    counter = [0]

    def go(node: Expr) -> LabeledExpr:
        counter[0] += 1
        occ = counter[0]
        left = go(node.left) if node.left is not None else None
        right = go(node.right) if node.right is not None else None
        return LabeledExpr(occ, node.kind, regex=node.regex, out=node.out,
                           left=left, right=right, k=node.k, sep=node.sep)

    return go(h)


def unlabel(lh: LabeledExpr) -> Expr:
    left = unlabel(lh.left) if lh.left is not None else None
    right = unlabel(lh.right) if lh.right is not None else None
    return Expr(lh.kind, regex=lh.regex, out=lh.out, left=left, right=right,
                k=lh.k, sep=lh.sep)


def labeled_nodes(lh: LabeledExpr):
    yield lh
    if lh.left is not None:
        yield from labeled_nodes(lh.left)
    if lh.right is not None:
        yield from labeled_nodes(lh.right)


# ---------------------------------------------------------------------------
# Concrete syntax: parsing

# Deepest parenthesis nesting the parser accepts.  Parsing recurses a few
# frames per level and the Python stack gives out near 200 levels; at 150,
# nested products and sums still build, evaluate and match the oracle.
MAX_NESTING = 100

# Deepest tree parse_rte and parse_regex accept, counted by tree_depth.
# Postfix stars and chains of infix operators deepen a tree without
# parentheses.  The builders, the oracle and the size formulas recurse with
# one or two frames per level, so at this depth build_pipeline and the
# oracle still run under Python's default recursion limit of 1000.
MAX_TREE_DEPTH = 400

# Token patterns, matched at the current position.  \s is exactly
# str.isspace and \d exactly str.isdecimal, the digits int() reads.
_WS = re.compile(r"\s*").match
# a regex's postfix stars and the whitespace after them; a '*' followed
# by 'r' belongs to the expression level
_REGEX_STARS = re.compile(r"(?:\s*\*(?!r))*\s*").match
_KEYWORD = re.compile(r"kr?star\{|dup\{|rev").match
_INT = re.compile(r"\d+").match


class _Parser:
    """Backtracking recursive descent over the combinator grammar.  Each
    rule returns its tree and the tree's depth as tree_depth counts it."""

    def __init__(self, text: str, sigma: str, gamma: str):
        self.text = text
        self.pos = 0
        self.sigma = set(sigma)
        self.gamma = set(gamma)
        self.depth = 0
        # Letters that are always a literal juxtaposed to the next letter:
        # not whitespace, a star, a product dot or an atom of its own.  All
        # but the last of a run of them take no star, so one match reads
        # the run.
        self.plain = {c for c in self.sigma
                      if not (c.isspace() or c in "*.@!(")}
        self.run = self.plain and re.compile("[%s]+" % "".join(
            map(re.escape, sorted(self.plain)))).match

    def ws(self) -> str:
        """Skip whitespace; the next character, or "" at the end."""
        self.pos = p = _WS(self.text, self.pos).end()
        return self.text[p:p + 1]

    def eat(self, tok: str) -> bool:
        self.ws()
        if self.text.startswith(tok, self.pos):
            self.pos += len(tok)
            return True
        return False

    def expect(self, tok: str):
        if not self.eat(tok):
            self.fail("expected %r" % tok)

    def fail(self, msg: str):
        raise RteSyntaxError(msg, self.pos)

    def nested(self, rule):
        """rule() one more level of parentheses deep, refused beyond
        MAX_NESTING."""
        if self.depth == MAX_NESTING:
            raise _TooDeep("parentheses nested deeper than %d levels"
                           % MAX_NESTING, self.pos)
        self.depth += 1
        try:
            return rule()
        finally:
            self.depth -= 1

    # -- regexes ------------------------------------------------------------

    def regex(self):
        e, d = self.regex_cat()
        while self.eat("+"):
            f, g = self.regex_cat()
            e, d = r_sum(e, f), max(d, g) + 1
        return e, d

    def regex_cat(self):
        e, d = self.regex_post()
        while True:
            save = self.pos
            c = self.ws()
            if c == ".":
                self.pos += 1
                f, g = self.regex_post()
            elif c in self.plain:
                start, end = self.pos, self.run(self.text, self.pos).end() - 1
                for ch in self.text[start:end]:
                    e = r_cat(e, r_lit(ch))
                d += end - start
                self.pos = end
                f, g = self.regex_post()
            elif c and (c in self.sigma or c in "@!("):
                try:
                    f, g = self.regex_post()
                except _TooDeep:
                    raise
                except RteSyntaxError:
                    self.pos = save
                    break
            else:
                break
            e, d = r_cat(e, f), max(d, g) + 1
        return e, d

    def regex_post(self):
        e, d = self.regex_atom()
        m = _REGEX_STARS(self.text, self.pos)
        self.pos = m.end()
        for _ in range(m.group().count("*")):
            e, d = r_star(e), d + 1
        return e, d

    def regex_atom(self):
        c = self.ws()
        if c == "@":
            self.pos += 1
            return r_eps(), 1
        if c == "!":
            self.pos += 1
            return r_empty(), 1
        if c == "(":
            self.pos += 1
            e_d = self.nested(self.regex)
            self.expect(")")
            return e_d
        if c and c in self.sigma:
            self.pos += 1
            return r_lit(c), 1
        if c.isalnum():
            self.fail("letter %r is not in the input alphabet" % c)
        self.fail("expected a regex")

    # -- expressions ----------------------------------------------------------

    def expr(self):
        e, d = self.expr_odot()
        while self.eat("+"):
            f, g = self.expr_odot()
            e, d = esum(e, f), max(d, g) + 1
        return e, d

    def expr_odot(self):
        e, d = self.expr_prod()
        while self.eat("odot"):
            f, g = self.expr_prod()
            e, d = hadamard(e, f), max(d, g) + 1
        return e, d

    def expr_prod(self):
        e, d = self.expr_post()
        while self.ws() == ".":
            reverse = self.text.startswith(".r", self.pos)
            self.pos += 1 + reverse
            f, g = self.expr_post()
            e, d = (cauchy_rev if reverse else cauchy)(e, f), max(d, g) + 1
        return e, d

    def expr_post(self):
        e, d = self.expr_atom()
        while self.ws() == "*":
            reverse = self.text.startswith("*r", self.pos)
            self.pos += 1 + reverse
            e, d = (star_rev if reverse else star)(e), d + 1
        return e, d

    def expr_atom(self):
        c = self.ws()
        m = _KEYWORD(self.text, self.pos)
        kw = m and m.group()
        if kw in ("kstar{", "krstar{"):
            self.pos = m.end()
            k = self.int_lit()
            if k < 1:
                self.fail("chained star needs k >= 1")
            self.expect(",")
            e, de = self.regex()
            self.expect("}")
            self.expect("(")
            f, df = self.nested(self.expr)
            self.expect(")")
            ctor = kstar if kw == "kstar{" else kstar_rev
            return ctor(k, e, f), max(de, df) + 1
        if kw == "dup{":
            self.pos = m.end()
            ch = self.ws()
            if not ch or ch == "}":
                self.fail("dup needs a separator letter")
            if ch in self.sigma:
                self.fail("dup separator %r must not be an input letter" % ch)
            if ch not in self.gamma:
                self.fail("dup separator %r is not an output letter" % ch)
            self.pos += 1
            self.expect("}")
            return dup(ch), 1
        if kw == "rev":
            self.pos = m.end()
            return rev(), 1
        if c == "(":
            save = self.pos
            self.pos += 1
            try:
                e_d = self.nested(self.expr)
                self.expect(")")
                return e_d
            except _TooDeep:
                raise
            except RteSyntaxError:
                self.pos = save
        return self.base_expr()

    def base_expr(self):
        e, d = self.regex()
        self.expect("->")
        v = self.string_lit()
        for c in v:
            if c not in self.gamma:
                self.fail("output letter %r is not in the output alphabet" % c)
        return base(e, v), d + 1

    def int_lit(self) -> int:
        self.ws()
        m = _INT(self.text, self.pos)
        if not m:
            self.fail("expected an integer")
        self.pos = m.end()
        return int(m.group())

    def string_lit(self) -> str:
        if self.ws() != '"':
            self.fail("expected a quoted output word")
        end = self.text.find('"', self.pos + 1)
        if end < 0:
            self.pos = len(self.text)
            self.fail("unterminated string")
        v = self.text[self.pos + 1:end]
        self.pos = end + 1
        return v


def _parse(rule, text: str, sigma: str, gamma: str):
    p = _Parser(text, sigma, gamma)
    tree, depth = rule(p)
    if p.ws():
        p.fail("trailing input")
    if depth > MAX_TREE_DEPTH:
        raise TreeTooDeep("tree deeper than %d levels" % MAX_TREE_DEPTH, 0)
    return tree


def parse_rte(text: str, sigma: str, gamma: str) -> Expr:
    """Parse expression text over the declared alphabets."""
    return _parse(_Parser.expr, text, sigma, gamma)


def parse_regex(text: str, sigma: str) -> Regex:
    return _parse(_Parser.regex, text, sigma, "")


# ---------------------------------------------------------------------------
# Pretty printing (canonical form)

def pretty_regex(e: Regex, prec: int = 0) -> str:
    # prec levels: 0 sum, 1 cat, 2 atom/star
    if e.kind == EMPTY:
        return "!"
    if e.kind == EPS:
        return "@"
    if e.kind == LIT:
        return e.ch
    if e.kind == RSUM:
        s = "%s+%s" % (pretty_regex(e.left, 0), pretty_regex(e.right, 1))
        return "(%s)" % s if prec > 0 else s
    if e.kind == RCAT:
        s = "%s%s" % (pretty_regex(e.left, 1), pretty_regex(e.right, 2))
        return "(%s)" % s if prec > 1 else s
    if e.kind == RSTAR:
        return "%s*" % pretty_regex(e.left, 2)
    raise ValueError(e.kind)


def pretty(h: Expr, prec: int = 0) -> str:
    """Canonical text; parse_rte(pretty(h)) reproduces h.

    prec levels: 0 sum, 1 odot, 2 products, 3 postfix/atom.
    """
    if h.kind == BASE:
        s = '%s -> "%s"' % (pretty_regex(h.regex), h.out)
        return "(%s)" % s if prec > 0 else s
    if h.kind == SUM:
        s = "%s + %s" % (pretty(h.left, 0), pretty(h.right, 1))
        return "(%s)" % s if prec > 0 else s
    if h.kind == HADAMARD:
        s = "%s odot %s" % (pretty(h.left, 1), pretty(h.right, 2))
        return "(%s)" % s if prec > 1 else s
    if h.kind in (CAUCHY, CAUCHY_REV):
        op = "." if h.kind == CAUCHY else ".r"
        s = "%s %s %s" % (pretty(h.left, 2), op, pretty(h.right, 3))
        return "(%s)" % s if prec > 2 else s
    if h.kind in (STAR, STAR_REV):
        op = "*" if h.kind == STAR else "*r"
        return "%s%s" % (pretty(h.left, 3), op)
    if h.kind in (KSTAR, KSTAR_REV):
        kw = "kstar" if h.kind == KSTAR else "krstar"
        return "%s{%d, %s}(%s)" % (kw, h.k, pretty_regex(h.regex), pretty(h.left, 0))
    if h.kind == DUP:
        return "dup{%s}" % h.sep
    if h.kind == REV:
        return "rev"
    raise ValueError(h.kind)
