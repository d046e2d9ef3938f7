"""Transducer expression syntax trees, concrete syntax and size metrics.

Expression grammar (combinators):

    h ::= e -> "v" | h + h | h . h | h .r h | h* | h*r
        | h odot h | kstar{k, e}(h) | krstar{k, e}(h) | dup{#} | rev

Regexes use `+`, juxtaposition or `.` for concatenation, postfix `*`, `@` for
the empty word and `!` for the empty language.  Precedence, tightest first:
postfix stars, products (`.`, `.r`), `odot`, `+`.  The concrete syntax is an
invention of this package; the pretty printer emits the canonical form and
`parse_rte(pretty(h)) == h` holds for every tree.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass


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


@dataclass(frozen=True)
class Regex:
    kind: str
    ch: str | None = None
    left: "Regex | None" = None
    right: "Regex | None" = None


def r_empty() -> Regex:
    return Regex(EMPTY)


def r_eps() -> Regex:
    return Regex(EPS)


def r_lit(ch: str) -> Regex:
    return Regex(LIT, ch=ch)


def r_sum(a: Regex, b: Regex) -> Regex:
    return Regex(RSUM, left=a, right=b)


def r_cat(a: Regex, b: Regex) -> Regex:
    return Regex(RCAT, left=a, right=b)


def r_star(a: Regex) -> Regex:
    return Regex(RSTAR, left=a)


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


def base(e: Regex, v: str) -> Expr:
    return Expr(BASE, regex=e, out=v)


def esum(f: Expr, g: Expr) -> Expr:
    return Expr(SUM, left=f, right=g)


def cauchy(f: Expr, g: Expr) -> Expr:
    return Expr(CAUCHY, left=f, right=g)


def cauchy_rev(f: Expr, g: Expr) -> Expr:
    return Expr(CAUCHY_REV, left=f, right=g)


def star(f: Expr) -> Expr:
    return Expr(STAR, left=f)


def star_rev(f: Expr) -> Expr:
    return Expr(STAR_REV, left=f)


def hadamard(f: Expr, g: Expr) -> Expr:
    return Expr(HADAMARD, left=f, right=g)


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

class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self, n: int = 1) -> str:
        return self.text[self.pos:self.pos + n]

    def starts(self, tok: str) -> bool:
        self.skip_ws()
        return self.text.startswith(tok, self.pos)

    def eat(self, tok: str) -> bool:
        if self.starts(tok):
            self.pos += len(tok)
            return True
        return False

    def expect(self, tok: str):
        if not self.eat(tok):
            raise RteSyntaxError("expected %r" % tok, self.pos)

    def fail(self, msg: str):
        raise RteSyntaxError(msg, self.pos)


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


class _Parser:
    """Backtracking recursive descent over the combinator grammar."""

    def __init__(self, text: str, sigma: str, gamma: str):
        self.s = _Scanner(text)
        self.sigma = set(sigma)
        self.gamma = set(gamma)
        self.depth = 0

    @contextmanager
    def nested(self):
        """One more level of parentheses, refused beyond MAX_NESTING."""
        if self.depth == MAX_NESTING:
            raise _TooDeep("parentheses nested deeper than %d levels"
                           % MAX_NESTING, self.s.pos)
        self.depth += 1
        try:
            yield
        finally:
            self.depth -= 1

    # -- regexes ------------------------------------------------------------

    def regex(self) -> Regex:
        e = self.regex_cat()
        while self.s.eat("+"):
            e = r_sum(e, self.regex_cat())
        return e

    def regex_cat(self) -> Regex:
        e = self.regex_post()
        while True:
            save = self.s.pos
            if self.s.eat("."):
                e = r_cat(e, self.regex_post())
                continue
            self.s.skip_ws()
            c = self.s.peek()
            if c and (c in self.sigma or c in "@!("):
                try:
                    e = r_cat(e, self.regex_post())
                    continue
                except _TooDeep:
                    raise
                except RteSyntaxError:
                    self.s.pos = save
                    break
            break
        return e

    def regex_post(self) -> Regex:
        e = self.regex_atom()
        while True:
            self.s.skip_ws()
            # a lone '*' is regex star; '*r' belongs to the expression level
            if self.s.peek() == "*" and self.s.peek(2) != "*r":
                self.s.pos += 1
                e = r_star(e)
            else:
                break
        return e

    def regex_atom(self) -> Regex:
        self.s.skip_ws()
        c = self.s.peek()
        if c == "@":
            self.s.pos += 1
            return r_eps()
        if c == "!":
            self.s.pos += 1
            return r_empty()
        if c == "(":
            self.s.pos += 1
            with self.nested():
                e = self.regex()
            self.s.expect(")")
            return e
        if c and c in self.sigma:
            self.s.pos += 1
            return r_lit(c)
        if c and (c.isalnum() and c not in self.sigma):
            self.s.fail("letter %r is not in the input alphabet" % c)
        self.s.fail("expected a regex")

    # -- expressions ----------------------------------------------------------

    def expr(self) -> Expr:
        e = self.expr_odot()
        while True:
            self.s.skip_ws()
            if self.s.peek() == "+" :
                self.s.pos += 1
                e = esum(e, self.expr_odot())
            else:
                return e

    def expr_odot(self) -> Expr:
        e = self.expr_prod()
        while self.s.eat("odot"):
            e = hadamard(e, self.expr_prod())
        return e

    def expr_prod(self) -> Expr:
        e = self.expr_post()
        while True:
            if self.s.starts(".r"):
                self.s.eat(".r")
                e = cauchy_rev(e, self.expr_post())
            elif self.s.starts("."):
                self.s.eat(".")
                e = cauchy(e, self.expr_post())
            else:
                return e

    def expr_post(self) -> Expr:
        e = self.expr_atom()
        while True:
            if self.s.starts("*r"):
                self.s.eat("*r")
                e = star_rev(e)
            elif self.s.starts("*"):
                self.s.eat("*")
                e = star(e)
            else:
                return e

    def expr_atom(self) -> Expr:
        self.s.skip_ws()
        for kw, ctor in (("kstar", kstar), ("krstar", kstar_rev)):
            if self.s.starts(kw + "{"):
                self.s.eat(kw)
                self.s.expect("{")
                k = self.int_lit()
                if k < 1:
                    self.s.fail("chained star needs k >= 1")
                self.s.expect(",")
                e = self.regex()
                self.s.expect("}")
                self.s.expect("(")
                with self.nested():
                    f = self.expr()
                self.s.expect(")")
                return ctor(k, e, f)
        if self.s.starts("dup{"):
            self.s.eat("dup")
            self.s.expect("{")
            self.s.skip_ws()
            ch = self.s.peek()
            if not ch or ch == "}":
                self.s.fail("dup needs a separator letter")
            if ch in self.sigma:
                self.s.fail("dup separator %r must not be an input letter" % ch)
            if ch not in self.gamma:
                self.s.fail("dup separator %r is not an output letter" % ch)
            self.s.pos += 1
            self.s.expect("}")
            return dup(ch)
        if self.s.starts("rev"):
            self.s.eat("rev")
            return rev()
        if self.s.starts("("):
            save = self.s.pos
            self.s.eat("(")
            try:
                with self.nested():
                    e = self.expr()
                self.s.expect(")")
                return e
            except _TooDeep:
                raise
            except RteSyntaxError:
                self.s.pos = save
        return self.base_expr()

    def base_expr(self) -> Expr:
        e = self.regex()
        self.s.expect("->")
        v = self.string_lit()
        for c in v:
            if c not in self.gamma:
                self.s.fail("output letter %r is not in the output alphabet" % c)
        return base(e, v)

    def int_lit(self) -> int:
        self.s.skip_ws()
        start = self.s.pos
        while self.s.pos < len(self.s.text) and self.s.text[self.s.pos].isdigit():
            self.s.pos += 1
        if self.s.pos == start:
            self.s.fail("expected an integer")
        return int(self.s.text[start:self.s.pos])

    def string_lit(self) -> str:
        self.s.skip_ws()
        if self.s.peek() != '"':
            self.s.fail("expected a quoted output word")
        self.s.pos += 1
        start = self.s.pos
        while self.s.pos < len(self.s.text) and self.s.text[self.s.pos] != '"':
            self.s.pos += 1
        if self.s.pos >= len(self.s.text):
            self.s.fail("unterminated string")
        v = self.s.text[start:self.s.pos]
        self.s.pos += 1
        return v


def _check_depth(tree):
    if tree_depth(tree) > MAX_TREE_DEPTH:
        raise TreeTooDeep("tree deeper than %d levels" % MAX_TREE_DEPTH, 0)
    return tree


def parse_rte(text: str, sigma: str, gamma: str) -> Expr:
    """Parse expression text over the declared alphabets."""
    p = _Parser(text, sigma, gamma)
    e = p.expr()
    p.s.skip_ws()
    if p.s.pos != len(text):
        raise RteSyntaxError("trailing input", p.s.pos)
    return _check_depth(e)


def parse_regex(text: str, sigma: str) -> Regex:
    p = _Parser(text, sigma, "")
    e = p.regex()
    p.s.skip_ws()
    if p.s.pos != len(text):
        raise RteSyntaxError("trailing input", p.s.pos)
    return _check_depth(e)


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
