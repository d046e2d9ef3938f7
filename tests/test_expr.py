import random
import re
import sys

import pytest

from rtec import corpus
from rtec.expr import (MAX_TREE_DEPTH, RCAT, Expr, LabeledExpr, Regex,
                       RteSyntaxError, TreeTooDeep, base, dup, esum, kstar,
                       label_occurrences, labeled_nodes, nl, parse_regex,
                       parse_rte, pretty, r_cat, r_lit, r_star, size, star,
                       tree_depth, unlabel, width)
from rtec.oracle import Oracle
from rtec.pipeline import build_pipeline

from conftest import GAMMA, SIGMA, deep_texts, mk


def test_nl_examples():
    assert nl(parse_regex("a*.b + a.b*", SIGMA)) == 4
    assert nl(parse_regex("@", SIGMA)) == 0
    assert nl(parse_regex("(ab)*", SIGMA)) == 2
    assert nl(parse_regex("!", SIGMA)) == 0


def test_size_examples():
    b = base(r_lit("a"), "bc")
    assert size(b) == 5
    assert size(esum(b, b)) == 11
    assert size(dup("#")) == 3
    # the empty output word still contributes one symbol
    assert size(base(r_lit("a"), "")) == 1 + 2 + 1


def test_size_kstar():
    e = parse_rte('kstar{2, a}((a -> "c") . (a -> "d"))', SIGMA, GAMMA)
    # 1 + nl(e) + |f| + k + 1 with |f| = 1 + 4 + 4
    assert size(e) == 1 + 1 + 9 + 2 + 1


def test_width_examples():
    h = parse_rte('(a -> "c") odot (b -> "d")', SIGMA, GAMMA)
    assert width(h) == 2
    assert width(parse_rte('a* -> "x"', SIGMA, GAMMA)) == 1
    k = parse_rte('kstar{2, a}((a -> "c"))', SIGMA, GAMMA)
    assert width(k) == 2 + 2 * 1
    assert width(parse_rte("dup{#}", SIGMA, GAMMA)) == 1


def test_size_width_floors():
    for text in ['a -> "c"', "rev", "dup{#}", '(a -> "c")*r']:
        h = parse_rte(text, SIGMA, GAMMA)
        assert size(h) >= 3
        assert width(h) >= 1


def test_parse_examples():
    t = parse_rte('(a -> "c") + (a -> "d")', SIGMA, GAMMA)
    assert t.kind == "sum"
    assert t.left.kind == "base" and t.left.out == "c"
    t = parse_rte('((a*.b -> "x") odot (a.b* -> "y"))', SIGMA, GAMMA)
    assert t.kind == "hadamard"
    assert t.left.kind == "base"
    t = parse_rte('kstar{2, a}((a -> "c").(a -> "d"))', SIGMA, GAMMA)
    assert t.kind == "kstar" and t.k == 2
    assert t.left.kind == "cauchy"


def test_roundtrip():
    texts = [
        '(a -> "c") + (a -> "d")',
        '(a*.b -> "x") odot (a.b* -> "y")',
        'kstar{2, a+b}((ab -> "c") .r (a -> "d"))',
        'krstar{3, ab}(dup{#})',
        '((a -> "c") . (b -> "d"))*r + rev',
        '(a+@ -> "") . (! -> "x")',
    ]
    for text in texts:
        t = parse_rte(text, SIGMA, GAMMA)
        assert parse_rte(pretty(t), SIGMA, GAMMA) == t
        # canonical text is a fixpoint
        assert pretty(parse_rte(pretty(t), SIGMA, GAMMA)) == pretty(t)


def test_syntax_errors():
    with pytest.raises(RteSyntaxError):
        parse_rte('(a -> "c"', SIGMA, GAMMA)
    with pytest.raises(RteSyntaxError):
        parse_rte('c -> "c"', SIGMA, GAMMA)  # undeclared input letter
    with pytest.raises(RteSyntaxError):
        parse_rte('a -> "q"', SIGMA, GAMMA)  # undeclared output letter
    with pytest.raises(RteSyntaxError):
        parse_rte('dup{a}', SIGMA, GAMMA)  # separator inside sigma
    with pytest.raises(RteSyntaxError):
        parse_rte('kstar{0, a}((a -> "c"))', SIGMA, GAMMA)


def test_labeling_worked_example():
    # a*.b + a.b* as nested combinators has nine occurrences
    h = mk('((a -> "") * . (b -> "")) + ((a -> "") . (b -> "") *)')
    nodes = list(labeled_nodes(h))
    assert len(nodes) == 9
    occs = [n.occ for n in nodes]
    assert sorted(occs) == list(range(1, 10))
    # pre-order: root first
    assert nodes[0].occ == 1 and nodes[0].kind == "sum"


def test_labeling_deterministic_and_disjoint():
    h1 = mk('(a -> "c") odot (a -> "c")')
    h2 = mk('(a -> "c") odot (a -> "c")')
    assert h1 == h2
    left = {n.occ for n in labeled_nodes(h1.left)}
    right = {n.occ for n in labeled_nodes(h1.right)}
    assert not (left & right)
    assert unlabel(h1) == parse_rte('(a -> "c") odot (a -> "c")', SIGMA, GAMMA)


def test_single_node_label():
    h = mk('a -> "c"')
    assert [n.occ for n in labeled_nodes(h)] == [1]


def test_nl_bounded_by_regex_size():
    import random
    from rtec.corpus import _random_regex
    from rtec.expr import regex_size
    rng = random.Random(77)
    for _ in range(80):
        e = _random_regex(rng, 4, allow_eps=True)
        assert nl(e) <= regex_size(e)


@pytest.mark.parametrize("shape", sorted(deep_texts(3)))
def test_tree_depth_limit(shape):
    # at the limit the whole pipeline and the oracle run under the default
    # recursion limit; one level more is refused before anything is built
    assert sys.getrecursionlimit() == 1000
    text = deep_texts(MAX_TREE_DEPTH)[shape]
    e = parse_rte(text, SIGMA, "x")
    assert tree_depth(e) == MAX_TREE_DEPTH
    h = label_occurrences(e)
    pl = build_pipeline(h, SIGMA)
    assert pl.run_unambiguous("a") == Oracle(h).usem(h, "a")
    with pytest.raises(TreeTooDeep):
        parse_rte(deep_texts(MAX_TREE_DEPTH + 1)[shape], SIGMA, "x")


@pytest.mark.parametrize("shape", sorted(deep_texts(3)))
def test_deep_trees_compare_and_print(shape):
    # == and repr walk a tree without recursion, so trees at the depth
    # limit compare and print; a shallow tree's repr evaluates back to it
    text = deep_texts(MAX_TREE_DEPTH)[shape]
    (e, f) = (parse_rte(text, SIGMA, "xy"), parse_rte(text, SIGMA, "xy"))
    assert e == f and not e != f
    assert label_occurrences(e) == label_occurrences(f)
    other = parse_rte(text.replace('"x"', '"y"'), SIGMA, "xy")
    assert e != other and label_occurrences(e) != label_occurrences(other)
    assert repr(e).startswith("Expr(kind=")
    assert repr(label_occurrences(e)).startswith("LabeledExpr(occ=1, ")
    names = {"Expr": Expr, "Regex": Regex, "LabeledExpr": LabeledExpr}
    small = parse_rte(deep_texts(12)[shape], SIGMA, "xy")
    for t in (small, label_occurrences(small)):
        assert eval(repr(t), names) == t


def test_regex_depth_limit():
    assert tree_depth(parse_regex("a" * MAX_TREE_DEPTH, SIGMA)) \
        == MAX_TREE_DEPTH
    with pytest.raises(TreeTooDeep):
        parse_regex("a" * (MAX_TREE_DEPTH + 1), SIGMA)


# Texts of the syntax-error table: single-character deletions and
# insertions in the first 60 corpus texts, under two input alphabets, with
# the message and position each raised.  Under the second alphabet '-' and
# '*' are letters, so 'a -> ""' reads the regex 'a-' and stops at '>'.
ERROR_TABLE = [
    ('dup{} odot (aa(ba) -> "")', "ab", 4, "dup needs a separator letter"),
    ('dup{} odot (a -> "xx")', "ab-*]^\\", 4, "dup needs a separator letter"),
    ('dup{"#} odot (aa(ba) -> "")', "ab", 4,
     "dup separator '\"' is not an output letter"),
    ('dup{a#} odot (aa(ba) -> "")', "ab", 4,
     "dup separator 'a' must not be an input letter"),
    ('dup{*#} odot (a -> "xx")', "ab-*]^\\", 4,
     "dup separator '*' must not be an input letter"),
    ('(a(a+b) -> "yy"* . (a -> "x")', "ab", 8, "expected ')'"),
    ('(a*+a -> "cy)") odot (b -> "")', "ab", 6, "expected ')'"),
    ('(a(a+b) -> "yy\n")* . (a -> "x")', "ab", 8, "expected ')'"),
    ('(a*+a -> "cy") odot(b -> "")', "ab-*]^\\", 7, "expected ')'"),
    ('dup{#)} . (rev . (ba -> ""))*r', "ab-*]^\\", 5, "expected '}'"),
    ('kstar{1, aa}(a(a+b) -\n> "yc")', "ab-*]^\\", 22, "expected '->'"),
    ('a -\x1f> ""', "ab", 2, "expected '->'"),
    (' a -> ""', "ab-*]^\\", 4, "expected '->'"),
    ('a -> ""\xa0', "ab-*]^\\", 3, "expected '->'"),
    ('(ab)* -> y"', "ab", 9, "expected a quoted output word"),
    ('(ab)* ->) "x"', "ab", 8, "expected a quoted output word"),
    ('(ab)* ->+ "x"', "ab", 8, "expected a quoted output word"),
    ('kstar{1, a+b}(+b -> "c")', "ab", 14, "expected a regex"),
    (')((a -> "c") . (b -> "d"))*r', "ab", 0, "expected a regex"),
    ('dup{#} odot (+aa(ba) -> "")', "ab", 13, "expected a regex"),
    ('kstar{1, a+b}(+b -> "c")', "ab-*]^\\", 14, "expected a regex"),
    ('krstar{1," a}(aa -> "x")', "ab-*]^\\", 9, "expected a regex"),
    ('krstar{1,) a}(aa -> "x")', "ab-*]^\\", 9, "expected a regex"),
    ('kstar{, aa}(a(a+b) -> "yc")', "ab", 6, "expected an integer"),
    ('kstar{(1, aa}(a(a+b) -> "yc")', "ab", 6, "expected an integer"),
    ('kstar{*1, aa}(a(a+b) -> "yc")', "ab-*]^\\", 6, "expected an integer"),
    ('krsta{1, a+b}(aa -> "xc")', "ab", 0,
     "letter 'k' is not in the input alphabet"),
    ('kr\nstar{1, a+b}(aa -> "xc")', "ab", 0,
     "letter 'k' is not in the input alphabet"),
    ('krsta)r{1, a+b}(aa -> "xc")', "ab-*]^\\", 0,
     "letter 'k' is not in the input alphabet"),
    ('ksta\nr{1, aa}(a(a+b) -> "yc")', "ab-*]^\\", 0,
     "letter 'k' is not in the input alphabet"),
    ('r\x1fev', "ab", 0, "letter 'r' is not in the input alphabet"),
    ('(rev', "ab-*]^\\", 1, "letter 'r' is not in the input alphabet"),
    ('a -> " + (a+b -> "cx")*r', "ab", 18,
     "output letter ' ' is not in the output alphabet"),
    ('a -> "\x0c"', "ab", 8,
     "output letter '\\x0c' is not in the output alphabet"),
    ('dup{#} . rev . (ba -> ""))*r', "ab", 25, "trailing input"),
    ('dup{#} . (rev) . (ba -> ""))*r', "ab", 27, "trailing input"),
    ('dup{#} o\ndot (aa(ba) -> "")', "ab", 7, "trailing input"),
    ('(aa -> "")*\x0cr', "ab", 12, "trailing input"),
    ('dup{#} o)dot (a -> "xx")', "ab-*]^\\", 7, "trailing input"),
    ('rev odo\xa0t dup{#}', "ab-*]^\\", 4, "trailing input"),
    ('a+b -> "d', "ab", 9, "unterminated string"),
]


@pytest.mark.parametrize("text,sigma,pos,msg", ERROR_TABLE)
def test_syntax_error_table(text, sigma, pos, msg):
    with pytest.raises(RteSyntaxError) as exc:
        parse_rte(text, sigma, corpus.GAMMA)
    assert type(exc.value) is RteSyntaxError
    assert (str(exc.value), exc.value.pos) \
        == ("%s (at position %d)" % (msg, pos), pos)


def test_errors_before_tree_depth():
    # a syntax error or trailing input in a text whose tree is too deep is
    # reported as such, not as TreeTooDeep
    deep = "a" * (MAX_TREE_DEPTH + 1) + ' -> "x"'
    for text, pos, msg in [(deep + " )", MAX_TREE_DEPTH + 9, "trailing input"),
                           (deep + " +", MAX_TREE_DEPTH + 10,
                            "expected a regex")]:
        with pytest.raises(RteSyntaxError) as exc:
            parse_rte(text, SIGMA, GAMMA)
        assert str(exc.value) == "%s (at position %d)" % (msg, pos)


def test_non_decimal_digit_is_a_syntax_error():
    # '²' is str.isdigit but not a digit int() reads
    with pytest.raises(RteSyntaxError) as exc:
        parse_rte('kstar{², a}((a -> "c"))', SIGMA, GAMMA)
    assert str(exc.value) == "expected an integer (at position 6)"


def test_letter_runs_and_stars():
    # a star after whitespace binds the last letter of a run
    for text in ["bab\t*", "bab *", "bab\u3000*", "ba b*"]:
        assert parse_regex(text, SIGMA) == parse_regex("bab*", SIGMA)
    assert parse_regex("ab*a", SIGMA) == r_cat(r_cat(r_lit("a"),
                                                     r_star(r_lit("b"))),
                                               r_lit("a"))
    # '*r' after a regex belongs to the expression: no regex star
    with pytest.raises(RteSyntaxError):
        parse_regex("ab*r", SIGMA)


def test_cheap_nodes_are_dataclass_nodes():
    a, b = r_lit("a"), r_lit("b")
    assert r_lit("a") is a
    made = Regex(RCAT, left=a, right=b)
    assert r_cat(a, b) == made and hash(r_cat(a, b)) == hash(made)
    assert repr(r_cat(a, b)) == repr(made)
    h = Expr("star", left=Expr("base", regex=made, out="x"))
    assert star(base(r_cat(a, b), "x")) == h
    assert repr(star(base(r_cat(a, b), "x"))) == repr(h)


_SPACES = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()]
_TOKEN = re.compile(r'\s+|kr?star\{|dup\{|rev|odot|->|\.r|\*r|"[^"]*"|\d+|.')


def _respaced(text: str, rng: random.Random) -> str:
    """text with random whitespace between its tokens; a gap that had
    whitespace keeps some, so that no two tokens run together."""
    out, gap = [], ""
    for tok in _TOKEN.findall(text):
        if tok.isspace():
            gap = tok
            continue
        n = rng.randint(1 if gap else 0, 2)
        out.append("".join(rng.choice(_SPACES) for _ in range(n)))
        out.append(tok)
        gap = ""
    out.append("".join(rng.choice(_SPACES) for _ in range(rng.randint(0, 2))))
    return "".join(out)


def test_whitespace_between_tokens():
    rng = random.Random(19)
    for e in corpus.generate(200):
        for _ in range(3):
            text = _respaced(pretty(e), rng)
            assert parse_rte(text, corpus.SIGMA, corpus.GAMMA) == e, text


def _kstar_regex_stars(n):
    # regex stars inside a chained star's block regex
    tree = kstar(2, _stars(r_lit("a"), n, r_star), base(r_lit("a"), "x"))
    return 'kstar{2, a%s}((a -> "x"))' % ("*" * n), tree


def _parenthesized_stars(n):
    # parenthesized starred regexes in a base, under postfix stars; the
    # parentheses nest 50 deep, the rest is expression stars
    regex = r_lit("a")
    for _ in range(50):
        regex = r_cat(r_lit("b"), r_star(regex))
    text = "b(" * 50 + "a" + ")*" * 50
    return ("(%s -> \"x\")%s" % (text, "*" * n),
            _stars(base(regex, "x"), n, star))


def _stars(node, n, ctor):
    for _ in range(n):
        node = ctor(node)
    return node


@pytest.mark.parametrize("shape", [_kstar_regex_stars, _parenthesized_stars])
def test_tree_too_deep_exactly_beyond_the_limit(shape):
    # the tree the parser builds is the tree the constructors build, and it
    # is refused exactly when tree_depth exceeds the limit
    seen = set()
    for n in range(MAX_TREE_DEPTH - 160, MAX_TREE_DEPTH + 3):
        text, tree = shape(n)
        depth = tree_depth(tree)
        seen.add(depth > MAX_TREE_DEPTH)
        if depth > MAX_TREE_DEPTH:
            with pytest.raises(TreeTooDeep):
                parse_rte(text, SIGMA, GAMMA)
        else:
            assert parse_rte(text, SIGMA, GAMMA) == tree
    assert seen == {True, False}
