import sys

import pytest

from rtec.expr import (MAX_TREE_DEPTH, RteSyntaxError, TreeTooDeep, base, dup,
                       esum, label_occurrences, labeled_nodes, nl,
                       parse_regex, parse_rte, pretty, r_lit, size,
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


def test_regex_depth_limit():
    assert tree_depth(parse_regex("a" * MAX_TREE_DEPTH, SIGMA)) \
        == MAX_TREE_DEPTH
    with pytest.raises(TreeTooDeep):
        parse_regex("a" * (MAX_TREE_DEPTH + 1), SIGMA)
