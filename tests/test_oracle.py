import random

import pytest

from rtec.oracle import (MAX_OUTPUT_LEN, Oracle, OracleLimitError,
                         check_kstar_conditions)
from rtec.expr import label_occurrences
from rtec.corpus import _random_expr
from rtec.symbols import parse_word, render_word

from conftest import mk, nested_factors, words_upto


def test_rsem_star_copy_count():
    f = mk('((a -> "c") + (b -> ""))*')
    o = Oracle(f)
    r = o.rsem(f, "abab")
    assert r.items == {"cc"} and not r.truncated
    assert o.rsem(f, "bb").items == {""}


def test_rsem_sum_union():
    h = mk('((a -> "c") + (b -> ""))* + ((a -> "") + (b -> "c"))*')
    o = Oracle(h)
    assert o.rsem(h, "aab").items == {"cc", "c"}


def test_intro_cauchy_example():
    fi = '((a -> "c") + (aa -> "cc"))'
    gi = '((a -> "d") + (aa -> "dd"))'
    hi = '((b -> "e") + (ab -> "ee"))'
    left = mk(f"(({fi} . {gi}) . {hi})")
    right = mk(f"({fi} . ({gi} . {hi}))")
    ol, orr = Oracle(left), Oracle(right)
    assert ol.dom(left, "aaab")
    assert not ol.udom(left, "aaab")
    assert not orr.udom(right, "aaab")
    assert ol.rsem(left, "aaab").items == {"ccde", "cdde", "cdee"}
    assert ol.rsem(left, "aaab").items == orr.rsem(right, "aaab").items


def test_udom_sum_overlap():
    h = mk('(a -> "c") + (a -> "d")')
    o = Oracle(h)
    assert not o.udom(h, "a")
    assert o.usem(h, "a") is None
    assert o.rsem(h, "a").items == {"c", "d"}


def test_kstar_dom_short_words():
    h = mk('kstar{2, a}((aa -> "x"))')
    o = Oracle(h)
    assert o.dom(h, "a")   # n = 1 < k
    assert o.dom(h, "")    # n = 0
    assert o.rsem(h, "a").items == {""}


def test_kstar_rsem_blocks():
    h = mk('kstar{2, a}((a -> "c") . (a -> "d"))')
    o = Oracle(h)
    assert o.rsem(h, "aaa").items == {"cdcd"}
    assert o.udom(h, "aaa")
    assert o.usem(h, "aaa") == "cdcd"


def test_dup_rev_usem():
    d = mk("dup{#}")
    od = Oracle(d)
    assert od.usem(d, "ab") == "ab#ab"
    assert od.usem(d, "") == "#"
    r = mk("rev")
    assert Oracle(r).usem(r, "ab") == "ba"


def test_base_star_udom():
    h = mk('a* -> "x"')
    o = Oracle(h)
    assert o.usem(h, "aaa") == "x"
    assert o.udom(h, "")


def test_dom_iff_rsem_nonempty_and_udom_singleton():
    rng = random.Random(31)
    words = words_upto(4)
    for _ in range(60):
        h = label_occurrences(_random_expr(rng, 2))
        o = Oracle(h)
        for w in words:
            r = o.rsem(h, w)
            if not r.truncated:
                assert o.dom(h, w) == bool(r.items), (h, w)
            if o.udom(h, w) and not r.truncated:
                assert len(r.items) == 1, (h, w)


def test_parsing_count_matches_udom():
    rng = random.Random(32)
    for _ in range(40):
        h = label_occurrences(_random_expr(rng, 2))
        o = Oracle(h)
        for w in words_upto(4):
            ps = o.parsings(h, w)
            if ps.truncated:
                continue
            assert bool(ps.items) == o.dom(h, w), (h, w)
            assert (len(ps.items) == 1 and o.dom(h, w)) == o.udom(h, w), (h, w)


def test_worked_parsings_section4():
    h = mk('((a -> "") * . (b -> "")) + ((a -> "") . (b -> "") *)')
    o = Oracle(h)
    got = {render_word(p) for p in o.parsings(h, "aab").items}
    assert got == {"(1 (2 (3 (4 a )4 (4 a )4 )3 (5 b )5 )2 )1"}
    got2 = {render_word(p) for p in o.parsings(h, "ab").items}
    assert got2 == {
        "(1 (2 (3 (4 a )4 )3 (5 b )5 )2 )1",
        "(1 (6 (7 a )7 (8 (9 b )9 )8 )6 )1",
    }


def test_worked_parsing_hadamard():
    h = mk('((a -> "") * . (b -> "")) odot ((a -> "") . (b -> "") *)')
    o = Oracle(h)
    got = {render_word(p) for p in o.parsings(h, "ab").items}
    assert got == {
        "(1 (2 (3 (4 (6 (7 a )4 )3 (5 )7 (8 (9 b )5 )2 )9 )8 )6 )1"}


def test_parse_word_roundtrip():
    s = "(1 (2^1 (3^1 a )3^1 (4^1 #1 a )4^1 )2^1 )1"
    assert render_word(parse_word(s)) == s


def test_gu_associativity_random():
    rng = random.Random(33)
    for _ in range(25):
        f = _random_expr(rng, 1)
        g = _random_expr(rng, 1)
        k = _random_expr(rng, 1)
        from rtec.expr import cauchy
        left = label_occurrences(cauchy(cauchy(f, g), k))
        right = label_occurrences(cauchy(f, cauchy(g, k)))
        ol, orr = Oracle(left), Oracle(right)
        for w in words_upto(4):
            assert ol.usem(left, w) == orr.usem(right, w), (f, g, k, w)


def test_functional_domain_not_regular_witness():
    h = mk('((a -> "c") + (b -> ""))* + ((a -> "") + (b -> "c"))*')
    o = Oracle(h)
    for w in words_upto(8):
        functional = len(o.rsem(h, w).items) == 1
        assert functional == (w.count("a") == w.count("b")), w


def test_kstar_conditions_on_oracle_output():
    h = mk('kstar{2, a+b}(((a -> "x") . ((a+b) -> "y")) + (ba -> "z"))')
    o = Oracle(h)
    count = 0
    for w in words_upto(5):
        for p in o.parsings(h, w).items:
            assert check_kstar_conditions(p, h, o), (w, render_word(p))
            count += 1
    assert count > 5


def test_kstar_condition_checker_rejects_bad_words():
    h = mk('kstar{2, a}((a -> "c") . (a -> "d"))')
    o = Oracle(h)
    good = next(iter(o.parsings(h, "aaa").items))
    # scrambling two adjacent parentheses must break some condition
    bad = list(good)
    bad[1], bad[2] = bad[2], bad[1]
    assert not check_kstar_conditions(tuple(bad), h, o)
    # a short word decorated with parentheses is not an n<k parsing
    bad2 = next(iter(o.parsings(h, "aaa").items))[:2] + parse_word(")1")
    assert not check_kstar_conditions(bad2, h, o)


def test_truncation_flags():
    h = mk('(@ -> "x")*')
    o = Oracle(h)
    assert o.rsem(h, "").truncated
    assert o.parsings(h, "a").truncated
    assert not o.udom(h, "a")
    h2 = mk('((@ -> "") + (a -> "c"))*')
    o2 = Oracle(h2)
    # empty factors add nothing here, so the value set stays exact
    assert o2.rsem(h2, "aa").items == {"cc"}
    assert not o2.rsem(h2, "aa").truncated
    assert o2.parsings(h2, "aa").truncated


def test_usem_output_limit():
    # a value of MAX_OUTPUT_LEN letters is enumerated, a longer one is not
    k = MAX_OUTPUT_LEN
    h = mk(nested_factors(k))
    assert Oracle(h).usem(h, "a" * k) == "c" * k
    h = mk(nested_factors(k + 1))
    with pytest.raises(OracleLimitError, match="MAX_OUTPUT_LEN"):
        Oracle(h).usem(h, "a" * (k + 1))
