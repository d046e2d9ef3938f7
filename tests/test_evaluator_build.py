import random

import pytest

from rtec.expr import label_occurrences
from rtec import evaluator_build
from rtec.evaluator_build import (_Builder, _emit, build_evaluator,
                                  evaluator_shape_ok, evaluator_size_formula)
from rtec.machines import (MachineError, TwoWayTransducer, enumerate_outputs,
                           is_reversible, run_two_way)
from rtec.oracle import Oracle
from rtec.parser_build import build_parser
from rtec.symbols import (LEFT_END, RIGHT_END, is_paren, lopen, lclose,
                          parse_word)
from rtec.corpus import generate

from conftest import SIGMA, mk


def eval_on(t, parsed):
    res = run_two_way(t, parsed)
    return res.output if res.status == "accept" else res.status


def test_base_constant_output():
    h = mk('a*b -> "xy"')
    t = build_evaluator(h, SIGMA)
    assert t.n_states == 3
    assert eval_on(t, parse_word("(1 a a b )1")) == "xy"


def test_dup_and_rev():
    d = mk("dup{#}")
    td = build_evaluator(d, SIGMA)
    assert td.n_states == 5
    assert eval_on(td, parse_word("(1 a b )1")) == "ab#ab"
    assert eval_on(td, parse_word("(1 )1")) == "#"
    r = mk("rev")
    tr = build_evaluator(r, SIGMA)
    assert tr.n_states == 5
    assert eval_on(tr, parse_word("(1 a b )1")) == "ba"


def test_sum_branch_selection():
    h = mk('(a -> "c") + (a -> "d")')
    t = build_evaluator(h, SIGMA)
    assert eval_on(t, parse_word("(1 (2 a )2 )1")) == "c"
    assert eval_on(t, parse_word("(1 (3 a )3 )1")) == "d"


def test_cauchy_and_reverse():
    h = mk('(a -> "c") . (b -> "d")')
    t = build_evaluator(h, SIGMA)
    assert eval_on(t, parse_word("(1 (2 a )2 (3 b )3 )1")) == "cd"
    hr = mk('(a -> "c") .r (b -> "d")')
    tr = build_evaluator(hr, SIGMA)
    assert eval_on(tr, parse_word("(1 (2 a )2 (3 b )3 )1")) == "dc"
    assert tr.n_states == 3 + 3 + 3


def test_star_and_reverse():
    h = mk('((a -> "c") . (b -> "d"))*')
    t = build_evaluator(h, SIGMA)
    al = "(1 (2 (3 a )3 (4 b )4 )2 (2 (3 a )3 (4 b )4 )2 )1"
    assert eval_on(t, parse_word(al)) == "cdcd"
    h2 = mk('((a -> "c"))*')
    t2 = build_evaluator(h2, SIGMA)
    assert eval_on(t2, parse_word("(1 (2 a )2 (2 a )2 (2 a )2 )1")) == "ccc"
    hr = mk('((a -> "c") + (b -> "dd"))*r')
    trr = build_evaluator(hr, SIGMA)
    val = eval_on(trr, parse_word("(1 (2 (3 a )3 )2 (2 (4 b )4 )2 )1"))
    assert val == "ddc"


def test_hadamard_output_order():
    h = mk('(a -> "c") odot (a -> "d")')
    t = build_evaluator(h, SIGMA)
    o = Oracle(h)
    al = next(iter(o.parsings(h, "a").items))
    assert eval_on(t, al) == "cd"


def test_mixed_hadamard_dup():
    h = mk('((a -> "c") . (b -> "d")) odot dup{#}')
    o = Oracle(h)
    t = build_evaluator(h, SIGMA)
    al = next(iter(o.parsings(h, "ab").items))
    assert eval_on(t, al) == "cdab#ab"


def test_triple_hadamard_reversible():
    h = mk('(a -> "c") odot ((a -> "d") odot (a -> "e"))')
    t = build_evaluator(h, SIGMA)
    assert is_reversible(t)
    o = Oracle(h)
    al = next(iter(o.parsings(h, "a").items))
    assert eval_on(t, al) == "cde"


def test_kstar_worked_example():
    h = mk('kstar{2, a}((a -> "c") . (a -> "d"))')
    o = Oracle(h)
    t = build_evaluator(h, SIGMA)
    al3 = next(iter(o.parsings(h, "aaa").items))
    assert eval_on(t, al3) == "cdcd"
    al1 = next(iter(o.parsings(h, "a").items))
    assert eval_on(t, al1) == ""
    al0 = next(iter(o.parsings(h, "").items))
    assert eval_on(t, al0) == ""


def test_kstar_reverse_order_distinguishable():
    h = mk('krstar{2, a+b}((aa -> "x") + (ab -> "y"))')
    o = Oracle(h)
    t = build_evaluator(h, SIGMA)
    al = next(iter(o.parsings(h, "aab").items))
    # blocks aa then ab; reverse order outputs f(ab) f(aa)
    assert eval_on(t, al) == "yx"
    hf = mk('kstar{2, a+b}((aa -> "x") + (ab -> "y"))')
    of = Oracle(hf)
    tf = build_evaluator(hf, SIGMA)
    alf = next(iter(of.parsings(hf, "aab").items))
    assert eval_on(tf, alf) == "xy"


def test_exact_state_counts():
    cases = [
        ('a -> "c"', 3),
        ('(a -> "c") + (b -> "d")', 6),
        ('(a -> "c") . (b -> "d")', 7),
        ('((a -> "c"))*', 4),
        ('(a -> "c") .r (b -> "d")', 9),
        ('((a -> "c"))*r', 8),
        ("dup{#}", 5),
        ("rev", 5),
        ('(a -> "c") odot (b -> "d")', 9),
        ('kstar{2, a}((a -> "c"))', 2 * 3 + 3 * 2 + 8),
        ('krstar{2, a}((a -> "c"))', 2 * 3 + 3 * 2 + 8),
        ('kstar{1, a}((a -> "c"))', 3 + 3 + 8),
        ('krstar{1, a}((a -> "c"))', 3 + 3 + 8),
        ('kstar{3, a}((aaa -> "c"))', 3 * 3 + 9 + 8),
    ]
    for text, want in cases:
        h = mk(text)
        t = build_evaluator(h, SIGMA)
        assert t.n_states == want == evaluator_size_formula(h), text


def test_every_evaluator_reversible_and_shaped():
    corpus = generate(60, seed=21)
    for e in corpus[:60]:
        h = label_occurrences(e)
        t = build_evaluator(h, SIGMA)
        assert is_reversible(t)
        assert evaluator_shape_ok(t, h)
        assert t.n_states == evaluator_size_formula(h)


def lifted(text, ignore):
    """The evaluator of text with all its states lifted over `ignore` by
    the builder's in-place lift step."""
    h = mk(text)
    b = _Builder()
    q0, qf = b.state(+1), b.state(+1)
    alpha = _emit(h, SIGMA, b, q0, qf, ())
    b.lift(range(b.n), ignore)
    b.add(q0, LEFT_END, q0)
    b.add(qf, RIGHT_END, qf)
    return TwoWayTransducer(b.n, b.signs, q0, frozenset({qf}), b.delta,
                            frozenset(alpha) | {LEFT_END, RIGHT_END})


def test_lift_ignoring():
    text = '(a -> "c") . (b -> "d")'
    t = build_evaluator(mk(text), SIGMA)
    lifted_t = lifted(text, {lopen(99), lclose(99)})
    assert lifted_t.n_states == t.n_states
    assert is_reversible(lifted_t)
    # behavior on a decorated word equals the original on the plain word
    plain = parse_word("(1 (2 a )2 (3 b )3 )1")
    decorated = (plain[:1] + (lopen(99),) + plain[1:3]
                 + (lclose(99),) + plain[3:])
    assert eval_on(lifted_t, decorated) == eval_on(t, plain) == "cd"


def test_lift_ignoring_empty_is_identity():
    assert lifted("rev", frozenset()).delta == build_evaluator(mk("rev"),
                                                               SIGMA).delta


def test_lift_collision_error():
    with pytest.raises(MachineError):
        lifted('(a -> "c") . (b -> "d")', {lopen(2)})


def test_every_move_written_once(monkeypatch):
    # the in-place build writes each move of the machine exactly once; a
    # build that copies sub-evaluators into their parents writes the moves
    # of a depth-d node d times
    text = " + ".join('(%s(a+b)* -> "%s")' % ("a" * i, "cd"[i % 2])
                      for i in range(1, 300))
    h = mk(text)
    writes = [0]
    add = _Builder.add

    def counted(self, *args):
        writes[0] += 1
        add(self, *args)

    monkeypatch.setattr(evaluator_build._Builder, "add", counted)
    t = build_evaluator(h, SIGMA)
    assert t.n_states == evaluator_size_formula(h) == 897
    assert writes[0] == sum(len(m) for m in t.delta.values()) == 1794


def test_ext_alphabet_indexing():
    h = mk('kstar{2, a}((a -> "c"))')
    alpha = build_evaluator(h, SIGMA).input_alphabet - {LEFT_END, RIGHT_END}
    assert lopen(2, (1,)) in alpha and lopen(2, (2,)) in alpha
    assert lopen(2) not in alpha
    # h parens, f^i, sep
    assert len([s for s in alpha if is_paren(s)]) == 2 + 4 + 1


def test_composed_semantics_random(short_words):
    corpus = generate(40, seed=22)
    for e in corpus[:30]:
        h = label_occurrences(e)
        o = Oracle(h)
        p = build_parser(h, SIGMA)
        t = build_evaluator(h, SIGMA)
        for w in short_words:
            got_parse = enumerate_outputs(p, w)
            exp = o.rsem(h, w)
            if got_parse.truncated or exp.truncated:
                continue
            got = {eval_on(t, al) for al in got_parse.outputs}
            assert got == exp.items, (h, w)
