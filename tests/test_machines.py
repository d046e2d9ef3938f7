import json
import random
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

from rtec import corpus
from rtec.evaluator_build import build_evaluator
from rtec.expr import (base, esum, label_occurrences, parse_regex, pretty,
                       r_eps, star)
from rtec.glushkov import glushkov
from rtec.machines import (Dfa, MachineError, MoveIndex, Nfa,
                           OneWayTransducer, TwoWayTransducer, audit_trace,
                           complement_dfa, determinize, enumerate_outputs,
                           is_codeterministic, is_deterministic,
                           is_reversible, minimize_dfa, nfa_accepts,
                           run_two_way, to_dot, to_json_dict)
from rtec.oracle import Oracle
from rtec.parser_build import build_parser
from rtec.symbols import LEFT_END, RIGHT_END, letter, letters
from rtec.corpus import _random_regex

from conftest import SIGMA, mk, words_upto

A, B = letter("a"), letter("b")


def one_way_acceptor():
    """The textbook one-way machine for words containing an a: it is
    deterministic but not co-deterministic."""
    # states: 0 qI, 1 "no a yet", 2 "seen a", 3 qF
    delta = {
        (0, LEFT_END): [(1, "")],
        (1, B): [(1, "")],
        (1, A): [(2, "")],
        (2, A): [(2, "")],
        (2, B): [(2, "")],
        (2, RIGHT_END): [(3, "")],
    }
    return TwoWayTransducer(4, [1, 1, 1, 1], 0, frozenset({3}), delta,
                            frozenset({A, B, LEFT_END, RIGHT_END}))


def reversible_acceptor():
    """The two-way reversible machine for the same language, which turns
    around on the left endmarker after the first a."""
    # states: 0 qI, 1 scan+, 2 back-, 3 sweep+, 4 qF
    delta = {
        (0, LEFT_END): [(1, "")],
        (1, B): [(1, "")],
        (1, A): [(2, "")],
        (2, B): [(2, "")],
        (2, LEFT_END): [(3, "")],
        (3, A): [(3, "")],
        (3, B): [(3, "")],
        (3, RIGHT_END): [(4, "")],
    }
    return TwoWayTransducer(5, [1, 1, -1, 1, 1], 0, frozenset({4}), delta,
                            frozenset({A, B, LEFT_END, RIGHT_END}))


def test_one_way_not_codeterministic():
    m = one_way_acceptor()
    assert is_deterministic(m)
    assert not is_codeterministic(m)
    assert not is_reversible(m)


def test_reversible_acceptor_properties():
    m = reversible_acceptor()
    assert is_deterministic(m)
    assert is_codeterministic(m)
    assert is_reversible(m)


def test_two_final_states_break_codeterminism():
    m = reversible_acceptor()
    m2 = TwoWayTransducer(m.n_states, m.signs, m.initial,
                          frozenset({3, 4}), m.delta, m.input_alphabet)
    assert not is_codeterministic(m2)


def test_two_way_runs():
    m = reversible_acceptor()
    for w in words_upto(6):
        want = "a" in w
        res = run_two_way(m, w, want_trace=True)
        assert (res.status == "accept") == want, w
        assert audit_trace(m, w, res.trace)
        if want:
            # a reversible run never repeats a configuration
            seen = [(c.state, c.boundary) for c in res.trace]
            assert len(seen) == len(set(seen))


def test_two_way_loop_detection():
    # a forward state bouncing against a backward one loops forever
    delta = {
        (0, LEFT_END): [(1, "")],
        (1, A): [(2, "")],
        (2, LEFT_END): [(1, "")],
    }
    m = TwoWayTransducer(3, [1, 1, -1], 0, frozenset({2}), delta,
                         frozenset({A, LEFT_END, RIGHT_END}))
    assert run_two_way(m, "aa").status == "loop"


def test_enumerate_outputs_identity():
    trans = [(0, A, (A,), 0), (0, B, (B,), 0)]
    t = OneWayTransducer(1, 0, frozenset({0}), trans, frozenset({A, B}))
    res = enumerate_outputs(t, "abc"[:2])
    assert res.outputs == {letters("ab")}
    assert not res.truncated


def test_eps_cyclic_states():
    # a two-state cycle, a self-loop, a chain into the cycle, a letter cycle
    trans = [(0, None, 1), (1, None, 0), (2, None, 2), (3, None, 0),
             (4, A, 5), (5, A, 4), (5, None, 3)]
    assert MoveIndex(trans).eps_cyclic == {0, 1, 2}


def test_enumerate_outputs_epsilon_guard():
    # the second word lies outside the domain but still reaches the cycle
    for text in ('(@ -> "x")*', '(@ -> "x")* . (b -> "c")'):
        res = enumerate_outputs(build_parser(mk(text), SIGMA), "a")
        assert res.truncated, text
    assert not res.outputs


def test_enumerate_outputs_without_duplicate_runs():
    # 3^(2n) accepting parser runs on a^n give one bracketing; walked run
    # by run, a^6 alone took ~17 s
    h = mk('(((a+a+a -> "y") odot (a+b+(a+a) -> "dx")) . (ab -> "c")*)*r',
           corpus.SIGMA, corpus.GAMMA)
    parser = build_parser(h, corpus.SIGMA)
    for w in ("a" * 6, "a" * 12):
        t0 = time.perf_counter()
        res = enumerate_outputs(parser, w)
        assert time.perf_counter() - t0 < 2.0, w
        assert len(res.outputs) == 1 and not res.truncated, w
        if len(w) == 6:
            assert res.outputs == Oracle(h).parsings(h, w).items


@settings(deadline=None, max_examples=200, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       depth=st.integers(0, corpus.MAX_DEPTH - 1), wrap=st.booleans())
def test_enumerate_outputs_matches_oracle(seed, depth, wrap):
    # enumeration alone may cost 0.1 s plus 0.5 ms per output over the
    # draw's words: a blow-up in the number of runs fails, a large output
    # set does not, and the oracle's time is not counted.  The corpus keeps
    # star bodies off the empty word, so a wrapped draw adds a star over an
    # empty-word branch to reach the epsilon-run cut.
    e = corpus._random_expr(random.Random(seed), depth)
    assume(corpus.acceptable(e))
    if wrap:
        e = star(esum(e, base(r_eps(), "x")))
    h = label_occurrences(e)
    o = Oracle(h)
    parser = build_parser(h, corpus.SIGMA)
    evaluator = build_evaluator(h, corpus.SIGMA) if wrap else None
    spent, outputs = 0.0, 0
    for w in words_upto(4, corpus.SIGMA):
        t0 = time.perf_counter()
        got = enumerate_outputs(parser, w)
        spent += time.perf_counter() - t0
        outputs += len(got.outputs)
        exp = o.parsings(h, w)
        if not exp.truncated:
            assert not got.truncated, (pretty(e), w)
            assert got.outputs == exp.items, (pretty(e), w)
        if wrap:
            # outputs under truncation depend on where each side cuts
            assert got.truncated == exp.truncated, (pretty(e), w)
            for al in got.outputs:
                res = run_two_way(evaluator, al)
                assert res.status == "accept", (pretty(e), w)
    assert spent <= 0.1 + 0.0005 * outputs, (pretty(e), spent, outputs)


def test_determinize_preserves_language():
    rng = random.Random(5)
    for _ in range(40):
        e = _random_regex(rng, 3, allow_eps=True)
        n = glushkov(e, SIGMA)
        d = determinize(n)
        assert d.is_complete()
        for w in words_upto(6):
            assert d.accepts(w) == nfa_accepts(n, w), (e, w)


def test_nfa_accepts_indexes_each_nfa_once(monkeypatch):
    from rtec import machines
    from rtec.pipeline import build_pipeline
    checker = build_pipeline(mk('(a -> "c") + (a -> "d")'), SIGMA).checker
    built = []

    class Counting(MoveIndex):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(machines, "MoveIndex", Counting)
    for w in words_upto(4):
        assert nfa_accepts(checker, w) == (w == "a"), w
    assert len(built) == 1


def test_determinize_on_deterministic_input():
    n = glushkov(parse_regex("ab", SIGMA), SIGMA)
    d = determinize(n)
    for w in words_upto(4):
        assert d.accepts(w) == nfa_accepts(n, w)


def test_complement_involution():
    d = determinize(glushkov(parse_regex("a*b", SIGMA), SIGMA))
    dd = complement_dfa(complement_dfa(d))
    for w in words_upto(6):
        assert dd.accepts(w) == d.accepts(w)
        assert complement_dfa(d).accepts(w) != d.accepts(w)


def test_complement_all_accepting():
    alpha = frozenset({A, B})
    d = Dfa(1, 0, frozenset({0}), {(0, A): 0, (0, B): 0}, alpha)
    c = complement_dfa(d)
    assert not any(c.accepts(w) for w in words_upto(4))


def test_minimize():
    d = determinize(glushkov(parse_regex("(a+b)(a+b)", SIGMA), SIGMA))
    m = minimize_dfa(d)
    assert m.n_states <= d.n_states
    for w in words_upto(5):
        assert m.accepts(w) == d.accepts(w)


def test_exports():
    m = reversible_acceptor()
    dot = to_dot(m)
    assert "digraph" in dot and "->" in dot
    d = to_json_dict(m)
    json.dumps(d)
    assert d["type"] == "2nft"
    assert d["states"] == 5
    assert d["signs"][2] == "-"
    n = Nfa(2, 0, frozenset({1}), [(0, A, 1), (0, None, 1)], frozenset({A}))
    assert to_json_dict(n)["transitions"][1]["in"] is None
    assert "eps" in to_dot(n)
    # the checker has 2 * 8^2 nominal states; the dot lists the 5 in use
    from rtec.pipeline import build_pipeline
    checker = build_pipeline(mk('(a -> "c") + (a -> "d")'), SIGMA).checker
    assert checker.n_states == 128
    nodes = [line for line in to_dot(checker).splitlines() if "circle" in line]
    used = {checker.initial} | {x for (s, _a, d) in checker.transitions
                                for x in (s, d)}
    assert len(nodes) == len(used) == 5


def test_nondeterministic_two_way_raises():
    # two choices at the start: run_two_way only runs deterministic machines
    delta = {
        (0, LEFT_END): [(1, ""), (2, "")],
        (1, A): [(1, "x")],
        (2, A): [(2, "y")],
        (2, RIGHT_END): [(3, "")],
    }
    m = TwoWayTransducer(4, [1, 1, 1, 1], 0, frozenset({3}), delta,
                         frozenset({A, LEFT_END, RIGHT_END}))
    assert not is_deterministic(m)
    with pytest.raises(MachineError, match=r"^state 0 has 2 moves on \|-$"):
        run_two_way(m, "aa")


def test_index_holds_only_useful_states():
    from rtec.parser_build import build_parser, parser_size_formula
    from rtec.pipeline import check_size_bounds
    h = mk('((a+b)* -> "x") odot rev')
    parser = build_parser(h, SIGMA)

    def walk(start, edges):
        seen, todo = set(start), list(start)
        while todo:
            s = todo.pop()
            for (x, y) in edges:
                if x == s and y not in seen:
                    seen.add(y)
                    todo.append(y)
        return seen

    edges = [(s, d) for (s, _a, _o, d) in parser.transitions]
    useful = (walk({parser.initial}, edges)
              & walk(parser.finals, [(d, s) for (s, d) in edges]))
    index = parser.index
    filed = {x for moves in (*index.eps.values(), *index.letter.values())
             for (s, _a, _o, d) in moves for x in (s, d)}
    assert filed == useful
    assert len(useful) < parser.n_states == parser_size_formula(h) == 32
    assert check_size_bounds(h, SIGMA).ok


def test_two_way_rejects_foreign_letter():
    m = reversible_acceptor()
    assert run_two_way(m, "ab").status == "accept"
    assert run_two_way(m, "az").status == "reject"
    assert run_two_way(m, "z").status == "reject"
