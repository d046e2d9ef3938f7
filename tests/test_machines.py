import functools
import json
import math
import random
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

from rtec import corpus, machines
from rtec.evaluator_build import build_evaluator
from rtec.expr import (base, esum, label_occurrences, parse_regex, pretty,
                       r_eps, star)
from rtec.glushkov import glushkov
from rtec.machines import (Dfa, MachineError, MoveIndex, Nfa,
                           OneWayTransducer, TwoWayResult, TwoWayTransducer,
                           audit_trace, complement_dfa, determinize,
                           enumerate_outputs, is_codeterministic,
                           is_deterministic, is_reversible, minimize_dfa,
                           nfa_accepts, run_two_way, to_dot, to_json_dict)
from rtec.oracle import Oracle
from rtec.parser_build import build_parser
from rtec.pipeline import build_pipeline
from rtec.symbols import LEFT_END, RIGHT_END, Coded, letter, letters
from rtec.corpus import _random_regex

from conftest import LONG_CASES, SIGMA, mk, words_upto

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


def test_eps_joins_match_closures():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(1, 9)
        trans = [(rng.randrange(n), rng.choice((None, None, A)),
                  rng.randrange(n)) for _ in range(rng.randrange(2 * n))]
        index = MoveIndex(trans)
        touched = {t[i] for t in trans if t[1] is None for i in (0, 2)}
        clo = index.eps_joins(lambda q: (q,))
        assert clo == {p: index.closure((p,)) for p in touched}, trans
        reach = index.eps_joins(lambda q: index.step((q,), A))
        assert reach == {p: index.step(index.closure((p,)), A)
                         for p in touched}, trans


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


# ---------------------------------------------------------------------------
# Sweeps: tapes of at least machines.SWEEP_MIN_TAPE symbols

def stepwise(t, word, want_trace=False):
    """run_two_way with every step taken by table lookup."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(machines, "SWEEP_MIN_TAPE", math.inf)
        return run_two_way(t, word, want_trace)


def step_outputs(t, word, trace) -> str:
    """The outputs of a trace's steps, each read off delta."""
    tape = (LEFT_END,) + tuple(word) + (RIGHT_END,)
    out = []
    for ((state, boundary), (nstate, _b)) in zip(trace, trace[1:]):
        pos = boundary if t.signs[state] > 0 else boundary - 1
        (o,) = [o for (d, o) in t.delta[(state, tape[pos])] if d == nstate]
        out.append(o)
    return "".join(out)


def audited_long_run(t, word):
    """The untraced run of t on a tape past the sweep gate, against the
    traced run, which steps and is checked step by step against delta."""
    syms = letters(word) if isinstance(word, str) else tuple(word)
    assert len(syms) + 2 >= machines.SWEEP_MIN_TAPE
    res = run_two_way(t, syms, want_trace=True)
    assert audit_trace(t, syms, res.trace)
    if res.status == "accept":
        assert res.output == step_outputs(t, syms, res.trace)
    plain = run_two_way(t, syms)
    assert (plain.status, plain.output) == (res.status, res.output)
    assert res == stepwise(t, syms, want_trace=True)
    return res


def random_parsing(parser, rng, min_letters):
    """(word, parsing) from a random accepting run of the parser with at
    least `min_letters` letters, or None when the domain has no such word
    or the walk gets stuck.  No spontaneous move goes back to a state of
    the current run of them."""
    index = parser.index
    moves = {}
    for ms in (*index.eps.values(), *index.letter.values()):
        for m in ms:
            moves.setdefault(m[0], []).append(m)

    def reach(s):
        seen, todo = {s}, [s]
        while todo:
            for m in moves.get(todo.pop(), ()):
                if m[3] not in seen:
                    seen.add(m[3])
                    todo.append(m[3])
        return seen

    # states that can still read any number of letters: those that reach
    # a cycle with a letter move on it
    cyclic = {m[0] for ms in moves.values() for m in ms
              if m[1] is not None and m[0] in reach(m[3])}
    grows = {s for s in moves if reach(s) & cyclic}
    word, out = [], []
    state, eps_run = parser.initial, {parser.initial}
    while len(word) < min_letters or state not in parser.finals:
        if len(word) < min_letters:
            options = [m for m in moves.get(state, ()) if m[3] in grows
                       and (m[1] is not None or m[3] not in eps_run)]
            if not options:
                return None
            m = rng.choice(options)
        else:
            # the first move of a shortest way to a final state
            prev = {state: None}
            todo = [state]
            while todo and not parser.finals & prev.keys():
                nxt = []
                for m in (m for s in todo for m in moves.get(s, ())):
                    if m[3] not in prev and (m[1] is not None
                                             or m[3] not in eps_run):
                        prev[m[3]] = m
                        nxt.append(m[3])
                todo = nxt
            if not todo:
                return None
            m = prev[min(parser.finals & prev.keys())]
            while m[0] != state:
                m = prev[m[0]]
        if m[1] is None:
            eps_run.add(m[3])
        else:
            word.append(m[1][1])
            eps_run = {m[3]}
        out.extend(m[2])
        state = m[3]
    return "".join(word), tuple(out)


def test_sweeps_on_long_words():
    # two 2,000-letter words per expression, one ending in each letter
    rng = random.Random(14)
    for text, value in LONG_CASES:
        pl = build_pipeline(mk(text), SIGMA)
        for last in "ab":
            w = "".join(rng.choice("ab") for _ in range(1999)) + last
            want = value(w)
            values = set()
            for al in enumerate_outputs(pl.parser, w).outputs:
                res = audited_long_run(pl.evaluator, al)
                assert res.status == "accept", (text, last)
                values.add(res.output)
            assert values == ({want} if want is not None else set()), text
            assert pl.run_unambiguous(w) == want, (text, last)


def test_sweeps_on_corpus_evaluators():
    rng = random.Random(14)
    long_tapes = 0
    for e in corpus.generate():
        h = label_occurrences(e)
        parser = build_parser(h, corpus.SIGMA)
        evaluator = build_evaluator(h, corpus.SIGMA)
        for _ in range(2):
            found = random_parsing(parser, rng, machines.SWEEP_MIN_TAPE)
            if found is None:
                break
            (w, al) = found
            assert audited_long_run(evaluator, al).status == "accept", (
                pretty(e), w)
            long_tapes += 1
    assert long_tapes >= 100


def test_short_tapes_build_no_sweep_data():
    m = reversible_acceptor()
    w = "b" * (machines.SWEEP_MIN_TAPE - 3) + "a"
    assert run_two_way(m, w[1:]).status == "accept"
    assert "sweeps" not in vars(m)
    assert run_two_way(m, w).status == "accept"
    assert "sweeps" in vars(m)


def bouncer():
    """States 1 and 3 step in turn over b, then state 1 sweeps right over
    a; state 2 sweeps left over both, so a run never ends."""
    delta = {
        (0, LEFT_END): [(1, "")],
        (1, A): [(1, "x")],
        (1, B): [(3, "")],
        (3, B): [(1, "")],
        (1, RIGHT_END): [(2, "")],
        (2, A): [(2, "y")],
        (2, B): [(2, "y")],
        (2, LEFT_END): [(1, "")],
    }
    return TwoWayTransducer(4, [1, 1, -1, 1], 0, frozenset(), delta,
                            frozenset({A, B, LEFT_END, RIGHT_END}))


def test_sweep_loop_status():
    # across the words, the traced run's last step is a loop and a plain
    # step
    m = bouncer()
    last_steps = set()
    for i in range(300, 304):
        for j in range(0, 24, 2):
            w = "b" * j + "a" * i
            res = audited_long_run(m, w)
            assert res.status == "loop", w
            assert len(res.trace) == m.n_states * (len(w) + 3) + 1
            (p, q) = res.trace[-2:]
            last_steps.add(p.state == q.state)
    assert last_steps == {True, False}


def test_sweep_into_nondeterministic_configuration():
    delta = {
        (0, LEFT_END): [(1, "")],
        (1, A): [(1, "x")],
        (1, B): [(2, ""), (3, "")],
        (2, RIGHT_END): [(4, "")],
        (3, RIGHT_END): [(4, "")],
    }
    m = TwoWayTransducer(5, [1] * 5, 0, frozenset({4}), delta,
                         frozenset({A, B, LEFT_END, RIGHT_END}))
    w = "a" * 300 + "b"
    for run in (run_two_way, stepwise):
        with pytest.raises(MachineError, match=r"^state 1 has 2 moves on b$"):
            run(m, w)


def test_foreign_letter_after_a_sweep_rejects():
    m = reversible_acceptor()
    for w in ("b" * 300 + "z", "a" + "b" * 300 + "z", "ab" * 150 + "zb"):
        assert audited_long_run(m, w).status == "reject", w
    assert audited_long_run(m, "a" + "b" * 300).status == "accept"


def test_sweeps_off_the_tape():
    # + state 1 loops on the right endmarker, - state 2 on the left one
    right = {
        (0, LEFT_END): [(1, "")],
        (1, A): [(1, "x")],
        (1, RIGHT_END): [(1, "z")],
    }
    left = {
        (0, LEFT_END): [(1, "")],
        (1, A): [(1, "")],
        (1, RIGHT_END): [(2, "")],
        (2, A): [(2, "x")],
        (2, LEFT_END): [(2, "z")],
    }
    alphabet = frozenset({A, LEFT_END, RIGHT_END})
    w = "a" * 300
    for (delta, signs) in ((right, [1, 1]), (left, [1, 1, -1])):
        m = TwoWayTransducer(len(signs), signs, 0, frozenset(), delta,
                             alphabet)
        assert audited_long_run(m, w).status == "reject"
    # where it is final, the right sweep ends past the tape and accepts
    m = TwoWayTransducer(2, [1, 1], 0, frozenset({1}), right, alphabet)
    res = audited_long_run(m, w)
    assert (res.status, res.output) == ("accept", "x" * 300 + "z")


def test_sweeps_off_translates_fast_path():
    # over 128 symbol codes, then outputs outside ASCII: translate leaves
    # its fast path in both
    rng = random.Random(14)
    chars = [chr(0x100 + i) for i in range(200)]
    for (syms, out) in ((chars, lambda c: "x"),
                        ("ab", lambda c: c + "\u00e9")):
        delta = {(0, LEFT_END): [(1, "")], (1, RIGHT_END): [(2, "")]}
        delta.update(((1, letter(c)), [(1, out(c))]) for c in syms)
        m = TwoWayTransducer(3, [1, 1, 1], 0, frozenset({2}), delta,
                             frozenset(sym for (_s, sym) in delta))
        w = "".join(rng.choice(syms) for _ in range(400))
        res = audited_long_run(m, w)
        codes = m.code.values()
        assert (max(map(ord, codes)) > 127) == (syms is chars)
        assert (res.status, res.output) == ("accept",
                                           "".join(map(out, w)))


# ---------------------------------------------------------------------------
# Window runs: on a long tape, an untraced run takes each move that is not a
# loop, nor the move a sweep stops at, through a memo of runs keyed by the
# state and the codes around the head, kept on the machine

def fresh(t):
    """t with no run data built, so with an empty window memo."""
    return TwoWayTransducer(t.n_states, t.signs, t.initial, t.finals,
                            t.delta, t.input_alphabet)


def test_window_memo_shared_across_words():
    # one evaluator over many long parsings against a fresh one per
    # parsing and the step-by-step run
    rng = random.Random(21)
    runs = []
    for text, value in LONG_CASES:
        pl = build_pipeline(mk(text), SIGMA)
        walker = pl.parser.walker
        for n in (254, 300, 301, 700, 1500):
            w = "".join(rng.choice("ab") for _ in range(n - 1)) + "b"
            runs += [(pl.evaluator, walker.decode(al))
                     for al in walker.outputs(w)]
            assert pl.run_unambiguous(w) == value(w), text
    for pl in corpus_pipelines():
        for _ in range(3):
            found = random_parsing(pl.parser, rng, machines.SWEEP_MIN_TAPE)
            if found is not None:
                runs.append((pl.evaluator, found[1]))
    assert len(runs) >= 200
    for (evaluator, syms) in runs:
        shared = run_two_way(evaluator, syms)
        assert shared.status == "accept"
        for other in (run_two_way(fresh(evaluator), syms),
                      stepwise(evaluator, syms)):
            assert (other.status, other.output) == (shared.status,
                                                    shared.output)


def test_window_run_that_loops():
    # state 1 meets b, turns back to - state 2 on the a before, which
    # turns forward to 1 on the b again: a cycle inside one window, after
    # a sweep across the tape or inside the first window
    delta = {
        (0, LEFT_END): [(1, "")],
        (1, A): [(1, "x")],
        (1, B): [(2, "")],
        (2, A): [(1, "y")],
    }
    for w in ("a" * 300 + "b", "a" * 5 + "b" + "a" * 300):
        m = TwoWayTransducer(3, [1, 1, -1], 0, frozenset(), delta,
                             frozenset({A, B, LEFT_END, RIGHT_END}))
        assert audited_long_run(m, w).status == "loop", w
        assert False in m.sweeps[1].values(), w


def test_window_run_leaves_through_a_loop():
    # A move that is neither a loop nor taken after a sweep starts a window
    # run, which steps on through the loop after it until the head leaves
    # the window, rightwards in + state 2 and leftwards in - state 4; the
    # run then sweeps on from there.
    delta = {
        (0, LEFT_END): [(1, "")],
        (1, A): [(2, "z")],
        (1, B): [(2, "y")],
        (1, RIGHT_END): [(3, "")],
        (2, A): [(2, "x")],
        (2, B): [(1, "")],
        (2, RIGHT_END): [(3, "")],
        (3, A): [(4, "u")],
        (3, B): [(4, "v")],
        (4, A): [(4, "")],
        (4, B): [(4, "w")],
        (4, LEFT_END): [(5, "")],
        (5, A): [(5, "")],
        (5, B): [(5, "")],
        (5, RIGHT_END): [(6, "!")],
    }
    rng = random.Random(25)
    words = ["a" * 300, "a" * 299 + "b", "b" + "a" * 40 + "b" * 300]
    for _ in range(6):
        w = ""
        while len(w) < 300:
            w += "a" * rng.randrange(0, 40) + "b"
        words.append(w)
    for w in words:
        m = TwoWayTransducer(7, [1, 1, 1, -1, -1, 1, 1], 0, frozenset({6}),
                             delta, frozenset({A, B, LEFT_END, RIGHT_END}))
        res = audited_long_run(m, w)
        assert res.status == "accept", w
        plain = stepwise(m, w)
        assert (plain.status, plain.output) == (res.status, res.output)
        # the memo holds each run's last row, state * width
        width = m.table[3]
        left = {run[0] // width for run in m.sweeps[1].values()
                if abs(run[1]) > machines.WINDOW}
        assert {2, 4} <= left, w


class LoggedWindows(dict):
    """A window memo that logs the steps of each window run it gives and
    counts the runs worked out for it."""

    def __init__(self, log):
        super().__init__()
        self.log = log
        self.misses = 0

    def get(self, key):
        run = super().get(key)
        if run:
            self.log.append(("window", run[3]))
        return run

    def __setitem__(self, key, run):
        super().__setitem__(key, run)
        self.misses += 1
        if run:
            self.log.append(("window", run[3]))


def test_window_and_sweep_step_bounds():
    # Across the words, the step bound falls inside a window run, over the
    # b blocks, and inside a sweep.  Each sweep on the tape and each window
    # run handed out is logged; the other steps are the single moves after
    # sweeps.
    m = bouncer()
    log = []
    (loops, _windows) = m.sweeps

    def logged(search):
        def f(s, i):
            found = search(s, i)
            log.append(("sweep", found.start() - i + 1))
            return found
        return f

    m.__dict__["sweeps"] = ({state: (logged(search), tr)
                             for (state, (search, tr)) in loops.items()},
                            LoggedWindows(log))
    falls = set()
    for i in range(300, 304):
        for j in range(0, 40, 2):
            w = "b" * j + "a" * i
            log.clear()
            assert audited_long_run(m, w).status == "loop", w
            log.clear()
            run_two_way(m, w)
            bound = m.n_states * (len(w) + 3)
            taken = 0
            for (at, (kind, n)) in enumerate(log, 1):
                taken += n
                if taken < bound and kind == "sweep":
                    taken += 1
                if taken >= bound:
                    # the run stops as soon as it reaches the bound
                    assert at == len(log), w
                    falls.add((kind, taken > bound))
            assert taken >= bound, w
    assert {("window", True), ("sweep", True)} <= falls


def zigzag():
    """State 1 reads each symbol, steps back to - state 2 and forward to
    3, which moves on to the next one: three moves per symbol, none of
    them a loop, so every one goes through the window memo."""
    delta = {
        (0, LEFT_END): [(1, "")],
        (1, A): [(2, "x")],
        (1, B): [(2, "y")],
        (1, RIGHT_END): [(4, "z")],
        (3, A): [(1, "")],
        (3, B): [(1, "")],
    }
    delta.update(((2, s), [(3, "")]) for s in (A, B, LEFT_END))
    return TwoWayTransducer(5, [1, 1, -1, 1, 1], 0, frozenset({4}), delta,
                            frozenset({A, B, LEFT_END, RIGHT_END}))


def test_window_ends_and_foreign_symbols():
    # windows over the padding past either end of the tape, and windows
    # holding a letter outside the alphabet, whose code is that padding
    rng = random.Random(21)
    words = ["a" * 300, "b" * 299 + "a", "ab" * 127]
    words += ["".join(rng.choice("ab") for _ in range(n)) for n in (254, 400)]
    for w in words:
        for m in (zigzag(), reversible_acceptor()):
            res = audited_long_run(m, w)
            assert res.status == "accept", w
        assert res.output == "" and audited_long_run(zigzag(), w).output == (
            w.replace("a", "x").replace("b", "y") + "z")
        for at in (0, 1, 5, 150, len(w) - 6, len(w) - 1):
            v = w[:at] + "z" + w[at + 1:]
            for m in (zigzag(), reversible_acceptor()):
                assert audited_long_run(m, v).status == "reject", (v, at)
    # a coded tape in the zigzag's own code, ending on a code of no symbol
    m = zigzag()
    coded = Coded("".join(m.code[letter(c)] for c in words[-1]))
    for tail in ("", "\0", "\x7f"):
        res = run_two_way(m, Coded(coded + tail))
        want = stepwise(m, Coded(coded + tail))
        assert (res.status, res.output) == (want.status, want.output)
        assert res.status == ("accept" if not tail else "reject")


def test_window_memo_cap(monkeypatch):
    # with a memo cap of 8 runs, the memo starts over many times and the
    # results stay those of the step-by-step run
    monkeypatch.setattr(machines, "COREACH_MEMO_STATES", 8)
    misses = 0
    rng = random.Random(21)
    for text, value in LONG_CASES:
        pl = build_pipeline(mk(text), SIGMA)
        evaluator = fresh(pl.evaluator)
        windows = LoggedWindows([])
        evaluator.__dict__["sweeps"] = (evaluator.sweeps[0], windows)
        for n in (300, 600):
            w = "".join(rng.choice("ab") for _ in range(n - 1)) + "b"
            for al in pl.parser.walker.outputs(w):
                syms = pl.parser.walker.decode(al)
                res = run_two_way(evaluator, syms)
                assert (res.status, res.output) == ("accept", value(w))
                assert len(windows) <= 8
        misses += windows.misses
    assert misses > 3 * 8


# ---------------------------------------------------------------------------
# Coded parsings: a pipeline's walk hands each parsing to the evaluator as
# one character per symbol, in the evaluator's code

@functools.cache
def corpus_pipelines():
    return [build_pipeline(label_occurrences(e), corpus.SIGMA)
            for e in corpus.generate()]


def test_coded_runs_match_tuple_runs(monkeypatch):
    # (status, output, trace) of a run on the coded parsing against one on
    # its symbols: every corpus parsing up to length 4, and random long
    # parsings, with the sweep gate at 0 and at its real value; at 0, the
    # untraced run on a short parsing reads windows over both ends
    rng = random.Random(18)
    long_runs = []
    for pl in corpus_pipelines()[:60]:
        found = random_parsing(pl.parser, rng, machines.SWEEP_MIN_TAPE)
        if found is not None:
            long_runs.append((pl, found[1]))
    for text, _value in LONG_CASES:
        pl = build_pipeline(mk(text), SIGMA)
        w = "".join(rng.choice("ab") for _ in range(400))
        long_runs += [(pl, pl.parser.walker.decode(al))
                      for al in pl.parser.walker.outputs(w)]
    assert len(long_runs) >= 30
    for gate in (0, machines.SWEEP_MIN_TAPE):
        monkeypatch.setattr(machines, "SWEEP_MIN_TAPE", gate)
        runs = 0
        for pl in corpus_pipelines():
            walker = pl.parser.walker
            for w in words_upto(4):
                for al in walker.outputs(w):
                    res = run_two_way(pl.evaluator, Coded(al), True)
                    assert res.status == "accept", (w, al)
                    assert res == run_two_way(pl.evaluator, walker.decode(al),
                                              True), (w, al)
                    plain = run_two_way(pl.evaluator, Coded(al))
                    assert (plain.status, plain.output) == (res.status,
                                                            res.output)
                    runs += 1
        assert runs > 5000
        for (pl, syms) in long_runs:
            coded = Coded("".join(map(pl.evaluator.code.get, syms)))
            res = run_two_way(pl.evaluator, coded, True)
            assert res == run_two_way(pl.evaluator, syms, True)
            plain = run_two_way(pl.evaluator, coded)
            assert (plain.status, plain.output) == (res.status, res.output)


def test_coded_relational_matches_enumerate_outputs():
    # the coded route of `run_relational` against enumerate_outputs and
    # runs on symbol tuples
    for pl in corpus_pipelines():
        for w in words_upto(4):
            res = enumerate_outputs(pl.parser, w)
            runs = [run_two_way(pl.evaluator, al) for al in res.outputs]
            assert pl.run_relational(w) == (
                {r.output for r in runs if r.status == "accept"},
                res.truncated), w


def test_coded_codes_stay_below_128_per_pipeline():
    # codes are dense per pipeline: a prefix sum with 242 symbols compiled
    # first leaves the Hadamard evaluator's 18 codes below 128, so its
    # sweeps keep translate's fast path
    text = " + ".join('(%s(a+b)* -> "%s")' % ("a" * i, "cd"[i % 2])
                      for i in range(1, 61))
    prefix = build_pipeline(mk(text), SIGMA)
    assert prefix.run_unambiguous("ab") == "d"
    assert len(prefix.evaluator.code) > 127
    (text, value) = LONG_CASES[0]
    pl = build_pipeline(mk(text), SIGMA)
    assert pl.parser.walker.code is pl.evaluator.code
    assert max(map(ord, pl.evaluator.code.values())) < 128
    w = "ab" * 200
    assert pl.run_unambiguous(w) == value(w)


def test_coded_route_refuses_a_foreign_letter():
    pl = build_pipeline(mk('((a+b)* -> "x") odot rev'), SIGMA)
    for w in ("z", "az", "a" * 300 + "z", "z" + "b" * 300):
        assert pl.run_unambiguous(w) is None, w
        assert pl.uniformizer.unique(w) is None, w
        assert pl.run_relational(w) == (set(), False), w
    assert pl.run_unambiguous("ab") == "xba"


def test_coded_outputs_decode_round_trip():
    for pl in corpus_pipelines()[:50]:
        (walker, code) = (pl.parser.walker, pl.evaluator.code)
        assert sorted(code.values()) == [chr(i) for i in
                                         range(1, len(code) + 1)]
        assert sorted(code, key=code.get) == sorted(
            pl.evaluator.input_alphabet)
        for w in words_upto(3):
            for al in walker.outputs(w):
                syms = walker.decode(al)
                assert type(syms) is tuple and len(syms) == len(al)
                assert "".join(map(code.__getitem__, syms)) == al
    # a bare transducer codes its own output symbols the same way
    t = OneWayTransducer(1, 0, frozenset({0}), [(0, A, (A,), 0),
                                                (0, B, (B,), 0)],
                         frozenset({A, B}))
    walker = t.walker
    assert walker.code == {A: "\x01", B: "\x02"}
    assert [walker.decode(s) for s in ("", "\x01", "\x02\x01")] == [
        (), (A,), (B, A)]
    assert walker.outputs("ba") == ["\x02\x01"]


# ---------------------------------------------------------------------------
# Move table: one row of width slots per state, one column per code, column
# 0 for no symbol

Z = letter("z")


def assert_table_pins_delta(t):
    (index, moves, multi, width) = t.table
    assert width == len(t.code) + 1
    assert len(moves) == t.n_states * width
    assert sorted(map(ord, t.code.values())) == list(range(1, width))
    for (sym, c) in t.code.items():
        assert index[sym] == index[c] == ord(c)
    # column 0 is empty in every row
    assert all(moves[row] is None for row in range(0, len(moves), width))
    singles = 0
    for (state, sym), ms in t.delta.items():
        at = state * width + index[sym]
        if len(ms) == 1:
            (dst, out) = ms[0]
            assert moves[at] == (dst * width, out, t.signs[dst])
            singles += 1
        else:
            assert moves[at] is None
            assert multi.get(at) == (sym if ms else None)
    assert sum(move is not None for move in moves) == singles
    assert len(multi) == sum(len(ms) > 1 for ms in t.delta.values())
    # a symbol delta reads outside the alphabet gets a column of its own,
    # after the alphabet's
    extra = {sym for (_state, sym) in t.delta} - t.input_alphabet
    alphabet = len(t.input_alphabet)
    assert sorted(index[sym] for sym in extra) == list(
        range(alphabet + 1, alphabet + 1 + len(extra)))


def test_move_table_pins_delta():
    for pl in corpus_pipelines():
        assert_table_pins_delta(fresh(pl.evaluator))
    # a nondeterministic key, a key with no move, and symbols read outside
    # the alphabet, one of them on the tape
    delta = {
        (0, LEFT_END): [(1, ""), (2, "")],
        (1, A): [(1, "x")],
        (1, B): [],
        (1, Z): [(3, "z")],
        (2, ("foreign",)): [(2, "")],
        (3, RIGHT_END): [(4, "!")],
    }
    odd = TwoWayTransducer(5, [1, 1, 1, 1, 1], 0, frozenset({4}), delta,
                           frozenset({A, B, LEFT_END, RIGHT_END}))
    for m in (reversible_acceptor(), one_way_acceptor(), zigzag(), bouncer(),
              odd):
        assert_table_pins_delta(m)
    # made deterministic, it runs over the symbol outside its alphabet
    delta[(0, LEFT_END)] = [(1, "")]
    odd = fresh(odd)
    assert run_two_way(odd, (A, A, Z)) == TwoWayResult("accept", "xxz!")
    assert run_two_way(odd, (A, B)).status == "reject"


def test_move_table_short_tapes_reject_unknown_codes(monkeypatch):
    # Codes of no symbol (chr(0), codes past the last column, and codes
    # that would land on the next rows or past the table if added to a
    # row) and a symbol outside the alphabet all read column 0 and reject.
    # State 1 reads them after an a, and state 2, whose row is next to
    # last, after ba; without column 0 state 1 would run on in state 2's
    # row, and state 2 past the end of the list.
    delta = {
        (0, LEFT_END): [(1, "")],
        (1, A): [(1, "x")],
        (1, B): [(2, "")],
        (2, A): [(2, "y")],
        (2, RIGHT_END): [(3, "")],
    }
    m = TwoWayTransducer(4, [1, 1, 1, 1], 0, frozenset({3}), delta,
                         frozenset({A, B, LEFT_END, RIGHT_END}))
    width = m.table[3]
    (a, b) = (m.code[A], m.code[B])
    assert run_two_way(m, Coded(a + b + a)) == TwoWayResult("accept", "xy")
    tails = ["\0", "\x7f", chr(width + 5)]
    tails += [chr(j * width + c) for j in (1, 2, 3) for c in range(width)]
    words = [Coded(head + tail) for head in (a, b + a) for tail in tails]
    words += [(A, Z), (B, Z, A), (A, ("foreign",)), (A, A, LEFT_END)]
    for gate in (machines.SWEEP_MIN_TAPE, 0):
        monkeypatch.setattr(machines, "SWEEP_MIN_TAPE", gate)
        for w in words:
            for res in (run_two_way(m, w), run_two_way(m, w, True),
                        stepwise(m, w)):
                assert res.status == "reject", (gate, w)
    for m in (reversible_acceptor(), zigzag()):
        width = m.table[3]
        for tail in ("\0", "\x7f", chr(width + 5)):
            w = Coded(m.code[A] + tail)
            assert run_two_way(m, w).status == "reject", tail
            assert stepwise(m, w).status == "reject", tail


# ---------------------------------------------------------------------------
# Block walks: on a long word both walks take whole blocks of
# machines.BLOCK letters through memos, up to the first block that branches

def letter_walk(walker, word, one=True):
    """outputs(word, one), sorted, with the block gate above the word's
    length."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(machines, "SWEEP_MIN_TAPE", len(word) + 1)
        return sorted(walker.outputs(word, one))


def output_count(walker, word):
    """How many outputs the walk on `word` has, counted per node and
    position through segments, not walked one by one."""
    co = walker.coreach(word) + [None]
    nodes = {} if walker.start.isdisjoint(co[0]) else {walker.start: 1}
    stops = 0
    for (t, a) in enumerate((*word, None)):
        (now, nodes) = (nodes, {})
        for (node, n) in now.items():
            for nxt in walker._segment(node, co[t], co[t + 1], a)[1::2]:
                if nxt is None:
                    stops += n
                else:
                    nodes[nxt] = nodes.get(nxt, 0) + n
    return stops


def block_variants(w):
    """Prefixes of w at the gate and at lengths m * BLOCK + r past it for
    every r, w itself, and a foreign letter z in the first block, the last
    whole block and the tail of w and of its prefix one past the gate."""
    (k, gate) = (machines.BLOCK, machines.SWEEP_MIN_TAPE)
    words = [w[:n] for n in range(gate - 1, gate + k + 1)] + [w]
    for v in (w, w[:gate + 1]):
        n = len(v) // k * k
        for i in (2, n - 3) + ((len(v) - 1,) if n < len(v) else ()):
            words.append(v[:i] + "z" + v[i + 1:])
    return words


def assert_block_walk_matches(parser, words, most=16):
    """Each word's block walks against its letter walks in the parser's
    walker: the walk for the only output, and on words with at most `most`
    outputs (others can have exponentially many) the walk for all of them
    and enumerate_outputs' truncated flag.  (words with one output, words
    with several)."""
    (walker, unique, several) = (parser.walker, 0, 0)
    for w in words:
        got = walker.outputs(w, True)
        assert got == letter_walk(walker, w), w
        unique += bool(got)
        if output_count(walker, w) > most:
            continue
        got = sorted(walker.outputs(w))
        assert got == letter_walk(walker, w, False), w
        several += len(got) > 1
        truncated = enumerate_outputs(parser, w).truncated
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(machines, "SWEEP_MIN_TAPE", len(w) + 1)
            assert enumerate_outputs(parser, w).truncated == truncated, w
    return (unique, several)


def test_block_walk_matches_letter_walk():
    rng = random.Random(23)
    (k, gate) = (machines.BLOCK, machines.SWEEP_MIN_TAPE)
    assert gate % k  # words at the gate end in a tail
    unique = several = tails = 0
    for pl in corpus_pipelines():
        found = random_parsing(pl.parser, rng, gate)
        if found is not None:
            words = block_variants(found[0])
            tails += sum(len(w) % k > 0 for w in words)
            (u, s) = assert_block_walk_matches(pl.parser, words)
            (unique, several) = (unique + u, several + s)
    assert unique >= 600 and several >= 100 and tails >= 1500
    for text, value in LONG_CASES:
        pl = build_pipeline(mk(text), SIGMA)
        for n in (gate + 50, 1000):
            w = "".join(rng.choice("ab") for _ in range(n - 1)) + "b"
            words = block_variants(w)
            assert_block_walk_matches(pl.parser, words)
            for v in words:
                if "z" not in v:
                    assert pl.run_unambiguous(v) == value(v), (text, v)
    # long words ambiguous only after their last b: the walks branch in a
    # late block or in the tail, and words ending in b have one output
    pl = build_pipeline(mk('((a+b)*b -> "x") . ((aa* -> "c") + (aa* -> "d"))'
                           ' + ((a+b)*b -> "y")'), SIGMA)
    u = "".join(rng.choice("ab") for _ in range(gate)) + "b"
    words = [u[:n] + "b" + "a" * j for n in range(gate, gate + k)
             for j in range(2 * k + 1)]
    assert assert_block_walk_matches(pl.parser, words) == (
        k, len(words) - k)
    assert () in pl.parser.walker.block_steps.values()
    assert all(pl.run_unambiguous(w) == (None if w[-1] == "a" else "y")
               for w in words)
    assert all(pl.run_relational(w) == ({"xc", "xd"}, False)
               for w in words if w[-1] == "a")
    # long words whose first branch, at their first a, falls in the first
    # block, inside a block, on either side of a block boundary, in the
    # last whole block or in the tail; each has two outputs
    pl = build_pipeline(mk('(b* -> "x") . ((a -> "c") + (a -> "d"))'
                           ' . ((a+b)* -> "y")'), SIGMA)
    n = gate // k * k + 2 * k + 2
    v = "".join(rng.choice("ab") for _ in range(n))
    firsts = (0, 3, k - 1, k, k + 1, 10 * k, n - n % k - 1, n - 2, n - 1)
    words = ["b" * i + "a" + v[i + 1:] for i in firsts]
    assert all(len(w) == n for w in words)
    assert assert_block_walk_matches(pl.parser, words) == (0, len(words))
    assert all(pl.run_relational(w) == ({"xcy", "xdy"}, False)
               for w in words)
