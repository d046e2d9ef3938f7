import json
import random
from datetime import timedelta

from hypothesis import assume, given, settings, strategies as st

from rtec import corpus
from rtec.expr import (BASE, base, children, esum, label_occurrences, pretty,
                       r_eps, star)
from rtec.glushkov import glushkov
from rtec.machines import (MoveIndex, complement_dfa, determinize,
                           dfa_product, enumerate_outputs, minimize_dfa,
                           nfa_accepts, run_two_way, to_json_dict)
from rtec.oracle import Oracle, OracleLimitError
from rtec.parser_build import build_parser
from rtec import machines, pipeline
from rtec.pipeline import (MacroStepTable, build_pipeline,
                           build_unambiguity_acceptor, check_size_bounds,
                           domain_dfas, uniformize_parser)
from rtec.corpus import cn_alphabet, cn_expression, cn_word, generate
from rtec.symbols import RIGHT_END, letter, render_word

from conftest import LONG_CASES, SIGMA, mk, words_upto


def test_checker_accepts_ambiguous_sum():
    h = mk('(a -> "c") + (a -> "d")')
    pl = build_pipeline(h, SIGMA)
    assert nfa_accepts(pl.checker, "a")
    assert not nfa_accepts(pl.checker, "b")
    assert not nfa_accepts(pl.checker, "")
    assert pl.checker.n_states == 2 * pl.parser.n_states ** 2


def test_checker_functional_base():
    h = mk('a* -> "x"')
    pl = build_pipeline(h, SIGMA)
    for w in words_upto(6):
        assert not nfa_accepts(pl.checker, w), w


def test_checker_intro_counterexample():
    h = mk('((((a -> "c") + (aa -> "cc")) . ((a -> "d") + (aa -> "dd"))) '
           '. ((b -> "e") + (ab -> "ee")))')
    pl = build_pipeline(h, SIGMA)
    assert nfa_accepts(pl.checker, "aaab")
    o = Oracle(h)
    for w in words_upto(5):
        assert nfa_accepts(pl.checker, w) == (o.dom(h, w)
                                              and not o.udom(h, w)), w


def test_acceptor_is_exact_complement():
    h = mk('((a -> "") * . (b -> "")) + ((a -> "") . (b -> "") *)')
    pl = build_pipeline(h, SIGMA)
    assert pl.acceptor.accepts("aab")
    assert not pl.acceptor.accepts("ab")
    for w in words_upto(6):
        assert pl.acceptor.accepts(w) != nfa_accepts(pl.checker, w), w


def test_acceptor_accepts_outside_domain():
    h = mk('(a -> "c")')
    pl = build_pipeline(h, SIGMA)
    assert pl.acceptor.accepts("bbb")
    assert pl.acceptor.accepts("")


def _sum_text(regexes):
    return " + ".join('(%s -> "%s")' % (r, "cd"[i % 2])
                      for (i, r) in enumerate(regexes, 1))


def _compile_heavy():
    """The compile-heavy benchmark's expressions, labeled, with sigma."""
    prefix = ["a" * i + "(a+b)*" for i in range(1, 61)]
    two_sided = ["a" * i + "b(a+b)*" if i % 2 else "(a+b)*b" + "a" * i
                 for i in range(1, 31)]
    texts = [_sum_text(prefix[:40]), _sum_text(prefix), _sum_text(two_sided),
             LONG_CASES[2][0]]
    return ([(mk(t), SIGMA) for t in texts]
            + [(label_occurrences(cn_expression(4)), cn_alphabet(4))])


def test_acceptor_matches_the_determinized_checker():
    # the complement of the determinized checker B is the reference for
    # the acceptor's language, and its minimization for the acceptor's size
    cases = [(label_occurrences(e), SIGMA) for e in generate(200)]
    for (h, sigma) in cases + _compile_heavy():
        pl = build_pipeline(h, sigma)
        old = complement_dfa(determinize(pl.checker))
        differ = dfa_product(old, pl.acceptor, lambda x, y: x != y)
        assert not differ.finals, pretty(h)
        assert minimize_dfa(old).n_states == pl.acceptor.n_states, pretty(h)


def test_uniformizer_deterministic_member():
    h = mk('(a -> "c") + (a -> "d")')
    o = Oracle(h)
    u = uniformize_parser(build_parser(h, SIGMA))
    first = u.parse("a")
    assert first in o.parsings(h, "a").items
    # the first co-reachable transition in construction order enters the
    # left summand
    assert render_word(first) == "(1 (2 a )2 )1"
    for _ in range(5):
        assert u.parse("a") == first
    assert u.parse("b") is None


def test_uniformizer_singleton_case():
    h = mk('a*b -> "x"')
    o = Oracle(h)
    u = uniformize_parser(build_parser(h, SIGMA))
    for w in ["b", "ab", "aab"]:
        assert u.parse(w) == next(iter(o.parsings(h, w).items))


def test_uniformizer_domain_and_membership():
    corpus = generate(40, seed=41)
    for e in corpus[:30]:
        h = label_occurrences(e)
        o = Oracle(h)
        u = uniformize_parser(build_parser(h, SIGMA))
        for w in words_upto(4):
            al = u.parse(w)
            assert (al is not None) == o.dom(h, w), (e, w)
            if al is not None:
                exp = o.parsings(h, w)
                assert exp.truncated or al in exp.items, (e, w)


def test_uniformizer_with_epsilon_cycles():
    h = mk('(@ -> "x")*')
    u = uniformize_parser(build_parser(h, SIGMA))
    assert u.parse("") is not None
    assert u.parse("a") is None
    # a pumpable epsilon cycle gives infinitely many parsings, so the walk
    # finds no unique one where the acceptor rejects
    assert u.unique("") is None
    for text in ('(@ -> "x")*', '(@ -> "" + (a -> "c"))*'):
        h = mk(text)
        o = Oracle(h)
        pl = build_pipeline(h, SIGMA)
        u = pl.uniformizer
        for w in words_upto(4):
            if pl.acceptor.accepts(w):
                assert u.unique(w) == u.parse(w), (text, w)
            else:
                assert u.unique(w) is None, (text, w)
            assert pl.run_unambiguous(w) == o.usem(h, w), (text, w)


def test_unique_refuses_a_set_that_can_stop_and_go_on():
    # built parsers enter the final state only on the root's closing
    # parenthesis, so this case needs a hand-made transducer: on the empty
    # word, "(" stops in state 1 and "( )" goes on through state 2
    from rtec.machines import OneWayTransducer
    op, cl = (1, 1, ()), (2, 1, ())
    t = OneWayTransducer(3, 0, frozenset({1}),
                         [(0, None, (op,), 1), (0, None, (op,), 2),
                          (2, None, (cl,), 1)], frozenset())
    u = uniformize_parser(t)
    assert u.parse("") in {(op,), (op, cl)}
    assert u.unique("") is None
    assert enumerate_outputs(t, "").outputs == {(op,), (op, cl)}


def test_build_pipeline_leaves_checker_and_acceptor_for_first_use(
        monkeypatch):
    calls = []
    real_checker = pipeline.build_functionality_checker
    real_determinize = pipeline.determinize

    def checker(*args):
        calls.append("checker")
        return real_checker(*args)

    def determinize(*args):
        calls.append("determinize")
        return real_determinize(*args)

    monkeypatch.setattr(pipeline, "build_functionality_checker", checker)
    monkeypatch.setattr(pipeline, "determinize", determinize)
    h = mk('(a -> "c") + (a -> "d") + (b -> "c")')
    pl = build_pipeline(h, SIGMA)
    assert pl.run_unambiguous("a") is None
    assert pl.run_unambiguous("b") == "c"
    assert calls == []
    # the acceptor comes from the domain automata, one DFA per base regex
    assert not pl.acceptor.accepts("a") and pl.acceptor.accepts("b")
    assert calls == ["determinize"] * 3
    assert pl.checker is pl.checker
    assert calls == ["determinize"] * 3 + ["checker"]


def test_walker_memos_stay_under_their_cap(monkeypatch):
    # unambiguous and relational calls share the parser's walker, so they
    # fill and empty the same memos
    cap = 12
    monkeypatch.setattr(machines, "COREACH_MEMO_STATES", cap)
    cleared = segments_cleared = 0
    for e in generate(40, seed=44)[:20]:
        h = label_occurrences(e)
        o = Oracle(h)
        pl = build_pipeline(h, SIGMA)
        walker = pl.parser.walker
        for w in words_upto(5):
            before = len(walker.coreach_sets)
            segments_before = len(walker.segments)
            assert pl.run_unambiguous(w) == o.usem(h, w), (pretty(e), w)
            if len(walker.coreach_sets) < before:
                # segment keys hold co-reach sets, so they went with them:
                # what is left is at most this word's walk, one per position
                assert len(walker.segments) <= len(w) + 1, (pretty(e), w)
            cleared += len(walker.coreach_sets) < before
            segments_cleared += len(walker.segments) < segments_before
            got = enumerate_outputs(pl.parser, w)
            exp = o.parsings(h, w)
            if not (got.truncated or exp.truncated):
                assert got.outputs == exp.items, (pretty(e), w)
            held = sum(map(len, walker.coreach_sets.values())) + sum(
                map(len, walker.forward_sets.values()))
            assert held == walker.held <= cap, (pretty(e), w)
            assert len(walker.segments) <= cap, (pretty(e), w)
    assert cleared and segments_cleared
    # long words take blocks: under a cap that a co-reach set of these
    # parsers fits in, both block memos fill, stay at or below it and start
    # over with the others, and the values stay exact
    cap = 60
    monkeypatch.setattr(machines, "COREACH_MEMO_STATES", cap)
    rng = random.Random(23)
    sets_held = blocks_cleared = 0
    for text, value in LONG_CASES:
        pl = build_pipeline(mk(text), SIGMA)
        walker = pl.parser.walker
        for n in (machines.SWEEP_MIN_TAPE, 300, 301, 700):
            w = "".join(rng.choice("ab") for _ in range(n - 1)) + "b"
            before = len(walker.block_steps)
            assert pl.run_unambiguous(w) == value(w), (text, n)
            blocks_cleared += len(walker.block_steps) < before
            sets_held += len(walker.block_sets) > 0
            assert len(walker.block_sets) <= cap, (text, n)
            assert len(walker.block_steps) <= cap, (text, n)
        assert walker.block_steps
        walker._forget()
        assert walker.block_sets == {} == walker.block_steps
    assert sets_held and blocks_cleared


def test_short_words_take_no_block():
    # one unambiguous and one relational pass over the acceptance corpus,
    # all words up to length 6, stay below the block gate and fill no
    # block memo
    (words, segments) = (words_upto(6), 0)
    assert len(words) == 127
    for e in generate():
        pl = build_pipeline(label_occurrences(e), SIGMA)
        for w in words:
            pl.run_unambiguous(w)
            pl.run_relational(w)
        walker = pl.uniformizer.walker
        segments += len(walker.segments)
        assert walker.block_sets == {} == walker.block_steps, pretty(e)
    assert segments > 1000


def test_walks_share_block_memos():
    # on a long word the walks for all outputs and for the only one fill
    # the same block entries, and after the one the other adds none
    rng = random.Random(24)
    for text, value in LONG_CASES:
        pl = build_pipeline(mk(text), SIGMA)
        walker = pl.parser.walker
        for n in (machines.SWEEP_MIN_TAPE, 1000, 1003):
            w = "".join(rng.choice("ab") for _ in range(n - 1)) + "b"
            walker._forget()
            got = enumerate_outputs(pl.parser, w)
            memos = (dict(walker.block_sets), dict(walker.block_steps))
            assert memos[1], (text, n)
            walker._forget()
            assert pl.run_unambiguous(w) == value(w), (text, n)
            assert (walker.block_sets, walker.block_steps) == memos
            assert enumerate_outputs(pl.parser, w) == got, (text, n)
            assert (walker.block_sets, walker.block_steps) == memos
            assert pl.run_relational(w) == ({value(w)}, False), (text, n)


def test_walks_share_segment_memos(monkeypatch):
    # one pass of the walk for the only output, then one of the walk for
    # all, over the acceptance corpus works out each segment once, in
    # full: the second walk finds every segment the first met.  The inner
    # re-walk with epsilon runs is part of the call that makes it
    segment = machines.SegmentWalk._segment
    calls = {}

    def counted(self, node, here, there, a, *args, **kwargs):
        if not kwargs.get("runs"):
            key = (self, node, there, a)
            calls[key] = calls.get(key, 0) + 1
        return segment(self, node, here, there, a, *args, **kwargs)

    monkeypatch.setattr(machines.SegmentWalk, "_segment", counted)
    words = words_upto(6)
    assert len(words) == 127
    for e in generate():
        pl = build_pipeline(label_occurrences(e), SIGMA)
        for w in words:
            pl.run_unambiguous(w)
        for w in words:
            pl.run_relational(w)
    twice = [key[1:] for (key, n) in calls.items() if n > 1]
    assert twice == [] and len(calls) > 2000, (len(twice), len(calls))


def test_shared_walker_matches_fresh_parsers():
    # memos kept across words and across both semantics give what a
    # parser built afresh for each call gives
    rng = random.Random(3)
    for e in generate(40, seed=42)[:25]:
        h = label_occurrences(e)
        shared = uniformize_parser(build_parser(h, SIGMA))
        calls = [(w, rel) for w in words_upto(4) for rel in (False, True)]
        rng.shuffle(calls)
        for (w, rel) in calls:
            fresh = build_parser(h, SIGMA)
            if rel:
                got = enumerate_outputs(shared.parser, w)
                exp = enumerate_outputs(fresh, w)
                assert (got.outputs, got.truncated) == (
                    exp.outputs, exp.truncated), (pretty(e), w)
            else:
                assert shared.unique(w) == uniformize_parser(
                    fresh).unique(w), (pretty(e), w)


def test_unique_on_long_words():
    rng = random.Random(13)
    for text, value in LONG_CASES:
        pl = build_pipeline(mk(text), SIGMA)
        u = pl.uniformizer
        for last in "abab":
            w = "".join(rng.choice("ab") for _ in range(1999)) + last
            assert pl.run_unambiguous(w) == value(w), (text, last)
            assert u.unique(w) == u.parse(w), (text, last)


def test_unique_is_the_selected_parsing_where_defined():
    defined = 0
    for e in generate():
        u = build_pipeline(label_occurrences(e), SIGMA).uniformizer
        for w in words_upto(5):
            al = u.unique(w)
            if al is not None:
                assert al == u.parse(w), (pretty(e), w)
                defined += 1
    assert defined


def test_run_unambiguous_examples():
    d = mk("dup{#}")
    assert build_pipeline(d, SIGMA).run_unambiguous("ab") == "ab#ab"
    s = mk('(a -> "c") + (a -> "d")')
    assert build_pipeline(s, SIGMA).run_unambiguous("a") is None
    m = mk('((a -> "c") . (b -> "d")) odot dup{#}')
    assert build_pipeline(m, SIGMA).run_unambiguous("ab") == "cdab#ab"


def test_run_unambiguous_differential():
    corpus = generate(40, seed=42)
    for e in corpus[:25]:
        h = label_occurrences(e)
        o = Oracle(h)
        pl = build_pipeline(h, SIGMA)
        for w in words_upto(4):
            assert pl.run_unambiguous(w) == o.usem(h, w), (e, w)


def test_dom_udom_dfas():
    corpus = generate(40, seed=43)
    for e in corpus[:25]:
        h = label_occurrences(e)
        o = Oracle(h)
        (dd, ud) = domain_dfas(h, SIGMA)
        for w in words_upto(4):
            assert dd.accepts(w) == o.dom(h, w), (e, w)
            assert ud.accepts(w) == o.udom(h, w), (e, w)


def test_domain_dfas_one_pass(monkeypatch):
    # each base leaf is compiled once, for dom and udom together
    terms = 60
    h = mk(" + ".join('(%s(a+b)* -> "%s")' % ("a" * i, "cd"[i % 2])
                      for i in range(1, terms + 1)))
    calls = []
    real = pipeline.glushkov

    def counting(regex, sigma):
        calls.append(regex)
        return real(regex, sigma)

    monkeypatch.setattr(pipeline, "glushkov", counting)
    (dd, ud) = domain_dfas(h, SIGMA)
    assert len(calls) == terms
    assert dd.accepts("ab") and not dd.accepts("b")
    # a^i (a+b)* is nested in a^j (a+b)* for j < i: only "a" followed by b
    # has one parsing
    assert ud.accepts("ab") and not ud.accepts("aab")


def _base_regex_dfas(count):
    # distinct minimal DFAs of the corpus's base regexes, in corpus order
    found = {}
    todo = list(reversed(generate(200)))
    while todo and len(found) < count:
        e = todo.pop()
        if e.kind == BASE:
            d = minimize_dfa(determinize(glushkov(e.regex, SIGMA)))
            found.setdefault(json.dumps(to_json_dict(d)), d)
        todo.extend(reversed(list(children(e))))
    return list(found.values())


def test_ambiguity_automata_against_splits():
    dfas = _base_regex_dfas(20)
    assert len(dfas) == 20
    words = words_upto(7)
    # ins[i][w]: the cut points of w with w[:cut] in L(dfas[i]);
    # outs[i][w]: those with w[cut:] in it
    ins = [{w: {j for j in range(len(w) + 1) if d.accepts(w[:j])}
            for w in words} for d in dfas]
    outs = [{w: {j for j in range(len(w) + 1) if d.accepts(w[j:])}
             for w in words} for d in dfas]
    (starred, found, in_star) = (0, 0, 0)
    for (i, d) in enumerate(dfas):
        kleene = pipeline._star_dfa(d)
        amb = None if d.accepts("") else pipeline._ambiguous_star_dfa(d)
        starred += amb is not None
        for w in words:
            # factorizations of each prefix into nonempty factors, up to 2
            ways = [1]
            for j in range(1, len(w) + 1):
                ways.append(min(2, sum(ways[k] for k in range(j)
                                       if d.accepts(w[k:j]))))
            assert kleene.accepts(w) == (ways[-1] > 0), (i, w)
            in_star += ways[-1] > 0
            if amb is not None:
                assert amb.accepts(w) == (ways[-1] == 2), (i, w)
                found += ways[-1] == 2
    # both answers occur
    assert starred >= 10 and found and 0 < in_star < len(dfas) * len(words)
    (found, in_cat) = (0, 0)
    for (i, df) in enumerate(dfas):
        for (k, dg) in enumerate(dfas):
            cat = pipeline._cat_dfa(df, dg)
            amb = pipeline._ambiguous_split_dfa(df, dg)
            for w in words:
                # some cut x with w[:x] in L(df) and w[x:] in L(dg)
                assert cat.accepts(w) == bool(ins[i][w] & outs[k][w]), \
                    (i, k, w)
                in_cat += bool(ins[i][w] & outs[k][w])
                # u = w[:x], v = w[x:y] nonempty, w = w[y:]
                want = any(x in ins[i][w] and y in ins[i][w]
                           and x in outs[k][w] and y in outs[k][w]
                           for y in range(len(w) + 1) for x in range(y))
                assert amb.accepts(w) == want, (i, k, w)
                found += want
    assert found and 0 < in_cat < len(dfas) ** 2 * len(words)


@settings(deadline=None, max_examples=200, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       depth=st.integers(0, corpus.MAX_DEPTH - 1), wrap=st.booleans())
def test_domain_dfas_match_oracle(seed, depth, wrap):
    # a wrapped draw stars a body with the empty word in its domain, the
    # branch where udom is empty
    e = corpus._random_expr(random.Random(seed), depth)
    assume(corpus.acceptable(e))
    if wrap:
        e = star(esum(e, base(r_eps(), "x")))
    h = label_occurrences(e)
    o = Oracle(h)
    (dd, ud) = domain_dfas(h, corpus.SIGMA)
    acceptor = build_unambiguity_acceptor(dd, ud)
    checker = pipeline.build_functionality_checker(
        build_parser(h, corpus.SIGMA), corpus.SIGMA)
    for w in words_upto(5, corpus.SIGMA):
        assert dd.accepts(w) == o.dom(h, w), (pretty(e), w)
        assert ud.accepts(w) == o.udom(h, w), (pretty(e), w)
        # at most one parsing
        assert acceptor.accepts(w) == (o.udom(h, w) or not o.dom(h, w)), \
            (pretty(e), w)
        # two parsings or more
        assert nfa_accepts(checker, w) == (o.dom(h, w)
                                           and not o.udom(h, w)), \
            (pretty(e), w)


def test_bound_report():
    h = mk('(a*b -> "x") odot (ab* -> "y")')
    rep = check_size_bounds(h, SIGMA)
    assert rep.ok
    assert rep.checker_states == 2 * rep.parser_states ** 2
    names = [n for (n, *_rest) in rep.entries]
    assert "parser <= bound" in names and "evaluator <= bound" in names


def test_bound_report_catches_corruption():
    h = mk('(a -> "c") . (b -> "d")')
    pl = build_pipeline(h, SIGMA)
    pl.parser.n_states += 1  # corrupt the machine
    rep = check_size_bounds(h, SIGMA, pl)
    assert not rep.ok


def test_macro_step_table():
    h = mk('(a -> "c") + (a -> "d")')
    p = build_parser(h, SIGMA)
    t = MacroStepTable(p)
    (same, diff) = t.targets(p.initial, p.initial, letter("a"))
    # each side reads a in one of the two branches: with identical
    # parentheses both take the same one, with differing outputs distinct ones
    assert all(d1 == d2 for (d1, d2) in same)
    assert all(d1 != d2 for (d1, d2) in diff)
    assert not same & diff
    branches = {d for (d, _d) in same}
    assert len(branches) == 2
    assert {d for pair in diff for d in pair} == branches
    # -| is the last letter: the step on it parts the two parsings of the
    # empty word, and there is nothing to part with one parsing
    for (text, parted) in (('(@ -> "c") + (@ -> "d")', True),
                           ('(@ -> "c")', False)):
        p = build_parser(mk(text), SIGMA)
        t = MacroStepTable(p)
        (same, diff) = t.targets(p.initial, p.initial, RIGHT_END)
        assert bool(diff) == parted, text
        # both sides reach the final state after the same parentheses
        assert same == {(t.final, t.final)}, text


def test_checker_walks_the_epsilon_moves_once_per_letter(monkeypatch):
    # a chain of stars: every state's epsilon closure spans the chain
    h = mk('(a -> "x")' + "*" * 200)
    parser = build_parser(h, SIGMA)
    passes = []
    real = MoveIndex.eps_components

    def counting(index):
        passes.append(index)
        return real(index)

    monkeypatch.setattr(MoveIndex, "eps_components", counting)
    monkeypatch.setattr(MoveIndex, "closure", None)
    checker = pipeline.build_functionality_checker(parser, SIGMA)
    assert len(passes) <= len(SIGMA)
    monkeypatch.undo()
    # two parsings or more: in the domain, but no unique one
    u = uniformize_parser(parser)
    for w in words_upto(3):
        assert nfa_accepts(checker, w) == (
            u.parse(w) is not None and u.unique(w) is None), w


def test_checker_listing_does_not_follow_set_layout(monkeypatch):
    # on these expressions the checker's moves came out in another order
    # when its synchronized closures were grown as sets pair by pair than
    # when frozen from the discovery list
    exprs = generate()
    hs = [label_occurrences(exprs[143]), label_occurrences(exprs[195]),
          mk(" + ".join('(%s(a+b)* -> "%s")' % ("a" * i, "cd"[i % 2])
                        for i in range(1, 11)))]

    def frozen(table, p, q):
        return frozenset(machines.explore((p, q), table._sync_moves)[0])

    def grown(table, p, q):
        pairs = set()
        for pair in machines.explore((p, q), table._sync_moves)[0]:
            pairs.add(pair)
        return frozenset(pairs)

    for h in hs:
        parser = build_parser(h, SIGMA)
        dumps = []
        for closure in (MacroStepTable.sync_closure, frozen, grown):
            monkeypatch.setattr(MacroStepTable, "sync_closure", closure)
            dumps.append(to_json_dict(
                pipeline.build_functionality_checker(parser, SIGMA)))
            monkeypatch.undo()
        assert dumps[0] == dumps[1] == dumps[2], pretty(h)


def test_corrupted_parser_detected_by_differential():
    h = mk('(a -> "c") . (b -> "d")')
    o = Oracle(h)
    p = build_parser(h, SIGMA)
    p.transitions.pop()  # drop one transition
    bad = [w for w in words_upto(3)
           if enumerate_outputs(p, w).outputs != o.parsings(h, w).items]
    assert bad


def test_cn_family_small():
    for n in (2, 3):
        sigma = cn_alphabet(n)
        h = label_occurrences(cn_expression(n))
        u = cn_word(n)
        (dd, ud) = domain_dfas(h, sigma)
        assert dd.accepts(u) and ud.accepts(u)
        assert minimize_dfa(dd).n_states >= 2 ** n
        rng = random.Random(3)
        for _ in range(60):
            w = "".join(rng.choice(sigma)
                        for _ in range(rng.randrange(0, len(u) + 2)))
            assert dd.accepts(w) == (w == u)
            assert ud.accepts(w) == (w == u)


def test_cn_materialized_pipeline_matches_gate():
    # the checker route builds at these n; the per-word walk, the udom DFA
    # and the acceptor with the uniformizer agree on the gate
    for n in (2, 4, 6):
        sigma = cn_alphabet(n)
        h = label_occurrences(cn_expression(n))
        pl = build_pipeline(h, sigma)
        u = pl.uniformizer
        ud = domain_dfas(h, sigma)[1]
        rng = random.Random(4)
        words = {cn_word(n)} | {"".join(rng.choice(sigma) for _ in range(m))
                                for m in range(7) for _ in range(12)}
        for w in words:
            gate = u.unique(w) is not None
            assert gate == ud.accepts(w), (n, w)
            assert gate == (pl.acceptor.accepts(w)
                            and u.parse(w) is not None), (n, w)
            assert pl.run_unambiguous(w) == ("" if w == cn_word(n)
                                             else None), (n, w)


def test_relational_values_on_truncated_words():
    # criterion 2 skips words whose enumeration is cut at an epsilon cycle,
    # but the values over the bracketings found must still be the oracle's
    for text in ('(@ -> "x")*', '(@ -> "" + (a -> "c"))*'):
        h = mk(text)
        o = Oracle(h)
        pl = build_pipeline(h, SIGMA)
        for w in words_upto(4):
            got = set()
            for al in enumerate_outputs(pl.parser, w).outputs:
                res = run_two_way(pl.evaluator, al)
                assert res.status == "accept", (text, w)
                got.add(res.output)
            assert got == o.rsem(h, w).items, (text, w)


@settings(deadline=timedelta(milliseconds=500), max_examples=150,
          database=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       depth=st.integers(0, corpus.MAX_DEPTH - 1))
def test_evaluator_and_unambiguous_match_oracle(seed, depth):
    # the relational values through the evaluator, and the unambiguous
    # value through the per-word walk and the evaluator, against the oracle
    e = corpus._random_expr(random.Random(seed), depth)
    assume(corpus.acceptable(e))
    h = label_occurrences(e)
    o = Oracle(h)
    pl = build_pipeline(h, corpus.SIGMA)
    for w in words_upto(4, corpus.SIGMA):
        parsed = enumerate_outputs(pl.parser, w)
        exp = o.rsem(h, w)
        if not (parsed.truncated or exp.truncated):
            got = set()
            for al in parsed.outputs:
                res = run_two_way(pl.evaluator, al)
                assert res.status == "accept", (pretty(e), w)
                got.add(res.output)
            assert got == exp.items, (pretty(e), w)
        try:
            want = o.usem(h, w)
        except OracleLimitError:
            continue
        assert pl.run_unambiguous(w) == want, (pretty(e), w)


def test_run_unambiguous_internal_error_on_corrupt_evaluator():
    import pytest
    h = mk('(a -> "c") . (b -> "d")')
    pl = build_pipeline(h, SIGMA)
    key = next(k for k in pl.evaluator.delta
               if k[1][0] == 0)  # drop a letter transition
    del pl.evaluator.delta[key]
    with pytest.raises(RuntimeError):
        pl.run_unambiguous("ab")
