"""Acceptance suite.

Each criterion runs at its stated tolerance and prints one PASS/FAIL line
(visible with pytest -s).  The heavy differential pass over the generated
corpus is shared by the criteria that consume it.
"""

import random
import time

import pytest

from rtec.corpus import cn_alphabet, cn_expression, cn_word, generate
from rtec.expr import (cauchy, label_occurrences, pretty, size, unlabel,
                       uses_hadamard_or_kstar, uses_kstar, width)
from rtec.machines import (audit_trace, enumerate_outputs, is_reversible,
                           minimize_dfa, nfa_accepts, run_two_way)
from rtec.oracle import Oracle, check_kstar_conditions
from rtec.evaluator_build import build_evaluator, evaluator_size_formula
from rtec.parser_build import (build_parser, parser_invariants_ok,
                               parser_size_formula)
from rtec.pipeline import build_pipeline, check_size_bounds, domain_dfas
from rtec.symbols import is_letter, render_word

from conftest import SIGMA, mk, words_upto

WORDS6 = words_upto(6)


def _report(num, ok, detail):
    print("\n%s criterion %d: %s" % ("PASS" if ok else "FAIL", num, detail))
    assert ok, "criterion %d: %s" % (num, detail)


# ---------------------------------------------------------------------------
# Criterion 1: worked-example fidelity, byte-exact, under a second

def test_criterion_1_worked_examples():
    t0 = time.time()
    h = mk('((a -> "") * . (b -> "")) + ((a -> "") . (b -> "") *)')
    o = Oracle(h)
    p = build_parser(h, SIGMA)

    def both(word):
        got = enumerate_outputs(p, word)
        exp = o.parsings(h, word)
        assert got.outputs == exp.items
        return {render_word(x) for x in got.outputs}

    ok = both("aab") == {"(1 (2 (3 (4 a )4 (4 a )4 )3 (5 b )5 )2 )1"}
    ok &= both("ab") == {
        "(1 (2 (3 (4 a )4 )3 (5 b )5 )2 )1",
        "(1 (6 (7 a )7 (8 (9 b )9 )8 )6 )1",
    }
    h6 = mk('((a -> "") * . (b -> "")) odot ((a -> "") . (b -> "") *)')
    o6 = Oracle(h6)
    p6 = build_parser(h6, SIGMA)
    got6 = enumerate_outputs(p6, "ab")
    exp6 = o6.parsings(h6, "ab")
    ok &= got6.outputs == exp6.items
    ok &= {render_word(x) for x in got6.outputs} == {
        "(1 (2 (3 (4 (6 (7 a )4 )3 (5 )7 (8 (9 b )5 )2 )9 )8 )6 )1"}
    dt = time.time() - t0
    ok &= dt < 1.0
    _report(1, ok, "worked parsings byte-exact in %.3fs" % dt)


# ---------------------------------------------------------------------------
# Shared corpus pass

@pytest.fixture(scope="module")
def corpus_run():
    corpus = generate(200)
    stats = {
        "n": len(corpus),
        "parse_mismatch": [],
        "rsem_mismatch": [],
        "usem_mismatch": [],
        "non_reversible": [],
        "bad_shape": [],
        "bad_runs": [],
        "bound_failures": [],
        "checker_mismatch": [],
        "acceptor_mismatch": [],
        "kstar_bad": [],
        "compared_parse": 0,
        "compared_rsem": 0,
        "skipped_truncated": 0,
        "runs_audited": 0,
    }
    for e in corpus:
        h = label_occurrences(e)
        o = Oracle(h)
        pl = build_pipeline(h, SIGMA)
        if not is_reversible(pl.evaluator):
            stats["non_reversible"].append(pretty(e))
        from rtec.evaluator_build import evaluator_shape_ok
        if not evaluator_shape_ok(pl.evaluator, h):
            stats["bad_shape"].append(pretty(e))
        if not parser_invariants_ok(pl.parser):
            stats["bad_shape"].append(pretty(e))
        rep = check_size_bounds(h, SIGMA, pl)
        if not rep.ok:
            stats["bound_failures"].append((pretty(e), rep.entries))
        is_kstar_root = h.kind in ("kstar", "kstar_rev")
        for w in WORDS6:
            parsed = enumerate_outputs(pl.parser, w)
            exp = o.parsings(h, w)
            if parsed.truncated or exp.truncated:
                stats["skipped_truncated"] += 1
            else:
                stats["compared_parse"] += 1
                if parsed.outputs != exp.items:
                    stats["parse_mismatch"].append((pretty(e), w))
                rsem = o.rsem(h, w)
                if not rsem.truncated:
                    stats["compared_rsem"] += 1
                    got = set()
                    for al in parsed.outputs:
                        res = run_two_way(pl.evaluator, al, want_trace=True)
                        if res.status != "accept" \
                                or not audit_trace(pl.evaluator, al, res.trace) \
                                or res.trace[0].boundary != 0 \
                                or res.trace[-1].boundary != len(al) + 2:
                            stats["bad_runs"].append((pretty(e), w))
                            break
                        stats["runs_audited"] += 1
                        got.add(res.output)
                    else:
                        if got != rsem.items:
                            stats["rsem_mismatch"].append((pretty(e), w))
            if pl.run_unambiguous(w) != o.usem(h, w):
                stats["usem_mismatch"].append((pretty(e), w))
            multi = o.dom(h, w) and not o.udom(h, w)
            if nfa_accepts(pl.checker, w) != multi:
                stats["checker_mismatch"].append((pretty(e), w))
            if pl.acceptor.accepts(w) != (not multi):
                stats["acceptor_mismatch"].append((pretty(e), w))
            if is_kstar_root:
                for al in parsed.outputs:
                    if not check_kstar_conditions(al, h, o):
                        stats["kstar_bad"].append((pretty(e), w))
    return stats


def test_criterion_2_differential_semantics(corpus_run):
    s = corpus_run
    ok = (s["n"] >= 200 and not s["parse_mismatch"]
          and not s["rsem_mismatch"] and not s["usem_mismatch"])
    _report(2, ok,
            "%d expressions, %d parse and %d value comparisons, "
            "%d truncated skips, mismatches: %d/%d/%d"
            % (s["n"], s["compared_parse"], s["compared_rsem"],
               s["skipped_truncated"], len(s["parse_mismatch"]),
               len(s["rsem_mismatch"]), len(s["usem_mismatch"])))


def test_criterion_3_reversibility(corpus_run):
    s = corpus_run
    ok = not s["non_reversible"] and not s["bad_shape"] and not s["bad_runs"]
    _report(3, ok,
            "all evaluators reversible; %d accepting runs audited "
            "left-to-right (%d shape, %d run violations)"
            % (s["runs_audited"], len(s["bad_shape"]), len(s["bad_runs"])))


def test_criterion_4_size_bounds(corpus_run):
    s = corpus_run
    ok = not s["bound_failures"]
    _report(4, ok, "size bounds and exact per-construction counts hold on "
            "%d expressions (%d violations)"
            % (s["n"], len(s["bound_failures"])))


def test_criterion_4_per_node_counts():
    corpus = generate(200)
    rng = random.Random(17)
    checked = 0
    ok = True
    for e in rng.sample(corpus, 30):
        h = label_occurrences(e)
        stack = [h]
        while stack:
            node = stack.pop()
            p = build_parser(node, SIGMA)
            t = build_evaluator(node, SIGMA)
            ok &= p.n_states == parser_size_formula(node)
            ok &= t.n_states == evaluator_size_formula(node)
            hp = unlabel(node)
            ok &= p.n_states <= (size(hp) ** width(hp)
                                 if uses_hadamard_or_kstar(hp) else size(hp))
            ok &= t.n_states <= (5 * size(hp) * width(hp)
                                 if uses_kstar(hp) else 5 * size(hp))
            checked += 1
            stack.extend(c for c in (node.left, node.right) if c is not None)
    _report(4, ok, "per-node exact state counts on %d subexpressions"
            % checked)


def test_criterion_5_functionality_checker(corpus_run):
    s = corpus_run
    intro = mk('((((a -> "c") + (aa -> "cc")) . ((a -> "d") + (aa -> "dd")))'
               ' . ((b -> "e") + (ab -> "ee")))')
    pl = build_pipeline(intro, SIGMA)
    ok = nfa_accepts(pl.checker, "aaab") and not pl.acceptor.accepts("aaab")
    ok &= not s["checker_mismatch"] and not s["acceptor_mismatch"]
    _report(5, ok,
            "checker matches dom minus udom on corpus (%d/%d mismatches); "
            "intro counterexample aaab accepted by B"
            % (len(s["checker_mismatch"]), len(s["acceptor_mismatch"])))


def test_criterion_6_hadamard_scaling():
    t0 = time.time()
    ok = True
    details = []
    for n in range(2, 9):
        sigma = cn_alphabet(n)
        h = label_occurrences(cn_expression(n))
        u = cn_word(n)
        ok &= len(u) == 2 ** n
        (dd, gate) = domain_dfas(h, sigma)
        minimal = minimize_dfa(dd)
        ok &= minimal.n_states >= 2 ** n
        rng = random.Random(n)
        samples = {u} | {u[:i] for i in range(0, len(u), max(1, len(u) // 16))}
        for _ in range(100):
            samples.add("".join(rng.choice(sigma)
                                for _ in range(rng.randrange(0, len(u) + 2))))
        for i in range(0, len(u), max(1, len(u) // 32)):
            for c in sigma:
                if c != u[i]:
                    samples.add(u[:i] + c + u[i + 1:])
        ok &= all((w == u) == (gate.accepts(w) and dd.accepts(w))
                  for w in samples)
        details.append("n=%d minimal=%d" % (n, minimal.n_states))
    # at n = 2 the materialized checker pipeline is cross-checked too
    sigma = cn_alphabet(2)
    h2 = label_occurrences(cn_expression(2))
    pl = build_pipeline(h2, sigma)
    ok &= pl.run_unambiguous(cn_word(2)) == ""
    ok &= pl.run_unambiguous("1221") is None
    dt = time.time() - t0
    ok &= dt < 60.0
    _report(6, ok, "dom(C_n) = {u_n}, |u_n| = 2^n for n = 2..8 (%s) "
            "in %.1fs" % ("; ".join(details[-2:]), dt))


def test_criterion_7_gu_laws():
    corpus = generate(200)
    rng = random.Random(23)
    small = [e for e in corpus if size(e) <= 14]
    ok = True
    triples = 0
    for _ in range(30):
        f, g, k = rng.sample(small, 3)
        left = label_occurrences(cauchy(cauchy(f, g), k))
        right = label_occurrences(cauchy(f, cauchy(g, k)))
        ol, orr = Oracle(left), Oracle(right)
        for w in words_upto(5):
            if ol.usem(left, w) != orr.usem(right, w):
                ok = False
        triples += 1
    d = mk("dup{#}")
    pld = build_pipeline(d, SIGMA)
    r = mk("rev")
    plr = build_pipeline(r, SIGMA)
    for w in WORDS6:
        ok &= pld.run_unambiguous(w) == w + "#" + w
        ok &= plr.run_unambiguous(w) == w[::-1]
    _report(7, ok, "Cauchy gu-associativity on %d random triples; dup/rev "
            "machine semantics on all words up to length 6" % triples)


def test_criterion_8_kstar_conditions(corpus_run):
    s = corpus_run
    ok = not s["kstar_bad"]
    # dedicated short-branch shape check
    h = mk('kstar{3, a+b}((aab -> "x"))')
    o = Oracle(h)
    p = build_parser(h, SIGMA)
    for w in words_upto(2):
        for al in enumerate_outputs(p, w).outputs:
            body = al[1:-1]
            ok &= all(is_letter(x) or x[0] == 3 for x in body)
            ok &= "".join(x[1] for x in body if is_letter(x)) == w
            ok &= check_kstar_conditions(al, h, o)
    _report(8, ok, "all emitted chained-star parsings satisfy the six "
            "conditions; short branch is bare factors with separators "
            "(%d violations)" % len(s["kstar_bad"]))


def test_criterion_9_nonregular_witness():
    h = mk('((a -> "c") + (b -> ""))* + ((a -> "") + (b -> "c"))*')
    o = Oracle(h)
    ok = True
    for w in words_upto(8):
        functional = len(o.rsem(h, w).items) == 1
        ok &= functional == (w.count("a") == w.count("b"))
    _report(9, ok, "functional domain of the sum-of-stars example is exactly "
            "the equal-count words up to length 8")
