"""Compile a labeled expression into its one-way nondeterministic parser.

Every parser has a unique initial state without incoming transitions and a
unique final state without outgoing ones; each transition either copies an
input letter to the output or reads nothing and emits a single parenthesis.
State counts follow the per-combinator construction exactly: base nl(e)+3,
sum |f|+|g|, products 1+|f|+|g|, stars 1+|f|, basic functions 3, Hadamard
2*|f|*|g|+2, chained star k^2(nl+1)(|f|+1)^k + (k-1)(nl+1) + 2 (one more for
k = 1, where the short-word branch still needs its single state).
"""

from __future__ import annotations

from .expr import (BASE, CAUCHY, CAUCHY_REV, DUP, HADAMARD, KSTAR, KSTAR_REV,
                   REV, STAR, STAR_REV, SUM, LabeledExpr, nl)
from .glushkov import glushkov
from .machines import MoveIndex, OneWayTransducer
from .symbols import CLOSE, OPEN, SEP, lclose, letter, lopen, sep


class _Builder:
    def __init__(self):
        self.n = 0
        self.transitions = []

    def state(self) -> int:
        s = self.n
        self.n += 1
        return s

    def states(self, count: int) -> list:
        return [self.state() for _ in range(count)]

    def add(self, src, insym, outsym, dst):
        self.transitions.append((src, insym, (outsym,), dst))

    def embed(self, sub: OneWayTransducer, merge: dict) -> dict:
        """Copy a sub-parser, identifying the states in `merge` with existing
        ones and allocating fresh ids for the rest; returns the state map."""
        m = dict(merge)
        for s in range(sub.n_states):
            if s not in m:
                m[s] = self.state()
        for (src, a, out, dst) in sub.transitions:
            self.transitions.append((m[src], a, out, m[dst]))
        return m

    def done(self, initial, final, sigma) -> OneWayTransducer:
        return OneWayTransducer(self.n, initial, frozenset({final}),
                                self.transitions,
                                frozenset(letter(c) for c in sigma))


def build_parser(h: LabeledExpr, sigma: str) -> OneWayTransducer:
    if h.kind == BASE:
        return _parser_base(h, sigma)
    if h.kind == SUM:
        return _parser_sum(h, sigma)
    if h.kind in (CAUCHY, CAUCHY_REV):
        return _parser_cauchy(h, sigma)
    if h.kind in (STAR, STAR_REV):
        return _parser_star(h, sigma)
    if h.kind in (DUP, REV):
        return _parser_basefun(h, sigma)
    if h.kind == HADAMARD:
        return _parser_hadamard(h, sigma)
    if h.kind in (KSTAR, KSTAR_REV):
        return _parser_kstar(h, sigma)
    raise ValueError(h.kind)


def _parser_base(h: LabeledExpr, sigma: str) -> OneWayTransducer:
    e_nfa = glushkov(h.regex, sigma)
    b = _Builder()
    q0 = b.state()
    qf = b.state()
    base_of = {s: b.state() for s in range(e_nfa.n_states)}
    b.add(q0, None, lopen(h.occ), base_of[e_nfa.initial])
    for (src, a, dst) in e_nfa.transitions:
        b.add(base_of[src], a, a, base_of[dst])
    for s in e_nfa.finals:
        b.add(base_of[s], None, lclose(h.occ), qf)
    return b.done(q0, qf, sigma)


def _parser_basefun(h: LabeledExpr, sigma: str) -> OneWayTransducer:
    b = _Builder()
    q0, mid, qf = b.states(3)
    b.add(q0, None, lopen(h.occ), mid)
    for c in sigma:
        b.add(mid, letter(c), letter(c), mid)
    b.add(mid, None, lclose(h.occ), qf)
    return b.done(q0, qf, sigma)


def _parser_sum(h: LabeledExpr, sigma: str) -> OneWayTransducer:
    pf = build_parser(h.left, sigma)
    pg = build_parser(h.right, sigma)
    b = _Builder()
    q0, junc_in, junc_out, qf = b.states(4)
    b.add(q0, None, lopen(h.occ), junc_in)
    mf = b.embed(pf, {pf.initial: junc_in, next(iter(pf.finals)): junc_out})
    b.embed(pg, {pg.initial: junc_in, next(iter(pg.finals)): junc_out})
    b.add(junc_out, None, lclose(h.occ), qf)
    return b.done(q0, qf, sigma)


def _parser_cauchy(h: LabeledExpr, sigma: str) -> OneWayTransducer:
    pf = build_parser(h.left, sigma)
    pg = build_parser(h.right, sigma)
    b = _Builder()
    q0, qf = b.states(2)
    mf = b.embed(pf, {})
    b.add(q0, None, lopen(h.occ), mf[pf.initial])
    mg = b.embed(pg, {pg.initial: mf[next(iter(pf.finals))]})
    b.add(mg[next(iter(pg.finals))], None, lclose(h.occ), qf)
    return b.done(q0, qf, sigma)


def _parser_star(h: LabeledExpr, sigma: str) -> OneWayTransducer:
    pf = build_parser(h.left, sigma)
    b = _Builder()
    q0, junc, qf = b.states(3)
    b.add(q0, None, lopen(h.occ), junc)
    b.add(junc, None, lclose(h.occ), qf)
    b.embed(pf, {pf.initial: junc, next(iter(pf.finals)): junc})
    return b.done(q0, qf, sigma)


def _parser_hadamard(h: LabeledExpr, sigma: str) -> OneWayTransducer:
    pf = build_parser(h.left, sigma)
    pg = build_parser(h.right, sigma)
    b = _Builder()
    q0, qf = b.states(2)
    idx = {}
    for s in range(pf.n_states):
        for t in range(pg.n_states):
            for bit in (0, 1):
                idx[(s, t, bit)] = b.state()
    fi, gi = MoveIndex(pf.transitions), MoveIndex(pg.transitions)
    alphabet = [letter(c) for c in sigma]
    for s in range(pf.n_states):
        for t in range(pg.n_states):
            for bit in (0, 1):
                src = idx[(s, t, bit)]
                if bit == 0:
                    for (_s, _a, out, s2) in fi.eps.get(s, ()):
                        b.add(src, None, out[0], idx[(s2, t, 0)])
                for (_t, _a, out, t2) in gi.eps.get(t, ()):
                    b.add(src, None, out[0], idx[(s, t2, 1)])
                for a in alphabet:
                    for (_s, _a, _o, s2) in fi.letter.get((s, a), ()):
                        for (_t, _a, _o, t2) in gi.letter.get((t, a), ()):
                            b.add(src, a, a, idx[(s2, t2, 0)])
    b.add(q0, None, lopen(h.occ),
          idx[(pf.initial, pg.initial, 0)])
    b.add(idx[(next(iter(pf.finals)), next(iter(pg.finals)), 1)],
          None, lclose(h.occ), qf)
    return b.done(q0, qf, sigma)


def _mod(x: int, k: int) -> int:
    """Index arithmetic in 1..k: multiples of k map to k, never 0."""
    return (x - 1) % k + 1


def _parser_kstar(h: LabeledExpr, sigma: str) -> OneWayTransducer:
    """Union of the generic branch (>= k blocks, the big product machine) and
    the short-word branch counting fewer than k factors."""
    k = h.k
    pf = build_parser(h.left, sigma)
    ae = glushkov(h.regex, sigma)
    qf_f = next(iter(pf.finals))
    fi, ae_moves = MoveIndex(pf.transitions), MoveIndex(ae.transitions)
    alphabet = [letter(c) for c in sigma]

    b = _Builder()
    q0, qf = b.states(2)
    bot = pf.n_states  # the idle component value
    comp_vals = list(range(pf.n_states)) + [bot]

    idx = {}
    for i in range(1, k + 1):
        for q in range(ae.n_states):
            for j in range(1, k + 1):
                _alloc_tuples(b, idx, i, q, j, comp_vals, k)

    def rank(i, l):
        # position of component l in the order <=_i (i+1 mod k least, i greatest)
        return (l - i - 1) % k

    def tag(s, i):
        # output symbol of component i: parenthesis indexed by i
        return (s[0], s[1], s[2] + (i,))

    for (i, q, comps, j), src in idx.items():
        m = _mod(i + 1, k)
        # case 1: synchronized letter step
        for a in alphabet:
            for (_q, _a, q2) in ae_moves.letter.get((q, a), ()):
                _letter_moves(b, idx, src, i, q2, comps, a, fi, bot, m, k)
        # case 2: a component emits an inner parenthesis
        for l in range(1, k + 1):
            ql = comps[l - 1]
            if ql == bot or comps[m - 1] == qf_f:
                continue
            if not (rank(i, j) <= rank(i, l)):
                continue
            for (_ql, _a, out, q2) in fi.eps.get(ql, ()):
                if q2 == qf_f:
                    continue
                nc = comps[:l - 1] + (q2,) + comps[l:]
                b.add(src, None, tag(out[0], l), idx[(i, q, nc, l)])
        if q in ae.finals and comps[i - 1] != pf.initial:
            # case 3: close the block whose index is m
            qm = comps[m - 1]
            if qm != bot:
                for (_qm, _a, out, q2) in fi.eps.get(qm, ()):
                    if q2 != qf_f:
                        continue
                    nc = comps[:m - 1] + (qf_f,) + comps[m:]
                    b.add(src, None, tag(out[0], m), idx[(i, q, nc, j)])
            # case 4: factor boundary.  The construction also states a
            # not-accepting guard here; it is vacuous for k >= 2 (the forced
            # idle guess kills such runs) and would wrongly cut the k = 1
            # continuation, so it is omitted.
            if comps[m - 1] in (qf_f, bot):
                guesses = (bot,) if comps[i - 1] == bot else (bot, pf.initial)
                for g in guesses:
                    nc = comps[:m - 1] + (g,) + comps[m:]
                    b.add(src, None, sep(h.occ), idx[(m, ae.initial, nc, m)])

    init_comps = (pf.initial,) + (bot,) * (k - 1)
    gen_init = idx[(1, ae.initial, init_comps, 1)]
    b.add(q0, None, lopen(h.occ), gen_init)
    for key, s in idx.items():
        if _is_final(key[0], key[1], key[2], ae, qf_f, bot, k):
            b.add(s, None, lclose(h.occ), qf)

    # short-word branch: counts L(e) factors up to k-1; its initial state is
    # accepting so the empty factorization (n = 0) is parsed as ()
    if k == 1:
        s0 = b.state()
        b.add(q0, None, lopen(h.occ), s0)
        b.add(s0, None, lclose(h.occ), qf)
    else:
        short = {}
        for q in range(ae.n_states):
            for c in range(1, k):
                short[(q, c)] = b.state()
        for (q, c), src in short.items():
            for a in alphabet:
                for (_q, _a, q2) in ae_moves.letter.get((q, a), ()):
                    b.add(src, a, a, short[(q2, c)])
            if q in ae.finals and c + 1 < k:
                b.add(src, None, sep(h.occ), short[(ae.initial, c + 1)])
        b.add(q0, None, lopen(h.occ), short[(ae.initial, 1)])
        for (q, c), src in short.items():
            if q in ae.finals or (q, c) == (ae.initial, 1):
                b.add(src, None, lclose(h.occ), qf)
    return b.done(q0, qf, sigma)


def _alloc_tuples(b, idx, i, q, j, comp_vals, k):
    def go(prefix):
        if len(prefix) == k:
            idx[(i, q, tuple(prefix), j)] = b.state()
            return
        for v in comp_vals:
            go(prefix + [v])
    go([])


def _letter_moves(b, idx, src, i, q2, comps, a, fi, bot, m, k):
    options = []
    for ql in comps:
        if ql == bot:
            options.append([bot])
        else:
            nxt = [t[3] for t in fi.letter.get((ql, a), ())]
            if not nxt:
                return
            options.append(nxt)

    def go(pos, acc):
        if pos == k:
            b.add(src, a, a, idx[(i, q2, tuple(acc), m)])
            return
        for v in options[pos]:
            go(pos + 1, acc + [v])
    go(0, [])


def _is_final(i, q, comps, ae, qf_f, bot, k) -> bool:
    if q not in ae.finals:
        return False
    m = _mod(i + 1, k)
    if comps[m - 1] != qf_f:
        return False
    return all(comps[l] == bot for l in range(k) if l != m - 1)


# ---------------------------------------------------------------------------
# Structural invariants

def parser_invariants_ok(p: OneWayTransducer) -> bool:
    """Unique initial without incoming, unique final without outgoing, and
    letter-copy / single-parenthesis transition shapes."""
    if len(p.finals) != 1:
        return False
    final = next(iter(p.finals))
    for (src, a, out, dst) in p.transitions:
        if dst == p.initial or src == final:
            return False
        if a is None:
            if len(out) != 1 or out[0][0] not in (OPEN, CLOSE, SEP):
                return False
        else:
            if out != (a,):
                return False
    return True


def parser_size_formula(h: LabeledExpr) -> int:
    """Predicted state count of build_parser(h)."""
    if h.kind == BASE:
        return nl(h.regex) + 3
    if h.kind == SUM:
        return parser_size_formula(h.left) + parser_size_formula(h.right)
    if h.kind in (CAUCHY, CAUCHY_REV):
        return 1 + parser_size_formula(h.left) + parser_size_formula(h.right)
    if h.kind in (STAR, STAR_REV):
        return 1 + parser_size_formula(h.left)
    if h.kind in (DUP, REV):
        return 3
    if h.kind == HADAMARD:
        return 2 * parser_size_formula(h.left) * parser_size_formula(h.right) + 2
    if h.kind in (KSTAR, KSTAR_REV):
        k, ne = h.k, nl(h.regex)
        npf = parser_size_formula(h.left)
        short = (k - 1) * (ne + 1) if k > 1 else 1
        return k * k * (ne + 1) * (npf + 1) ** k + short + 2
    raise ValueError(h.kind)
