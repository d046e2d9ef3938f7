"""Compile a labeled expression into its one-way nondeterministic parser.

Every parser has a unique initial state without incoming transitions and a
unique final state without outgoing ones; each transition either copies an
input letter to the output or reads nothing and emits a single parenthesis.
State counts follow the per-combinator construction exactly: base nl(e)+3,
sum |f|+|g|, products 1+|f|+|g|, stars 1+|f|, basic functions 3, Hadamard
2*|f|*|g|+2, chained star k^2(nl+1)(|f|+1)^k + (k-1)(nl+1) + 2 (one more for
k = 1, where the short-word branch still needs its single state).

A parser is written in one pass into one builder: each sub-parser goes in
place between the entry and exit states its parent hands it.  The Hadamard
and chained-star products reserve their whole nominal block of tuple ids, so
the state counts above hold, but wire only the tuples reachable from their
initial tuple; the other ids carry no transitions.  Each source state lists
its moves in the order of the construction, which the uniformizer's choice
of the first co-reachable move reads.
"""

from __future__ import annotations

from itertools import product

from .expr import (BASE, CAUCHY, CAUCHY_REV, DUP, HADAMARD, KSTAR, KSTAR_REV,
                   REV, STAR, STAR_REV, SUM, LabeledExpr, nl)
from .glushkov import glushkov
from .machines import MoveIndex, OneWayTransducer, explore
from .symbols import (CLOSE, OPEN, SEP, lclose, letter, lopen, sep,
                      with_index)


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


def build_parser(h: LabeledExpr, sigma: str) -> OneWayTransducer:
    b = _Builder()
    q0, qf = b.states(2)
    _emit(h, sigma, b, q0, qf)
    return OneWayTransducer(b.n, q0, frozenset({qf}), b.transitions,
                            frozenset(letter(c) for c in sigma))


def _emit(h: LabeledExpr, sigma: str, b: _Builder, q_in: int, q_out: int):
    """Write h's parser into b with q_in as its initial state and q_out as
    its final state."""
    if h.kind == BASE:
        e_nfa = glushkov(h.regex, sigma)
        off = b.n
        b.n += e_nfa.n_states
        b.add(q_in, None, lopen(h.occ), off + e_nfa.initial)
        for (src, a, dst) in e_nfa.transitions:
            b.add(off + src, a, a, off + dst)
        for s in e_nfa.finals:
            b.add(off + s, None, lclose(h.occ), q_out)
    elif h.kind in (DUP, REV):
        mid = b.state()
        b.add(q_in, None, lopen(h.occ), mid)
        for c in sigma:
            b.add(mid, letter(c), letter(c), mid)
        b.add(mid, None, lclose(h.occ), q_out)
    elif h.kind == SUM:
        j_in, j_out = b.states(2)
        b.add(q_in, None, lopen(h.occ), j_in)
        _emit(h.left, sigma, b, j_in, j_out)
        _emit(h.right, sigma, b, j_in, j_out)
        b.add(j_out, None, lclose(h.occ), q_out)
    elif h.kind in (CAUCHY, CAUCHY_REV):
        f_in, mid, g_out = b.states(3)
        b.add(q_in, None, lopen(h.occ), f_in)
        _emit(h.left, sigma, b, f_in, mid)
        _emit(h.right, sigma, b, mid, g_out)
        b.add(g_out, None, lclose(h.occ), q_out)
    elif h.kind in (STAR, STAR_REV):
        junc = b.state()
        b.add(q_in, None, lopen(h.occ), junc)
        b.add(junc, None, lclose(h.occ), q_out)
        _emit(h.left, sigma, b, junc, junc)
    elif h.kind == HADAMARD:
        _emit_hadamard(h, sigma, b, q_in, q_out)
    elif h.kind in (KSTAR, KSTAR_REV):
        _emit_kstar(h, sigma, b, q_in, q_out)
    else:
        raise ValueError(h.kind)


def _emit_reachable(b: _Builder, start, tid, moves, q_out):
    """Wire the product tuples reachable from `start`, in `explore`'s
    order.  `tid` numbers a tuple and `moves` yields its ((insym, outsym),
    tuple) moves, where the tuple None stands for q_out."""
    (keys, wired) = explore(start, lambda key: () if key is None
                            else moves(key))
    ids = [q_out if key is None else tid(key) for key in keys]
    for (src, (a, o), dst) in wired:
        b.add(ids[src], a, o, ids[dst])


def _emit_hadamard(h, sigma, b, q_in, q_out):
    """Tuples (s, t, bit) of f's and g's states, numbered from a reserved
    block of 2|f||g| ids; bit 1 once g has moved alone, after which f waits
    for the next letter."""
    pf = build_parser(h.left, sigma)
    pg = build_parser(h.right, sigma)
    fi, gi = MoveIndex(pf.transitions), MoveIndex(pg.transitions)
    alphabet = [letter(c) for c in sigma]
    off, ng = b.n, pg.n_states
    b.n += 2 * pf.n_states * ng

    def tid(key):
        (s, t, bit) = key
        return off + (s * ng + t) * 2 + bit

    def moves(key):
        (s, t, bit) = key
        if bit == 0:
            for (_s, _a, out, s2) in fi.eps.get(s, ()):
                yield ((None, out[0]), (s2, t, 0))
        for (_t, _a, out, t2) in gi.eps.get(t, ()):
            yield ((None, out[0]), (s, t2, 1))
        for a in alphabet:
            for (_s, _a, _o, s2) in fi.letter.get((s, a), ()):
                for (_t, _a, _o, t2) in gi.letter.get((t, a), ()):
                    yield ((a, a), (s2, t2, 0))
        if key == end:
            yield ((None, lclose(h.occ)), None)

    start = (pf.initial, pg.initial, 0)
    end = (next(iter(pf.finals)), next(iter(pg.finals)), 1)
    b.add(q_in, None, lopen(h.occ), tid(start))
    _emit_reachable(b, start, tid, moves, q_out)


def _mod(x: int, k: int) -> int:
    """Index arithmetic in 1..k: multiples of k map to k, never 0."""
    return (x - 1) % k + 1


def _emit_kstar(h, sigma, b, q_in, q_out):
    """Union of the generic branch (>= k blocks, the big product machine) and
    the short-word branch counting fewer than k factors.

    A generic tuple (i, q, comps, j) holds the current block index i, the
    block automaton's state q, one component per block index (a state of
    f's parser or the idle value) and the last component that moved, j.
    Tuples are numbered from a reserved block in the mixed radix of i, q, j
    and the components, in that order of significance."""
    k = h.k
    pf = build_parser(h.left, sigma)
    ae = glushkov(h.regex, sigma)
    qf_f = next(iter(pf.finals))
    fi, ae_moves = MoveIndex(pf.transitions), MoveIndex(ae.transitions)
    alphabet = [letter(c) for c in sigma]
    bot = pf.n_states  # the idle component value
    radix = pf.n_states + 1
    block = radix ** k
    off = b.n
    b.n += k * ae.n_states * k * block

    def tid(key):
        (i, q, comps, j) = key
        x = 0
        for c in comps:
            x = x * radix + c
        return off + (((i - 1) * ae.n_states + q) * k + j - 1) * block + x

    def rank(i, l):
        # position of component l in the order <=_i (i+1 mod k least, i greatest)
        return (l - i - 1) % k

    def moves(key):
        (i, q, comps, j) = key
        m = _mod(i + 1, k)
        # case 1: synchronized letter step
        for a in alphabet:
            q2s = ae_moves.letter.get((q, a), ())
            if not q2s:
                continue
            options = [(bot,) if c == bot
                       else [t[3] for t in fi.letter.get((c, a), ())]
                       for c in comps]
            for (_q, _a, q2) in q2s:
                for nc in product(*options):
                    yield ((a, a), (i, q2, nc, m))
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
                yield ((None, with_index(out[0], l)), (i, q, nc, l))
        if q in ae.finals and comps[i - 1] != pf.initial:
            # case 3: close the block whose index is m
            qm = comps[m - 1]
            if qm != bot:
                for (_qm, _a, out, q2) in fi.eps.get(qm, ()):
                    if q2 != qf_f:
                        continue
                    nc = comps[:m - 1] + (qf_f,) + comps[m:]
                    yield ((None, with_index(out[0], m)), (i, q, nc, j))
            # case 4: factor boundary.  The construction also states a
            # not-accepting guard here; it is vacuous for k >= 2 (the forced
            # idle guess kills such runs) and would wrongly cut the k = 1
            # continuation, so it is omitted.
            if comps[m - 1] in (qf_f, bot):
                guesses = (bot,) if comps[i - 1] == bot else (bot, pf.initial)
                for g in guesses:
                    nc = comps[:m - 1] + (g,) + comps[m:]
                    yield ((None, sep(h.occ)), (m, ae.initial, nc, m))
        # an accepting tuple closes into q_out, its last move
        if q in ae.finals and comps[m - 1] == qf_f and all(
                comps[l] == bot for l in range(k) if l != m - 1):
            yield ((None, lclose(h.occ)), None)

    start = (1, ae.initial, (pf.initial,) + (bot,) * (k - 1), 1)
    b.add(q_in, None, lopen(h.occ), tid(start))
    _emit_reachable(b, start, tid, moves, q_out)

    # short-word branch: counts L(e) factors up to k-1; its initial state is
    # accepting so the empty factorization (n = 0) is parsed as ()
    if k == 1:
        s0 = b.state()
        b.add(q_in, None, lopen(h.occ), s0)
        b.add(s0, None, lclose(h.occ), q_out)
        return
    short = b.n
    b.n += ae.n_states * (k - 1)

    def sid(q, c):
        return short + q * (k - 1) + c - 1

    b.add(q_in, None, lopen(h.occ), sid(ae.initial, 1))
    for q in range(ae.n_states):
        for c in range(1, k):
            for a in alphabet:
                for (_q, _a, q2) in ae_moves.letter.get((q, a), ()):
                    b.add(sid(q, c), a, a, sid(q2, c))
            if q in ae.finals and c + 1 < k:
                b.add(sid(q, c), None, sep(h.occ), sid(ae.initial, c + 1))
            if q in ae.finals or (q, c) == (ae.initial, 1):
                b.add(sid(q, c), None, lclose(h.occ), q_out)


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
