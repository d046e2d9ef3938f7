"""Compile a labeled expression into its reversible two-way evaluator.

Every evaluator shares the generic shape: a unique initial forward state
entered on the expression's opening parenthesis, a unique final forward state
left on its closing parenthesis, and (at the top level) endmarker self-loops
so a run consumes |- first and -| last.  Reversibility is asserted after
every build; a violation means a construction bug, so it raises.

Wildcard edge classes from the constructions (any letter except ...) are
expanded eagerly over the extended alphabet of the subexpression at hand.
State counts: base 3, sum |f|+|g|, Cauchy 1+|f|+|g|, star 1+|f|, reverse
Cauchy |f|+|g|+3, reverse star |f|+5, dup/rev 5, Hadamard |f|+|g|+3, chained
stars k|f|+3k+8.
"""

from __future__ import annotations

from .expr import (BASE, CAUCHY, CAUCHY_REV, DUP, HADAMARD, KSTAR, KSTAR_REV,
                   REV, STAR, STAR_REV, SUM, LabeledExpr)
from .machines import MachineError, TwoWayTransducer, is_reversible
from .parser_build import _mod
from .symbols import (LEFT_END, RIGHT_END, is_paren, lclose, letter,
                      lopen, sep, with_index)


class _Builder:
    def __init__(self):
        self.n = 0
        self.signs = []
        self.delta = {}

    def state(self, sign: int) -> int:
        s = self.n
        self.n += 1
        self.signs.append(sign)
        return s

    def add(self, src, sym, dst, out: str = ""):
        self.delta.setdefault((src, sym), []).append((dst, out))

    def loop(self, s, syms, out: str = ""):
        for sym in syms:
            self.add(s, sym, s, out)

    def embed(self, sub: TwoWayTransducer, merge: dict, resign: dict = ()):
        """Copy a sub-evaluator; `merge` identifies sub states with existing
        ones, `resign` overrides signs of merged states implicitly (the
        existing state keeps its own sign)."""
        m = dict(merge)
        for s in range(sub.n_states):
            if s not in m:
                m[s] = self.state(sub.signs[s])
        for (src, sym), moves in sub.delta.items():
            for (dst, out) in moves:
                self.add(m[src], sym, m[dst], out)
        return m

    def done(self, initial, final, alphabet) -> TwoWayTransducer:
        return TwoWayTransducer(self.n, self.signs, initial,
                                frozenset({final}), self.delta,
                                frozenset(alphabet))


# ---------------------------------------------------------------------------
# Extended alphabets

def ext_alphabet(h: LabeledExpr, sigma: str) -> frozenset:
    """Symbols that can occur inside the parsing of h, its own parentheses
    included."""
    out = {lopen(h.occ), lclose(h.occ)}
    out |= {letter(c) for c in sigma}
    if h.kind in (KSTAR, KSTAR_REV):
        out.add(sep(h.occ))
        inner = ext_alphabet(h.left, sigma)
        for s in inner:
            if is_paren(s):
                for i in range(1, h.k + 1):
                    out.add(with_index(s, i))
    else:
        if h.left is not None:
            out |= ext_alphabet(h.left, sigma)
        if h.right is not None:
            out |= ext_alphabet(h.right, sigma)
    return frozenset(out)


def paren_alphabet(h: LabeledExpr, sigma: str) -> frozenset:
    return frozenset(s for s in ext_alphabet(h, sigma) if is_paren(s))


# ---------------------------------------------------------------------------
# Lifting and relabeling

def lift_ignoring(t: TwoWayTransducer, ignore, skip=()) -> TwoWayTransducer:
    """Self-loops with empty output on every ignored symbol.

    The lifted machine behaves on a word as t does on the word with the
    ignored symbols erased.  `skip` exempts states (the chained-star copies
    leave their entry and exit states bare so the wrapper keeps determinism).
    """
    live = {sym for (_s, sym) in t.delta}
    clash = live & set(ignore)
    if clash:
        raise MachineError("lift symbols collide with the live alphabet: %r"
                           % sorted(clash, key=str)[:3])
    delta = {k: list(v) for k, v in t.delta.items()}
    for s in range(t.n_states):
        if s in skip:
            continue
        for sym in ignore:
            delta.setdefault((s, sym), []).append((s, ""))
    return TwoWayTransducer(t.n_states, list(t.signs), t.initial, t.finals,
                            delta, t.input_alphabet | frozenset(ignore))


def relabel_indexed(t: TwoWayTransducer, i: int) -> TwoWayTransducer:
    """Append chained-star index i to every parenthesis the machine reads."""
    delta = {}
    for (s, sym), moves in t.delta.items():
        delta[(s, with_index(sym, i))] = list(moves)
    alpha = frozenset(with_index(s, i) if is_paren(s) else s
                      for s in t.input_alphabet)
    return TwoWayTransducer(t.n_states, list(t.signs), t.initial, t.finals,
                            delta, alpha)


# ---------------------------------------------------------------------------
# Build

def build_evaluator(h: LabeledExpr, sigma: str) -> TwoWayTransducer:
    """Top-level build: core construction plus endmarker self-loops."""
    t = _build(h, sigma)
    final = next(iter(t.finals))
    t.delta[(t.initial, LEFT_END)] = [(t.initial, "")]
    t.delta[(final, RIGHT_END)] = [(final, "")]
    t = TwoWayTransducer(t.n_states, t.signs, t.initial, t.finals, t.delta,
                         t.input_alphabet | {LEFT_END, RIGHT_END})
    if not is_reversible(t):
        raise MachineError("constructed evaluator is not reversible: %s"
                           % h.kind)
    return t


def _build(h: LabeledExpr, sigma: str) -> TwoWayTransducer:
    if h.kind == BASE:
        return _eval_base(h, sigma)
    if h.kind == SUM:
        return _eval_sum(h, sigma)
    if h.kind == CAUCHY:
        return _eval_cauchy(h, sigma)
    if h.kind == STAR:
        return _eval_star(h, sigma)
    if h.kind == CAUCHY_REV:
        return _eval_cauchy_rev(h, sigma)
    if h.kind == STAR_REV:
        return _eval_star_rev(h, sigma)
    if h.kind == DUP:
        return _eval_dup(h, sigma)
    if h.kind == REV:
        return _eval_rev(h, sigma)
    if h.kind == HADAMARD:
        return _eval_hadamard(h, sigma)
    if h.kind in (KSTAR, KSTAR_REV):
        return _eval_kstar(h, sigma)
    raise ValueError(h.kind)


def _eval_base(h, sigma):
    b = _Builder()
    q0 = b.state(+1)
    mid = b.state(+1)
    qf = b.state(+1)
    b.add(q0, lopen(h.occ), mid)
    b.loop(mid, [letter(c) for c in sigma])
    b.add(mid, lclose(h.occ), qf, h.out)
    return b.done(q0, qf, ext_alphabet(h, sigma))


def _eval_dup(h, sigma):
    b = _Builder()
    q0, s1 = b.state(+1), b.state(+1)
    s2 = b.state(-1)
    s3, qf = b.state(+1), b.state(+1)
    lets = [letter(c) for c in sigma]
    b.add(q0, lopen(h.occ), s1)
    for c in sigma:
        b.add(s1, letter(c), s1, c)
    b.add(s1, lclose(h.occ), s2, h.sep)
    b.loop(s2, lets)
    b.add(s2, lopen(h.occ), s3)
    for c in sigma:
        b.add(s3, letter(c), s3, c)
    b.add(s3, lclose(h.occ), qf)
    return b.done(q0, qf, ext_alphabet(h, sigma))


def _eval_rev(h, sigma):
    b = _Builder()
    q0, s1 = b.state(+1), b.state(+1)
    s2 = b.state(-1)
    s3, qf = b.state(+1), b.state(+1)
    lets = [letter(c) for c in sigma]
    b.add(q0, lopen(h.occ), s1)
    b.loop(s1, lets)
    b.add(s1, lclose(h.occ), s2)
    for c in sigma:
        b.add(s2, letter(c), s2, c)
    b.add(s2, lopen(h.occ), s3)
    b.loop(s3, lets)
    b.add(s3, lclose(h.occ), qf)
    return b.done(q0, qf, ext_alphabet(h, sigma))


def _eval_sum(h, sigma):
    tf = _build(h.left, sigma)
    tg = _build(h.right, sigma)
    b = _Builder()
    q0 = b.state(+1)
    j_in = b.state(+1)
    j_out = b.state(+1)
    qf = b.state(+1)
    b.add(q0, lopen(h.occ), j_in)
    b.embed(tf, {tf.initial: j_in, next(iter(tf.finals)): j_out})
    b.embed(tg, {tg.initial: j_in, next(iter(tg.finals)): j_out})
    b.add(j_out, lclose(h.occ), qf)
    return b.done(q0, qf, ext_alphabet(h, sigma))


def _eval_cauchy(h, sigma):
    tf = _build(h.left, sigma)
    tg = _build(h.right, sigma)
    b = _Builder()
    q0 = b.state(+1)
    qf = b.state(+1)
    mf = b.embed(tf, {})
    b.add(q0, lopen(h.occ), mf[tf.initial])
    mg = b.embed(tg, {tg.initial: mf[next(iter(tf.finals))]})
    b.add(mg[next(iter(tg.finals))], lclose(h.occ), qf)
    return b.done(q0, qf, ext_alphabet(h, sigma))


def _eval_star(h, sigma):
    tf = _build(h.left, sigma)
    b = _Builder()
    q0 = b.state(+1)
    junc = b.state(+1)
    qf = b.state(+1)
    b.add(q0, lopen(h.occ), junc)
    b.add(junc, lclose(h.occ), qf)
    b.embed(tf, {tf.initial: junc, next(iter(tf.finals)): junc})
    return b.done(q0, qf, ext_alphabet(h, sigma))


def _eval_cauchy_rev(h, sigma):
    tf = _build(h.left, sigma)
    tg = _build(h.right, sigma)
    alpha = ext_alphabet(h, sigma)
    op_h, cl_h = lopen(h.occ), lclose(h.occ)
    op_f, cl_f = lopen(h.left.occ), lclose(h.left.occ)
    op_g = lopen(h.right.occ)
    b = _Builder()
    q0 = b.state(+1)
    qf = b.state(+1)
    rew = b.state(-1)
    mg = b.embed(tg, {})
    g_in, g_out = mg[tg.initial], mg[next(iter(tg.finals))]
    mf = b.embed(tf, {})
    f_in, f_out = mf[tf.initial], mf[next(iter(tf.finals))]
    b.add(q0, op_h, g_in)
    b.loop(g_in, [s for s in alpha if s not in (op_h, op_g)])
    b.add(g_out, cl_h, rew)
    b.loop(rew, [s for s in alpha if s not in (op_h, cl_h)])
    b.add(rew, op_h, f_in)
    b.loop(f_out, [s for s in alpha if s not in (cl_f, cl_h)])
    b.add(f_out, cl_h, qf)
    return b.done(q0, qf, alpha)


def _eval_star_rev(h, sigma):
    tf = _build(h.left, sigma)
    alpha = ext_alphabet(h, sigma)
    op_h, cl_h = lopen(h.occ), lclose(h.occ)
    op_f, cl_f = lopen(h.left.occ), lclose(h.left.occ)
    b = _Builder()
    q0 = b.state(+1)
    scan = b.state(+1)
    turn = b.state(-1)
    back = b.state(+1)
    qf = b.state(+1)
    mf = b.embed(tf, {})
    f_in, f_out = mf[tf.initial], mf[next(iter(tf.finals))]
    b.signs[f_in] = -1
    b.signs[f_out] = -1
    a_cls = [s for s in alpha if s not in (op_h, cl_h)]
    beta = [s for s in alpha if s not in (op_f, cl_f)]
    b.add(q0, op_h, scan)
    b.loop(scan, a_cls)
    b.add(scan, cl_h, turn)
    b.add(turn, op_h, back)
    b.loop(back, a_cls)
    b.add(back, cl_h, qf)
    b.add(turn, cl_f, f_in)
    b.loop(f_in, beta)
    b.loop(f_out, beta)
    b.add(f_out, op_f, turn)
    return b.done(q0, qf, alpha)


def _eval_hadamard(h, sigma):
    f_parens = paren_alphabet(h.left, sigma)
    g_parens = paren_alphabet(h.right, sigma)
    tf = lift_ignoring(_build(h.left, sigma), g_parens)
    tg = lift_ignoring(_build(h.right, sigma), f_parens)
    alpha = ext_alphabet(h, sigma)
    op_h, cl_h = lopen(h.occ), lclose(h.occ)
    b = _Builder()
    q0 = b.state(+1)
    qf = b.state(+1)
    rew = b.state(-1)
    mf = b.embed(tf, {})
    mg = b.embed(tg, {})
    b.add(q0, op_h, mf[tf.initial])
    b.add(mf[next(iter(tf.finals))], cl_h, rew)
    b.loop(rew, [s for s in alpha if s not in (op_h, cl_h)])
    b.add(rew, op_h, mg[tg.initial])
    b.add(mg[next(iter(tg.finals))], cl_h, qf)
    return b.done(q0, qf, alpha)


def _kstar_copies(h, sigma):
    """The k indexed copies of the body evaluator, each lifted to skip the
    other indices and the block separator."""
    k = h.k
    tf = _build(h.left, sigma)
    f_parens = sorted(paren_alphabet(h.left, sigma), key=str)
    sp = sep(h.occ)
    copies = []
    for m in range(1, k + 1):
        ignore = [with_index(s, j) for s in f_parens
                  for j in range(1, k + 1) if j != m] + [sp]
        tm = relabel_indexed(tf, m)
        tm = lift_ignoring(tm, ignore,
                           skip={tm.initial, next(iter(tm.finals))})
        copies.append(tm)
    return copies


def _eval_kstar(h, sigma):
    k = h.k
    alpha = ext_alphabet(h, sigma)
    op_h, cl_h = lopen(h.occ), lclose(h.occ)
    sp = sep(h.occ)
    opf = {m: with_index(lopen(h.left.occ), m) for m in range(1, k + 1)}
    clf = {m: with_index(lclose(h.left.occ), m) for m in range(1, k + 1)}
    lets = [letter(c) for c in sigma]
    copies = _kstar_copies(h, sigma)

    b = _Builder()
    q0 = b.state(+1)
    scan = b.state(+1)
    peek1 = b.state(-1)
    peek2 = b.state(+1)
    peek3 = b.state(-1)
    short_back = b.state(-1)
    pre_final = b.state(+1)
    qf = b.state(+1)
    maps = [b.embed(t, {}) for t in copies]
    init = {m: maps[m - 1][copies[m - 1].initial] for m in range(1, k + 1)}
    final = {m: maps[m - 1][next(iter(copies[m - 1].finals))]
             for m in range(1, k + 1)}

    if h.kind == KSTAR:
        b.add(q0, op_h, scan)
        b.loop(scan, lets + [sp])
        # short branch: fewer than k factors produce the empty output
        b.add(scan, cl_h, short_back)
        for s in lets + [sp, op_h]:
            b.add(short_back, s, pre_final)
        b.add(pre_final, cl_h, qf)
        # generic branch entry: unread the first block opener twice
        b.add(scan, opf[1], peek1)
        b.add(peek1, op_h, peek2)
        b.add(peek2, opf[1], peek3)
        b.add(peek3, op_h, init[1])
        if k == 1:
            # blocks do not overlap: the next block sits to the right of the
            # separator, so the machine peeks forward instead of rewinding
            back_1 = b.state(-1)
            fwd_1 = b.state(+1)
            hop_1 = b.state(-1)
            b.add(final[1], cl_h, back_1)
            b.add(back_1, clf[1], pre_final)
            b.add(final[1], sp, fwd_1)
            b.add(fwd_1, opf[1], hop_1)
            b.add(hop_1, sp, init[1])
        else:
            for m in range(1, k + 1):
                mm = _mod(m + 1, k)
                # back_m doubles as the exit reader (entered on )_h) and the
                # rewind to the next block opener (entered on #_e via sep_m)
                back_m = b.state(-1)
                sep_m = b.state(-1)
                hop_m = b.state(-1)
                b.add(final[m], cl_h, back_m)
                b.add(back_m, clf[m], pre_final)
                b.add(final[m], sp, sep_m)
                b.add(sep_m, clf[m], back_m)
                b.loop(back_m, [s for s in alpha
                                if s not in (clf[m], opf[mm], op_h, cl_h)])
                b.add(back_m, opf[mm], hop_m)
                for s in alpha:
                    if s != op_h:
                        b.add(hop_m, s, init[mm])
    else:
        # reverse chained star: scan right, then process blocks right to left
        turn = peek1
        b.add(q0, op_h, scan)
        b.loop(scan, [s for s in alpha if s not in (op_h, cl_h)])
        b.add(scan, cl_h, turn)
        for s in lets + [sp, op_h]:
            b.add(turn, s, pre_final)
        b.add(pre_final, cl_h, qf)
        ret = peek3          # reads |_h after the leftmost block
        back = peek2         # forward scan back to )_h
        b.add(ret, op_h, back)
        b.loop(back, [s for s in alpha if s not in (op_h, cl_h)])
        b.add(back, cl_h, short_back)
        for m in range(1, k + 1):
            b.add(short_back, clf[m], pre_final)
        if k == 1:
            # one entry state feeds every block; its rewind crosses the
            # previous closer, so the dispatch must not consume that closer
            disp = b.state(+1)
            c6 = b.state(-1)
            c71 = b.state(+1)
            b.signs[init[1]] = -1
            b.signs[final[1]] = -1
            b.add(turn, clf[1], disp)
            b.add(disp, cl_h, init[1])
            b.loop(init[1], [s for s in alpha
                             if s not in (opf[1], sp, op_h, cl_h)])
            b.loop(final[1], [s for s in alpha if s not in (opf[1], clf[1])])
            b.add(final[1], opf[1], c6)
            b.add(c6, sp, init[1])
            b.add(c6, op_h, c71)
            b.add(c71, opf[1], ret)
        else:
            for m in range(1, k + 1):
                prev = _mod(m - 1, k)
                c6 = b.state(-1)
                c7 = b.state(+1)
                c71 = b.state(+1)
                b.signs[init[m]] = -1
                b.signs[final[m]] = -1
                b.add(turn, clf[m], init[m])
                b.loop(init[m],
                       [s for s in alpha
                        if s not in (opf[m], clf[m], opf[_mod(m + 1, k)])])
                b.loop(final[m],
                       [s for s in alpha if s not in (opf[m], clf[m])])
                b.add(final[m], opf[m], c6)
                b.add(c6, sp, c7)
                b.add(c7, opf[m], init[prev])
                b.add(c6, op_h, c71)
                b.add(c71, opf[m], ret)
    return b.done(q0, qf, alpha)


# ---------------------------------------------------------------------------
# Shape audit and size accounting

def evaluator_shape_ok(t: TwoWayTransducer, h: LabeledExpr) -> bool:
    """Generic format: forward initial entered on (_h with no other incoming,
    forward final left on )_h with no other outgoing; endmarker self-loops are
    the only exception."""
    if len(t.finals) != 1:
        return False
    final = next(iter(t.finals))
    if t.signs[t.initial] <= 0 or t.signs[final] <= 0:
        return False
    op_h, cl_h = lopen(h.occ), lclose(h.occ)
    init_out = [sym for (s, sym) in t.delta if s == t.initial]
    if sorted(init_out, key=str) != sorted([op_h, LEFT_END], key=str):
        return False
    for (s, sym), moves in t.delta.items():
        for (dst, _o) in moves:
            if dst == t.initial and (s, sym) != (t.initial, LEFT_END):
                return False
            if s == final and sym != RIGHT_END:
                return False
            if dst == final and sym not in (cl_h, RIGHT_END):
                return False
    return True


def evaluator_size_formula(h: LabeledExpr) -> int:
    if h.kind == BASE:
        return 3
    if h.kind == SUM:
        return (evaluator_size_formula(h.left)
                + evaluator_size_formula(h.right))
    if h.kind == CAUCHY:
        return 1 + (evaluator_size_formula(h.left)
                    + evaluator_size_formula(h.right))
    if h.kind == STAR:
        return 1 + evaluator_size_formula(h.left)
    if h.kind == CAUCHY_REV:
        return 3 + (evaluator_size_formula(h.left)
                    + evaluator_size_formula(h.right))
    if h.kind == STAR_REV:
        return 5 + evaluator_size_formula(h.left)
    if h.kind in (DUP, REV):
        return 5
    if h.kind == HADAMARD:
        return 3 + (evaluator_size_formula(h.left)
                    + evaluator_size_formula(h.right))
    if h.kind in (KSTAR, KSTAR_REV):
        return h.k * evaluator_size_formula(h.left) + 3 * h.k + 8
    raise ValueError(h.kind)
