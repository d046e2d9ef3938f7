"""Compile a labeled expression into its reversible two-way evaluator.

Every evaluator shares the generic shape: a unique initial forward state
entered on the expression's opening parenthesis, a unique final forward state
left on its closing parenthesis, and (at the top level) endmarker self-loops
so a run consumes |- first and -| last.  Reversibility is asserted after
the build; a violation means a construction bug, so it raises.

An evaluator is written in one pass into one builder: each sub-evaluator
goes in place between the entry and exit states its parent hands it, and
each move is written once.  Sums, products and stars pass their junction
states down; the reverse stars create their body's entry and exit states
backward.  Inside the i-th copy of a chained-star body every parenthesis
read carries the index i, appended to the indices of enclosing copies as
the move is written.  The Hadamard product and the chained-star copies lift
the states their children allocated over the parentheses of the other
branches (self-loops that read them without moving on), so each branch
reads the parsing as if those symbols were erased.  State ids follow the
order of the build, not a per-node layout.

Wildcard edge classes from the constructions (any letter except ...) are
expanded eagerly over the extended alphabet of the subexpression at hand,
which each node computes once, from its children's.  State counts: base 3,
sum |f|+|g|, Cauchy 1+|f|+|g|, star 1+|f|, reverse Cauchy |f|+|g|+3, reverse
star |f|+5, dup/rev 5, Hadamard |f|+|g|+3, chained stars k|f|+3k+8.
"""

from __future__ import annotations

from .expr import (BASE, CAUCHY, CAUCHY_REV, DUP, HADAMARD, KSTAR, KSTAR_REV,
                   REV, STAR, STAR_REV, SUM, LabeledExpr)
from .machines import MachineError, TwoWayTransducer, is_reversible
from .parser_build import _mod
from .symbols import (LEFT_END, RIGHT_END, is_paren, lclose, letter, lopen,
                      sep)


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

    def lift(self, states, ignore):
        """Self-loops with empty output on every ignored symbol at each of
        `states`: from them the machine reads a word as it reads the word
        with those symbols erased.  A symbol a state already reads would
        make it nondeterministic, so it raises."""
        for s in states:
            for sym in ignore:
                if (s, sym) in self.delta:
                    raise MachineError("lift symbol %r collides with a move "
                                       "of state %d" % (sym, s))
                self.add(s, sym, s)


def _parens(alpha) -> list:
    return [s for s in alpha if is_paren(s)]


def build_evaluator(h: LabeledExpr, sigma: str) -> TwoWayTransducer:
    """Top-level build: core construction plus endmarker self-loops."""
    b = _Builder()
    q0, qf = b.state(+1), b.state(+1)
    alpha = _emit(h, sigma, b, q0, qf, ())
    b.add(q0, LEFT_END, q0)
    b.add(qf, RIGHT_END, qf)
    t = TwoWayTransducer(b.n, b.signs, q0, frozenset({qf}), b.delta,
                         frozenset(alpha) | {LEFT_END, RIGHT_END})
    if not is_reversible(t):
        raise MachineError("constructed evaluator is not reversible: %s"
                           % h.kind)
    return t


def _emit(h: LabeledExpr, sigma: str, b: _Builder, q_in: int, q_out: int,
          idx: tuple) -> set:
    """Write h's evaluator into b with q_in as its initial state and q_out
    as its final state, reading every parenthesis with the chained-star
    indices idx (innermost first).  Returns h's extended alphabet."""
    op_h, cl_h = lopen(h.occ, idx), lclose(h.occ, idx)
    lets = [letter(c) for c in sigma]
    alpha = {op_h, cl_h, *lets}
    if h.kind == BASE:
        mid = b.state(+1)
        b.add(q_in, op_h, mid)
        b.loop(mid, lets)
        b.add(mid, cl_h, q_out, h.out)
    elif h.kind in (DUP, REV):
        # two forward passes around a backward one; dup copies the letters
        # on the forward passes, rev on the backward one
        s1, s2, s3 = b.state(+1), b.state(-1), b.state(+1)
        dup = h.kind == DUP
        b.add(q_in, op_h, s1)
        for c in sigma:
            b.add(s1, letter(c), s1, c if dup else "")
        b.add(s1, cl_h, s2, h.sep if dup else "")
        for c in sigma:
            b.add(s2, letter(c), s2, "" if dup else c)
        b.add(s2, op_h, s3)
        for c in sigma:
            b.add(s3, letter(c), s3, c if dup else "")
        b.add(s3, cl_h, q_out)
    elif h.kind == SUM:
        j_in, j_out = b.state(+1), b.state(+1)
        b.add(q_in, op_h, j_in)
        alpha |= _emit(h.left, sigma, b, j_in, j_out, idx)
        alpha |= _emit(h.right, sigma, b, j_in, j_out, idx)
        b.add(j_out, cl_h, q_out)
    elif h.kind == CAUCHY:
        f_in, mid, g_out = b.state(+1), b.state(+1), b.state(+1)
        b.add(q_in, op_h, f_in)
        alpha |= _emit(h.left, sigma, b, f_in, mid, idx)
        alpha |= _emit(h.right, sigma, b, mid, g_out, idx)
        b.add(g_out, cl_h, q_out)
    elif h.kind == STAR:
        junc = b.state(+1)
        b.add(q_in, op_h, junc)
        b.add(junc, cl_h, q_out)
        alpha |= _emit(h.left, sigma, b, junc, junc, idx)
    elif h.kind == CAUCHY_REV:
        _emit_cauchy_rev(h, sigma, b, q_in, q_out, idx, alpha)
    elif h.kind == STAR_REV:
        _emit_star_rev(h, sigma, b, q_in, q_out, idx, alpha)
    elif h.kind == HADAMARD:
        _emit_hadamard(h, sigma, b, q_in, q_out, idx, alpha)
    elif h.kind in (KSTAR, KSTAR_REV):
        _emit_kstar(h, sigma, b, q_in, q_out, idx, alpha)
    else:
        raise ValueError(h.kind)
    return alpha


def _emit_cauchy_rev(h, sigma, b, q_in, q_out, idx, alpha):
    """g first, then a backward rewind to (_h, then f."""
    op_h, cl_h = lopen(h.occ, idx), lclose(h.occ, idx)
    op_g, cl_f = lopen(h.right.occ, idx), lclose(h.left.occ, idx)
    rew = b.state(-1)
    g_in, g_out = b.state(+1), b.state(+1)
    alpha |= _emit(h.right, sigma, b, g_in, g_out, idx)
    f_in, f_out = b.state(+1), b.state(+1)
    alpha |= _emit(h.left, sigma, b, f_in, f_out, idx)
    b.add(q_in, op_h, g_in)
    b.loop(g_in, [s for s in alpha if s not in (op_h, op_g)])
    b.add(g_out, cl_h, rew)
    b.loop(rew, [s for s in alpha if s not in (op_h, cl_h)])
    b.add(rew, op_h, f_in)
    b.loop(f_out, [s for s in alpha if s not in (cl_f, cl_h)])
    b.add(f_out, cl_h, q_out)


def _emit_star_rev(h, sigma, b, q_in, q_out, idx, alpha):
    """Scan to )_h, then evaluate the factors right to left; the body's
    entry and exit states are backward."""
    op_h, cl_h = lopen(h.occ, idx), lclose(h.occ, idx)
    op_f, cl_f = lopen(h.left.occ, idx), lclose(h.left.occ, idx)
    scan, turn, back = b.state(+1), b.state(-1), b.state(+1)
    f_in, f_out = b.state(-1), b.state(-1)
    alpha |= _emit(h.left, sigma, b, f_in, f_out, idx)
    a_cls = [s for s in alpha if s not in (op_h, cl_h)]
    beta = [s for s in alpha if s not in (op_f, cl_f)]
    b.add(q_in, op_h, scan)
    b.loop(scan, a_cls)
    b.add(scan, cl_h, turn)
    b.add(turn, op_h, back)
    b.loop(back, a_cls)
    b.add(back, cl_h, q_out)
    b.add(turn, cl_f, f_in)
    b.loop(f_in, beta)
    b.loop(f_out, beta)
    b.add(f_out, op_f, turn)


def _emit_hadamard(h, sigma, b, q_in, q_out, idx, alpha):
    """f, a backward rewind to (_h, then g; each lifted over the other's
    parentheses."""
    op_h, cl_h = lopen(h.occ, idx), lclose(h.occ, idx)
    rew = b.state(-1)
    f_in, f_out = b.state(+1), b.state(+1)
    alpha_f = _emit(h.left, sigma, b, f_in, f_out, idx)
    g_in, g_out = b.state(+1), b.state(+1)
    alpha_g = _emit(h.right, sigma, b, g_in, g_out, idx)
    b.lift(range(f_in, g_in), _parens(alpha_g))
    b.lift(range(g_in, b.n), _parens(alpha_f))
    alpha |= alpha_f
    alpha |= alpha_g
    b.add(q_in, op_h, f_in)
    b.add(f_out, cl_h, rew)
    b.loop(rew, [s for s in alpha if s not in (op_h, cl_h)])
    b.add(rew, op_h, g_in)
    b.add(g_out, cl_h, q_out)


def _emit_kstar(h, sigma, b, q_in, q_out, idx, alpha):
    """k indexed copies of the body, each lifted over the other copies'
    parentheses and the block separator, and the block walk around them."""
    k = h.k
    op_h, cl_h = lopen(h.occ, idx), lclose(h.occ, idx)
    sp = sep(h.occ, idx)
    alpha.add(sp)
    opf = {m: lopen(h.left.occ, (m,) + idx) for m in range(1, k + 1)}
    clf = {m: lclose(h.left.occ, (m,) + idx) for m in range(1, k + 1)}
    lets = [letter(c) for c in sigma]

    scan = b.state(+1)
    peek1 = b.state(-1)
    peek2 = b.state(+1)
    peek3 = b.state(-1)
    short_back = b.state(-1)
    pre_final = b.state(+1)
    # the reverse chained star enters and leaves its copies backward
    sign = +1 if h.kind == KSTAR else -1
    init, final, spans, parens = {}, {}, {}, {}
    for m in range(1, k + 1):
        init[m], final[m] = b.state(sign), b.state(sign)
        lo = b.n
        parens[m] = _parens(_emit(h.left, sigma, b, init[m], final[m],
                                  (m,) + idx))
        spans[m] = range(lo, b.n)
    for m in range(1, k + 1):
        # the copy's entry and exit states stay bare, so the walk around
        # the copies keeps determinism
        b.lift(spans[m], [sp] + [s for j in range(1, k + 1) if j != m
                                 for s in parens[j]])
        alpha.update(parens[m])

    if h.kind == KSTAR:
        b.add(q_in, op_h, scan)
        b.loop(scan, lets + [sp])
        # short branch: fewer than k factors produce the empty output
        b.add(scan, cl_h, short_back)
        for s in lets + [sp, op_h]:
            b.add(short_back, s, pre_final)
        b.add(pre_final, cl_h, q_out)
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
        b.add(q_in, op_h, scan)
        b.loop(scan, [s for s in alpha if s not in (op_h, cl_h)])
        b.add(scan, cl_h, turn)
        for s in lets + [sp, op_h]:
            b.add(turn, s, pre_final)
        b.add(pre_final, cl_h, q_out)
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
