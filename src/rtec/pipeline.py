"""The unambiguous-semantics pipeline: functionality checker, complement
acceptor, parser uniformization and staged evaluation.

The checker B is a product automaton over parser state pairs with a
divergence bit; it accepts exactly the inputs with at least two parsings.
Its premises quantify over runs that read one letter after spontaneous
parenthesis moves, decided here by a finite saturation over state pairs
(synchronized while the outputs agree, independent after the first
difference), which terminates even when the parser has epsilon cycles.
`Pipeline` builds B and its complement acceptor on first use only, for
exports, size reports and checks: the runtime needs neither.

The uniformizer realizes the two-pass decomposition: a backward pass
annotates positions with co-reachable parser states, memoized across words.
The per-word gate of `run_unambiguous` is a forward walk over sets of
co-reachable configurations sharing one output prefix, which yields the
word's parsing exactly when it has no other.  The paper's selection, kept
as `UniformParser.parse`, picks at each step the first co-reachable
transition in construction order (falling back to the next one only if the
greedy choice closes a cycle), so it is deterministic and returns exactly
one parsing on the parser's domain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .expr import (BASE, CAUCHY, CAUCHY_REV, DUP, HADAMARD, KSTAR, KSTAR_REV,
                   REV, STAR, STAR_REV, SUM, LabeledExpr, size, unlabel,
                   uses_hadamard_or_kstar, uses_kstar, width)
from .glushkov import glushkov
from .machines import (Dfa, Nfa, OneWayTransducer, TwoWayTransducer,
                       complement_dfa, determinize, dfa_difference,
                       dfa_intersect, dfa_union, minimize_dfa, run_two_way)
from .parser_build import build_parser, parser_size_formula
from .evaluator_build import build_evaluator, evaluator_size_formula
from .symbols import letter, letters

# The most co-reachable states a UniformParser keeps in its memo of
# backward steps; past it the memo starts over.  At 33 to 73 bytes a state
# in a frozenset that is 4 to 10 MB per parser, far above what the
# benchmark's parsers need (at most 3,640 states after a pass).
COREACH_MEMO_STATES = 1 << 17


# ---------------------------------------------------------------------------
# Macro steps of the parser: one letter consumed after parenthesis moves

class MacroStepTable:
    """Per state pair and letter: target pairs reachable with identical
    parenthesis prefixes (same) and with differing outputs (diff), plus the
    matching end-of-word predicates used for acceptance."""

    def __init__(self, parser: OneWayTransducer):
        self.parser = parser
        self.final = next(iter(parser.finals))
        self.index = parser.index
        self.eps, self.letter = self.index.eps, self.index.letter
        self._eclo = {}
        self._sync = {}
        self._reach = {}

    def _eps_closure(self, p):
        if p not in self._eclo:
            self._eclo[p] = frozenset(self.index.closure((p,)))
        return self._eclo[p]

    def reach_letter(self, p, a):
        """States reachable from p by parenthesis moves followed by `a`."""
        key = (p, a)
        if key not in self._reach:
            self._reach[key] = frozenset(
                self.index.step(self._eps_closure(p), a))
        return self._reach[key]

    def sync_closure(self, p, q):
        """Pairs reachable while both sides emit the same parentheses."""
        key = (p, q)
        if key in self._sync:
            return self._sync[key]
        seen = {key}
        stack = [key]
        while stack:
            (s, t) = stack.pop()
            t_by = {}
            for (_t, _a, o, d) in self.eps.get(t, ()):
                t_by.setdefault(o, []).append(d)
            for (_s, _a, o, d1) in self.eps.get(s, ()):
                for d2 in t_by.get(o, ()):
                    if (d1, d2) not in seen:
                        seen.add((d1, d2))
                        stack.append((d1, d2))
        r = frozenset(seen)
        self._sync[key] = r
        return r

    def same_targets(self, p, q, a):
        out = set()
        for (s, t) in self.sync_closure(p, q):
            lt = self.letter.get((t, a), ())
            for (_s, _a, _o, d1) in self.letter.get((s, a), ()):
                for (_t, _a, _o, d2) in lt:
                    out.add((d1, d2))
        return out

    def diff_targets(self, p, q, a):
        """Target pairs witnessed by runs whose outputs differ."""
        out = set()
        for (s, t) in self.sync_closure(p, q):
            s_eps = self.eps.get(s, ())
            t_eps = self.eps.get(t, ())
            # both sides move on parentheses with different symbols
            for (_s, _a, o1, d1) in s_eps:
                for (_t, _a, o2, d2) in t_eps:
                    if o1 != o2:
                        for r1 in self.reach_letter(d1, a):
                            for r2 in self.reach_letter(d2, a):
                                out.add((r1, r2))
            # one side still emits while the other already reads the letter
            t_lets = [m[3] for m in self.letter.get((t, a), ())]
            if t_lets:
                for (_s, _a, _o, d1) in s_eps:
                    for r1 in self.reach_letter(d1, a):
                        for r2 in t_lets:
                            out.add((r1, r2))
            s_lets = [m[3] for m in self.letter.get((s, a), ())]
            if s_lets:
                for (_t, _a, _o, d2) in t_eps:
                    for r2 in self.reach_letter(d2, a):
                        for r1 in s_lets:
                            out.add((r1, r2))
        return out

    def end_same(self, p, q) -> bool:
        """Both states finish with the same parenthesis suffix."""
        return (self.final in self._eps_closure(p)
                and self.final in self._eps_closure(q))

    def end_diff(self, p, q) -> bool:
        """Both states finish, producing different parenthesis suffixes."""
        for (s, t) in self.sync_closure(p, q):
            for (_s, _a, o1, d1) in self.eps.get(s, ()):
                for (_t, _a, o2, d2) in self.eps.get(t, ()):
                    if o1 != o2 and self.final in self._eps_closure(d1) \
                            and self.final in self._eps_closure(d2):
                        return True
            if t == self.final:
                for (_s, _a, _o, d1) in self.eps.get(s, ()):
                    if self.final in self._eps_closure(d1):
                        return True
            if s == self.final:
                for (_t, _a, _o, d2) in self.eps.get(t, ()):
                    if self.final in self._eps_closure(d2):
                        return True
        return False


def build_functionality_checker(parser: OneWayTransducer, sigma: str) -> Nfa:
    """The pair automaton B with 2 * |parser|^2 states.

    B reads plain input words and accepts exactly those with at least two
    distinct parsings.  The full state set is materialized to match the
    stated size; transitions are expanded from the reachable part, which is
    all the language needs.
    """
    n = parser.n_states
    table = MacroStepTable(parser)

    def idx(p, q, bit):
        return (p * n + q) * 2 + bit

    alphabet = [letter(c) for c in sigma]
    init = idx(parser.initial, parser.initial, 0)
    trans = []
    finals = set()
    seen = {(parser.initial, parser.initial, 0)}
    stack = [(parser.initial, parser.initial, 0)]
    while stack:
        (p, q, bit) = stack.pop()
        src = idx(p, q, bit)
        if bit == 0:
            if table.end_diff(p, q):
                finals.add(src)
        else:
            if table.end_same(p, q):
                finals.add(src)
        for a in alphabet:
            if bit == 0:
                moves = [((d1, d2, 0), a) for (d1, d2)
                         in table.same_targets(p, q, a)]
                moves += [((d1, d2, 1), a) for (d1, d2)
                          in table.diff_targets(p, q, a)]
            else:
                full = table.reach_letter(p, a)
                full2 = table.reach_letter(q, a)
                moves = [((d1, d2, 1), a) for d1 in full for d2 in full2]
            for (st, x) in moves:
                trans.append((src, x, idx(*st)))
                if st not in seen:
                    seen.add(st)
                    stack.append(st)
    return Nfa(2 * n * n, init, frozenset(finals), trans,
               frozenset(alphabet))


def build_unambiguity_acceptor(checker: Nfa) -> Dfa:
    """Complete DFA for the complement of L(B)."""
    return complement_dfa(determinize(checker))


# ---------------------------------------------------------------------------
# Uniformization

class UniformParser:
    """Deterministic selection of one parsing per domain word.

    Backward pass: co-reachable parser states per input position.  Each set
    depends only on the next one and the letter between, so the sets are
    the states of a subset automaton over the reversed word; they are built
    on first use and kept across words in a memo that is emptied once it
    holds more than COREACH_MEMO_STATES states.

    `unique` decides the unambiguous semantics by itself, in one forward
    walk over sets of co-reachable configurations that share one output
    prefix: the word has exactly one parsing when no set on the way offers
    two output symbols, can both stop and go on, or holds a state on a
    cycle of epsilon moves, which could be pumped.

    `parse` is the paper's uniformizer, defined on the whole domain: a
    depth-first walk trying, at each step, the co-reachable successors in a
    fixed global order (spontaneous moves before the letter move, each in
    construction order), visiting each (state, position) at most once; on
    cycle-free parsers this is the plain greedy least-successor walk.
    """

    def __init__(self, parser: OneWayTransducer):
        self.parser = parser
        self.final = next(iter(parser.finals))
        self.index = parser.index
        self._end = frozenset(self.index.coclosure({self.final}))
        self._memo = {}
        self._memo_states = 0

    def _coreach(self, syms):
        """Co-reachable states per position, through the kept memo."""
        index, memo = self.index, self._memo
        co = [None] * (len(syms) + 1)
        cur = co[-1] = self._end
        for t in range(len(syms) - 1, -1, -1):
            key = (cur, syms[t])
            prev = memo.get(key)
            if prev is None:
                prev = memo[key] = frozenset(
                    index.coclosure(index.back_step(cur, syms[t])))
                self._memo_states += len(prev)
                if self._memo_states > COREACH_MEMO_STATES:
                    memo.clear()
                    self._memo_states = 0
            co[t] = cur = prev
        return co

    def unique(self, word):
        """The only parsing of `word`, or None when it has none or more
        than one."""
        syms = letters(word) if isinstance(word, str) else tuple(word)
        n = len(syms)
        co = self._coreach(syms)
        if self.parser.initial not in co[0]:
            return None
        eps, letter = self.index.eps, self.index.letter
        cyclic, final = self.index.eps_cyclic, self.final
        # every configuration of a node sits at position t: a parser's
        # letter moves copy the letter, so the prefix fixes the position
        node = (self.parser.initial,)
        t = 0
        out = []
        while True:
            if cyclic and not cyclic.isdisjoint(node):
                return None
            here = co[t]
            sym = nxt = None
            for s in node:
                for (_s, _a, o, d) in eps.get(s, ()):
                    if d in here:
                        if sym is None:
                            sym, nxt = o, {d}
                        elif o == sym:
                            nxt.add(d)
                        else:
                            return None
            if t == n:
                if final in node:
                    return tuple(out) if sym is None else None
            else:
                a, there = syms[t], co[t + 1]
                moved = {d for s in node for (_s, _a, _o, d)
                         in letter.get((s, a), ()) if d in there}
                if moved:
                    if sym is not None:
                        return None
                    out.append(a)
                    node = moved
                    t += 1
                    continue
            # live configurations always move on, so sym is set here
            out.append(sym[0])
            node = nxt

    def parse(self, word):
        """The selected parsing of `word`, or None outside the domain."""
        syms = letters(word) if isinstance(word, str) else tuple(word)
        n = len(syms)
        co = self._coreach(syms)
        if self.parser.initial not in co[0]:
            return None

        eps, letter = self.index.eps, self.index.letter

        def moves(state, t):
            for (_s, _a, o, dst) in eps.get(state, ()):
                if dst in co[t]:
                    yield (o[0], dst, t)
            if t < n:
                for (_s, _a, o, dst) in letter.get((state, syms[t]), ()):
                    if dst in co[t + 1]:
                        yield (o[0], dst, t + 1)

        goal = (self.final, n)
        if (self.parser.initial, 0) == goal:
            return ()
        visited = {(self.parser.initial, 0)}
        out = []
        stack = [moves(self.parser.initial, 0)]
        while stack:
            step = next(stack[-1], None)
            if step is None:
                stack.pop()
                if out:
                    out.pop()
                continue
            (o, dst, t) = step
            if (dst, t) == goal:
                out.append(o)
                return tuple(out)
            if (dst, t) in visited:
                continue
            visited.add((dst, t))
            out.append(o)
            stack.append(moves(dst, t))
        return None


def uniformize_parser(parser: OneWayTransducer) -> UniformParser:
    return UniformParser(parser)


# ---------------------------------------------------------------------------
# Domain and unambiguous-domain automata

def domain_dfas(h: LabeledExpr, sigma: str) -> tuple[Dfa, Dfa]:
    """Deterministic acceptors of dom(h) and udom(h), built bottom-up in one
    pass: each node combines the (dom, udom) pairs of its children, so every
    subexpression is compiled once.

    Chained stars take the checker route for udom (dom minus L(B)), which
    needs the materialized parser; all other combinators scale to expressions
    whose parsers would be far too large to build, such as wide Hadamard
    towers.
    """
    alpha = frozenset(letter(c) for c in sigma)
    loop = {(0, a): 0 for a in alpha}
    total = Dfa(1, 0, frozenset({0}), loop, alpha)
    empty = Dfa(1, 0, frozenset(), loop, alpha)

    def of_nfa(nfa: Nfa) -> Dfa:
        return minimize_dfa(determinize(nfa, alpha))

    def pair(h: LabeledExpr) -> tuple[Dfa, Dfa]:
        if h.kind == BASE:
            d = of_nfa(glushkov(h.regex, sigma))
            return d, d
        if h.kind in (DUP, REV):
            return total, total
        if h.kind in (KSTAR, KSTAR_REV):
            parser = build_parser(h, sigma)
            dom = of_nfa(parser.underlying_nfa())
            multi = determinize(build_functionality_checker(parser, sigma),
                                alpha)
            return dom, minimize_dfa(dfa_difference(dom, multi))
        (df, uf) = pair(h.left)
        if h.kind in (STAR, STAR_REV):
            dom = of_nfa(_star_pos_nfa(df, alpha))
            if df.accepts(""):
                return dom, empty
            good = determinize(_star_pos_nfa(uf, alpha), alpha)
            bad = determinize(_ambiguous_star_nfa(df, alpha), alpha)
            return dom, minimize_dfa(dfa_difference(good, bad))
        (dg, ug) = pair(h.right)
        if h.kind == SUM:
            return (minimize_dfa(dfa_union(df, dg)),
                    minimize_dfa(dfa_union(dfa_difference(uf, dg),
                                           dfa_difference(ug, df))))
        if h.kind == HADAMARD:
            return (minimize_dfa(dfa_intersect(df, dg)),
                    minimize_dfa(dfa_intersect(uf, ug)))
        if h.kind in (CAUCHY, CAUCHY_REV):
            good = determinize(_cat_pair_nfa(uf, ug, alpha), alpha)
            bad = determinize(_ambiguous_split_nfa(df, dg, alpha), alpha)
            return (of_nfa(_cat_pair_nfa(df, dg, alpha)),
                    minimize_dfa(dfa_difference(good, bad)))
        raise ValueError(h.kind)

    return pair(h)


def _cat_pair_nfa(d1: Dfa, d2: Dfa, alpha) -> Nfa:
    trans = [(s, a, t) for ((s, a), t) in d1.delta.items()]
    off = d1.n_states
    for ((s, a), t) in d2.delta.items():
        trans.append((s + off, a, t + off))
    for f in d1.finals:
        trans.append((f, None, d2.initial + off))
    return Nfa(off + d2.n_states, d1.initial,
               frozenset(f + off for f in d2.finals), trans, alpha)


def _ambiguous_split_nfa(df: Dfa, dg: Dfa, alpha) -> Nfa:
    """Words u v w with v nonempty, u and uv in dom f, vw and w in dom g."""
    # phase 1: track df on u; phase 2: df on uv and dg on vw, v nonempty;
    # phase 3: dg on vw and dg on w
    n1 = df.n_states
    n2 = df.n_states * dg.n_states
    n3 = dg.n_states * dg.n_states

    def p1(s):
        return s

    def p2(s, t, moved):
        return n1 + (s * dg.n_states + t) * 2 + moved

    def p3(t, u):
        return n1 + 2 * n2 + t * dg.n_states + u

    trans = []
    for ((s, a), t) in df.delta.items():
        trans.append((p1(s), a, p1(t)))
    for f in df.finals:
        trans.append((p1(f), None, p2(f, dg.initial, 0)))
    for s in range(df.n_states):
        for t in range(dg.n_states):
            for moved in (0, 1):
                for a in alpha:
                    trans.append((p2(s, t, moved), a,
                                  p2(df.delta[(s, a)], dg.delta[(t, a)], 1)))
    for s in df.finals:
        for t in range(dg.n_states):
            trans.append((p2(s, t, 1), None, p3(t, dg.initial)))
    for t in range(dg.n_states):
        for u in range(dg.n_states):
            for a in alpha:
                trans.append((p3(t, u), a,
                              p3(dg.delta[(t, a)], dg.delta[(u, a)])))
    finals = frozenset(p3(t, u) for t in dg.finals for u in dg.finals)
    return Nfa(n1 + 2 * n2 + n3, p1(df.initial), finals, trans, alpha)


def _star_pos_nfa(d: Dfa, alpha) -> Nfa:
    trans = [(s + 1, a, t + 1) for ((s, a), t) in d.delta.items()]
    trans.append((0, None, d.initial + 1))
    for f in d.finals:
        trans.append((f + 1, None, d.initial + 1))
    finals = frozenset({0} | {f + 1 for f in d.finals})
    return Nfa(d.n_states + 1, 0, finals, trans, alpha)


def _ambiguous_star_nfa(d: Dfa, alpha) -> Nfa:
    """Words with two distinct factorizations into dom-f factors.

    Two trackers guess restart points; the boundary decision is folded into
    the letter transition so a one-sided restart marks a genuine divergence.
    Only sound when f's domain excludes the empty word, which the caller
    ensures."""
    n = d.n_states

    def idx(p, q, bit):
        return (p * n + q) * 2 + bit

    def moves(s, a):
        out = [(d.delta[(s, a)], 0)]
        if s in d.finals:
            out.append((d.delta[(d.initial, a)], 1))
        return out

    trans = []
    for p in range(n):
        for q in range(n):
            for bit in (0, 1):
                src = idx(p, q, bit)
                for a in alpha:
                    for (p2, rp) in moves(p, a):
                        for (q2, rq) in moves(q, a):
                            nbit = 1 if (bit or rp != rq) else 0
                            trans.append((src, a, idx(p2, q2, nbit)))
    finals = frozenset(idx(p, q, 1)
                       for p in d.finals for q in d.finals)
    return Nfa(2 * n * n, idx(d.initial, d.initial, 0), finals, trans, alpha)


# ---------------------------------------------------------------------------
# Staged pipeline

@dataclass
class Pipeline:
    """Built machines for one expression, with staged unambiguous runs.

    The functionality checker and its complement acceptor are built on
    first use and kept; `run_unambiguous` needs neither."""

    expr: LabeledExpr
    sigma: str
    parser: OneWayTransducer
    evaluator: TwoWayTransducer
    uniformizer: UniformParser

    @cached_property
    def checker(self) -> Nfa:
        return build_functionality_checker(self.parser, self.sigma)

    @cached_property
    def acceptor(self) -> Dfa:
        return build_unambiguity_acceptor(self.checker)

    def run_unambiguous(self, word: str):
        parsed = self.uniformizer.unique(word)
        if parsed is None:
            return None
        res = run_two_way(self.evaluator, parsed)
        if res.status != "accept":
            raise RuntimeError("evaluator %s on selected parsing of %r"
                               % (res.status, word))
        return res.output


def build_pipeline(h: LabeledExpr, sigma: str) -> Pipeline:
    parser = build_parser(h, sigma)
    return Pipeline(h, sigma, parser, build_evaluator(h, sigma),
                    uniformize_parser(parser))


# ---------------------------------------------------------------------------
# Size bound report

@dataclass
class BoundReport:
    expr_size: int
    expr_width: int
    parser_states: int
    evaluator_states: int
    checker_states: int
    parser_bound: int
    evaluator_bound: int
    entries: list = field(default_factory=list)
    ok: bool = True

    def add(self, name, actual, bound, exact=False):
        good = actual == bound if exact else actual <= bound
        self.entries.append((name, actual, bound, good))
        self.ok = self.ok and good


def check_size_bounds(h: LabeledExpr, sigma: str,
                      pipeline: Pipeline | None = None) -> BoundReport:
    """Actual machine sizes against the stated bounds; any violation flips
    the report to failing."""
    hp = unlabel(h)
    sz, w = size(hp), width(hp)
    if pipeline is None:
        parser = build_parser(h, sigma)
        evaluator = build_evaluator(h, sigma)
        checker = build_functionality_checker(parser, sigma)
    else:
        parser, evaluator, checker = (pipeline.parser, pipeline.evaluator,
                                      pipeline.checker)
    p_bound = sz ** w if uses_hadamard_or_kstar(hp) else sz
    t_bound = 5 * sz * w if uses_kstar(hp) else 5 * sz
    rep = BoundReport(sz, w, parser.n_states, evaluator.n_states,
                      checker.n_states, p_bound, t_bound)
    rep.add("parser <= bound", parser.n_states, p_bound)
    rep.add("evaluator <= bound", evaluator.n_states, t_bound)
    rep.add("checker == 2 parser^2", checker.n_states,
            2 * parser.n_states ** 2, exact=True)
    rep.add("parser == formula", parser.n_states, parser_size_formula(h),
            exact=True)
    rep.add("evaluator == formula", evaluator.n_states,
            evaluator_size_formula(h), exact=True)
    return rep
