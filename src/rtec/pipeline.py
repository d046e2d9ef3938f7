"""The unambiguous-semantics pipeline: functionality checker, complement
acceptor, parser uniformization and staged evaluation.

The checker B is a product automaton over parser state pairs with a
divergence bit; it accepts exactly the inputs with at least two parsings.
Its premises quantify over runs that read one letter after spontaneous
parenthesis moves, decided here by a finite saturation over state pairs
(synchronized while the outputs agree, independent after the first
difference), which terminates even when the parser has epsilon cycles.
One pair step, `MacroStepTable.targets`, states the divergence rules once,
for letters and for the right endmarker -|, which only the parser's final
state reads: B's finality is read from that step, a bit-0 pair being final
where its step on -| parts the two runs, a bit-1 pair where both read -|.
B's pair states are found by a loop of its own; every other construction
here, down to the saturation's closures, goes through `machines.explore`.

`domain_dfas` builds deterministic acceptors of dom and udom bottom-up.
Stars, products and the words with two factorizations under them are
subset constructions over states of the children's DFAs, built with
`machines._dfa`, reachable part only; no epsilon-NFA is built for them.
The complement acceptor of L(B), the words with at most one parsing, is
the minimized complement of dom minus udom, not a determinization of B.
`Pipeline` builds B, the dom and udom pair and the acceptor on first use
only, for exports, size reports and checks: the runtime needs none of
them.

The uniformizer realizes the two-pass decomposition: a backward pass
annotates positions with co-reachable parser states, and a forward walk
over sets of co-reachable configurations sharing one output prefix yields
the word's parsing exactly when it has no other.  Both passes are the
parser's own segment walk (`machines.SegmentWalk`), memoized across words
and shared with relational evaluation, so a word costs two dictionary
lookups per letter once its segments are known, and a long word two per
block of `machines.BLOCK` letters, under both semantics up to the first
block where its parsings branch.  The paper's selection,
kept as `UniformParser.parse`, picks at each step the first co-reachable
transition in construction order (falling back to the next one only if the
greedy choice closes a cycle), so it is deterministic and returns exactly
one parsing on the parser's domain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product

from .expr import (BASE, CAUCHY, CAUCHY_REV, DUP, HADAMARD, KSTAR, KSTAR_REV,
                   REV, STAR, STAR_REV, SUM, LabeledExpr, size,
                   uses_hadamard_or_kstar, uses_kstar, width)
from .glushkov import glushkov
from .machines import (Dfa, Nfa, OneWayTransducer, SegmentWalk,
                       TwoWayTransducer, _dfa, complement_dfa, determinize,
                       dfa_difference, dfa_intersect, dfa_union, explore,
                       minimize_dfa, run_two_way)
from .parser_build import build_parser, parser_size_formula
from .evaluator_build import build_evaluator, evaluator_size_formula
from .symbols import RIGHT_END, Coded, chars, letter, letters

# ---------------------------------------------------------------------------
# Macro steps of the parser: one letter consumed after parenthesis moves

class MacroStepTable:
    """Per state pair and letter: target pairs reachable with identical
    parenthesis prefixes (same) and with differing outputs (diff).  The
    right endmarker -| is one more letter, read by the final state alone
    into itself, so the end of the word is its last step."""

    def __init__(self, parser: OneWayTransducer):
        self.parser = parser
        self.final = final = next(iter(parser.finals))
        self.index = parser.index
        self.eps = self.index.eps
        self.letter = {**self.index.letter,
                       (final, RIGHT_END): [(final, RIGHT_END, (), final)]}
        # states that finish by parenthesis moves alone: those that read -|
        self._ends = frozenset(self.index.coclosure((final,)))
        self._sync = {}
        self._reach = {RIGHT_END: dict.fromkeys(self._ends,
                                                frozenset((final,)))}

    def reach_letter(self, p, a):
        """States reachable from p by parenthesis moves followed by `a`."""
        by_state = self._reach.get(a)
        if by_state is None:
            step = self.index.step
            by_state = self._reach[a] = self.index.eps_joins(
                lambda q: step((q,), a))
        r = by_state.get(p)
        if r is None:
            r = by_state[p] = frozenset(self.index.step((p,), a))
        return r

    def sync_closure(self, p, q):
        """Pairs reachable while both sides emit the same parentheses."""
        key = (p, q)
        r = self._sync.get(key)
        if r is None:
            r = self._sync[key] = frozenset(explore(key, self._sync_moves)[0])
        return r

    def _sync_moves(self, pair):
        (s, t) = pair
        t_by = {}
        for (_t, _a, o, d) in self.eps.get(t, ()):
            t_by.setdefault(o, []).append(d)
        return [(None, (d1, d2)) for (_s, _a, o, d1) in self.eps.get(s, ())
                for d2 in t_by.get(o, ())]

    def targets(self, p, q, a):
        """(same, diff): the target pairs of runs from (p, q) that read `a`
        after the same parentheses, and after differing ones."""
        (same, diff) = (set(), set())
        reach = self.reach_letter
        for (s, t) in self.sync_closure(p, q):
            s_eps = self.eps.get(s, ())
            t_eps = self.eps.get(t, ())
            s_lets = [m[3] for m in self.letter.get((s, a), ())]
            t_lets = [m[3] for m in self.letter.get((t, a), ())]
            same.update(product(s_lets, t_lets))
            # both sides move on parentheses with different symbols
            for (_s, _a, o1, d1) in s_eps:
                for (_t, _a, o2, d2) in t_eps:
                    if o1 != o2:
                        diff.update(product(reach(d1, a), reach(d2, a)))
            # one side still emits while the other already reads the letter
            if t_lets:
                for (_s, _a, _o, d1) in s_eps:
                    diff.update(product(reach(d1, a), t_lets))
            if s_lets:
                for (_t, _a, _o, d2) in t_eps:
                    diff.update(product(s_lets, reach(d2, a)))
        return same, diff


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
    # its own loop, not `explore`: a callback per state costs it 6-10%
    seen = {(parser.initial, parser.initial, 0)}
    stack = [(parser.initial, parser.initial, 0)]
    while stack:
        (p, q, bit) = stack.pop()
        src = idx(p, q, bit)
        # final: the step on -| parts the runs, or both parted runs read -|
        if (table.targets(p, q, RIGHT_END)[1] if bit == 0
                else p in table._ends and q in table._ends):
            finals.add(src)
        for a in alphabet:
            if bit == 0:
                (same, diff) = table.targets(p, q, a)
                moves = [((d1, d2, 0), a) for (d1, d2) in same]
                moves += [((d1, d2, 1), a) for (d1, d2) in diff]
            else:
                full = table.reach_letter(p, a)
                full2 = table.reach_letter(q, a)
                moves = [((d1, d2, 1), a) for d1 in full for d2 in full2]
            moves.sort()  # so that the listing does not follow set layout
            for (st, x) in moves:
                trans.append((src, x, idx(*st)))
                if st not in seen:
                    seen.add(st)
                    stack.append(st)
    return Nfa(2 * n * n, init, frozenset(finals), trans,
               frozenset(alphabet))


def build_unambiguity_acceptor(dom: Dfa, udom: Dfa) -> Dfa:
    """Minimal complete DFA for the complement of L(B), dom minus udom."""
    return complement_dfa(minimize_dfa(dfa_difference(dom, udom)))


# ---------------------------------------------------------------------------
# Uniformization

class UniformParser:
    """Deterministic selection of one parsing per domain word.

    `unique` decides the unambiguous semantics by itself: it is the
    no-branch mode of the parser's segment walk, whose memos it shares with
    `enumerate_outputs`.

    `parse` is the paper's uniformizer, defined on the whole domain: a
    depth-first walk trying, at each step, the co-reachable successors in a
    fixed global order (spontaneous moves before the letter move, each in
    construction order), visiting each (state, position) at most once; on
    cycle-free parsers this is the plain greedy least-successor walk.
    """

    def __init__(self, parser: OneWayTransducer):
        self.parser = parser
        self.final = next(iter(parser.finals))
        self.walker = parser.walker

    def unique(self, word):
        """The only parsing of `word`, or None when it has none or more
        than one."""
        found = self.walker.outputs(word, True)
        return self.walker.decode(found[0]) if found else None

    def parse(self, word):
        """The selected parsing of `word`, or None outside the domain."""
        syms = letters(word) if isinstance(word, str) else tuple(word)
        n = len(syms)
        co = self.walker.coreach(chars(word))
        if self.parser.initial not in co[0]:
            return None

        eps, letter = self.parser.index.eps, self.parser.index.letter

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

    def pair(h: LabeledExpr) -> tuple[Dfa, Dfa]:
        if h.kind == BASE:
            d = minimize_dfa(determinize(glushkov(h.regex, sigma)))
            return d, d
        if h.kind in (DUP, REV):
            return total, total
        if h.kind in (KSTAR, KSTAR_REV):
            parser = build_parser(h, sigma)
            return _checked_domains(
                parser, build_functionality_checker(parser, sigma))
        (df, uf) = pair(h.left)
        if h.kind in (STAR, STAR_REV):
            dom = minimize_dfa(_star_dfa(df))
            if df.accepts(""):
                return dom, empty
            return dom, minimize_dfa(dfa_difference(_star_dfa(uf),
                                                    _ambiguous_star_dfa(df)))
        (dg, ug) = pair(h.right)
        if h.kind == SUM:
            return (minimize_dfa(dfa_union(df, dg)),
                    minimize_dfa(dfa_union(dfa_difference(uf, dg),
                                           dfa_difference(ug, df))))
        if h.kind == HADAMARD:
            return (minimize_dfa(dfa_intersect(df, dg)),
                    minimize_dfa(dfa_intersect(uf, ug)))
        if h.kind in (CAUCHY, CAUCHY_REV):
            return (minimize_dfa(_cat_dfa(df, dg)),
                    minimize_dfa(dfa_difference(
                        _cat_dfa(uf, ug), _ambiguous_split_dfa(df, dg))))
        raise ValueError(h.kind)

    return pair(h)


def _checked_domains(parser: OneWayTransducer, checker: Nfa):
    """dom and udom of a parser's expression, udom as dom minus L(B)."""
    dom = minimize_dfa(determinize(parser.underlying_nfa()))
    return dom, minimize_dfa(dfa_difference(dom, determinize(checker)))


def _cat_dfa(d1: Dfa, d2: Dfa) -> Dfa:
    """Words u v with u in L(d1) and v in L(d2).

    A state holds d1's state on the word read so far and the set of d2's
    states on the letters since each split after a prefix in L(d1); d2's
    initial state joins the set wherever d1's state is final."""
    (f, ff, g, gf, g0) = (d1.delta, d1.finals, d2.delta, d2.finals,
                          d2.initial)

    def split(s, since):
        return (s, since | {g0}) if s in ff else (s, since)

    def step(state, a):
        (s, since) = state
        return split(f[(s, a)], frozenset(g[(y, a)] for y in since))

    return _dfa(split(d1.initial, frozenset()), step, d1.alphabet,
                lambda state: not gf.isdisjoint(state[1]))


def _ambiguous_split_dfa(df: Dfa, dg: Dfa) -> Dfa:
    """Words u v w with v nonempty, u and uv in L(df), vw and w in L(dg).

    A state holds df's state on the word read so far; for each split
    after a prefix u in L(df), the pair of df's state on uv and dg's on v,
    v the letters since; and for each split after such a uv in L(df), the
    pair of dg's states on vw and on w.  A split after u opens where df's
    state is final, and its pair joins the others at the next letter, so
    v is nonempty."""
    (f, ff, g, gf, g0) = (df.delta, df.finals, dg.delta, dg.finals,
                          dg.initial)

    def step(state, a):
        (s, uv, vw) = state
        opened = uv | {(s, g0)} if s in ff else uv
        uv = frozenset((f[(x, a)], g[(y, a)]) for (x, y) in opened)
        vw = frozenset([(g[(y, a)], g[(z, a)]) for (y, z) in vw]
                       + [(y, g0) for (x, y) in uv if x in ff])
        return (f[(s, a)], uv, vw)

    return _dfa((df.initial, frozenset(), frozenset()), step, df.alphabet,
                lambda state: any(y in gf and z in gf
                                  for (y, z) in state[2]))


def _star_dfa(d: Dfa) -> Dfa:
    """Words that split into factors of L(d), the empty word included.

    A state is the set of d's states on the letters since each split; d's
    initial state joins the set wherever it holds a final state.  The start
    is the empty set, which accepts and steps as if it held d's initial
    state; as d is complete, no later set is empty."""
    (delta, finals, q0) = (d.delta, d.finals, d.initial)

    def step(states, a):
        nxt = frozenset(delta[(q, a)] for q in states or (q0,))
        return nxt if finals.isdisjoint(nxt) else nxt | {q0}

    return _dfa(frozenset(), step, d.alphabet,
                lambda states: not (states and finals.isdisjoint(states)))


def _ambiguous_star_dfa(d: Dfa) -> Dfa:
    """Words with two distinct factorizations into factors of L(d).

    Subsets of triples (p, q, bit): two trackers guess restart points, the
    boundary decision folded into the letter move, so that a one-sided
    restart marks a divergence and sets the bit.  Only sound when L(d)
    excludes the empty word, which the caller ensures."""
    (delta, finals, q0) = (d.delta, d.finals, d.initial)

    def moves(s, a):
        out = [(delta[(s, a)], 0)]
        if s in finals:
            out.append((delta[(q0, a)], 1))
        return out

    def step(states, a):
        return frozenset((p2, q2, bit | (rp != rq)) for (p, q, bit) in states
                         for (p2, rp) in moves(p, a)
                         for (q2, rq) in moves(q, a))

    return _dfa(frozenset({(q0, q0, 0)}), step, d.alphabet,
                lambda states: any(bit and p in finals and q in finals
                                   for (p, q, bit) in states))


# ---------------------------------------------------------------------------
# Staged pipeline

@dataclass
class Pipeline:
    """Built machines for one expression, with staged unambiguous runs.

    The functionality checker, the dom and udom DFAs (`domains`) and the
    acceptor made from them are built on first use and kept; the acceptor
    does not read the checker, and `run_unambiguous` needs none of them."""

    expr: LabeledExpr
    sigma: str
    parser: OneWayTransducer
    evaluator: TwoWayTransducer
    uniformizer: UniformParser

    @cached_property
    def checker(self) -> Nfa:
        return build_functionality_checker(self.parser, self.sigma)

    @cached_property
    def domains(self) -> tuple[Dfa, Dfa]:
        # a chained star at the root reads the pipeline's parser and checker
        if self.expr.kind in (KSTAR, KSTAR_REV):
            return _checked_domains(self.parser, self.checker)
        return domain_dfas(self.expr, self.sigma)

    @cached_property
    def acceptor(self) -> Dfa:
        return build_unambiguity_acceptor(*self.domains)

    def run_unambiguous(self, word: str):
        found = self.parser.walker.outputs(word, True)
        if not found:
            return None
        res = run_two_way(self.evaluator, Coded(found[0]))
        if res.status != "accept":
            raise RuntimeError("evaluator %s on selected parsing of %r"
                               % (res.status, word))
        return res.output

    def run_relational(self, word: str):
        """(values, truncated): the outputs of the evaluator's accepting
        runs on the word's parsings, and whether these were cut off."""
        walker = self.parser.walker
        runs = [run_two_way(self.evaluator, Coded(al))
                for al in walker.outputs(word)]
        return ({r.output for r in runs if r.status == "accept"},
                walker.truncated(word))


def build_pipeline(h: LabeledExpr, sigma: str) -> Pipeline:
    parser = build_parser(h, sigma)
    evaluator = build_evaluator(h, sigma)
    # the walk codes parsings as the evaluator's runs read them
    parser.walker = SegmentWalk(parser, evaluator.code)
    return Pipeline(h, sigma, parser, evaluator, uniformize_parser(parser))


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
    sz, w = size(h), width(h)
    pl = pipeline or build_pipeline(h, sigma)
    (parser, evaluator, checker) = (pl.parser, pl.evaluator, pl.checker)
    p_bound = sz ** w if uses_hadamard_or_kstar(h) else sz
    t_bound = 5 * sz * w if uses_kstar(h) else 5 * sz
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
