"""Automaton and transducer representations with their execution semantics.

Two-way machines follow the between-positions convention: states carry a sign,
a + state reads the first letter of the suffix, a - state the last letter of
the prefix, and a transition (p, a, q) advances the boundary only when q keeps
the head moving in its own direction.  A run on w simulates on |- w -| from
configuration (initial, boundary 0) and accepts in a final state once the
whole tape, right endmarker included, has been consumed.

A two-way run steps through the machine's dense move table, a list with one
row of |code| + 1 slots per state, one column per code and column 0 for no
symbol.  The tape becomes a list of columns, the run's state a row, and each
step one list index, in one loop (`_steps`).  On a tape of at least
`SWEEP_MIN_TAPE` symbols an untraced run takes each sweep, a self-loop that
carries the head across a block in one state, as one regular expression
search and one `str.translate` over the coded tape, from its state's sweep
data.  The move a sweep stops at is a lookup; any other move starts a window
run, the step loop over the codes around the head alone, memoized on the
machine under the row and those codes.  So it costs Python steps per change
of state or fewer, not per symbol.  A pipeline's walk hands its parsings over
coded already, so the run hashes no symbol.

A one-way transducer's outputs on a word come from one forward walk over
memoized segments (`SegmentWalk`), kept on the transducer: all of them for
`enumerate_outputs`, or the only one for the uniformizer's `unique`.  Both
read the same co-reach sets and the same segments, and on a long word the
same blocks of `BLOCK` letters, memoized too, up to the first block that
branches.

Machines derived from others keep only their reachable states, and one
depth-first explorer, `explore`, finds them and numbers them in order of
discovery: the subset construction, DFA products and the reachable pass of
minimization, through the DFA builder `_dfa`, as well as the parser's
product constructions and the functionality checker's synchronized
closures.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from operator import itemgetter
from typing import NamedTuple

from .symbols import LEFT_END, RIGHT_END, Coded, chars, code, letters, render


class MachineError(ValueError):
    pass


# ---------------------------------------------------------------------------
# One-way machines

def _walk(start, adj: dict, pos: int) -> set:
    """The states reachable from `start` in `adj`, which lists each state's
    transition tuples; the next state sits at index `pos` of a tuple."""
    seen = set(start)
    stack = list(start)
    while stack:
        for t in adj.get(stack.pop(), ()):
            d = t[pos]
            if d not in seen:
                seen.add(d)
                stack.append(d)
    return seen


class MoveIndex:
    """The transitions of a one-way machine by state, in construction order.

    Takes (src, sym | None, dst) or (src, sym | None, out, dst) tuples.
    `eps[src]`, `letter[(src, sym)]` and `rev_eps[dst]` list the transition
    tuples, `rev_letter[(dst, sym)]` source states; the last two exist only
    with `reverse`, which would double determinization's memory.
    """

    def __init__(self, transitions, reverse: bool = False):
        # where dst sits in the tuples; t[-1] would miss CPython's fast path
        self.dst_pos = k = len(transitions[0]) - 1 if transitions else 0
        self.eps = {}
        self.letter = {}
        self.rev_eps = {} if reverse else None
        self.rev_letter = {} if reverse else None
        for t in transitions:
            if t[1] is None:
                self.eps.setdefault(t[0], []).append(t)
                if reverse:
                    self.rev_eps.setdefault(t[k], []).append(t)
            else:
                self.letter.setdefault((t[0], t[1]), []).append(t)
                if reverse:
                    self.rev_letter.setdefault((t[k], t[1]), []).append(t[0])

    def closure(self, states) -> set:
        """States reachable from `states` by epsilon moves."""
        return _walk(states, self.eps, self.dst_pos)

    def coclosure(self, states) -> set:
        """States that reach `states` by epsilon moves."""
        return _walk(states, self.rev_eps, 0)

    def eps_components(self):
        """The strongly connected components of the epsilon moves, each
        after every component it reaches, from one pass of Tarjan's
        algorithm without recursion; states with no epsilon move in or out
        are left out."""
        eps, k = self.eps, self.dst_pos
        order, low = {}, {}
        open_, on_open = [], set()
        for root in eps:
            if root in order:
                continue
            order[root] = low[root] = len(order)
            open_.append(root)
            on_open.add(root)
            work = [(root, iter(eps[root]))]
            while work:
                (v, moves) = work[-1]
                for t in moves:
                    d = t[k]
                    if d not in order:
                        order[d] = low[d] = len(order)
                        open_.append(d)
                        on_open.add(d)
                        work.append((d, iter(eps.get(d, ()))))
                        break
                    if d in on_open and order[d] < low[v]:
                        low[v] = order[d]
                else:
                    work.pop()
                    if work and low[v] < low[work[-1][0]]:
                        low[work[-1][0]] = low[v]
                    if low[v] == order[v]:
                        comp = [open_.pop()]
                        while comp[-1] != v:
                            comp.append(open_.pop())
                        on_open.difference_update(comp)
                        yield comp

    @cached_property
    def eps_cyclic(self) -> frozenset:
        """States on a cycle of epsilon moves."""
        eps, k = self.eps, self.dst_pos
        cyclic = set()
        for comp in self.eps_components():
            v = comp[0]
            if len(comp) > 1 or any(t[k] == v for t in eps.get(v, ())):
                cyclic.update(comp)
        return frozenset(cyclic)

    def eps_joins(self, base) -> dict:
        """For every state p with an epsilon move in or out, the union of
        `base(q)` over the states q of `closure((p,))`, in one pass over the
        components: each joins its own states' sets and the joins of the
        components it moves to, which come before it."""
        eps, k = self.eps, self.dst_pos
        out = {}
        for comp in self.eps_components():
            members = set(comp)
            j = set()
            for v in comp:
                j.update(base(v))
                for t in eps.get(v, ()):
                    if t[k] not in members:
                        j.update(out[t[k]])
            j = frozenset(j)
            for v in comp:
                out[v] = j
        return out

    def step(self, states, sym) -> set:
        """Targets of sym-moves out of `states`."""
        letter, k = self.letter, self.dst_pos
        return {t[k] for s in states for t in letter.get((s, sym), ())}

    def back_step(self, states, sym) -> set:
        """Sources of sym-moves into `states`."""
        out = set()
        rev = self.rev_letter
        for s in states:
            out.update(rev.get((s, sym), ()))
        return out


@dataclass
class Nfa:
    """Nondeterministic automaton; `None` input labels are epsilon moves."""

    n_states: int
    initial: int
    finals: frozenset
    transitions: list  # (src, sym | None, dst)
    alphabet: frozenset

    @cached_property
    def index(self) -> MoveIndex:
        """The transitions by state, built on first use and kept; the
        transition list must not change after that."""
        return MoveIndex(self.transitions)


def nfa_accepts(nfa: Nfa, word) -> bool:
    """Subset simulation; `word` is a str or a tuple of symbols."""
    syms = letters(word) if isinstance(word, str) else tuple(word)
    index = nfa.index
    cur = index.closure({nfa.initial})
    for a in syms:
        nxt = index.step(cur, a)
        if not nxt:
            return False
        cur = index.closure(nxt)
    return any(s in nfa.finals for s in cur)


@dataclass
class Dfa:
    """Complete deterministic automaton over its alphabet."""

    n_states: int
    initial: int
    finals: frozenset
    delta: dict  # (state, sym) -> state
    alphabet: frozenset

    def accepts(self, word) -> bool:
        syms = letters(word) if isinstance(word, str) else tuple(word)
        s = self.initial
        for a in syms:
            key = (s, a)
            if key not in self.delta:
                return False
            s = self.delta[key]
        return s in self.finals

    def is_complete(self) -> bool:
        return all((s, a) in self.delta
                   for s in range(self.n_states) for a in self.alphabet)


def explore(start, step) -> tuple:
    """The states reachable from `start`, depth first.  `step(state)` lists
    the state's moves as (label, state) pairs.  States are numbered in
    order of discovery, `start` 0; the last state found is expanded first,
    its moves taken in the order `step` lists them.  Returns the states by
    number and the moves as (source, label, target), states by number, in
    the order taken."""
    number = {start: 0}
    states = [start]
    moves = []
    todo = [0]
    while todo:
        src = todo.pop()
        for (label, d) in step(states[src]):
            dst = number.get(d)
            if dst is None:
                dst = number[d] = len(states)
                states.append(d)
                todo.append(dst)
            moves.append((src, label, dst))
    return states, moves


def _dfa(start, step, alphabet, final) -> Dfa:
    """The complete DFA of the states reachable from `start`, where
    `step(state, a)` is the state after `a` and `final(state)` its
    acceptance; numbered by `explore` over the sorted alphabet, so the
    numbering does not depend on the hash seed."""
    ordered = sorted(alphabet)
    (states, moves) = explore(
        start, lambda s: [(a, step(s, a)) for a in ordered])
    finals = frozenset(i for (i, s) in enumerate(states) if final(s))
    return Dfa(len(states), 0, finals,
               {(src, a): dst for (src, a, dst) in moves},
               frozenset(alphabet))


def determinize(nfa: Nfa) -> Dfa:
    """Powerset construction with epsilon closure; result is complete.  The
    index is built here rather than read from `nfa.index`, so that it is
    not kept on the automaton."""
    moves = MoveIndex(nfa.transitions)
    (closure, step, finals) = (moves.closure, moves.step, nfa.finals)
    return _dfa(frozenset(closure({nfa.initial})),
                lambda s, a: frozenset(closure(step(s, a))), nfa.alphabet,
                lambda s: any(q in finals for q in s))


def complement_dfa(d: Dfa) -> Dfa:
    if not d.is_complete():
        raise MachineError("complement needs a complete DFA")
    finals = frozenset(s for s in range(d.n_states) if s not in d.finals)
    return Dfa(d.n_states, d.initial, finals, dict(d.delta), d.alphabet)


def dfa_product(d1: Dfa, d2: Dfa, accept) -> Dfa:
    """Product automaton; `accept(f1, f2)` decides finality per pair."""
    if d1.alphabet != d2.alphabet:
        raise MachineError("product over mismatched alphabets")
    (t1, t2, f1, f2) = (d1.delta, d2.delta, d1.finals, d2.finals)
    return _dfa((d1.initial, d2.initial),
                lambda s, a: (t1[(s[0], a)], t2[(s[1], a)]), d1.alphabet,
                lambda s: accept(s[0] in f1, s[1] in f2))


def dfa_intersect(d1: Dfa, d2: Dfa) -> Dfa:
    return dfa_product(d1, d2, lambda a, b: a and b)


def dfa_union(d1: Dfa, d2: Dfa) -> Dfa:
    return dfa_product(d1, d2, lambda a, b: a or b)


def dfa_difference(d1: Dfa, d2: Dfa) -> Dfa:
    return dfa_product(d1, d2, lambda a, b: a and not b)


def minimize_dfa(d: Dfa) -> Dfa:
    """Moore partition refinement on the reachable part; blocks are
    numbered in the order of their least state."""
    alpha = sorted(d.alphabet)
    states = sorted(explore(d.initial, lambda s: [(a, d.delta[(s, a)])
                                                   for a in alpha])[0])
    succ = {s: [d.delta[(s, a)] for a in alpha] for s in states}
    block = {s: int(s in d.finals) for s in states}
    count = len(set(block.values()))
    while True:
        classes = {}
        # a state's signature: its block and its successors' blocks
        block = {s: classes.setdefault(
                     (block[s], *map(block.__getitem__, succ[s])),
                     len(classes))
                 for s in states}
        if len(classes) == count:
            break
        count = len(classes)
    delta = {(block[s], a): block[t]
             for s in states for (a, t) in zip(alpha, succ[s])}
    finals = frozenset(block[s] for s in states if s in d.finals)
    return Dfa(count, block[d.initial], finals, delta, d.alphabet)


# ---------------------------------------------------------------------------
# One-way transducers

# The most states a `SegmentWalk`'s state sets hold, and the most segments
# or entries of a block memo it keeps; past any, its memos start over.  At
# 33 to 73 bytes a state in a frozenset the first is 4 to 10 MB per
# transducer, at about 700 bytes a segment the second about 90 MB, and at
# 150 and 300 bytes a block entry 20 and 40 MB.  One pass of both semantics
# over the acceptance corpus (200 parsers, 127 words each) leaves 4,861
# states, at most 241 in one parser, and 2,436 segments.  Also the most
# window runs a two-way transducer keeps: at 130 to 170 bytes, 22 MB.
COREACH_MEMO_STATES = 1 << 17

# The letters of a block of a long word's walks.  Blocks
# of 4 to 7 letters cut a long-words pass from 34 to 21-23 ms, 8 and 16 less
# as long blocks over {a, b} rarely repeat (CHANGES.md).
BLOCK = 6


@dataclass
class OneWayTransducer:
    """1NFT with epsilon input moves; outputs are tuples of symbols."""

    n_states: int
    initial: int
    finals: frozenset
    transitions: list  # (src, insym | None, out_tuple, dst)
    input_alphabet: frozenset

    def underlying_nfa(self) -> Nfa:
        trans = [(s, a, t) for (s, a, _o, t) in self.transitions]
        return Nfa(self.n_states, self.initial, self.finals, trans,
                   self.input_alphabet)

    @cached_property
    def index(self) -> MoveIndex:
        """The transitions between useful states (reachable and
        co-reachable), in construction order and by state both ways, built
        on first use and kept; the transition list must not change after
        that.  No accepting run uses another move."""
        fwd, bwd = {}, {}
        for t in self.transitions:
            fwd.setdefault(t[0], []).append(t)
            bwd.setdefault(t[3], []).append(t)
        useful = (_walk({self.initial}, fwd, 3)
                  & _walk(set(self.finals), bwd, 0))
        return MoveIndex([t for t in self.transitions
                          if t[0] in useful and t[3] in useful], reverse=True)

    @cached_property
    def walker(self) -> SegmentWalk:
        """The memoized walk over the index, in the code of the output
        symbols, built on first use and kept; a pipeline sets its own."""
        return SegmentWalk(self, code({s for tr in self.transitions
                                       for s in tr[2]}))


class _Codes(dict):
    """The coded string of each output tuple: of each one-symbol tuple from
    the start, of any other from its first lookup."""

    def __init__(self, code: dict):
        super().__init__(((s,), c) for (s, c) in code.items())
        self.code = code

    def __missing__(self, out):
        v = self[out] = "".join(map(self.code.__getitem__, out))
        return v


class SegmentWalk:
    """All outputs of a one-way transducer on a word, or its only one, from
    one forward walk over segments memoized across words.

    Outputs are strings in the `code` of the output symbols the walker is
    given before its first use; `decode` gives their symbols.  Segments
    group moves by coded output, whose hash Python keeps, not by tuple.

    A backward pass gives the co-reachable states per position: each set
    depends only on the next one and the letter between, so the sets are
    the states of a subset automaton over the reversed word, memoized too.
    The walk follows nodes, sets of co-reachable states sharing one output
    prefix, cut into segments, one per position: from the node entering
    position t, the spontaneous moves inside t, branching on their outputs,
    then the letter move into the co-reach set after t, or the stop after
    the last letter.  A segment depends only on its entry node, that next
    set and the letter, and is kept under them as one flat tuple (chunk,
    node, chunk, node, ...) of its branches' coded outputs and next nodes
    (None for a stop), plus a last True if it has a live epsilon cycle.
    Nodes are interned, so keys and values share them; keys hold letters
    as characters.  As each move emits one symbol, as a parser's do,
    distinct branches end in distinct outputs.  Each segment is worked out
    once, in full, by whichever walk meets it first.

    A path of more spontaneous moves than there are states with such moves
    repeats a state on a live, pumpable cycle.  Only then is the segment
    worked out again with each configuration carrying its epsilon run,
    cutting a move back into the run, as a run-by-run walk would.

    Every walk goes forward through `_chain`, which follows segments of
    one branch.  On a word of `SWEEP_MIN_TAPE` letters or more both walks
    take its whole blocks of BLOCK letters through two more memos: a
    block's start set under (end set, block), and its chain's coded chunk
    and exit node, or () if the chain stopped inside the block, under
    (entry node, end set, block), exact as the sets inside a block follow
    from its end set.  From a () block on, the walks go on by segments.
    All memos start over once the state sets hold more than
    COREACH_MEMO_STATES states or a memo of segments or blocks more
    entries than that.
    """

    def __init__(self, t: OneWayTransducer, code: dict):
        self.index = t.index
        self.finals = t.finals
        self.end = frozenset(self.index.coclosure(t.finals))
        self.start = frozenset((t.initial,))
        # the transducer's own letter symbols, by character
        self.letters = {a[1]: a for a in t.input_alphabet}
        self.code = code
        # decode's table, the symbol of each code, built on its first call.
        # Not a cached_property: that writes through the instance __dict__,
        # which CPython then keeps as a real dict, and every later
        # attribute read of the walk's hot loop gets slower.
        self.symbols = None
        self.coded = _Codes(code)
        self.coreach_sets = {}
        self.forward_sets = {}
        self.held = 0
        self.segments = {}
        self.interned = {}
        self.block_sets = {}
        self.block_steps = {}

    def decode(self, word) -> tuple:
        """The symbols of a coded output."""
        symbols = self.symbols
        if symbols is None:
            symbols = self.symbols = dict(zip(self.code.values(), self.code))
        if len(word) > 1:  # then itemgetter gives a tuple, and fast
            return itemgetter(*word)(symbols)
        return tuple(map(symbols.__getitem__, word))

    def _hold(self, states):
        self.held += len(states)
        if self.held > COREACH_MEMO_STATES:
            self._forget()

    def _forget(self):
        for memo in (self.coreach_sets, self.forward_sets, self.segments,
                     self.interned, self.block_sets, self.block_steps):
            memo.clear()
        self.held = 0

    def coreach(self, word, end=None) -> list:
        """Co-reachable states per position, through the kept memo; after
        the last letter `end`, by default the states that can stop."""
        (index, memo, letters) = (self.index, self.coreach_sets, self.letters)
        co = [None] * (len(word) + 1)
        cur = co[-1] = self.end if end is None else end
        for t in range(len(word) - 1, -1, -1):
            key = (cur, word[t])
            prev = memo.get(key)
            if prev is None:
                prev = memo[key] = frozenset(index.coclosure(
                    index.back_step(cur, letters.get(word[t]))))
                self._hold(prev)
            co[t] = cur = prev
        return co

    def truncated(self, word) -> bool:
        """Whether a state on a cycle of epsilon moves is reachable on the
        way through `word`, so that the output set may be infinite; outside
        the domain too, as far as the word can be read."""
        index, memo = self.index, self.forward_sets
        cyclic = index.eps_cyclic
        cur = frozenset(index.closure(self.start)) if cyclic else frozenset()
        for a in chars(word):
            if not cur or not cyclic.isdisjoint(cur):
                break
            nxt = memo.get((cur, a))
            if nxt is None:
                nxt = memo[(cur, a)] = frozenset(
                    index.closure(index.step(cur, self.letters.get(a))))
                self._hold(nxt)
            cur = nxt
        return not cyclic.isdisjoint(cur)

    def outputs(self, word, one=False) -> list:
        """The outputs on `word`, a str or a tuple of symbols, each as a
        coded string.  With `one`, the word's only output, or none when
        it has none or more than one: the walk is one `_chain` over the
        word and its stop, refused if it, or a block's, stops short.  That
        is exact, because from a live node without a live epsilon cycle
        every branch ends in an output.  Without `one`, the walk is a stack
        of chains, one per branch of the segment each chain stopped at.  A
        long word's whole blocks are taken a block at a time first."""
        word = chars(word)
        (node, out) = (self.start, [])
        if len(word) >= SWEEP_MIN_TAPE:
            # the first m letters, m a multiple of BLOCK, a block at a time
            m = len(word) // BLOCK * BLOCK
            co = self.coreach(word[m:])
            (out, node, p) = self._blocks(word[:m], co[0])
            if node is None or one and p < m:
                return []
            co[:1] = self.coreach(word[p:m], co[0])
            word = word[p:]
        else:
            co = self.coreach(word)
        if node.isdisjoint(co[0]):
            return []
        # past the last letter the walk can only stop
        co.append(None)
        word = (*word, None)
        # pending branches: (position, node, prefix length, own output)
        (found, stack, t) = ([], [], 0)
        while True:
            (chunk, node, t, step) = self._chain(node, co, word, t)
            out.append(chunk)
            if step is None:  # the chain took the stop
                found.append("".join(out))
            elif one:
                return []
            else:
                depth = len(out)
                stack += [(t + 1, nxt, depth, chunk) for (chunk, nxt)
                          in zip(step[0::2], step[1::2])]
            if not stack:
                return found
            (t, node, depth, chunk) = stack.pop()
            del out[depth:]
            out.append(chunk)

    def _blocks(self, word, cur):
        """The walk through the blocks of `word`, with `cur` the co-reach
        set after them, up to the first block whose `_chain` stops short of
        its end: (chunks, node, position of that block or len(word)), node
        None where the word is outside the domain.  A block's chain is
        kept as (coded chunk, exit node), or () if it stopped short."""
        (sets, steps, ends) = (self.block_sets, self.block_steps, [])
        blocks = [word[i:i + BLOCK] for i in range(0, len(word), BLOCK)]
        kept = {}  # the letters' sets of blocks the backward pass missed
        for b in reversed(blocks):
            ends.append(cur)
            prev = sets.get((cur, b))
            if prev is None:
                co = kept[(cur, b)] = self.coreach(b, cur)
                prev = self._keep(sets, (cur, b), co[0])
            cur = prev
        (node, out) = (self.start, [])
        if node.isdisjoint(cur):
            return (out, None, 0)
        for (i, b) in enumerate(blocks):
            key = (node, ends.pop(), b)
            step = steps.get(key)
            if step is None:
                co = kept.get(key[1:]) or self.coreach(b, key[1])
                (chunk, nxt, _t, stop) = self._chain(node, co, b, 0)
                step = self._keep(steps, key, (chunk, nxt) if stop is None
                                  else ())
            if not step:
                return (out, node, i * BLOCK)
            out.append(step[0])
            node = step[1]
        return (out, node, len(word))

    def _chain(self, node, co, word, t):
        """The walk from `node` at position t of `word`, with `co` its
        co-reach sets, through segments of one branch: (coded chunk, node,
        position, segment) at the first segment of other than one branch
        or with a live cycle, or (chunk, node, len(word), None) at the end.
        A last letter None takes the stop, whose next node is None."""
        (seg, out) = (self.segments, [])
        for t in range(t, len(word)):
            key = (node, co[t + 1], word[t])
            step = seg.get(key)
            if step is None:
                step = self._keep(seg, key, self._segment(
                    node, co[t], co[t + 1], word[t]))
            if len(step) != 2:
                return ("".join(out), node, t, step)
            (chunk, node) = step
            out.append(chunk)
        return ("".join(out), node, len(word), None)

    def _keep(self, memo, key, value):
        """`value`, stored under `key` in a memo kept to the cap."""
        memo[key] = value
        if len(memo) > COREACH_MEMO_STATES:
            self._forget()
        return value

    def _segment(self, node, here, there, a, runs=False):
        """The segment from `node` inside the co-reach set `here` into
        `there` on `a`, or to the stop when `a` is None.  The memo key
        leaves out `here`, the co-reach step of `there` on `a` (the end set
        when `a` is None)."""
        (eps, letter) = (self.index.eps, self.index.letter)
        (coded, sym) = (self.coded, self.letters.get(a))
        interned = self.interned.setdefault
        bound = len(self.index.eps)
        # with runs, a configuration is (state, states of its epsilon run)
        entry = frozenset((s, frozenset((s,))) for s in node) if runs \
            else node
        value = []
        todo = [("", entry, 0)]
        while todo:
            (chunk, node, k) = todo.pop()
            # a node with one child hands over to it in place
            while True:
                if k > bound:
                    return self._segment(entry, here, there, a, runs=True)
                states = {s for (s, _run) in node} if runs else node
                if a is None:
                    if not self.finals.isdisjoint(states):
                        value += (chunk, None)
                else:
                    moved = {}
                    for s in states:
                        for (_s, _a, o, d) in letter.get((s, sym), ()):
                            if d in there:
                                moved.setdefault(coded[o], set()).add(d)
                    for (o, m) in moved.items():
                        m = frozenset(m)
                        value += (chunk + o, interned(m, m))
                groups = {}
                if runs:
                    for (s, run) in node:
                        for (_s, _a, o, d) in eps.get(s, ()):
                            if d in here and d not in run:
                                groups.setdefault(coded[o], set()).add(
                                    (d, run | {d}))
                else:
                    for s in node:
                        for (_s, _a, o, d) in eps.get(s, ()):
                            if d in here:
                                groups.setdefault(coded[o], set()).add(d)
                if len(groups) != 1:
                    break
                ((o, node),) = groups.items()
                chunk += o
                k += 1
            for (o, g) in groups.items():
                todo.append((chunk + o, g, k + 1))
        return tuple(value + [True]) if runs else tuple(value)


@dataclass
class EnumResult:
    outputs: set
    truncated: bool = False


def enumerate_outputs(t: OneWayTransducer, word) -> EnumResult:
    """All outputs of t on `word`, from the transducer's segment walk.  The
    truncated flag is set when a state on a cycle of epsilon moves, which
    could be pumped, is reachable; the outputs are then those of the runs
    cut where an epsilon run would revisit a state."""
    walker = t.walker
    return EnumResult(set(map(walker.decode, walker.outputs(word))),
                      walker.truncated(word))


# ---------------------------------------------------------------------------
# Two-way transducers

@dataclass
class TwoWayTransducer:
    """2NFT over signed states; delta maps (state, sym) to [(dst, out_str)]."""

    n_states: int
    signs: list  # +1 forward, -1 backward
    initial: int
    finals: frozenset
    delta: dict
    input_alphabet: frozenset

    @cached_property
    def code(self) -> dict:
        """Each input symbol's one-character code (`symbols.code`); `table`
        adds codes after these for any other symbol delta reads."""
        return code(self.input_alphabet)

    @cached_property
    def table(self) -> tuple:
        """(index, moves, multi, width): the dense, state-major move table.
        `table` first gives each symbol delta reads outside the alphabet a
        code after the others, then `width` is len(code) + 1.  `index` maps
        each symbol and each code to its column, the code's number i for
        chr(i); column 0 is no symbol.  `moves` has width slots per state:
        the single move of delta on (state, symbol) sits at the row
        state * width plus the symbol's column, as (dst * width, out, sign
        of dst), the next row and how far the read position moves; every
        other slot, column 0 included, is None.  `multi` holds the symbol of
        each slot with more moves.  So the table costs n_states * width
        slots, 8 bytes each, whatever the number of moves: 1.07 M for the
        evaluator of `prefix_sum(299)`, 2.91 M in place of a dict of 2.16 M
        moves for that of `kstar{200, ...}` (README).  Built on the first
        run and kept, like `sweeps` on the first long tape; delta must not
        change after that."""
        codes = self.code
        for (_state, sym) in self.delta:
            if sym not in codes:
                codes[sym] = chr(len(codes) + 1)
        width = len(codes) + 1
        index = {}
        for (sym, c) in codes.items():
            index[sym] = index[c] = ord(c)
        moves, multi = [None] * (self.n_states * width), {}
        shared = {}  # many moves share one entry, such as a scan's loop
        for (state, sym), ms in self.delta.items():
            at = state * width + index[sym]
            if len(ms) == 1:
                (dst, out) = ms[0]
                move = (dst * width, out, self.signs[dst])
                moves[at] = shared.setdefault(move, move)
            elif ms:
                multi[at] = sym
        return index, moves, multi, width

    @cached_property
    def sweeps(self) -> tuple:
        """(loops, windows): what `run_two_way` reads besides `table` on a
        long tape, built on the first one and kept.  `loops` maps the row
        of each state with a self-loop in delta to (search, outs): `search`
        is the bound search method of a compiled `[^...]` class of the codes
        the state does not loop on, and `outs` the `str.translate` table
        from each loop code to its output (None for an empty one), or None
        when no loop of the state emits anything.  `windows` is the memo of
        window runs, filled by the runs."""
        (index, _moves, _multi, width) = self.table
        outs = {}
        for (state, sym), ms in self.delta.items():
            if len(ms) == 1 and ms[0][0] == state:
                outs.setdefault(state, {})[index[sym]] = ms[0][1]
        loops = {}
        for state, by_code in outs.items():
            cls = "".join(re.escape(chr(c)) for c in by_code)
            # None deletes a code; unlike "", it keeps translate's fast path
            tr = {c: o or None for c, o in by_code.items()}
            loops[state * width] = (re.compile("[^%s]" % cls).search,
                                    tr if any(tr.values()) else None)
        return loops, {}


class Configuration(NamedTuple):
    """Between-positions configuration: boundary index into |- w -|."""

    state: int
    boundary: int


@dataclass
class TwoWayResult:
    status: str  # "accept" | "reject" | "loop"
    output: str | None = None
    trace: list = field(default_factory=list)


def _read_position(sign: int, boundary: int) -> int:
    # tape index read by a state at `boundary`; -1 when off tape
    return boundary if sign > 0 else boundary - 1


# Tapes (word plus endmarkers) shorter than this take every step by table
# lookup, and neither the tape's coding nor `TwoWayTransducer.sweeps` is
# built for them.  Building the sweep data costs more than short sweeps
# save: on the compile-heavy benchmark (seeds 1-3, 20-second runs, 2-core
# VM, Python 3.11), a gate at 64 read `ueval_tail_ms` 16%, 3% and 12%
# higher than this gate, as it paid that build on each evaluator's first
# run.  Corpus-short and compile-heavy tapes have at most 70 and 128
# symbols, so at 256 they never sweep.
SWEEP_MIN_TAPE = 256

# The half-width of a window: a window run reads the 2 * WINDOW + 1 codes
# centred on the head, five letters of the long-words star product's
# parsings.  Wider windows ran faster on words seen before and slower on new
# ones (CHANGES.md).
WINDOW = 12


def run_two_way(t: TwoWayTransducer, word,
                want_trace: bool = False) -> TwoWayResult:
    """Simulate the deterministic machine t on |- word -|, where `word` is
    a str of letters, a tuple of symbols, or a `Coded` string in `t.code`.

    The tape becomes the list of its columns in `t.table`, one `index`
    lookup per symbol or code, with one 0 appended; a coded word is the
    tape as it is, with no symbol hashed.  Column 0 is no symbol and holds
    no move: both off-tape positions, -1 and n, read it from that last
    entry, and so do the chr(0) padding, a symbol outside the alphabet and
    a code of none.  A short or traced run steps by one list index per
    step (`_steps`), as a trace lists each configuration anyway.
    An untraced run on a tape of `SWEEP_MIN_TAPE` symbols or more, coded
    first if it is one of symbols, takes self-loops by sweeps, the move a
    sweep stops at by lookup and any other move by a window run memoized
    on the machine (`_run_long`), so it costs Python steps per change of
    state or fewer, not per symbol.  A run longer than the number of
    configurations, n_states * (|w| + 3), counting every step a sweep or a
    window run passes, has repeated one and loops forever, so it stops
    there as "loop"; a configuration with more than one move raises
    MachineError.  Acceptance needs a final state with the whole tape,
    right endmarker included, consumed.  Status and output are those of
    the step-by-step run.
    """
    (index, table, multi, width) = t.table
    if isinstance(word, Coded):
        # chr(0), a code of no symbol, for an endmarker outside the alphabet
        tape = "%s%s%s" % (t.code.get(LEFT_END, "\0"), word,
                           t.code.get(RIGHT_END, "\0"))
    else:
        syms = letters(word) if isinstance(word, str) else tuple(word)
        tape = (LEFT_END,) + syms + (RIGHT_END,)
        if len(tape) >= SWEEP_MIN_TAPE and not want_trace:
            # coded first, so that each symbol is hashed once
            tape = "".join(map(t.code.get, tape, repeat("\0")))
    n = len(tape)
    bound = t.n_states * (n + 1)
    # a long run reads the tape padded with WINDOW chr(0) on each side, so
    # that every window around the head lies in it; position p is index
    # p + off
    off = WINDOW if n >= SWEEP_MIN_TAPE and not want_trace else 0
    if off:
        tape = "%s%s%s" % ("\0" * off, tape, "\0" * off)
    # the column per read position, and a last 0 for positions -1 and n
    base = list(map(index.get, tape, repeat(0)))
    base.append(0)
    state = t.initial
    pos = _read_position(t.signs[state], 0) + off
    trace = [Configuration(state, 0)] if want_trace else []
    (row, pos, out, steps) = (
        _run_long(t, tape, base, state * width, pos, bound) if off else
        _steps(table, width, base, state * width, pos, bound,
               trace if want_trace else None))
    if steps >= bound:
        # more steps than there are configurations with a move, n_states per
        # tape position: the run has repeated one and never ends
        return TwoWayResult("loop", None, trace)
    # The run stopped in a configuration with no single move.  Only a +
    # state at position n, past the right endmarker, can accept, and there
    # it has no move.  A - state never reaches boundary n, as it would have
    # to come from a + state at n or a - state at n + 1.  So a
    # configuration with a move never accepts.
    if pos - off == n and row // width in t.finals:
        return TwoWayResult("accept", out, trace)
    sym = multi.get(base[pos] + row)
    if sym is not None:
        state = row // width
        raise MachineError("state %d has %d moves on %s"
                           % (state, len(t.delta[(state, sym)]), render(sym)))
    return TwoWayResult("reject", None, trace)


def _steps(table: list, width: int, base: list, row: int, pos: int,
           limit: int, trace: list | None = None) -> tuple:
    """The run from the state of `row` reading index `pos` of a tape whose
    columns are `base`, one index of the move table `table` per step,
    until a slot holds no single move or `limit` steps are taken: (row,
    pos, output, steps).  Off the tape, on either side, the last entry of
    `base`, column 0, gives an empty slot.  With `trace`, each
    configuration the run reaches is appended to it."""
    out = []
    for steps in range(limit):
        move = table[base[pos] + row]
        if move is None:
            return row, pos, "".join(out), steps
        (row, o, d) = move
        pos += d
        if o:
            out.append(o)
        if trace is not None:
            trace.append(Configuration(row // width, pos + (d < 0)))
    return row, pos, "".join(out), limit


def _run_long(t: TwoWayTransducer, s: str, base: list, row: int,
              pos: int, limit: int) -> tuple:
    """The untraced run on the padded coded tape `s`, whose columns are
    `base`, from the state of `row` reading index `pos` until a
    configuration has no single move or `limit` steps are taken: (row,
    pos, output, steps).

    A self-loop move starts a sweep: one search of `s` (reversed for a -
    state) finds the first code the state does not loop on, the head jumps
    there, and one translate of the passed codes gives the output.  No
    loop class holds chr(0) or the code of a foreign or nondeterministic
    symbol, so each configuration a sweep skips has the loop as its one
    move and lies on the tape, where it does not accept.  The move a sweep
    stops at is taken by lookup.  Any other move takes the window run of
    the row and the 2 * WINDOW + 1 codes centred on the head, memoized
    on the machine: the `_steps` run on those codes alone, which reads
    nothing else (Shepherdson 1959), up to where the head leaves them; a
    loop that reaches their edge then sweeps on from there.  It is False
    when it takes as many steps as the window has configurations with the
    head still inside: it has repeated one and never ends.
    """
    (_index, table, _multi, width) = t.table
    (loops, windows) = t.sweeps
    # a window's codes and configurations, and the column off its ends
    span = 2 * WINDOW + 1
    cap = t.n_states * span
    outside = [0]
    rev = s[::-1]
    last = len(s) - 1
    out = []
    steps = 0
    swept = False
    # The head never leaves `s` and a sweep always finds a stop: the
    # WINDOW chr(0) on each side have no move, and no loop class holds
    # chr(0), so the run and each sweep stop in the padding at the latest.
    while steps < limit:
        move = table[base[pos] + row]
        if move is None:
            break
        if move[0] == row:
            (search, tr) = loops[row]
            d = move[2]
            (x, i) = (s, pos) if d > 0 else (rev, last - pos)
            m = search(x, i + 1).start() - i
            if tr is not None:
                out.append(x[i:i + m].translate(tr))
            pos += m * d
            steps += m
            swept = True
        elif swept:
            (row, o, d) = move
            pos += d
            if o:
                out.append(o)
            steps += 1
            swept = False
        else:
            key = (row, s[pos - WINDOW:pos + WINDOW + 1])
            run = windows.get(key)
            if run is None:
                if len(windows) >= COREACH_MEMO_STATES:
                    windows.clear()
                (q, p, o, m) = _steps(
                    table, width, base[pos - WINDOW:pos + WINDOW + 1]
                    + outside, row, WINDOW, cap)
                run = windows[key] = False if m == cap and 0 <= p < span \
                    else (q, p - WINDOW, o, m)
            if run is False:
                return row, pos, None, limit
            (row, shift, o, m) = run
            pos += shift
            if o:
                out.append(o)
            steps += m
    return row, pos, "".join(out), steps


def audit_trace(t: TwoWayTransducer, word, trace) -> bool:
    """Check a trace against the successor relation, step by step."""
    syms = letters(word) if isinstance(word, str) else tuple(word)
    tape = (LEFT_END,) + syms + (RIGHT_END,)
    delta, signs = t.delta, t.signs
    for ((state, boundary), (nstate, nboundary)) in zip(trace, trace[1:]):
        pos = _read_position(signs[state], boundary)
        if pos < 0 or pos >= len(tape):
            return False
        if nstate not in [d for (d, _o) in delta.get((state, tape[pos]), ())]:
            return False
        if signs[state] > 0:
            want = boundary + 1 if signs[nstate] > 0 else boundary
        else:
            want = boundary if signs[nstate] > 0 else boundary - 1
        if nboundary != want:
            return False
    return True


# ---------------------------------------------------------------------------
# Structural predicates

def _edges(m):
    if isinstance(m, TwoWayTransducer):
        return ((src, sym, dst) for (src, sym), moves in m.delta.items()
                for (dst, _o) in moves)
    if isinstance(m, OneWayTransducer):
        return ((src, sym, dst) for (src, sym, _o, dst) in m.transitions)
    if isinstance(m, Nfa):
        return iter(m.transitions)
    if isinstance(m, Dfa):
        return ((s, a, t) for ((s, a), t) in m.delta.items())
    raise MachineError("unsupported machine type: %r" % type(m))


def is_deterministic(m) -> bool:
    seen = set()
    for (src, sym, _dst) in _edges(m):
        if (src, sym) in seen:
            return False
        seen.add((src, sym))
    return True


def is_codeterministic(m) -> bool:
    finals = m.finals
    if len(finals) != 1:
        return False
    seen = set()
    for (_src, sym, dst) in _edges(m):
        if (sym, dst) in seen:
            return False
        seen.add((sym, dst))
    return True


def is_reversible(m) -> bool:
    return is_deterministic(m) and is_codeterministic(m)


# ---------------------------------------------------------------------------
# Export

def _sym_label(sym) -> str:
    if sym is None:
        return "eps"
    return render(sym)


def _out_label(out) -> str:
    if isinstance(out, str):
        return out if out else "eps"
    if not out:
        return "eps"
    return " ".join(render(s) for s in out)


def to_dot(m, name: str = "machine") -> str:
    """Graphviz text.  Node lines cover the initial state, the finals and
    the states that appear in a transition, not the whole nominal range."""
    if isinstance(m, TwoWayTransducer):
        edges = [(src, dst, "%s | %s" % (_sym_label(sym), _out_label(out)))
                 for (src, sym), moves in sorted(m.delta.items(), key=str)
                 for (dst, out) in moves]
    elif isinstance(m, OneWayTransducer):
        edges = [(src, dst, "%s | %s" % (_sym_label(sym), _out_label(out)))
                 for (src, sym, out, dst) in m.transitions]
    elif isinstance(m, (Nfa, Dfa)):
        edges = [(src, dst, _sym_label(sym)) for (src, sym, dst) in _edges(m)]
    else:
        raise MachineError("unsupported machine type: %r" % type(m))
    used = {m.initial} | set(m.finals)
    for (src, dst, _label) in edges:
        used.update((src, dst))
    lines = ["digraph %s {" % name, "  rankdir=LR;", '  start [shape=none label=""];']
    for s in sorted(used):
        shape = "doublecircle" if s in m.finals else "circle"
        sign = ""
        if isinstance(m, TwoWayTransducer):
            sign = "+" if m.signs[s] > 0 else "-"
        lines.append('  %d [shape=%s label="%d%s"];' % (s, shape, s, sign))
    lines.append("  start -> %d;" % m.initial)
    lines.extend('  %d -> %d [label="%s"];' % e for e in edges)
    lines.append("}")
    return "\n".join(lines)


def _sym_json(sym):
    return None if sym is None else render(sym)


def to_json_dict(m) -> dict:
    """Stable JSON schema; symbols use the documented ASCII rendering."""
    if isinstance(m, TwoWayTransducer):
        return {
            "type": "2nft",
            "states": m.n_states,
            "signs": ["+" if s > 0 else "-" for s in m.signs],
            "initial": m.initial,
            "finals": sorted(m.finals),
            "transitions": [
                {"src": src, "in": _sym_json(sym), "dst": dst, "out": out}
                for (src, sym), moves in sorted(m.delta.items(), key=str)
                for (dst, out) in moves
            ],
        }
    if isinstance(m, OneWayTransducer):
        return {
            "type": "1nft",
            "states": m.n_states,
            "initial": m.initial,
            "finals": sorted(m.finals),
            "transitions": [
                {"src": src, "in": _sym_json(sym),
                 "out": [render(s) for s in out], "dst": dst}
                for (src, sym, out, dst) in m.transitions
            ],
        }
    if isinstance(m, Nfa):
        return {
            "type": "nfa",
            "states": m.n_states,
            "initial": m.initial,
            "finals": sorted(m.finals),
            "transitions": [
                {"src": src, "in": _sym_json(sym), "dst": dst}
                for (src, sym, dst) in m.transitions
            ],
        }
    if isinstance(m, Dfa):
        return {
            "type": "dfa",
            "states": m.n_states,
            "initial": m.initial,
            "finals": sorted(m.finals),
            "transitions": [
                {"src": src, "in": _sym_json(sym), "dst": dst}
                for ((src, sym), dst) in sorted(m.delta.items(), key=str)
            ],
        }
    raise MachineError("unsupported machine type: %r" % type(m))
