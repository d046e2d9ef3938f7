"""Automaton and transducer representations with their execution semantics.

Two-way machines follow the between-positions convention: states carry a sign,
a + state reads the first letter of the suffix, a - state the last letter of
the prefix, and a transition (p, a, q) advances the boundary only when q keeps
the head moving in its own direction.  A run on w simulates on |- w -| from
configuration (initial, boundary 0) and accepts in a final state once the
whole tape, right endmarker included, has been consumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from .symbols import LEFT_END, RIGHT_END, Sym, letters, render


class MachineError(ValueError):
    pass


# ---------------------------------------------------------------------------
# One-way machines

class MoveIndex:
    """The transitions of a one-way machine by state, in construction order.

    Takes (src, sym | None, dst) or (src, sym | None, out, dst) tuples.
    `eps[src]` and `letter[(src, sym)]` list the transition tuples;
    `rev_eps[dst]` and `rev_letter[(dst, sym)]` list source states and exist
    only with `reverse`, which would double determinization's memory.
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
                    self.rev_eps.setdefault(t[k], []).append(t[0])
            else:
                self.letter.setdefault((t[0], t[1]), []).append(t)
                if reverse:
                    self.rev_letter.setdefault((t[k], t[1]), []).append(t[0])

    def closure(self, states) -> set:
        """States reachable from `states` by epsilon moves."""
        seen = set(states)
        stack = list(states)
        eps, k = self.eps, self.dst_pos
        while stack:
            for t in eps.get(stack.pop(), ()):
                d = t[k]
                if d not in seen:
                    seen.add(d)
                    stack.append(d)
        return seen

    def coclosure(self, states, within=None) -> set:
        """States that reach `states` by epsilon moves, passing only
        through `within` when it is given."""
        seen = set(states)
        stack = list(states)
        rev = self.rev_eps
        while stack:
            for s in rev.get(stack.pop(), ()):
                if s not in seen and (within is None or s in within):
                    seen.add(s)
                    stack.append(s)
        return seen

    @cached_property
    def eps_cyclic(self) -> frozenset:
        """States on a cycle of epsilon moves, from one pass of Tarjan's
        strongly connected components algorithm, without recursion."""
        eps, k = self.eps, self.dst_pos
        order, low = {}, {}
        open_, on_open = [], set()
        cyclic = set()
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
                        if len(comp) > 1 or any(t[k] == v
                                                for t in eps.get(v, ())):
                            cyclic.update(comp)
        return frozenset(cyclic)

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


def determinize(nfa: Nfa, alphabet=None) -> Dfa:
    """Powerset construction with epsilon closure; result is complete.
    States are numbered in discovery order over the sorted alphabet, so the
    numbering does not depend on the hash seed."""
    alpha = frozenset(alphabet if alphabet is not None else nfa.alphabet)
    ordered = sorted(alpha)
    moves = MoveIndex(nfa.transitions)
    start = frozenset(moves.closure({nfa.initial}))
    index = {start: 0}
    order = [start]
    delta = {}
    todo = [start]
    while todo:
        cur = todo.pop()
        ci = index[cur]
        for a in ordered:
            nxt = frozenset(moves.closure(moves.step(cur, a)))
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
                todo.append(nxt)
            delta[(ci, a)] = index[nxt]
    finals = frozenset(i for st, i in index.items()
                       if any(s in nfa.finals for s in st))
    return Dfa(len(order), 0, finals, delta, alpha)


def complement_dfa(d: Dfa) -> Dfa:
    if not d.is_complete():
        raise MachineError("complement needs a complete DFA")
    finals = frozenset(s for s in range(d.n_states) if s not in d.finals)
    return Dfa(d.n_states, d.initial, finals, dict(d.delta), d.alphabet)


def dfa_product(d1: Dfa, d2: Dfa, accept) -> Dfa:
    """Product automaton; `accept(f1, f2)` decides finality per pair."""
    if d1.alphabet != d2.alphabet:
        raise MachineError("product over mismatched alphabets")
    alpha = sorted(d1.alphabet)
    index = {(d1.initial, d2.initial): 0}
    order = [(d1.initial, d2.initial)]
    delta = {}
    todo = [(d1.initial, d2.initial)]
    while todo:
        (s1, s2) = todo.pop()
        ci = index[(s1, s2)]
        for a in alpha:
            nxt = (d1.delta[(s1, a)], d2.delta[(s2, a)])
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
                todo.append(nxt)
            delta[(ci, a)] = index[nxt]
    finals = frozenset(index[(s1, s2)] for (s1, s2) in order
                       if accept(s1 in d1.finals, s2 in d2.finals))
    return Dfa(len(order), 0, finals, delta, d1.alphabet)


def dfa_intersect(d1: Dfa, d2: Dfa) -> Dfa:
    return dfa_product(d1, d2, lambda a, b: a and b)


def dfa_union(d1: Dfa, d2: Dfa) -> Dfa:
    return dfa_product(d1, d2, lambda a, b: a or b)


def dfa_difference(d1: Dfa, d2: Dfa) -> Dfa:
    return dfa_product(d1, d2, lambda a, b: a and not b)


def minimize_dfa(d: Dfa) -> Dfa:
    """Moore partition refinement on the reachable part."""
    reach = {d.initial}
    todo = [d.initial]
    while todo:
        s = todo.pop()
        for a in d.alphabet:
            t = d.delta[(s, a)]
            if t not in reach:
                reach.add(t)
                todo.append(t)
    states = sorted(reach)
    alpha = sorted(d.alphabet)
    block = {s: (1 if s in d.finals else 0) for s in states}
    while True:
        sig = {s: (block[s],) + tuple(block[d.delta[(s, a)]] for a in alpha)
               for s in states}
        classes = {}
        for s in states:
            classes.setdefault(sig[s], len(classes))
        new_block = {s: classes[sig[s]] for s in states}
        if len(set(new_block.values())) == len(set(block.values())):
            block = new_block
            break
        block = new_block
    n = len(set(block.values()))
    delta = {}
    for s in states:
        for a in alpha:
            delta[(block[s], a)] = block[d.delta[(s, a)]]
    finals = frozenset(block[s] for s in states if s in d.finals)
    return Dfa(n, block[d.initial], finals, delta, d.alphabet)


# ---------------------------------------------------------------------------
# One-way transducers

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
        for (s, _a, _o, d) in self.transitions:
            fwd.setdefault(s, []).append(d)
            bwd.setdefault(d, []).append(s)
        useful = _walk({self.initial}, fwd) & _walk(set(self.finals), bwd)
        return MoveIndex([t for t in self.transitions
                          if t[0] in useful and t[3] in useful], reverse=True)


def _walk(start: set, adj: dict) -> set:
    seen = set(start)
    stack = list(start)
    while stack:
        for d in adj.get(stack.pop(), ()):
            if d not in seen:
                seen.add(d)
                stack.append(d)
    return seen


@dataclass
class EnumResult:
    outputs: set
    truncated: bool = False


def enumerate_outputs(t: OneWayTransducer, word) -> EnumResult:
    """All outputs of t on `word`, with a guard against epsilon cycles.

    A forward subset pass over `t.index` gives the states reachable at each
    position; a backward pass within those sets keeps the live ones, which
    can still end in a final state after the last letter.  The walk then
    visits nodes, sets of live configurations (state, position) that share
    one output prefix.  A node's children are its configurations' moves
    grouped by output, so when every move emits one symbol, as a parser's
    do, no two nodes share a prefix and each output is found once.

    A reachable state on an epsilon cycle (a pumpable cycle, hence possibly
    an infinite output set) sets the truncated flag.  On such a word each
    configuration also carries the states of its current epsilon run, and
    an epsilon move back into one of them is cut off, as a run-by-run walk
    would cut it; on any other word no run can revisit a state that way.
    """
    syms = letters(word) if isinstance(word, str) else tuple(word)
    n = len(syms)
    index = t.index
    cyclic = index.eps_cyclic
    cur = frozenset(index.closure({t.initial}))
    res = EnumResult(set(), not cyclic.isdisjoint(cur))
    fwd = [cur]
    memo = {}
    for a in syms:
        nxt = memo.get((cur, a))
        if nxt is None:
            nxt = memo[(cur, a)] = frozenset(index.closure(index.step(cur, a)))
            if not nxt:
                return res
            if not res.truncated and not cyclic.isdisjoint(nxt):
                res.truncated = True
        fwd.append(nxt)
        cur = nxt

    live = [None] * (n + 1)
    cur = live[n] = frozenset(index.coclosure(t.finals & fwd[n], fwd[n]))
    memo = {}
    for i in range(n - 1, -1, -1):
        key = (cur, syms[i], fwd[i])
        prev = memo.get(key)
        if prev is None:
            prev = memo[key] = frozenset(index.coclosure(
                index.back_step(cur, syms[i]) & fwd[i], fwd[i]))
        live[i] = cur = prev
    if t.initial not in live[0]:
        return res

    letter, eps, finals = index.letter, index.eps, t.finals
    runs = res.truncated  # whether configurations carry their epsilon run

    def children(node):
        # configurations are (state, position, epsilon run or None)
        done = False
        groups = {}
        for (s, i, seen) in node:
            if i == n:
                done = done or s in finals
            else:
                nxt = live[i + 1]
                for (_s, _a, o, d) in letter.get((s, syms[i]), ()):
                    if d in nxt:
                        groups.setdefault(o, set()).add(
                            (d, i + 1, frozenset((d,)) if runs else None))
            here = live[i]
            for (_s, _a, o, d) in eps.get(s, ()):
                if d in here:
                    if not runs:
                        groups.setdefault(o, set()).add((d, i, None))
                    elif d not in seen:
                        groups.setdefault(o, set()).add((d, i, seen | {d}))
        return done, groups

    out = []
    start = {(t.initial, 0, frozenset((t.initial,)) if runs else None)}
    # pending siblings: (node, length of the parent's prefix, own output);
    # a node with one child hands over to it in place
    stack = [(start, 0, ())]
    while stack:
        (node, depth, chunk) = stack.pop()
        del out[depth:]
        out.extend(chunk)
        while True:
            (done, groups) = children(node)
            if done:
                res.outputs.add(tuple(out))
            if len(groups) != 1:
                break
            ((chunk, node),) = groups.items()
            out.extend(chunk)
        depth = len(out)
        stack.extend((node, depth, chunk) for (chunk, node) in groups.items())
    return res


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

    def successors(self, state: int, sym: Sym):
        return self.delta.get((state, sym), ())

    @cached_property
    def table(self) -> tuple:
        """(symbol ids, moves): the single moves of delta keyed by
        id * n_states + state, each as (dst, out, sign of dst), which is how
        far the read position moves.  Built on the first run and kept; delta
        must not change after that."""
        ids = {}
        moves = {}
        shared = {}  # many moves share one entry, such as a scan's loop
        for (state, sym), ms in self.delta.items():
            if len(ms) == 1:
                (dst, out) = ms[0]
                sid = ids.setdefault(sym, len(ids))
                move = (dst, out, self.signs[dst])
                moves[sid * self.n_states + state] = shared.setdefault(move,
                                                                       move)
        return ids, moves


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


def run_two_way(t: TwoWayTransducer, word,
                want_trace: bool = False) -> TwoWayResult:
    """Simulate the deterministic machine t on |- word -|.

    Steps by lookup in `t.table`.  A run longer than the number of
    configurations, n_states * (|w| + 3), has repeated one and loops
    forever, so it stops there as "loop"; a configuration with more than one
    move raises MachineError.  Acceptance needs a final state with the whole
    tape, right endmarker included, consumed.
    """
    syms = letters(word) if isinstance(word, str) else tuple(word)
    tape = (LEFT_END,) + syms + (RIGHT_END,)
    n = len(tape)
    ids, table = t.table
    k = t.n_states
    # key base per read position; a symbol with no single move has id -1,
    # and the extra last entry serves both off-tape positions, -1 and n, so
    # all of these give negative keys, which the table never holds
    base = [ids.get(s, -1) * k for s in tape]
    base.append(-k)
    finals, signs = t.finals, t.signs
    state = t.initial
    pos = _read_position(signs[state], 0)
    out = []
    trace = [Configuration(state, 0)] if want_trace else []
    for _ in range(k * (n + 1)):
        if state in finals and pos + (signs[state] < 0) == n:
            return TwoWayResult("accept", "".join(out), trace)
        move = table.get(base[pos] + state)
        if move is None:
            if 0 <= pos < n:
                moves = t.successors(state, tape[pos])
                if len(moves) > 1:
                    raise MachineError("state %d has %d moves on %s"
                                       % (state, len(moves),
                                          render(tape[pos])))
            return TwoWayResult("reject", None, trace)
        (state, o, d) = move
        pos += d
        if o:
            out.append(o)
        if want_trace:
            trace.append(Configuration(state, pos + (signs[state] < 0)))
    return TwoWayResult("loop", None, trace)


def audit_trace(t: TwoWayTransducer, word, trace) -> bool:
    """Check a trace against the successor relation, step by step."""
    syms = letters(word) if isinstance(word, str) else tuple(word)
    tape = (LEFT_END,) + syms + (RIGHT_END,)
    delta, signs = t.delta, t.signs
    for ((state, boundary), (nstate, nboundary)) in zip(trace, trace[1:]):
        pos = _read_position(signs[state], boundary)
        if pos < 0 or pos >= len(tape):
            return False
        for (d, _o) in delta.get((state, tape[pos]), ()):
            if d == nstate:
                break
        else:
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

def _two_way_edges(m: TwoWayTransducer):
    for (src, sym), moves in m.delta.items():
        for (dst, _o) in moves:
            yield (src, sym, dst)


def _one_way_edges(m: OneWayTransducer):
    for (src, sym, _o, dst) in m.transitions:
        yield (src, sym, dst)


def _edges(m):
    if isinstance(m, TwoWayTransducer):
        return _two_way_edges(m)
    if isinstance(m, OneWayTransducer):
        return _one_way_edges(m)
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
