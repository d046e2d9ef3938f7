"""Brute-force semantics: dom, udom, relational/unambiguous values, parsings.

Everything here is computed straight from the recursive definitions by
exhaustive factorization, independently of any machine construction, and is
used as differential ground truth.  Enumerations that can be infinite (star
bodies accepting the empty word, chained stars whose block language contains
the empty word) are cut off and flagged as truncated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .expr import (BASE, CAUCHY, CAUCHY_REV, DUP, EMPTY, EPS, HADAMARD, KSTAR,
                   KSTAR_REV, LIT, RCAT, REV, RSTAR, RSUM, STAR, STAR_REV,
                   SUM, LabeledExpr, Regex)
from .symbols import (is_letter, lclose, letter, letters, lopen,
                      outer_index, sep, strip_index)

MAX_OUTPUT_LEN = 64


class OracleLimitError(ValueError):
    """A value the oracle cannot give because enumeration dropped it."""


@dataclass
class BoundedSet:
    """Finite enumeration result; exact unless `truncated` is set."""

    items: set = field(default_factory=set)
    truncated: bool = False

    def add(self, x):
        self.items.add(x)

    def __ior__(self, other: "BoundedSet"):
        self.items |= other.items
        self.truncated = self.truncated or other.truncated
        return self


# ---------------------------------------------------------------------------
# Recursive regex matching (kept independent of the Glushkov construction)

def re_match(e: Regex, w: str) -> bool:
    """Whether w is in L(e).  Memoized per call on (node, word); nodes are
    keyed by identity, since hashing a frozen tree walks all of it, which
    costs a frame per level on top of the match's own."""
    memo = {}

    def match(e: Regex, w: str) -> bool:
        key = (id(e), w)
        if key in memo:
            return memo[key]
        if e.kind == EMPTY:
            r = False
        elif e.kind == EPS:
            r = w == ""
        elif e.kind == LIT:
            r = w == e.ch
        elif e.kind == RSUM:
            r = match(e.left, w) or match(e.right, w)
        elif e.kind == RCAT:
            r = False
            for i in range(len(w) + 1):
                if match(e.left, w[:i]) and match(e.right, w[i:]):
                    r = True
                    break
        elif e.kind == RSTAR:
            r = w == ""
            for i in range(1, len(w) + 1):
                if match(e.left, w[:i]) and match(e, w[i:]):
                    r = True
                    break
        else:
            raise ValueError(e.kind)
        memo[key] = r
        return r

    return match(e, w)


def re_nullable(e: Regex) -> bool:
    return re_match(e, "")


# ---------------------------------------------------------------------------
# Factorization helpers

def _splits(w: str):
    for i in range(len(w) + 1):
        yield w[:i], w[i:]


def _factorizations(w: str, member, allow_eps: bool, max_eps: int):
    """All tuples (u_1..u_n) with u_i in the language decided by `member`.

    Empty factors are only inserted when `allow_eps`, at most `max_eps` of
    them in total; without empty factors the enumeration is exhaustive.
    """

    def go(rest: str, eps_left: int):
        if rest == "":
            yield ()
        if allow_eps and eps_left > 0:
            for tail in go(rest, eps_left - 1):
                yield ("",) + tail
        for i in range(1, len(rest) + 1):
            u = rest[:i]
            if member(u):
                for tail in go(rest[i:], eps_left):
                    yield (u,) + tail

    if allow_eps:
        seen = set()
        for f in go(w, max_eps):
            if f not in seen:
                seen.add(f)
                yield f
    else:
        yield from (f for f in go(w, 0))


def _nonempty_factorizations(w: str, member):
    yield from _factorizations(w, member, False, 0)


# ---------------------------------------------------------------------------
# dom / udom

class Oracle:
    """Memoizing oracle over one labeled expression.

    All queries are keyed by (occurrence id, word), so repeated subcalls on
    the same subexpression and word are answered once.
    """

    def __init__(self, root: LabeledExpr):
        self.root = root
        self._dom = {}
        self._udom = {}
        self._rsem = {}
        self._parse = {}

    # -- dom ------------------------------------------------------------------

    def dom(self, h: LabeledExpr, w: str) -> bool:
        key = (h.occ, w)
        if key in self._dom:
            return self._dom[key]
        r = self._dom_raw(h, w)
        self._dom[key] = r
        return r

    def _dom_raw(self, h, w):
        if h.kind == BASE:
            return re_match(h.regex, w)
        if h.kind == SUM:
            return self.dom(h.left, w) or self.dom(h.right, w)
        if h.kind in (CAUCHY, CAUCHY_REV):
            # loops, not any() over a generator: a generator frame per level
            # would cost a third of the depth a tree may have
            for u, v in _splits(w):
                if self.dom(h.left, u) and self.dom(h.right, v):
                    return True
            return False
        if h.kind in (STAR, STAR_REV):
            for i in range(1, len(w) + 1):
                if self.dom(h.left, w[:i]) and self.dom(h, w[i:]):
                    return True
            return w == ""
        if h.kind == HADAMARD:
            return self.dom(h.left, w) and self.dom(h.right, w)
        if h.kind in (DUP, REV):
            return True
        if h.kind in (KSTAR, KSTAR_REV):
            return any(True for _ in self._kstar_factorizations(h, w))
        raise ValueError(h.kind)

    def _kstar_factorizations(self, h, w):
        """Factorizations of w into L(e) factors satisfying the block
        condition: every window of k consecutive factors is in dom(f)."""
        k = h.k
        e = h.regex
        allow_eps = re_nullable(e)
        for fact in _factorizations(w, lambda u: re_match(e, u), allow_eps,
                                    max_eps=len(w) + k):
            n = len(fact)
            if n < k:
                yield fact
                continue
            if all(self.dom(h.left, "".join(fact[i:i + k]))
                   for i in range(0, n - k + 1)):
                yield fact

    # -- udom -----------------------------------------------------------------

    def udom(self, h: LabeledExpr, w: str) -> bool:
        key = (h.occ, w)
        if key in self._udom:
            return self._udom[key]
        r = self._udom_raw(h, w)
        self._udom[key] = r
        return r

    def _udom_raw(self, h, w):
        if h.kind == BASE:
            return re_match(h.regex, w)
        if h.kind in (DUP, REV):
            return True
        if h.kind == SUM:
            return ((self.udom(h.left, w) and not self.dom(h.right, w))
                    or (self.udom(h.right, w) and not self.dom(h.left, w)))
        if h.kind in (CAUCHY, CAUCHY_REV):
            splits = [(u, v) for u, v in _splits(w)
                      if self.dom(h.left, u) and self.dom(h.right, v)]
            if len(splits) != 1:
                return False
            u, v = splits[0]
            return self.udom(h.left, u) and self.udom(h.right, v)
        if h.kind in (STAR, STAR_REV):
            if self.dom(h.left, ""):
                return False
            facts = list(_nonempty_factorizations(
                w, lambda u: self.dom(h.left, u)))
            if len(facts) != 1:
                return False
            return all(self.udom(h.left, u) for u in facts[0])
        if h.kind == HADAMARD:
            return self.udom(h.left, w) and self.udom(h.right, w)
        if h.kind in (KSTAR, KSTAR_REV):
            facts = list(self._kstar_factorizations(h, w))
            if len(facts) != 1:
                return False
            fact = facts[0]
            k = h.k
            return all(self.udom(h.left, "".join(fact[i:i + k]))
                       for i in range(0, len(fact) - k + 1))
        raise ValueError(h.kind)

    # -- relational semantics ---------------------------------------------------

    def rsem(self, h: LabeledExpr, w: str) -> BoundedSet:
        key = (h.occ, w)
        if key in self._rsem:
            return self._rsem[key]
        r = self._rsem_raw(h, w)
        for x in r.items:
            if len(x) > MAX_OUTPUT_LEN:
                r.items = {x for x in r.items if len(x) <= MAX_OUTPUT_LEN}
                r.truncated = True
                break
        self._rsem[key] = r
        return r

    def _rsem_raw(self, h, w):
        res = BoundedSet()
        if h.kind == BASE:
            if re_match(h.regex, w):
                res.add(h.out)
            return res
        if h.kind == DUP:
            res.add(w + h.sep + w)
            return res
        if h.kind == REV:
            res.add(w[::-1])
            return res
        if h.kind == SUM:
            res |= self.rsem(h.left, w)
            res |= self.rsem(h.right, w)
            return res
        if h.kind in (CAUCHY, CAUCHY_REV):
            for u, v in _splits(w):
                rf = self.rsem(h.left, u)
                rg = self.rsem(h.right, v)
                res.truncated |= rf.truncated or rg.truncated
                for a in rf.items:
                    for b in rg.items:
                        res.add(a + b if h.kind == CAUCHY else b + a)
            return res
        if h.kind in (STAR, STAR_REV):
            f = h.left
            eps_dom = self.dom(f, "")
            if eps_dom and self.rsem(f, "").items != {""}:
                # infinitely many outputs obtainable by pumping empty factors;
                # only the empty-factor-free part is enumerated
                res.truncated = True
            for fact in _factorizations(w, lambda u: self.dom(f, u), False, 0):
                pieces = []
                bad = False
                for u in (fact if h.kind == STAR else fact[::-1]):
                    ru = self.rsem(f, u)
                    res.truncated |= ru.truncated
                    if not ru.items:
                        bad = True
                        break
                    pieces.append(sorted(ru.items))
                if bad:
                    continue
                acc = [""]
                for p in pieces:
                    acc = [a + b for a in acc for b in p]
                for x in acc:
                    res.add(x)
            return res
        if h.kind == HADAMARD:
            rf = self.rsem(h.left, w)
            rg = self.rsem(h.right, w)
            res.truncated = rf.truncated or rg.truncated
            for a in rf.items:
                for b in rg.items:
                    res.add(a + b)
            return res
        if h.kind in (KSTAR, KSTAR_REV):
            allow_eps = re_nullable(h.regex)
            res.truncated = allow_eps
            k = h.k
            for fact in self._kstar_factorizations(h, w):
                n = len(fact)
                if n < k:
                    res.add("")
                    continue
                pieces = []
                bad = False
                for i in range(0, n - k + 1):
                    ri = self.rsem(h.left, "".join(fact[i:i + k]))
                    res.truncated |= ri.truncated
                    if not ri.items:
                        bad = True
                        break
                    pieces.append(sorted(ri.items))
                if bad:
                    continue
                if h.kind == KSTAR_REV:
                    pieces = pieces[::-1]
                acc = [""]
                for p in pieces:
                    acc = [a + b for a in acc for b in p]
                for x in acc:
                    res.add(x)
            return res
        raise ValueError(h.kind)

    # -- unambiguous semantics -------------------------------------------------

    def usem(self, h: LabeledExpr, w: str):
        if not self.udom(h, w):
            return None
        vals = self.rsem(h, w)
        if len(vals.items) != 1 and vals.truncated:
            raise OracleLimitError(
                "the value on a word of %d letters is longer than "
                "MAX_OUTPUT_LEN = %d letters" % (len(w), MAX_OUTPUT_LEN))
        assert len(vals.items) == 1, "udom word with non-singleton image"
        return next(iter(vals.items))

    # -- parsing relation --------------------------------------------------------

    def parsings(self, h: LabeledExpr, w: str) -> BoundedSet:
        key = (h.occ, w)
        if key in self._parse:
            return self._parse[key]
        r = self._parse_raw(h, w)
        self._parse[key] = r
        return r

    def _parse_raw(self, h, w):
        res = BoundedSet()
        op, cl = lopen(h.occ), lclose(h.occ)
        if h.kind == BASE:
            if re_match(h.regex, w):
                res.add((op,) + letters(w) + (cl,))
            return res
        if h.kind in (DUP, REV):
            res.add((op,) + letters(w) + (cl,))
            return res
        if h.kind == SUM:
            for side in (h.left, h.right):
                ps = self.parsings(side, w)
                res.truncated |= ps.truncated
                for a in ps.items:
                    res.add((op,) + a + (cl,))
            return res
        if h.kind in (CAUCHY, CAUCHY_REV):
            for u, v in _splits(w):
                pf = self.parsings(h.left, u)
                pg = self.parsings(h.right, v)
                res.truncated |= pf.truncated or pg.truncated
                for a in pf.items:
                    for b in pg.items:
                        res.add((op,) + a + b + (cl,))
            return res
        if h.kind in (STAR, STAR_REV):
            f = h.left
            eps_dom = self.dom(f, "")
            if eps_dom:
                # pumping empty factors yields infinitely many parsings;
                # enumerate the empty-factor-free ones and flag the cut
                res.truncated = True
            for fact in _factorizations(w, lambda u: self.dom(f, u), False, 0):
                pieces = []
                bad = False
                for u in fact:
                    pu = self.parsings(f, u)
                    res.truncated |= pu.truncated
                    if not pu.items:
                        bad = True
                        break
                    pieces.append(sorted(pu.items))
                if bad:
                    continue
                acc = [()]
                for p in pieces:
                    acc = [a + b for a in acc for b in p]
                for body in acc:
                    res.add((op,) + body + (cl,))
            return res
        if h.kind == HADAMARD:
            pf = self.parsings(h.left, w)
            pg = self.parsings(h.right, w)
            res.truncated = pf.truncated or pg.truncated
            for a in pf.items:
                for b in pg.items:
                    res.add((op,) + _hadamard_merge(a, b) + (cl,))
            return res
        if h.kind in (KSTAR, KSTAR_REV):
            return self._kstar_parsings(h, w)
        raise ValueError(h.kind)

    def _kstar_parsings(self, h, w):
        res = BoundedSet()
        op, cl = lopen(h.occ), lclose(h.occ)
        sp = sep(h.occ)
        k = h.k
        if re_nullable(h.regex):
            res.truncated = True
        for fact in self._kstar_factorizations(h, w):
            n = len(fact)
            if n < k:
                body = []
                for i, u in enumerate(fact):
                    if i:
                        body.append(sp)
                    body.extend(letters(u))
                res.add((op,) + tuple(body) + (cl,))
                continue
            block_opts = []
            bad = False
            for j in range(0, n - k + 1):
                pj = self.parsings(h.left, "".join(fact[j:j + k]))
                res.truncated |= pj.truncated
                if not pj.items:
                    bad = True
                    break
                block_opts.append(sorted(pj.items))
            if bad:
                continue
            for choice in _product(block_opts):
                merged = _kstar_merge(fact, choice, k, h.occ)
                if merged is not None:
                    res.add((op,) + merged + (cl,))
        return res


def _product(opts):
    if not opts:
        yield ()
        return
    for head in opts[0]:
        for tail in _product(opts[1:]):
            yield (head,) + tail


# ---------------------------------------------------------------------------
# Hadamard merge: unique shuffle with left-argument priority

def _hadamard_merge(a, b):
    """Interleave two parsings of the same word, synchronizing letters and
    emitting left-side parentheses before right-side ones in every gap."""
    out = []
    i = j = 0
    while True:
        while i < len(a) and not is_letter(a[i]):
            out.append(a[i])
            i += 1
        while j < len(b) and not is_letter(b[j]):
            out.append(b[j])
            j += 1
        if i >= len(a) and j >= len(b):
            return tuple(out)
        assert i < len(a) and j < len(b) and a[i] == b[j], "projections differ"
        out.append(a[i])
        i += 1
        j += 1


# ---------------------------------------------------------------------------
# Chained-star merge: the canonical interleaving of overlapping block parsings

def _mod(x: int, k: int) -> int:
    """Values in 1..k: k maps to k, not 0."""
    return (x - 1) % k + 1


def _order_pos(idx: int, i: int, k: int) -> int:
    """Rank of a block index w.r.t. the per-factor order <=_i.

    The order lists i+1, i+2, ..., i (mod k); the current factor's own index
    is greatest."""
    return (idx - i - 1) % k


def _split_gamma(gamma, k: int, factor_lens):
    """Split an indexed block parsing into k per-factor pieces.

    Parentheses between letters attach to the earlier factor's piece, so every
    piece after the first starts with a letter or is empty; the block's final
    closing parenthesis stays with piece k, which is exactly that closer when
    its factor has no letters.
    """
    letter_pos = [p for p, s in enumerate(gamma) if is_letter(s)]
    total = len(letter_pos)
    bounds = [0]
    cum = 0
    for l in range(1, k):
        cum += factor_lens[l - 1]
        bounds.append(letter_pos[cum] if cum < total else len(gamma) - 1)
    bounds.append(len(gamma))
    return [tuple(gamma[bounds[i]:bounds[i + 1]]) for i in range(k)]


def _kstar_merge(fact, block_parsings, k: int, occ: int):
    """Merge indexed block parsings into alpha_1 .. alpha_n, following the
    scheduling the chained-star parser induces; returns the full body with
    separators, or None when the pieces cannot be merged."""
    n = len(fact)
    indexed = []
    for j, beta in enumerate(block_parsings):
        m = _mod(j + 1, k)
        gamma = tuple(
            s if is_letter(s) else (s[0], s[1], s[2] + (m,)) for s in beta)
        lens = [len(fact[j + l]) for l in range(k)]
        indexed.append(_split_gamma(gamma, k, lens))
    body = []
    for i in range(1, n + 1):
        if i > 1:
            body.append(sep(occ))
        # pieces contributing to factor i: piece l of block j with j+l == i
        pieces = []
        for l in range(1, k + 1):
            j = i - l
            if 0 <= j <= n - k:
                pieces.append((l, indexed[j][l - 1]))
        alpha = _merge_factor(pieces, fact[i - 1], i, k)
        if alpha is None:
            return None
        body.extend(alpha)
    return tuple(body)


def _merge_factor(pieces, u: str, i: int, k: int):
    """Interleave per-factor pieces: leading parens of the newest block first,
    then per letter-gap emissions in <=_i order, with the oldest block's final
    closer last."""
    cursors = {l: 0 for (l, _p) in pieces}
    seqs = {l: p for (l, p) in pieces}
    out = []
    # the final closer of piece k (the block that ends at this factor)
    final_closer = None
    if k in seqs and seqs[k]:
        last = seqs[k][-1]
        if not is_letter(last):
            final_closer = last

    def emit_gap(first_gap: bool):
        # pieces in <=_i order: l = k (least index) .. 1 (greatest)
        ls = sorted(seqs, key=lambda l: _order_pos(_mod(i - l + 1, k), i, k))
        if first_gap:
            # only the newest block (piece 1) may emit before the first letter
            ls = [l for l in ls if l == 1]
        for l in ls:
            p = seqs[l]
            while cursors[l] < len(p) and not is_letter(p[cursors[l]]):
                if l == k and final_closer is not None \
                        and cursors[l] == len(p) - 1:
                    break  # held back until every other piece is done
                out.append(p[cursors[l]])
                cursors[l] += 1

    emit_gap(first_gap=True)
    for t, ch in enumerate(u):
        lsym = letter(ch)
        for l, p in seqs.items():
            if cursors[l] >= len(p) or p[cursors[l]] != lsym:
                return None
            cursors[l] += 1
        out.append(lsym)
        emit_gap(first_gap=False)
    # close the block ending here
    if final_closer is not None:
        if cursors[k] != len(seqs[k]) - 1:
            return None
        out.append(final_closer)
        cursors[k] += 1
    for l, p in seqs.items():
        if cursors[l] != len(p):
            return None
    return out


# ---------------------------------------------------------------------------
# Independent checker for the chained-star parsing conditions

def check_kstar_conditions(parsed, h: LabeledExpr, oracle: "Oracle") -> bool:
    """Verify conditions (1)-(6) of the chained-star parsing definition.

    Condition (3) is applied with the range n-k+1 < j <= i (the indices of
    blocks that would start after the last real block), which is what the
    parser construction enforces.
    """
    k = h.k
    occ = h.occ
    op, cl, sp = lopen(occ), lclose(occ), sep(occ)
    if not parsed or parsed[0] != op or parsed[-1] != cl:
        return False
    body = parsed[1:-1]
    alphas = [[]]
    for s in body:
        if s == sp:
            alphas.append([])
        else:
            alphas[-1].append(s)
    if body == ():
        alphas = []
    n = len(alphas)
    us = ["".join(s[1] for s in a if is_letter(s)) for a in alphas]
    if any(not re_match(h.regex, u) for u in us):
        return False
    if n < k:
        return all(all(is_letter(s) for s in a) for a in alphas)

    flat = [tuple(a) for a in alphas]

    def pi(j, seq):
        out = []
        for s in seq:
            if is_letter(s):
                out.append(s)
            else:
                t = strip_index(s, j)
                if t is not None and outer_index(s) == j:
                    out.append(t)
        return tuple(out)

    # (1) every window projects to a parsing of f
    for i in range(0, n - k + 1):
        m = _mod(i + 1, k)
        window = tuple(x for a in flat[i:i + k] for x in a)
        proj = pi(m, window)
        pf = oracle.parsings(h.left, "".join(us[i:i + k]))
        if proj not in pf.items:
            return False
    # (2) indices too young for early factors
    for i in range(1, k):
        for j in range(i + 1, k + 1):
            if any(outer_index(s) == j for s in flat[i - 1] if not is_letter(s)):
                return False
    # (3) indices of blocks that would start past the last block
    for i in range(1, n + 1):
        for j in range(n - k + 2, i + 1):
            bad = _mod(j, k)
            if any(outer_index(s) == bad for s in flat[i - 1]
                   if not is_letter(s)):
                return False
    # (4) factor i >= k ends with the closer of the block ending there
    for i in range(k, n + 1):
        want = lclose(h.left.occ, (_mod(i + 1, k),))
        if not flat[i - 1] or flat[i - 1][-1] != want:
            return False
    # (5) block openers / shapes at factor starts
    for i in range(1, n + 1):
        a = flat[i - 1]
        if i <= n - k + 1:
            want = lopen(h.left.occ, (_mod(i, k),))
            if not a or a[0] != want:
                return False
        else:
            closer = lclose(h.left.occ, (_mod(i + 1, k),))
            ok = (a == () and i < k) or (a and is_letter(a[0])) \
                or a == (closer,)
            if not ok:
                return False
    # (6) non-decreasing indices between letters, final closer exempt
    for i in range(1, n + 1):
        a = flat[i - 1]
        closer = lclose(h.left.occ, (_mod(i + 1, k),))
        for s, t in zip(a, a[1:]):
            if is_letter(s) or is_letter(t) or t == closer:
                continue
            ri = _order_pos(outer_index(s), i, k)
            rj = _order_pos(outer_index(t), i, k)
            if ri > rj:
                return False
    return True
