"""Tagged alphabet symbols shared by all machines.

Machines never operate on raw characters: every symbol is a small tuple whose
first element is a kind tag.  This keeps occurrence-indexed parentheses (and
their chained-star index stacks) first-class and hashable.

Kinds:
  (LETTER, ch)            input letter ch
  (OPEN,  occ, idx)       opening parenthesis of expression occurrence `occ`
  (CLOSE, occ, idx)       closing parenthesis
  (SEP,   occ, idx)       block separator of the chained star occurrence `occ`
  (LEND,) / (REND,)       endmarkers

`idx` is a tuple of chained-star indices, innermost first; it is empty for
symbols outside any chained star body.  Parentheses compare equal iff both the
occurrence and the full index stack agree.
"""

from __future__ import annotations

LETTER = 0
OPEN = 1
CLOSE = 2
SEP = 3
LEND = 4
REND = 5

Sym = tuple

LEFT_END: Sym = (LEND,)
RIGHT_END: Sym = (REND,)


def letter(ch: str) -> Sym:
    return (LETTER, ch)


def lopen(occ: int, idx: tuple = ()) -> Sym:
    return (OPEN, occ, idx)


def lclose(occ: int, idx: tuple = ()) -> Sym:
    return (CLOSE, occ, idx)


def sep(occ: int, idx: tuple = ()) -> Sym:
    return (SEP, occ, idx)


def letters(word: str) -> tuple:
    """Encode a plain input word as a tuple of letter symbols."""
    return tuple((LETTER, c) for c in word)


def chars(word):
    """A word's letters as characters, any other symbol left in place."""
    return word if isinstance(word, str) else tuple(
        s[1] if s[0] == LETTER else s for s in word)


class Coded(str):
    """A word of symbols, one character each in a `code`, as a pipeline's
    walk hands its parsings to the evaluator's runs."""

    __slots__ = ()


def code(syms) -> dict:
    """Each symbol's one-character code, chr(i + 1) for the i-th in sorted
    order, so chr(0) stays free; dense, so that an alphabet of fewer than
    128 symbols keeps `str.translate` on its ASCII fast path."""
    return {s: chr(i) for (i, s) in enumerate(sorted(syms), 1)}


def is_letter(s: Sym) -> bool:
    return s[0] == LETTER


def is_paren(s: Sym) -> bool:
    return s[0] in (OPEN, CLOSE, SEP)


def with_index(s: Sym, i: int) -> Sym:
    """Append a chained-star index to a parenthesis/separator symbol.

    Letters pass through unchanged: the parsing keeps input letters unindexed.
    """
    if s[0] in (OPEN, CLOSE, SEP):
        return (s[0], s[1], s[2] + (i,))
    return s


def strip_index(s: Sym, i: int) -> Sym | None:
    """Inverse of with_index for the projection pi_i.

    Returns the symbol with its outermost index removed when that index is i,
    None when the symbol carries a different outermost index (it must be
    erased), and the symbol itself for letters.
    """
    if s[0] in (OPEN, CLOSE, SEP):
        idx = s[2]
        if not idx:
            return None
        if idx[-1] != i:
            return None
        return (s[0], s[1], idx[:-1])
    return s


def outer_index(s: Sym) -> int | None:
    if s[0] in (OPEN, CLOSE, SEP) and s[2]:
        return s[2][-1]
    return None


def render(s: Sym) -> str:
    """ASCII rendering: `a`, `(3`, `)3`, `#5`, with `^i` per chained index."""
    k = s[0]
    if k == LETTER:
        return s[1]
    if k == LEND:
        return "|-"
    if k == REND:
        return "-|"
    mark = {OPEN: "(", CLOSE: ")", SEP: "#"}[k]
    return mark + str(s[1]) + "".join("^%d" % i for i in s[2])


def render_word(syms) -> str:
    """Space-joined lossless rendering of a parsed word."""
    return " ".join(render(s) for s in syms)


def parse_symbol(tok: str) -> Sym:
    """Inverse of render for a single token."""
    if tok == "|-":
        return LEFT_END
    if tok == "-|":
        return RIGHT_END
    if tok and tok[0] in "()#":
        kind = {"(": OPEN, ")": CLOSE, "#": SEP}[tok[0]]
        parts = tok[1:].split("^")
        return (kind, int(parts[0]), tuple(int(p) for p in parts[1:]))
    if len(tok) == 1:
        return (LETTER, tok)
    raise ValueError("bad symbol token: %r" % tok)


def parse_word(text: str) -> tuple:
    return tuple(parse_symbol(t) for t in text.split())
