import itertools

import pytest

from rtec.expr import label_occurrences, parse_rte

SIGMA = "ab"
GAMMA = "cdexyzw#"


def mk(text, sigma=SIGMA, gamma=GAMMA):
    return label_occurrences(parse_rte(text, sigma, gamma))


def words_upto(n, sigma=SIGMA):
    out = []
    for m in range(n + 1):
        out.extend("".join(t) for t in itertools.product(sigma, repeat=m))
    return out


def star_product_value(w):
    if len(w) < 2 or w[-1] != "b":
        return None
    return "x" + "".join("c" if c == "a" else "dd" for c in reversed(w[:-2]))


# the long-words benchmark's expressions, with their values in closed form
LONG_CASES = [
    ('(((a+b)* -> "x") odot rev) odot (dup{#} odot rev)',
     lambda w: "x" + w[::-1] + w + "#" + w + w[::-1]),
    ('((a -> "c") + (b -> "dd"))*r .r ((a+b)b -> "x")', star_product_value),
    ('kstar{3, a+b}(((a+b)(a+b)(a+b) -> "c") . rev)',
     lambda w: "c" * max(0, len(w) - 2)),
]


def nested_factors(k):
    """k right-nested (a -> "c") factors, defined on a^k only."""
    text = '(a -> "c")'
    for _ in range(k - 1):
        text = '(a -> "c") . (%s)' % text
    return text


@pytest.fixture(scope="session")
def short_words():
    return words_upto(5)


def deep_texts(depth):
    """Expressions of tree depth `depth` that nest without parentheses:
    postfix stars, a flat product, a starred regex and a letter product."""
    return {
        "stars": '(a -> "x")' + "*" * (depth - 2),
        "product": " . ".join(['(a -> "x")'] + ['(@ -> "")'] * (depth - 2)),
        "regex stars": "a" + "*" * (depth - 2) + ' -> "x"',
        "regex letters": "a" * (depth - 1) + ' -> "x"',
    }
