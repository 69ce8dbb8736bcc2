"""A high-cardinality product-name column and the task keys run against
it, and a column of persona-like names.

Shared by the retrieval tests that need a column much larger than a
hand-written one: the bitmap-kernel memory guard and the per-query work
counts.
"""

import random

_ADJECTIVES = (
    "womens", "mens", "kids", "coastal", "inland", "premium",
    "classic", "sport", "vintage", "eco", "alpine", "urban",
)
_NOUNS = (
    "wear", "shoes", "jacket", "dress", "boots", "accessories",
    "equipment", "apparel", "outfit", "gear", "luggage", "kit",
)


def _pseudo_word(seed: int, length: int) -> str:
    """Deterministic letter soup (no stdlib randomness: runs reproduce)."""
    state = (seed * 2654435761 + 97) & 0x7FFFFFFF
    chars = []
    for _ in range(length):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        chars.append(chr(ord("a") + (state >> 16) % 26))
    return "".join(chars)


def unrelated_name(i: int) -> str:
    """A pseudo-random product name no query key targets; the id suffix
    keeps every value distinct."""
    return f"{_pseudo_word(i, 7)} {_pseudo_word(i * 31 + 7, 8)} {i:06d}"


def product_name(i: int) -> str:
    """The i-th distinct value of the column.

    A high-cardinality text column is mostly irrelevant to any given task
    key, so only every 50th value is a category-style name the query keys
    actually target; the rest are :func:`unrelated_name`.
    """
    if i % 50 == 0:
        adjective = _ADJECTIVES[(i // 50) % len(_ADJECTIVES)]
        noun = _NOUNS[(i // (50 * len(_ADJECTIVES))) % len(_NOUNS)]
        return f"{adjective} {noun} {i:06d}"
    return unrelated_name(i)


#: task keys exercising the signals the scorer blends: stored surface
#: forms, synonyms, misspellings, substrings, multi-token paraphrases
QUERY_KEYS = (
    "women",
    "ladies dress",
    "mens jacket",
    "sport shoes",
    "premum boots",       # misspelling
    "coastal",
    "eco equipment",
    "vintage wear",
)


def name_column(count: int) -> list[str]:
    """``count`` distinct two-word names in the shape of the e2e
    ``context_retrieval`` persona names: words of four and three syllables
    drawn from 24. A larger column holds every name of a smaller one."""
    syllables = (
        "ka lo mi ren dar vel sor tin qua bel nor fi zan hul pra eth ost uld "
        "yra mek bri cho dun esk gal"
    ).split()
    rng = random.Random("bitmap-kernel:names")
    names: set[str] = set()
    while len(names) < count:
        names.add(" ".join(
            "".join(rng.choice(syllables) for _ in range(length)).capitalize()
            for length in (4, 3)
        ))
    return sorted(names)
