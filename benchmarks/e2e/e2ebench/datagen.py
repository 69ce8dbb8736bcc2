"""Seeded generators shared by the workloads.

Every random choice in the benchmark comes from a ``random.Random`` seeded
with a *string* built from the workload name, the run's ``--seed`` and a
purpose tag: string seeds hash the same in every process, so one seed gives
one database and one call list.
"""

from __future__ import annotations

import random

_SYLLABLES = (
    "ka lo mi ren dar vel sor tin qua bel nor fi zan hul pra eth ost uld yra "
    "mek bri cho dun esk gal"
).split()


def rng_for(workload: str, seed: int, purpose: str) -> random.Random:
    return random.Random(f"e2e:{workload}:{seed}:{purpose}")


def blocks(rng: random.Random, mix: dict[str, int], count: int, lead: str = "") -> list[str]:
    """``count`` episode kinds in blocks that each hold exactly ``mix[kind]``
    episodes of every kind, shuffled — except ``lead``, which opens its block.

    Fixed proportions per block make any two stretches of whole blocks the
    same work (a timed run is whole blocks, ``Workload.block``) and take
    the binomial noise of the mix out of every percentile.
    """
    block = [kind for kind, share in mix.items() if kind != lead for _ in range(share)]
    kinds: list[str] = []
    while len(kinds) < count:
        rng.shuffle(block)
        kinds += [lead] * mix.get(lead, 0) + block
    return kinds[:count]


def word(rng: random.Random, syllables: int) -> str:
    return "".join(rng.choice(_SYLLABLES) for _ in range(syllables)).capitalize()


def distinct_phrases(rng: random.Random, count: int, shape: tuple[int, ...]) -> list[str]:
    """``count`` phrases in which no *word* occurs twice; ``shape`` gives the
    syllables per word.

    Word-level uniqueness is what makes a planted ``get_value`` key
    unambiguous by construction: :func:`typo` damages only the last word, so
    the intact words match the planted value's tokens exactly and no other
    value's, and a value without a token match cannot outrank one with.
    """
    seen: set[str] = set()
    phrases = []
    for _ in range(count):
        words = []
        for syllables in shape:
            candidate = word(rng, syllables)
            while candidate in seen:
                candidate = word(rng, syllables)
            seen.add(candidate)
            words.append(candidate)
        phrases.append(" ".join(words))
    return phrases


def typo(rng: random.Random, text: str) -> str:
    """``text`` with one interior character of its last word dropped — the
    noisy key an agent would pass to ``get_value``."""
    last = max(text.rfind(" "), text.rfind("_")) + 1
    position = rng.randrange(last + 1, len(text) - 1)
    return text[:position] + text[position + 1 :]
