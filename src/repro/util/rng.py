"""Deterministic random-number handling for experiments.

Every experiment in :mod:`repro.experiments` is reproducible: the harness
derives an independent :class:`numpy.random.Generator` for each
(figure, processor count, utilization bucket, replicate) tuple, so results do
not depend on execution order or parallelism.

:func:`derive_rng` seeds one such stream; :func:`replicate_rngs` seeds a
whole bucket's replicates in one pass and hands each one out in exactly
the state :func:`derive_rng` would give it.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterator

import numpy as np

__all__ = ["spawn_seed", "derive_rng", "replicate_rngs"]


def spawn_seed(*components: object) -> int:
    """Derive a stable 63-bit seed from arbitrary hashable components.

    The derivation uses SHA-256 over the ``repr`` of the components, so it is
    stable across processes and Python versions (unlike built-in ``hash``).
    NumPy scalar components count as the Python scalars they hold (under
    NumPy 2, ``repr(np.float64(0.5))`` is ``'np.float64(0.5)'``).
    """
    return _seed_of(repr(tuple(map(_plain, components))))


def _plain(component: object) -> object:
    return component.item() if isinstance(component, np.generic) else component


def _seed_of(text: str) -> int:
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def derive_rng(*components: object) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` seeded from ``components``."""
    return np.random.default_rng(spawn_seed(*components))


# -- bulk seeding -----------------------------------------------------------------
# NumPy's SeedSequence (numpy/random/bit_generator.pyx) and PCG64's setseq
# initialization (pcg64.h), transcribed.  All SeedSequence arithmetic is
# on uint32 words; its hash constants advance the same way for every seed.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hash_constants(init: int, mult: int, count: int) -> list[tuple[int, int]]:
    """``(xor, multiply)`` constant pairs of ``count`` successive hash
    steps: each step XORs the running constant in, advances it and
    multiplies by the advanced value."""
    pairs = []
    for _ in range(count):
        advanced = (init * mult) & _MASK32
        pairs.append((init, advanced))
        init = advanced
    return pairs


#: the 4 entropy words, then the 12 cross-mixing steps of a 4-word pool
_MIX_CONSTANTS = _hash_constants(_INIT_A, _MULT_A, 16)
#: ``generate_state(4, np.uint64)``: 8 output words
_STATE_CONSTANTS = _hash_constants(_INIT_B, _MULT_B, 8)


def _hash(words: np.ndarray, constants: tuple[int, int]) -> np.ndarray:
    xor, mult = constants
    words = (words ^ xor) * mult
    return words ^ (words >> 16)


def _seed_words(seeds: list[int]) -> np.ndarray:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` for every seed
    below ``2**64``, as a ``(4, len(seeds))`` uint64 array.

    SeedSequence splits a seed into little-endian uint32 words and hashes
    ``0`` for every pool word past the entropy, so a seed below ``2**32``
    (one word) pools exactly as the same seed written as two words.
    """
    seed = np.array(seeds, dtype=np.uint64)
    entropy = [
        (seed & _MASK32).astype(np.uint32),
        (seed >> 32).astype(np.uint32),
        np.zeros(len(seeds), dtype=np.uint32),
        np.zeros(len(seeds), dtype=np.uint32),
    ]
    steps = iter(_MIX_CONSTANTS)
    pool = [_hash(word, next(steps)) for word in entropy]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                hashed = _hash(pool[src], next(steps))
                mixed = pool[dst] * _MIX_MULT_L - hashed * _MIX_MULT_R
                pool[dst] = mixed ^ (mixed >> 16)
    words = [
        _hash(pool[i % 4], constants).astype(np.uint64)
        for i, constants in enumerate(_STATE_CONSTANTS)
    ]
    return np.stack([words[2 * i] | (words[2 * i + 1] << 32) for i in range(4)])


def _pcg64_state(high: int, low: int, seq_high: int, seq_low: int) -> dict:
    """PCG64's ``bit_generator.state`` right after seeding with the 128-bit
    initial state ``high:low`` and stream ``seq_high:seq_low``."""
    inc = ((((seq_high << 64) | seq_low) << 1) | 1) & _MASK128
    state = ((inc + ((high << 64) | low)) * _PCG_MULT + inc) & _MASK128
    return {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }


def replicate_rngs(*components: object, count: int) -> Iterator[np.random.Generator]:
    """The streams ``derive_rng(*components, r)`` for ``r in range(count)``,
    seeded in one pass.

    Yields one reused :class:`numpy.random.Generator`, reseeded for each
    replicate: use each before asking for the next, and do not keep it
    (a caller that needs a replicate's final state reads it before
    advancing the iterator).  Each yielded state equals that of a fresh
    ``derive_rng(*components, r)``: the SeedSequence hashing runs on
    uint32 numpy arrays across all replicates and PCG64's setseq
    initialization on Python ints.  The first replicate is checked
    against ``np.random.PCG64``; a NumPy that seeds differently raises
    ``RuntimeError`` before anything is drawn.
    """
    if count <= 0:
        return
    # spawn_seed's text, repr((*components, r)), with the components'
    # part built once
    prefix = "(" + "".join(repr(_plain(c)) + ", " for c in components)
    close = ")" if components else ",)"
    seeds = [_seed_of(f"{prefix}{r!r}{close}") for r in range(count)]
    states = [_pcg64_state(*words) for words in zip(*_seed_words(seeds).tolist())]
    rng = np.random.Generator(np.random.PCG64(seeds[0]))
    if rng.bit_generator.state != states[0]:
        raise RuntimeError(
            "bulk seeding disagrees with np.random.PCG64; "
            "this NumPy seeds its streams differently"
        )
    bit_generator = rng.bit_generator
    for state in states:
        bit_generator.state = state
        yield rng
