"""Portable seeded random number generation.

Every sampling decoder draws its randomness from :class:`SplitMix64`, a
tiny generator with a fully specified integer stream, so that a given
seed produces the same outputs on any platform (and can be re-implemented
in any language from the description below).

Stream specification
--------------------
State is a single unsigned 64-bit integer, initialised to ``seed mod 2**64``.
Each step:

1. ``state = (state + 0x9E3779B97F4A7C15) mod 2**64``
2. ``z = state``
3. ``z = ((z XOR (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2**64``
4. ``z = ((z XOR (z >> 27)) * 0x94D049BB133111EB) mod 2**64``
5. output ``z XOR (z >> 31)``

Derived draws:

* ``random()`` returns ``(next_u64() >> 11) * 2**-53``, a float in [0, 1).
* ``uniforms(n)`` returns the next ``n`` values of ``random()`` as a list,
  computed in one numpy uint64 pass over the n states, and moves the
  state on by n steps: the same stream, drawn as a block.
* ``randrange(m)`` returns ``next_u64() mod m`` (documented modulo rule;
  the bias is negligible for the small ``m`` used here).
* ``shuffle(seq)`` is an in-place Fisher-Yates walk from the last index
  down to 1, swapping index ``i`` with ``j = randrange(i + 1)``.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# The same constants as numpy scalars, for :meth:`SplitMix64.uniforms`.
_GOLDEN_U64, _MIX1_U64, _MIX2_U64 = np.uint64(_GOLDEN), np.uint64(_MIX1), np.uint64(_MIX2)
_U11, _U27, _U30, _U31 = np.uint64(11), np.uint64(27), np.uint64(30), np.uint64(31)


class SplitMix64:
    """Seedable, portable uniform generator (see module docstring)."""

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniforms(self, n: int) -> list[float]:
        """The next ``n`` values of :meth:`random`, bit for bit, from one numpy pass over their states."""
        # uint64 array arithmetic wraps mod 2**64, as the steps above do, and never warns.
        z = np.arange(1, n + 1, dtype=np.uint64)
        z *= _GOLDEN_U64
        z += np.uint64(self._state)
        self._state = (self._state + n * _GOLDEN) & _MASK64
        z ^= z >> _U30
        z *= _MIX1_U64
        z ^= z >> _U27
        z *= _MIX2_U64
        z ^= z >> _U31
        z >>= _U11
        return (z * 2.0**-53).tolist()

    def randrange(self, m: int) -> int:
        """Integer in [0, m) via the documented modulo rule."""
        if m <= 0:
            raise ValueError("randrange() bound must be positive")
        return self.next_u64() % m

    def shuffle(self, seq: list) -> None:
        """In-place Fisher-Yates shuffle using randrange."""
        for i in range(len(seq) - 1, 0, -1):
            j = self.randrange(i + 1)
            seq[i], seq[j] = seq[j], seq[i]


def derive_seed(base_seed: int, *labels: str) -> int:
    """Stable per-task seed from a base seed and a chain of string labels.

    Uses SHA-256 of ``"<base_seed>|label1|label2|..."`` truncated to 64
    bits, so derived streams are independent of the order in which tasks
    run and reproducible across platforms.
    """
    key = "|".join([str(base_seed), *labels]).encode("utf-8")
    digest = hashlib.sha256(key).digest()
    return int.from_bytes(digest[:8], "big")
