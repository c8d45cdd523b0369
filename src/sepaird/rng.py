"""Deterministic random stream shared by every stochastic component.

All randomness in a simulation run flows through one :class:`RngStream`,
seeded from a 64-bit integer.  The generator is pinned to numpy's PCG64
(a fixed, documented algorithm) rather than any platform default, so two
streams built from the same seed produce bitwise-identical draw sequences
on every platform.

A caller that cannot know how many scalar uniforms it needs draws a block
ahead and then gives the rest back with ``RngStream.rewind``, which moves
the generator back in O(log n) and keeps the 32-bit half-word that
``integers`` may hold for its next draw, so the stream is left where the
scalar draws would have left it.

Replication seeds for parameter sweeps are derived with :func:`derive_seed`,
a splitmix64/FNV-1a mix over the scenario content, so adding scenarios to a
grid never perturbs the seeds of existing ones.
"""

from __future__ import annotations

import ctypes

import numpy as np

_MASK64 = (1 << 64) - 1
# PCG64's period: advancing by _PERIOD - n steps back n words
_PERIOD = 1 << 128


class _PCG64State(ctypes.Structure):
    """The head of numpy's C ``pcg64_state`` behind a ``PCG64``: a pointer
    to the 128-bit generator, then whether a 32-bit half-word is held back
    for the next 32-bit draw, and that half-word.  Only ever read."""

    _fields_ = [
        ("pcg_state", ctypes.c_void_p),
        ("has_uint32", ctypes.c_int),
        ("uinteger", ctypes.c_uint32),
    ]


class RngStream:
    """PCG64-backed stream with the draw primitives the simulator needs."""

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self._gen = np.random.Generator(np.random.PCG64(self.seed))
        self._c_state = _PCG64State.from_address(self._gen.bit_generator.ctypes.state_address)

    @property
    def generator(self) -> np.random.Generator:
        """The numpy generator behind this stream.  A hot loop binds its
        methods once (``random``, ``standard_normal``); every draw made
        through them moves this stream exactly as the methods below do."""
        return self._gen

    def uniform(self, size=None):
        """Uniform draw(s) on [0, 1)."""
        return self._gen.random(size)

    def rewind(self, n: int) -> None:
        """Move the stream back over its last ``n`` 64-bit words, such as
        the last ``n`` scalar ``uniform()`` draws.

        ``PCG64.advance`` steps modulo the period, 2**128, in O(log n), but
        drops the 32-bit half-word that ``integers`` may hold back for its
        next draw.  A held half-word is read through the generator's C
        state and put back through its ``state``, so the state dict is
        read and written only when there is one to keep.
        """
        bit_generator = self._gen.bit_generator
        held = self._c_state.has_uint32
        half_word = self._c_state.uinteger
        bit_generator.advance(_PERIOD - n)
        if held:
            state = bit_generator.state
            state["has_uint32"] = 1
            state["uinteger"] = half_word
            bit_generator.state = state

    def bernoulli(self, p: float) -> bool:
        """Single success/failure draw with probability ``p``."""
        return bool(self._gen.random() < p)

    def normal(self, loc, scale, size=None):
        """Gaussian draw(s); ``loc``/``scale`` may be arrays."""
        return self._gen.normal(loc, scale, size)

    def integers(self, low: int, high: int, size=None):
        """Uniform integer draw(s) on [low, high)."""
        return self._gen.integers(low, high, size=size)


def splitmix64(x: int) -> int:
    """One splitmix64 scrambling round (public-domain constants)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash of ``data``."""
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) & _MASK64
    return h


def derive_seed(base_seed: int, scenario_key: str, replication: int) -> int:
    """Stable per-run seed for (scenario, replication).

    The scenario is identified by its canonical key string, hashed with
    FNV-1a and mixed with the replication index through splitmix64, so the
    derived seed depends only on scenario content and replication index.
    """
    h = fnv1a64(scenario_key.encode("utf-8"))
    mixed = splitmix64(h ^ splitmix64(replication & _MASK64))
    return (base_seed + mixed) & _MASK64
