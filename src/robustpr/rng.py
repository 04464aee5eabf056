"""Deterministic random streams.

All randomness in the library flows through Philox, a counter-based 64-bit
generator with a published algorithm, so streams can be reproduced in any
language with a Philox4x64 implementation.  A stream is addressed by a
(seed, tag) pair used directly as the two words of the Philox key; distinct
tags give statistically independent streams for the same user seed.

Derived seeds (per-trial seeds in the benchmark engine) are produced by
``mix``, a SplitMix64-based hash, so that adding grid points or trials never
perturbs the streams of existing ones.
"""

from __future__ import annotations

import operator

import numpy as np

_MASK64 = (1 << 64) - 1

# Stream tags, one per consumer of randomness.
TAG_SIGNAL = 0x5349474E414C0001
TAG_SAMPLING = 0x53414D504C450002
TAG_NOISE = 0x4E4F4953450003
TAG_SPECTRAL = 0x53504543540004
TAG_HOLDOUT = 0x484F4C440006


def splitmix64(value: int) -> int:
    """One step of the SplitMix64 mixing function (Steele et al. 2014)."""
    z = (value + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _check_seed(**values: int):
    """Each of ``values`` as a Python int, one alone and several as a tuple;
    ValueError naming the first that is not an integer (NumPy's too, of any
    sign) or is a bool: a seed's own test."""
    checked = []
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value}")
        checked.append(int(value))
    return checked[0] if len(checked) == 1 else tuple(checked)


def mix(seed: int, *parts: int) -> int:
    """Hash ``seed`` with integer ``parts`` (NumPy's too) into a new 64-bit seed."""
    h = _check_seed(seed=seed) & _MASK64
    for p in parts:
        h = splitmix64(h ^ splitmix64(operator.index(p) & _MASK64))
    return h


def stream(seed: int, tag: int) -> np.random.Generator:
    """Independent Generator for (seed, tag), backed by Philox4x64; ``seed``
    is any integer, NumPy's too, and ValueError names anything else."""
    key = np.array([_check_seed(seed=seed) & _MASK64, tag & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
