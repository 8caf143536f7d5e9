"""Deterministic key derivation and pseudo-randomness.

Every key in the system — pool keys, sensor keys, broadcast-chain seeds —
is derived from a single master secret via HMAC as a PRF, so the base
station (which owns the master secret) can reconstruct any key on demand,
and a sensor's entire key ring is determined by an announceable seed
(Section VI: "the base station only needs to announce the associated
random seed used for the selection" to revoke all of a sensor's keys).

Synopsis generation (Section VIII) needs *verifiable* pseudo-randomness:
``prf_uniform`` maps ``(seed parts) -> [0, 1)`` deterministically so a
synopsis can be recomputed — and therefore checked — by anyone who knows
the nonce and the claimed reading.

Hot path: every call used to pay a fresh HMAC key schedule via
``hmac.new``.  The PRF now clones a cached pre-keyed state per secret
(:func:`repro.crypto.mac.hmac_sha256_digest`), which is bit-for-bit the
same computation — ``tests/test_golden_vectors.py`` pins the outputs.
"""

from __future__ import annotations

import math
import random
import struct
from typing import Any, List, Sequence

import numpy as np

from ..errors import CryptoError
from .encoding import encode_parts
from .mac import _PAIR_VIEW, hmac_sha256_digest, keyed_sha256_pair

#: First 8 digest bytes as a big-endian u64 (no intermediate slice).
_UNPACK_U64 = struct.Struct(">Q").unpack_from

#: Rows :func:`sample_distinct_rows` expands per numpy pass.  Bounds the
#: pass's transient arrays (~2 MB at the bench config's 250-of-16,384);
#: 1,024-row passes raised a 10k-grid build's peak RSS from 61 to 71 MB.
_ROWS_PER_PASS = 256


def prf_bytes(secret: bytes, *parts: Any, length: int = 16) -> bytes:
    """HMAC-SHA256 based PRF: ``PRF(secret, parts)`` truncated/expanded.

    Output longer than 32 bytes is produced by counter-mode expansion.
    """
    if not secret:
        raise CryptoError("empty PRF secret")
    if length <= 0:
        raise CryptoError("PRF output length must be positive")
    message = encode_parts(*parts)
    if length <= 32:
        pair = _PAIR_VIEW.get(secret)
        if pair is None:
            pair = keyed_sha256_pair(secret)
        h = pair[0].copy()
        h.update(message)
        h.update(b"\x00\x00\x00\x00")  # counter 0, big-endian
        o = pair[1].copy()
        o.update(h.digest())
        return o.digest()[:length]
    blocks: List[bytes] = []
    produced = 0
    counter = 0
    while produced < length:
        blocks.append(hmac_sha256_digest(secret, message, counter.to_bytes(4, "big")))
        produced += 32
        counter += 1
    return b"".join(blocks)[:length]




def derive_key(secret: bytes, label: str, *parts: Any, length: int = 16) -> bytes:
    """Domain-separated key derivation: ``PRF(secret, label || parts)``."""
    return prf_bytes(secret, label, *parts, length=length)


def prf_uniform(secret: bytes, *parts: Any) -> float:
    """A deterministic uniform draw in ``(0, 1)`` from ``(secret, parts)``.

    Uses 8 PRF bytes (53 bits of which feed the mantissa).  The result is
    strictly positive so it can safely feed ``-log(u)`` transforms.
    """
    if not secret:
        raise CryptoError("empty PRF secret")
    pair = _PAIR_VIEW.get(secret)
    if pair is None:
        pair = keyed_sha256_pair(secret)
    h = pair[0].copy()
    h.update(encode_parts(*parts))
    h.update(b"\x00\x00\x00\x00")  # prf_bytes counter 0
    o = pair[1].copy()
    o.update(h.digest())
    value = _UNPACK_U64(o.digest())[0] / 2**64
    # Avoid exactly 0.0 (probability 2^-64 but would break log()).
    return value if value > 0.0 else 2.0**-64


def sample_distinct_indices(seed: bytes, population: int, count: int) -> List[int]:
    """Deterministically sample ``count`` distinct indices in ``[0, population)``.

    This is the Eschenauer–Gligor ring selection: uniform without
    replacement, fully determined by ``seed``.  Returned sorted ascending
    (the binary searches in Figures 5/6 need a canonical order).
    """
    _check_sample_size(population, count)
    rng = random.Random(seed)
    return sorted(rng.sample(range(population), count))


def _check_sample_size(population: int, count: int) -> None:
    if count < 0:
        raise CryptoError(f"cannot sample a negative count ({count})")
    if count > population:
        raise CryptoError(f"cannot sample {count} distinct from {population}")


def _draw_window(population: int, count: int) -> int:
    """Mersenne-Twister words one set-branch ``sample`` rarely outruns.

    Each draw is accepted with probability ``population / 2**bits`` and
    is new with probability ``(population - i) / population`` once ``i``
    indices are held, so the words consumed are a sum of ``count``
    geometric variables.  The window is their mean plus four standard
    deviations (plus slack for tiny counts); a row that needs more is
    recomputed by the reference sampler.
    """
    accept = population / (1 << population.bit_length())
    mean = variance = 0.0
    for held in range(count):
        q = accept * (population - held) / population
        mean += 1.0 / q
        variance += (1.0 - q) / (q * q)
    return math.ceil(mean + 4.0 * math.sqrt(variance)) + 8


def sample_distinct_rows(
    seeds: Sequence[bytes], population: int, count: int
) -> np.ndarray:
    """:func:`sample_distinct_indices` for many seeds, as ``int32`` rows.

    Row ``i`` equals ``sorted(random.Random(seeds[i]).sample(
    range(population), count))`` element for element.  When ``population``
    is larger than the set ``sample`` would build (CPython's set branch),
    ``sample`` consumes nothing but ``getrandbits(bits) = word >> (32 -
    bits)`` draws on one Mersenne-Twister word stream, with ``bits =
    population.bit_length()``: it rejects draws ``>= population`` and
    skips repeats.  One ``getrandbits(32 * window)`` per seed yields that
    exact stream, and a numpy pass keeps each row's first ``count``
    distinct accepted draws.  CPython's list branch (small populations)
    and rows whose window runs short use the reference sampler.  Rows are
    ``int32``, so ``population`` may not exceed ``2**31``; that also keeps
    every draw within one 32-bit word.
    """
    _check_sample_size(population, count)
    if population > 1 << 31:
        raise CryptoError(f"population {population} exceeds int32 rows")
    out = np.empty((len(seeds), count), dtype=np.int32)
    if count == 0:
        return out
    setsize = 21  # CPython's ``sample`` branch test, verbatim
    if count > 5:
        setsize += 4 ** math.ceil(math.log(count * 3, 4))
    if population <= setsize:
        for row, seed in enumerate(seeds):
            out[row] = sample_distinct_indices(seed, population, count)
        return out
    width = _draw_window(population, count)
    bits = population.bit_length()
    shift = np.uint32(32 - bits)
    # Sort keys: draw value above position, so a sorted row groups
    # repeats with their earliest position first.  32-bit keys sort
    # ~2.5x faster than 64-bit ones.
    position_bits = (width - 1).bit_length()
    key_type = np.uint32 if bits + position_bits <= 32 else np.uint64
    positions = np.arange(width, dtype=key_type)
    rng = random.Random()
    for start in range(0, len(seeds), _ROWS_PER_PASS):
        batch = seeds[start : start + _ROWS_PER_PASS]
        words = []
        for seed in batch:
            rng.seed(seed)  # the state random.Random(seed) starts from
            words.append(rng.getrandbits(32 * width).to_bytes(4 * width, "little"))
        draws = np.frombuffer(b"".join(words), dtype="<u4").reshape(len(batch), width)
        keys = (draws >> shift).astype(key_type) << position_bits
        keys |= positions
        keys.sort(axis=1)
        values = keys >> position_bits
        # Position of each accepted value's first draw; ``width`` elsewhere.
        first_at = keys & ((1 << position_bits) - 1)
        first = np.empty(keys.shape, dtype=bool)
        first[:, 0] = True
        np.not_equal(values[:, 1:], values[:, :-1], out=first[:, 1:])
        first &= values < population
        first_at[~first] = width
        # ``sample`` stops at the count-th distinct accepted draw.
        stop = np.partition(first_at, count - 1, axis=1)[:, count - 1 : count]
        short = stop[:, 0] >= width
        chosen = first_at <= stop
        chosen[short] = False
        block = out[start : start + len(batch)]
        block[~short] = values[chosen].reshape(-1, count)
        for row in np.flatnonzero(short):
            block[row] = sample_distinct_indices(batch[row], population, count)
    return out
