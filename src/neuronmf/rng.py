"""Reproducible random streams keyed by a master seed and a label path.

Two kinds of stream, both pure functions of (seed, label, label, ...), so
results are bitwise identical no matter how replicates are scheduled or
parallelized:

* substream(seed, *labels) builds a numpy Generator (Philox keyed by the
  path), for consumers that want numpy's samplers;
* the event engine instead reads counter-based uniforms (Salmon et al.,
  SC'11) with no per-neuron object: stream_key(seed, *labels) derives a
  run key, and block b of integer label i is the 64-byte BLAKE2b digest of
  (i, b) under that key. Its eight little-endian 64-bit words w are the
  uniforms (w >> 11) 2^-53 in [0, 1), so draw k of label i is a pure
  function of (run key, i, k), whatever else is read with it.
  read_blocks reads any (key, label, block) triples in one call, and
  uniform_array, built on it, any run of blocks for many labels under one
  key, as one array.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

_MASK64 = (1 << 64) - 1
_BLOCK_MESSAGE = struct.Struct("<qQ")  # (label, block index) hashed into one block
BLOCK_UNIFORMS = 8  # uniforms per block: one per 64-bit word of the digest
_BLAKE2B = type(hashlib.blake2b())  # its methods, bound once per read


def _key(seed: int, labels: tuple) -> int:
    h = hashlib.blake2s(digest_size=16)
    h.update((seed & _MASK64).to_bytes(8, "little"))
    for lab in labels:
        if isinstance(lab, str):
            raw = lab.encode("utf-8")
            h.update(b"s")
            h.update(len(raw).to_bytes(4, "little"))
            h.update(raw)
        else:
            h.update(b"i")
            h.update((int(lab) & _MASK64).to_bytes(8, "little"))
    return int.from_bytes(h.digest(), "little")


def substream(seed: int, *labels) -> np.random.Generator:
    """Independent Philox generator for the stream named (seed, *labels).

    Labels may be ints or strings. The same path always yields the same
    stream; distinct paths yield streams independent for all practical
    purposes (128-bit keyed counter-based generator). No package code
    draws from it: its users are the tests' samplers and oracles and
    benchmark/tracing.py, which counts the calls under this name.
    """
    return np.random.Generator(np.random.Philox(key=_key(seed, labels)))


def derive_seed(seed: int, *labels) -> int:
    """A 63-bit child seed for the path (seed, *labels), for nested derivation."""
    return _key(seed, labels) & ((1 << 63) - 1)


def stream_key(seed: int, *labels) -> bytes:
    """The 16-byte run key of the counter-based streams named (seed, *labels)."""
    return _key(seed, labels).to_bytes(16, "little")


def read_blocks(triples) -> np.ndarray:
    """Block b of label i's uniform stream under key for each (key, i, b), i in [-2^63, 2^63), as one flat array."""
    pack, copy, update, digest = _BLOCK_MESSAGE.pack, _BLAKE2B.copy, _BLAKE2B.update, _BLAKE2B.digest
    raw, last = bytearray(), None
    for key, lab, b in triples:
        if key is not last:  # a copy of the key's hasher skips re-absorbing the key
            last, keyed = key, hashlib.blake2b(key=key, digest_size=64)
        h = copy(keyed)
        update(h, pack(lab, b))
        raw += digest(h)
    words = np.frombuffer(raw, dtype="<u8")
    np.right_shift(words, 11, out=words)  # in place: the digests are not kept
    return np.multiply(words, 2.0**-53)


def uniform_array(key: bytes, labels, first: int, count: int) -> np.ndarray:
    """Blocks [first, first + count) of each label's uniform stream under key, one row per label, in order."""
    blocks = range(first, first + count)
    return read_blocks((key, i, b) for i in labels for b in blocks).reshape(-1, BLOCK_UNIFORMS * count)
