"""Deterministic random-number plumbing.

Every stochastic component in the reproduction draws from a
``numpy.random.Generator`` that is ultimately seeded by the experiment
harness.  These helpers make seeding uniform:

* :func:`ensure_rng` normalises "seed or generator" arguments.
* :func:`derive_rng` derives an independent child stream from a parent
  seed and a string label, so that e.g. per-node noise streams do not
  alias each other and results are stable under code reordering.

Sequential generators impose an evaluation *order*: two consumers
sharing one stream must draw in a fixed sequence, which serialises any
code that wants to process many consumers in one fused array program
(or in parallel worker processes).  The counter-based helpers below
remove that constraint:

* :func:`derive_key` hashes ``(seed, label, *ids)`` into a 128-bit
  Philox key, so every ``(transmission, receiver)`` pair owns a stream
  addressed purely by *who it is*, not by *when it draws*.
* :func:`keyed_rng` wraps that key in numpy's counter-based Philox
  generator, the one Philox implementation here: what a stream yields
  depends only on its key and how much it has drawn, so any batch of
  streams can be evaluated in any order, on any worker, with
  bit-identical results.
* :func:`keyed_words` reads many keyed streams' raw 32-bit words with
  one re-keyed bit generator, for the chip channel's per-pair draws;
  a stream may start part-way in, at a whole codeword's draws.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Iterator
from typing import TypeAlias

import numpy as np

from repro.utils import sanitize

#: Anything :func:`ensure_rng` accepts: a seed, a ready generator, or
#: ``None`` (entropy-seeded — exploratory use only).
RngLike: TypeAlias = int | np.random.Generator | None


def ensure_rng(rng: RngLike) -> np.random.Generator:
    """Return a ``Generator``: pass one through, or seed a fresh one.

    ``None`` yields a generator seeded from entropy — only appropriate
    for exploratory use; experiments always pass explicit seeds.
    """
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def derive_rng(seed: int, label: str) -> np.random.Generator:
    """Derive a child generator from ``seed`` and a stable string label.

    The label is hashed so adding new consumers never perturbs existing
    streams (unlike sequential ``spawn`` ordering).
    """
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    child_seed = int.from_bytes(digest[:8], "big")
    return np.random.default_rng(child_seed)


# ---------------------------------------------------------------------------
# counter-based (keyed) streams
# ---------------------------------------------------------------------------


def derive_key(seed: int, label: str, *ids: int) -> np.ndarray:
    """Hash ``(seed, label, *ids)`` into a ``(2,)`` uint64 Philox key.

    The label/id tuple is hashed the same way :func:`derive_rng` hashes
    its label, so adding consumers never perturbs existing keys, and
    distinct id tuples get (cryptographically) independent keys.
    """
    text = ":".join([str(seed), label, *(str(i) for i in ids)])
    digest = hashlib.sha256(text.encode()).digest()
    if sanitize.enabled():
        # Ledger the key at mint time only: downstream re-reading of a
        # stored key (keyed_words re-keying one bit generator for the
        # batched channel) reuses a stream on purpose and must not
        # read as a second draw site.
        sanitize.record_key(digest[:16], sanitize.call_site((__file__,)))
    return np.frombuffer(digest[:16], dtype=np.dtype("<u8")).copy()


def keyed_rng(seed: int, label: str, *ids: int) -> np.random.Generator:
    """A counter-based stream addressed by ``(seed, label, *ids)``.

    Unlike :func:`derive_rng` consumers that share one sequential
    stream, every id tuple owns an independent Philox-keyed stream:
    what it yields depends only on the key and how much *it* has
    drawn, never on what other streams drew or in which order — so
    per-pair work can be fused into batches or sharded across worker
    processes with bit-identical results.
    """
    return rng_from_key(derive_key(seed, label, *ids))


def rng_from_key(key: np.ndarray) -> np.random.Generator:
    """Wrap a precomputed :func:`derive_key` key in a Philox stream.

    :func:`keyed_rng` and the supervised executor's fault and backoff
    draws build their keyed streams here, so generator construction
    stays concentrated in this module (the RP001 contract); the
    batched channel reads its per-pair words through
    :func:`keyed_words` instead.
    """
    return np.random.Generator(np.random.Philox(key=key))


def keyed_words(
    keys: np.ndarray, counts: Iterable[int], offsets: Iterable[int]
) -> Iterator[np.ndarray]:
    """Yield ``count`` uint32 words of each key's stream, from ``offset`` on.

    ``offset`` counts 32-word steps, one chip codeword each.  For every
    ``(key, count, offset)`` the yielded array equals
    ``rng_from_key(key).integers(0, 2**32, 32 * offset + count,
    dtype=np.uint32)[32 * offset:]`` bit for bit: numpy serves
    full-range 32-bit draws by splitting each raw 64-bit Philox output
    in two, low half first.  Reading ``random_raw`` as little-endian
    uint32 pairs reproduces that order on any host (the explicit
    ``<u8`` cast makes it hold on big-endian ones too); an odd count
    drops the last high half, just as the stream would leave it
    buffered.  A Philox block is four 64-bit outputs, eight words, so
    a 32-word step is four blocks: the counter starts at
    ``4 * offset``, where ``Philox.advance(4 * offset)`` would leave
    it, and the skipped words are never computed.

    One bit generator serves every key: each stream resets its
    counter, output buffer and key, which is exactly the state
    ``Philox(key=key)`` starts in advanced by the offset, so no stream
    depends on its neighbours and a key may appear more than once.
    This skips the generator construction per key (and the entropy
    gathering behind it, which a keyed stream never reads) and the
    bounded-integer loop of ``Generator.integers``.
    """
    bitgen = np.random.Philox(key=0)
    fresh = bitgen.state
    counter = fresh["state"]["counter"]
    # Callers read one array per stream with next() and check the key
    # table's shape themselves, so no length check could fire here.
    for key, count, offset in zip(keys, counts, offsets, strict=False):
        fresh["state"]["key"] = key
        counter[0] = 4 * offset
        bitgen.state = fresh
        raw = bitgen.random_raw((count + 1) // 2)
        yield raw.astype("<u8", copy=False).view("<u4")[:count]
