"""Deterministic randomness.

A single master seed fans out into independent, named random streams so that
adding a new consumer of randomness does not perturb existing streams (a
common reproducibility bug when everything shares one ``random.Random``).

When the determinism sanitizer is enabled (``repro run --sanitize``),
:meth:`RngFactory.stream` hands out an observation-only
:class:`~repro.sanitizer.streams.InstrumentedStream` proxy around the
same underlying generator, so every draw lands in the shadow trace
with its stream name, method and call-site; the factory itself keeps
the raw generators, and state transfer (:meth:`export_state` /
:meth:`install_state`) operates on them directly.
"""

from __future__ import annotations

import hashlib
import random
import warnings
from typing import Dict

from repro.sanitizer.streams import InstrumentedStream
from repro.sanitizer.trace import SANITIZER


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a stable 64-bit child seed from ``master_seed`` and ``name``.

    Uses SHA-256 so the mapping is stable across Python versions and
    platforms (``hash()`` is salted per-process and unsuitable here).
    """
    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RngFactory:
    """Hands out named, independent :class:`random.Random` streams.

    Requesting the same name twice returns the *same* generator instance, so
    a stream's state is shared by all code that asks for that name.
    """

    def __init__(self, master_seed: int) -> None:
        self._master_seed = int(master_seed)
        self._streams: Dict[str, random.Random] = {}
        self._wrapped: Dict[str, InstrumentedStream] = {}

    @property
    def master_seed(self) -> int:
        return self._master_seed

    def stream(self, name: str):
        """Return the generator for ``name``, creating it on first use.

        While the sanitizer is enabled the returned object is a cached
        instrumented proxy over the same generator — byte-identical
        draws, plus one shadow-trace event per draw.
        """
        raw = self._streams.get(name)
        if raw is None:
            raw = self._streams[name] = random.Random(
                derive_seed(self._master_seed, name)
            )
        if SANITIZER.enabled:
            wrapped = self._wrapped.get(name)
            if wrapped is None:
                wrapped = self._wrapped[name] = InstrumentedStream(raw, name)
            return wrapped
        return raw

    def fresh(self, name: str):
        """Return a *new* generator seeded for ``name`` (state not shared)."""
        raw = random.Random(derive_seed(self._master_seed, name))
        if SANITIZER.enabled:
            return InstrumentedStream(raw, "fresh:" + name)
        return raw

    def child(self, name: str) -> "RngFactory":
        """Return a new factory whose streams are independent of this one."""
        return RngFactory(derive_seed(self._master_seed, f"child:{name}"))

    def export_state(self) -> Dict[str, tuple]:
        """Snapshot every live stream's generator state (checkpoints)."""
        return {name: stream.getstate()
                for name, stream in self._streams.items()}

    def install_state(self, states: Dict[str, tuple]) -> None:
        """Restore an :meth:`export_state` snapshot.

        Streams named in ``states`` are (re)created and wound to the
        recorded position; streams created since the snapshot are left
        alone (their first draw after a resume re-derives from the seed
        exactly as the original run's first draw did).

        A name not yet live in this factory is almost always a typo'd
        or stale checkpoint key — installing it would silently create
        a fresh stream pre-wound to someone else's state — so it is
        reported as a :class:`RuntimeWarning` (the state is still
        installed: a legitimate late-created stream keeps working).
        """
        for name, state in states.items():
            if name not in self._streams:
                warnings.warn(
                    f"install_state: stream {name!r} does not exist in "
                    "this factory yet; installing creates it pre-wound — "
                    "check the checkpoint key if this is not a stream "
                    "the run creates later",
                    RuntimeWarning, stacklevel=2)
            stream = self._streams.get(name)
            if stream is None:
                stream = self._streams[name] = random.Random(
                    derive_seed(self._master_seed, name)
                )
            stream.setstate(state)
