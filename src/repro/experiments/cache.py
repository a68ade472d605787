"""Content-addressed result cache for the experiment execution plane.

Every sweep point in the reproduction is fully determined by its
:class:`~repro.engine.config.SimulationConfig` (the PR-1 contract the
parallel sweep subsystem rests on), so a simulation result can be stored
and recalled by a *content hash* of the config alone.  This module
provides the two halves of that idea:

- :func:`fingerprint` -- a canonical, **process-stable** digest of any
  value tree built from the primitives configs are made of (dataclasses,
  tuples, dicts, numpy arrays, scalars).  Python's builtin ``hash`` is
  randomised per process for strings, so it cannot key an on-disk cache;
  the fingerprint serialises the value canonically and hashes the bytes
  with SHA-256 instead, making keys stable across processes, machines
  and Python versions.
- :class:`ResultCache` -- a directory-backed pickle store mapping
  fingerprints to result objects, with hit/miss/write counters so the
  unified runner (and the cache benchmark) can assert how much work a
  run actually skipped.

Cache entries live under ``<root>/<schema-version>/``; bumping
:data:`CACHE_SCHEMA_VERSION` orphans old entries wholesale, which is the
intended invalidation story when result shapes change.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "fingerprint",
    "CacheStats",
    "ResultCache",
    "default_cache_root",
]

#: Bump when cached result shapes change incompatibly; old entries are
#: simply never looked at again (they live under the old version dir).
CACHE_SCHEMA_VERSION = 3

#: Environment variable overriding the default on-disk cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_root() -> Path:
    """The default on-disk cache location.

    ``$REPRO_CACHE_DIR`` when set, else ``~/.cache/repro``.
    """
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


def _serialize(obj: Any, out: list[bytes]) -> None:
    """Append a canonical byte encoding of ``obj`` to ``out``.

    Every branch writes a distinct type tag, so values of different
    types (or differently-shaped trees) can never collide structurally.
    """
    if obj is None:
        out.append(b"N;")
    elif obj is True:
        out.append(b"T;")
    elif obj is False:
        out.append(b"F;")
    elif isinstance(obj, int):
        out.append(b"i%d;" % obj)
    elif isinstance(obj, float):
        # float.hex is exact (round-trips the bits) and canonical,
        # unlike repr across NaN payloads or historic Python versions.
        out.append(b"f" + obj.hex().encode() + b";")
    elif isinstance(obj, str):
        encoded = obj.encode("utf-8")
        out.append(b"s%d:" % len(encoded))
        out.append(encoded)
    elif isinstance(obj, bytes):
        out.append(b"b%d:" % len(obj))
        out.append(obj)
    elif isinstance(obj, np.ndarray):
        canonical = np.ascontiguousarray(obj)
        out.append(
            b"a" + str(canonical.dtype).encode() + b"|"
            + str(canonical.shape).encode() + b":"
        )
        out.append(canonical.tobytes())
    elif isinstance(obj, np.generic):
        _serialize(obj.item(), out)
    elif isinstance(obj, (tuple, list)):
        out.append(b"(%d:" % len(obj))
        for item in obj:
            _serialize(item, out)
        out.append(b")")
    elif isinstance(obj, (dict,)):
        keys = sorted(obj, key=repr)
        out.append(b"{%d:" % len(obj))
        for key in keys:
            _serialize(key, out)
            _serialize(obj[key], out)
        out.append(b"}")
    elif isinstance(obj, (set, frozenset)):
        out.append(b"<%d:" % len(obj))
        for item in sorted(obj, key=repr):
            _serialize(item, out)
        out.append(b">")
    elif isinstance(obj, Path):
        _serialize(str(obj), out)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        cls = type(obj)
        tag = f"{cls.__module__}.{cls.__qualname__}"
        fields = dataclasses.fields(obj)
        out.append(b"D" + tag.encode() + b"|%d:" % len(fields))
        for f in fields:
            _serialize(f.name, out)
            _serialize(getattr(obj, f.name), out)
        out.append(b";")
    else:
        raise TypeError(
            f"cannot fingerprint {type(obj).__module__}.{type(obj).__qualname__}; "
            "cache keys must be built from dataclasses, containers and scalars"
        )


def fingerprint(obj: Any) -> str:
    """Canonical SHA-256 content digest of a value tree.

    Stable across processes and machines: equal values always produce
    equal digests, and (unlike pickles or ``repr``) the encoding is
    canonical -- dict ordering, numpy memory layout and float formatting
    cannot perturb it.

    Raises:
        TypeError: for objects outside the canonical vocabulary
            (anything that is not a dataclass, container or scalar).
    """
    chunks: list[bytes] = []
    _serialize(obj, chunks)
    return hashlib.sha256(b"".join(chunks)).hexdigest()


@dataclass
class CacheStats:
    """Counters for one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    writes: int = 0

    def snapshot(self) -> "CacheStats":
        return CacheStats(self.hits, self.misses, self.writes)


@dataclass
class ResultCache:
    """Directory-backed content-addressed store of experiment results.

    Values are pickled; keys are :func:`fingerprint` digests of the
    *inputs* that produced the value (typically a tagged tuple such as
    ``("sim", config)``).  Corrupt or unreadable entries are treated as
    misses, never as errors -- the cache is always allowed to fall back
    to recomputation.
    """

    root: Path
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.root = Path(self.root)

    def _path(self, digest: str) -> Path:
        return self.root / f"v{CACHE_SCHEMA_VERSION}" / digest[:2] / f"{digest}.pkl"

    def get(self, key: Any, default: Any = None) -> Any:
        """Look up the cached value for ``key``; count a hit or miss."""
        path = self._path(fingerprint(key))
        try:
            with open(path, "rb") as fh:
                value = pickle.load(fh)
        except (OSError, pickle.PickleError, EOFError, AttributeError,
                ImportError, IndexError, TypeError, ValueError):
            # Unreadable, truncated, or pickled against a vanished class
            # -- all recoverable by recomputation, per the class contract.
            self.stats.misses += 1
            return default
        self.stats.hits += 1
        return value

    def put(self, key: Any, value: Any) -> None:
        """Store ``value`` under ``key`` (atomic rename, last write wins)."""
        path = self._path(fingerprint(key))
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        with open(tmp, "wb") as fh:
            pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)
        self.stats.writes += 1
