"""Monotone, content-addressed epoch registries, one per store kind.

Speculation dictionaries (:mod:`repro.cfa.fleet.dictver`) and firmware
policies (:mod:`repro.cfa.policy.registry`) are versioned the same
way, and :class:`EpochRegistry` is that one way:

* per device profile, a gapless chain of immutable entries numbered
  1..N; epoch 0 is never stored — each subclass synthesizes it (the
  empty dictionary, the permissive policy), so it always resolves;
* republishing content identical to the latest entry returns that
  entry instead of burning a new number;
* with ``store_dir`` set, each entry is one file
  ``<workload>__<method>__<epoch:06d><suffix>`` published by
  :func:`~repro.codec.atomic_write`, and construction reloads every
  file strictly: an unreadable entry or a gap in a profile's epochs
  refuses to load.

Subclasses supply the entry type through four hooks: :meth:`_read`
(parse and check one file), :meth:`_blob` (the bytes a file holds),
:meth:`_epoch_zero` and :meth:`_content` (what idempotent republish
compares).
"""

from __future__ import annotations

import os
import threading
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Generic,
    List,
    Optional,
    Protocol,
    Type,
    TypeVar,
    Union,
)

from repro.codec import atomic_write


class _Entry(Protocol):
    @property
    def profile(self) -> Any: ...

    @property
    def epoch(self) -> int: ...


E = TypeVar("E", bound=_Entry)


class EpochRegistry(Generic[E]):
    """Per-profile chains of immutable, numbered entries."""

    #: file suffix of one persisted entry
    suffix = ""
    #: what an entry is, in messages ("dictionary", "policy")
    noun = "epoch"
    #: raised when a reloaded store has a gap
    error: Type[Exception] = ValueError

    def __init__(self,
                 store_dir: Optional[Union[str, os.PathLike]] = None):
        self._lock = threading.Lock()
        #: profile -> [entry for epoch 1..N] (epoch 0 is synthesized)
        self._epochs: Dict[Any, List[E]] = {}
        self.store_dir = Path(store_dir) if store_dir is not None else None
        if self.store_dir is not None:
            self.store_dir.mkdir(parents=True, exist_ok=True)
            for path in sorted(self.store_dir.glob(f"*{self.suffix}")):
                entry = self._read(path)
                chain = self._epochs.get(entry.profile, [])
                if entry.epoch != len(chain) + 1:
                    raise self.error(
                        f"{self.noun} store {self.store_dir} has a gap: "
                        f"{path.name} is epoch {entry.epoch}, expected "
                        f"{len(chain) + 1}")
                self._admit(entry)

    # -- subclass hooks -------------------------------------------------------

    def _read(self, path: Path) -> E:
        raise NotImplementedError

    def _blob(self, entry: E) -> bytes:
        raise NotImplementedError

    def _epoch_zero(self, profile: Any) -> E:
        raise NotImplementedError

    def _content(self, entry: E) -> Any:
        raise NotImplementedError

    def _admit(self, entry: E) -> None:
        self._epochs.setdefault(entry.profile, []).append(entry)

    # -- the shared surface ---------------------------------------------------

    def _publish(self, profile: Any, make: Callable[[int], E]) -> E:
        """Version ``make(next_epoch)`` unless it repeats the latest."""
        with self._lock:
            chain = self._epochs.get(profile, [])
            entry = make(len(chain) + 1)
            if chain and self._content(chain[-1]) == self._content(entry):
                return chain[-1]
            if self.store_dir is not None:
                atomic_write(
                    self.store_dir / f"{profile.workload}__{profile.method}"
                    f"__{entry.epoch:06d}{self.suffix}", self._blob(entry))
            self._admit(entry)
            return entry

    def get(self, profile: Any, epoch: int) -> E:
        """Resolve ``(profile, epoch)``; epoch 0 always resolves."""
        if epoch == 0:
            return self._epoch_zero(profile)
        with self._lock:
            chain = self._epochs.get(profile, [])
            if not 1 <= epoch <= len(chain):
                raise KeyError(
                    f"profile {profile} has no {self.noun} epoch {epoch}")
            return chain[epoch - 1]

    def latest(self, profile: Any) -> E:
        with self._lock:
            chain = self._epochs.get(profile, [])
            if chain:
                return chain[-1]
        return self._epoch_zero(profile)

    def latest_epoch(self, profile: Any) -> int:
        with self._lock:
            return len(self._epochs.get(profile, []))
