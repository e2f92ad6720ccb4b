"""Buffer-backed storage protocol for the succinct structures.

Every bit-packed structure in :mod:`repro.bits` stores its payload in a
small set of flat numpy arrays (packed words, rank directories) plus a
handful of scalars (lengths, widths, alphabet sizes). This module gives
that fact a first-class protocol:

* ``export_storage()`` on a structure returns a :class:`StorageBundle` —
  a tree of JSON-safe scalars (``meta``), named flat arrays (``arrays``)
  and named child bundles (``children``) that together describe the
  object completely;
* ``attach_storage(bundle)`` (a classmethod) rebuilds the structure from
  a bundle **without copying a single array**: slots are set directly to
  the arrays in the bundle, which may be views over an external read-only
  buffer (a ``memoryview``, an ``mmap``, or a
  ``multiprocessing.shared_memory.SharedMemory`` block).

The attach path never recomputes a directory — rank directories and
superblock tables travel in the bundle — so attaching is O(structure
count), not O(n), and the reconstructed object answers every query
bit-identically to the original (the differential tests assert this for
all five structure classes).

Invariant: query code never writes into ``_words``-style arrays, so a
structure backed by a read-only buffer behaves exactly like an owning
one. Anything that *would* write (construction helpers) only runs in
``__init__``, which attach bypasses via ``cls.__new__``.

Derived state — memoryviews over the arrays, the wavelet matrix's bucket
table — is recomputed after construction, attach and unpickling
(:class:`DerivedState`); it never enters a bundle or a pickle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, Tuple

import numpy as np

from ..errors import InvalidParameterError

__all__ = [
    "StorageBundle",
    "attach_structure",
    "expected_array",
    "register_structure",
]


@dataclass
class StorageBundle:
    """A serialisable description of one structure: scalars + flat arrays.

    ``kind`` names the structure class (dispatch key for
    :func:`attach_structure`); ``meta`` holds JSON-safe scalars only;
    ``arrays`` holds this level's flat numpy arrays; ``children`` holds
    nested bundles for component structures (wavelet levels, the low/high
    halves of an Elias–Fano sequence, ...).
    """

    kind: str
    meta: Dict[str, Any] = field(default_factory=dict)
    arrays: Dict[str, np.ndarray] = field(default_factory=dict)
    children: Dict[str, "StorageBundle"] = field(default_factory=dict)

    def walk_arrays(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        """Yield ``(dotted_path, array)`` for every array in the tree.

        Traversal order is deterministic (insertion order at each level,
        arrays before children), which fixes the physical layout of
        segment files.
        """
        for name, arr in self.arrays.items():
            yield (prefix + name, arr)
        for name, child in self.children.items():
            yield from child.walk_arrays(prefix + name + ".")

    def header(self) -> Dict[str, Any]:
        """JSON-safe tree describing everything except the array payloads.

        Arrays are listed by name with dtype and shape so a reader can
        validate the relocation table against the structure tree.
        """
        return {
            "kind": self.kind,
            "meta": self.meta,
            "arrays": {
                name: {"dtype": str(arr.dtype), "shape": list(arr.shape)}
                for name, arr in self.arrays.items()
            },
            "children": {
                name: child.header() for name, child in self.children.items()
            },
        }

    @classmethod
    def from_header(
        cls, header: Dict[str, Any], resolve: Callable[[str], np.ndarray], prefix: str = ""
    ) -> "StorageBundle":
        """Rebuild a bundle tree from :meth:`header` output.

        ``resolve(dotted_path)`` maps each array name to its (typically
        buffer-backed, read-only) numpy view.
        """
        arrays = {}
        for name, spec in header.get("arrays", {}).items():
            arr = resolve(prefix + name)
            if str(arr.dtype) != spec["dtype"] or list(arr.shape) != spec["shape"]:
                raise InvalidParameterError(
                    f"array {prefix + name!r} does not match its header "
                    f"(got {arr.dtype}/{arr.shape}, "
                    f"expected {spec['dtype']}/{spec['shape']})"
                )
            arrays[name] = arr
        children = {
            name: cls.from_header(sub, resolve, prefix + name + ".")
            for name, sub in header.get("children", {}).items()
        }
        return cls(
            kind=header["kind"], meta=dict(header.get("meta", {})),
            arrays=arrays, children=children,
        )


class DerivedState:
    """Mixin for slotted structures that keep derived slots.

    ``_STORED`` names the slots that describe the structure; every other
    slot is rebuilt by ``_derive()``. Pickling keeps exactly the stored
    slots in the ``(None, {slot: value})`` state a plain slotted class
    gets from ``object.__reduce_ex__``, so files written before a derived
    slot existed still load, and files written now load in builds that
    never had one.
    """

    __slots__ = ()
    _STORED: Tuple[str, ...] = ()

    def _derive(self) -> None:
        raise NotImplementedError

    def __getstate__(self):
        return None, {name: getattr(self, name) for name in self._STORED}

    def __setstate__(self, state) -> None:
        for name, value in state[1].items():
            setattr(self, name, value)
        self._derive()


def expected_array(bundle: StorageBundle, name: str, dtype: str) -> np.ndarray:
    """Fetch a named array from a bundle, validating its dtype.

    Attach paths use this instead of ``np.ascontiguousarray`` precisely so
    that no copy can sneak in: the array is handed through as-is.
    """
    try:
        arr = bundle.arrays[name]
    except KeyError:
        raise InvalidParameterError(
            f"{bundle.kind} bundle is missing array {name!r}"
        ) from None
    if str(arr.dtype) != dtype:
        raise InvalidParameterError(
            f"{bundle.kind} array {name!r} must be {dtype}, got {arr.dtype}"
        )
    return arr


# Registry: kind -> attach classmethod. Structure modules register
# themselves at import time (see register_structure), which keeps this
# module import-light and free of circular imports.
_ATTACHERS: Dict[str, Callable[[StorageBundle], Any]] = {}


def register_structure(kind: str, attach: Callable[[StorageBundle], Any]) -> None:
    """Register a structure class's attach entry point under ``kind``."""
    _ATTACHERS[kind] = attach


def attach_structure(bundle: StorageBundle) -> Any:
    """Rebuild any registered structure from its bundle (zero-copy)."""
    try:
        attach = _ATTACHERS[bundle.kind]
    except KeyError:
        raise InvalidParameterError(
            f"unknown structure kind {bundle.kind!r}; "
            f"known: {sorted(_ATTACHERS)}"
        ) from None
    return attach(bundle)
