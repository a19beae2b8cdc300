"""Decentralized application delivery: content-addressed store plus ownership ledger.

Image blobs are stored in memory under the SHA-256 of their framed bytes,
which makes records tamper-evident: a fetch re-hashes and compares. The ledger
binds ``(owner, image name)`` to image metadata and only the recorded owner
may update an entry. Expired monitoring series are hashed, not kept: the
store holds image blobs only.
"""
from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass
from typing import Optional

from .model import RESOURCES, Limits

HASH_ALGORITHM = "sha256"


class RegistryError(Exception):
    pass


class NotFound(RegistryError):
    pass


class OwnershipViolation(RegistryError):
    """Caller tried to update an entry recorded under another owner."""


class TamperError(RegistryError):
    """Stored bytes no longer match their content hash."""


@dataclass(frozen=True)
class ImageRecord:
    """Ledger entry mirroring the delivery contract's image metadata.

    Every limit is positive and no base limit exceeds its request limit.
    """

    image_hash: str
    image_name: str
    request: Limits
    base: Limits
    owner: str

    def __post_init__(self) -> None:
        for res in RESOURCES:
            request, base = getattr(self.request, res), getattr(self.base, res)
            if request <= 0 or base <= 0:
                raise RegistryError(f"{res} limits must be positive, got request {request} and base {base}")
            if base > request:
                raise RegistryError(f"base {res} limit {base} exceeds request limit {request}")


class ImageBlob:
    """An ordered list of layers, each an independently fetchable byte string."""

    def __init__(self, layers: list[bytes]) -> None:
        if not layers or any(len(layer) == 0 for layer in layers):
            raise RegistryError("blob must contain at least one non-empty layer")
        self.layers = list(layers)

    def encode(self) -> bytes:
        # Length-framed so layer boundaries survive the round trip.
        out = bytearray(struct.pack(">I", len(self.layers)))
        for layer in self.layers:
            out += struct.pack(">I", len(layer))
            out += layer
        return bytes(out)

    @classmethod
    def decode(cls, raw: bytes) -> "ImageBlob":
        (count,) = struct.unpack_from(">I", raw, 0)
        offset = 4
        layers = []
        for _ in range(count):
            (size,) = struct.unpack_from(">I", raw, offset)
            offset += 4
            layers.append(raw[offset:offset + size])
            offset += size
        return cls(layers)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ImageBlob) and self.layers == other.layers


def content_hash(raw: bytes) -> str:
    return hashlib.new(HASH_ALGORITHM, raw).hexdigest()


class Registry:
    """Image content store + ownership ledger."""

    def __init__(self) -> None:
        self._store: dict[str, bytes] = {}
        self._images: dict[tuple[str, str], ImageRecord] = {}

    # -- application delivery ------------------------------------------------

    def publish_image(
        self,
        owner: str,
        name: str,
        blob: ImageBlob,
        request_limits: dict,
        base_limits: dict,
        caller: Optional[str] = None,
    ) -> str:
        """Store the blob and create/update the ledger entry; returns the hash.

        Only the recorded owner can deliver updates; every limit must be a
        positive integer, and base limits must not exceed their paired
        request limits.
        """
        caller = caller if caller is not None else owner
        key = (owner, name)
        existing = self._images.get(key)
        if existing is not None and existing.owner != caller:
            raise OwnershipViolation(f"{caller!r} is not the owner of ({owner!r}, {name!r})")
        if existing is None and caller != owner:
            raise OwnershipViolation(f"{caller!r} cannot publish on behalf of {owner!r}")
        raw = blob.encode()
        record = ImageRecord(
            image_hash=content_hash(raw),
            image_name=name,
            request=Limits.from_dict(request_limits),
            base=Limits.from_dict(base_limits),
            owner=owner,
        )
        self._store.setdefault(record.image_hash, raw)
        self._images[key] = record
        return record.image_hash

    def get_image(self, owner: str, name: str) -> ImageRecord:
        try:
            return self._images[(owner, name)]
        except KeyError:
            raise NotFound(f"no image record for ({owner!r}, {name!r})") from None

    def fetch_blob(self, digest: str) -> ImageBlob:
        try:
            raw = self._store[digest]
        except KeyError:
            raise NotFound(f"unknown content hash {digest[:12]}...") from None
        if content_hash(raw) != digest:
            raise TamperError(f"stored bytes for {digest[:12]}... fail verification")
        return ImageBlob.decode(raw)

    # -- metrics archive -----------------------------------------------------

    def archive_metrics(self, series: list | dict) -> str:
        """The content hash of a metrics series' canonical JSON; keeps nothing."""
        if not series:
            raise RegistryError("refusing to archive an empty series")
        return content_hash(json.dumps(series, sort_keys=True, separators=(",", ":")).encode("utf-8"))
