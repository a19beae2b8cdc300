"""Decentralized application delivery: content-addressed store plus ownership ledger.

Blobs are stored under the SHA-256 of their framed bytes, which makes records
tamper-evident: a fetch re-hashes and compares. The ledger binds
``(owner, image name)`` to image metadata and only the recorded owner may
update an entry. The same store doubles as the long-term archive for
monitoring series.

On-disk layout (optional, enabled by passing a directory):

    store/<hash>     raw framed blob bytes
    ledger.jsonl     append-only ledger records, one JSON object per line
"""
from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

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
    """Ledger entry mirroring the delivery contract's image metadata."""

    image_hash: str
    image_name: str
    base_limit_memory: int
    request_limit_memory: int
    base_limit_cpu: int
    request_limit_cpu: int
    owner: str

    def as_dict(self) -> dict:
        return {
            "image_hash": self.image_hash,
            "image_name": self.image_name,
            "base_limit_memory": self.base_limit_memory,
            "request_limit_memory": self.request_limit_memory,
            "base_limit_cpu": self.base_limit_cpu,
            "request_limit_cpu": self.request_limit_cpu,
            "owner": self.owner,
        }


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
    """Content store + ownership ledger + per-device metrics archive index."""

    def __init__(self, root: Optional[str | Path] = None) -> None:
        self._store: dict[str, bytes] = {}
        self._images: dict[tuple[str, str], ImageRecord] = {}
        self._archive_index: dict[str, list[str]] = {}
        self._root = Path(root) if root is not None else None
        if self._root is not None:
            self._load_disk()

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

        Only the recorded owner can deliver updates; base limits must not
        exceed their paired request limits.
        """
        caller = caller if caller is not None else owner
        for res in ("cpu", "mem"):
            if int(base_limits[res]) > int(request_limits[res]):
                raise RegistryError(
                    f"base {res} limit {base_limits[res]} exceeds request limit {request_limits[res]}"
                )
        key = (owner, name)
        existing = self._images.get(key)
        if existing is not None and existing.owner != caller:
            raise OwnershipViolation(f"{caller!r} is not the owner of ({owner!r}, {name!r})")
        if existing is None and caller != owner:
            raise OwnershipViolation(f"{caller!r} cannot publish on behalf of {owner!r}")
        digest = self._put(blob.encode())
        record = ImageRecord(
            image_hash=digest,
            image_name=name,
            base_limit_memory=int(base_limits["mem"]),
            request_limit_memory=int(request_limits["mem"]),
            base_limit_cpu=int(base_limits["cpu"]),
            request_limit_cpu=int(request_limits["cpu"]),
            owner=owner,
        )
        self._images[key] = record
        self._append_ledger({"kind": "image", **record.as_dict()})
        return digest

    def get_image(self, owner: str, name: str) -> ImageRecord:
        try:
            return self._images[(owner, name)]
        except KeyError:
            raise NotFound(f"no image record for ({owner!r}, {name!r})") from None

    def fetch_blob(self, digest: str) -> ImageBlob:
        raw = self._get(digest)
        return ImageBlob.decode(raw)

    def fetch_layer(self, digest: str, index: int) -> bytes:
        blob = self.fetch_blob(digest)
        try:
            return blob.layers[index]
        except IndexError:
            raise NotFound(f"blob {digest[:12]} has no layer {index}") from None

    # -- metrics archive -----------------------------------------------------

    def archive_metrics(self, device: str, series: list | dict) -> str:
        """Serialize a metrics series content-addressed; index the hash per device."""
        if not series:
            raise RegistryError("refusing to archive an empty series")
        raw = json.dumps(series, sort_keys=True, separators=(",", ":")).encode("utf-8")
        digest = self._put(raw)
        self._archive_index.setdefault(device, []).append(digest)
        self._append_ledger({"kind": "metrics", "device": device, "hash": digest})
        return digest

    def fetch_metrics(self, digest: str) -> list | dict:
        return json.loads(self._get(digest).decode("utf-8"))

    def archived_hashes(self, device: str) -> list[str]:
        return list(self._archive_index.get(device, []))

    # -- store plumbing ------------------------------------------------------

    def _put(self, raw: bytes) -> str:
        digest = content_hash(raw)
        if digest not in self._store:
            self._store[digest] = raw
            if self._root is not None:
                store_dir = self._root / "store"
                store_dir.mkdir(parents=True, exist_ok=True)
                (store_dir / digest).write_bytes(raw)
        return digest

    def _get(self, digest: str) -> bytes:
        try:
            raw = self._store[digest]
        except KeyError:
            raise NotFound(f"unknown content hash {digest[:12]}...") from None
        if content_hash(raw) != digest:
            raise TamperError(f"stored bytes for {digest[:12]}... fail verification")
        return raw

    def _append_ledger(self, record: dict) -> None:
        if self._root is not None:
            self._root.mkdir(parents=True, exist_ok=True)
            with (self._root / "ledger.jsonl").open("a", encoding="utf-8") as fh:
                fh.write(json.dumps({"hash_algorithm": HASH_ALGORITHM, **record}, sort_keys=True) + "\n")

    def _load_disk(self) -> None:
        assert self._root is not None
        store_dir = self._root / "store"
        if store_dir.is_dir():
            for path in store_dir.iterdir():
                self._store[path.name] = path.read_bytes()
        ledger = self._root / "ledger.jsonl"
        if ledger.is_file():
            for line in ledger.read_text(encoding="utf-8").splitlines():
                if not line.strip():
                    continue
                record = json.loads(line)
                if record.get("kind") == "image":
                    rec = ImageRecord(
                        image_hash=record["image_hash"],
                        image_name=record["image_name"],
                        base_limit_memory=record["base_limit_memory"],
                        request_limit_memory=record["request_limit_memory"],
                        base_limit_cpu=record["base_limit_cpu"],
                        request_limit_cpu=record["request_limit_cpu"],
                        owner=record["owner"],
                    )
                    self._images[(rec.owner, rec.image_name)] = rec
                elif record.get("kind") == "metrics":
                    self._archive_index.setdefault(record["device"], []).append(record["hash"])

    # test hook: deliberately corrupt a stored byte to exercise tamper detection
    def _corrupt_for_test(self, digest: str, offset: int = 0) -> None:
        raw = bytearray(self._store[digest])
        raw[offset] ^= 0xFF
        self._store[digest] = bytes(raw)
