import random

import pytest

from orchestrion.registry import (
    ImageBlob,
    NotFound,
    OwnershipViolation,
    Registry,
    RegistryError,
    TamperError,
    content_hash,
)

REQUEST = {"cpu": 100, "mem": 150}
BASE = {"cpu": 50, "mem": 100}


def blob_from(*layers: bytes) -> ImageBlob:
    return ImageBlob(list(layers))


class TestPublishAndGet:
    def test_round_trip_with_limits(self):
        reg = Registry()
        digest = reg.publish_image("vendor", "app", blob_from(b"layer"), REQUEST, BASE)
        record = reg.get_image("vendor", "app")
        assert record.image_hash == digest
        assert record.request_limit_memory == 150
        assert record.base_limit_memory == 100
        assert record.request_limit_cpu == 100
        assert record.base_limit_cpu == 50
        assert record.owner == "vendor"

    def test_update_by_different_caller_rejected(self):
        reg = Registry()
        reg.publish_image("vendor", "app", blob_from(b"v1"), REQUEST, BASE)
        with pytest.raises(OwnershipViolation):
            reg.publish_image("vendor", "app", blob_from(b"evil"), REQUEST, BASE, caller="mallory")
        assert reg.fetch_blob(reg.get_image("vendor", "app").image_hash) == blob_from(b"v1")

    def test_identical_bytes_identical_hash(self):
        reg = Registry()
        h1 = reg.publish_image("vendor", "app", blob_from(b"same"), REQUEST, BASE)
        h2 = reg.publish_image("vendor", "app", blob_from(b"same"), REQUEST, BASE)
        assert h1 == h2

    def test_update_returns_new_hash(self):
        reg = Registry()
        h1 = reg.publish_image("vendor", "app", blob_from(b"v1"), REQUEST, BASE)
        h2 = reg.publish_image("vendor", "app", blob_from(b"v2"), REQUEST, BASE)
        assert h1 != h2
        assert reg.get_image("vendor", "app").image_hash == h2

    def test_unknown_key_not_found(self):
        with pytest.raises(NotFound):
            Registry().get_image("nobody", "nothing")

    def test_base_above_request_rejected(self):
        reg = Registry()
        with pytest.raises(RegistryError):
            reg.publish_image("vendor", "app", blob_from(b"x"), {"cpu": 50, "mem": 100}, {"cpu": 100, "mem": 100})

    def test_publishing_for_someone_else_rejected(self):
        reg = Registry()
        with pytest.raises(OwnershipViolation):
            reg.publish_image("vendor", "app", blob_from(b"x"), REQUEST, BASE, caller="mallory")


class TestBlobStore:
    def test_fetch_round_trip(self):
        reg = Registry()
        blob = blob_from(b"layer-a", b"layer-b")
        digest = reg.publish_image("vendor", "app", blob, REQUEST, BASE)
        assert reg.fetch_blob(digest) == blob

    def test_layerwise_fetch(self):
        reg = Registry()
        digest = reg.publish_image("vendor", "app", blob_from(b"one", b"two"), REQUEST, BASE)
        assert reg.fetch_layer(digest, 1) == b"two"
        with pytest.raises(NotFound):
            reg.fetch_layer(digest, 5)

    def test_unknown_hash_not_found(self):
        with pytest.raises(NotFound):
            Registry().fetch_blob("ab" * 32)

    def test_single_byte_corruption_detected(self):
        reg = Registry()
        digest = reg.publish_image("vendor", "app", blob_from(b"payload"), REQUEST, BASE)
        reg._corrupt_for_test(digest, offset=6)
        with pytest.raises(TamperError):
            reg.fetch_blob(digest)

    def test_empty_blob_rejected(self):
        with pytest.raises(RegistryError):
            ImageBlob([])
        with pytest.raises(RegistryError):
            ImageBlob([b""])

    def test_content_hash_is_sha256_hex(self):
        digest = content_hash(b"abc")
        assert len(digest) == 64 and int(digest, 16) >= 0


class TestMetricsArchive:
    def test_round_trip(self):
        reg = Registry()
        series = {"c1": [[10, {"cpu_util": 5}], [20, {"cpu_util": 7}]]}
        digest = reg.archive_metrics("10.0.0.1", series)
        assert reg.fetch_metrics(digest) == series

    def test_identical_series_identical_hash(self):
        reg = Registry()
        series = [[10, 1], [20, 2]]
        assert reg.archive_metrics("d", series) == reg.archive_metrics("d", series)

    def test_ledger_grows_per_archive(self):
        reg = Registry()
        assert reg.archived_hashes("d") == []
        reg.archive_metrics("d", [[1, 1]])
        reg.archive_metrics("d", [[2, 2]])
        assert len(reg.archived_hashes("d")) == 2

    def test_empty_series_rejected(self):
        with pytest.raises(RegistryError):
            Registry().archive_metrics("d", [])


class TestDiskLayout:
    def test_store_and_ledger_files(self, tmp_path):
        reg = Registry(tmp_path)
        digest = reg.publish_image("vendor", "app", blob_from(b"data"), REQUEST, BASE)
        reg.archive_metrics("10.0.0.1", [[1, 2]])
        assert (tmp_path / "store" / digest).is_file()
        ledger = (tmp_path / "ledger.jsonl").read_text().splitlines()
        assert len(ledger) == 2

    def test_reload_from_disk(self, tmp_path):
        first = Registry(tmp_path)
        digest = first.publish_image("vendor", "app", blob_from(b"data"), REQUEST, BASE)
        reloaded = Registry(tmp_path)
        assert reloaded.get_image("vendor", "app").image_hash == digest
        assert reloaded.fetch_blob(digest) == blob_from(b"data")


class TestContentAddressingProperty:
    def test_random_corpus_equality_iff_hash_equality(self):
        rng = random.Random(42)
        reg = Registry()
        seen: dict[str, bytes] = {}
        for _ in range(200):
            payload = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 64)))
            digest = reg.publish_image("vendor", "blob", blob_from(payload), REQUEST, BASE)
            if digest in seen:
                assert seen[digest] == payload
            seen[digest] = payload
            assert reg.fetch_blob(digest).layers[0] == payload
