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

from conftest import corrupt_stored

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

    @pytest.mark.parametrize(
        "request_limits, base_limits",
        [
            ({"cpu": 0, "mem": 150}, {"cpu": 0, "mem": 100}),
            ({"cpu": 100, "mem": 150}, {"cpu": 50, "mem": 0}),
            ({"cpu": 100, "mem": 0}, {"cpu": 50, "mem": 0}),
        ],
    )
    def test_zero_limit_rejected_before_anything_is_stored(self, request_limits, base_limits):
        reg = Registry()
        with pytest.raises(RegistryError, match="limits must be positive"):
            reg.publish_image("vendor", "app", blob_from(b"x"), request_limits, base_limits)
        with pytest.raises(NotFound):
            reg.get_image("vendor", "app")
        with pytest.raises(NotFound):
            reg.fetch_blob(content_hash(blob_from(b"x").encode()))

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

    def test_unknown_hash_not_found(self):
        with pytest.raises(NotFound):
            Registry().fetch_blob("ab" * 32)

    def test_single_byte_corruption_detected(self):
        reg = Registry()
        digest = reg.publish_image("vendor", "app", blob_from(b"payload"), REQUEST, BASE)
        corrupt_stored(reg, digest, offset=6)
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
        canonical = b'{"c1":[[10,{"cpu_util":5}],[20,{"cpu_util":7}]]}'
        assert reg.archive_metrics(series) == content_hash(canonical)
        assert reg._store == {}

    def test_identical_series_identical_hash(self):
        reg = Registry()
        series = [[10, 1], [20, 2]]
        assert reg.archive_metrics(series) == reg.archive_metrics(series)

    def test_empty_series_rejected(self):
        with pytest.raises(RegistryError):
            Registry().archive_metrics([])


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
