"""Every persisted artifact has one format and one strict loader.

Each loader reads exactly the version and the keys its writer emits:
session checkpoints, fleet checkpoints, service bundles, repository
manifests and per-video metadata.  Dropping any key, adding an unknown
one or moving the version by one must raise a :mod:`repro.errors` type —
never a raw ``KeyError`` and never a silent default.
"""

from __future__ import annotations

import copy
import hashlib
import importlib
import json
from pathlib import Path

import pytest

from repro.core.config import OnlineConfig
from repro.core.query import Query
from repro.core.scheduler import FLEET_STATE_VERSION, FleetRun
from repro.core.session import CHECKPOINT_VERSION, SvaqdSession
from repro.detectors.zoo import default_zoo
from repro.errors import ConfigurationError, ReproError, StorageError
from repro.service import SERVICE_BUNDLE_VERSION, QueryService
from repro.storage.repository import VideoRepository
from repro.storage.synth import synthetic_repository
from repro.video.stream import ClipStream

from tests.conftest import make_kitchen_video

VIDEO = make_kitchen_video(seed=31, duration_s=90.0, video_id="strict")
QUERY = Query(objects=["faucet"], action="washing dishes")
LOCK = json.loads(
    (Path(__file__).resolve().parents[1] / "src/repro/lint/version_lock.json")
    .read_text()
)["entries"]


def session_state() -> dict:
    session = SvaqdSession(default_zoo(seed=3), QUERY, VIDEO, OnlineConfig())
    stream = ClipStream(VIDEO.meta)
    for _ in range(8):
        session.process(stream.next())
    return json.loads(json.dumps(session.state_dict()))


def load_session(state: dict) -> None:
    SvaqdSession(default_zoo(seed=3), QUERY, VIDEO, OnlineConfig()).load_state_dict(
        state
    )


def fleet_state() -> dict:
    queries = [QUERY, Query(objects=["person"], action="washing dishes")]
    fleet = FleetRun(default_zoo(seed=3), VIDEO, queries=queries)
    stream = ClipStream(VIDEO.meta)
    for _ in range(8):
        fleet.advance([stream.next()])
    return json.loads(json.dumps(fleet.state_dict()))


def load_fleet(state: dict) -> None:
    FleetRun(default_zoo(seed=3), VIDEO).load_state_dict(state)


def bundle_state() -> dict:
    service = QueryService(default_zoo(seed=3), clip_batch=4)
    service.add_stream("cam", VIDEO)
    service.register("cam", QUERY, tenant="acme")
    service.step("cam")
    return json.loads(json.dumps(service.snapshot().to_dict()))


def load_bundle(state: dict) -> None:
    QueryService.resume(state, {"cam": VIDEO}, default_zoo(seed=3))


CHECKPOINTS = {
    "session": (
        session_state, load_session, "repro.core.session.StreamSession",
        CHECKPOINT_VERSION,
    ),
    "fleet": (
        fleet_state, load_fleet, "repro.core.scheduler.FleetRun",
        FLEET_STATE_VERSION,
    ),
    "bundle": (
        bundle_state, load_bundle, "repro.service.migration.ServiceState",
        SERVICE_BUNDLE_VERSION,
    ),
}

STATES: dict[str, dict] = {}


def state_of(kind: str) -> dict:
    """A fresh deep copy of one payload kind (built once per module)."""
    if kind not in STATES:
        STATES[kind] = CHECKPOINTS[kind][0]()
    return copy.deepcopy(STATES[kind])


class TestCheckpointLoaders:
    @pytest.mark.parametrize("kind", sorted(CHECKPOINTS))
    def test_round_trip_loads(self, kind):
        CHECKPOINTS[kind][1](state_of(kind))

    @pytest.mark.parametrize("kind", sorted(CHECKPOINTS))
    def test_writer_keys_match_the_version_lock(self, kind):
        _, _, lock_name, version = CHECKPOINTS[kind]
        state = state_of(kind)
        assert sorted(state) == LOCK[lock_name]["keys"]
        assert state["version"] == version == LOCK[lock_name]["version"]

    @pytest.mark.parametrize(
        "kind,key",
        [
            (kind, key)
            for kind, (_, _, lock_name, _) in sorted(CHECKPOINTS.items())
            for key in LOCK[lock_name]["keys"]
        ],
    )
    def test_dropped_key_rejected(self, kind, key):
        state = state_of(kind)
        del state[key]
        with pytest.raises(ConfigurationError, match=key):
            CHECKPOINTS[kind][1](state)

    @pytest.mark.parametrize("kind", sorted(CHECKPOINTS))
    def test_unknown_key_rejected(self, kind):
        state = state_of(kind)
        state["from_the_future"] = 1
        with pytest.raises(ConfigurationError, match="from_the_future"):
            CHECKPOINTS[kind][1](state)

    @pytest.mark.parametrize("kind", sorted(CHECKPOINTS))
    @pytest.mark.parametrize("delta", [-1, 1])
    def test_neighbouring_version_rejected(self, kind, delta):
        state = state_of(kind)
        state["version"] += delta
        with pytest.raises(ConfigurationError, match="version"):
            CHECKPOINTS[kind][1](state)

    @pytest.mark.parametrize("kind", sorted(CHECKPOINTS))
    def test_non_mapping_rejected(self, kind):
        with pytest.raises(ConfigurationError):
            CHECKPOINTS[kind][1]([])


class TestNestedCheckpointParts:
    @pytest.mark.parametrize(
        "part,key",
        [
            ("assembler", "finished"),
            ("cache", "charged"),
            ("optimizer", "epoch_order"),
            ("policy", "kind"),
            ("policy", "estimators"),
        ],
    )
    def test_dropped_nested_key_rejected(self, part, key):
        state = state_of("session")
        del state[part][key]
        with pytest.raises(ConfigurationError):
            load_session(state)

    def test_foreign_estimator_tag_never_imported(self, monkeypatch):
        def no_import(name, *args, **kwargs):
            pytest.fail(f"loader imported {name!r} from a checkpoint tag")

        monkeypatch.setattr(importlib, "import_module", no_import)
        state = state_of("session")
        state["policy"]["estimators"]["faucet"]["class"] = "this:__name__"
        with pytest.raises(ConfigurationError, match="this:__name__"):
            load_session(state)

    def test_missing_estimator_label_rejected(self):
        state = state_of("session")
        del state["policy"]["estimators"]["faucet"]
        with pytest.raises(ConfigurationError, match="faucet"):
            load_session(state)

    def test_extra_estimator_label_rejected(self):
        state = state_of("session")
        estimators = state["policy"]["estimators"]
        estimators["cup"] = copy.deepcopy(estimators["faucet"])
        with pytest.raises(ConfigurationError, match="cup"):
            load_session(state)

    def test_estimator_entry_keys_are_exact(self):
        state = state_of("session")
        del state["policy"]["estimators"]["faucet"]["class"]
        with pytest.raises(ConfigurationError, match="class"):
            load_session(state)


# -- repository manifest and per-video metadata -------------------------------------


@pytest.fixture()
def saved(tmp_path) -> Path:
    synthetic_repository(n_videos=2, n_clips=12, seed=5).save(tmp_path / "r")
    return tmp_path / "r"


def read(path: Path) -> dict:
    return json.loads(path.read_text())


def rewrite_meta(root: Path, mutate) -> None:
    """Mutate the first video's metadata and re-record its checksum, so
    the loader sees a well-formed but key-mismatched file."""
    manifest = read(root / "manifest.json")
    entry = manifest["videos"][0]
    meta_path = root / entry["meta"]
    meta = read(meta_path)
    mutate(meta)
    meta_path.write_text(json.dumps(meta))
    entry["sha256"][entry["meta"]] = hashlib.sha256(
        meta_path.read_bytes()
    ).hexdigest()
    (root / "manifest.json").write_text(json.dumps(manifest))


MANIFEST_KEYS = ["columns", "columns_sha256", "columns_size", "format", "videos"]
META_KEYS = [
    "action_labels", "action_sequences", "ingest_cost_ms", "n_clips",
    "object_labels", "object_sequences", "tables", "video_id",
]


class TestRepositoryLoader:
    def test_writer_keys(self, saved):
        manifest = read(saved / "manifest.json")
        assert sorted(manifest) == MANIFEST_KEYS
        assert sorted(read(saved / manifest["videos"][0]["meta"])) == META_KEYS

    @pytest.mark.parametrize("key", MANIFEST_KEYS)
    def test_manifest_dropped_key_rejected(self, saved, key):
        manifest = read(saved / "manifest.json")
        del manifest[key]
        (saved / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StorageError, match=key):
            VideoRepository.load(saved)

    def test_manifest_unknown_key_rejected(self, saved):
        manifest = read(saved / "manifest.json")
        manifest["from_the_future"] = 1
        (saved / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StorageError, match="from_the_future"):
            VideoRepository.load(saved)

    @pytest.mark.parametrize("fmt", [2, 4])
    def test_manifest_neighbouring_format_rejected(self, saved, fmt):
        manifest = read(saved / "manifest.json")
        manifest["format"] = fmt
        (saved / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StorageError, match="format"):
            VideoRepository.load(saved)

    @pytest.mark.parametrize("key", ["video_id", "meta", "sha256"])
    def test_manifest_entry_dropped_key_rejected(self, saved, key):
        manifest = read(saved / "manifest.json")
        del manifest["videos"][0][key]
        (saved / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StorageError):
            VideoRepository.load(saved)

    @pytest.mark.parametrize("key", META_KEYS)
    def test_meta_dropped_key_rejected(self, saved, key):
        rewrite_meta(saved, lambda meta: meta.pop(key))
        with pytest.raises(StorageError, match=key):
            VideoRepository.load(saved)

    def test_meta_unknown_key_rejected(self, saved):
        rewrite_meta(saved, lambda meta: meta.update(from_the_future=1))
        with pytest.raises(StorageError, match="from_the_future"):
            VideoRepository.load(saved)

    def test_meta_without_recorded_checksum_rejected(self, saved):
        manifest = read(saved / "manifest.json")
        manifest["videos"][0]["sha256"] = {}
        (saved / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StorageError, match="checksum mismatch"):
            VideoRepository.load(saved)

    def test_flipped_arena_byte_rejected(self, saved):
        blob = bytearray((saved / "columns.bin").read_bytes())
        blob[len(blob) // 3] ^= 0x01
        (saved / "columns.bin").write_bytes(bytes(blob))
        with pytest.raises(StorageError, match="checksum mismatch"):
            VideoRepository.load(saved)

    def test_every_failure_is_a_repro_error(self, saved):
        """Type garbage in a checksummed file is refused, not crashed on."""
        rewrite_meta(saved, lambda meta: meta.update(n_clips="many"))
        with pytest.raises(ReproError):
            VideoRepository.load(saved)
