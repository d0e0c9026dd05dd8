"""Unit tests for checkpoint persistence."""

import dataclasses
import pickle

import pytest

from repro.engine.checkpoint import CHECKPOINT_FORMAT
from repro.engine import (
    Checkpoint,
    CheckpointError,
    Codec,
    Segment,
    checkpoint_path,
    digest_of_packed,
    discard_checkpoint,
    find_checkpoint,
    load_checkpoint,
    load_segment,
    save_checkpoint,
    save_segment,
    segment_dir,
    fingerprint,
)


class Opaque:
    """Hashable, picklable, but codec-hostile (repr-only encoding)."""

    def __init__(self, value):
        self.value = value

    def __repr__(self):
        return f"Opaque({self.value!r})"

    def __eq__(self, other):
        return isinstance(other, Opaque) and other.value == self.value

    def __hash__(self):
        return hash(("Opaque", self.value))


@dataclasses.dataclass(frozen=True)
class Cell:
    tag: str
    level: int


def _sample(root="root"):
    digest = fingerprint(root)
    return Checkpoint(
        root=root,
        root_digest=digest,
        order=[root, "a", "b"],
        succ=[[("t", "act", 1)]],
        transitions=1,
        elapsed_seconds=0.5,
    )


class TestRoundTrip:
    def test_save_load(self, tmp_path):
        checkpoint = _sample()
        path = save_checkpoint(tmp_path, checkpoint)
        assert path == checkpoint_path(tmp_path, checkpoint.root_digest)
        loaded = load_checkpoint(path)
        assert loaded.order == checkpoint.order
        assert loaded.succ == checkpoint.succ
        assert loaded.transitions == checkpoint.transitions
        assert loaded.root_digest == checkpoint.root_digest

    def test_find_by_root_digest(self, tmp_path):
        checkpoint = _sample()
        save_checkpoint(tmp_path, checkpoint)
        assert find_checkpoint(tmp_path, checkpoint.root_digest) is not None
        assert find_checkpoint(tmp_path, fingerprint("other")) is None

    def test_discard(self, tmp_path):
        checkpoint = _sample()
        save_checkpoint(tmp_path, checkpoint)
        discard_checkpoint(tmp_path, checkpoint.root_digest)
        assert find_checkpoint(tmp_path, checkpoint.root_digest) is None
        # Discarding a missing checkpoint is a no-op.
        discard_checkpoint(tmp_path, checkpoint.root_digest)

    def test_no_stray_tmp_files(self, tmp_path):
        save_checkpoint(tmp_path, _sample())
        names = [p.name for p in tmp_path.iterdir()]
        assert all(name.endswith(".ckpt") for name in names)


class TestFormatV2:
    def test_saves_packed_mode_with_digest_parity(self, tmp_path):
        checkpoint = _sample()
        payload = pickle.loads(save_checkpoint(tmp_path, checkpoint).read_bytes())
        assert payload["version"] == 2
        assert payload["mode"] == "packed"
        # Resume's fast path: the visited digest set is rebuilt from the
        # packed bytes alone, so blake2b(packed) must equal fingerprint.
        assert [digest_of_packed(packed) for packed in payload["packed_order"]] == [
            fingerprint(state) for state in checkpoint.order
        ]

    def test_payload_packed_order_decodes_to_loaded_order(self, tmp_path):
        path = save_checkpoint(tmp_path, _sample())
        payload = pickle.loads(path.read_bytes())
        loaded = load_checkpoint(path)
        codec = Codec()
        assert [codec.decode(packed) for packed in payload["packed_order"]] == (
            loaded.order
        )

    def test_states_stored_once_not_per_edge(self, tmp_path):
        # Ten edges all pointing at one successor: the v1 format pickled
        # the successor ten times; v2 stores indices into packed_order.
        hub = Cell("hub", 0)
        spokes = [Cell("spoke", index) for index in range(10)]
        checkpoint = Checkpoint(
            root=hub,
            root_digest=fingerprint(hub),
            order=[hub, *spokes],
            succ=[[("t", "act", index) for index in range(1, 11)]]
            + [[("t", "act", 0)] for _ in spokes],
            transitions=20,
            elapsed_seconds=0.1,
        )
        payload = pickle.loads(save_checkpoint(tmp_path, checkpoint).read_bytes())
        assert payload["mode"] == "packed"
        assert len(payload["packed_order"]) == 11
        hub_index = 0
        assert all(rows == [(0, 0, hub_index)] for _, rows in payload["edges"][1:])
        assert payload["frontier"] == []
        loaded = load_checkpoint(checkpoint_path(tmp_path, checkpoint.root_digest))
        assert loaded.order == checkpoint.order
        assert loaded.succ == checkpoint.succ

    def test_equal_but_digest_distinct_states_keep_their_indices(self, tmp_path):
        """Regression: an index keyed by state equality collapsed
        digest-distinct nodes like ``(1,)``/``(True,)`` (they compare ==)
        to one order index, so saved edges and frontier pointed at the
        wrong node after resume (REVIEW: checkpoint.py _pack_payload)."""
        root = ("root",)
        one, true = (1, "x"), (True, "x")
        assert one == true and fingerprint(one) != fingerprint(true)
        checkpoint = Checkpoint(
            root=root,
            root_digest=fingerprint(root),
            order=[root, true, one],
            succ=[[("t", "act", 2)]],
            transitions=1,
            elapsed_seconds=0.0,
        )
        payload = pickle.loads(save_checkpoint(tmp_path, checkpoint).read_bytes())
        assert payload["mode"] == "packed"
        # order[1] is (True, "x"), order[2] is (1, "x"): the edge must
        # reference index 2 and the frontier is [1, 2].
        assert payload["edges"] == [(0, [(0, 0, 2)])]
        assert payload["frontier"] == [1, 2]
        assert [digest_of_packed(packed) for packed in payload["packed_order"]] == [
            fingerprint(state) for state in checkpoint.order
        ]
        loaded = load_checkpoint(checkpoint_path(tmp_path, checkpoint.root_digest))
        assert loaded.order[1][0] is True
        assert loaded.order[2][0] is not True  # decoded (1, "x"), not (True, "x")
        assert loaded.succ == [[("t", "act", 2)]]

    def test_dataclass_states_roundtrip_through_registry(self, tmp_path):
        root = Cell("root", 0)
        child = Cell("child", 1)
        checkpoint = Checkpoint(
            root=root,
            root_digest=fingerprint(root),
            order=[root, child],
            succ=[[("t", "act", 1)]],
            transitions=1,
            elapsed_seconds=0.0,
        )
        loaded = load_checkpoint(save_checkpoint(tmp_path, checkpoint))
        assert loaded.order == checkpoint.order
        assert loaded.succ == checkpoint.succ

    def test_codec_hostile_state_falls_back_to_pickle_mode(self, tmp_path):
        root = Opaque("root")
        child = Opaque("child")
        checkpoint = Checkpoint(
            root=root,
            root_digest=fingerprint(root),
            order=[root, child],
            succ=[[("t", "act", 1)]],
            transitions=1,
            elapsed_seconds=0.0,
        )
        path = save_checkpoint(tmp_path, checkpoint)
        payload = pickle.loads(path.read_bytes())
        assert payload["version"] == 2
        assert payload["mode"] == "pickle"
        assert "packed_order" not in payload
        # The same index layout as packed mode, with state objects.
        assert payload["order"] == checkpoint.order
        assert payload["edges"] == [(0, [(0, 0, 1)])]
        assert payload["frontier"] == [1]
        loaded = load_checkpoint(path)
        assert loaded.order == checkpoint.order
        assert loaded.succ == checkpoint.succ

    def test_v1_payload_refused(self, tmp_path):
        # A file written by a pre-v2 engine (whole Checkpoint object,
        # version 1) is refused, naming the fix.
        checkpoint = _sample()
        path = checkpoint_path(tmp_path, checkpoint.root_digest)
        path.write_bytes(
            pickle.dumps(
                {
                    "format": CHECKPOINT_FORMAT,
                    "version": 1,
                    "checkpoint": checkpoint,
                }
            )
        )
        with pytest.raises(CheckpointError, match="delete the file and rerun"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda payload: payload.update(frontier=payload["frontier"][::-1]),
            lambda payload: payload.update(frontier=payload["frontier"][1:]),
            lambda payload: payload.update(edges=[(1, [])]),
        ],
        ids=["frontier-reordered", "frontier-short", "edges-skip-a-position"],
    )
    def test_non_positional_layout_refused(self, tmp_path, corrupt):
        path = save_checkpoint(tmp_path, _sample())
        payload = pickle.loads(path.read_bytes())
        corrupt(payload)
        path.write_bytes(pickle.dumps(payload))
        with pytest.raises(CheckpointError, match=r"0\.\.m-1"):
            load_checkpoint(path)


class TestValidation:
    def test_rejects_foreign_pickle(self, tmp_path):
        path = tmp_path / "bogus.ckpt"
        path.write_bytes(pickle.dumps({"not": "a checkpoint"}))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_rejects_version_mismatch(self, tmp_path):
        checkpoint = _sample()
        path = save_checkpoint(tmp_path, checkpoint)
        payload = pickle.loads(path.read_bytes())
        payload["version"] = 999
        path.write_bytes(pickle.dumps(payload))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "absent.ckpt")


class TestDigestWidth:
    """Files keep recording their digest width; only 16 bytes loads."""

    def test_packed_payload_records_and_checks_width(self, tmp_path):
        path = save_checkpoint(tmp_path, _sample())
        payload = pickle.loads(path.read_bytes())
        assert payload["digest_size"] == 16
        payload["digest_size"] = 8
        path.write_bytes(pickle.dumps(payload))
        with pytest.raises(CheckpointError, match="8-byte digests"):
            load_checkpoint(path)

    def test_object_pickle_width_checked(self, tmp_path):
        # Object pickles (a whole Checkpoint, which carried its width as
        # an attribute before the width became a constant) are refused
        # whatever their width; pickle-mode files in the index layout
        # record and check the width like packed ones.
        for width in (16, 8):
            checkpoint = _sample()
            checkpoint.digest_size = width
            path = checkpoint_path(tmp_path, checkpoint.root_digest)
            payload = {
                "format": CHECKPOINT_FORMAT,
                "version": 2,
                "mode": "pickle",
                "checkpoint": checkpoint,
                "digest_size": width,
            }
            path.write_bytes(pickle.dumps(payload))
            with pytest.raises(CheckpointError, match="delete the file and rerun"):
                load_checkpoint(path)
        opaque = Opaque("root")
        path = save_checkpoint(
            tmp_path,
            Checkpoint(
                root=opaque,
                root_digest=fingerprint(opaque),
                order=[opaque],
                succ=[],
                transitions=0,
                elapsed_seconds=0.0,
            ),
        )
        payload = pickle.loads(path.read_bytes())
        assert payload["mode"] == "pickle" and payload["digest_size"] == 16
        payload["digest_size"] = 8
        path.write_bytes(pickle.dumps(payload))
        with pytest.raises(CheckpointError, match="8-byte digests"):
            load_checkpoint(path)

    def test_segment_with_wrong_width_is_skipped(self, tmp_path):
        digest = fingerprint("root")
        for seq in (0, 1):
            save_segment(
                tmp_path,
                Segment(
                    root_digest=digest,
                    seq=seq,
                    states=seq + 1,
                    transitions=seq,
                    elapsed_seconds=0.0,
                    workers=1,
                    marks={"states": seq + 1},
                    frontier_blob=b"",
                    store_uri="sqlite",
                ),
            )
        newest = segment_dir(tmp_path, digest) / "segment-00000001.seg"
        payload = pickle.loads(newest.read_bytes())
        assert payload["digest_size"] == 16
        assert load_segment(tmp_path, digest).seq == 1
        payload["digest_size"] = 8
        newest.write_bytes(pickle.dumps(payload))
        assert load_segment(tmp_path, digest).seq == 0
