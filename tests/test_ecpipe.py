"""Unit tests for the ECPipe middleware components (slice store, helper,
requestor, coordinator)."""

import pytest

from repro.codes import RSCode
from repro.core import StripeInfo
from repro.ecpipe import Coordinator, Helper, Requestor, SliceStore
from repro.ecpipe.coordinator import block_key
from conftest import random_payload


class TestSliceStore:
    def test_put_get_roundtrip(self):
        store = SliceStore("node0")
        store.put("k", b"value")
        assert store.get("k") == b"value"
        assert "k" in store
        assert len(store) == 1
        assert list(store.keys()) == ["k"]

    def test_counters(self):
        store = SliceStore()
        store.put("a", b"1")
        store.put("b", b"2")
        store.get("a")
        assert store.puts == 2
        assert store.gets == 1

    def test_pop_removes(self):
        store = SliceStore()
        store.put("a", b"1")
        assert store.pop("a") == b"1"
        assert "a" not in store

    def test_get_optional(self):
        store = SliceStore()
        assert store.get_optional("missing") is None
        store.put("x", b"1")
        assert store.get_optional("x") == b"1"

    def test_missing_key_raises(self):
        with pytest.raises(KeyError):
            SliceStore().get("missing")

    def test_delete_and_clear(self):
        store = SliceStore()
        store.put("a", b"1")
        store.delete("a")
        store.delete("a")  # idempotent
        store.put("b", b"2")
        store.clear()
        assert len(store) == 0


class TestHelper:
    def test_block_storage_and_slices(self):
        helper = Helper("node0")
        helper.store_block("blk", b"0123456789")
        assert helper.has_block("blk")
        assert helper.read_block("blk") == b"0123456789"
        assert helper.read_slice("blk", 2, 4) == b"2345"
        assert helper.blocks_read == 1
        assert helper.block_keys() == ["blk"]

    def test_missing_block_raises(self):
        helper = Helper("node0")
        with pytest.raises(KeyError):
            helper.read_block("missing")
        with pytest.raises(KeyError):
            helper.read_slice("missing", 0, 1)

    def test_slice_bounds_checked(self):
        helper = Helper("node0")
        helper.store_block("blk", b"abc")
        with pytest.raises(ValueError):
            helper.read_slice("blk", 2, 5)

    def test_negative_slice_length_rejected(self):
        # offset=10, length=-5 is inside both bounds of a 16-byte block; it
        # used to return b"" and *decrement* bytes_read.
        helper = Helper("node0")
        helper.store_block("blk", bytes(16))
        with pytest.raises(ValueError, match=r"slice \[10, 5\) outside block of 16 bytes"):
            helper.read_slice("blk", 10, -5)
        assert helper.bytes_read == 0

    def test_slice_is_a_view_that_outlives_its_block(self):
        # No copy out: the slice aliases the stored bytes, and it is the
        # view that keeps them alive once the block is deleted or replaced.
        helper = Helper("node0")
        block = bytes(range(200))
        helper.store_block("blk", block)
        view = helper.read_slice("blk", 50, 100)
        assert isinstance(view, memoryview) and view.readonly
        assert view.obj is helper.read_block("blk")
        helper.store_block("blk", b"\xff" * 200)
        helper.delete_block("blk")
        assert view == block[50:150]

    def test_delete_block(self):
        helper = Helper("node0")
        helper.store_block("blk", b"abc")
        helper.delete_block("blk")
        assert not helper.has_block("blk")

    def test_scale_and_combine(self):
        assert Helper.scale_slice(1, b"\x05\x06") == b"\x05\x06"
        assert Helper.scale_slice(0, b"\x05\x06") == b"\x00\x00"
        combined = Helper.combine(b"\x01\x02", 1, b"\x03\x04")
        assert combined == b"\x02\x06"
        assert Helper.combine(None, 1, b"\x09") == b"\x09"
        with pytest.raises(ValueError):
            Helper.combine(b"\x01", 1, b"\x01\x02")

    def test_push_counts_bytes(self):
        sender = Helper("node0")
        receiver = Helper("node1")
        sender.push(receiver, "key", b"abcd")
        assert receiver.store.get("key") == b"abcd"
        assert sender.bytes_sent == 4


class TestRequestor:
    def test_assembles_in_offset_order(self):
        requestor = Requestor("client")
        requestor.receive("blk", 1, b"world")
        requestor.receive("blk", 0, b"hello ")
        assert requestor.assemble("blk", 2) == b"hello world"
        assert requestor.reconstructed("blk") == b"hello world"
        assert requestor.reconstructed_blocks() == {"blk": b"hello world"}

    def test_missing_slice_raises(self):
        requestor = Requestor("client")
        requestor.receive("blk", 0, b"x")
        with pytest.raises(KeyError):
            requestor.assemble("blk", 2)


class TestCoordinator:
    @pytest.fixture
    def coordinator(self, rs_14_10):
        coordinator = Coordinator()
        stripe = StripeInfo(rs_14_10, {i: f"node{i}" for i in range(14)}, stripe_id=0)
        coordinator.register_stripe(stripe)
        return coordinator

    def test_register_and_locate(self, coordinator):
        location = coordinator.locate(0, 3)
        assert location.node == "node3"
        assert location.key == block_key(0, 3) == "stripe0.block3"
        assert len(coordinator.stripes()) == 1

    def test_duplicate_stripe_rejected(self, coordinator, rs_14_10):
        stripe = StripeInfo(rs_14_10, {i: f"node{i}" for i in range(14)}, stripe_id=0)
        with pytest.raises(ValueError):
            coordinator.register_stripe(stripe)

    def test_unknown_stripe(self, coordinator):
        with pytest.raises(KeyError):
            coordinator.stripe(42)

    def test_blocks_on_node(self, coordinator):
        assert [loc.block_index for loc in coordinator.blocks_on_node("node5")] == [5]

    def test_greedy_selection_spreads_load(self, coordinator, rs_14_10):
        first = coordinator.select_helpers(0, [0], 10, greedy=True)
        second = coordinator.select_helpers(0, [0], 10, greedy=True)
        # the three blocks unused in round one must be used in round two
        assert set(range(1, 14)) - set(first) <= set(second)

    def test_non_greedy_selection_is_lowest_indices(self, coordinator):
        helpers = coordinator.select_helpers(0, [0], 10, greedy=False)
        assert helpers == list(range(1, 11))

    def test_exclude_nodes(self, coordinator):
        helpers = coordinator.select_helpers(0, [0], 10, exclude_nodes=["node1"])
        assert 1 not in helpers

    def test_insufficient_helpers(self, coordinator):
        with pytest.raises(ValueError):
            coordinator.select_helpers(0, [0], 14)

    def test_plan_repair_returns_path_of_k_helpers(self, coordinator):
        request, path = coordinator.plan_repair(0, [2], ["node16"], 1024, 128)
        assert len(path) == 10
        assert 2 not in path
        assert request.failed == (2,)
