"""Tests for SSTable serialization, lookup and iteration over real NAND pages."""

import pytest

from repro.errors import LSMError
from repro.lsm.addressing import AddressingScheme, ValueAddress
from repro.lsm.space import PageSpace
from repro.lsm.sstable import SSTable, decode_entries, encode_entry


@pytest.fixture
def space(ftl):
    return PageSpace(base_lpn=0, capacity_pages=64)


def addr(n: int, size: int = 8) -> ValueAddress:
    return ValueAddress(lpn=n, offset=(n * 64) % 4096, size=size)


def items(n: int):
    return [(f"key{i:05d}".encode(), addr(i)) for i in range(n)]


SCHEME = AddressingScheme.FINE


class TestEntryCodec:
    def test_roundtrip(self, ftl):
        page_size = ftl.flash.geometry.page_size
        blob = encode_entry(b"kk", addr(3), SCHEME, page_size)
        page = bytes([1, 0]) + blob  # count=1 header
        page += b"\x00" * (page_size - len(page))
        decoded = decode_entries(page, SCHEME, page_size)
        assert decoded == [(b"kk", addr(3))]

    def test_tombstone_roundtrip(self, ftl):
        page_size = ftl.flash.geometry.page_size
        blob = encode_entry(b"dead", None, SCHEME, page_size)
        page = bytes([1, 0]) + blob
        page += b"\x00" * (page_size - len(page))
        assert decode_entries(page, SCHEME, page_size) == [(b"dead", None)]

    def test_key_length_bounds(self, ftl):
        with pytest.raises(LSMError):
            encode_entry(b"", addr(1), SCHEME, 16384)
        with pytest.raises(LSMError):
            encode_entry(b"x" * 256, addr(1), SCHEME, 16384)


class TestBuild:
    def test_build_and_get(self, ftl, space):
        table = SSTable.build(1, items(100), ftl, space, SCHEME)
        assert table.entry_count == 100
        found, a = table.get(b"key00042", ftl)
        assert found and a == addr(42)

    def test_get_missing_inside_range(self, ftl, space):
        table = SSTable.build(1, items(10), ftl, space, SCHEME)
        found, _ = table.get(b"key00003x", ftl)
        assert not found

    def test_get_outside_range_reads_no_pages(self, ftl, space):
        table = SSTable.build(1, items(10), ftl, space, SCHEME)
        reads_before = ftl.flash.page_reads
        found, _ = table.get(b"zzz", ftl)
        assert not found
        assert ftl.flash.page_reads == reads_before

    def test_min_max_keys(self, ftl, space):
        table = SSTable.build(1, items(10), ftl, space, SCHEME)
        assert table.min_key == b"key00000"
        assert table.max_key == b"key00009"

    def test_unsorted_input_rejected(self, ftl, space):
        bad = [(b"b", addr(1)), (b"a", addr(2))]
        with pytest.raises(LSMError):
            SSTable.build(1, bad, ftl, space, SCHEME)

    def test_duplicate_keys_rejected(self, ftl, space):
        bad = [(b"a", addr(1)), (b"a", addr(2))]
        with pytest.raises(LSMError):
            SSTable.build(1, bad, ftl, space, SCHEME)

    def test_empty_input_rejected(self, ftl, space):
        with pytest.raises(LSMError):
            SSTable.build(1, [], ftl, space, SCHEME)

    def test_large_table_spans_pages(self, ftl, space):
        table = SSTable.build(1, items(3000), ftl, space, SCHEME)
        assert table.page_count > 1
        # Every entry still reachable with exactly one page read each.
        for probe in (0, 1499, 2999):
            found, a = table.get(f"key{probe:05d}".encode(), ftl)
            assert found and a == addr(probe)

    def test_build_programs_nand(self, ftl, space):
        before = ftl.flash.page_programs
        table = SSTable.build(1, items(50), ftl, space, SCHEME)
        assert ftl.flash.page_programs == before + table.page_count

    def test_tombstones_persist(self, ftl, space):
        mixed = [(b"aaa", addr(1)), (b"bbb", None), (b"ccc", addr(3))]
        table = SSTable.build(1, mixed, ftl, space, SCHEME)
        found, a = table.get(b"bbb", ftl)
        assert found and a is None


class TestIteration:
    def test_iter_all(self, ftl, space):
        table = SSTable.build(1, items(200), ftl, space, SCHEME)
        keys = [k for k, _ in table.iter_entries(ftl)]
        assert keys == [f"key{i:05d}".encode() for i in range(200)]

    def test_iter_from_start_key(self, ftl, space):
        table = SSTable.build(1, items(50), ftl, space, SCHEME)
        keys = [k for k, _ in table.iter_entries(ftl, b"key00045")]
        assert keys == [f"key{i:05d}".encode() for i in range(45, 50)]

    def test_iter_from_beyond_range_is_empty(self, ftl, space):
        table = SSTable.build(1, items(5), ftl, space, SCHEME)
        assert list(table.iter_entries(ftl, b"zzz")) == []


class TestRelease:
    def test_release_frees_pages_and_trims(self, ftl, space):
        table = SSTable.build(1, items(100), ftl, space, SCHEME)
        in_use = space.pages_in_use
        table.release(ftl, space)
        assert space.pages_in_use == in_use - table.page_count
        for lpn in table.lpns:
            assert not ftl.is_mapped(lpn)

    def test_overlap_predicate(self, ftl, space):
        table = SSTable.build(1, items(10), ftl, space, SCHEME)
        assert table.key_range_overlaps(b"key00005", b"key00007")
        assert table.key_range_overlaps(b"a", b"z")
        assert not table.key_range_overlaps(b"x", b"z")
        assert not table.key_range_overlaps(b"a", b"b")


class TestLookupCost:
    """A point lookup reads one page and decodes only its target entry."""

    @pytest.fixture
    def decodes(self, monkeypatch):
        calls = []
        real = AddressingScheme.decode

        def counting(self, *args):
            calls.append(args)
            return real(self, *args)

        monkeypatch.setattr(AddressingScheme, "decode", counting)
        return calls

    @pytest.fixture
    def table(self, ftl, space):
        # Every seventh key is a tombstone; keys step by two so odd probes
        # miss inside a page's key range.
        entries = [
            (f"key{i:05d}".encode(), None if i % 7 == 0 else addr(i))
            for i in range(0, 6000, 2)
        ]
        table = SSTable.build(1, entries, ftl, space, SCHEME)
        assert table.page_count > 1
        return table

    def test_hit_decodes_exactly_one_entry(self, ftl, table, decodes):
        for probe in (2, 2998, 5998):
            decodes.clear()
            reads = ftl.flash.page_reads
            found, a = table.get(f"key{probe:05d}".encode(), ftl)
            assert found and a == addr(probe)
            assert len(decodes) == 1
            assert ftl.flash.page_reads == reads + 1

    def test_miss_inside_a_page_decodes_nothing(self, ftl, table, decodes):
        for probe in (1, 2999, 5997):
            reads = ftl.flash.page_reads
            assert table.get(f"key{probe:05d}".encode(), ftl) == (False, None)
            assert ftl.flash.page_reads == reads + 1
        assert decodes == []

    def test_tombstone_decodes_nothing(self, ftl, table, decodes):
        reads = ftl.flash.page_reads
        assert table.get(b"key00014", ftl) == (True, None)
        assert ftl.flash.page_reads == reads + 1
        assert decodes == []
