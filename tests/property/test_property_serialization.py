"""Property-based tests: every serialization layer round-trips.

SSTable entries/pages, PRP construction/resolution, identify structures,
stats log pages and workload traces — anything that crosses a byte
boundary must survive arbitrary inputs.
"""

import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsm.addressing import AddressingScheme, ValueAddress
from repro.lsm.space import PageSpace
from repro.lsm.sstable import SSTable, decode_entries, encode_entry, find_entry
from repro.memory.host import HostMemory
from repro.nand.flash import NandFlash
from repro.nand.ftl import PageMappedFTL
from repro.nand.geometry import NandGeometry
from repro.nvme.admin import (
    STATS_LOG_FIELDS,
    BandSlimCapabilities,
    build_identify_data,
    build_stats_log,
    parse_identify_data,
    parse_stats_log,
)
from repro.nvme.prp import build_prp, resolve_prp
from repro.pcie.link import PCIeLink
from repro.sim.clock import SimClock
from repro.sim.latency import LatencyModel
from repro.units import KIB

PAGE_16K = 16 * KIB

keys = st.binary(min_size=1, max_size=16)
addresses = st.builds(
    ValueAddress,
    lpn=st.integers(min_value=0, max_value=2**20 - 1),
    offset=st.integers(min_value=0, max_value=PAGE_16K - 1),
    size=st.integers(min_value=1, max_value=PAGE_16K),
)


class TestSSTableEntryCodec:
    @given(key=keys, addr=addresses)
    def test_entry_roundtrip(self, key, addr):
        blob = encode_entry(key, addr, AddressingScheme.FINE, PAGE_16K)
        page = bytes([1, 0]) + blob
        page += b"\x00" * (PAGE_16K - len(page))
        assert decode_entries(page, AddressingScheme.FINE, PAGE_16K) == [(key, addr)]

    @given(
        entries=st.lists(
            st.tuples(keys, st.one_of(st.none(), addresses)),
            min_size=1,
            max_size=40,
            unique_by=lambda e: e[0],
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_whole_table_roundtrip(self, entries):
        geo = NandGeometry(channels=1, ways_per_channel=2, blocks_per_way=32,
                           pages_per_block=8, page_size=PAGE_16K)
        ftl = PageMappedFTL(NandFlash(geo, SimClock(), LatencyModel()),
                            gc_reserve_blocks=2)
        space = PageSpace(0, geo.total_pages)
        sorted_entries = sorted(entries, key=lambda e: e[0])
        table = SSTable.build(1, sorted_entries, ftl, space, AddressingScheme.FINE)
        assert list(table.iter_entries(ftl)) == sorted_entries
        for key, addr in sorted_entries:
            found, got = table.get(key, ftl)
            assert found and got == addr


#: Short keys over a tiny alphabet collide and prefix one another often
#: (``b"k1"`` next to ``b"k10"``); long ones reach the 255-byte limit.
page_keys = st.one_of(
    st.lists(st.sampled_from(b"\x00k01\xff"), min_size=1, max_size=6).map(bytes),
    st.binary(min_size=1, max_size=255),
)


@st.composite
def packed_pages(draw):
    """(page, sorted keys): sorted unique entries packed into one page."""
    drawn = draw(st.lists(page_keys, min_size=1, max_size=40))
    keys = set(drawn)
    for key in drawn:
        keys.add(key[: draw(st.integers(1, len(key)))])
    body = b""
    stored = []
    for key in sorted(keys):
        addr = draw(st.one_of(st.none(), addresses))
        blob = encode_entry(key, addr, AddressingScheme.FINE, PAGE_16K)
        if 2 + len(body) + len(blob) > PAGE_16K:
            break
        body += blob
        stored.append(key)
    page = struct.pack("<H", len(stored)) + body
    return page + b"\x00" * (PAGE_16K - len(page)), stored


class TestFindEntry:
    @given(packed=packed_pages(), extra=st.lists(page_keys, max_size=10))
    @settings(max_examples=150, deadline=None)
    def test_matches_linear_search_over_decoded_entries(self, packed, extra):
        page, stored = packed
        decoded = dict(decode_entries(page, AddressingScheme.FINE, PAGE_16K))
        assert list(decoded) == stored
        probes = {b"\x00", b"\xff" * 255, stored[-1] + b"\xff", *extra}
        for key in stored:
            probes.update((key, key + b"\x00", key[:-1] or key))
        for probe in probes:
            expected = (probe in decoded, decoded.get(probe))
            got = find_entry(page, probe, AddressingScheme.FINE, PAGE_16K)
            assert got == expected, probe


class TestPRPRoundtrip:
    @given(nbytes=st.integers(min_value=1, max_value=12 * 4096))
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_sizes(self, nbytes):
        host = HostMemory()
        link = PCIeLink(SimClock(), LatencyModel())
        payload = bytes(i % 251 for i in range(nbytes))
        buf = host.stage_value(payload)
        prp = build_prp(host, buf)
        resolved = resolve_prp(host, link, prp.prp1, prp.prp2, nbytes)
        assert resolved.tobytes() == payload


class TestAdminStructures:
    caps_strategy = st.builds(
        BandSlimCapabilities,
        write_piggyback_capacity=st.integers(0, 64),
        transfer_piggyback_capacity=st.integers(0, 64),
        nand_page_size=st.integers(4096, 1 << 20),
        buffer_entries=st.integers(1, 1 << 16),
        dlt_capacity=st.integers(1, 1 << 16),
        transfer_mode=st.sampled_from(["baseline", "piggyback", "adaptive"]),
        packing_policy=st.sampled_from(["block", "all", "backfill"]),
        threshold1=st.integers(0, 1 << 20),
        threshold2=st.integers(0, 1 << 20),
    )

    @given(caps=caps_strategy)
    def test_identify_roundtrip(self, caps):
        assert parse_identify_data(build_identify_data(caps)) == caps

    @given(
        values=st.fixed_dictionaries(
            {name: st.integers(0, 2**63 - 1) for name in STATS_LOG_FIELDS}
        )
    )
    def test_stats_log_roundtrip(self, values):
        assert parse_stats_log(build_stats_log(values)) == values


class TestIteratorBatchCodec:
    @given(
        pairs=st.lists(
            st.tuples(
                st.binary(min_size=1, max_size=16),
                st.binary(min_size=1, max_size=500),
            ),
            min_size=0,
            max_size=30,
        ),
        capacity=st.integers(min_value=4, max_value=8192),
    )
    @settings(max_examples=100)
    def test_pack_respects_capacity_and_roundtrips(self, pairs, capacity):
        from repro.nvme.iterator import pack_batch, unpack_batch

        blob, taken = pack_batch(pairs, capacity)
        assert len(blob) <= max(capacity, 4)
        assert unpack_batch(blob) == pairs[:taken]
        # Greedy: the first rejected record really would not have fit.
        if taken < len(pairs):
            key, value = pairs[taken]
            assert len(blob) + 1 + len(key) + 4 + len(value) > capacity


class TestBulkPayloadCodec:
    @given(
        pairs=st.lists(
            st.tuples(
                st.binary(min_size=1, max_size=16),
                st.binary(min_size=1, max_size=800),
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=100)
    def test_roundtrip(self, pairs):
        from repro.nvme.bulk import pack_bulk_payload, unpack_bulk_payload

        assert unpack_bulk_payload(pack_bulk_payload(pairs)) == pairs
