"""SSTables: immutable sorted runs of (key → vLog address) index entries.

Because values live in the vLog, SSTable entries are small and fixed-shape;
a flush or compaction writes *index* pages only — the key-value-separation
property that keeps compaction write amplification off the value bytes
(paper §2.1, WiscKey [23]).

On-page format (entries never span pages):

    page := entry_count:u16  entry*
    entry := key_size:u8  key  flags:u8  encoded_addr:u64  value_size:u32

Lookups binary-search in-memory fence keys (first key of each page), then
read exactly one NAND page through the FTL — charging the read latency and
counters the device would really pay. Within that page, :func:`find_entry`
skips entries by their length prefix and decodes only the target entry.
The simulated charge is the FTL read alone (plus the tree's per-lookup
``lsm_probe_us``), however much of the page is decoded.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.errors import LSMError
from repro.lsm.addressing import AddressingScheme, ValueAddress
from repro.lsm.space import PageSpace
from repro.nand.ftl import PageMappedFTL

_FLAG_TOMBSTONE = 0x01
_PAGE_HEADER = struct.Struct("<H")
_ENTRY_FIXED = struct.Struct("<BQI")  # flags, encoded addr, value size

#: Entry type: (key, address-or-None-for-tombstone).
Entry = tuple[bytes, ValueAddress | None]


def encode_entry(
    key: bytes, addr: ValueAddress | None, scheme: AddressingScheme, page_size: int
) -> bytes:
    if not 0 < len(key) <= 255:
        raise LSMError(f"key length {len(key)} not in 1..255")
    if addr is None:
        body = _ENTRY_FIXED.pack(_FLAG_TOMBSTONE, 0, 0)
    else:
        body = _ENTRY_FIXED.pack(0, scheme.encode(addr, page_size), addr.size)
    return bytes([len(key)]) + key + body


def decode_entries(
    page: bytes, scheme: AddressingScheme, page_size: int
) -> list[Entry]:
    """Parse all entries from one SSTable page (scans, compaction, remount)."""
    (count,) = _PAGE_HEADER.unpack_from(page, 0)
    pos = _PAGE_HEADER.size
    out: list[Entry] = []
    for _ in range(count):
        key_size = page[pos]
        pos += 1
        key = bytes(page[pos : pos + key_size])
        pos += key_size
        flags, encoded, vsize = _ENTRY_FIXED.unpack_from(page, pos)
        pos += _ENTRY_FIXED.size
        if flags & _FLAG_TOMBSTONE:
            out.append((key, None))
        else:
            out.append((key, scheme.decode(encoded, vsize, page_size)))
    return out


def find_entry(
    page: bytes, key: bytes, scheme: AddressingScheme, page_size: int
) -> tuple[bool, ValueAddress | None]:
    """(found, address) for ``key`` in one SSTable page.

    Entries within a page are sorted, so the walk stops at the first key
    >= ``key`` and decodes only that entry; the rest are skipped unparsed.
    """
    (count,) = _PAGE_HEADER.unpack_from(page, 0)
    pos = _PAGE_HEADER.size
    for _ in range(count):
        key_end = pos + 1 + page[pos]
        entry_key = page[pos + 1 : key_end]
        if entry_key >= key:
            if entry_key != key:
                return False, None
            flags, encoded, vsize = _ENTRY_FIXED.unpack_from(page, key_end)
            if flags & _FLAG_TOMBSTONE:
                return True, None
            return True, scheme.decode(encoded, vsize, page_size)
        pos = key_end + _ENTRY_FIXED.size
    return False, None


@dataclass(frozen=True)
class _PageMeta:
    lpn: int
    first_key: bytes
    last_key: bytes


class SSTable:
    """An immutable sorted run persisted to NAND index pages."""

    def __init__(
        self,
        table_id: int,
        pages: list[_PageMeta],
        entry_count: int,
        scheme: AddressingScheme,
        page_size: int,
    ) -> None:
        if not pages:
            raise LSMError("SSTable must have at least one page")
        self.table_id = table_id
        self._pages = pages
        self.entry_count = entry_count
        self.scheme = scheme
        self.page_size = page_size
        self.min_key = pages[0].first_key
        self.max_key = pages[-1].last_key

    # --- construction -----------------------------------------------------

    @classmethod
    def build(
        cls,
        table_id: int,
        items: Iterable[Entry],
        ftl: PageMappedFTL,
        space: PageSpace,
        scheme: AddressingScheme,
    ) -> "SSTable":
        """Serialize sorted ``items`` into NAND pages via the FTL."""
        page_size = ftl.flash.geometry.page_size
        pages: list[_PageMeta] = []
        # Serialization never reads back from the FTL, so page programs are
        # deferred and issued as a single ordered write_many batch at the end.
        pending: list[tuple[int, bytes]] = []
        buf = bytearray(_PAGE_HEADER.size)
        keys_in_page: list[bytes] = []
        entry_count = 0
        prev_key: bytes | None = None

        def flush_page() -> None:
            nonlocal buf, keys_in_page
            if not keys_in_page:
                return
            _PAGE_HEADER.pack_into(buf, 0, len(keys_in_page))
            lpn = space.alloc()
            pending.append((lpn, bytes(buf)))
            pages.append(
                _PageMeta(lpn=lpn, first_key=keys_in_page[0], last_key=keys_in_page[-1])
            )
            buf = bytearray(_PAGE_HEADER.size)
            keys_in_page = []

        for key, addr in items:
            if prev_key is not None and key <= prev_key:
                raise LSMError(
                    f"SSTable input not strictly sorted: {key!r} after {prev_key!r}"
                )
            prev_key = key
            blob = encode_entry(key, addr, scheme, page_size)
            if len(buf) + len(blob) > page_size:
                flush_page()
            buf += blob
            keys_in_page.append(key)
            entry_count += 1
        flush_page()
        if entry_count == 0:
            raise LSMError("cannot build an empty SSTable")
        ftl.write_many(pending)
        return cls(table_id, pages, entry_count, scheme, page_size)

    # --- queries -------------------------------------------------------------

    @property
    def page_count(self) -> int:
        return len(self._pages)

    @property
    def lpns(self) -> list[int]:
        return [p.lpn for p in self._pages]

    def key_range_overlaps(self, lo: bytes, hi: bytes) -> bool:
        return not (self.max_key < lo or hi < self.min_key)

    def may_contain(self, key: bytes) -> bool:
        return self.min_key <= key <= self.max_key

    def _page_index_for(self, key: bytes) -> int | None:
        """Binary search over fence keys; None if key < table min."""
        lo, hi = 0, len(self._pages) - 1
        best = None
        while lo <= hi:
            mid = (lo + hi) // 2
            if self._pages[mid].first_key <= key:
                best = mid
                lo = mid + 1
            else:
                hi = mid - 1
        return best

    def get(self, key: bytes, ftl: PageMappedFTL) -> tuple[bool, ValueAddress | None]:
        """(found, address). Reads at most one NAND page."""
        if not self.may_contain(key):
            return False, None
        idx = self._page_index_for(key)
        if idx is None:
            return False, None
        meta = self._pages[idx]
        if key > meta.last_key:
            return False, None
        return find_entry(ftl.read(meta.lpn), key, self.scheme, self.page_size)

    def iter_entries(
        self, ftl: PageMappedFTL, start_key: bytes = b""
    ) -> Iterator[Entry]:
        """All entries with key >= start_key, in order (reads pages lazily)."""
        start_idx = 0
        if start_key:
            idx = self._page_index_for(start_key)
            start_idx = 0 if idx is None else idx
        for meta in self._pages[start_idx:]:
            if meta.last_key < start_key:
                continue
            page = ftl.read(meta.lpn)
            for entry_key, addr in decode_entries(page, self.scheme, self.page_size):
                if entry_key >= start_key:
                    yield entry_key, addr

    def release(self, ftl: PageMappedFTL, space: PageSpace) -> None:
        """Drop the table's pages (post-compaction cleanup)."""
        for meta in self._pages:
            ftl.trim(meta.lpn)
            space.free(meta.lpn)

    def __repr__(self) -> str:
        return (
            f"SSTable(id={self.table_id}, entries={self.entry_count}, "
            f"pages={self.page_count}, range=[{self.min_key!r}, {self.max_key!r}])"
        )
