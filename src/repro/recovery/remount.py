"""Mount-time recovery: rebuild a KV-SSD's volatile state from media.

After a power cut every in-RAM structure is gone — the FTL mapping, the
MemTable, the write buffer and the packing pointers. What survives is the
NAND array itself plus the per-page OOB metadata stamped in
crash-consistency mode. :func:`remount` performs the classic three-phase
KV-SSD mount:

1. **OOB scan** — read every programmed physical page (booked on the NAND
   timeline: mount time is simulated time), discard torn pages (stored CRC
   cannot match a partially programmed payload), and pick the
   highest-sequence-number copy per logical page.
2. **Manifest restore** — reassemble the newest complete manifest
   generation; it fixes the SSTable level layout, the logical allocators
   and the checkpointed operation sequence number. SSTable-region pages
   *not* referenced by the restored manifest stay unmapped (dead tables,
   trimmed checkpoints — GC reclaims them), which is what keeps
   trimmed-then-crashed pages from resurrecting.
3. **vLog tail replay** — value-directory entries riding vLog OOB that are
   newer than the checkpoint re-enter the LSM-tree in operation order,
   provided every page of the value's span survived.

The result is a fresh :class:`~repro.device.kvssd.KVSSD` sharing the old
device's flash array, clock, link and injector, plus a
:class:`RecoveryReport` accounting for what was found, kept and lost.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.packing import NandPageBuffer, make_policy
from repro.lsm.addressing import ValueAddress
from repro.lsm.space import PageSpace
from repro.lsm.sstable import SSTable, _PageMeta, decode_entries
from repro.lsm.tree import LSMConfig, LSMTree
from repro.lsm.vlog import VLog
from repro.memory.device import DeviceDRAM
from repro.memory.dma import DMAEngine
from repro.nand.flash import page_crc
from repro.nand.ftl import PageMappedFTL
from repro.nand.gc import GreedyGarbageCollector
from repro.nvme.queue import CompletionQueue, SubmissionQueue
from repro.recovery.journal import (
    DurabilityJournal,
    RecoveryError,
    assemble_manifest,
    parse_manifest_page,
)


@dataclass(frozen=True)
class RecoveryReport:
    """What one remount scan found and what it did about it."""

    #: Physical pages read during the OOB scan.
    pages_scanned: int
    #: Pages whose program a power cut tore (OOB CRC mismatch); retired.
    torn_pages: int
    #: Intact pages superseded by a newer copy or unreferenced (GC fodder).
    stale_pages: int
    #: Logical pages in the rebuilt FTL mapping.
    mapped_lpns: int
    #: Manifest generation restored (0 = none found; cold layout).
    manifest_gen: int
    #: SSTables reattached from the manifest's level layout.
    tables_restored: int
    #: vLog directory entries replayed into the LSM-tree.
    entries_replayed: int
    #: Post-checkpoint entries discarded (value span not fully durable).
    entries_discarded: int
    #: Simulated time the whole remount took (scan + restore + replay).
    recovery_us: float
    #: Bad blocks carried across the crash.
    bad_blocks: int


def remount(device):
    """Recover ``device`` after a power cut; returns a fresh KVSSD.

    The new device shares the old one's flash array, clock, PCIe link,
    host memory, injector and tracer; everything volatile is rebuilt from
    the media scan. The old device object must not be used afterwards.
    The report is attached as ``new_device.recovery``.
    """
    from repro.device.kvssd import KVSSD

    old_journal = device.journal
    if old_journal is None:
        raise RecoveryError(
            "device was not built in crash-consistency mode: enable "
            "config.crash_consistency or a power-loss fault plan"
        )
    clock = device.clock
    flash = device.flash
    tracer = device.tracer
    config = device.config
    geo = flash.geometry
    page_size = geo.page_size
    vlog_end = device.vlog.end_lpn
    manifest_base = old_journal.manifest_base_lpn
    if device.injector is not None:
        device.injector.power_restore()
    t_start = clock.now_us

    # --- phase 1: OOB scan ---------------------------------------------------
    torn = 0
    max_seq = 0
    pages_scanned = 0
    #: lpn -> (seq, ppn, meta) winners, per region.
    vlog_best: dict[int, tuple[int, int, tuple]] = {}
    sst_best: dict[int, tuple[int, int]] = {}
    #: gen -> part -> (seq, total, chunk, lpn, ppn).
    gens: dict[int, dict[int, tuple[int, int, bytes, int, int]]] = {}
    manifest_next = manifest_base
    for ppn in flash.programmed_ppns():
        data, oob = flash.scan_read(ppn)
        pages_scanned += 1
        if oob is None:
            continue  # programmed without OOB: unrecoverable by design
        if oob.seq > max_seq:
            max_seq = oob.seq
        if oob.torn or page_crc(data) != oob.crc:
            torn += 1
            continue
        lpn = oob.lpn
        if lpn < vlog_end:
            cur = vlog_best.get(lpn)
            if cur is None or oob.seq > cur[0]:
                vlog_best[lpn] = (oob.seq, ppn, oob.meta)
        elif lpn < manifest_base:
            cur_s = sst_best.get(lpn)
            if cur_s is None or oob.seq > cur_s[0]:
                sst_best[lpn] = (oob.seq, ppn)
        else:
            if lpn >= manifest_next:
                manifest_next = lpn + 1
            parsed = parse_manifest_page(data)
            if parsed is None:
                continue
            gen, part, total, chunk = parsed
            slot = gens.setdefault(gen, {})
            cur_m = slot.get(part)
            if cur_m is None or oob.seq > cur_m[0]:
                slot[part] = (oob.seq, total, chunk, lpn, ppn)
    t_scan = clock.now_us
    if tracer is not None:
        tracer.span(
            "recovery", "oob_scan", t_start, t_scan, phase="other",
            phase_us=t_scan - t_start, pages=pages_scanned, torn=torn,
        )

    # --- phase 2: manifest restore ---------------------------------------------
    manifest = None
    manifest_parts: dict[int, tuple[int, int, bytes, int, int]] = {}
    for gen in sorted(gens, reverse=True):
        slot = gens[gen]
        payload = assemble_manifest(
            {part: (rec[1], rec[2]) for part, rec in slot.items()}
        )
        if payload is not None and payload.get("gen") == gen:
            manifest = payload
            manifest_parts = slot
            break
    restored_gen = manifest["gen"] if manifest else 0
    checkpoint_op_seq = manifest["op_seq"] if manifest else 0
    trimmed_through = manifest.get("vlog_trimmed_through", 0) if manifest else 0

    # The rebuilt mapping: every intact vLog winner the durable compaction
    # frontier has not reclaimed (trimmed-then-crashed pages must not
    # resurrect); SSTable pages only if the restored manifest references
    # them; the restored manifest's own pages (so the next checkpoint can
    # trim them).
    mapping: dict[int, int] = {
        lpn: ppn
        for lpn, (_, ppn, _) in vlog_best.items()
        if lpn >= trimmed_through
    }
    table_specs: list[tuple[int, dict]] = []
    if manifest:
        for level_index, level in enumerate(manifest["levels"]):
            for spec in level:
                table_specs.append((level_index, spec))
                for lpn in spec["pages"]:
                    if lpn not in sst_best:
                        raise RecoveryError(
                            f"manifest gen {restored_gen} references SSTable "
                            f"page {lpn} with no intact copy on media"
                        )
                    mapping[lpn] = sst_best[lpn][1]
    manifest_lpns = [
        rec[3] for _, rec in sorted(manifest_parts.items())
    ]
    for _, rec in manifest_parts.items():
        mapping[rec[3]] = rec[4]
    stale = pages_scanned - torn - len(mapping)

    # --- rebuild the device around the surviving flash array --------------------
    journal = DurabilityJournal(manifest_base, page_size)
    journal.checkpoint_op_seq = checkpoint_op_seq
    # Future generations must outnumber every stale one on media, even the
    # incomplete casualty of a mid-checkpoint crash.
    journal.manifest_gen = max([restored_gen, *gens]) if gens else restored_gen
    journal._manifest_next = manifest_next
    journal.prev_manifest_lpns = manifest_lpns
    journal.vlog_trimmed_through = trimmed_through

    ftl = PageMappedFTL(
        flash,
        ecc_correctable_bits=config.ecc_correctable_bits,
        read_retry_limit=config.read_retry_limit,
        program_retry_limit=config.program_retry_limit,
        tracer=tracer,
        journal=journal,
    )
    gc = GreedyGarbageCollector(ftl)
    ftl.set_gc(gc)
    if config.read_cache_pages > 0:
        from repro.memory.cache import PageCache

        # A fresh (empty) cache: torn pages retired during the scan and
        # any pre-cut contents are gone with the power cut — nothing
        # stale can survive the remount.
        ftl.attach_read_cache(
            PageCache(config.read_cache_pages),
            hit_cost_us=config.read_cache_hit_us,
        )
    ftl.adopt_mapping(
        mapping, bad_blocks=device.ftl._bad_blocks, next_seq=max_seq
    )

    vlog = VLog(ftl, base_lpn=0, capacity_pages=device.vlog.capacity_pages)
    vlog_mapped = [lpn for lpn in vlog_best if lpn in mapping]
    # The write pointer resumes past everything ever allocated: surviving
    # pages, the checkpointed allocator, and the reclaimed (trimmed)
    # region — the vLog's logical space is append-only and never wraps.
    vlog_next = max(
        (max(vlog_mapped) + 1) if vlog_mapped else vlog.base_lpn,
        manifest["vlog_next"] if manifest else vlog.base_lpn,
        trimmed_through,
    )
    vlog.resume(vlog_next)

    old_space = device.lsm.store.space
    space = PageSpace(
        base_lpn=old_space.base_lpn, capacity_pages=old_space.capacity_pages
    )
    if manifest:
        space._next = manifest["space_next"]
        space._free = list(manifest["space_free"])

    buffer_bytes = config.buffer_entries * page_size
    dram = DeviceDRAM(buffer_bytes + config.scratch_bytes)
    buffer_region = dram.carve_region("nand_page_buffer", buffer_bytes)
    scratch_region = dram.carve_region("scratch", config.scratch_bytes)
    dma = DMAEngine(device.link, dram, device.host_mem)

    memtable_bytes = (
        config.memtable_flush_bytes if config.nand_io_enabled else 2**62
    )
    lsm = LSMTree(
        ftl,
        vlog,
        space,
        clock,
        device.latency,
        LSMConfig(memtable_flush_bytes=memtable_bytes),
        journal=journal,
    )
    lsm.last_op_seq = checkpoint_op_seq

    # Reattach the manifest's SSTables; fence keys come from re-reading
    # each index page (more mount-time NAND reads, honestly charged).
    scheme = lsm.config.scheme
    tables_restored = 0
    for level_index, spec in table_specs:
        metas = []
        for lpn in spec["pages"]:
            entries = decode_entries(ftl.read(lpn), scheme, page_size)
            if not entries:
                raise RecoveryError(f"restored SSTable page {lpn} is empty")
            metas.append(
                _PageMeta(
                    lpn=lpn,
                    first_key=entries[0][0],
                    last_key=entries[-1][0],
                )
            )
        table = SSTable(
            spec["id"], metas, spec["entries"], scheme, page_size
        )
        lsm.store.levels[level_index].append(table)
        tables_restored += 1
        lsm.store.last_table_id = max(lsm.store.last_table_id, spec["id"])
    for level in lsm.store.levels[1:]:
        level.sort(key=lambda t: t.min_key)
    t_manifest = clock.now_us
    if tracer is not None:
        tracer.span(
            "recovery", "manifest_restore", t_scan, t_manifest,
            phase="other", phase_us=t_manifest - t_scan,
            gen=restored_gen, tables=tables_restored,
        )

    buffer = NandPageBuffer(
        buffer_region,
        vlog,
        ftl,
        pool_entries=config.buffer_entries,
        nand_io_enabled=config.nand_io_enabled,
    )
    buffer.resume(vlog_next - vlog.base_lpn)
    policy = make_policy(config, buffer, vlog.capacity_pages)
    policy.resume_at((vlog_next - vlog.base_lpn) * page_size)

    # --- phase 3: vLog tail replay ---------------------------------------------
    directory: list[tuple] = []
    for lpn, (_, _, meta) in vlog_best.items():
        if lpn in mapping:
            directory.extend(meta)
    newer = [e for e in directory if e[4] > checkpoint_op_seq]
    newer.sort(key=lambda e: e[4])
    replayed = 0
    discarded = 0
    max_replayed_seq = checkpoint_op_seq
    for key, lpn, offset, size, op_seq in newer:
        span_last = lpn + (offset + size - 1) // page_size
        if all(ftl.is_mapped(p) for p in range(lpn, span_last + 1)):
            lsm.put(bytes(key), ValueAddress(lpn=lpn, offset=offset, size=size))
            replayed += 1
            if op_seq > max_replayed_seq:
                max_replayed_seq = op_seq
        else:
            discarded += 1
    lsm.last_op_seq = max_replayed_seq
    t_replay = clock.now_us
    if tracer is not None:
        tracer.span(
            "recovery", "replay", t_manifest, t_replay, phase="other",
            phase_us=t_replay - t_manifest,
            replayed=replayed, discarded=discarded,
        )

    # --- reassemble the host stack ----------------------------------------------
    ring_depth = max(device.controller.sq.depth, config.queue_depth)
    sq = SubmissionQueue(depth=ring_depth)
    cq = CompletionQueue(depth=ring_depth)
    if tracer is not None:
        sq.attach_tracer(tracer)
        cq.attach_tracer(tracer)
    from repro.core.controller import BandSlimController
    from repro.core.driver import BandSlimDriver

    controller = BandSlimController(
        config,
        device.link,
        device.host_mem,
        dma,
        buffer,
        policy,
        lsm,
        scratch_region,
        sq,
        cq,
        injector=device.injector,
        tracer=tracer,
        journal=journal,
    )
    admin_sq = SubmissionQueue(depth=ring_depth, qid=0)
    admin_cq = CompletionQueue(depth=ring_depth, qid=0)
    if tracer is not None:
        admin_sq.attach_tracer(tracer)
        admin_cq.attach_tracer(tracer)
    controller.attach_admin_queues(admin_sq, admin_cq)
    driver = BandSlimDriver(
        config, device.link, device.host_mem, controller, sq, cq,
        injector=device.injector, tracer=tracer,
    )
    report = RecoveryReport(
        pages_scanned=pages_scanned,
        torn_pages=torn,
        stale_pages=stale,
        mapped_lpns=len(mapping),
        manifest_gen=restored_gen,
        tables_restored=tables_restored,
        entries_replayed=replayed,
        entries_discarded=discarded,
        recovery_us=clock.now_us - t_start,
        bad_blocks=ftl.bad_block_count,
    )
    new_device = KVSSD(
        config=config,
        clock=clock,
        latency=device.latency,
        link=device.link,
        host_mem=device.host_mem,
        dram=dram,
        flash=flash,
        ftl=ftl,
        gc=gc,
        vlog=vlog,
        lsm=lsm,
        buffer=buffer,
        policy=policy,
        controller=controller,
        driver=driver,
        injector=device.injector,
        tracer=tracer,
        journal=journal,
        recovery=report,
    )
    return new_device
