"""Mount-time recovery: OOB scan, manifest restore, vLog tail replay."""

import pytest

from repro.core.config import BandSlimConfig
from repro.device.kvssd import KVSSD
from repro.errors import KeyNotFoundError, PowerLossError
from repro.faults import FaultPlan
from repro.recovery.journal import RecoveryError
from repro.units import KIB, MIB

CRASH_CFG = BandSlimConfig().with_overrides(
    crash_consistency=True,
    nand_capacity_bytes=64 * MIB,
    buffer_entries=8,
)


def _value(i: int, size: int = 3000) -> bytes:
    return bytes([(i * 13 + j) % 256 for j in range(64)]) * (size // 64)


def _fill(driver, count, tag=b"k", size=3000):
    acked = {}
    for i in range(count):
        key = tag + b"-%05d" % i
        value = _value(i, size)
        driver.put(key, value)
        acked[key] = value
    return acked


def _get(driver, key):
    try:
        return driver.get(key).value
    except KeyNotFoundError:
        return None


class TestCleanRemount:
    def test_flush_then_remount_restores_everything(self):
        device = KVSSD.build(CRASH_CFG)
        written = _fill(device.driver, 120)
        device.driver.delete(b"k-%05d" % 0)
        del written[b"k-%05d" % 0]
        device.driver.nvme_flush()
        recovered = device.remount()
        for key, value in written.items():
            assert _get(recovered.driver, key) == value
        assert _get(recovered.driver, b"k-%05d" % 0) is None
        report = recovered.recovery
        assert report.torn_pages == 0
        assert report.manifest_gen == 1
        assert report.pages_scanned > 0
        assert report.mapped_lpns > 0

    def test_remount_books_simulated_time(self):
        device = KVSSD.build(CRASH_CFG)
        _fill(device.driver, 60)
        device.driver.nvme_flush()
        t0 = device.clock.now_us
        recovered = device.remount()
        assert recovered.recovery.recovery_us > 0
        assert recovered.clock.now_us == pytest.approx(
            t0 + recovered.recovery.recovery_us
        )

    def test_remount_requires_crash_consistency_mode(self):
        device = KVSSD.build(BandSlimConfig())
        with pytest.raises(RecoveryError):
            device.remount()

    def test_recovered_device_accepts_new_work(self):
        device = KVSSD.build(CRASH_CFG)
        _fill(device.driver, 40)
        device.driver.nvme_flush()
        recovered = device.remount()
        recovered.driver.put(b"fresh", b"post-recovery write")
        assert _get(recovered.driver, b"fresh") == b"post-recovery write"


class TestCrashRemount:
    def _run_until_cut(self, device, flush_every=50, count=400):
        """Drive puts with periodic flushes; returns (flushed, unflushed)."""
        driver = device.driver
        flushed = {}
        unflushed = {}
        try:
            for i in range(count):
                key = b"k-%05d" % i
                value = _value(i)
                driver.put(key, value)
                unflushed[key] = value
                if (i + 1) % flush_every == 0:
                    driver.nvme_flush()
                    flushed.update(unflushed)
                    unflushed = {}
        except PowerLossError:
            pass
        return flushed, unflushed

    def test_flushed_survives_unflushed_lost_or_durable(self):
        # Dry run without a cut to learn the timeline, then cut mid-run.
        dry = KVSSD.build(CRASH_CFG)
        self._run_until_cut(dry)
        cut = dry.clock.now_us * 0.6
        device = KVSSD.build(
            CRASH_CFG, fault_plan=FaultPlan(power_loss_at_us=(cut,))
        )
        flushed, unflushed = self._run_until_cut(device)
        assert device.injector.power_lost
        assert flushed  # the cut landed after at least one flush
        recovered = device.remount()
        for key, value in flushed.items():
            assert _get(recovered.driver, key) == value, key
        for key, value in unflushed.items():
            assert _get(recovered.driver, key) in (None, value), key

    def test_torn_pages_never_surface(self):
        device = KVSSD.build(
            CRASH_CFG,
            fault_plan=FaultPlan(seed=5, power_loss_per_program_p=0.08),
        )
        flushed, unflushed = self._run_until_cut(device)
        assert device.injector.power_lost
        recovered = device.remount()
        # Whatever was torn was retired during the scan: every readable
        # value is byte-exact, never a partial program.
        for key, value in {**flushed, **unflushed}.items():
            assert _get(recovered.driver, key) in (None, value), key
        for key, value in flushed.items():
            assert _get(recovered.driver, key) == value, key

    def test_chained_crash_and_clean_remounts(self):
        dry = KVSSD.build(CRASH_CFG)
        self._run_until_cut(dry, count=200)
        cut = dry.clock.now_us * 0.7
        device = KVSSD.build(
            CRASH_CFG, fault_plan=FaultPlan(power_loss_at_us=(cut,))
        )
        flushed, _ = self._run_until_cut(device, count=200)
        first = device.remount()
        gen_after_crash = first.journal.manifest_gen
        more = _fill(first.driver, 30, tag=b"life2")
        first.driver.nvme_flush()
        second = first.remount()
        assert second.journal.manifest_gen > gen_after_crash
        for key, value in {**flushed, **more}.items():
            assert _get(second.driver, key) == value, key


class TestTableIds:
    """SSTable ids are per device, so manifests do not depend on what else
    the process built before."""

    CFG = CRASH_CFG.with_overrides(memtable_flush_bytes=16 * KIB)

    def _flushed_device(self):
        device = KVSSD.build(self.CFG)
        _fill(device.driver, 2000, size=64)
        device.driver.nvme_flush()
        return device

    @staticmethod
    def _table_ids(device):
        return [t.table_id for level in device.lsm.store.levels for t in level]

    @staticmethod
    def _manifest_pages(device):
        lpns = device.journal.prev_manifest_lpns
        return [device.lsm.ftl.read(lpn) for lpn in lpns]

    def test_identical_devices_write_identical_manifests(self):
        first = self._flushed_device()
        second = self._flushed_device()
        assert len(self._table_ids(first)) > 1
        assert self._table_ids(first) == self._table_ids(second)
        assert self._manifest_pages(first) == self._manifest_pages(second)

    def test_remount_continues_ids_after_the_manifest(self):
        device = self._flushed_device()
        restored_ids = self._table_ids(device)
        recovered = device.remount()
        assert self._table_ids(recovered) == restored_ids
        assert recovered.lsm.store.last_table_id == max(restored_ids)
        _fill(recovered.driver, 500, tag=b"life2", size=64)
        recovered.driver.nvme_flush()
        ids = self._table_ids(recovered)
        assert len(ids) == len(set(ids))
        assert max(ids) > max(restored_ids)
