"""Tests for the op vocabulary and process bookkeeping."""

import pytest

from repro.errors import SimulationError
from repro.sim.process import (
    Compute,
    GetSubpage,
    LocalOps,
    Poststore,
    Process,
    Read,
    WaitUntil,
    Write,
)


class TestOps:
    def test_compute_rejects_negative(self):
        with pytest.raises(SimulationError):
            Compute(-1)

    def test_localops_rejects_negative(self):
        with pytest.raises(SimulationError):
            LocalOps(-5)

    def test_ops_are_frozen(self):
        op = Read(0x100)
        with pytest.raises(AttributeError):
            op.addr = 0x200  # type: ignore[misc]

    def test_write_carries_value(self):
        assert Write(8, 42).value == 42

    def test_waituntil_holds_predicate(self):
        op = WaitUntil(16, lambda v: v > 3)
        assert op.predicate(4) and not op.predicate(3)

    def test_address_ops_record_addr(self):
        for cls in (Read, GetSubpage, Poststore):
            assert cls(0x80).addr == 0x80

    def test_access_ops_compare_and_print_by_value(self):
        assert Read(0x80) == Read(0x80) and hash(Read(0x80)) == hash(Read(0x80))
        assert Write(8, 1) == Write(8, 1) and Write(8, 1) != Write(8, 2)
        assert Read(8) != Write(8, 0)
        assert repr(Read(0x80)) == "Read(addr=128)"
        assert repr(Write(8, 42)) == "Write(addr=8, value=42)"


class TestProcess:
    @staticmethod
    def _dummy():
        yield Compute(1)

    def test_lifecycle(self):
        p = Process(name="t", body=self._dummy(), cell_id=0)
        assert not p.finished
        p.started_at = 5.0
        p.finish(15.0, "done")
        assert p.finished
        assert p.result == "done"
        assert p.elapsed == 10.0

    def test_double_finish_rejected(self):
        p = Process(name="t", body=self._dummy(), cell_id=0)
        p.finish(1.0, None)
        with pytest.raises(SimulationError):
            p.finish(2.0, None)

    def test_elapsed_before_finish_rejected(self):
        p = Process(name="t", body=self._dummy(), cell_id=0)
        with pytest.raises(SimulationError):
            _ = p.elapsed

    def test_waiting_description_formats_an_access_op(self):
        p = Process(name="t", body=self._dummy(), cell_id=0)
        assert p.waiting_description is None
        p.waiting_on = Write(0x1F80, 3)
        assert p.waiting_description == "write(0x1f80)"
        p.waiting_on = Read(0x80)
        assert p.waiting_description == "read(0x80)"
        p.waiting_on = "spin(0x80)"
        assert p.waiting_description == "spin(0x80)"

    def test_on_exit_callback(self):
        seen = []
        p = Process(name="t", body=self._dummy(), cell_id=0, on_exit=seen.append)
        p.finish(1.0, None)
        assert seen == [p]
