"""Failure injection: every way a schedule can be wrong must fail loudly.

The simulator's value as a measurement instrument rests on these: capacity
violations, non-resident touches, redundant loads, and omitted writebacks
must all be *detected*, not silently absorbed.  The same holds for stored
containers: a tampered trace or schedule file is rejected when loaded, and
the schedule store reads it as a corrupt miss.
"""

import json

import numpy as np
import pytest

from repro import TwoLevelMachine
from repro.errors import (
    CapacityError,
    ConfigurationError,
    RedundantLoadError,
    ResidencyError,
    ScheduleError,
)
from repro.graph.compare import record_case
from repro.obs import probe_scope
from repro.sched.ops import OuterColsUpdate, TriangleUpdate
from repro.sched.schedule import EvictStep, LoadStep, Schedule, record_schedule
from repro.sched.validate import validate_schedule
from repro.serve.store import ScheduleKey, ScheduleStore
from repro.trace.io import load_schedule, load_trace, save_trace


def machine(s=10, **kw):
    m = TwoLevelMachine(s, **kw)
    m.add_matrix("A", np.arange(20, dtype=float).reshape(5, 4))
    m.add_matrix("C", np.zeros((5, 5)))
    return m


class TestCapacityInjection:
    def test_oversized_single_load(self):
        m = machine(s=3)
        with pytest.raises(CapacityError) as exc:
            m.load(m.tile("A", [0, 1], [0, 1]))
        assert exc.value.requested == 4
        assert exc.value.capacity == 3

    def test_accumulated_overflow(self):
        m = machine(s=4)
        m.load(m.tile("A", [0], [0, 1, 2]))
        with pytest.raises(CapacityError):
            m.load(m.tile("A", [1], [0, 1]))

    def test_failed_load_leaves_state_clean(self):
        m = machine(s=4)
        m.load(m.tile("A", [0], [0, 1, 2]))
        before = m.stats.loads
        with pytest.raises(CapacityError):
            m.load(m.tile("A", [1], [0, 1]))
        assert m.stats.loads == before
        assert m.occupancy() == 3
        # the rejected region is loadable after making room
        m.evict(m.tile("A", [0], [0, 1, 2]))
        m.load(m.tile("A", [1], [0, 1]))


class TestResidencyInjection:
    def test_compute_on_missing_input(self):
        m = machine()
        m.load(m.tile("C", [1], [0]))
        m.load(m.column_segment("A", [1], 0))
        # forgot A[0, 0]
        with pytest.raises(ResidencyError):
            m.compute(OuterColsUpdate(m, "C", "A", "A", [1], [0], 0, 0))

    def test_compute_on_missing_output(self):
        m = machine()
        m.load(m.column_segment("A", [1], 0))
        m.load(m.column_segment("A", [0], 0))
        with pytest.raises(ResidencyError):
            m.compute(OuterColsUpdate(m, "C", "A", "A", [1], [0], 0, 0))

    def test_partial_residency_detected(self):
        m = machine()
        m.load(m.triangle_block("C", [0, 1, 2]))
        m.load(m.column_segment("A", [0, 1], 0))  # missing row 2
        with pytest.raises(ResidencyError):
            m.compute(TriangleUpdate(m, "C", "A", [0, 1, 2], 0))

    def test_evict_partial(self):
        m = machine()
        m.load(m.tile("C", [0], [0]))
        with pytest.raises(ResidencyError):
            m.evict(m.tile("C", [0], [0, 1]))


class TestRedundantLoadInjection:
    def test_detected_by_default(self):
        m = machine()
        m.load(m.tile("A", [0], [0, 1]))
        with pytest.raises(RedundantLoadError):
            m.load(m.tile("A", [0], [1, 2]))  # overlaps in (0,1)

    def test_validator_catches_it_too(self):
        m = machine(allow_redundant_loads=True)
        sched = record_schedule(
            m,
            lambda: (m.load(m.tile("A", [0], [0])), m.load(m.tile("A", [0], [0]))),
        )
        with pytest.raises(ScheduleError, match="redundant"):
            validate_schedule(sched, capacity=10, require_empty_end=False)


class TestWritebackOmission:
    def test_strict_mode_detects_lost_update(self):
        # A schedule that computes but forgets the writeback produces a
        # stale slow-memory result -> verification against the reference
        # fails.  This is the NaN-poison/strictness contract.
        m = machine()
        a = m.result("A").copy()
        tile = m.tile("C", [1], [0])
        m.load(tile)
        m.load(m.column_segment("A", [1], 1))
        m.load(m.column_segment("A", [0], 1))
        m.compute(OuterColsUpdate(m, "C", "A", "A", [1], [0], 1, 1))
        m.evict(tile, writeback=False)  # BUG injected here
        expected = a[1, 1] * a[0, 1]
        assert expected != 0.0
        assert m.result("C")[1, 0] != pytest.approx(expected)

    def test_forgotten_load_poisons_result(self):
        # Reading C without loading it first is impossible (residency), but
        # a *wrongly-scoped* load is the sneakier bug: load only part of a
        # region via a differently-shaped op. Strict mode NaNs anything not
        # covered, so the result cannot silently look right.
        m = machine()
        ws = m.workspace("C")
        assert np.isnan(ws).all()


class TestValidatorEndState:
    def test_leak_detection(self):
        m = machine()
        sched = record_schedule(m, lambda: m.load(m.tile("A", [0], [0])))
        with pytest.raises(ScheduleError, match="not empty"):
            validate_schedule(sched, capacity=10)
        # but tolerated when explicitly allowed
        summary = validate_schedule(sched, capacity=10, require_empty_end=False)
        assert summary["loads"] == 1

    def test_evict_never_loaded(self):
        m = machine()
        reg = m.tile("A", [0], [0])
        sched = Schedule(steps=[EvictStep(reg, False)], shapes={"A": (5, 4), "C": (5, 5)})
        with pytest.raises(ScheduleError, match="non-resident"):
            validate_schedule(sched, capacity=10)


# --------------------------------------------------------------------- #
# tampered containers: a bad stored object is rejected at load time
# --------------------------------------------------------------------- #
def _rewrite(path, mangle):
    """Rewrite the ``.npz`` container at ``path`` after ``mangle(header, arrays)``."""
    with np.load(path, allow_pickle=False) as npz:
        header = json.loads(str(npz["header"][()]))
        arrays = {k: npz[k] for k in npz.files if k != "header"}
    mangle(header, arrays)
    np.savez_compressed(path, header=np.asarray(json.dumps(header)), **arrays)


def _first(header, t):
    return next(rec for rec in header["steps"] if rec["t"] == t)


def _span_past_end(header, arrays):
    rec = _first(header, "L")
    rec["i"] = [rec["i"][0], int(arrays["index_data"].size) + 5]


def _span_reversed(header, arrays):
    rec = _first(header, "L")
    rec["i"] = rec["i"][::-1]


def _unsorted_flats(header, arrays):
    start, end = next(r["i"] for r in header["steps"] if r["t"] == "L" and r["i"][1] - r["i"][0] > 1)
    arrays["index_data"][start:end] = arrays["index_data"][start:end][::-1].copy()


def _duplicated_flat(header, arrays):
    start, end = next(r["i"] for r in header["steps"] if r["t"] == "L" and r["i"][1] - r["i"][0] > 1)
    arrays["index_data"][start + 1] = arrays["index_data"][start]


def _flat_outside_matrix(header, arrays):
    start, end = _first(header, "L")["i"]
    arrays["index_data"][end - 1] = 10**6


def _op_row_outside_matrix(header, arrays):
    start, end = _first(header, "C")["i"]["R"]
    arrays["index_data"][end - 1] = 10**6


TAMPERS = [
    _span_past_end,
    _span_reversed,
    _unsorted_flats,
    _duplicated_flat,
    _flat_outside_matrix,
    _op_row_outside_matrix,
]


class TestTamperedScheduleContainer:
    @pytest.fixture()
    def stored(self, tmp_path):
        case = record_case("tbs", 16, 4, 15)
        store = ScheduleStore(str(tmp_path / "store"))
        key = ScheduleKey("tbs", 16, 4, 15)
        store.put(key, case.schedule)
        return store, key

    @pytest.mark.parametrize("mangle", TAMPERS, ids=lambda f: f.__name__.strip("_"))
    def test_load_rejects(self, stored, mangle):
        store, key = stored
        _rewrite(store.object_path(key), mangle)
        with pytest.raises(ConfigurationError):
            load_schedule(store.object_path(key))

    @pytest.mark.parametrize("verify", [False, True])
    @pytest.mark.parametrize("mangle", TAMPERS, ids=lambda f: f.__name__.strip("_"))
    def test_store_get_counts_corrupt_and_misses(self, stored, mangle, verify):
        store, key = stored
        _rewrite(store.object_path(key), lambda header, arrays: None)
        assert store.get(key, verify=verify) is not None  # a faithful rewrite serves
        _rewrite(store.object_path(key), mangle)
        with probe_scope() as probe:
            assert store.get(key, verify=verify) is None
        assert probe.counters["serve.store.corrupt"] == 1


def _trace_short_ids(header, arrays):
    arrays["elem_ids"] = arrays["elem_ids"][:-1]


def _trace_id_out_of_range(header, arrays):
    arrays["elem_ids"][0] = header["n_elements"]


def _trace_negative_id(header, arrays):
    arrays["elem_ids"][0] = -1


def _trace_offset_past_end(header, arrays):
    arrays["op_starts"][-1] += 3


def _trace_read_end_outside_op(header, arrays):
    arrays["op_read_ends"][0] = arrays["op_starts"][1] + 1


def _trace_matrix_id_out_of_range(header, arrays):
    arrays["key_matrix"][0] = len(header["matrices"])


class TestTamperedTraceContainer:
    @pytest.mark.parametrize(
        "mangle",
        [
            _trace_short_ids,
            _trace_id_out_of_range,
            _trace_negative_id,
            _trace_offset_past_end,
            _trace_read_end_outside_op,
            _trace_matrix_id_out_of_range,
        ],
        ids=lambda f: f.__name__.strip("_"),
    )
    def test_load_rejects(self, tmp_path, mangle):
        path = tmp_path / "t.npz"
        save_trace(record_case("tbs", 16, 4, 15).trace, path)
        _rewrite(path, mangle)
        with pytest.raises(ConfigurationError):
            load_trace(path)
