"""The op-kind declarations: registry, container format pin, region oracle.

Every compute-op kind is one class in :mod:`repro.sched.ops`; the schedule
container (:mod:`repro.trace.io`) and the dependency graph read its
``name``/``params``/``commutes`` from there.  These tests pin that

* the on-disk step records and index payload of small recorded schedules
  that use all nine kinds are exactly what format version 1 wrote before
  the declarations moved into the op classes;
* every op's regions equal a direct ``np.unique(r * ncols + c)`` oracle
  over random (sorted, unsorted, single-element) row and column sets;
* the registry and ``params`` round-trip every kind through
  ``save_schedule``/``load_schedule``.
"""

from __future__ import annotations

import hashlib
import inspect
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import TwoLevelMachine
from repro.baselines.lu import ooc_lu
from repro.graph.compare import record_case
from repro.sched.ops import (
    OPS,
    CholFactorResident,
    GemmOuterUpdate,
    LuFactorResident,
    OuterColsUpdate,
    TriangleCrossUpdate,
    TriangleUpdate,
    TrsmSolveStep,
    UnitLowerSolveStep,
    UpperSolveStep,
)
from repro.sched.schedule import ComputeStep, Schedule, record_schedule
from repro.trace.io import load_schedule, save_schedule

KINDS = {
    "outer_cols": OuterColsUpdate,
    "triangle_update": TriangleUpdate,
    "triangle_cross_update": TriangleCrossUpdate,
    "gemm_outer": GemmOuterUpdate,
    "trsm_solve_step": TrsmSolveStep,
    "upper_solve_step": UpperSolveStep,
    "unit_lower_solve_step": UnitLowerSolveStep,
    "chol_factor_resident": CholFactorResident,
    "lu_factor_resident": LuFactorResident,
}
COMMUTING = {"outer_cols", "triangle_update", "triangle_cross_update", "gemm_outer"}


class TestRegistry:
    def test_every_kind_registered_once(self):
        assert OPS == KINDS

    def test_params_are_the_constructor_arguments(self):
        for cls in OPS.values():
            names = list(inspect.signature(cls.__init__).parameters)
            assert tuple(names[2:]) == cls.params, cls.name  # after self, m

    def test_commutes_flag(self):
        assert {name for name, cls in OPS.items() if cls.commutes} == COMMUTING


# --------------------------------------------------------------------- #
# format pin: header step records and payload as written by format 1
# --------------------------------------------------------------------- #
def _lu_schedule() -> Schedule:
    m = TwoLevelMachine(15, strict=False, numerics=False)
    m.add_matrix("A", np.zeros((8, 8)))
    return record_schedule(m, lambda: ooc_lu(m, "A", range(8)))


PIN_CASES = {
    "tbs": lambda: record_case("tbs", 8, 2, 15).schedule,
    "syr2k": lambda: record_case("syr2k", 8, 2, 15).schedule,
    "chol": lambda: record_case("chol", 8, 2, 15).schedule,
    "lu": _lu_schedule,
}

#: per case: compute records, SHA-256 of the JSON step list, SHA-256 of
#: ``index_data``, and the first record of each op kind verbatim (key order
#: included).
PINS = {
    "tbs": (
        12,
        "c4763e653e4b26e2bc19384ed2daf674ac45ab00f1b10e3a217a8c39ffb441a3",
        "ae8959858131ff001ff1c27685c718ea942aa1640d306ee7ba4a63effd05aadc",
        [
            '{"t": "C", "op": "triangle_update", "p": {"c": "C", "a": "A", "k": 0, "sign": 1.0, "include_diagonal": true}, "i": {"R": [9, 12]}}',
            '{"t": "C", "op": "outer_cols", "p": {"c": "C", "a": "A", "b": "A", "ka": 0, "kb": 0, "sign": 1.0}, "i": {"I": [75, 78], "J": [78, 81]}}',
        ],
    ),
    "syr2k": (
        32,
        "b32fa736b8cc0e932f5edc9757ebfd2494023676f4a73ffb9f174b8336a992ed",
        "c5e84facbad22dfa84273321f214c1d0083a133d6691459d392142d863fee3f2",
        [
            '{"t": "C", "op": "triangle_cross_update", "p": {"c": "C", "a": "A", "b": "B", "k": 0, "sign": 1.0, "include_diagonal": true}, "i": {"R": [7, 9]}}',
            '{"t": "C", "op": "outer_cols", "p": {"c": "C", "a": "A", "b": "B", "ka": 0, "kb": 0, "sign": 1.0}, "i": {"I": [64, 66], "J": [66, 68]}}',
        ],
    ),
    "chol": (
        24,
        "e1df49f3ad01a1796fc2aec6ea7294b307a5271e6c01b726510248746286e4a1",
        "e30ccc398ad5b590720585c26802c5ab5613dfcc70022fa85a7f2bb3a3d15c22",
        [
            '{"t": "C", "op": "chol_factor_resident", "p": {"a": "A"}, "i": {"R": [6, 9]}}',
            '{"t": "C", "op": "trsm_solve_step", "p": {"x": "A", "l": "A", "t": 0}, "i": {"I": [25, 28], "Jcols": [28, 31]}}',
            '{"t": "C", "op": "triangle_update", "p": {"c": "A", "a": "A", "k": 0, "sign": -1.0, "include_diagonal": true}, "i": {"R": [111, 114]}}',
            '{"t": "C", "op": "outer_cols", "p": {"c": "A", "a": "A", "b": "A", "ka": 0, "kb": 0, "sign": -1.0}, "i": {"I": [155, 157], "J": [157, 160]}}',
        ],
    ),
    "lu": (
        36,
        "8fdd53267327f9e15aa0eb2092740b89a63db762ef7c827f3efeb3cf28b9327d",
        "25da7ccd9d2698c6f5be1353ad2c8d897dc7e54c2bd1f98f77a9c94a9685b19f",
        [
            '{"t": "C", "op": "lu_factor_resident", "p": {"a": "A"}, "i": {"R": [9, 12]}}',
            '{"t": "C", "op": "upper_solve_step", "p": {"x": "A", "u": "A", "t": 0}, "i": {"I": [31, 34], "Jcols": [34, 37]}}',
            '{"t": "C", "op": "unit_lower_solve_step", "p": {"x": "A", "l": "A", "t": 0}, "i": {"Irows": [117, 120], "J": [120, 123]}}',
            '{"t": "C", "op": "gemm_outer", "p": {"c": "A", "a": "A", "b": "A", "k": 0, "sign": -1.0}, "i": {"I": [165, 168], "J": [168, 171]}}',
        ],
    ),
}


def _container(schedule: Schedule) -> tuple[dict, np.ndarray]:
    buf = io.BytesIO()
    save_schedule(schedule, buf)
    buf.seek(0)
    with np.load(buf, allow_pickle=False) as npz:
        return json.loads(str(npz["header"][()])), npz["index_data"]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("case", sorted(PIN_CASES))
def test_container_format_pinned(case):
    header, index_data = _container(PIN_CASES[case]())
    n_compute, steps_sha, index_sha, firsts = PINS[case]
    compute = [rec for rec in header["steps"] if rec["t"] == "C"]
    assert header["version"] == 1
    assert len(compute) == n_compute
    first_of_kind = {}
    for rec in compute:
        first_of_kind.setdefault(rec["op"], json.dumps(rec))
    assert list(first_of_kind.values()) == firsts
    assert _sha(json.dumps(header["steps"]).encode()) == steps_sha
    assert index_data.dtype == np.int64
    assert _sha(index_data.tobytes()) == index_sha


def test_pin_cases_cover_every_kind():
    kinds = {json.loads(rec)["op"] for *_, firsts in PINS.values() for rec in firsts}
    assert kinds == set(OPS)


# --------------------------------------------------------------------- #
# region oracle
# --------------------------------------------------------------------- #
SHAPES = {"A": (10, 4), "B": (10, 4), "C": (10, 10), "X": (9, 8), "L": (9, 9)}


def _machine() -> TwoLevelMachine:
    m = TwoLevelMachine(1, strict=False, numerics=False, check_residency=False)
    for name, shape in SHAPES.items():
        m.add_matrix(name, np.zeros(shape))
    return m


def oracle(matrix, rows, cols):
    """``(matrix, np.unique(r * ncols + c))`` over all pairs of ``rows x cols``."""
    r, c = np.meshgrid(np.atleast_1d(rows), np.atleast_1d(cols), indexing="ij")
    return matrix, np.unique(r.ravel() * SHAPES[matrix][1] + c.ravel())


def pairs_oracle(matrix, R, diagonal):
    R = np.asarray(R)
    r, c = np.meshgrid(R, R, indexing="ij")
    keep = r >= c if diagonal else r > c
    return matrix, np.unique(r[keep] * SHAPES[matrix][1] + c[keep])


def index_set(n):
    """Distinct indices below ``n``: single, sorted or in random order."""
    return st.tuples(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True),
        st.booleans(),
    ).map(lambda t: sorted(t[0]) if t[1] else t[0])


def build(kind, d):
    """The op of ``kind`` over drawn index sets, and its expected regions."""
    I, J, R, k, sign, diag = d["I"], d["J"], d["R"], d["k"], d["sign"], d["diag"]
    if kind == "outer_cols":
        op = OuterColsUpdate(_machine(), "C", "A", "B", I, J, k, 3 - k, sign)
        c = oracle("C", I, J)
        return op, [oracle("A", I, k), oracle("B", J, 3 - k), c], [c]
    if kind == "gemm_outer":
        op = GemmOuterUpdate(_machine(), "C", "A", "C", I, d["Jc"], k, sign)
        c = oracle("C", I, d["Jc"])
        return op, [oracle("A", I, k), oracle("C", k, d["Jc"]), c], [c]
    if kind == "triangle_update":
        op = TriangleUpdate(_machine(), "C", "A", R, k, sign, diag)
        c = pairs_oracle("C", R, diag)
        return op, [oracle("A", R, k), c], [c]
    if kind == "triangle_cross_update":
        op = TriangleCrossUpdate(_machine(), "C", "A", "B", R, k, sign, diag)
        c = pairs_oracle("C", R, diag)
        return op, [oracle("A", R, k), oracle("B", R, k), c], [c]
    cols, t = d["cols"], d["t"] % len(d["cols"])
    head, jt = cols[: t + 1], cols[t]
    if kind == "trsm_solve_step":
        op = TrsmSolveStep(_machine(), "X", "L", d["rows"], cols, t)
        return op, [oracle("X", d["rows"], head), oracle("L", jt, head)], [oracle("X", d["rows"], jt)]
    if kind == "upper_solve_step":
        op = UpperSolveStep(_machine(), "X", "L", d["rows"], cols, t)
        return op, [oracle("X", d["rows"], head), oracle("L", head, jt)], [oracle("X", d["rows"], jt)]
    if kind == "unit_lower_solve_step":
        rows, t = d["rows"], d["t"] % len(d["rows"])
        op = UnitLowerSolveStep(_machine(), "X", "L", rows, cols, t)
        reads = [oracle("X", rows[: t + 1], cols)] + ([oracle("L", rows[t], rows[:t])] if t else [])
        return op, reads, [oracle("X", rows[t], cols)]
    if kind == "chol_factor_resident":
        op = CholFactorResident(_machine(), "C", R)
        return op, [pairs_oracle("C", R, True)], [pairs_oracle("C", R, True)]
    op = LuFactorResident(_machine(), "C", R)
    return op, [oracle("C", R, R)], [oracle("C", R, R)]


def draws():
    return st.fixed_dictionaries(
        {
            "I": index_set(10),
            "J": index_set(10),
            "Jc": index_set(4),
            "R": index_set(10),
            "rows": index_set(9),
            "cols": index_set(8),
            "k": st.integers(0, 3),
            "t": st.integers(0, 8),
            "sign": st.sampled_from([1.0, -1.0, 0.5]),
            "diag": st.booleans(),
        }
    )


def _regions(regions):
    return [(r.matrix, r.flat.tolist()) for r in regions]


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(sorted(OPS)), d=draws())
def test_regions_match_oracle(kind, d):
    op, reads, writes = build(kind, d)
    assert _regions(op.reads()) == [(m, f.tolist()) for m, f in reads]
    assert _regions(op.writes()) == [(m, f.tolist()) for m, f in writes]
    if op.commutes:
        assert op.reads()[-1] is op.writes()[0]  # one accumulator Region


@settings(max_examples=25, deadline=None)
@given(d=draws())
def test_every_kind_round_trips_through_the_container(d):
    ops = [build(kind, d)[0] for kind in sorted(OPS)]
    schedule = Schedule(steps=[ComputeStep(op) for op in ops], shapes=dict(SHAPES))
    buf = io.BytesIO()
    save_schedule(schedule, buf)
    buf.seek(0)
    loaded = [step.op for step in load_schedule(buf).steps]
    for op, back in zip(ops, loaded):
        assert type(back) is type(op)
        for f in op.params:
            assert np.array_equal(getattr(back, f), getattr(op, f)), (op.name, f)
        assert _regions(back.reads()) == _regions(op.reads())
        assert _regions(back.writes()) == _regions(op.writes())
        assert (back.mults, back.flops) == (op.mults, op.flops)
