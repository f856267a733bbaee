"""On-disk formats for compiled traces and recorded schedules.

Both containers are a single ``.npz`` file (numpy's zip format, compressed)
holding the payload arrays plus one ``header`` entry — a JSON string with
the kind tag, format version, matrix names/shapes and, for schedules, the
structural step records.  The split keeps the bulk data binary and compact
while the metadata stays greppable (``python -m repro trace info``).

Two kinds:

``trace``
    the arrays of a :class:`~repro.trace.compiled.CompiledTrace`.  Enough
    to replay (LRU/Belady at any capacity) and to re-derive every count,
    but op objects are gone — ``ops`` is ``None`` after loading.
``schedule``
    a full :class:`~repro.sched.schedule.Schedule`: every load/evict step
    with its region, every compute step as the op's ``name`` plus the
    values of its declared ``params`` (:mod:`repro.sched.ops`; index arrays
    are packed into one shared int64 payload, the rest go into the JSON
    record).  Loading looks the kind up in :data:`~repro.sched.ops.OPS` and
    reconstructs real op objects against a shape-only machine, so a loaded
    schedule replays to bit-identical numerics — recorded runs can be
    shipped to workers or cached between sweeps.

Loading checks what it reads: a trace's array lengths must match its
header and its ids and offsets must be in range; a schedule's index spans
must lie inside the payload and every region must be sorted, duplicate-free
and inside its matrix.  A container that fails raises
:class:`~repro.errors.ConfigurationError` instead of loading a wrong stream
(or crashing a later consumer).
"""

from __future__ import annotations

import json
import os
import threading
from typing import IO, Any

import numpy as np

from ..errors import ConfigurationError
from ..machine.machine import TwoLevelMachine
from ..machine.regions import Region
from ..sched.ops import OPS, ComputeOp
from ..sched.schedule import ComputeStep, EvictStep, LoadStep, Schedule, Step
from .compiled import CompiledTrace

FORMAT_VERSION = 1

def _write_npz(path: str | os.PathLike | IO[bytes], header: dict, arrays: dict) -> None:
    payload = dict(header=np.asarray(json.dumps(header)), **arrays)
    if not isinstance(path, (str, os.PathLike)):
        np.savez_compressed(path, **payload)
        return
    # Atomic for real paths: write a sibling temp file, then os.replace —
    # an interrupted save can never leave a torn container at the
    # destination (the serve store's whole consistency story rests on it).
    # numpy appends ".npz" to extension-less names; normalize the
    # destination the same way so the rename lands where savez would have.
    dest = os.fspath(path)
    if not dest.endswith(".npz"):
        dest += ".npz"
    tmp = f"{dest}.{os.getpid()}.{threading.get_ident()}.tmp.npz"
    try:
        np.savez_compressed(tmp, **payload)
        os.replace(tmp, dest)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _read_npz(
    path: str | os.PathLike | IO[bytes], kind: str
) -> tuple[dict, dict[str, Any]]:
    with np.load(path, allow_pickle=False) as npz:
        try:
            header = json.loads(str(npz["header"][()]))
        except KeyError:
            raise ConfigurationError(
                f"{path}: not a repro {kind} file (no header)"
            ) from None
        if header.get("kind") != kind:
            raise ConfigurationError(
                f"{path}: expected a {kind!r} file, found {header.get('kind')!r}"
            )
        if header.get("version") != FORMAT_VERSION:
            raise ConfigurationError(
                f"{path}: unsupported {kind} format version {header.get('version')!r}"
            )
        # Materialize before the file closes (NpzFile reads lazily).
        arrays = {name: npz[name] for name in npz.files if name != "header"}
    return header, arrays


def file_kind(path: str | os.PathLike) -> str:
    """The kind tag (``"trace"`` or ``"schedule"``) of an ``.npz`` container."""
    with np.load(path, allow_pickle=False) as npz:
        try:
            return json.loads(str(npz["header"][()])).get("kind", "?")
        except KeyError:
            raise ConfigurationError(
                f"{path}: not a repro trace/schedule file"
            ) from None


# ---------------------------------------------------------------------- #
# compiled traces
# ---------------------------------------------------------------------- #
def save_trace(trace: CompiledTrace, path: str | os.PathLike | IO[bytes]) -> None:
    """Write a compiled trace as a compact ``.npz`` + JSON-header container."""
    header = {
        "kind": "trace",
        "version": FORMAT_VERSION,
        "matrices": list(trace.matrices),
        "shapes": {name: list(shape) for name, shape in trace.shapes.items()},
        "n_accesses": trace.n_accesses,
        "n_ops": trace.n_ops,
        "n_elements": trace.n_elements,
    }
    _write_npz(
        path,
        header,
        dict(
            elem_ids=trace.elem_ids,
            is_write=np.packbits(trace.is_write),
            op_starts=trace.op_starts,
            op_read_ends=trace.op_read_ends,
            key_matrix=trace.key_matrix,
            key_flat=trace.key_flat,
        ),
    )


def load_trace(path: str | os.PathLike | IO[bytes]) -> CompiledTrace:
    """Load a trace written by :func:`save_trace` (``ops`` is ``None``)."""
    header, npz = _read_npz(path, "trace")
    n = int(header["n_accesses"])
    n_ops, n_elements = int(header["n_ops"]), int(header["n_elements"])
    matrices = tuple(header["matrices"])
    lengths = {
        "elem_ids": n,
        "is_write": (n + 7) // 8,
        "op_starts": n_ops + 1,
        "op_read_ends": n_ops,
        "key_matrix": n_elements,
        "key_flat": n_elements,
    }
    for name, length in lengths.items():
        if np.shape(npz.get(name)) != (length,):
            raise ConfigurationError(
                f"{path}: {name} has shape {np.shape(npz.get(name))}, "
                f"header says ({length},)"
            )
    ids, starts, ends = npz["elem_ids"], npz["op_starts"], npz["op_read_ends"]
    key_matrix = npz["key_matrix"]
    if not (
        _within(ids, n_elements)
        and _within(key_matrix, len(matrices))
        and starts[0] == 0
        and starts[-1] == n
        and np.all(starts[:-1] <= ends)
        and np.all(ends <= starts[1:])
    ):
        raise ConfigurationError(f"{path}: element ids or op offsets out of range")
    return CompiledTrace(
        matrices=matrices,
        shapes={name: (int(r), int(c)) for name, (r, c) in header["shapes"].items()},
        elem_ids=ids,
        is_write=np.unpackbits(npz["is_write"], count=n).astype(bool),
        op_starts=starts,
        op_read_ends=ends,
        key_matrix=key_matrix,
        key_flat=npz["key_flat"],
        ops=None,
    )


def _within(values: np.ndarray, bound: int) -> bool:
    """All ``values`` lie in ``[0, bound)``."""
    return not values.size or bool(values.min() >= 0 and values.max() < bound)


# ---------------------------------------------------------------------- #
# full schedules
# ---------------------------------------------------------------------- #
def _op_record(op: ComputeOp, chunks: list[np.ndarray], offset: int) -> tuple[dict, int]:
    if OPS.get(op.name) is not type(op):
        raise ConfigurationError(
            f"cannot serialize compute op of type {type(op).__name__}"
        )
    params: dict[str, Any] = {}
    spans = {}
    for f in op.params:
        value = getattr(op, f)
        if isinstance(value, np.ndarray):
            chunks.append(value)
            spans[f] = [offset, offset + int(value.size)]
            offset += int(value.size)
        else:
            params[f] = value
    return {"t": "C", "op": op.name, "p": params, "i": spans}, offset


def save_schedule(schedule: Schedule, path: str | os.PathLike | IO[bytes]) -> None:
    """Write a full schedule (loads, evicts, reconstructible compute ops)."""
    chunks: list[np.ndarray] = []
    offset = 0
    steps: list[dict] = []
    for step in schedule.steps:
        if isinstance(step, (LoadStep, EvictStep)):
            flat = step.region.flat
            chunks.append(flat)
            rec: dict[str, Any] = {
                "t": "E" if isinstance(step, EvictStep) else "L",
                "m": step.region.matrix,
                "i": [offset, offset + int(flat.size)],
            }
            if isinstance(step, EvictStep):
                rec["wb"] = bool(step.writeback)
            offset += int(flat.size)
        elif isinstance(step, ComputeStep):
            rec, offset = _op_record(step.op, chunks, offset)
        else:  # pragma: no cover - defensive
            raise ConfigurationError(f"unknown step type {type(step).__name__}")
        steps.append(rec)
    header = {
        "kind": "schedule",
        "version": FORMAT_VERSION,
        "shapes": {name: list(shape) for name, shape in schedule.shapes.items()},
        "steps": steps,
    }
    index_data = (
        np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.int64)
    )
    _write_npz(path, header, dict(index_data=index_data))


def _shape_machine(shapes: dict[str, tuple[int, int]]) -> TwoLevelMachine:
    """A counting-only machine whose sole job is shape-aware op rebuilding."""
    m = TwoLevelMachine(1, strict=False, numerics=False, check_residency=False)
    for name, (rows, cols) in shapes.items():
        m.add_matrix(name, np.zeros((rows, cols)))
    return m


def load_schedule(path: str | os.PathLike | IO[bytes]) -> Schedule:
    """Load a schedule written by :func:`save_schedule`.

    Compute ops are rebuilt as real op objects against a machine holding
    zero matrices of the recorded shapes, so the loaded schedule can be
    replayed (:func:`~repro.sched.schedule.replay_schedule`) on any machine
    with matching shapes and reproduces the original numerics bit for bit.
    """
    header, npz = _read_npz(path, "schedule")
    shapes = {name: (int(r), int(c)) for name, (r, c) in header["shapes"].items()}
    sizes = {name: rows * cols for name, (rows, cols) in shapes.items()}
    index_data = npz["index_data"]
    if index_data.ndim != 1 or index_data.dtype != np.int64:
        raise ConfigurationError(f"{path}: index payload is not a 1-D int64 array")

    def span(bounds) -> tuple[int, int]:
        start, end = bounds
        if not (type(start) is type(end) is int and 0 <= start <= end <= index_data.size):
            raise ConfigurationError(
                f"{path}: index span {start}:{end} outside the "
                f"{index_data.size}-entry payload"
            )
        return start, end

    m = _shape_machine(shapes)
    steps: list[Step] = []
    slices: list[tuple[int, int]] = []  # load/evict regions, checked below
    for rec in header["steps"]:
        kind = rec["t"]
        if kind in ("L", "E"):
            start, end = span(rec["i"])
            slices.append((start, end))
            region = Region(rec["m"], index_data[start:end])
            step: Step = LoadStep(region) if kind == "L" else EvictStep(region, writeback=bool(rec["wb"]))
            regions: tuple[Region, ...] = (region,)
        elif kind == "C":
            cls = OPS.get(rec["op"])
            if cls is None:
                raise ConfigurationError(f"unknown compute op {rec['op']!r}")
            params = dict(rec["p"])
            for f, bounds in rec["i"].items():
                start, end = span(bounds)
                params[f] = index_data[start:end]
            try:
                op = cls(m, **params)
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigurationError(
                    f"{path}: cannot rebuild {rec['op']!r}: {exc}"
                ) from exc
            step = ComputeStep(op)
            # op constructors emit sorted, duplicate-free regions
            regions = (*op.reads(), *op.writes())
        else:
            raise ConfigurationError(f"unknown step record {kind!r}")
        for region in regions:
            flat = region.flat
            if flat.size and (flat[0] < 0 or flat[-1] >= sizes.get(region.matrix, 0)):
                raise ConfigurationError(
                    f"{path}: a region of {region.matrix!r} lies outside the matrix"
                )
        steps.append(step)
    if not _strictly_increasing_slices(index_data, slices):
        raise ConfigurationError(
            f"{path}: a load/evict region is unsorted or has duplicates"
        )
    return Schedule(steps=steps, shapes=shapes)


def _strictly_increasing_slices(data: np.ndarray, slices: list[tuple[int, int]]) -> bool:
    """Is every ``data[start:end]`` strictly increasing?  One pass over ``data``."""
    if not slices:
        return True
    start, end = np.asarray(slices, dtype=np.int64).T
    # drops[i]: non-increasing neighbour pairs (j, j+1) with j < i
    drops = np.concatenate(([0], np.cumsum(data[1:] <= data[:-1])))
    keep = end > start
    return np.array_equal(drops[end[keep] - 1], drops[start[keep]])
