"""Compute ops: the vectorized units of work schedules execute on the machine.

Every op declares the regions it reads and writes (the machine asserts these
are resident — Section 3 of the paper: "an operation can only be performed
if the corresponding input data is in fast memory") and knows how to apply
itself numerically to the machine's workspace arrays.  Ops never touch
elements outside their declared regions: in strict mode everything else is
NaN-poisoned, so a sloppy ``apply`` would corrupt verification.

The op granularities match the paper's algorithms:

* :class:`OuterColsUpdate` — rank-1 tile update ``C[I,J] += s * A[I,ka] (x) B[J,kb]``,
  the inner step of OOC_SYRK (square tiles), tiled TBS, OOC_TRSM and
  OOC_CHOL panel updates (with ``s = -1``);
* :class:`TriangleUpdate` — the triangle-block update of TBS (Algorithm 4's
  two inner loops, vectorized): ``C[r,r'] += s * A[r,k] A[r',k]`` over pairs
  ``r > r'`` (or ``r >= r'`` on diagonal tiles) of a row set ``R``;
* :class:`GemmOuterUpdate` — ``C[I,J] += s * A[I,k] (x) B[k,J]`` (row-segment
  second operand) for the out-of-core LU baseline;
* :class:`TrsmSolveStep` — one column of a right-triangular solve against a
  streamed row of the triangular tile (the narrow-block trick that lets the
  one-tile algorithms avoid holding two tiles);
* :class:`CholFactorResident` — in-place Cholesky of a fully resident
  diagonal tile (zero I/O, as in the model: resident work is free).

Each op kind is one class here and nothing else: its ``name`` (the tag the
schedule container writes), its ``params`` (the constructor arguments after
the machine, in order — what :mod:`repro.trace.io` serializes), its
``commutes`` flag (pure ``+=`` accumulations, which
:mod:`repro.graph.dependency` may reorder) and the regions it stores once
for :meth:`ComputeOp.reads` / :meth:`ComputeOp.writes`.  Defining a class
with a ``name`` registers it in :data:`OPS`.

Flop accounting follows the element-op convention so that blocked and
element-level schedules report identical work: a multiply-add is 1 mult /
2 flops, a division 1 mult / 1 flop, a square root 0 mults / 1 flop.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from ..kernels.flops import cholesky_flops, cholesky_mults, lu_flops, lu_mults
from ..kernels.reference import cholesky_lower_in_place, lu_nopivot_in_place
from ..machine.machine import TwoLevelMachine
from ..machine.regions import Region, lower_pairs
from ..utils.intervals import as_index_array, is_strictly_increasing

#: ``name -> class`` of every op kind (filled as the classes are defined).
OPS: dict[str, type["ComputeOp"]] = {}


class ComputeOp:
    """Base class: declared parameters and regions, numeric apply, work counts."""

    name: str = "compute"
    #: constructor arguments after the machine, in order; index arrays among
    #: them are ``np.ndarray`` attributes, the rest JSON scalars or names.
    params: tuple[str, ...] = ()
    #: a pure ``+=`` accumulation whose contribution does not read the
    #: accumulator, so any two such ops commute on shared output elements
    #: (up to FP reassociation).
    commutes: bool = False
    mults: int = 0
    flops: int = 0
    _reads: tuple[Region, ...] = ()
    _writes: tuple[Region, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "name" in vars(cls):
            OPS[cls.name] = cls

    def reads(self) -> tuple[Region, ...]:
        return self._reads

    def writes(self) -> tuple[Region, ...]:
        return self._writes

    def apply(self, m: TwoLevelMachine) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class _Accumulation(ComputeOp):
    """``target += contribution`` of source regions; reads sources then target."""

    commutes = True

    def _accumulate(self, target: Region, *sources: Region) -> None:
        # one Region object for the accumulator's read and write: the
        # certifier folds the read into the write by identity
        self._reads = (*sources, target)
        self._writes = (target,)


class _OuterUpdate(_Accumulation):
    """``C[I, J] += sign * outer(A[I, ka], B[b_at])`` — the rank-1 tile update.

    Subclasses pass where the streamed ``B`` vector lives (``b_at`` indexes
    ``B``'s workspace) and its region.
    """

    def __init__(self, m, c, a, b, I, J, ka: int, sign: float, b_at, b_region: Region):
        self.c, self.a, self.b = c, a, b
        self.I = as_index_array(I)
        self.J = as_index_array(J)
        self.sign = float(sign)
        self._a_at, self._b_at = (self.I, ka), b_at
        self._accumulate(m.tile(c, self.I, self.J), m.column_segment(a, self.I, ka), b_region)
        self.mults = int(self.I.size * self.J.size)
        self.flops = 2 * self.mults

    def apply(self, m: TwoLevelMachine) -> None:
        u = m.workspace(self.a)[self._a_at]
        v = m.workspace(self.b)[self._b_at]
        m.workspace(self.c)[np.ix_(self.I, self.J)] += self.sign * np.outer(u, v)


class OuterColsUpdate(_OuterUpdate):
    """``C[I, J] += sign * outer(A[I, ka], B[J, kb])``.

    Both streamed operands are *column* segments; ``A`` and ``B`` may be the
    same matrix (SYRK: ``B = A`` and ``ka = kb``; use
    :func:`syrk_outer_update`).  This is the inner step of every square-tile
    schedule in the library.
    """

    name = "outer_cols"
    params = ("c", "a", "b", "I", "J", "ka", "kb", "sign")

    def __init__(self, m: TwoLevelMachine, c: str, a: str, b: str, I, J, ka: int, kb: int, sign: float = 1.0):
        self.ka, self.kb = int(ka), int(kb)
        J = as_index_array(J)
        super().__init__(m, c, a, b, I, J, self.ka, sign, (J, self.kb), m.column_segment(b, J, self.kb))


def syrk_outer_update(m: TwoLevelMachine, c: str, a: str, I, J, k: int, sign: float = 1.0) -> OuterColsUpdate:
    """SYRK rank-1 tile update ``C[I,J] += sign * A[I,k] (x) A[J,k]``."""
    return OuterColsUpdate(m, c, a, a, I, J, k, k, sign)


class GemmOuterUpdate(_OuterUpdate):
    """``C[I, J] += sign * outer(A[I, k], B[k, J])`` (row-segment second operand).

    The inner step of the out-of-core LU baseline, where the trailing update
    streams a column of ``L`` and a row of ``U``.
    """

    name = "gemm_outer"
    params = ("c", "a", "b", "I", "J", "k", "sign")

    def __init__(self, m: TwoLevelMachine, c: str, a: str, b: str, I, J, k: int, sign: float = 1.0):
        self.k = int(k)
        J = as_index_array(J)
        super().__init__(m, c, a, b, I, J, self.k, sign, (self.k, J), m.row_segment(b, self.k, J))


class _TriangleBlockUpdate(_Accumulation):
    """``C`` over the lower pairs of a row set ``R``, one column-``k`` segment per source."""

    def __init__(self, m, c, sources: tuple[str, ...], R, k: int, sign: float, include_diagonal: bool):
        self.c = c
        self.R = np.sort(as_index_array(R))
        if not is_strictly_increasing(self.R):
            raise ConfigurationError(f"{type(self).__name__} row set R must be duplicate-free")
        self.k = int(k)
        self.sign = float(sign)
        self.include_diagonal = bool(include_diagonal)
        target, self._il, self._jl, self._target_flat = lower_pairs(
            c, self.R, m.ncols(c), diagonal=self.include_diagonal
        )
        self._accumulate(target, *(m.column_segment(s, self.R, self.k) for s in sources))
        self.mults = len(sources) * int(self._il.size)
        self.flops = 2 * self.mults


class TriangleUpdate(_TriangleBlockUpdate):
    """Triangle-block update over a (possibly scattered) row set ``R``.

    ``C[r, r'] += sign * A[r, k] * A[r', k]`` for all pairs ``r > r'`` of
    ``R`` (``r >= r'`` when ``include_diagonal``).  With scattered ``R``
    this is exactly the TBS block update (one element per square zone); with
    contiguous ``R`` it is the diagonal-tile update of OOC_SYRK.

    Work: ``|R|(|R|-1)/2`` (+``|R|`` with diagonal) multiply-adds, i.e. one
    multiply and two flops each — identical to executing Algorithm 4's two
    inner loops element by element.
    """

    name = "triangle_update"
    params = ("c", "a", "R", "k", "sign", "include_diagonal")

    def __init__(self, m: TwoLevelMachine, c: str, a: str, R, k: int, sign: float = 1.0, include_diagonal: bool = False):
        self.a = a
        super().__init__(m, c, (a,), R, k, sign, include_diagonal)

    def apply(self, m: TwoLevelMachine) -> None:
        v = m.workspace(self.a)[self.R, self.k]
        contrib = self.sign * v[self._il] * v[self._jl]
        m.workspace(self.c).ravel()[self._target_flat] += contrib


class TriangleCrossUpdate(_TriangleBlockUpdate):
    """Triangle-block SYR2K update over a row set ``R``.

    ``C[r, r'] += sign * (A[r, k] B[r', k] + B[r, k] A[r', k])`` for pairs
    ``r > r'`` of ``R`` (with ``r = r'`` included on diagonal tiles, where
    the update degenerates to ``2 A[r,k] B[r,k]``).  This is the SYR2K
    analogue of :class:`TriangleUpdate` — the extension the paper's
    conclusion gestures at ("other kernels which use the same input several
    times"): one load of ``A[R,k]`` and ``B[R,k]`` feeds ``|R|(|R|-1)/2``
    two-multiply updates.

    Work convention: 2 multiplies / 4 flops per pair (two multiply-adds).
    """

    name = "triangle_cross_update"
    params = ("c", "a", "b", "R", "k", "sign", "include_diagonal")

    def __init__(self, m: TwoLevelMachine, c: str, a: str, b: str, R, k: int, sign: float = 1.0, include_diagonal: bool = False):
        self.a, self.b = a, b
        super().__init__(m, c, (a, b), R, k, sign, include_diagonal)

    def apply(self, m: TwoLevelMachine) -> None:
        u = m.workspace(self.a)[self.R, self.k]
        v = m.workspace(self.b)[self.R, self.k]
        contrib = self.sign * (u[self._il] * v[self._jl] + v[self._il] * u[self._jl])
        m.workspace(self.c).ravel()[self._target_flat] += contrib


class _ColumnSolveStep(ComputeOp):
    """``X[I, J[t]] = (X[I, J[t]] - X[I, J[:t]] @ T[:-1]) / T[-1]`` for a streamed vector ``T``.

    ``T`` holds the ``t + 1`` entries of the triangular matrix ``tri`` that
    column ``J[t]`` depends on, diagonal last; subclasses say where it lies
    (:meth:`_streamed`).  ``t`` multiply-adds per row for the dot product,
    plus one division.
    """

    def __init__(self, m, x, tri, I, Jcols, t: int):
        self.x, self._tri = x, tri
        self.I = as_index_array(I)
        self.Jcols = as_index_array(Jcols)
        self.t = int(t)
        if not (0 <= self.t < self.Jcols.size):
            raise ConfigurationError(f"solve step t={t} out of range for {self.Jcols.size} columns")
        jt, head = int(self.Jcols[self.t]), self.Jcols[: self.t + 1]
        t_region, self._t_at = self._streamed(m, jt, head)
        self._reads = (m.tile(x, self.I, head), t_region)
        self._writes = (m.column_segment(x, self.I, jt),)
        self.mults = int(self.I.size * (self.t + 1))
        self.flops = int(self.I.size * (2 * self.t + 1))

    def apply(self, m: TwoLevelMachine) -> None:
        xw = m.workspace(self.x)
        tvec = m.workspace(self._tri)[self._t_at]
        jt = int(self.Jcols[self.t])
        acc = xw[np.ix_(self.I, self.Jcols[: self.t])] @ tvec[:-1]
        xw[self.I, jt] = (xw[self.I, jt] - acc) / tvec[-1]


class TrsmSolveStep(_ColumnSolveStep):
    """One column of the in-tile right-triangular solve ``X Lᵀ = X``.

    With the tile ``X[I, Jcols]`` resident and its columns ``Jcols[:t]``
    already solved, compute column ``t``::

        X[I, J[t]] = (X[I, J[t]] - X[I, J[:t]] @ L[J[t], J[:t]]) / L[J[t], J[t]]

    reading the streamed row segment ``L[J[t], J[:t+1]]``.  This is the
    narrow-block trick of the one-tile OOC_TRSM / OOC_CHOL variants: the
    triangular tile is never held whole, only one row at a time
    (``s(s+1)/2`` extra traffic per tile — a lower-order term).
    """

    name = "trsm_solve_step"
    params = ("x", "l", "I", "Jcols", "t")

    def __init__(self, m: TwoLevelMachine, x: str, l: str, I, Jcols, t: int):
        self.l = l
        super().__init__(m, x, l, I, Jcols, t)

    def _streamed(self, m, jt, head):
        return m.row_segment(self.l, jt, head), (jt, head)


class UpperSolveStep(_ColumnSolveStep):
    """One column of the in-tile solve ``X U = X`` (``U`` upper triangular).

    With the tile ``X[I, Jcols]`` resident and columns ``Jcols[:t]`` solved::

        X[I, J[t]] = (X[I, J[t]] - X[I, J[:t]] @ U[J[:t], J[t]]) / U[J[t], J[t]]

    streaming the *column* segment ``U[J[:t+1], J[t]]``.  Used by the
    out-of-core LU baseline to scale sub-diagonal panels into ``L``.
    """

    name = "upper_solve_step"
    params = ("x", "u", "I", "Jcols", "t")

    def __init__(self, m: TwoLevelMachine, x: str, u: str, I, Jcols, t: int):
        self.u = u
        super().__init__(m, x, u, I, Jcols, t)

    def _streamed(self, m, jt, head):
        return m.column_segment(self.u, head, jt), (head, jt)


class UnitLowerSolveStep(ComputeOp):
    """One row of the in-tile solve ``L X = X`` (``L`` unit lower triangular).

    With the tile ``X[Irows, J]`` resident and rows ``Irows[:t]`` solved::

        X[I[t], J] = X[I[t], J] - L[I[t], I[:t]] @ X[I[:t], J]

    streaming the row segment ``L[I[t], I[:t]]`` (the unit diagonal needs no
    division and no load).  Used by the LU baseline's above-diagonal tiles.
    """

    name = "unit_lower_solve_step"
    params = ("x", "l", "Irows", "J", "t")

    def __init__(self, m: TwoLevelMachine, x: str, l: str, Irows, J, t: int):
        self.x, self.l = x, l
        self.Irows = as_index_array(Irows)
        self.J = as_index_array(J)
        self.t = int(t)
        if not (0 <= self.t < self.Irows.size):
            raise ConfigurationError(f"solve step t={t} out of range for {self.Irows.size} rows")
        it, prev = int(self.Irows[self.t]), self.Irows[: self.t]
        # row 0 is already final (unit diagonal): it streams no L entries
        l_row = (m.row_segment(l, it, prev),) if self.t else ()
        self._reads = (m.tile(x, self.Irows[: self.t + 1], self.J), *l_row)
        self._writes = (m.row_segment(x, it, self.J),)
        self.mults = int(self.J.size * self.t)
        self.flops = int(self.J.size * 2 * self.t)

    def apply(self, m: TwoLevelMachine) -> None:
        if not self.t:
            return
        xw = m.workspace(self.x)
        it = int(self.Irows[self.t])
        prev = self.Irows[: self.t]
        lrow = m.workspace(self.l)[it, prev]
        xw[it, self.J] = xw[it, self.J] - lrow @ xw[np.ix_(prev, self.J)]


class _ResidentFactor(ComputeOp):
    """In-place factorization of resident elements of the tile ``A[R, R]``.

    Gathers the tile entries ``(il, jl)`` that :meth:`_elements` names,
    factors them with ``kernel`` and scatters the result back over the same
    elements.  Zero I/O — resident work is free in the model.
    """

    params = ("a", "R")

    def __init__(self, m, a: str, R):
        self.a = a
        self.R = np.sort(as_index_array(R))
        region, self._il, self._jl, self._flat = self._elements(m)
        self._reads = self._writes = (region,)
        self.mults, self.flops = (count(self.R.size) for count in self.work)

    def apply(self, m: TwoLevelMachine) -> None:
        flat_ws = m.workspace(self.a).ravel()
        n = self.R.size
        tile = np.zeros((n, n), dtype=np.float64)
        tile[self._il, self._jl] = flat_ws[self._flat]
        self.kernel(tile)
        flat_ws[self._flat] = tile[self._il, self._jl]


class CholFactorResident(_ResidentFactor):
    """In-place Cholesky of the resident lower triangle of ``A[R, R]``.

    The tile (including its diagonal) must be resident; the op gathers the
    lower triangle, factors it with the library's reference kernel, and
    scatters the factor back over the same elements.  It performs zero I/O —
    resident work is free in the model — which is why OOC_CHOL's diagonal
    factorizations contribute only lower-order traffic.
    """

    name = "chol_factor_resident"
    kernel = staticmethod(cholesky_lower_in_place)
    work = (cholesky_mults, cholesky_flops)

    def _elements(self, m):
        return lower_pairs(self.a, self.R, m.ncols(self.a), diagonal=True)


class LuFactorResident(_ResidentFactor):
    """In-place LU (no pivoting) of the fully resident square tile ``A[R, R]``.

    Zero I/O, like :class:`CholFactorResident`; the tile afterwards holds
    ``L`` strictly below the diagonal (unit diagonal implicit) and ``U`` on
    and above it.
    """

    name = "lu_factor_resident"
    kernel = staticmethod(lu_nopivot_in_place)
    work = (lu_mults, lu_flops)

    def _elements(self, m):
        il, jl = np.divmod(np.arange(self.R.size**2), self.R.size)
        flat = self.R[il] * np.int64(m.ncols(self.a)) + self.R[jl]
        return m.tile(self.a, self.R, self.R), il, jl, flat
