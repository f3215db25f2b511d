"""Construction, validation and recovery of block Kronecker pencils, and
the lift of right null vectors by a block recurrence.

An ``(eps, n, eta, m)``-block Kronecker pencil consists of an arbitrary
``(eta+1)m x (eps+1)n`` pencil ``M0 + lambda*M1`` in the (1,1) block, the
fixed singular blocks ``L_eta^T (x) I_m`` and ``L_eps (x) I_n`` on the
antidiagonal, and a zero (2,2) block.  It represents the polynomial

    ``(Lambda_eta^T (x) I_m) (M0 + lambda*M1) (Lambda_eps (x) I_n)``

of grade ``eps + eta + 1``, and its minimal indices are those of the
polynomial shifted by ``eps`` (right) and ``eta`` (left).  No structural
block is formed as a Kronecker product, nor is any completion of ``L_k``.
"""

from __future__ import annotations

import numpy as np

from .errors import GradeError, PlacementError, ShapeError
from .matpoly import (MatrixPolynomial, Pencil, build_Lambda, multiply,
                      pair_norm, _divide, _frobenius, _json_count,
                      _json_fields, _matrix_from_json, _matrix_to_json, _pad,
                      _stack_product)
from .tolerances import _require_finite

PLACEMENTS = ("frobenius1", "frobenius2", "hook")


def split_for_placement(placement: str, d: int, epsilon=None, eta=None):
    """The ``(eps, eta)`` pair a placement uses at grade ``d``.

    ``frobenius1`` names the split ``(d-1, 0)`` and ``frobenius2`` the split
    ``(0, d-1)``; ``hook`` takes any split and is balanced by default.  A
    given ``epsilon`` or ``eta`` fixes the split, the other side following
    from ``eps + eta + 1 = d``.  A tag outside :data:`PLACEMENTS`, or a
    Frobenius tag given another split, raises :class:`PlacementError`, and
    a split with a negative side :class:`ShapeError`.
    """
    if placement not in PLACEMENTS:
        raise PlacementError(f"unknown placement tag {placement!r}")
    if placement == "frobenius1":
        split, rule = (d - 1, 0), "eta = 0 and eps = d - 1"
    elif placement == "frobenius2":
        split, rule = (0, d - 1), "eps = 0 and eta = d - 1"
    else:
        split, rule = (d // 2, d - 1 - d // 2), None
    eps, et = split
    if epsilon is not None or eta is not None:
        eps = int(epsilon) if epsilon is not None else d - 1 - int(eta)
        et = int(eta) if eta is not None else d - 1 - eps
    if eps < 0 or et < 0:
        raise ShapeError(f"need eps, eta >= 0, got eps = {eps}, eta = {et}")
    if rule is not None and (eps, et) != split:
        raise PlacementError(f"{placement} requires {rule}")
    return eps, et


class BlockKroneckerPencil:
    """The data ``(eps, eta, m, n, M0, M1)`` plus exact assembly."""

    def __init__(self, M0, M1, eps: int, eta: int, m: int, n: int):
        if eps < 0 or eta < 0 or m < 1 or n < 1:
            raise ShapeError("need eps, eta >= 0 and m, n >= 1")
        self._one_one = Pencil([M0, M1])
        want = ((eta + 1) * m, (eps + 1) * n)
        if self._one_one.shape != want:
            raise ShapeError(f"M0/M1 must be {want}, got {self._one_one.shape}")
        _require_finite(self._one_one.coeff_stack)
        self.M0, self.M1 = self._one_one.M0, self._one_one.M1
        self.eps, self.eta, self.m, self.n = eps, eta, m, n
        self._one_one_norm = None

    @property
    def grade(self) -> int:
        return self.eps + self.eta + 1

    @property
    def shape(self) -> tuple[int, int]:
        return ((self.eta + 1) * self.m + self.eps * self.n,
                (self.eps + 1) * self.n + self.eta * self.m)

    def one_one_block(self) -> Pencil:
        return self._one_one

    def assemble(self) -> Pencil:
        """Full pencil with the units of the L blocks placed by index and an
        exact zero (2,2) block."""
        r1 = (self.eta + 1) * self.m
        c1 = (self.eps + 1) * self.n
        S = np.zeros((2,) + self.shape, dtype=complex)
        S[:, :r1, :c1] = self._one_one.coeff_stack
        # L_eta^T (x) I_m: -1 at (i, c1 + i), lambda at (i + m, c1 + i)
        i = np.arange(self.eta * self.m)
        S[0, i, c1 + i] = -1.0
        S[1, i + self.m, c1 + i] = 1.0
        # L_eps (x) I_n: -1 at (r1 + j, j), lambda at (r1 + j, j + n)
        j = np.arange(self.eps * self.n)
        S[0, r1 + j, j] = -1.0
        S[1, r1 + j, j + self.n] = 1.0
        return Pencil(S)

    def frobenius_norm(self) -> float:
        """``||assemble()||_F`` without assembling: ``L_k (x) I_p`` has
        ``2kp`` unit entries."""
        return float(np.hypot(self.one_one_norm(),
                              np.sqrt(2.0 * (self.eps * self.n + self.eta * self.m))))

    def one_one_norm(self) -> float:
        """``||M0 + lambda*M1||_F``, taken once: the blocks are read-only."""
        if self._one_one_norm is None:
            self._one_one_norm = pair_norm(self.M0, self.M1)
        return self._one_one_norm

    def to_json(self) -> dict:
        return {
            "epsilon": self.eps,
            "eta": self.eta,
            "m": self.m,
            "n": self.n,
            "M0": _matrix_to_json(self.M0),
            "M1": _matrix_to_json(self.M1),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "BlockKroneckerPencil":
        """The pencil of :meth:`to_json`; any other value raises
        :class:`ShapeError`."""
        keys = ("epsilon", "eta", "m", "n")
        *sizes, M0, M1 = _json_fields(obj, "a block Kronecker pencil",
                                      *keys, "M0", "M1")
        eps, eta, m, n = (_json_count(v, repr(k))
                          for v, k in zip(sizes, keys))
        rows, cols = (eta + 1) * m, (eps + 1) * n
        return cls(_matrix_from_json(M0, rows, cols, "M0"),
                   _matrix_from_json(M1, rows, cols, "M1"), eps, eta, m, n)

    def __repr__(self) -> str:
        return (f"BlockKroneckerPencil(eps={self.eps}, eta={self.eta}, "
                f"m={self.m}, n={self.n})")


def from_polynomial(P: MatrixPolynomial, eps: int, eta: int,
                    placement: str = "hook") -> BlockKroneckerPencil:
    """Hook pencil of a finite ``P`` at the split ``(eps, eta)``, which
    ``placement`` must allow (:func:`split_for_placement`).  Each
    coefficient of ``P`` is placed in exactly one block, so the antidiagonal
    sums reproduce ``P`` exactly; :func:`validate_placement` checks pencils
    built elsewhere.  A non-finite ``P`` raises :class:`ShapeError` when
    the pencil is built."""
    d = P.grade
    m, n = P.shape
    if eps + eta + 1 != d:
        raise GradeError(f"eps + eta + 1 = {eps + eta + 1} but the grade is {d}")
    split_for_placement(placement, d, eps, eta)

    # First block row carries P_{d-1} .. P_{d-eps-1}; the last block column
    # continues with P_{d-eps-2} .. P_0; P_d rides on lambda.  At eta = 0
    # this is frobenius1's block row, at eps = 0 frobenius2's block column.
    shape = ((eta + 1) * m, (eps + 1) * n)
    M0 = np.zeros(shape, dtype=complex)
    M1 = np.zeros(shape, dtype=complex)
    M1[:m, :n] = P.coeff(d)
    for j in range(1, eps + 2):
        M0[:m, (j - 1) * n:j * n] = P.coeff(d - j)
    for i in range(2, eta + 2):
        M0[(i - 1) * m:i * m, eps * n:(eps + 1) * n] = P.coeff(d - eps - i)
    return BlockKroneckerPencil(M0, M1, eps, eta, m, n)


def validate_placement(L: BlockKroneckerPencil, P: MatrixPolynomial) -> np.ndarray:
    """Per-coefficient residuals of the antidiagonal sum condition: entry
    ``k`` is the Frobenius distance between the ``k``-th coefficient of the
    represented polynomial and ``P_k``.  A ``P`` of another grade or shape
    raises :class:`GradeError` or :class:`ShapeError`, and a residual beyond
    the float range or NaN raises :class:`PlacementError`."""
    if P.grade != L.grade:
        raise GradeError(
            f"pencil represents grade {L.grade}, polynomial has {P.grade}")
    if P.shape != (L.m, L.n):
        raise ShapeError(f"polynomial is {P.shape}, the pencil's {(L.m, L.n)}")
    with np.errstate(over="ignore", invalid="ignore"):
        diff = recover_polynomial(L).coeff_stack - P.coeff_stack
        residuals = np.linalg.norm(diff, axis=(1, 2))
    for k in np.flatnonzero(residuals == np.inf):  # _frobenius rescues these
        residuals[k] = _frobenius(diff[k])
    if not np.isfinite(residuals).all():
        raise PlacementError("antidiagonal sum residual overflows or is NaN "
                             f"(max residual {np.max(residuals):.3e})")
    return residuals


def recover_polynomial(L: BlockKroneckerPencil) -> MatrixPolynomial:
    """``(Lambda_eta^T (x) I_m) (M0 + lambda*M1) (Lambda_eps (x) I_n)``,
    declared at grade ``eps + eta + 1``, as antidiagonal block sums.

    Block ``(i, j)`` (0-based) of ``M0`` carries ``lambda^{(eta-i)+(eps-j)}``
    and the same block of ``M1`` one power more.  The sums run as in the
    product: row blocks first, then column blocks in increasing power of the
    row factor."""
    eps, eta, m, n = L.eps, L.eta, L.m, L.n
    # rows[i]: coefficient i of (Lambda_eta^T (x) I_m)(M0 + lambda*M1)
    rows = np.zeros((eta + 2, m, (eps + 1) * n), dtype=complex)
    rows[1:] += L.M1.reshape(eta + 1, m, -1)[::-1]
    rows[:-1] += L.M0.reshape(eta + 1, m, -1)[::-1]
    # blocks[i, j]: column block eps - j of rows[i], i.e. power i + j
    blocks = rows.reshape(eta + 2, m, eps + 1, n)[:, :, ::-1].transpose(0, 2, 1, 3)
    out = np.zeros((L.grade + 1, m, n), dtype=complex)
    for i, row in enumerate(blocks):
        out[i:i + eps + 1] += row
    return MatrixPolynomial(out, grade=L.grade)


def lift_right_null_vector(L: BlockKroneckerPencil,
                           h: MatrixPolynomial) -> MatrixPolynomial:
    """Lift a right null vector ``h`` of the represented polynomial ``Q`` to
    one of the pencil: ``z = [top ; -N2hat M top]`` with ``top =
    (Lambda_eps (x) I_n) h`` (De Teran, Dopico and Van Dooren, SIMAX 36
    (2015)).  Column ``j`` of ``V_eta^{-1}`` holds ``-lambda^(j-i)`` in rows
    ``i <= j``, so with ``w = M top`` in row blocks ``w_0 .. w_eta``, block
    ``j < eta`` of ``-N2hat w`` is ``b_j = lambda b_{j-1} + w_j``, ``b_0 =
    w_0``.  ``deg z = eps + deg h``, and ``z`` is declared at grade ``eps +
    eta + h.grade``.  A non-finite ``h``, or one with ``||Q u|| > 1e-10
    max(1, ||Q|| ||u||)`` for ``u = h / max|h_ij|``, raises
    :class:`ShapeError`."""
    if h.cols != 1 or h.rows != L.n:
        raise ShapeError(f"h must be {L.n} x 1, got {h.shape}")
    _require_finite(h.coeff_stack)
    Q = recover_polynomial(L)
    # the null space does not depend on h's scale, and ||h||^2 can overflow
    peak = np.abs(h.coeff_stack).max()
    u = MatrixPolynomial(_divide(h.coeff_stack, peak)) if peak > 0 else h
    residual = multiply(Q, u).frobenius_norm()
    scale = max(1.0, Q.frobenius_norm() * u.frobenius_norm())
    if residual > 1e-10 * scale:
        raise ShapeError(
            f"h is not in the right null space (residual {residual:.3e})")
    top = multiply(build_Lambda(L.eps, L.n), h)
    if L.eta == 0:
        return top
    # w = M top in row blocks w_0 .. w_eta; b[:, j] is b_j
    w = _stack_product(L.one_one_block().coeff_stack, top.coeff_stack)
    b = np.zeros((top.grade + L.eta + 1, L.eta, L.m, 1), dtype=complex)
    b[:len(w)] = w.reshape(len(w), L.eta + 1, L.m, 1)[:, :L.eta]
    for j in range(1, L.eta):
        b[1:, j] += b[:-1, j - 1]
    return MatrixPolynomial(np.concatenate(
        [_pad(top.coeff_stack, len(b) - 1), b.reshape(len(b), -1, 1)], axis=1))
