"""Construction, validation and recovery of block Kronecker pencils, and
the lift of right null vectors.

An ``(eps, n, eta, m)``-block Kronecker pencil consists of an arbitrary
``(eta+1)m x (eps+1)n`` pencil ``M0 + lambda*M1`` in the (1,1) block, the
fixed singular blocks ``L_eta^T (x) I_m`` and ``L_eps (x) I_n`` on the
antidiagonal, and a zero (2,2) block.  It represents the polynomial

    ``(Lambda_eta^T (x) I_m) (M0 + lambda*M1) (Lambda_eps (x) I_n)``

of grade ``eps + eta + 1``, and its minimal indices are those of the
polynomial shifted by ``eps`` (right) and ``eta`` (left).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GradeError, PlacementError, ShapeError
from .matpoly import (MatrixPolynomial, Pencil, build_Lambda, build_V_inverse,
                      kron_constant, multiply, pair_norm, vstack,
                      _json_count, _json_fields, _matrix_from_json,
                      _matrix_to_json)
from .tolerances import _require_finite

PLACEMENT_TAGS = ("frobenius1", "frobenius2", "hook", "custom")


@dataclass
class PlacementSpec:
    """Which (1,1)-block pattern to synthesize a polynomial into.

    ``frobenius1`` needs ``eta == 0`` and ``eps == d-1``; ``frobenius2``
    needs ``eps == 0`` and ``eta == d-1``; ``hook`` works for every split
    with ``eps + eta + 1 == d``; ``custom`` carries explicit ``M0, M1``
    whose antidiagonal sums are checked rather than assumed.
    """

    tag: str
    M0: np.ndarray | None = None
    M1: np.ndarray | None = None

    def __post_init__(self):
        if self.tag not in PLACEMENT_TAGS:
            raise PlacementError(f"unknown placement tag {self.tag!r}")
        if self.tag == "custom" and (self.M0 is None or self.M1 is None):
            raise PlacementError("custom placement requires M0 and M1")


class BlockKroneckerPencil:
    """The data ``(eps, eta, m, n, M0, M1)`` plus exact assembly."""

    def __init__(self, M0, M1, eps: int, eta: int, m: int, n: int):
        if eps < 0 or eta < 0 or m < 1 or n < 1:
            raise ShapeError("need eps, eta >= 0 and m, n >= 1")
        self._one_one = Pencil([M0, M1])
        want = ((eta + 1) * m, (eps + 1) * n)
        if self._one_one.shape != want:
            raise ShapeError(f"M0/M1 must be {want}, got {self._one_one.shape}")
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

    def block(self, which: str, i: int, j: int) -> np.ndarray:
        """``m x n`` block ``(i, j)`` (one-based) of ``M0`` or ``M1``."""
        M = self.M0 if which == "M0" else self.M1
        return M[(i - 1) * self.m:i * self.m, (j - 1) * self.n:j * self.n]

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
                    placement="hook") -> BlockKroneckerPencil:
    """Block Kronecker pencil whose antidiagonal coefficient sums reproduce
    the coefficients of a finite ``P`` to ``1e-12 max(1, ||P||)``."""
    _require_finite(P.coeff_stack)
    if isinstance(placement, str):
        placement = PlacementSpec(placement)
    d = P.grade
    m, n = P.shape
    if eps < 0 or eta < 0:
        raise ShapeError(f"need eps, eta >= 0, got eps = {eps}, eta = {eta}")
    if eps + eta + 1 != d:
        raise GradeError(f"eps + eta + 1 = {eps + eta + 1} but the grade is {d}")
    if placement.tag == "frobenius1" and (eta != 0 or eps != d - 1):
        raise PlacementError("frobenius1 requires eta = 0 and eps = d - 1")
    if placement.tag == "frobenius2" and (eps != 0 or eta != d - 1):
        raise PlacementError("frobenius2 requires eps = 0 and eta = d - 1")

    shape = ((eta + 1) * m, (eps + 1) * n)
    M0 = np.zeros(shape, dtype=complex)
    M1 = np.zeros(shape, dtype=complex)
    if placement.tag == "frobenius1":
        M1[:, :n] = P.coeff(d)
        for j in range(1, eps + 2):
            M0[:, (j - 1) * n:j * n] = P.coeff(d - j)
    elif placement.tag == "frobenius2":
        M1[:m, :] = P.coeff(d)
        for i in range(1, eta + 2):
            M0[(i - 1) * m:i * m, :] = P.coeff(d - i)
    elif placement.tag == "hook":
        # First block row carries P_{d-1} .. P_{d-eps-1}; the last block
        # column continues with P_{d-eps-2} .. P_0; P_d rides on lambda.
        M1[:m, :n] = P.coeff(d)
        for j in range(1, eps + 2):
            M0[:m, (j - 1) * n:j * n] = P.coeff(d - j)
        for i in range(2, eta + 2):
            M0[(i - 1) * m:i * m, eps * n:(eps + 1) * n] = P.coeff(d - eps - i)
    else:
        M0 = np.array(placement.M0, dtype=complex)
        M1 = np.array(placement.M1, dtype=complex)
        if M0.shape != shape or M1.shape != shape:
            raise ShapeError(f"custom blocks must have shape {shape}")
    pencil = BlockKroneckerPencil(M0, M1, eps, eta, m, n)
    residuals = validate_placement(pencil, P)
    if not np.max(residuals) <= 1e-12 * max(1.0, P.frobenius_norm()):
        raise PlacementError(
            f"antidiagonal sums do not reproduce the polynomial "
            f"(max residual {np.max(residuals):.3e})")
    return pencil


def validate_placement(L: BlockKroneckerPencil, P: MatrixPolynomial) -> np.ndarray:
    """Per-coefficient residuals of the antidiagonal sum condition: entry
    ``k`` is the Frobenius distance between the ``k``-th coefficient of the
    represented polynomial and ``P_k``.  A residual that overflows or is NaN
    raises :class:`PlacementError`."""
    if P.grade != L.grade:
        raise GradeError(
            f"pencil represents grade {L.grade}, polynomial has {P.grade}")
    with np.errstate(over="ignore", invalid="ignore"):
        residuals = np.linalg.norm(
            recover_polynomial(L).coeff_stack - P.coeff_stack, axis=(1, 2))
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
    """Lift a right null vector of the represented polynomial to one of the
    pencil.

    With ``Q`` the represented polynomial and ``Q h = 0``, the lift is
    ``z = [(Lambda_eps (x) I_n) h ; -N2hat M (Lambda_eps (x) I_n) h]`` where
    ``N2hat`` is read off the leading block columns of the inverse completion
    on the eta side.  The degree shifts by exactly ``eps``:
    ``deg z = eps + deg h``.  Needs ``||Q h|| <= 1e-10 max(1, ||Q|| ||h||)``.
    """
    if h.cols != 1 or h.rows != L.n:
        raise ShapeError(f"h must be {L.n} x 1, got {h.shape}")
    Q = recover_polynomial(L)
    residual = multiply(Q, h).frobenius_norm()
    scale = max(1.0, Q.frobenius_norm() * h.frobenius_norm())
    if residual > 1e-10 * scale:
        raise ShapeError(
            f"h is not in the right null space (residual {residual:.3e})")
    top = multiply(build_Lambda(L.eps, L.n), h)
    if L.eta == 0:
        return top
    v_inv = kron_constant(build_V_inverse(L.eta), np.eye(L.m))
    n2hat = v_inv.submatrix(range((L.eta + 1) * L.m), range(L.eta * L.m)).transpose()
    bottom = -1.0 * multiply(n2hat, multiply(L.one_one_block(), top))
    return vstack([top, bottom])
