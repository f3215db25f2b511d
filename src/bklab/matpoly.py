"""Dense matrix polynomials over the complex numbers.

A matrix polynomial is stored as its coefficient stack ``P_0, ..., P_d`` in
ascending powers together with an explicit grade ``d >= degree``.  Everything
here is a pure function of immutable values: coefficient arrays are copied on
construction and marked read-only.

Real input is embedded into the complex field so a single code path serves
both; the Frobenius norm of a polynomial does not depend on the declared
grade, only on the nonzero coefficients.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import GradeError, ShapeError

# index tuples whose structural constants (L_k (x) I_p, Lambda_k (x) I_p, the
# scalar pseudoinverses of Steps 1 and 2, the QZ workspace of an order) stay
# cached
CACHE_SIZE = 64


class MatrixPolynomial:
    """``sum_k P_k lambda^k`` with dense complex ``m x n`` coefficients."""

    __slots__ = ("_c",)

    def __init__(self, coeffs, grade=None):
        try:
            stack = np.array(coeffs, dtype=complex)
        except ValueError as exc:
            raise ShapeError(f"coefficients differ in shape: {exc}") from None
        if stack.ndim == 0 or not len(stack):
            raise ShapeError("a matrix polynomial needs at least one coefficient")
        if stack.ndim != 3:
            raise ShapeError(f"coefficients must be 2-d, got shape {stack.shape[1:]}")
        if grade is not None:
            grade = int(grade)
            if grade < 0:
                raise GradeError("grade must be nonnegative")
            if len(stack) > grade + 1:
                if np.any(stack[grade + 1:]):
                    raise GradeError(
                        f"grade {grade} is smaller than the degree of the data")
                stack = stack[:grade + 1]
            elif len(stack) < grade + 1:
                stack = _pad(stack, grade)
        stack.setflags(write=False)
        self._c = stack

    # -- basic structure -------------------------------------------------

    @property
    def rows(self) -> int:
        return self._c.shape[1]

    @property
    def cols(self) -> int:
        return self._c.shape[2]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def grade(self) -> int:
        return self._c.shape[0] - 1

    @property
    def coeff_stack(self) -> np.ndarray:
        """Read-only ``(grade+1, m, n)`` array of coefficients."""
        return self._c

    def coeff(self, k: int) -> np.ndarray:
        """Coefficient of ``lambda^k`` (zero beyond the declared grade)."""
        if 0 <= k <= self.grade:
            return self._c[k]
        z = np.zeros((self.rows, self.cols), dtype=complex)
        z.setflags(write=False)
        return z

    def degree(self, tol: float = 0.0):
        """Largest ``k`` with ``P_k != 0``, or ``None`` for the zero polynomial.

        ``tol`` treats coefficients with Frobenius norm at most ``tol`` as
        zero, which is needed for polynomials assembled in floating point.
        """
        for k in range(self.grade, -1, -1):
            if _frobenius(self._c[k]) > tol:
                return k
        return None

    def with_grade(self, d: int) -> "MatrixPolynomial":
        """Same polynomial re-declared at grade ``d`` (pads with zeros)."""
        if np.any(self._c[d + 1:]):
            raise GradeError(f"grade {d} is below the degree {self.degree()}")
        return MatrixPolynomial(self._c, grade=d)

    # -- evaluation and reversal -----------------------------------------

    def eval(self, lam0: complex) -> np.ndarray:
        """Horner evaluation at the scalar ``lam0``."""
        out = np.array(self._c[-1], dtype=complex)
        for k in range(self.grade - 1, -1, -1):
            out = out * lam0 + self._c[k]
        return out

    def reversal(self, d: int | None = None) -> "MatrixPolynomial":
        """``lambda^d * P(1/lambda)`` as a grade-``d`` polynomial."""
        if d is None:
            d = self.grade
        return MatrixPolynomial(self.with_grade(d)._c[::-1], grade=d)

    # -- norms -----------------------------------------------------------

    def frobenius_norm(self) -> float:
        return _frobenius(self._c)

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "MatrixPolynomial") -> "MatrixPolynomial":
        if self.shape != other.shape:
            raise ShapeError(f"cannot add {self.shape} and {other.shape}")
        d = max(self.grade, other.grade)
        return MatrixPolynomial(_pad(self._c, d) + _pad(other._c, d), grade=d)

    def __sub__(self, other: "MatrixPolynomial") -> "MatrixPolynomial":
        return self + (-1.0) * other

    def __rmul__(self, scalar) -> "MatrixPolynomial":
        return MatrixPolynomial(scalar * self._c, grade=self.grade)

    def __mul__(self, scalar) -> "MatrixPolynomial":
        return self.__rmul__(scalar)

    def __matmul__(self, other: "MatrixPolynomial") -> "MatrixPolynomial":
        return multiply(self, other)

    def transpose(self) -> "MatrixPolynomial":
        return MatrixPolynomial(self._c.transpose(0, 2, 1), grade=self.grade)

    def submatrix(self, rows, cols) -> "MatrixPolynomial":
        return MatrixPolynomial([c[np.ix_(rows, cols)] for c in self._c], grade=self.grade)

    def allclose(self, other: "MatrixPolynomial", atol: float = 0.0) -> bool:
        if self.shape != other.shape:
            return False
        d = max(self.grade, other.grade)
        return all(_frobenius(a - b) <= atol
                   for a, b in zip(_pad(self._c, d), _pad(other._c, d)))

    def __repr__(self) -> str:
        return f"MatrixPolynomial({self.rows}x{self.cols}, grade={self.grade})"

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "m": self.rows,
            "n": self.cols,
            "grade": self.grade,
            "coeffs": [_matrix_to_json(c) for c in self._c],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "MatrixPolynomial":
        """The polynomial of :meth:`to_json`; any other value raises
        :class:`ShapeError`, and a coefficient count other than
        ``grade + 1`` raises :class:`GradeError`."""
        keys = ("m", "n", "grade")
        *sizes, coeffs = _json_fields(obj, "a matrix polynomial",
                                      *keys, "coeffs")
        m, n, grade = (_json_count(v, repr(k)) for v, k in zip(sizes, keys))
        if not isinstance(coeffs, list):
            raise ShapeError(f"'coeffs' must be a list, got "
                             f"{type(coeffs).__name__}")
        if len(coeffs) != grade + 1:
            raise GradeError(
                f"expected {grade + 1} coefficients, found {len(coeffs)}"
            )
        return cls([_matrix_from_json(c, m, n, f"coeffs[{k}]")
                    for k, c in enumerate(coeffs)])


class Pencil(MatrixPolynomial):
    """Matrix polynomial of grade exactly 1, exposed as the pair ``(M0, M1)``
    meaning ``M0 + lambda*M1``."""

    def __init__(self, coeffs):
        super().__init__(coeffs, grade=1)

    @classmethod
    def from_parts(cls, M0, M1) -> "Pencil":
        return cls([M0, M1])

    @property
    def M0(self) -> np.ndarray:
        return self._c[0]

    @property
    def M1(self) -> np.ndarray:
        return self._c[1]


def as_pencil(P: MatrixPolynomial) -> Pencil:
    """View a grade-1 polynomial (or a constant) as a pencil; a pencil is
    returned as it is, and a nonzero coefficient above grade 1 raises
    :class:`GradeError`."""
    return P if isinstance(P, Pencil) else Pencil(P.coeff_stack)


def _pad(S: np.ndarray, d: int) -> np.ndarray:
    """The coefficient stack ``S`` followed by zeros up to grade ``d``."""
    if len(S) > d:
        return S
    zeros = np.zeros((d + 1 - len(S),) + S.shape[1:], dtype=complex)
    return np.concatenate([S, zeros])


# -- json helpers ---------------------------------------------------------
# The readers check what they are given against their schema and refuse
# anything else with ShapeError, which the CLI turns into exit code 2.

def _matrix_to_json(A) -> list:
    A = np.asarray(A, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in A]


def _matrix_from_json(rows, m, n, name) -> np.ndarray:
    """The ``m x n`` matrix stored as ``m`` rows of ``n`` ``[re, im]``
    pairs of finite numbers, or as an empty list when ``m n = 0``."""
    try:
        pairs = np.array(rows) if isinstance(rows, list) else None
    except ValueError:  # a ragged nesting
        pairs = None
    if pairs is not None and pairs.size == 0 and m * n == 0:
        return np.zeros((m, n), dtype=complex)
    if (pairs is None or pairs.dtype.kind not in "iuf"
            or pairs.shape != (m, n, 2)):
        raise ShapeError(f"{name} must be {m} rows of {n} [re, im] pairs "
                         "of numbers")
    if not np.isfinite(pairs).all():
        raise ShapeError(f"{name} has a non-finite (inf or NaN) entry")
    return np.ascontiguousarray(pairs, dtype=float).view(complex)[..., 0]


def _json_fields(obj, what, *keys) -> list:
    """The values of ``keys`` in ``obj``, which must be a JSON object
    holding all of them."""
    if not isinstance(obj, dict):
        raise ShapeError(f"{what} must be a JSON object, got "
                         f"{type(obj).__name__}")
    missing = [key for key in keys if key not in obj]
    if missing:
        raise ShapeError(f"{what} needs the keys {', '.join(keys)}; "
                         f"missing {', '.join(missing)}")
    return [obj[key] for key in keys]


def _json_count(value, name) -> int:
    """``value``, which must be a JSON integer (not a float or a boolean)
    of at least 0."""
    if type(value) is not int or value < 0:
        raise ShapeError(f"{name} must be a nonnegative integer, got "
                         f"{value!r:.40}")
    return value


# -- constructors ----------------------------------------------------------

def zeros(m: int, n: int, grade: int = 0) -> MatrixPolynomial:
    return MatrixPolynomial([np.zeros((m, n), dtype=complex)], grade=grade)


def constant(A) -> MatrixPolynomial:
    return MatrixPolynomial([np.asarray(A, dtype=complex)], grade=0)


def identity(n: int) -> MatrixPolynomial:
    return constant(np.eye(n))


@lru_cache(maxsize=CACHE_SIZE)
def build_L(k: int, blocks: int = 1) -> Pencil:
    """The ``k x (k+1)`` pencil with ``-1`` on the diagonal and ``lambda`` on
    the superdiagonal; ``blocks > 1`` returns its Kronecker lift by ``I_p``,
    whose unit entries sit on the main diagonal and on the ``p``-th one.
    Cached, like :func:`build_Lambda`: the result is immutable."""
    if k < 0:
        raise GradeError("k must be nonnegative")
    shape = (k * blocks, (k + 1) * blocks)
    return Pencil.from_parts(-np.eye(*shape, dtype=complex),
                             np.eye(*shape, blocks, dtype=complex))


@lru_cache(maxsize=CACHE_SIZE)
def build_Lambda(k: int, blocks: int = 1) -> MatrixPolynomial:
    """The ``(k+1) x 1`` column ``[lambda^k, ..., lambda, 1]^T`` (optionally
    Kronecker-lifted by ``I_p``): coefficient ``power`` is ``I_p`` at block
    row ``k - power``."""
    if k < 0:
        raise GradeError("k must be nonnegative")
    coeffs = np.zeros((k + 1, k + 1, blocks, blocks), dtype=complex)
    coeffs[np.arange(k + 1), np.arange(k, -1, -1)] = np.eye(blocks)
    return MatrixPolynomial(coeffs.reshape(k + 1, (k + 1) * blocks, blocks), grade=k)


def build_V(k: int) -> MatrixPolynomial:
    """Unimodular completion of ``L_k`` by the last coordinate row."""
    if k < 0:
        raise GradeError("k must be nonnegative")
    L = build_L(k)
    last = np.zeros((1, k + 1), dtype=complex)
    last[0, k] = 1.0
    c0 = np.vstack([L.M0, last])
    c1 = np.vstack([L.M1, np.zeros((1, k + 1))])
    return MatrixPolynomial([c0, c1], grade=1)


def build_V_inverse(k: int) -> MatrixPolynomial:
    """Explicit polynomial inverse of :func:`build_V`; its last column is the
    ``Lambda_k`` column, so ``V_k * V_k^{-1} == I`` exactly as polynomials."""
    if k < 0:
        raise GradeError("k must be nonnegative")
    coeffs = [np.zeros((k + 1, k + 1), dtype=complex) for _ in range(max(k, 1))]
    if k == 0:
        coeffs[0][0, 0] = 1.0
        return MatrixPolynomial(coeffs, grade=0)
    for i in range(k):
        for j in range(i, k):
            coeffs[j - i][i, j] = -1.0
    lam = build_Lambda(k)
    out = []
    for power in range(k + 1):
        c = coeffs[power] if power < k else np.zeros((k + 1, k + 1), dtype=complex)
        c = np.array(c)
        c[:, k] = lam.coeff(power)[:, 0]
        out.append(c)
    return MatrixPolynomial(out, grade=k)


# -- operations -------------------------------------------------------------

def _frobenius(a: np.ndarray) -> float:
    """Frobenius norm of one float64 or complex128 array, bit for bit what
    ``np.linalg.norm(a)`` returns: the same ``ravel(order='K')`` and the
    same BLAS dots, ``sqrt(re.dot(re) + im.dot(im))``, without the
    wrapper's dispatch (``math.sqrt`` rounds correctly, as numpy's does).
    Norms along axes stay on numpy, which sums them differently."""
    x = a.ravel(order="K")
    if x.dtype.kind == "c":
        re, im = x.real, x.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    return math.sqrt(x.dot(x))


def pair_norm(*arrays) -> float:
    """Frobenius norm of float or complex arrays of possibly different sizes
    taken together: numpy's left-to-right ``np.hypot`` reduction of their
    norms, one scalar ``hypot`` per further array."""
    total, *rest = [_frobenius(a) for a in arrays] or [0.0]
    for norm in rest:
        total = np.hypot(total, norm)
    return float(total)


def multiply(P: MatrixPolynomial, Q: MatrixPolynomial) -> MatrixPolynomial:
    """Polynomial product with grade ``P.grade + Q.grade``."""
    if P.cols != Q.rows:
        raise ShapeError(f"cannot multiply {P.shape} by {Q.shape}")
    return MatrixPolynomial(_stack_product(P.coeff_stack, Q.coeff_stack),
                            grade=P.grade + Q.grade)


def _stack_product(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Coefficient stack of the product of the ascending stacks ``P`` and
    ``Q``: coefficient ``k`` sums ``P_i Q_{k-i}`` in increasing ``i``."""
    out = np.zeros((P.shape[0] + Q.shape[0] - 1, P.shape[1], Q.shape[2]),
                   dtype=complex)
    for i, Pi in enumerate(P):
        out[i:i + Q.shape[0]] += Pi @ Q
    return out


def vstack(polys) -> MatrixPolynomial:
    polys = list(polys)
    d = max(p.grade for p in polys)
    return MatrixPolynomial(np.concatenate([_pad(p.coeff_stack, d) for p in polys], 1))


def kron_constant(P: MatrixPolynomial, A) -> MatrixPolynomial:
    """Coefficient-wise Kronecker product ``P(lambda) (x) A``."""
    A = np.asarray(A, dtype=complex)
    return MatrixPolynomial([np.kron(c, A) for c in P.coeff_stack], grade=P.grade)


def convolution(Q: MatrixPolynomial, j: int) -> np.ndarray:
    """``C_j(Q)``: the constant matrix representing multiplication of ``Q``
    by a grade-``j`` polynomial, read off the declared grade of ``Q``.

    It is the block-Toeplitz stacking of the grade-``q`` coefficients: block
    ``(r, c)`` equals ``Q_{q-(r-c)}`` when ``0 <= r-c <= q`` and the zero
    block otherwise; there are ``j+1`` block columns and ``q+j+1`` block rows
    of block size ``m x n``.
    """
    if j < 0:
        raise GradeError("j must be nonnegative")
    q = Q.grade
    m, n = Q.shape
    C = np.zeros(((q + j + 1) * m, (j + 1) * n), dtype=complex)
    for c in range(j + 1):
        for r in range(c, c + q + 1):
            C[r * m:(r + 1) * m, c * n:(c + 1) * n] = Q.coeff(q - (r - c))
    return C

