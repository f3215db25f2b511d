"""Closed-form singular values of the structured matrices used by the
backward-error analysis, with numeric cross-verification.

The shipped formulas:

* ``sigma_min_T_closed``: smallest singular value of the Sylvester operator
  matrix ``T`` (built by ``build_T``) -- ``2 sin(pi / (4 min(eps,eta) + 2))``
  when ``eps != eta`` and ``2 sin(pi / (4 eta))`` when ``eps == eta``.
* ``sigma_max_W_closed``: largest singular value of the bidiagonal block
  Toeplitz matrix ``W`` -- ``2 cos(pi / (2 min + 1))`` resp.
  ``2 cos(pi / (2 eta))``; the two are linked by
  ``sigma_min(T) = sqrt(2 - sigma_max(W))``.
* ``M_singular_values(k)``: ``sqrt(2 + 2 cos(2 j pi / (2k+1)))``.
* ``G_singular_values(k)``: ``sqrt(2 - 2 cos(j pi / (k+1)))``.  The two
  cosine expressions floating around for ``G_k`` give the same multiset
  (the index reversal flips the sign); this one was fixed against a direct
  SVD sweep, recorded in ``tests/test_spectral_constants.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GradeError, LayoutError, ShapeError
from .matpoly import build_L, build_Lambda, convolution
from .tolerances import _svd


def M_matrix(k: int) -> np.ndarray:
    """Upper bidiagonal ``k x k`` matrix of ones."""
    return np.eye(k) + np.eye(k, k=1)


def G_matrix(k: int) -> np.ndarray:
    """Lower bidiagonal ``(k+1) x k`` matrix of ones."""
    return np.eye(k + 1, k) + np.eye(k + 1, k, -1)


def M_singular_values(k: int) -> np.ndarray:
    if k < 1:
        raise ShapeError("k must be at least 1")
    j = np.arange(1, k + 1)
    return np.sort(np.sqrt(2.0 + 2.0 * np.cos(2.0 * j * np.pi / (2 * k + 1))))


def G_singular_values(k: int) -> np.ndarray:
    if k < 1:
        raise ShapeError("k must be at least 1")
    j = np.arange(1, k + 1)
    return np.sort(np.sqrt(2.0 - 2.0 * np.cos(j * np.pi / (k + 1))))


def build_W(eps: int, eta: int) -> np.ndarray:
    """``W = I_eps (x) J_eta + J_eps (x) I_eta`` (size ``eps*eta``), with
    the down-shift ``J_k`` (ones on the subdiagonal, ``J_1 = 0``)."""
    if eps < 1 or eta < 1:
        raise ShapeError("eps and eta must be at least 1")
    return (np.kron(np.eye(eps), np.eye(eta, k=-1))
            + np.kron(np.eye(eps, k=-1), np.eye(eta)))


def sigma_max_W_closed(eps: int, eta: int) -> float:
    if eps < 1 or eta < 1:
        raise ShapeError("eps and eta must be at least 1")
    if eps != eta:
        return 2.0 * np.cos(np.pi / (2 * min(eps, eta) + 1))
    return 2.0 * np.cos(np.pi / (2 * eta))


def build_T(eps: int, eta: int, m: int, n: int) -> np.ndarray:
    """Coefficient matrix of the linearized Sylvester system acting on
    ``[vec(C); vec(D)]``; full row rank with the closed-form smallest
    singular value :func:`sigma_min_T_closed`."""
    if eps < 1 or eta < 1:
        raise ShapeError("the Sylvester step only exists for eps, eta >= 1")
    # T = [E_eta (x) I_en, I_hm (x) E_eps; F_eta (x) I_en, I_hm (x) F_eps]
    # with |L_k (x) I_p| = E_k + lambda F_k, E_k = [I 0] (x) I_p and
    # F_k = [0 I] (x) I_p: a 0/1 matrix with one unit per row in each block
    rows = eps * n * eta * m
    cols_C = (eta + 1) * m * eps * n
    r = np.arange(rows)
    # row i eps n + a of I_hm (x) E_eps meets column i (eps+1) n + a
    r_D = cols_C + r + r // (eps * n) * n
    T = np.zeros((2 * rows, cols_C + (eps + 1) * n * eta * m))
    T[r, r] = 1.0
    T[r, r_D] = 1.0
    T[rows + r, r + m * eps * n] = 1.0
    T[rows + r, r_D + n] = 1.0
    return T


def sigma_min_T_closed(eps: int, eta: int) -> float:
    if eps < 1 or eta < 1:
        raise ShapeError("the Sylvester operator needs eps >= 1 and eta >= 1")
    if eps != eta:
        return 2.0 * np.sin(np.pi / (4 * min(eps, eta) + 2))
    return 2.0 * np.sin(np.pi / (4 * eta))


def sigma_min_T_lower_bound(d: int) -> float:
    """The simple grade-only bound ``2 sqrt(2) / d``; ``d < 1`` raises
    :class:`GradeError`."""
    if d < 1:
        raise GradeError(f"d must be at least 1, got {d}")
    return 2.0 * np.sqrt(2.0) / d


def sigma_min_from_W(eps: int, eta: int) -> float:
    """``sqrt(2 - sigma_max(W))``; equals :func:`sigma_min_T_closed`."""
    return float(np.sqrt(2.0 - sigma_max_W_closed(eps, eta)))


def _direct_sum_multiset(eps: int, eta: int) -> np.ndarray:
    """Predicted singular values of ``W_{eps,eta}`` from its permutation
    decomposition: ``eps - eta`` copies of ``sigma(M_eta)``, each
    ``sigma(G_k)`` twice for ``k < eta`` (with the zero a square
    ``G_k (+) G_k^T`` block carries), and a final zero."""
    values = []
    for _ in range(eps - eta):
        values.extend(M_singular_values(eta))
    for k in range(1, eta):
        values.extend(list(G_singular_values(k)) * 2)
        values.append(0.0)
    values.append(0.0)
    return np.sort(np.array(values))


def verify_W_direct_sum(eps: int, eta: int, tol: float = 1e-12) -> bool:
    """Multiset equality between ``svd(W)`` and the block decomposition."""
    if eta > eps:
        raise ShapeError("swap the arguments: the check expects eps >= eta "
                         "(the singular values are symmetric in the pair)")
    numeric = np.sort(_svd(build_W(eps, eta), vectors=False))
    predicted = _direct_sum_multiset(eps, eta)
    if numeric.shape != predicted.shape:
        return False
    return bool(np.max(np.abs(numeric - predicted)) <= tol)


@dataclass
class SingularValuePrediction:
    label: str
    predicted: float
    numeric: float

    @property
    def gap(self) -> float:
        return abs(self.predicted - self.numeric)

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "predicted": float(self.predicted),
            "numeric": float(self.numeric),
            "gap": float(self.gap),
        }


@dataclass
class ConvolutionConstants:
    """Closed-form versus numeric extreme singular values of the convolution
    matrices of ``L_eps (x) I_n`` and ``Lambda_eps^T (x) I_n``."""

    eps: int
    n: int
    closed_form: float
    lower_bound: float
    numeric_lower: float      # sigma_min of C_{eps-1}(L_eps (x) I_n)
    numeric_upper_index: float  # sigma_min of C_eps(L_eps (x) I_n)
    lambda_c0: float
    lambda_c1: float
    multiset_ok: bool


def sigma_min_convolution_L(eps: int, n: int = 1, tol: float = 1e-10) -> ConvolutionConstants:
    """Evaluate and cross-check the convolution singular-value constants.

    The closed form is ``2 sin(pi / (4 eps + 2))`` for both ``C_{eps-1}`` and
    ``C_eps`` of ``L_eps (x) I_n``; both Lambda-side constants equal one.
    The multiset flag checks the permutation decomposition of
    ``C_{eps-1}(L_eps)`` and ``C_eps(L_eps)`` into bidiagonal blocks
    (scalar case; the Kronecker factor repeats every value ``n`` times).

    Raises :class:`LayoutError` when any numeric value strays from its
    closed form by more than ``tol`` (pass ``tol=inf`` to only collect).
    """
    if eps < 1:
        raise ShapeError("eps must be at least 1")
    if n < 1:
        raise ShapeError("n must be at least 1")
    closed = 2.0 * np.sin(np.pi / (4 * eps + 2))
    L = build_L(eps, n)
    s_low = _svd(convolution(L, eps - 1), vectors=False)
    s_up = _svd(convolution(L, eps), vectors=False)
    lam = build_Lambda(eps, n).transpose()
    s0 = _svd(convolution(lam, 0), vectors=False)
    s1 = _svd(convolution(lam, 1), vectors=False)

    L1 = build_L(eps, 1)
    ms_low = []
    for k in range(1, eps + 1):
        ms_low.extend(list(M_singular_values(k)) * 2)
    ms_up = sorted(ms_low + list(G_singular_values(eps)))
    num_low = np.sort(_svd(convolution(L1, eps - 1), vectors=False))
    num_up = np.sort(_svd(convolution(L1, eps), vectors=False))
    multiset_ok = bool(
        np.max(np.abs(num_low - np.sort(ms_low))) <= 1e-12
        and np.max(np.abs(num_up - np.array(ms_up))) <= 1e-12
    )
    result = ConvolutionConstants(
        eps=eps,
        n=n,
        closed_form=float(closed),
        lower_bound=3.0 / (2.0 * (eps + 1)),
        numeric_lower=float(s_low[-1]),
        numeric_upper_index=float(s_up[-1]),
        lambda_c0=float(s0[-1]),
        lambda_c1=float(s1[-1]),
        multiset_ok=multiset_ok,
    )
    if np.isfinite(tol):
        gap = max(abs(result.numeric_lower - closed),
                  abs(result.numeric_upper_index - closed),
                  abs(result.lambda_c0 - 1.0), abs(result.lambda_c1 - 1.0))
        if gap > tol or not multiset_ok or closed < result.lower_bound:
            raise LayoutError(
                f"convolution constants disagree at eps={eps}, n={n}: "
                f"gap {gap:.3e}, multiset_ok={multiset_ok}")
    return result


def constants_sweep(max_eps: int = 4, max_eta: int = 4, max_m: int = 2,
                    max_n: int = 2) -> list[SingularValuePrediction]:
    """Predicted-versus-numeric table over a desk-scale sweep.

    Covers sigma_min(T) against the assembled operator, sigma_max(W) against
    its SVD, the W direct-sum multiset, the trigonometric identity linking T
    and W, and the convolution constants of the L/Lambda families.  A
    negative bound raises :class:`ShapeError`.
    """
    bounds = {"max_eps": max_eps, "max_eta": max_eta, "max_m": max_m,
              "max_n": max_n}
    negative = [f"{name} = {value}" for name, value in bounds.items()
                if value < 0]
    if negative:
        raise ShapeError(f"sweep bounds must be nonnegative, got "
                         f"{', '.join(negative)}")
    rows: list[SingularValuePrediction] = []
    for eps in range(1, max_eps + 1):
        for eta in range(1, max_eta + 1):
            for m in range(1, max_m + 1):
                for n in range(1, max_n + 1):
                    T = build_T(eps, eta, m, n)
                    smin = float(_svd(T, vectors=False)[-1])
                    rows.append(SingularValuePrediction(
                        f"sigma_min_T[eps={eps},eta={eta},m={m},n={n}]",
                        sigma_min_T_closed(eps, eta), smin))
            W = build_W(eps, eta)
            smax = float(_svd(W, vectors=False)[0])
            predW = sigma_max_W_closed(eps, eta)
            rows.append(SingularValuePrediction(
                f"sigma_max_W[eps={eps},eta={eta}]", predW, smax))
            rows.append(SingularValuePrediction(
                f"identity_T_vs_W[eps={eps},eta={eta}]",
                sigma_min_T_closed(eps, eta), sigma_min_from_W(eps, eta)))
            ok = verify_W_direct_sum(max(eps, eta), min(eps, eta))
            rows.append(SingularValuePrediction(
                f"W_direct_sum[eps={eps},eta={eta}]", 1.0, 1.0 if ok else 0.0))
    for eps in range(1, max_eps + 1):
        for n in range(1, max_n + 1):
            cc = sigma_min_convolution_L(eps, n, tol=np.inf)
            rows.append(SingularValuePrediction(
                f"sigma_min_convL_low[eps={eps},n={n}]",
                cc.closed_form, cc.numeric_lower))
            rows.append(SingularValuePrediction(
                f"sigma_min_convL_up[eps={eps},n={n}]",
                cc.closed_form, cc.numeric_upper_index))
            rows.append(SingularValuePrediction(
                f"sigma_min_convLambda_c0[eps={eps},n={n}]", 1.0, cc.lambda_c0))
            rows.append(SingularValuePrediction(
                f"sigma_min_convLambda_c1[eps={eps},n={n}]", 1.0, cc.lambda_c1))
            rows.append(SingularValuePrediction(
                f"convL_multiset[eps={eps},n={n}]", 1.0,
                1.0 if cc.multiset_ok else 0.0))
    for k in range(1, max(max_eps, max_eta) + 2):
        numM = np.sort(_svd(M_matrix(k), vectors=False))
        gapM = float(np.max(np.abs(numM - M_singular_values(k))))
        rows.append(SingularValuePrediction(f"M_spectrum[k={k}]", 0.0, gapM))
        numG = np.sort(_svd(G_matrix(k), vectors=False))
        gapG = float(np.max(np.abs(numG - G_singular_values(k))))
        rows.append(SingularValuePrediction(f"G_spectrum[k={k}]", 0.0, gapG))
    return rows
