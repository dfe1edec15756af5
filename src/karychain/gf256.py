"""GF(2^8) arithmetic kernels for byte-wise polynomial secret sharing.

The field is GF(2^8) with reduction polynomial x^8 + x^4 + x^3 + x + 1
(0x11B); addition and subtraction are both XOR. Scalar operations go through
precomputed exp/log tables and a full 256x256 product table `_MUL`.

The batch kernels below (polynomial evaluation, Lagrange and Neville
interpolation at x=0) are the hot numeric loops behind key splitting and
reconstruction. Each is plain numpy written as whole-array updates: table
gathers over every row at once, with Python loops only over polynomial
degree or Neville span. All arrays are uint8. Shapes:

* `eval_polys(coeffs, x)`: `coeffs` is (rows, degree+1) with the constant
  term in column 0, one independent polynomial per row; `x` is a scalar,
  giving (rows,), or a 1-D array of npoints, giving (npoints, rows).
* `lagrange_zero(xs, ys)`, `neville_zero(xs, ys)`: `xs` is (npoints,) and
  `ys` is (npoints, rows); both return the (rows,) values at x=0.
"""

from __future__ import annotations

import numpy as np

REDUCING_POLY = 0x11B


def _build_tables() -> tuple[np.ndarray, np.ndarray]:
    # exp/log tables for generator 0x03; EXP is doubled so LOG[a] + LOG[b]
    # indexes without a mod 255.
    exp = np.zeros(510, dtype=np.uint8)
    log = np.zeros(256, dtype=np.uint16)
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        doubled = ((x << 1) ^ (0x1B if x & 0x80 else 0x00)) & 0xFF
        x ^= doubled
    exp[255:] = exp[:255]
    return exp, log


EXP, LOG = _build_tables()

_INV = np.zeros(256, dtype=np.uint8)
_INV[1:] = EXP[(255 - LOG[1:]).astype(np.intp)]

_MUL = np.zeros((256, 256), dtype=np.uint8)
_MUL[1:, 1:] = EXP[LOG[1:].astype(np.intp)[:, None] + LOG[1:].astype(np.intp)[None, :]]
# _FLAT[a << 8 | b] == _MUL[a, b]: one intp index array per gather instead of
# two broadcast ones, about twice as fast in the batch kernels.
_FLAT = _MUL.ravel()


def _check_byte(value: int, name: str) -> None:
    if not isinstance(value, (int, np.integer)) or not 0 <= int(value) <= 255:
        raise ValueError(f"{name} must be an integer in 0..255, got {value!r}")


def gf_mul(a: int, b: int) -> int:
    """Product of two field elements."""
    _check_byte(a, "a")
    _check_byte(b, "b")
    return int(_MUL[a, b])


def gf_inv(a: int) -> int:
    """Multiplicative inverse; zero has none."""
    _check_byte(a, "a")
    if a == 0:
        raise ZeroDivisionError("0 has no multiplicative inverse in GF(2^8)")
    return int(_INV[a])


def eval_polys(coeffs: np.ndarray, x) -> np.ndarray:
    """Evaluate each row's polynomial at x, a scalar or a 1-D array (Horner)."""
    xoff = np.asarray(x, dtype=np.intp)[..., None] << 8
    acc = np.zeros(xoff.shape[:-1] + coeffs.shape[:1], dtype=np.uint8)
    for m in range(coeffs.shape[1] - 1, -1, -1):
        acc = _FLAT[xoff | acc] ^ coeffs[:, m]
    return acc


def lagrange_zero(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Interpolate the rows of ys at x=0 by Lagrange basis weights.

    w[i] = prod_{j != i} x[j] / (x[i] ^ x[j]), summed in the log domain; the
    abscissas must be distinct. A weight is 0 when another abscissa is 0.
    """
    diff = xs[:, None] ^ xs[None, :]
    np.fill_diagonal(diff, 1)
    logs = LOG[xs]
    num = logs.sum(dtype=np.int32) - logs.astype(np.int32)
    den = LOG[diff].sum(axis=1, dtype=np.int32)
    w = EXP[(num - den) % 255]
    zeros = xs == 0
    w[np.count_nonzero(zeros) > zeros] = 0
    return np.bitwise_xor.reduce(_MUL[w[:, None], ys], axis=0)


def neville_zero(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Interpolate the rows of ys at x=0 by the Neville/Aitken recurrence.

    P[i][s] spans points i..i+s; at x=0 in characteristic 2 the update is
    P[i][s] = (x[i+s] * P[i][s-1] ^ x[i] * P[i+1][s-1]) / (x[i] ^ x[i+s]).
    Each span updates every remaining row at once, with the division folded
    into the two per-row multipliers.
    """
    p = ys.copy()
    npts = xs.shape[0]
    for span in range(1, npts):
        xa = xs[:-span]
        xb = xs[span:]
        dinv = _INV[xa ^ xb]
        ca = _MUL[xb, dinv].astype(np.intp)[:, None] << 8
        cb = _MUL[xa, dinv].astype(np.intp)[:, None] << 8
        p[:-span] = _FLAT[ca | p[:-span]] ^ _FLAT[cb | p[1 : npts - span + 1]]
    return p[0]
