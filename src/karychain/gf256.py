"""GF(2^8) arithmetic kernels for byte-wise polynomial secret sharing.

The field is GF(2^8) with reduction polynomial x^8 + x^4 + x^3 + x + 1
(0x11B); addition and subtraction are both XOR. Field vectors are `bytes`:
multiplying one by c is `vec.translate(_MUL[c])`, through the 256-byte table
of c * b built from the exp/log tables at import, and adding two is one XOR
of their big-endian integers. The batch kernels below (polynomial
evaluation, Lagrange and Neville interpolation at x=0) are the loops behind
key splitting and reconstruction; they take the points as one `bytes` and
one `bytes` vector per polynomial or point, and loop in Python only over
coefficients, points or Neville spans.
"""

from __future__ import annotations

from collections.abc import Sequence

REDUCING_POLY = 0x11B


def _build_tables() -> tuple[bytes, bytes]:
    # exp/log tables for generator 0x03; EXP is doubled so LOG[a] + LOG[b]
    # indexes without a mod 255. LOG[0] is 0, a placeholder.
    exp, log = bytearray(510), bytearray(256)
    x = 1
    for i in range(255):
        exp[i] = exp[i + 255] = x
        log[x] = i
        x ^= ((x << 1) ^ (0x1B if x & 0x80 else 0x00)) & 0xFF
    return bytes(exp), bytes(log)


EXP, LOG = _build_tables()
_INV = bytes([0]) + bytes(EXP[255 - lg] for lg in LOG[1:])
# _MUL[c] maps b to c * b: the logs of 1..255 looked up in EXP rotated by LOG[c].
_MUL = (bytes(256),) + tuple(
    b"\x00" + LOG[1:].translate(EXP[LOG[c] : LOG[c] + 256]) for c in range(1, 256)
)
# LOG with 0 sent to 255, the one index the power tables map to 0 (0^m = 0).
_LOG0 = b"\xff" + LOG[1:]


def _check_byte(value: int, name: str) -> None:
    if not isinstance(value, int) or not 0 <= value <= 255:
        raise ValueError(f"{name} must be an integer in 0..255, got {value!r}")


def gf_mul(a: int, b: int) -> int:
    """Product of two field elements."""
    _check_byte(a, "a")
    _check_byte(b, "b")
    return _MUL[a][b]


def gf_inv(a: int) -> int:
    """Multiplicative inverse; zero has none."""
    _check_byte(a, "a")
    if a == 0:
        raise ZeroDivisionError("0 has no multiplicative inverse in GF(2^8)")
    return _INV[a]


def eval_polys(coeffs: Sequence[bytes], xs: bytes) -> list[bytes]:
    """Evaluate each polynomial (its coefficients, constant first) at every
    point of xs; byte r of the i-th result is polynomial r at xs[i].

    Power basis: the row of x^m over all points is the points' logs
    translated through EXP[(l * m) % 255], a stride-m slice of a repeated
    EXP run. Each (polynomial, coefficient) pair then costs one translate
    and one XOR.
    """
    npts = len(xs)
    ncoef = max(map(len, coeffs), default=1)
    logs, run = xs.translate(_LOG0), EXP[:255] * ncoef
    powers = [b"\x01" * npts]
    powers += [logs.translate(run[0 : 255 * m : m] + b"\x00") for m in range(1, ncoef)]
    columns = []
    for poly in coeffs:
        acc = 0
        for c, power in zip(poly, powers):
            acc ^= int.from_bytes(power.translate(_MUL[c]), "big")
        columns.append(acc.to_bytes(npts, "big"))
    flat = b"".join(columns)
    return [flat[i::npts] for i in range(npts)]


def lagrange_zero(xs: bytes, ys: Sequence[bytes]) -> bytes:
    """Interpolate ys (one vector per distinct abscissa) at x=0 by Lagrange
    basis weights.

    w[i] = prod_{j != i} x[j] / (x[i] ^ x[j]), summed in the log domain. The
    differences x[i] ^ x[j] for all j are one integer XOR, and LOG[0] = 0
    drops the j = i term from their log sum. A weight is 0 when another
    abscissa is 0.
    """
    npts, length = len(xs), len(ys[0])
    ones, xint = int.from_bytes(b"\x01" * npts, "big"), int.from_bytes(xs, "big")
    lognum = sum(xs.translate(LOG))
    acc = 0
    for xi, y in zip(xs, ys):
        if xi and 0 in xs:
            continue
        diffs = (xint ^ xi * ones).to_bytes(npts, "big")
        w = EXP[(lognum - LOG[xi] - sum(diffs.translate(LOG))) % 255]
        acc ^= int.from_bytes(y.translate(_MUL[w]), "big")
    return acc.to_bytes(length, "big")


def neville_zero(xs: bytes, ys: Sequence[bytes]) -> bytes:
    """Interpolate ys (one vector per distinct abscissa) at x=0 by the
    Neville/Aitken recurrence.

    P[i][s] spans points i..i+s; at x=0 in characteristic 2 the update is
    P[i][s] = (x[i+s] * P[i][s-1] ^ x[i] * P[i+1][s-1]) / (x[i] ^ x[i+s]).
    The two multipliers sum to 1, so with c = x[i+s] / (x[i] ^ x[i+s]) it is
    P[i+1][s-1] ^ c * (P[i][s-1] ^ P[i+1][s-1]): one translate between two
    integer XORs. The rows are held as integers between spans.
    """
    length = len(ys[0])
    p = [int.from_bytes(y, "big") for y in ys]
    for span in range(1, len(xs)):
        mults = [_MUL[_MUL[xb][_INV[xa ^ xb]]] for xa, xb in zip(xs, xs[span:])]
        p = [int.from_bytes((a ^ b).to_bytes(length, "big").translate(c), "big") ^ b
             for a, b, c in zip(p, p[1:], mults)]
    return p[0].to_bytes(length, "big")
