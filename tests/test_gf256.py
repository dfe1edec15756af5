"""Field arithmetic checks against an independent shift-and-reduce oracle."""

import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from karychain import gf256
from karychain.fragments import ClassCode, KeyScheme, PartitionStrategy
from karychain.workflow import produce


def peasant_mul(a: int, b: int) -> int:
    """Russian-peasant multiply mod x^8 + x^4 + x^3 + x + 1, written from scratch."""
    result = 0
    for _ in range(8):
        if b & 1:
            result ^= a
        b >>= 1
        a <<= 1
        if a & 0x100:
            a ^= 0x11B
    return result


def test_mul_zero_annihilates():
    for a in (0x00, 0x01, 0x53, 0xFF):
        assert gf256.gf_mul(a, 0x00) == 0x00
        assert gf256.gf_mul(0x00, a) == 0x00


def test_mul_one_is_identity():
    for a in range(256):
        assert gf256.gf_mul(a, 0x01) == a
        assert gf256.gf_mul(0x01, a) == a


def test_known_product():
    # Classic vector for this reduction polynomial.
    assert peasant_mul(0x57, 0x83) == 0xC1
    assert gf256.gf_mul(0x57, 0x83) == 0xC1


def test_mul_matches_oracle_exhaustively():
    for a in range(256):
        for b in range(256):
            assert gf256.gf_mul(a, b) == peasant_mul(a, b), (a, b)


def test_every_nonzero_element_has_inverse():
    for a in range(1, 256):
        inv = gf256.gf_inv(a)
        assert gf256.gf_mul(a, inv) == 1


def test_inverse_of_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        gf256.gf_inv(0)


def test_mul_rejects_out_of_range():
    with pytest.raises(ValueError):
        gf256.gf_mul(-1, 3)
    with pytest.raises(ValueError):
        gf256.gf_mul(3, 256)


@given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
def test_mul_is_commutative_and_distributive(a, b, c):
    assert gf256.gf_mul(a, b) == gf256.gf_mul(b, a)
    left = gf256.gf_mul(a, b ^ c)
    right = gf256.gf_mul(a, b) ^ gf256.gf_mul(a, c)
    assert left == right


# Reference kernels: one field operation at a time, in plain loops, on a
# product table built from `peasant_mul` alone (never from `gf256`'s tables).

REF_MUL = [[peasant_mul(a, b) for b in range(256)] for a in range(256)]
REF_INV = [0] + [REF_MUL[a].index(1) for a in range(1, 256)]


def ref_eval(coeffs: list[bytes], x: int) -> bytes:
    out = []
    for poly in coeffs:
        acc = 0
        for c in reversed(poly):
            acc = REF_MUL[acc][x] ^ c
        out.append(acc)
    return bytes(out)


def ref_lagrange(xs: bytes, ys: list[bytes]) -> bytes:
    out = [0] * len(ys[0])
    for i in range(len(xs)):
        w = 1
        for j in range(len(xs)):
            if j != i:
                w = REF_MUL[REF_MUL[w][xs[j]]][REF_INV[xs[i] ^ xs[j]]]
        for r, v in enumerate(ys[i]):
            out[r] ^= REF_MUL[w][v]
    return bytes(out)


def ref_neville(xs: bytes, ys: list[bytes]) -> bytes:
    p = [list(y) for y in ys]
    npts = len(xs)
    for span in range(1, npts):
        for i in range(npts - span):
            d = REF_INV[xs[i] ^ xs[i + span]]
            ma, mb = REF_MUL[xs[i + span]], REF_MUL[xs[i]]
            p[i] = [REF_MUL[ma[a] ^ mb[b]][d] for a, b in zip(p[i], p[i + 1])]
    return bytes(p[0])


def _random_instance(rng, npts, rows):
    xs = bytes(rng.sample(range(1, 256), npts))
    ys = [rng.randbytes(rows) for _ in range(npts)]
    return xs, ys


def _random_coeffs(rng, rows, ncoef):
    return [rng.randbytes(ncoef) for _ in range(rows)]


def test_power_basis_eval_matches_scalar_eval(rng):
    coeffs = _random_coeffs(rng, 5, 7)
    got = gf256.eval_polys(coeffs, bytes([0, 1, 2, 77, 255]))
    for point, x in enumerate((0, 1, 2, 77, 255)):
        for row in range(5):
            acc = 0
            for power, c in enumerate(coeffs[row]):
                term = c
                for _ in range(power):
                    term = peasant_mul(term, x)
                acc ^= term
            assert got[point][row] == acc


@pytest.mark.parametrize("with_zero", [False, True], ids=["nonzero", "with-zero"])
def test_interpolators_match_reference_loops(rng, with_zero):
    # Sizes up to 255 points; an abscissa of 0 returns that point's ordinate.
    for npts in [1, 2, 3, 8, 255] + [rng.randint(1, 64) for _ in range(30)]:
        xs, ys = _random_instance(rng, npts, rng.randint(1, 33))
        if with_zero:
            zero = rng.randrange(npts)
            xs = xs[:zero] + b"\x00" + xs[zero + 1 :]
        lag = gf256.lagrange_zero(xs, ys)
        nev = gf256.neville_zero(xs, ys)
        assert lag == ref_lagrange(xs, ys), npts
        assert nev == ref_neville(xs, ys), npts
        assert lag == nev, npts
        if with_zero:
            assert lag == ys[zero]


def test_kernels_leave_inputs_untouched(rng):
    xs, ys = _random_instance(rng, 9, 5)
    ys = [bytearray(y) for y in ys]
    before = [bytes(y) for y in ys]
    held = list(ys)
    gf256.lagrange_zero(xs, ys)
    gf256.neville_zero(xs, ys)
    assert ys == before
    assert all(a is b for a, b in zip(ys, held))
    coeffs = [bytearray(c) for c in _random_coeffs(rng, 4, 6)]
    coeffs_before = [bytes(c) for c in coeffs]
    gf256.eval_polys(coeffs, xs)
    assert coeffs == coeffs_before


def test_eval_matches_reference_loops(rng):
    for _ in range(50):
        coeffs = _random_coeffs(rng, rng.randint(1, 40), rng.randint(1, 129))
        xs = bytes(rng.sample(range(256), rng.randint(1, 6)))
        got = gf256.eval_polys(coeffs, xs)
        assert got == [ref_eval(coeffs, x) for x in xs]


def test_eval_at_array_equals_scalar_calls(rng):
    for ncoef in (1, 2, 8, 128):
        coeffs = _random_coeffs(rng, 32, ncoef)
        got = gf256.eval_polys(coeffs, bytes(range(256)))
        assert len(got) == 256
        for x in range(256):
            assert got[x] == gf256.eval_polys(coeffs, bytes([x]))[0]
    coeffs = _random_coeffs(rng, 3, 4)
    assert gf256.eval_polys(coeffs, b"") == []
    assert gf256.eval_polys(coeffs, b"\x05") == [ref_eval(coeffs, 5)]
    assert gf256.eval_polys([], b"\x01\x02") == [b"", b""]


def test_interpolation_inverts_evaluation(rng):
    # Sample polynomials, evaluate at distinct points, interpolate back at 0.
    for _ in range(25):
        rows = rng.randint(1, 16)
        degree = rng.randint(0, 7)
        coeffs = _random_coeffs(rng, rows, degree + 1)
        xs = bytes(rng.sample(range(1, 256), degree + 1))
        ys = gf256.eval_polys(coeffs, xs)
        secret = bytes(poly[0] for poly in coeffs)
        assert gf256.lagrange_zero(xs, ys) == secret
        assert gf256.neville_zero(xs, ys) == secret


def test_import_leaves_numpy_out():
    src = str(Path(gf256.__file__).resolve().parent.parent)
    code = (
        "import sys, karychain, karychain.cli; "
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'numpy'))"
    )
    res = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


# SHA-256 over the manifest's canonical bytes, then each blob's SHA-256, from
# the per-point Horner loop that `split_secret_shamir` used before the
# array-point `eval_polys`.
PRODUCE_GOLDEN = {
    4: "f5144dc72fc946e40078d3284fb4b63d77a566819641457749fda4bb56dccaf2",
    16: "4122050f4b6d627b30f8d9134736693a440774075ab33a77585e7d7f6a913f7a",
    255: "fde0488d2b00b876cd4db8896c22610683e409efc1e06c1bbed5aba876f063ff",
}


@pytest.mark.parametrize(
    "k,t,class_code,strategy",
    [
        (4, 3, ClassCode.I_A, PartitionStrategy.INTERLEAVE),
        (16, 9, ClassCode.I_C, PartitionStrategy.CONTIGUOUS),
        (255, 128, ClassCode.I_A, PartitionStrategy.INTERLEAVE),
    ],
)
def test_seeded_produce_is_unchanged(k, t, class_code, strategy):
    manifest, blobs = produce(
        bytes(range(256)) * 40, k, t, class_code, KeyScheme.SHAMIR, strategy,
        rng=random.Random(1000 + k), partition_seed=7,
    )
    h = hashlib.sha256(manifest.canonical_bytes())
    for blob in blobs:
        h.update(hashlib.sha256(blob).digest())
    assert h.hexdigest() == PRODUCE_GOLDEN[k]
