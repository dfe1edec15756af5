"""Key splitting and reconstruction.

Two schemes cover the payload key:

* additive (XOR) split: every share is required, reconstruction is the
  byte-wise XOR of all of them;
* Shamir threshold sharing over GF(2^8): each secret byte gets an
  independent random polynomial of degree t-1 whose constant term is the
  byte, and share i holds the evaluations at x=i. Any t shares reconstruct
  by interpolating at x=0, either with Lagrange weights or with the
  Neville/Aitken recurrence; the two must always agree.

Secrets, shares and field vectors are plain `bytes`; the field kernels are
in `gf256`.

Randomness is injected so tests can be deterministic; callers that pass no
generator get OS entropy.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import gf256
from .gf256 import gf_inv, gf_mul

__all__ = [
    "SecretShare",
    "gf_inv",
    "gf_mul",
    "split_secret_xor",
    "split_secret_shamir",
    "reconstruct_xor",
    "reconstruct_lagrange",
    "reconstruct_neville",
]


@dataclass(frozen=True)
class SecretShare:
    """One share of a byte-string secret: abscissa x and per-byte ordinates y.

    x=0 is forbidden because the secret lives at the evaluation point 0.
    For XOR splits, x is the fragment index and y the additive share.
    """

    x: int
    y: bytes

    def __post_init__(self) -> None:
        if not 1 <= self.x <= 255:
            raise ValueError(f"share abscissa must be in 1..255, got {self.x}")
        if not isinstance(self.y, bytes):
            object.__setattr__(self, "y", bytes(self.y))


def _default_rng(rng: random.Random | None) -> random.Random:
    return rng if rng is not None else random.SystemRandom()


def _xor_all(vectors: list[bytes]) -> bytes:
    acc = 0
    for v in vectors:
        acc ^= int.from_bytes(v, "big")
    return acc.to_bytes(len(vectors[0]), "big")


def split_secret_xor(secret: bytes, k: int, rng: random.Random | None = None) -> list[SecretShare]:
    """Split into k additive shares; XOR of all ordinates equals the secret."""
    if k < 1:
        raise ValueError(f"share count must be >= 1, got {k}")
    if k > 255:
        raise ValueError(f"share count must be <= 255, got {k}")
    rng = _default_rng(rng)
    parts = [rng.randbytes(len(secret)) for _ in range(k - 1)]
    parts.append(_xor_all([secret, *parts]))
    return [SecretShare(x=i + 1, y=part) for i, part in enumerate(parts)]


def reconstruct_xor(shares: list[SecretShare]) -> bytes:
    """XOR all share ordinates back together. Caller checks share completeness."""
    _, ys = _share_points(shares)
    return _xor_all(ys)


def split_secret_shamir(
    secret: bytes, t: int, n: int, rng: random.Random | None = None
) -> list[SecretShare]:
    """Produce n shares of which any t reconstruct the secret.

    Share i is the evaluation at x=i of byte-wise degree-(t-1) polynomials
    with constant term equal to the secret and uniformly random higher
    coefficients.
    """
    if t < 1:
        raise ValueError(f"threshold must be >= 1, got {t}")
    if n > 255:
        raise ValueError(f"share count must be <= 255, got {n}")
    if t > n:
        raise ValueError(f"threshold {t} exceeds share count {n}")
    rng = _default_rng(rng)
    length = len(secret)
    raw = rng.randbytes(length * (t - 1)) if t > 1 else b""
    # Row-major draw: secret byte r's higher coefficients are raw's row r.
    coeffs = [secret[r : r + 1] + raw[r * (t - 1) : (r + 1) * (t - 1)] for r in range(length)]
    ys = gf256.eval_polys(coeffs, bytes(range(1, n + 1)))
    return [SecretShare(x=x, y=y) for x, y in enumerate(ys, start=1)]


def _share_points(shares: list[SecretShare]) -> tuple[bytes, list[bytes]]:
    if not shares:
        raise ValueError("at least one share is required")
    xs = [s.x for s in shares]
    if len(set(xs)) != len(xs):
        raise ValueError("share abscissas must be distinct")
    length = len(shares[0].y)
    if any(len(s.y) != length for s in shares):
        raise ValueError("share ordinates must all have the same length")
    return bytes(xs), [s.y for s in shares]


def reconstruct_lagrange(shares: list[SecretShare]) -> bytes:
    """Recover the secret by Lagrange interpolation at x=0 over all given shares."""
    xs, ys = _share_points(shares)
    return gf256.lagrange_zero(xs, ys)


def reconstruct_neville(shares: list[SecretShare]) -> bytes:
    """Recover the secret by the Neville/Aitken recurrence evaluated at x=0."""
    xs, ys = _share_points(shares)
    return gf256.neville_zero(xs, ys)
