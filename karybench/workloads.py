"""Workload definitions and seeded input generation.

This module does not import karychain: run.py generates every input before
it starts the set-up clock, and set-up begins with `import karychain`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import checks

# Mining timestamp of the block at height h is T0 + h, in the starting chain
# and in every round, so proof-of-work nonces depend on the seed alone.
T0 = 1_700_000_000
START_TXS_PER_BLOCK = 5
TAMPERED_SETS = ("slice-byte-flipped", "fragment-missing", "manifest-field-changed",
                 "receipt-sibling-flipped")

ALL_MIXES = tuple(
    (cls, scheme) for scheme in ("SHAMIR", "XOR_SPLIT") for cls in ("I_A", "I_B", "I_C", "II")
)


@dataclass(frozen=True)
class Spec:
    name: str
    payload_bytes: int
    k: int
    threshold: int  # Shamir threshold; XOR_SPLIT payloads always use k
    payloads: int  # payloads per round, all anchored in the round's one block
    difficulty: int
    chain_blocks: int  # blocks after genesis in the starting chain
    strategy: str
    mix: tuple[tuple[str, str], ...]  # (class, scheme) for payload j is mix[j % len]
    cli: bool  # drive the `kary` CLI in-process instead of the library
    trace_rounds: int  # fixed round count of each pass of a traced run
    interpreted: bool  # stages bound by interpreted code: timed at reference speed

    @property
    def ops_per_round(self) -> int:
        """Produce and open per payload, one anchor, one refusal per tampered set."""
        return 2 * self.payloads + 1 + len(TAMPERED_SETS)


SPECS = {
    # Payload bytes dominate: AEAD, slice hashing, partitioning, slice copies.
    # At difficulty 10 proof of work is ~40% of anchoring, the rest hashing
    # the fragments; at 14 the interpreted PoW loop carried the host's speed
    # swings into anchor_s with a seed-to-seed spread of 0.35.
    "bulk": Spec("bulk", 16 << 20, 16, 16, 1, 10, 0, "INTERLEAVE",
                 (("I_A", "SHAMIR"),), False, 2, False),
    # Costs superlinear in k dominate: interpolation, k(k-1) dependency
    # hashes, repeated parses, one Merkle tree rebuild per receipt.
    "wide": Spec("wide", 64 << 10, 255, 128, 1, 8, 0, "CONTIGUOUS",
                 (("I_A", "SHAMIR"),), False, 3, True),
    # The CLI and ledger persistence dominate: every command re-reads a
    # 2000-block chain, every gate audits it, one file per receipt.
    "notary": Spec("notary", 1024, 4, 3, 32, 8, 2000, "CONTIGUOUS", ALL_MIXES, True, 2,
                   True),
}


@dataclass(frozen=True)
class Job:
    payload: bytes
    cls: str
    scheme: str
    threshold: int
    key_seed: int  # seeds the key, nonce and share randomness of produce/split


def jobs(spec: Spec, seed: int, r: int) -> list[Job]:
    out = []
    for j in range(spec.payloads):
        cls, scheme = spec.mix[j % len(spec.mix)]
        out.append(Job(
            payload=random.Random(f"{seed}/payload/{r}/{j}").randbytes(spec.payload_bytes),
            cls=cls,
            scheme=scheme,
            threshold=spec.k if scheme == "XOR_SPLIT" else spec.threshold,
            key_seed=random.Random(f"{seed}/key/{r}/{j}").getrandbits(64),
        ))
    return out


def tamper_rng(seed: int, r: int) -> random.Random:
    return random.Random(f"{seed}/tamper/{r}")


def write_start(spec: Spec, seed: int, workspace: Path) -> None:
    """The starting workspace: a chain file of genesis plus spec.chain_blocks."""
    checks.write_chain(workspace / "ledger.jsonl", random.Random(f"{seed}/chain"),
                       spec.chain_blocks, START_TXS_PER_BLOCK, T0)
