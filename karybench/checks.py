"""Independent readers and checkers for karychain's documented formats.

Nothing here imports karychain: fragments, blocks, receipts and activation
traces are re-read from the layouts documented in the repository README
(fragment wire format, 89-byte block header, canonical-JSON chain lines,
Merkle trees that promote an odd trailing node) and verified with hashlib
alone. The same module writes the starting chain file of a workload, so that
generating inputs needs no program code either.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

MAGIC = b"KARY"
CLASS_NAMES = {0: "I_A", 1: "I_B", 2: "I_C", 3: "II"}
ZERO32 = bytes(32)


class CheckError(AssertionError):
    """An output of the program disagrees with the independent computation."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


# ---------------------------------------------------------------------------
# Fragment layout: magic "KARY", version u8, index u8, k u8, class u8,
# share_x u8, share_len u32, share, slice_len u32, slice, dep_count u8,
# dep_count 32-byte digests (big-endian).


def read_fragment(blob: bytes) -> dict:
    require(blob[:4] == MAGIC, "fragment magic")
    version, index, k, class_byte, share_x = blob[4:9]
    require(version == 1, "fragment version")
    (share_len,) = struct.unpack_from(">I", blob, 9)
    pos = 13 + share_len
    (slice_len,) = struct.unpack_from(">I", blob, pos)
    slice_at = pos + 4
    pos = slice_at + slice_len
    dep_count = blob[pos]
    deps = [blob[pos + 1 + 32 * i : pos + 33 + 32 * i] for i in range(dep_count)]
    require(pos + 1 + 32 * dep_count == len(blob), "fragment length")
    return {
        "index": index,
        "k": k,
        "class": CLASS_NAMES[class_byte],
        "share_x": share_x,
        "slice_at": slice_at,
        "slice": blob[slice_at : slice_at + slice_len],
        "deps": deps,
    }


def unpartition(slices: list[bytes], strategy: str) -> bytes:
    if strategy == "CONTIGUOUS":
        return b"".join(slices)
    out = bytearray(sum(len(s) for s in slices))
    for i, s in enumerate(slices):
        out[i :: len(slices)] = s
    return bytes(out)


def check_fragment_set(
    blobs: list[bytes], manifest: dict, payload: bytes, class_name: str
) -> list[dict]:
    """Slices and payload hash to the manifest's digests; deps name real slices."""
    frags = [read_fragment(b) for b in blobs]
    k = manifest["k"]
    require(manifest["class_code"] == class_name, "manifest class")
    require([f["index"] for f in frags] == list(range(1, k + 1)), "fragment indices")
    digests = [sha256(f["slice"]) for f in frags]
    require([d.hex() for d in digests] == manifest["slice_digests"], "slice digests")
    require(sha256(payload).hex() == manifest["plaintext_digest"], "plaintext digest")
    ciphertext = unpartition([f["slice"] for f in frags], manifest["partition_strategy"])
    require(sha256(ciphertext).hex() == manifest["ciphertext_digest"], "ciphertext digest")
    for f in frags:
        require(f["k"] == k and f["class"] == class_name and f["share_x"] == f["index"],
                "fragment header")
        if class_name == "I_A":
            refs = [j for j in range(1, k + 1) if j != f["index"]]
        elif class_name == "I_C" and f["index"] < k:
            refs = [f["index"] + 1]
        else:
            refs = []
        require(f["deps"] == [digests[j - 1] for j in refs], "dependency digests")
    return frags


# ---------------------------------------------------------------------------
# Merkle tree (odd trailing node promoted unchanged) and block headers.


def merkle_root(leaves: list[bytes]) -> bytes:
    if not leaves:
        return ZERO32
    level = list(leaves)
    while len(level) > 1:
        nxt = [sha256(level[i] + level[i + 1]) for i in range(0, len(level) - 1, 2)]
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return level[0]


def apply_path(leaf: bytes, path: list[tuple[bytes, str]]) -> bytes:
    node = leaf
    for sibling, side in path:
        require(side in ("LEFT", "RIGHT"), "path side")
        node = sha256(node + sibling) if side == "RIGHT" else sha256(sibling + node)
    return node


def header(block: dict) -> bytes:
    out = (
        struct.pack(">Q", block["height"])
        + bytes.fromhex(block["prev_hash"])
        + bytes.fromhex(block["merkle_root"])
        + struct.pack(">QBQ", block["timestamp"], block["difficulty"], block["nonce"])
    )
    require(len(out) == 89, "header length")
    return out


def block_hash(block: dict) -> bytes:
    return sha256(sha256(header(block)))


def leading_zero_bits(digest: bytes) -> int:
    return 256 - int.from_bytes(digest, "big").bit_length()


def read_chain(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="ascii").splitlines()]


def check_block(block: dict, prev: dict, height: int) -> bytes:
    """Header hash meets the difficulty, links to prev, roots the tx list."""
    require(block["height"] == height, "block height")
    require(block["prev_hash"] == block_hash(prev).hex(), "block link")
    txs = [bytes.fromhex(d) for d in block["tx_digests"]]
    require(block["merkle_root"] == merkle_root(txs).hex(), "block merkle root")
    bh = block_hash(block)
    require(leading_zero_bits(bh) >= block["difficulty"], "block difficulty")
    return bh


def check_receipt(receipt: dict, block: dict, expected_digest: bytes) -> None:
    """Replay a receipt's path to the block's root (which check_block recomputes)."""
    target = bytes.fromhex(receipt["target_digest"])
    require(target == expected_digest, "receipt target")
    require(receipt["block_height"] == block["height"], "receipt height")
    require(receipt["block_hash"] == block_hash(block).hex(), "receipt block hash")
    require(receipt["merkle_root"] == block["merkle_root"], "receipt merkle root")
    path = [(bytes.fromhex(s["sibling"]), s["side"]) for s in receipt["merkle_path"]]
    require(apply_path(target, path).hex() == block["merkle_root"], "receipt path replay")
    require(receipt["anchor_timestamp"] == block["timestamp"], "receipt timestamp")


def check_block_round(
    blocks: list[dict], height: int, difficulty: int, timestamp: int,
    digests: list[bytes], receipts: dict[bytes, dict],
) -> int:
    """The round's block anchors exactly its digests; returns its PoW attempts."""
    block = blocks[height]
    check_block(block, blocks[height - 1], height)
    require(block["difficulty"] == difficulty and block["timestamp"] == timestamp,
            "block difficulty or timestamp")
    require(block["tx_digests"] == [d.hex() for d in digests], "block tx digests")
    require(len(blocks) == height + 1, "one block per round")
    for d in digests:
        check_receipt(receipts[d], block, d)
    return block["nonce"] + 1


def check_trace(events: list[dict], k: int, class_name: str) -> None:
    """k activations: index order for class I, full overlap for class II."""
    require(len(events) == k, "activation count")
    require(all(e["start"] < e["end"] for e in events), "activation ticks")
    if class_name == "II":
        require(sorted(e["index"] for e in events) == list(range(1, k + 1)), "II indices")
        require(max(e["start"] for e in events) < min(e["end"] for e in events),
                "II rendezvous")
    else:
        require([e["index"] for e in events] == list(range(1, k + 1)), "class I order")
        require(all(a["end"] < b["start"] for a, b in zip(events, events[1:])),
                "class I sequencing")


# ---------------------------------------------------------------------------
# Starting chain, written with the documented encoding.


def genesis() -> dict:
    return {
        "difficulty": 0, "height": 0, "merkle_root": ZERO32.hex(), "nonce": 0,
        "prev_hash": ZERO32.hex(), "timestamp": 0, "tx_digests": [],
    }


def write_chain(path: Path, rng, n_blocks: int, txs_per_block: int, t0: int) -> int:
    """Genesis plus n difficulty-0 blocks of random digests; returns the height."""
    blocks = [genesis()]
    for h in range(1, n_blocks + 1):
        txs = [rng.randbytes(32) for _ in range(txs_per_block)]
        blocks.append({
            "difficulty": 0, "height": h, "merkle_root": merkle_root(txs).hex(), "nonce": 0,
            "prev_hash": block_hash(blocks[-1]).hex(), "timestamp": t0 + h,
            "tx_digests": [d.hex() for d in txs],
        })
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(canonical(b) + "\n" for b in blocks), encoding="ascii")
    return n_blocks
