"""Merkle tree, proof-of-work chain, receipts, and persistence tests."""

import dataclasses
import errno
import hashlib
import random
import shutil
import struct
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from karychain import ledger as ledger_module
from karychain.cli import main as cli_main

from karychain.canonical import CanonicalJsonError, canonical_bytes, canonical_dumps
from karychain.ledger import (
    GENESIS,
    AnchorReceipt,
    Block,
    Chain,
    DuplicatePendingError,
    EmptyPoolError,
    Ledger,
    LedgerError,
    Pool,
    ReceiptStore,
    apply_merkle_path,
    block_hash,
    merkle_path_of,
    merkle_root_of,
)

GENESIS_HASH_HEX = "a2c62becebd6b1ebd7a40874e0456935c914db5b379d54c600e220cb7f7388e8"


def h(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def leaves(n: int) -> list[bytes]:
    return [h(bytes([i])) for i in range(n)]


def reference_path(leaves: list[bytes], index: int) -> list[tuple[bytes, str]]:
    """The path as the tree's definition gives it: rebuild every level for one leaf."""
    path = []
    level = list(leaves)
    while len(level) > 1:
        if index % 2 == 0:
            if index + 1 < len(level):
                path.append((level[index + 1], "RIGHT"))
        else:
            path.append((level[index - 1], "LEFT"))
        nxt = [h(level[i] + level[i + 1]) for i in range(0, len(level) - 1, 2)]
        if len(level) % 2 == 1:
            nxt.append(level[-1])
        level = nxt
        index //= 2
    return path


class TestMerkle:
    def test_empty_roots_to_zero(self):
        assert merkle_root_of([]) == bytes(32)

    def test_single_leaf_is_root(self):
        (leaf,) = leaves(1)
        assert merkle_root_of([leaf]) == leaf
        assert merkle_path_of([leaf], 0) == []

    def test_two_leaves(self):
        d1, d2 = leaves(2)
        assert merkle_root_of([d1, d2]) == h(d1 + d2)
        assert merkle_path_of([d1, d2], 0) == [(d2, "RIGHT")]
        assert merkle_path_of([d1, d2], 1) == [(d1, "LEFT")]

    def test_odd_leaf_promotes(self):
        d1, d2, d3 = leaves(3)
        assert merkle_root_of([d1, d2, d3]) == h(h(d1 + d2) + d3)
        # the promoted node's path skips the promotion level
        assert merkle_path_of([d1, d2, d3], 2) == [(h(d1 + d2), "LEFT")]

    def test_all_paths_verify_up_to_64_leaves(self):
        for n in range(1, 65):
            ls = leaves(n)
            root = merkle_root_of(ls)
            for i in range(n):
                path = merkle_path_of(ls, i)
                assert apply_merkle_path(ls[i], path) == root, (n, i)

    def test_any_path_mutation_fails(self):
        ls = leaves(13)
        root = merkle_root_of(ls)
        for i in range(13):
            path = merkle_path_of(ls, i)
            for step in range(len(path)):
                sibling, side = path[step]
                bad_sib = path[:step] + [(h(sibling), side)] + path[step + 1 :]
                assert apply_merkle_path(ls[i], bad_sib) != root
                flipped = "LEFT" if side == "RIGHT" else "RIGHT"
                bad_side = path[:step] + [(sibling, flipped)] + path[step + 1 :]
                # flipping the side of a self-symmetric step cannot collide
                assert apply_merkle_path(ls[i], bad_side) != root

    def test_paths_from_one_tree_match_the_reference(self, rng):
        # every leaf up to 100 leaves, then the edges and a random sample
        # (the per-leaf reference is quadratic in the leaf count)
        for n in range(1, 301):
            ls = [h(i.to_bytes(2, "big")) for i in range(n)]
            levels = ledger_module._merkle_levels(ls)
            assert levels[-1] == [merkle_root_of(ls)]
            if n <= 100:
                indices = range(n)
            else:
                indices = {0, 1, n // 2, n - 2, n - 1, *rng.sample(range(n), 4)}
            for i in indices:
                expected = reference_path(ls, i)
                assert ledger_module._path_in(levels, i) == expected, (n, i)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            merkle_path_of(leaves(3), 3)
        with pytest.raises(ValueError):
            merkle_path_of(leaves(3), -1)


class TestBlockHash:
    def test_header_is_89_bytes(self):
        assert len(GENESIS.header()) == 89

    def test_genesis_golden_vector(self):
        assert block_hash(GENESIS).hex() == GENESIS_HASH_HEX

    def test_header_matches_field_by_field_packing(self, rng):
        for _ in range(200):
            block = Block(
                height=rng.randrange(2**64),
                prev_hash=rng.randbytes(32),
                merkle_root=rng.randbytes(32),
                timestamp=rng.randrange(2**64),
                difficulty=rng.randrange(256),
                nonce=rng.randrange(2**64),
                tx_digests=(),
            )
            head = struct.pack(">Q", block.height)
            tail = struct.pack(">QBQ", block.timestamp, block.difficulty, block.nonce)
            assert block.header() == head + block.prev_hash + block.merkle_root + tail

    def test_hash_depends_on_every_field(self):
        base = Block(
            height=3,
            prev_hash=h(b"p"),
            merkle_root=h(b"m"),
            timestamp=1_700_000_000,
            difficulty=8,
            nonce=42,
            tx_digests=(h(b"t"),),
        )
        variants = [
            Block(4, base.prev_hash, base.merkle_root, base.timestamp, base.difficulty,
                  base.nonce, base.tx_digests),
            Block(3, h(b"q"), base.merkle_root, base.timestamp, base.difficulty,
                  base.nonce, base.tx_digests),
            Block(3, base.prev_hash, h(b"n"), base.timestamp, base.difficulty,
                  base.nonce, base.tx_digests),
            Block(3, base.prev_hash, base.merkle_root, base.timestamp + 1, base.difficulty,
                  base.nonce, base.tx_digests),
            Block(3, base.prev_hash, base.merkle_root, base.timestamp, 9,
                  base.nonce, base.tx_digests),
            Block(3, base.prev_hash, base.merkle_root, base.timestamp, base.difficulty,
                  43, base.tx_digests),
        ]
        assert block_hash(base) == block_hash(base)
        for other in variants:
            assert block_hash(other) != block_hash(base)


class TestMining:
    def test_submit_then_mine_yields_verifying_receipt(self):
        ledger = Ledger(difficulty=8)
        digest = h(b"doc")
        ledger.submit_anchor(digest)
        block, (receipt,) = ledger.mine_block(now=1000)
        assert ledger.verify_receipt(digest, receipt)
        assert block.height == 1

    def test_duplicate_pending_rejected(self):
        ledger = Ledger(difficulty=0)
        ledger.submit_anchor(h(b"x"))
        with pytest.raises(DuplicatePendingError):
            ledger.submit_anchor(h(b"x"))

    def test_reanchor_after_mining_accepted(self):
        ledger = Ledger(difficulty=0)
        ledger.submit_anchor(h(b"x"))
        ledger.mine_block(now=1)
        ledger.submit_anchor(h(b"x"))
        block, (receipt,) = ledger.mine_block(now=2)
        assert block.height == 2
        assert ledger.verify_receipt(h(b"x"), receipt)

    def test_mine_empty_pool_errors(self):
        ledger = Ledger(difficulty=0)
        with pytest.raises(EmptyPoolError):
            ledger.mine_block(now=1)

    def test_difficulty_zero_accepts_nonce_zero(self):
        ledger = Ledger(difficulty=0)
        ledger.submit_anchor(h(b"x"))
        block, _ = ledger.mine_block(now=1)
        assert block.nonce == 0

    def test_difficulty_eight_zeroes_first_byte(self):
        ledger = Ledger(difficulty=8)
        ledger.submit_anchor(h(b"x"))
        block, _ = ledger.mine_block(now=1)
        assert block_hash(block)[0] == 0x00

    def test_four_digests_four_receipts(self):
        ledger = Ledger(difficulty=8)
        digests = [h(bytes([i])) for i in range(4)]
        for d in digests:
            ledger.submit_anchor(d)
        block, receipts = ledger.mine_block(now=7)
        assert len(receipts) == 4
        assert block.tx_digests == tuple(digests)
        for d, r in zip(digests, receipts):
            assert ledger.verify_receipt(d, r)

    def test_malformed_digest_rejected(self):
        ledger = Ledger(difficulty=0)
        with pytest.raises(ValueError):
            ledger.submit_anchor(b"too short")

    def test_mining_is_append_only(self, rng):
        ledger = Ledger(difficulty=4)
        snapshots = []
        for i in range(5):
            ledger.submit_anchor(rng.randbytes(32))
            ledger.mine_block(now=i + 1)
            snapshots.append([block_hash(b) for b in ledger.blocks])
        for earlier, later in zip(snapshots, snapshots[1:]):
            assert later[: len(earlier)] == earlier

    def test_expected_attempts_track_difficulty(self, rng):
        # attempts = nonce + 1; the mean should sit within x4 of 2^difficulty
        for difficulty, trials in ((4, 64), (8, 48), (10, 24)):
            ledger = Ledger(difficulty=difficulty)
            attempts = []
            for i in range(trials):
                ledger.submit_anchor(rng.randbytes(32))
                block, _ = ledger.mine_block(now=i + 1)
                attempts.append(block.nonce + 1)
            mean = sum(attempts) / len(attempts)
            assert 2**difficulty / 4 <= mean <= 2**difficulty * 4, (difficulty, mean)


class TestBatchSubmit:
    """`submit_anchor(digest, *more)`: in order, one pool write, all or none."""

    A, B, C = h(b"a"), h(b"b"), h(b"c")

    @pytest.fixture
    def pool_writes(self, monkeypatch):
        writes = []
        original = ledger_module.write_file

        def counting(path, data):
            writes.append(path.name)
            return original(path, data)

        monkeypatch.setattr(ledger_module, "write_file", counting)
        return writes

    def test_batch_returns_first_position_with_one_write(self, tmp_path, pool_writes):
        pending = tmp_path / "pending.json"
        ledger = Ledger(pending_path=pending, difficulty=0)
        ledger.submit_anchor(h(b"earlier"))
        pool_writes.clear()
        assert ledger.submit_anchor(self.A, self.B, self.C) == 1
        assert pool_writes == ["pending.json"]
        assert ledger.pending == (h(b"earlier"), self.A, self.B, self.C)

    @pytest.mark.parametrize(
        "batch", [("B", "C", "B"), ("B", "A")], ids=["listed-twice", "already-pending"]
    )
    def test_duplicate_in_batch_changes_nothing(self, tmp_path, pool_writes, batch):
        pending = tmp_path / "pending.json"
        ledger = Ledger(pending_path=pending, difficulty=0)
        ledger.submit_anchor(self.A)
        before = pending.read_bytes()
        pool_writes.clear()
        with pytest.raises(DuplicatePendingError):
            ledger.submit_anchor(*(getattr(self, name) for name in batch))
        assert ledger.pending == (self.A,)
        assert pending.read_bytes() == before
        assert pool_writes == []
        assert ledger.submit_anchor(self.B, self.C) == 1

    def test_malformed_digest_in_batch_changes_nothing(self, tmp_path):
        pending = tmp_path / "pending.json"
        ledger = Ledger(pending_path=pending, difficulty=0)
        with pytest.raises(ValueError):
            ledger.submit_anchor(self.A, b"too short")
        assert ledger.pending == ()
        assert not pending.exists()

    def test_failed_pool_write_leaves_the_pool_in_memory(self, tmp_path):
        ledger = Ledger(pending_path=tmp_path / "pool-is-a-dir", difficulty=0)
        (tmp_path / "pool-is-a-dir").mkdir()
        with pytest.raises(OSError):
            ledger.submit_anchor(self.A, self.B)
        assert ledger.pending == ()

    def test_batch_pool_file_matches_one_at_a_time(self, tmp_path):
        digests = [h(b"digest-%d" % i) for i in range(40)]
        one_by_one = Ledger(pending_path=tmp_path / "one.json", difficulty=0)
        for d in digests:
            one_by_one.submit_anchor(d)
        batched = Ledger(pending_path=tmp_path / "batch.json", difficulty=0)
        batched.submit_anchor(*digests)
        assert (tmp_path / "batch.json").read_bytes() == (tmp_path / "one.json").read_bytes()
        assert batched.pending == one_by_one.pending


# (pool size, difficulty, nonce, block hash, SHA-256 of every receipt's
# canonical JSON in pool order, SHA-256 of the block's chain line), computed
# with a miner that built a validated Block per nonce and rebuilt the Merkle
# tree per receipt, and with hand-written JSON codecs for blocks and receipts
GOLDEN_BLOCKS = [
    (1, 0, 0, "33fb7ab433a114781f4dd1f8837e8571175b6f8329fbb1557b861fcdb46a54e4", "3953786f5608db5612c8e62bf72b16d8842c0e11aa5b78b9b619e4e4c0b37be7", "645051f4a2817e9f001ca17f6946f1aaa1d944c3319bc6e27e1573ad00168cfc"),
    (1, 8, 348, "00a7d10f9242da2d85d228126905097d5142fa646bf68898078bb85c22ba07d2", "bf205cf045ae354182dc909cca5b5c5b26af8433aa314fa4f693cf92797105e3", "338ed7eeedcc030a22e6f3abfce9be01e07141ed0848e27a8a2abc7ae3f4331b"),
    (1, 12, 12648, "000fe986d6704d43e4ae753add083dae3c6b472b31295eaef3506c7aa1a6be0e", "448b0630cee098cbcf8cfb52a8a62beef3172daf60d49b9703ca1fc4f04a1360", "a3bc1975ba3a76c914c0069d523099ec9e2cba897d0c7ab12caff348cdbbbf16"),
    (2, 0, 0, "d95d74ba9e1af48af150b8487341e3b86c66a86dbb0277b982b49d10f4e2ff19", "1c7822eece9fdec9e1c53aed84bd6bd3e1612392d538ee906a3c67cbe38465c6", "109f18c467d24aca23816590140d9a1a70095e2e9b25eca2567c9b56935ea093"),
    (2, 8, 345, "00f7570e07ea85d67a998f0c87003a04bff1dc2e79e0e57921626f95bd6ddbac", "e2accaa29678e44362c20693287b4dab7c16046ed7cf6c75d1c896aed0c2a9ac", "b59d589c09e67fce0e902ee64e4b699f5822aa24e700af0630bda86ccc4dd218"),
    (2, 12, 5374, "000f42d31cb0a0e939f083514971c2f699e07897395fe22314166ce1f5169ca8", "212d7277baefd84c4b51bbcc00dd9a1adef67057eaa38f6a7b840cd7b645737b", "25bf105e5d080195f61f9285b95877dda9effcf95988b0fc12b29f186e4aaaec"),
    (3, 0, 0, "317421b76f0b89a235eaccec02a1c89f9eeb00ef8a528d1ec6a6851e7ee1e7df", "63057c592b5ba39d47cf2ec43ffacda63f2360fc82b9c8d8a5e230a1f10f9147", "752c4134b4cfdb13877cccfdb2a7a51fd8680d9b2c9841a106b641b5953694b3"),
    (3, 8, 484, "00765acf8f6b9e3832fad0231eec33dd2ab991b84ddb6c905d7775e48c8fc97f", "930ae1604ab8ae69fd18e67cadd98c952b57b401cadf9a05fdc76a4ac0799493", "53c294b380bd67b29a203bbd7c2e6823a762f7722c9ca741c1ed4c32b18b30b9"),
    (3, 12, 3830, "0002357146c28ece15f07527953daf43d4fad01d83d6f5a49c55f0101929ab2d", "2153798c605ddec26607fa7310d98dd7610531c05eb3cac5a3c8b31eb364fd94", "11cd644e1303261c8fb856b6123064a9fe0c0329d302d34c65c5bce29260068b"),
    (17, 0, 0, "dcd1a26650911ef354f89a7902715fd1f1c489156002d211292b0d327f3da945", "7c5e5279bfd77e62ac2dbf69bf74f80dd12f7739999d363e8cd7e4d76ed49a02", "48663e43040006be0c74b4566b2485a9afd774f7f3e83fb7473f0a0518c16af7"),
    (17, 8, 1191, "0012b602c30883703febce00036438162a0946a735534a4a7c94fa8b56e4bee4", "961bc47d8eacf085504a41d9e57e5b9932b31290d1102b1b3194e5e1d588b026", "cc4158974c70bf714383896f350c611be45c21c7989dc2028f3f06c869e2220d"),
    (17, 12, 3179, "000978903a928768c73a642a23b6f09f2102cd0fd8f257e7e20e7cca5f6c0722", "a856a5395104b151d4042fc8ecb120a53acc71f51b14282709d72ae5c02c3500", "3d5fe6f0d4f696b6d1eec454e5afe4634834d4c2cf4d65b0c55a4e20d4011f7a"),
    (160, 0, 0, "832521a2d02b54b3cd37f84978d4c5036e75bdf6f2acfba16852244a016b3c25", "97b893c60914566f933367d7083abcfa55a1ff86db7650ba2569bc433a166e80", "82a4c8c541f091e3a033016106ac7892fffc5b844c7e42145ad84aaeffa3bbe5"),
    (160, 8, 1672, "0061c00d3699d0052ec6714a965120bcce1724338efdffea39ef11838919ffa7", "c7a66fa663df373bbcfcd257cc3173e8f7829989a2b5bd675f31c0ff5faab4fd", "990e14abf7a44e2a8d6631c438a4802cade5a1fc7d38f1b5756020aee5a7a2bd"),
    (160, 12, 325, "00002c9819129d29e0e6113c39639af1d5ef0c26ea3b0b79f20b6ff470716135", "84e99ade9e03e10d8f9d1149ef12f0c00f4d9dc99b7e5a68f165323e1e4cec8c", "de9efc37f93046eb18f28bc2d4c7cb31229711029dca48ae5d6e721e684fb718"),
    (256, 0, 0, "69a7868d3027936e9e78b9faacb879e2609d0fd6bf527363f93eb44726492240", "ea635ad7c38e9248b05fb65d5b72e1f51f017b71891a03209e1025e715981a73", "2f5509472dd4e44553fb78190def6cd06b1370c6f8f0667e1cc33304176be7aa"),
    (256, 8, 359, "00a5dcd13ffe09683d48ce263b83b3dbffe279631ecaafe8dbc5352a33a3b024", "8c40054e4d31601f0c50034ab531d9c2e4c098ccef1782ff3b93e65fd78866b8", "1eace936ca0586829e4c81259ff676062e68e2bc2e1f0bb5c8f8835ea0045f89"),
    (256, 12, 1908, "000f1095ea29091db985e86a53d6fa8e6fa048385730b617f39205e35d909f0b", "31f54e89adecb93a0ad1d73f4220326710bcb0e2d7139c39270a5eef7b123d3d", "8e6e7902ea982b6178b1c92a12ab348f2f87c7b80d049f59fc47f325cbd38986"),
]


@pytest.mark.parametrize(
    "n, difficulty, nonce, block_hex, receipts_hex, line_hex",
    GOLDEN_BLOCKS,
    ids=[f"{n}tx-d{d}" for n, d, *_ in GOLDEN_BLOCKS],
)
def test_mined_block_and_receipts_are_pinned(
    tmp_path, n, difficulty, nonce, block_hex, receipts_hex, line_hex
):
    chain = tmp_path / "chain.jsonl"
    ledger = Ledger(path=chain, difficulty=difficulty)
    for i in range(n):
        ledger.submit_anchor(h(b"golden-%d" % i))
    block, receipts = ledger.mine_block(now=1_700_000_000 + n)
    assert block.nonce == nonce
    assert block_hash(block).hex() == block_hex
    joined = b"".join(canonical_bytes(r.to_json_dict()) for r in receipts)
    assert h(joined).hex() == receipts_hex
    line = chain.read_bytes().split(b"\n")[1] + b"\n"
    assert h(line).hex() == line_hex
    assert ledger.validate_chain()


def _second_block_at_height_1(ledger, digest, receipt):
    """Append a copy of block 1 to the stored chain, which fails its audit."""
    ledger._blocks.append(ledger._blocks[1])
    return digest, receipt


class TestVerifyReceipt:
    def _setup(self):
        ledger = Ledger(difficulty=8)
        digests = [h(bytes([i])) for i in range(5)]
        for d in digests:
            ledger.submit_anchor(d)
        _, receipts = ledger.mine_block(now=99)
        return ledger, digests, receipts

    def test_genuine_receipts_verify(self):
        ledger, digests, receipts = self._setup()
        for d, r in zip(digests, receipts):
            result = ledger.verify_receipt(d, r)
            assert result.ok and result.reason is None

    def test_flipped_digest_fails(self):
        ledger, digests, receipts = self._setup()
        bad = bytes([digests[0][0] ^ 0x01]) + digests[0][1:]
        result = ledger.verify_receipt(bad, receipts[0])
        assert not result
        assert result.reason == "target-mismatch"

    def test_receipt_against_wrong_digest_fails(self):
        ledger, digests, receipts = self._setup()
        assert not ledger.verify_receipt(digests[1], receipts[0])

    def test_tx_list_alteration_detected(self):
        # same receipt replayed against a ledger whose block carries a
        # different transaction set
        ledger, digests, receipts = self._setup()
        other = Ledger(difficulty=8)
        for d in digests[:-1]:
            other.submit_anchor(d)
        other.submit_anchor(h(b"intruder"))
        other.mine_block(now=99)
        result = other.verify_receipt(digests[0], receipts[0])
        assert not result
        assert result.reason in ("block-hash-mismatch", "merkle-root-mismatch", "path-mismatch")

    def test_timestamp_mismatch_detected(self):
        ledger, digests, receipts = self._setup()
        r = receipts[0]
        forged = AnchorReceipt(
            target_digest=r.target_digest,
            block_height=r.block_height,
            block_hash=r.block_hash,
            merkle_root=r.merkle_root,
            merkle_path=r.merkle_path,
            anchor_timestamp=r.anchor_timestamp + 1,
        )
        result = ledger.verify_receipt(digests[0], forged)
        assert not result
        assert result.reason == "timestamp-mismatch"

    def test_unknown_height_fails(self):
        ledger, digests, receipts = self._setup()
        r = receipts[0]
        forged = AnchorReceipt(
            target_digest=r.target_digest,
            block_height=7,
            block_hash=r.block_hash,
            merkle_root=r.merkle_root,
            merkle_path=r.merkle_path,
            anchor_timestamp=r.anchor_timestamp,
        )
        assert ledger.verify_receipt(digests[0], forged).reason == "no-such-block"

    def test_inner_node_receipt_refused(self):
        ledger = Ledger(difficulty=4)
        d = leaves(4)
        for digest in d:
            ledger.submit_anchor(digest)
        block, receipts = ledger.mine_block(now=99)
        inner = h(d[0] + d[1])
        r = receipts[0]
        forged = AnchorReceipt(
            target_digest=inner,
            block_height=r.block_height,
            block_hash=r.block_hash,
            merkle_root=r.merkle_root,
            merkle_path=((h(d[2] + d[3]), "RIGHT"),),
            anchor_timestamp=r.anchor_timestamp,
        )
        assert apply_merkle_path(inner, forged.merkle_path) == block.merkle_root
        result = ledger.verify_receipt(inner, forged)
        assert not result
        assert result.reason == "not-in-block"
        assert all(ledger.verify_receipt(x, y) for x, y in zip(d, receipts))

    # reason code -> forge(ledger, digests, receipts) -> (digest, receipt); the
    # receipt is of digests[0], in block 1 of five digests
    REASONS = {
        "malformed-digest": lambda ledger, d, r: (d[0][:31], r[0]),
        "target-mismatch": lambda ledger, d, r: (d[1], r[0]),
        "path-mismatch": lambda ledger, d, r: (
            d[0], dataclasses.replace(r[0], merkle_path=r[1].merkle_path)),
        "chain-invalid": lambda ledger, d, r: _second_block_at_height_1(ledger, d[0], r[0]),
        "no-such-block": lambda ledger, d, r: (
            d[0], dataclasses.replace(r[0], block_height=2)),
        "block-hash-mismatch": lambda ledger, d, r: (
            d[0], dataclasses.replace(r[0], block_hash=bytes(32))),
        # an empty path makes the digest its own root
        "merkle-root-mismatch": lambda ledger, d, r: (
            d[0], dataclasses.replace(r[0], merkle_path=(), merkle_root=d[0])),
        "timestamp-mismatch": lambda ledger, d, r: (
            d[0], dataclasses.replace(r[0], anchor_timestamp=r[0].anchor_timestamp + 1)),
        # the inner node over d0 and d1, with its true path to the root
        "not-in-block": lambda ledger, d, r: (
            h(d[0] + d[1]),
            dataclasses.replace(
                r[0],
                target_digest=h(d[0] + d[1]),
                merkle_path=tuple(merkle_path_of([h(d[0] + d[1]), h(d[2] + d[3]), d[4]], 0)),
            ),
        ),
    }

    @pytest.mark.parametrize("reason", list(REASONS))
    def test_each_reason_code(self, reason):
        ledger, digests, receipts = self._setup()
        digest, receipt = self.REASONS[reason](ledger, digests, receipts)
        result = ledger.verify_receipt(digest, receipt)
        assert not result
        assert result.reason == reason

    def test_forged_pairs_never_verify(self, rng):
        ledger, digests, receipts = self._setup()
        for _ in range(10000):
            fake = rng.randbytes(32)
            receipt = rng.choice(receipts)
            assert not ledger.verify_receipt(fake, receipt)


class TestAuditedHashes:
    """verify_receipt reuses the block hashes of the last clean audit."""

    @pytest.fixture
    def hashed(self, monkeypatch):
        calls = []
        original = ledger_module.block_hash

        def counting(block):
            calls.append(block.height)
            return original(block)

        monkeypatch.setattr(ledger_module, "block_hash", counting)
        return calls

    @staticmethod
    def mined(rng, blocks=3, per_block=8):
        ledger = Ledger(difficulty=4)
        receipts = []
        for i in range(blocks):
            for _ in range(per_block):
                ledger.submit_anchor(rng.randbytes(32))
            receipts.append(ledger.mine_block(now=i)[1])
        return ledger, receipts

    def test_receipts_of_an_audited_block_hash_nothing(self, rng, hashed):
        ledger, receipts = self.mined(rng)
        assert ledger.validate_chain()
        hashed.clear()
        for r in receipts[1]:
            assert ledger.verify_receipt(r.target_digest, r)
        assert hashed == []

    def test_unaudited_ledger_still_hashes(self, rng, hashed):
        # the first receipt audits the whole chain, later ones reuse it
        ledger, receipts = self.mined(rng)
        hashed.clear()
        first, second = receipts[1][:2]
        assert ledger.verify_receipt(first.target_digest, first)
        assert hashed == [0, 1, 2, 3]
        hashed.clear()
        assert ledger.verify_receipt(second.target_digest, second)
        assert hashed == []

    # the receipt's block (height 2) or its predecessor, swapped for a block
    # with another nonce after the audit: the chain is audited again from
    # genesis and fails at the swapped block or at the link after it
    @pytest.mark.parametrize("height", [2, 1], ids=["receipt-block", "predecessor"])
    def test_block_swapped_after_audit_is_rehashed(self, rng, hashed, height):
        ledger, receipts = self.mined(rng)
        assert ledger.validate_chain()
        old = ledger._blocks[height]
        ledger._blocks[height] = dataclasses.replace(old, nonce=old.nonce + 1)
        hashed.clear()
        r = receipts[1][0]
        result = ledger.verify_receipt(r.target_digest, r)
        assert result.reason == "chain-invalid"
        assert hashed == list(range(height + 1))

    # a later block, the tip or not, fails the audit while the receipt's
    # own block (height 1) is untouched
    @pytest.mark.parametrize("height", [3, 2], ids=["tip", "inner"])
    @pytest.mark.parametrize("audited_first", [True, False], ids=["audited", "fresh"])
    def test_genuine_receipt_on_a_failing_chain_is_refused(self, rng, height, audited_first):
        ledger, receipts = self.mined(rng)
        if audited_first:
            assert ledger.validate_chain()
        old = ledger._blocks[height]
        ledger._blocks[height] = dataclasses.replace(old, tx_digests=(h(b"forged"),))
        for r in receipts[0]:
            assert ledger.verify_receipt(r.target_digest, r).reason == "chain-invalid"


class TestConcurrency:
    def test_concurrent_submissions_serialize(self):
        import threading

        ledger = Ledger(difficulty=0)
        digests = [h(bytes([i])) for i in range(64)]
        errors = []

        def submit(d):
            try:
                ledger.submit_anchor(d)
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=submit, args=(d,)) for d in digests]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert sorted(ledger.pending) == sorted(digests)
        block, receipts = ledger.mine_block(now=1)
        assert len(receipts) == 64
        assert all(ledger.verify_receipt(d, r) for d, r in zip(block.tx_digests, receipts))


class TestValidateChain:
    def test_genesis_alone_validates(self):
        assert Ledger(difficulty=8).validate_chain()

    def test_freshly_mined_chain_validates(self, rng):
        ledger = Ledger(difficulty=6)
        for i in range(5):
            ledger.submit_anchor(rng.randbytes(32))
            ledger.mine_block(now=i)
        assert ledger.validate_chain()
        assert [b.height for b in ledger.blocks] == [0, 1, 2, 3, 4, 5]


class TestRememberedAudit:
    """A clean audit is remembered; later audits cover only appended blocks."""

    @pytest.fixture
    def audited(self, monkeypatch):
        calls = []
        root = ledger_module.merkle_root_of

        def counting(leaves):
            calls.append(len(leaves))
            return root(leaves)

        monkeypatch.setattr(ledger_module, "merkle_root_of", counting)
        return calls

    @staticmethod
    def mined(rng, blocks, path=None):
        ledger = Ledger(path=path, difficulty=4)
        for i in range(blocks):
            ledger.submit_anchor(rng.randbytes(32))
            ledger.mine_block(now=i)
        return ledger

    def test_next_audit_covers_only_the_new_block(self, rng, audited):
        ledger = self.mined(rng, 4)
        audited.clear()
        assert ledger.validate_chain()
        assert len(audited) == 5
        ledger.submit_anchor(rng.randbytes(32))
        ledger.mine_block(now=9)
        audited.clear()
        assert ledger.validate_chain()
        assert audited == [1]
        audited.clear()
        assert ledger.validate_chain()
        assert audited == []

    # A forged tx list leaves the header, and so the tip hash, unchanged.
    @pytest.mark.parametrize("field", ["tx_digests", "merkle_root"])
    def test_replaced_tip_forces_full_audit(self, rng, audited, field):
        ledger = self.mined(rng, 4)
        assert ledger.validate_chain()
        tip = ledger._blocks[-1]
        forged = (h(b"forged"),) if field == "tx_digests" else h(b"forged")
        ledger._blocks[-1] = dataclasses.replace(tip, **{field: forged})
        audited.clear()
        assert not ledger.validate_chain()
        assert len(audited) == len(ledger._blocks)
        # blocks are only appended, so the failed verdict stands
        audited.clear()
        assert not ledger.validate_chain()
        assert audited == []
        # putting the tip back changes the audited blocks: audited afresh
        ledger._blocks[-1] = tip
        assert ledger.validate_chain()
        assert len(audited) == len(ledger._blocks)

    def test_failed_verdict_stands_over_appended_blocks(self, rng, audited):
        ledger = self.mined(rng, 4)
        old = ledger._blocks[2]
        ledger._blocks[2] = dataclasses.replace(old, tx_digests=(h(b"forged"),))
        assert not ledger.validate_chain()
        assert len(audited) == 3
        ledger.submit_anchor(rng.randbytes(32))
        ledger.mine_block(now=9)
        audited.clear()
        assert not ledger.validate_chain()
        assert audited == []

    def test_reopened_tampered_file_fails_first_audit(self, tmp_path, rng):
        path = tmp_path / "chain.jsonl"
        ledger = self.mined(rng, 3, path=path)
        assert ledger.validate_chain()
        lines = path.read_text(encoding="ascii").split("\n")
        lines[1] = lines[1].replace('"timestamp":0', '"timestamp":7')
        path.write_text("\n".join(lines), encoding="ascii")
        assert not Ledger(path=path, difficulty=4).validate_chain()
        assert ledger.validate_chain()


class TestPersistence:
    def test_reload_round_trips(self, tmp_path, rng):
        path = tmp_path / "chain.jsonl"
        ledger = Ledger(path=path, difficulty=6)
        for i in range(3):
            ledger.submit_anchor(rng.randbytes(32))
            ledger.mine_block(now=i)
        reloaded = Ledger(path=path, difficulty=6)
        assert reloaded.blocks == ledger.blocks
        assert reloaded.validate_chain()

    def test_stored_empty_block_loads_and_audits(self, tmp_path):
        # mining refuses an empty pool, but a chain may still hold empty blocks
        path = tmp_path / "chain.jsonl"
        Ledger(path=path, difficulty=0)
        empty = Block(1, block_hash(GENESIS), bytes(32), 5, 0, 0, ())
        with path.open("a", encoding="ascii") as fh:
            fh.write(ledger_module._block_line(empty))
        reloaded = Ledger(path=path, difficulty=0)
        assert reloaded.blocks == (GENESIS, empty)
        assert reloaded.validate_chain()

    def test_single_byte_mutations_detected(self, tmp_path, rng):
        path = tmp_path / "chain.jsonl"
        ledger = Ledger(path=path, difficulty=4)
        receipts = []
        for i in range(2):
            ledger.submit_anchor(rng.randbytes(32))
            _, rs = ledger.mine_block(now=i)
            receipts.extend(rs)
        raw = bytearray(path.read_bytes())
        digests = [r.target_digest for r in receipts]
        undetected = []
        for pos in range(len(raw)):
            mutated = bytearray(raw)
            mutated[pos] ^= 0x01
            path.write_bytes(bytes(mutated))
            try:
                reloaded = Ledger(path=path, difficulty=4)
            except (LedgerError, CanonicalJsonError):
                continue
            ok = reloaded.validate_chain() and all(
                reloaded.verify_receipt(d, r) for d, r in zip(digests, receipts)
            )
            if ok:
                undetected.append(pos)
        path.write_bytes(bytes(raw))
        assert undetected == []

    def test_pending_pool_survives_reopen(self, tmp_path):
        chain = tmp_path / "chain.jsonl"
        pending = tmp_path / "pending.json"
        ledger = Ledger(path=chain, pending_path=pending, difficulty=0)
        ledger.submit_anchor(h(b"queued"))
        reopened = Ledger(path=chain, pending_path=pending, difficulty=0)
        assert reopened.pending == (h(b"queued"),)
        with pytest.raises(DuplicatePendingError):
            reopened.submit_anchor(h(b"queued"))
        reopened.mine_block(now=5)
        assert Ledger(path=chain, pending_path=pending, difficulty=0).pending == ()

    def test_pending_pool_listing_a_digest_twice_is_refused(self, tmp_path):
        pending = tmp_path / "pending.json"
        digest = h(b"queued").hex()
        pending.write_text(f'["{digest}","{digest}"]', encoding="ascii")
        with pytest.raises(LedgerError, match="twice"):
            Ledger(path=tmp_path / "chain.jsonl", pending_path=pending, difficulty=0)

    def test_receipt_store_round_trip(self, tmp_path):
        ledger = Ledger(difficulty=4)
        digest = h(b"doc")
        ledger.submit_anchor(digest)
        _, (receipt,) = ledger.mine_block(now=3)
        store = ReceiptStore(tmp_path / "receipts")
        saved_path = store.save(receipt)
        assert saved_path.name == f"{digest.hex()}.receipt.json"
        assert store.load(digest) == receipt
        assert store.get(digest) == receipt
        assert store.load(h(b"missing")) is None
        assert store.get(h(b"missing")) is None

    def test_non_canonical_ledger_line_rejected(self, tmp_path):
        path = tmp_path / "chain.jsonl"
        Ledger(path=path, difficulty=0)
        text = path.read_text()
        path.write_text(text.replace(":", ": ", 1))
        with pytest.raises(LedgerError):
            Ledger(path=path, difficulty=0)


class TestChunkedLoad:
    """The chain file is parsed in chunks of whole lines, one strict parse
    per chunk, with the per-line parser for a refused chunk."""

    @pytest.fixture
    def taken(self, monkeypatch):
        """The line count of each chunk that one strict parse accepted."""
        taken = []
        parse = ledger_module._parse_chunk

        def recording(chunk, lines):
            blocks = parse(chunk, lines)
            if blocks is not None:
                taken.append(lines)
            return blocks

        monkeypatch.setattr(ledger_module, "_parse_chunk", recording)
        return taken

    @pytest.fixture
    def small_chunks(self, monkeypatch, taken):
        """Chunks of 2 KiB, a few lines each."""
        monkeypatch.setattr(ledger_module, "_CHUNK_CHARS", 2048)
        return taken

    @staticmethod
    def chain(tmp_path, rng, blocks=30, difficulty=4):
        path = tmp_path / "chain.jsonl"
        ledger = Ledger(path=path, difficulty=difficulty)
        receipts = []
        for i in range(blocks):
            for _ in range(i % 6):
                ledger.submit_anchor(rng.randbytes(32))
            if i % 6:
                receipts += ledger.mine_block(now=i)[1]
            else:
                # an empty block, as only a hand-written line can hold
                empty = Block(ledger.height + 1, block_hash(ledger._blocks[-1]),
                              bytes(32), i, 0, 0, ())
                ledger._blocks.append(empty)
                with path.open("a", encoding="ascii") as fh:
                    fh.write(ledger_module._block_line(empty))
        return path, ledger, receipts

    @staticmethod
    def lines_of(path):
        return path.read_text(encoding="ascii").split("\n")[:-1]

    def test_chunks_equal_the_per_line_parse(self, tmp_path, rng, small_chunks):
        path, ledger, _ = self.chain(tmp_path, rng)
        blocks = ledger_module._load_chain_file(path)
        assert len(small_chunks) >= 3
        assert sum(small_chunks) == len(blocks) == len(ledger.blocks)
        per_line = ledger_module._parse_lines(path.read_text(encoding="ascii")[:-1], 1)
        assert blocks == per_line == list(ledger.blocks)
        assert all(type(b.tx_digests) is tuple for b in blocks)
        assert Ledger(path=path, difficulty=4).validate_chain()

    def test_default_chunks_on_a_long_chain(self, tmp_path, rng, taken):
        path, ledger, _ = self.chain(tmp_path, rng, blocks=700, difficulty=0)
        assert path.stat().st_size > 3 * ledger_module._CHUNK_CHARS
        reloaded = Ledger(path=path, difficulty=0)
        assert len(taken) >= 3 and sum(taken) == 701
        assert reloaded.blocks == ledger.blocks
        assert ledger_module.read_tip(path) == ledger.blocks[-1]
        assert reloaded.validate_chain()

    def test_block_line_longer_than_a_chunk(self, tmp_path, rng, taken):
        path = tmp_path / "chain.jsonl"
        ledger = Ledger(path=path, difficulty=0)
        for size in (3, 1200, 2):
            ledger.submit_anchor(*(rng.randbytes(32) for _ in range(size)))
            ledger.mine_block(now=size)
        assert len(self.lines_of(path)[2]) > ledger_module._CHUNK_CHARS
        reloaded = Ledger(path=path, difficulty=0)
        assert sum(taken) == 4
        assert reloaded.blocks == ledger.blocks
        assert reloaded.validate_chain()

    def test_moved_newline_and_comma_refused(self, tmp_path, rng, small_chunks):
        # the newline ending line 3 moves into line 2's tx list, and the
        # comma it replaces to where the newline was: joined with commas,
        # the two texts are byte-identical
        path, _, _ = self.chain(tmp_path, rng)
        lines = self.lines_of(path)
        assert '","' in lines[2]
        head, tail = lines[2].split('","', 1)
        mutated = lines[:2] + [head + '"', '"' + tail + "," + lines[3]] + lines[4:]
        assert ",".join(mutated) == ",".join(lines)
        assert len(mutated) == len(lines)
        path.write_text("\n".join(mutated) + "\n", encoding="ascii")
        with pytest.raises(LedgerError, match="^ledger line 3: "):
            Ledger(path=path, difficulty=4)

    def test_two_blocks_on_one_line_refused(self, tmp_path, rng, small_chunks):
        path, _, _ = self.chain(tmp_path, rng)
        lines = self.lines_of(path)
        mutated = lines[:5] + [lines[5] + "," + lines[6]] + lines[7:]
        path.write_text("\n".join(mutated) + "\n", encoding="ascii")
        with pytest.raises(LedgerError, match="^ledger line 6: "):
            Ledger(path=path, difficulty=4)

    def test_refusal_names_the_absolute_line(self, tmp_path, rng, small_chunks):
        path, _, _ = self.chain(tmp_path, rng)
        raw = path.read_text(encoding="ascii")
        Ledger(path=path, difficulty=4)
        starts = [1]
        for lines in small_chunks:
            starts.append(starts[-1] + lines)
        assert len(starts) >= 4
        # first line, last line and a middle line of a later chunk
        for lineno in (starts[2], starts[3] - 1, (starts[2] + starts[3]) // 2):
            lines = raw.split("\n")
            lines[lineno - 1] = lines[lineno - 1].replace(":", ": ", 1)
            path.write_text("\n".join(lines), encoding="ascii")
            with pytest.raises(LedgerError, match=f"^ledger line {lineno}: "):
                Ledger(path=path, difficulty=4)

    @pytest.mark.parametrize("case", ["empty file", "blank line", "CRLF", "CR", "blank last line"])
    def test_malformed_separators_refused(self, tmp_path, rng, small_chunks, case):
        path, _, _ = self.chain(tmp_path, rng)
        lines = self.lines_of(path)
        if case == "empty file":
            text = ""
        elif case == "blank line":
            text = "\n".join(lines[:7] + [""] + lines[7:]) + "\n"
        elif case == "CRLF":
            text = "\n".join(lines[:7] + [lines[7] + "\r"] + lines[8:]) + "\n"
        elif case == "CR":
            text = "\n".join(lines[:7] + [lines[7] + "\r" + lines[8]] + lines[9:]) + "\n"
        else:
            text = "\n".join(lines) + "\n\n"
        path.write_text(text, encoding="ascii")
        with pytest.raises(LedgerError):
            Ledger(path=path, difficulty=4)

    def test_byte_flips_at_chunk_boundaries_detected(self, tmp_path, rng, small_chunks):
        path, _, receipts = self.chain(tmp_path, rng)
        raw = path.read_bytes()
        Ledger(path=path, difficulty=4)
        line_starts = [0] + [i + 1 for i, b in enumerate(raw) if b == 0x0A]
        boundary = set()
        first = 0
        for lines in small_chunks:
            boundary.update({first, first + lines - 1})
            first += lines
        positions = set()
        for line in boundary:
            start, end = line_starts[line], line_starts[line + 1]  # end: after the newline
            positions.update(range(start, min(start + 24, end)))
            positions.update(range(max(start, end - 24), end))
        positions.update(rng.randrange(len(raw)) for _ in range(200))
        undetected = []
        for pos in sorted(positions):
            mutated = bytearray(raw)
            mutated[pos] ^= 0x01
            path.write_bytes(bytes(mutated))
            try:
                reloaded = Ledger(path=path, difficulty=4)
            except LedgerError:
                continue
            if reloaded.validate_chain() and all(
                reloaded.verify_receipt(r.target_digest, r) for r in receipts
            ):
                undetected.append(pos)
        assert undetected == []


class TestLedgerMineSequence:
    """`Ledger.mine_block` runs `mine_pool` on the tip it holds in memory, and
    extends that memory with the file: wherever mining fails, the blocks in
    memory equal the chain file's, and mining again leaves every pooled
    digest with a receipt that verifies."""

    @pytest.fixture
    def workspace(self, tmp_path):
        chain, pending = tmp_path / "ledger.jsonl", tmp_path / "pending.json"
        ledger = Ledger(chain, pending, difficulty=0)
        ledger.submit_anchor(h(b"first block"))
        ledger.mine_block(now=1)
        ledger.submit_anchor(*(h(b"pooled %d" % i) for i in range(3)))
        return ledger, chain, pending

    @staticmethod
    def _fail(name):
        def failing(*args):
            raise OSError(errno.EIO, f"{name} failed")

        return failing

    @pytest.mark.parametrize("step, grows", [
        ("pool clear", True), ("block append", False),
        ("torn append", False), ("torn append flushed at close", False),
    ])
    def test_mining_again_mends_a_failed_mine(
        self, workspace, monkeypatch, tear_appends, step, grows
    ):
        ledger, chain, pending = workspace
        digests, chain_before, pool_before = ledger.pending, chain.read_bytes(), pending.read_bytes()
        if step == "pool clear":
            monkeypatch.setattr(Pool, "clear", self._fail(step))
        elif step == "block append":
            monkeypatch.setattr(ledger_module, "append_block", self._fail(step))
        else:
            # the append writes part of the line, then fails
            tear_appends(chain, flushed=step == "torn append")
        with pytest.raises(OSError):
            ledger.mine_block(now=2)
        assert ledger.blocks == Chain(chain).blocks
        assert len(ledger.blocks) == (3 if grows else 2)
        if not grows:
            assert chain.read_bytes() == chain_before
        assert pending.read_bytes() == pool_before
        monkeypatch.undo()
        _, receipts = ledger.mine_block(now=3)
        assert pending.read_bytes() == b"[]"
        reopened = Chain(chain)
        assert reopened.validate_chain()
        assert [r.target_digest for r in receipts] == list(digests)
        assert all(reopened.verify_receipt(r.target_digest, r) for r in receipts)

    def test_mines_on_the_tip_in_memory(self, workspace, file_access):
        """The tip is not read back: one append to the chain file and one
        pool write are all the file access a mine makes."""
        ledger, chain, pending = workspace
        access = file_access()
        for name in ("read_tip", "_chain_text"):
            access.watch(ledger_module, name)
        ledger.mine_block(now=2)
        assert access.calls == [("open", str(chain)), ("write_bytes", str(pending))]


class TestProofOfWorkFloor:
    """Past genesis, the audit refuses a block whose stated difficulty is
    below the ledger's floor, however well its hash meets that difficulty."""

    @staticmethod
    def forged_chain(tmp_path, rng):
        """A block genuinely mined at difficulty 16, then a hand-appended
        block that claims difficulty 0 for a forged digest."""
        path = tmp_path / "chain.jsonl"
        ledger = Ledger(path=path, difficulty=16, min_difficulty=16)
        ledger.submit_anchor(rng.randbytes(32))
        ledger.mine_block(now=1)
        forged = h(b"forged")
        block = Block(2, block_hash(ledger.blocks[-1]), merkle_root_of([forged]), 2, 0, 0,
                      (forged,))
        with path.open("a", encoding="ascii") as fh:
            fh.write(ledger_module._block_line(block))
        receipt = AnchorReceipt(forged, 2, block_hash(block), block.merkle_root, (), 2)
        return path, forged, receipt

    def test_forged_block_refused_at_the_floor_and_accepted_without_one(self, tmp_path, rng):
        path, forged, receipt = self.forged_chain(tmp_path, rng)
        floored = Ledger(path=path, difficulty=16, min_difficulty=16)
        assert not floored.validate_chain()
        assert floored.verify_receipt(forged, receipt).reason == "chain-invalid"
        unfloored = Ledger(path=path, difficulty=16)
        assert unfloored.validate_chain()
        assert unfloored.verify_receipt(forged, receipt)

    def test_genesis_is_exempt(self):
        assert Ledger(difficulty=8, min_difficulty=8).validate_chain()

    @pytest.mark.parametrize("difficulty, floor", [(4, 8), (8, 256), (8, -1), (8, True)])
    def test_ledger_below_its_floor_is_refused(self, difficulty, floor):
        with pytest.raises(ValueError):
            Ledger(difficulty=difficulty, min_difficulty=floor)


def _canonical_line(block):
    return canonical_dumps(block.to_json_dict()) + "\n"


u64_edges = st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1))
digests32 = st.binary(min_size=32, max_size=32)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.builds(
    Block,
    height=u64_edges,
    prev_hash=digests32,
    merkle_root=digests32,
    timestamp=u64_edges,
    difficulty=st.integers(0, 255),
    nonce=u64_edges,
    tx_digests=st.lists(digests32, max_size=300).map(tuple),
))
def test_block_line_template_is_the_canonical_encoding(block):
    line = ledger_module._block_line(block)
    assert line == _canonical_line(block)
    (parsed,) = ledger_module._parse_chunk(line[:-1], 1)
    assert parsed == block


def _mutation_chain() -> bytes:
    """Forty difficulty-0 blocks of 0 to 6 digests each, about 16 KiB."""
    rng = random.Random(16)
    ledger = Ledger(difficulty=0)
    for i in range(40):
        size = i % 7
        if size:
            ledger.submit_anchor(*(rng.randbytes(32) for _ in range(size)))
            ledger.mine_block(now=i)
        else:
            tip = ledger._blocks[-1]
            ledger._blocks.append(Block(tip.height + 1, block_hash(tip), bytes(32), i, 0, 0, ()))
    return "".join(map(_canonical_line, ledger.blocks)).encode("ascii")


MUTATION_CHAIN = _mutation_chain()
# where a moved byte changes the framing: line breaks, commas, quotes, brackets
STRUCTURAL = [i for i, b in enumerate(MUTATION_CHAIN) if b in b'\n,"[]{}:']
positions = st.one_of(st.integers(0, len(MUTATION_CHAIN) - 1), st.sampled_from(STRUCTURAL))


@st.composite
def mutated_chains(draw):
    raw = bytearray(MUTATION_CHAIN)
    op = draw(st.sampled_from(["flip", "insert", "delete", "swap"]))
    pos = draw(positions)
    if op == "flip":
        raw[pos] ^= draw(st.integers(1, 255))
    elif op == "insert":
        raw.insert(pos, draw(st.sampled_from(b'\n,"[]{}: 0aA') | st.integers(0, 255)))
    elif op == "delete":
        del raw[pos]
    else:
        other = draw(positions)
        raw[pos], raw[other] = raw[other], raw[pos]
    return bytes(raw)


def _per_line_reference(path):
    """The blocks a line-by-line strict parse of the whole file reads."""
    raw = ledger_module._chain_text(path)
    return ledger_module._parse_lines(raw[:-1], 1) if raw else []


@settings(max_examples=400, deadline=None, derandomize=True)
@given(mutated_chains())
def test_chunked_load_refuses_exactly_what_the_per_line_parse_refuses(tmp_path_factory, raw):
    path = tmp_path_factory.getbasetemp() / "mutated.jsonl"
    path.write_bytes(raw)
    with mock.patch.object(ledger_module, "_CHUNK_CHARS", 2048):
        assert len(MUTATION_CHAIN) > 3 * ledger_module._CHUNK_CHARS
        try:
            expected = _per_line_reference(path)
        except LedgerError as exc:
            with pytest.raises(LedgerError) as refused:
                ledger_module._load_chain_file(path)
            assert str(refused.value) == str(exc)
        else:
            assert ledger_module._load_chain_file(path) == expected


class PoolAndChainMachine(RuleBasedStateMachine):
    """One workspace, mined by `Ledger.mine_block` and by `kary mine` in
    turn, against a model: the pending digests and each block's tx list.
    Every receipt either entry point issues verifies."""

    DIGESTS = [h(b"state %d" % i) for i in range(6)]

    def __init__(self):
        super().__init__()
        self.root = Path(tempfile.mkdtemp(prefix="karychain-state-"))
        self.chain_path = self.root / "ledger.jsonl"
        self.ledger = self._open()
        self.pending: list[bytes] = []
        self.block_txs: list[tuple[bytes, ...]] = []
        self.issued: list[AnchorReceipt] = []

    def _open(self):
        return Ledger(self.chain_path, self.root / "pending.json", difficulty=2)

    def teardown(self):
        shutil.rmtree(self.root)

    @rule(batch=st.lists(st.sampled_from(DIGESTS), min_size=1, max_size=3))
    def submit(self, batch):
        if len(set(batch)) < len(batch) or any(d in self.pending for d in batch):
            with pytest.raises(DuplicatePendingError):
                self.ledger.submit_anchor(*batch)
            return
        assert self.ledger.submit_anchor(*batch) == len(self.pending)
        self.pending += batch

    @rule(now=st.integers(0, 2**64 - 1))
    def mine_through_the_ledger(self, now):
        if not self.pending:
            with pytest.raises(EmptyPoolError):
                self.ledger.mine_block(now)
            return
        block, receipts = self.ledger.mine_block(now)
        assert block.timestamp == now
        self._mined(receipts)

    @rule(now=st.integers(0, 2**64 - 1))
    def mine_through_the_cli(self, now):
        args = ["--workspace", str(self.root), "--difficulty", "2", "mine"]
        res = CliRunner().invoke(cli_main, args, env={"KARY_TIMESTAMP": str(now)})
        # the CLI cleared the pool file under the ledger's feet
        self.ledger = self._open()
        if not self.pending:
            assert res.exit_code == 5, res.output
            return
        assert res.exit_code == 0, res.output
        store = ReceiptStore(self.root / "receipts")
        self._mined([store.load(d) for d in self.pending])

    def _mined(self, receipts):
        assert [r.target_digest for r in receipts] == self.pending
        self.block_txs.append(tuple(self.pending))
        self.issued += receipts
        self.pending = []

    @rule()
    def reopen(self):
        self.ledger = self._open()

    @invariant()
    def workspace_matches_the_model(self):
        chain = Chain(self.chain_path)
        assert chain.validate_chain()
        assert [b.tx_digests for b in chain.blocks[1:]] == self.block_txs
        assert self.ledger.blocks == chain.blocks
        assert ledger_module.read_tip(self.chain_path) == chain.blocks[-1]
        assert all(chain.verify_receipt(r.target_digest, r) for r in self.issued)
        assert Pool(self.root / "pending.json").digests == tuple(self.pending)
        assert self.ledger.pending == tuple(self.pending)


TestPoolAndChain = PoolAndChainMachine.TestCase
TestPoolAndChain.settings = settings(
    max_examples=100, stateful_step_count=20, deadline=None, derandomize=True)
