"""Merkle tree, proof-of-work chain, receipts, and persistence tests."""

import dataclasses
import hashlib
import struct

import pytest

from karychain import ledger as ledger_module

from karychain.canonical import CanonicalJsonError, canonical_bytes
from karychain.ledger import (
    GENESIS,
    AnchorReceipt,
    Block,
    DuplicatePendingError,
    EmptyPoolError,
    Ledger,
    LedgerError,
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

    def test_empty_blocks_allowed_when_configured(self):
        ledger = Ledger(difficulty=0, allow_empty_blocks=True)
        block, receipts = ledger.mine_block(now=1)
        assert block.tx_digests == ()
        assert receipts == []
        assert ledger.validate_chain()

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


# (pool size, difficulty, nonce, block hash, SHA-256 of every receipt's
# canonical JSON in pool order), computed with a miner that built a validated
# Block per nonce and rebuilt the Merkle tree per receipt
GOLDEN_BLOCKS = [
    (1, 0, 0, "33fb7ab433a114781f4dd1f8837e8571175b6f8329fbb1557b861fcdb46a54e4", "3953786f5608db5612c8e62bf72b16d8842c0e11aa5b78b9b619e4e4c0b37be7"),
    (1, 8, 348, "00a7d10f9242da2d85d228126905097d5142fa646bf68898078bb85c22ba07d2", "bf205cf045ae354182dc909cca5b5c5b26af8433aa314fa4f693cf92797105e3"),
    (1, 12, 12648, "000fe986d6704d43e4ae753add083dae3c6b472b31295eaef3506c7aa1a6be0e", "448b0630cee098cbcf8cfb52a8a62beef3172daf60d49b9703ca1fc4f04a1360"),
    (2, 0, 0, "d95d74ba9e1af48af150b8487341e3b86c66a86dbb0277b982b49d10f4e2ff19", "1c7822eece9fdec9e1c53aed84bd6bd3e1612392d538ee906a3c67cbe38465c6"),
    (2, 8, 345, "00f7570e07ea85d67a998f0c87003a04bff1dc2e79e0e57921626f95bd6ddbac", "e2accaa29678e44362c20693287b4dab7c16046ed7cf6c75d1c896aed0c2a9ac"),
    (2, 12, 5374, "000f42d31cb0a0e939f083514971c2f699e07897395fe22314166ce1f5169ca8", "212d7277baefd84c4b51bbcc00dd9a1adef67057eaa38f6a7b840cd7b645737b"),
    (3, 0, 0, "317421b76f0b89a235eaccec02a1c89f9eeb00ef8a528d1ec6a6851e7ee1e7df", "63057c592b5ba39d47cf2ec43ffacda63f2360fc82b9c8d8a5e230a1f10f9147"),
    (3, 8, 484, "00765acf8f6b9e3832fad0231eec33dd2ab991b84ddb6c905d7775e48c8fc97f", "930ae1604ab8ae69fd18e67cadd98c952b57b401cadf9a05fdc76a4ac0799493"),
    (3, 12, 3830, "0002357146c28ece15f07527953daf43d4fad01d83d6f5a49c55f0101929ab2d", "2153798c605ddec26607fa7310d98dd7610531c05eb3cac5a3c8b31eb364fd94"),
    (17, 0, 0, "dcd1a26650911ef354f89a7902715fd1f1c489156002d211292b0d327f3da945", "7c5e5279bfd77e62ac2dbf69bf74f80dd12f7739999d363e8cd7e4d76ed49a02"),
    (17, 8, 1191, "0012b602c30883703febce00036438162a0946a735534a4a7c94fa8b56e4bee4", "961bc47d8eacf085504a41d9e57e5b9932b31290d1102b1b3194e5e1d588b026"),
    (17, 12, 3179, "000978903a928768c73a642a23b6f09f2102cd0fd8f257e7e20e7cca5f6c0722", "a856a5395104b151d4042fc8ecb120a53acc71f51b14282709d72ae5c02c3500"),
    (160, 0, 0, "832521a2d02b54b3cd37f84978d4c5036e75bdf6f2acfba16852244a016b3c25", "97b893c60914566f933367d7083abcfa55a1ff86db7650ba2569bc433a166e80"),
    (160, 8, 1672, "0061c00d3699d0052ec6714a965120bcce1724338efdffea39ef11838919ffa7", "c7a66fa663df373bbcfcd257cc3173e8f7829989a2b5bd675f31c0ff5faab4fd"),
    (160, 12, 325, "00002c9819129d29e0e6113c39639af1d5ef0c26ea3b0b79f20b6ff470716135", "84e99ade9e03e10d8f9d1149ef12f0c00f4d9dc99b7e5a68f165323e1e4cec8c"),
    (256, 0, 0, "69a7868d3027936e9e78b9faacb879e2609d0fd6bf527363f93eb44726492240", "ea635ad7c38e9248b05fb65d5b72e1f51f017b71891a03209e1025e715981a73"),
    (256, 8, 359, "00a5dcd13ffe09683d48ce263b83b3dbffe279631ecaafe8dbc5352a33a3b024", "8c40054e4d31601f0c50034ab531d9c2e4c098ccef1782ff3b93e65fd78866b8"),
    (256, 12, 1908, "000f1095ea29091db985e86a53d6fa8e6fa048385730b617f39205e35d909f0b", "31f54e89adecb93a0ad1d73f4220326710bcb0e2d7139c39270a5eef7b123d3d"),
]


@pytest.mark.parametrize(
    "n, difficulty, nonce, block_hex, receipts_hex",
    GOLDEN_BLOCKS,
    ids=[f"{n}tx-d{d}" for n, d, *_ in GOLDEN_BLOCKS],
)
def test_mined_block_and_receipts_are_pinned(n, difficulty, nonce, block_hex, receipts_hex):
    ledger = Ledger(difficulty=difficulty)
    for i in range(n):
        ledger.submit_anchor(h(b"golden-%d" % i))
    block, receipts = ledger.mine_block(now=1_700_000_000 + n)
    assert block.nonce == nonce
    assert block_hash(block).hex() == block_hex
    joined = b"".join(canonical_bytes(r.to_json_dict()) for r in receipts)
    assert h(joined).hex() == receipts_hex
    assert ledger.validate_chain()


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

    def test_forged_pairs_never_verify(self, rng):
        ledger, digests, receipts = self._setup()
        for _ in range(10000):
            fake = rng.randbytes(32)
            receipt = rng.choice(receipts)
            assert not ledger.verify_receipt(fake, receipt)


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
        # the failed audit is not remembered
        audited.clear()
        assert not ledger.validate_chain()
        assert len(audited) == len(ledger._blocks)

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
        assert store.load_all() == {digest: receipt}
        assert store.load(h(b"missing")) is None

    def test_non_canonical_ledger_line_rejected(self, tmp_path):
        path = tmp_path / "chain.jsonl"
        Ledger(path=path, difficulty=0)
        text = path.read_text()
        path.write_text(text.replace(":", ": ", 1))
        with pytest.raises(LedgerError):
            Ledger(path=path, difficulty=0)
