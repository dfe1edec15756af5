"""Merkle tree, proof-of-work chain, receipts, and persistence tests."""

import dataclasses
import hashlib

import pytest

from karychain import ledger as ledger_module

from karychain.canonical import CanonicalJsonError
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
