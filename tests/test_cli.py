"""CLI tests: command wiring, exit codes, and reproducible runs."""

import errno
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

import karychain
from karychain import cli as cli_module, ledger as ledger_module
from karychain.cli import main
from karychain.fragments import PayloadManifest, parse_fragment
from karychain.ledger import GENESIS, Chain, Ledger, Pool, ReceiptStore, block_hash

PAYLOAD = b"cli demo payload " * 64
# verify_report.json of test_unparseable_fragment_row_is_pinned, computed
# when the unparseable row was still a hand-written dict
UNPARSEABLE_REPORT_SHA256 = "fc9552ad00f3a29db1bdc63afe3690d52559b2c49f99d71ba02e111d346602bf"


@pytest.fixture
def runner():
    return CliRunner()


def ws_args(root: Path, seed=41, difficulty=6):
    return ["--workspace", str(root), "--seed", str(seed), "--difficulty", str(difficulty)]


def demo_paths(root: Path, k=4):
    frag_dir = root / "fragments"
    manifest = frag_dir / "manifest.kmanifest.json"
    frags = [frag_dir / f"frag_{i}.kary" for i in range(1, k + 1)]
    return manifest, frags


def run_kary(root: Path, *args: str, env=None) -> subprocess.CompletedProcess:
    """Run `kary` in a child process, so stderr shows any traceback."""
    src = str(Path(karychain.__file__).resolve().parent.parent)
    env = {**os.environ, **(env or {}), "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, "-m", "karychain.cli", "--workspace", str(root), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


def split_anchor_mine(runner, root, payload_path, extra_split=(), env=None, k=4):
    env = env or {"KARY_TIMESTAMP": "1700000000"}
    res = runner.invoke(
        main, [*ws_args(root), "split", str(payload_path), "-k", str(k), *extra_split], env=env
    )
    assert res.exit_code == 0, res.output
    manifest, frags = demo_paths(root, k)
    res = runner.invoke(
        main, [*ws_args(root), "anchor", str(manifest), *map(str, frags)], env=env
    )
    assert res.exit_code == 0, res.output
    res = runner.invoke(main, [*ws_args(root), "mine"], env=env)
    assert res.exit_code == 0, res.output
    return manifest, frags


class TestHappyPath:
    def test_full_demo_recovers_payload(self, runner, tmp_path):
        payload_path = tmp_path / "payload.bin"
        payload_path.write_bytes(PAYLOAD)
        root = tmp_path / "ws"
        manifest, frags = split_anchor_mine(runner, root, payload_path)

        res = runner.invoke(main, [*ws_args(root), "verify", str(manifest), *map(str, frags)])
        assert res.exit_code == 0, res.output
        report = json.loads((root / "verify_report.json").read_text())
        assert report["all_valid"] is True

        out = tmp_path / "recovered.bin"
        res = runner.invoke(
            main,
            [*ws_args(root), "assemble", str(manifest), *map(str, frags), "--out", str(out)],
        )
        assert res.exit_code == 0, res.output
        assert out.read_bytes() == PAYLOAD

    def test_run_writes_ordered_trace(self, runner, tmp_path):
        payload_path = tmp_path / "payload.bin"
        payload_path.write_bytes(PAYLOAD)
        root = tmp_path / "ws"
        manifest, frags = split_anchor_mine(runner, root, payload_path)
        res = runner.invoke(main, [*ws_args(root), "run", str(manifest), *map(str, frags)])
        assert res.exit_code == 0, res.output
        trace = json.loads((root / "activation_trace.json").read_text())["activation_trace"]
        assert [e["index"] for e in trace] == [1, 2, 3, 4]

    def test_methods_produce_identical_payload(self, runner, tmp_path):
        payload_path = tmp_path / "payload.bin"
        payload_path.write_bytes(PAYLOAD)
        root = tmp_path / "ws"
        manifest, frags = split_anchor_mine(runner, root, payload_path)
        digests = []
        for method in ("lagrange", "neville"):
            out = tmp_path / f"out_{method}.bin"
            res = runner.invoke(
                main,
                [*ws_args(root), "assemble", str(manifest), *map(str, frags),
                 "--method", method, "--out", str(out)],
            )
            assert res.exit_code == 0, res.output
            digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    def test_k1_split(self, runner, tmp_path):
        payload_path = tmp_path / "payload.bin"
        payload_path.write_bytes(PAYLOAD)
        root = tmp_path / "ws"
        res = runner.invoke(main, [*ws_args(root), "split", str(payload_path), "-k", "1"])
        assert res.exit_code == 0, res.output
        assert (root / "fragments" / "frag_1.kary").exists()
        assert not (root / "fragments" / "frag_2.kary").exists()

    def test_ledger_show_and_validate(self, runner, tmp_path):
        payload_path = tmp_path / "payload.bin"
        payload_path.write_bytes(PAYLOAD)
        root = tmp_path / "ws"
        split_anchor_mine(runner, root, payload_path)
        res = runner.invoke(main, [*ws_args(root), "ledger", "show"])
        assert res.exit_code == 0
        assert "height=1" in res.output
        res = runner.invoke(main, [*ws_args(root), "ledger", "validate"])
        assert res.exit_code == 0
        assert "chain valid" in res.output


class TestExitCodes:
    def test_k_zero_is_usage_error(self, runner, tmp_path):
        payload_path = tmp_path / "payload.bin"
        payload_path.write_bytes(PAYLOAD)
        res = runner.invoke(
            main, [*ws_args(tmp_path / "ws"), "split", str(payload_path), "-k", "0"]
        )
        assert res.exit_code == 2
        assert "Usage" in res.output or "usage" in res.output

    def test_missing_payload_is_io_error(self, runner, tmp_path):
        res = runner.invoke(
            main, [*ws_args(tmp_path / "ws"), "split", str(tmp_path / "nope.bin"), "-k", "4"]
        )
        assert res.exit_code == 3

    def test_anchor_duplicate_before_mine(self, runner, tmp_path):
        payload_path = tmp_path / "payload.bin"
        payload_path.write_bytes(PAYLOAD)
        root = tmp_path / "ws"
        res = runner.invoke(main, [*ws_args(root), "split", str(payload_path), "-k", "4"])
        assert res.exit_code == 0
        manifest, frags = demo_paths(root)
        res = runner.invoke(main, [*ws_args(root), "anchor", str(frags[0])])
        assert res.exit_code == 0
        res = runner.invoke(main, [*ws_args(root), "anchor", str(frags[0])])
        assert res.exit_code == 4

    def test_mine_empty_pool(self, runner, tmp_path):
        res = runner.invoke(main, [*ws_args(tmp_path / "ws"), "mine"])
        assert res.exit_code == 5
        assert not (tmp_path / "ws").exists()

    @pytest.mark.parametrize(
        "timestamp, code",
        [("-1", 2), ("0", 0), (str(2**64 - 1), 0), (str(2**64), 2)],
    )
    def test_timestamp_outside_u64_is_usage_error(self, runner, tmp_path, timestamp, code):
        payload_path = tmp_path / "payload.bin"
        payload_path.write_bytes(PAYLOAD)
        root = tmp_path / "ws"
        res = runner.invoke(main, [*ws_args(root), "anchor", str(payload_path)])
        assert res.exit_code == 0, res.output
        res = run_kary(root, "--difficulty", "0", "mine", env={"KARY_TIMESTAMP": timestamp})
        assert res.returncode == code, res.stderr
        assert "Traceback" not in res.stderr
        if code:
            assert "KARY_TIMESTAMP" in res.stderr

    def test_unwritable_pending_pool_is_io_error(self, tmp_path):
        payload_path = tmp_path / "payload.bin"
        payload_path.write_bytes(PAYLOAD)
        root = tmp_path / "ws"
        root.mkdir()
        (root / "pending.json").symlink_to(tmp_path / "missing" / "pending.json")
        res = run_kary(root, "anchor", str(payload_path))
        assert res.returncode == 3, res.stderr
        assert "Traceback" not in res.stderr

    def test_short_key_share_is_refused(self, runner, tmp_path):
        payload_path = tmp_path / "payload.bin"
        payload_path.write_bytes(PAYLOAD)
        root = tmp_path / "ws"
        res = runner.invoke(main, [*ws_args(root), "split", str(payload_path), "-k", "3",
                                   "--scheme", "XOR_SPLIT"])
        assert res.exit_code == 0, res.output
        manifest, frags = demo_paths(root, k=3)
        frag = parse_fragment(frags[1].read_bytes())
        frags[1].write_bytes(replace(frag, share_y=frag.share_y[:31]).serialize())
        files = [str(manifest), *map(str, frags)]
        res = runner.invoke(main, [*ws_args(root), "anchor", *files])
        assert res.exit_code == 0, res.output
        res = runner.invoke(main, [*ws_args(root), "mine"])
        assert res.exit_code == 0, res.output
        res = run_kary(root, "verify", *files)
        assert res.returncode == 1, res.stderr
        report = json.loads((root / "verify_report.json").read_text())
        assert [f["consistent"] for f in report["fragments"]] == [True, False, True]
        res = run_kary(root, "assemble", *files)
        assert res.returncode == 1, res.stderr
        assert "VerificationFailure" in res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize(
        "field, error",
        [("ciphertext_digest", "VerificationFailure"), ("nonce", "DecryptionError"),
         ("plaintext_digest", "PlaintextDigestMismatch")],
    )
    def test_anchored_altered_manifest_is_refused(self, runner, tmp_path, field, error):
        payload_path = tmp_path / "payload.bin"
        payload_path.write_bytes(PAYLOAD)
        root = tmp_path / "ws"
        res = runner.invoke(main, [*ws_args(root), "split", str(payload_path), "-k", "4"])
        assert res.exit_code == 0, res.output
        manifest_path, frags = demo_paths(root)
        manifest = PayloadManifest.from_canonical_bytes(manifest_path.read_bytes())
        value = getattr(manifest, field)
        altered = replace(manifest, **{field: bytes([value[0] ^ 1]) + value[1:]})
        manifest_path.write_bytes(altered.canonical_bytes())
        files = [str(manifest_path), *map(str, frags)]
        res = runner.invoke(main, [*ws_args(root), "anchor", *files])
        assert res.exit_code == 0, res.output
        res = runner.invoke(main, [*ws_args(root), "mine"])
        assert res.exit_code == 0, res.output
        res = run_kary(root, "assemble", *files)
        assert res.returncode == 1, res.stderr
        assert f"error: {error}:" in res.stderr
        assert "Traceback" not in res.stderr
        assert not (root / "recovered.bin").exists()

    def test_anchored_slices_that_cannot_interleave_exit_1(self, runner, tmp_path):
        # fragment 1's slice takes the first 2 bytes of fragment 2's, under a
        # manifest of the moved slices' digests: each fragment verifies alone
        payload_path = tmp_path / "payload.bin"
        payload_path.write_bytes(b"x" * 40)
        root = tmp_path / "ws"
        res = runner.invoke(main, [*ws_args(root), "split", str(payload_path), "-k", "2",
                                   "--class-code", "I_B", "--scheme", "XOR_SPLIT",
                                   "--strategy", "INTERLEAVE"])
        assert res.exit_code == 0, res.output
        manifest_path, frag_paths = demo_paths(root, k=2)
        first, second = (parse_fragment(p.read_bytes()) for p in frag_paths)
        slices = [first.slice + second.slice[:2], second.slice[2:]]
        for path, frag, piece in zip(frag_paths, (first, second), slices):
            path.write_bytes(replace(frag, slice=piece).serialize())
        manifest = PayloadManifest.from_canonical_bytes(manifest_path.read_bytes())
        slice_digests = tuple(hashlib.sha256(s).digest() for s in slices)
        manifest_path.write_bytes(replace(manifest, slice_digests=slice_digests).canonical_bytes())
        files = [str(manifest_path), *map(str, frag_paths)]
        for args in (["anchor", *files], ["mine"], ["verify", *files]):
            res = runner.invoke(main, [*ws_args(root), *args])
            assert res.exit_code == 0, res.output
        for command in ("assemble", "run"):
            res = run_kary(root, command, *files)
            assert res.returncode == 1, res.stderr
            assert "error: VerificationFailure: slices cannot be reassembled" in res.stderr
            assert "Traceback" not in res.stderr

    def test_tampered_fragment_fails_verify_naming_index(self, runner, tmp_path):
        payload_path = tmp_path / "payload.bin"
        payload_path.write_bytes(PAYLOAD)
        root = tmp_path / "ws"
        manifest, frags = split_anchor_mine(runner, root, payload_path)
        blob = bytearray(frags[2].read_bytes())
        blob[-1] ^= 0x01
        frags[2].write_bytes(bytes(blob))
        res = runner.invoke(main, [*ws_args(root), "verify", str(manifest), *map(str, frags)])
        assert res.exit_code == 1
        report = json.loads((root / "verify_report.json").read_text())
        failing = [f["index"] for f in report["fragments"] if not f["ok"]]
        assert failing == [3]

    def test_unanchored_fragment_reported(self, runner, tmp_path):
        payload_path = tmp_path / "payload.bin"
        payload_path.write_bytes(PAYLOAD)
        root = tmp_path / "ws"
        env = {"KARY_TIMESTAMP": "1700000000"}
        res = runner.invoke(main, [*ws_args(root), "split", str(payload_path), "-k", "4"], env=env)
        assert res.exit_code == 0
        manifest, frags = demo_paths(root)
        # anchor everything except fragment 2
        res = runner.invoke(
            main,
            [*ws_args(root), "anchor", str(manifest), str(frags[0]), str(frags[2]), str(frags[3])],
            env=env,
        )
        assert res.exit_code == 0
        res = runner.invoke(main, [*ws_args(root), "mine"], env=env)
        assert res.exit_code == 0
        res = runner.invoke(main, [*ws_args(root), "verify", str(manifest), *map(str, frags)])
        assert res.exit_code == 1
        report = json.loads((root / "verify_report.json").read_text())
        assert report["fragments"][1]["anchor_reason"] == "unanchored"

    def test_unparseable_fragment_row_is_pinned(self, runner, tmp_path):
        payload_path = tmp_path / "payload.bin"
        payload_path.write_bytes(PAYLOAD)
        root = tmp_path / "ws"
        manifest, frags = split_anchor_mine(runner, root, payload_path)
        frags[1].write_bytes(frags[1].read_bytes()[:3])
        res = runner.invoke(main, [*ws_args(root), "verify", str(manifest), *map(str, frags)])
        assert res.exit_code == 1
        report = (root / "verify_report.json").read_bytes()
        assert json.loads(report)["fragments"][1] == {
            "index": 2,
            "anchored": False,
            "anchor_reason": "unparseable: fragment ends inside magic",
            "slice_ok": False,
            "deps_ok": False,
            "consistent": False,
            "ok": False,
        }
        assert hashlib.sha256(report).hexdigest() == UNPARSEABLE_REPORT_SHA256

    def test_run_class_ii_with_missing_fragment(self, runner, tmp_path):
        payload_path = tmp_path / "payload.bin"
        payload_path.write_bytes(PAYLOAD)
        root = tmp_path / "ws"
        manifest, frags = split_anchor_mine(
            runner, root, payload_path, extra_split=["--class-code", "II"]
        )
        res = runner.invoke(
            main, [*ws_args(root), "run", str(manifest), *map(str, frags[:3])]
        )
        assert res.exit_code == 1
        trace = json.loads((root / "activation_trace.json").read_text())["activation_trace"]
        assert trace == []

    def test_assemble_with_corrupted_ledger(self, runner, tmp_path):
        payload_path = tmp_path / "payload.bin"
        payload_path.write_bytes(PAYLOAD)
        root = tmp_path / "ws"
        manifest, frags = split_anchor_mine(runner, root, payload_path)
        ledger_file = root / "ledger.jsonl"
        raw = bytearray(ledger_file.read_bytes())
        raw[len(raw) // 2] ^= 0x01
        ledger_file.write_bytes(bytes(raw))
        res = runner.invoke(
            main, [*ws_args(root), "assemble", str(manifest), *map(str, frags)]
        )
        assert res.exit_code == 1


    def test_non_ascii_pending_pool_is_rejected(self, tmp_path):
        root = tmp_path / "ws"
        root.mkdir()
        (root / "pending.json").write_bytes('["\u00e9"]'.encode("utf-8"))
        res = run_kary(root, "ledger", "show")
        assert res.returncode == 1, res.stderr
        assert "ledger rejected" in res.stderr
        assert "Traceback" not in res.stderr

    def test_unreadable_ledger_is_io_error(self, tmp_path):
        root = tmp_path / "ws"
        (root / "ledger.jsonl").mkdir(parents=True)
        res = run_kary(root, "ledger", "show")
        assert res.returncode == 3, res.stderr
        assert "Traceback" not in res.stderr

    def test_torn_pool_refuses_only_the_commands_that_read_it(self, runner, tmp_path):
        payload_path = tmp_path / "payload.bin"
        payload_path.write_bytes(PAYLOAD)
        root = tmp_path / "ws"
        manifest, frags = split_anchor_mine(runner, root, payload_path)
        assert runner.invoke(main, [*ws_args(root), "anchor", str(payload_path)]).exit_code == 0
        pending = root / "pending.json"
        pending.write_bytes(pending.read_bytes()[:40])
        files = [str(manifest), *map(str, frags)]
        for args, code in [
            (["ledger", "validate"], 0),
            (["verify", *files], 0),
            (["assemble", *files, "--out", str(tmp_path / "out.bin")], 0),
            (["run", *files], 0),
            (["anchor", str(manifest)], 1),
            (["mine"], 1),
            (["ledger", "show"], 1),
        ]:
            res = run_kary(root, *args, env={"KARY_TIMESTAMP": "1700000001"})
            assert res.returncode == code, (args, res.stderr)
            assert "Traceback" not in res.stderr
            if code:
                assert "ledger rejected" in res.stderr
        assert pending.stat().st_size == 40

    def test_ledger_show_prints_every_block_before_refusing_a_torn_pool(self, runner, tmp_path):
        payload_path = tmp_path / "payload.bin"
        payload_path.write_bytes(PAYLOAD)
        root = tmp_path / "ws"
        split_anchor_mine(runner, root, payload_path)
        assert runner.invoke(main, [*ws_args(root), "anchor", str(payload_path)]).exit_code == 0
        whole = run_kary(root, "ledger", "show")
        assert whole.returncode == 0, whole.stderr
        blocks = [line for line in whole.stdout.splitlines() if line.startswith("height=")]
        assert len(blocks) == 2
        assert whole.stdout.splitlines()[-1] == "pending: 1"
        pending = root / "pending.json"
        pending.write_bytes(pending.read_bytes()[:40])
        chain = (root / "ledger.jsonl").read_bytes()
        torn = run_kary(root, "ledger", "show")
        assert torn.returncode == 1, torn.stderr
        assert torn.stdout.splitlines() == blocks
        assert "ledger rejected" in torn.stderr
        assert "Traceback" not in torn.stderr
        assert (root / "ledger.jsonl").read_bytes() == chain
        assert pending.stat().st_size == 40

    def test_refused_pool_creates_no_chain_file(self, tmp_path):
        root = tmp_path / "ws"
        root.mkdir()
        digest = hashlib.sha256(b"listed twice").hexdigest()
        (root / "pending.json").write_text(f'["{digest}","{digest}"]', encoding="ascii")
        res = run_kary(root, "mine")
        assert res.returncode == 1, res.stderr
        assert "ledger rejected" in res.stderr
        assert "Traceback" not in res.stderr
        assert not (root / "ledger.jsonl").exists()


class TestWorkspaceFootprint:
    """What a command reads and writes: `anchor` only the pool, and
    `ledger show` and the commands that only read the chain never create one."""

    def test_anchor_ignores_the_chain(self, runner, tmp_path):
        payload_path = tmp_path / "payload.bin"
        payload_path.write_bytes(PAYLOAD)
        root = tmp_path / "ws"
        split_anchor_mine(runner, root, payload_path)
        chain = root / "ledger.jsonl"
        raw = bytearray(chain.read_bytes())
        raw[0] ^= 0x01  # "{" becomes "z": the chain no longer parses
        chain.write_bytes(bytes(raw))
        res = run_kary(root, "anchor", str(payload_path))
        assert res.returncode == 0, res.stderr
        assert "Traceback" not in res.stderr
        assert chain.read_bytes() == raw
        res = run_kary(root, "--difficulty", "0", "mine")
        assert res.returncode == 1, res.stderr
        assert "ledger rejected" in res.stderr
        assert "Traceback" not in res.stderr
        assert chain.read_bytes() == raw

    @pytest.mark.parametrize("queued", [False, True], ids=["fresh", "queued"])
    @pytest.mark.parametrize(
        "second, code", [("p.bin", 4), ("missing.bin", 3)], ids=["duplicate", "missing"]
    )
    def test_refused_anchor_leaves_the_pool(self, tmp_path, queued, second, code):
        (tmp_path / "p.bin").write_bytes(PAYLOAD)
        (tmp_path / "q.bin").write_bytes(b"queued earlier")
        root = tmp_path / "ws"
        pending = root / "pending.json"
        if queued:
            assert run_kary(root, "anchor", str(tmp_path / "q.bin")).returncode == 0
        before = pending.read_bytes() if queued else None
        res = run_kary(root, "anchor", str(tmp_path / "p.bin"), str(tmp_path / second))
        assert res.returncode == code, res.stderr
        assert "Traceback" not in res.stderr
        assert res.stdout == ""
        assert (pending.read_bytes() if pending.exists() else None) == before
        assert root.exists() == queued

    @pytest.mark.parametrize("state", ["no-dir", "empty-dir", "dangling-link", "pool-only"])
    def test_ledger_show_without_a_chain_prints_genesis(self, tmp_path, state):
        root = tmp_path / "typo"
        if state == "empty-dir":
            root.mkdir()
        elif state == "dangling-link":
            root.mkdir()
            (root / "ledger.jsonl").symlink_to("missing.jsonl")
        elif state == "pool-only":
            (tmp_path / "p.bin").write_bytes(PAYLOAD)
            assert run_kary(root, "anchor", str(tmp_path / "p.bin")).returncode == 0
        before = sorted(root.iterdir()) if root.exists() else None
        res = run_kary(root, "ledger", "show")
        assert res.returncode == 0, res.stderr
        assert res.stdout == (
            f"height=0 hash={block_hash(GENESIS).hex()} txs=0 timestamp=0 "
            f"difficulty=0 nonce=0\npending: {int(state == 'pool-only')}\n"
        )
        assert (sorted(root.iterdir()) if root.exists() else None) == before

    @pytest.mark.parametrize("made", [False, True], ids=["no-dir", "empty-dir"])
    @pytest.mark.parametrize("command", ["verify", "assemble", "run", "ledger validate"])
    def test_read_only_command_refuses_a_missing_chain(self, runner, tmp_path, command, made):
        payload_path = tmp_path / "payload.bin"
        payload_path.write_bytes(PAYLOAD)
        manifest, frags = split_anchor_mine(runner, tmp_path / "ws", payload_path)
        typo = tmp_path / "typo"
        if made:
            typo.mkdir()
        args = command.split() if command.startswith("ledger") else [
            command, str(manifest), *map(str, frags)]
        res = run_kary(typo, *args)
        assert res.returncode == 3, res.stderr
        assert "Traceback" not in res.stderr
        assert str(typo / "ledger.jsonl") in res.stderr
        if made:
            assert list(typo.iterdir()) == []
        else:
            assert not typo.exists()


class TestReceiptFiles:
    """Receipts the gate cannot read map to exit codes, never a traceback."""

    def _fragment_receipt(self, runner, tmp_path):
        payload_path = tmp_path / "payload.bin"
        payload_path.write_bytes(PAYLOAD)
        root = tmp_path / "ws"
        manifest, frags = split_anchor_mine(runner, root, payload_path)
        digest = hashlib.sha256(frags[2].read_bytes()).hexdigest()
        receipt = root / "receipts" / f"{digest}.receipt.json"
        assert receipt.exists()
        return root, [str(manifest), *map(str, frags)], receipt

    @pytest.mark.parametrize("command", ["verify", "assemble", "run"])
    def test_receipt_that_is_a_directory_is_io_error(self, runner, tmp_path, command):
        root, files, receipt = self._fragment_receipt(runner, tmp_path)
        receipt.unlink()
        receipt.mkdir()
        res = run_kary(root, command, *files)
        assert res.returncode == 3, res.stderr
        assert receipt.name in res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("command", ["verify", "assemble", "run"])
    def test_malformed_fragment_receipt_is_named(self, runner, tmp_path, command):
        root, files, receipt = self._fragment_receipt(runner, tmp_path)
        receipt.write_text("{}", encoding="ascii")
        res = run_kary(root, command, *files)
        assert res.returncode == 1, res.stderr
        assert receipt.name in res.stderr
        assert "Traceback" not in res.stderr

    def test_refused_run_replaces_an_earlier_trace(self, runner, tmp_path):
        root, files, receipt = self._fragment_receipt(runner, tmp_path)
        trace_path = root / "activation_trace.json"
        res = run_kary(root, "run", *files)
        assert res.returncode == 0, res.stderr
        assert len(json.loads(trace_path.read_text())["activation_trace"]) == 4
        receipt.write_text("{}", encoding="ascii")
        res = run_kary(root, "run", *files)
        assert res.returncode == 1, res.stderr
        assert json.loads(trace_path.read_text()) == {"activation_trace": []}

    def test_receipts_path_that_is_a_file_fails_mine_with_io_error(self, runner, tmp_path):
        payload_path = tmp_path / "payload.bin"
        payload_path.write_bytes(PAYLOAD)
        root = tmp_path / "ws"
        res = runner.invoke(main, [*ws_args(root), "anchor", str(payload_path)])
        assert res.exit_code == 0, res.output
        assert not (root / "ledger.jsonl").exists()  # anchor touches only the pool
        (root / "receipts").write_text("", encoding="ascii")
        pool = (root / "pending.json").read_bytes()
        res = run_kary(root, "--difficulty", "4", "mine")
        assert res.returncode == 3, res.stderr
        assert "Traceback" not in res.stderr
        assert (root / "pending.json").read_bytes() == pool
        assert (root / "receipts").read_bytes() == b""
        # mine creates the chain, but with the genesis block alone
        assert (root / "ledger.jsonl").read_text(encoding="ascii").count("\n") == 1
        (root / "receipts").unlink()
        res = run_kary(root, "--difficulty", "4", "mine")
        assert res.returncode == 0, res.stderr
        digest = hashlib.sha256(PAYLOAD).hexdigest()
        assert (root / "receipts" / f"{digest}.receipt.json").is_file()


class TestNestedJson:
    """JSON nested far beyond the parser's recursion limit maps to an exit
    code, wherever the workspace reads JSON."""

    DEEP = "[" * 100_000 + "]" * 100_000

    @pytest.mark.parametrize(
        "name, text",
        [("ledger.jsonl", DEEP + "\n"),
         ("ledger.jsonl", '{"difficulty":' + DEEP + "]}\n"),
         ("pending.json", DEEP)],
        ids=["ledger", "ledger-block-shaped", "pending"],
    )
    def test_deep_ledger_or_pool_is_refused(self, tmp_path, name, text):
        root = tmp_path / "ws"
        root.mkdir()
        (root / name).write_text(text, encoding="ascii")
        res = run_kary(root, "ledger", "show")
        assert res.returncode == 1, res.stderr
        assert "ledger rejected" in res.stderr
        assert "Traceback" not in res.stderr

    def test_deep_manifest_is_refused(self, tmp_path):
        root = tmp_path / "ws"
        root.mkdir()
        manifest = tmp_path / "deep.kmanifest.json"
        manifest.write_text(self.DEEP, encoding="ascii")
        res = run_kary(root, "verify", str(manifest), str(tmp_path / "frag_1.kary"))
        assert res.returncode == 1, res.stderr
        assert "manifest" in res.stderr
        assert "Traceback" not in res.stderr

    def test_deep_receipt_is_refused(self, runner, tmp_path):
        root = tmp_path / "ws"
        payload_path = tmp_path / "payload.bin"
        payload_path.write_bytes(PAYLOAD)
        res = runner.invoke(main, [*ws_args(root), "split", str(payload_path), "-k", "4"])
        assert res.exit_code == 0, res.output
        manifest, frags = demo_paths(root)
        Ledger(path=root / "ledger.jsonl")  # a genesis-only chain
        digest = hashlib.sha256(manifest.read_bytes()).hexdigest()
        (root / "receipts").mkdir()
        (root / "receipts" / f"{digest}.receipt.json").write_text(self.DEEP, encoding="ascii")
        res = run_kary(root, "verify", str(manifest), *map(str, frags))
        assert res.returncode == 1, res.stderr
        assert "receipt" in res.stderr
        assert "Traceback" not in res.stderr

    def test_deep_config_is_usage_error(self, tmp_path):
        root = tmp_path / "ws"
        root.mkdir()
        (root / "config.json").write_text(self.DEEP, encoding="ascii")
        res = run_kary(root, "ledger", "show")
        assert res.returncode == 2, res.stderr
        assert "config.json" in res.stderr
        assert "Traceback" not in res.stderr


class TestWorkspaceConfig:
    @pytest.mark.parametrize(
        "text",
        ['{"difficulty": "8"}', '{"difficulty": true}', "[]", '{"seed": "x"}',
         '{"difficulty": 33}', '{"seed": -1}', '{"min_difficulty": 33}',
         '{"min_difficulty": -1}', '{"min_difficulty": true}'],
    )
    def test_malformed_config_is_usage_error(self, runner, tmp_path, text):
        root = tmp_path / "ws"
        root.mkdir()
        (root / "config.json").write_text(text)
        res = runner.invoke(main, ["--workspace", str(root), "ledger", "show"])
        assert res.exit_code == 2, res.output
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert "config.json" in res.output

    def test_non_utf8_config_is_usage_error(self, runner, tmp_path):
        root = tmp_path / "ws"
        root.mkdir()
        (root / "config.json").write_bytes(b'{"x": "\xff"}')
        res = runner.invoke(main, ["--workspace", str(root), "ledger", "show"])
        assert res.exit_code == 2, res.output
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert "cannot read" in res.output and "config.json" in res.output

    def test_config_values_used_and_flags_win(self, runner, tmp_path):
        root = tmp_path / "ws"
        root.mkdir()
        (root / "config.json").write_text('{"difficulty": 3, "seed": 5}')
        res = runner.invoke(main, ["--workspace", str(root), "ledger", "show"])
        assert res.exit_code == 0, res.output
        payload_path = tmp_path / "payload.bin"
        payload_path.write_bytes(PAYLOAD)
        env = {"KARY_TIMESTAMP": "1700000000"}
        res = runner.invoke(main, ["--workspace", str(root), "--difficulty", "1", "anchor",
                                   str(payload_path)], env=env)
        assert res.exit_code == 0, res.output
        res = runner.invoke(main, ["--workspace", str(root), "--difficulty", "1", "mine"], env=env)
        assert res.exit_code == 0, res.output
        assert '"difficulty":1' in (root / "ledger.jsonl").read_text().splitlines()[-1]

    def test_pool_aliasing_the_chain_is_usage_error(self, runner, tmp_path):
        root = tmp_path / "ws"
        root.mkdir()
        (root / "pending.json").symlink_to(root / "ledger.jsonl")
        res = runner.invoke(main, ["--workspace", str(root), "ledger", "show"])
        assert res.exit_code == 2, res.output
        assert "workspace paths must be distinct" in res.output
        assert sorted(p.name for p in root.iterdir()) == ["pending.json"]

    def test_chain_file_in_a_symlink_loop(self, tmp_path):
        """A workspace file that links to itself is an I/O error to the
        commands that read it, and no obstacle to those that do not."""
        root = tmp_path / "ws"
        root.mkdir()
        (root / "ledger.jsonl").symlink_to("ledger.jsonl")
        for command in ("validate", "show"):
            res = run_kary(root, "ledger", command)
            assert res.returncode == 3, res.stderr
            assert os.strerror(errno.ELOOP) in res.stderr
            assert "Traceback" not in res.stderr
            assert res.stdout == ""
        payload_path = tmp_path / "payload.bin"
        payload_path.write_bytes(PAYLOAD)
        res = run_kary(root, "--seed", "1", "split", str(payload_path), "-k", "2")
        assert res.returncode == 0, res.stderr
        assert sorted(p.name for p in (root / "fragments").iterdir()) == [
            "frag_1.kary", "frag_2.kary", "manifest.kmanifest.json"
        ]


class TestDeterminism:
    def test_identical_seed_and_timestamp_reproduce_bytes(self, runner, tmp_path):
        env = {"KARY_TIMESTAMP": "1700000000"}
        payload_path = tmp_path / "payload.bin"
        payload_path.write_bytes(PAYLOAD)
        trees = []
        for name in ("a", "b"):
            root = tmp_path / name
            split_anchor_mine(runner, root, payload_path, env=env)
            tree = {}
            for path in sorted(root.rglob("*")):
                if path.is_file():
                    tree[str(path.relative_to(root))] = hashlib.sha256(
                        path.read_bytes()
                    ).hexdigest()
            trees.append(tree)
        assert trees[0] == trees[1]
        assert any("ledger" in k for k in trees[0])
        assert any("receipt" in k for k in trees[0])


def tip_workspace(root: Path, blocks: int, pool: int) -> None:
    """A workspace whose chain holds `blocks` blocks (0: no chain file) of
    one to three digests each, and whose pool lists `pool` digests."""
    if blocks:
        ledger = Ledger(path=root / "ledger.jsonl", difficulty=0)
        for height in range(1, blocks):
            ledger.submit_anchor(*(hashlib.sha256(b"block %d tx %d" % (height, j)).digest()
                                   for j in range(height % 3 + 1)))
            ledger.mine_block(now=1_600_000_000 + height)
    Ledger(pending_path=root / "pending.json").submit_anchor(
        *(hashlib.sha256(b"pool %d" % j).digest() for j in range(pool)))


def tree_sha256(root: Path) -> str:
    """One digest over the name and SHA-256 of every file under `root`."""
    listing = "".join(
        f"{p.relative_to(root).as_posix()} {hashlib.sha256(p.read_bytes()).hexdigest()}\n"
        for p in sorted(root.rglob("*")) if p.is_file()
    )
    return hashlib.sha256(listing.encode("ascii")).hexdigest()


# tree_sha256 of the workspace after `kary --difficulty D mine` at
# KARY_TIMESTAMP=1700000000, by (chain blocks, pool digests, D), computed
# when `mine` still parsed the whole chain file. A missing chain file is
# started with genesis, so it mines the bytes of a 1-block chain.
MINE_GOLDEN = {
    (1, 1, 0): "2b2dd6a6ff3f7d1f30b49f2630bbbae6c98f86cb4d617c71f7b10ab97efa1a76",
    (1, 1, 8): "f9044975d3640080b190ef510f9775e26e97f0869c3adb83edc9eafa6596dda1",
    (1, 5, 0): "8f80b5aa2f2062a9492aeca4f91f00f98d84762d6090bf9f3716a9b41e464d75",
    (1, 5, 8): "1e07d9dd513b2b25385d4045c66118629364bdabe87657c60f08aa4e0f9ae274",
    (1, 160, 0): "77ba915b5a61efdf49cd5838dbd01b5c99ae40238fbc4c9faa4b41f150437616",
    (1, 160, 8): "cb368ff7d8f19130d0f854ab88d9a157e042f0641adf697fcad5cb887b04d99a",
    (2, 1, 0): "54294435f79dfc3d3d8682d2e49230a68d37f1c9394301994005d30d6d62a4e2",
    (2, 1, 8): "6103a1f3b18f6ec90e367ee37049689cc5c904da1627f209bfb49fe8d2d35fe5",
    (2, 5, 0): "4300b8f4e1355c42e1860191bf495c70d94ef549052d66189138a540ed4098c2",
    (2, 5, 8): "9431ea15f1f7b70567fc1e0a9921e48749bbb4a476e2551fd843b62d26b1fd02",
    (2, 160, 0): "fb4773270c566157d23f4c09f2c9c7775f64e44b0488c97dd676be2aba972d1a",
    (2, 160, 8): "469467f34cc77cbf9380799482ae5bdd2b69550c96e2cd6c23ed53fa837eca8a",
    (300, 1, 0): "b225825dfbb634f9663f716b52e7d2172e29019d0652c65f755e72885597738e",
    (300, 1, 8): "289ed6f5e3103a6d841ca8077e85f2600f0e039782a726d4fb4fd41102374e7b",
    (300, 5, 0): "39bcc38025240ea003157feffc9ddc86bddfbaa0c4c1d04c5614969dcef3fe26",
    (300, 5, 8): "ea950f60e00a9f1c8553784555bc233a989f5a4d07c226d775632aaacb649d27",
    (300, 160, 0): "20204f10bec31f224ac2a83f84bc575b4587762278bb63c153f129bba04d40b1",
    (300, 160, 8): "6498d22c69c2b8913c7b94921d10f92352c6cf1733a713f1f1bbbd1f75516bc7",
}


class TestMineReadsTheTip:
    """`kary mine` reads the pool, a framing pass over the chain file and
    its last line; the full audit stays with the commands that gate."""

    MINE = ("--difficulty", "0", "mine")

    @pytest.mark.parametrize("difficulty", [0, 8])
    @pytest.mark.parametrize("pool", [1, 5, 160])
    @pytest.mark.parametrize("blocks", [0, 1, 2, 300])
    def test_mined_bytes_are_pinned(self, runner, tmp_path, blocks, pool, difficulty):
        root = tmp_path / "ws"
        tip_workspace(root, blocks, pool)
        res = runner.invoke(
            main, ["--workspace", str(root), "--difficulty", str(difficulty), "mine"],
            env={"KARY_TIMESTAMP": "1700000000"},
        )
        assert res.exit_code == 0, res.output
        assert len(list((root / "receipts").iterdir())) == pool
        assert tree_sha256(root) == MINE_GOLDEN[max(blocks, 1), pool, difficulty]

    def test_one_chain_line_is_decoded(self, runner, tmp_path, monkeypatch):
        root = tmp_path / "ws"
        tip_workspace(root, 300, 5)
        chain = root / "ledger.jsonl"
        tip_line = chain.read_text(encoding="ascii").split("\n")[-2]
        decoded = []
        loads = ledger_module.canonical_loads_strict

        def recording(text):
            decoded.append(text)
            return loads(text)

        monkeypatch.setattr(ledger_module, "canonical_loads_strict", recording)
        res = runner.invoke(main, ["--workspace", str(root), *self.MINE])
        assert res.exit_code == 0, res.output
        assert [t for t in decoded if ledger_module._LINE_HEAD in t] == [tip_line]
        monkeypatch.undo()
        reloaded = Ledger(path=chain, difficulty=0)
        assert reloaded.height == 300
        assert reloaded.validate_chain()

    def test_file_access_is_pinned(self, tmp_path, monkeypatch, file_access):
        """One pool read, the chain's existence check, one tip read, a write
        per receipt, one append and one pool write: nothing more."""
        root = tmp_path / "ws"
        tip_workspace(root, 3, 2)
        (root / "receipts").mkdir()
        monkeypatch.setenv("KARY_TIMESTAMP", "1700000000")
        cfg = cli_module.WorkspaceConfig.create(root, 0, None)
        store, pool = ReceiptStore(root / "receipts"), Pool(root / "pending.json")
        receipts = [str(store.path_for(d)) for d in pool.digests]
        chain, pending = str(root / "ledger.jsonl"), str(root / "pending.json")
        access = file_access()
        with click.Context(main, obj=cfg) as ctx:
            ctx.invoke(cli_module.mine)
        assert access.calls == [
            ("exists", pending), ("read_text", pending), ("exists", chain), ("read_bytes", chain),
            *(("write_bytes", r) for r in receipts), ("open", chain), ("write_bytes", pending),
        ]

    @pytest.mark.parametrize("case", [
        "empty file", "blank line", "CRLF", "CR", "blank last line", "non-ASCII",
        "no final newline", "first byte flipped", "non-canonical last line",
    ])
    def test_misframed_chain_is_refused_untouched(self, tmp_path, case):
        root = tmp_path / "ws"
        tip_workspace(root, 30, 3)
        assert run_kary(root, *self.MINE).returncode == 0  # leaves receipts behind
        Ledger(pending_path=root / "pending.json").submit_anchor(hashlib.sha256(b"next").digest())
        chain = root / "ledger.jsonl"
        lines = chain.read_text(encoding="ascii").split("\n")[:-1]
        text = "\n".join(lines) + "\n"
        if case == "empty file":
            text = ""
        elif case == "blank line":
            text = "\n".join(lines[:7] + [""] + lines[7:]) + "\n"
        elif case == "CRLF":
            text = "\n".join(lines[:7] + [lines[7] + "\r"] + lines[8:]) + "\n"
        elif case == "CR":
            text = "\n".join(lines[:7] + [lines[7] + "\r" + lines[8]] + lines[9:]) + "\n"
        elif case == "blank last line":
            text += "\n"
        elif case == "non-ASCII":
            text = text.replace('"', "é", 1)
        elif case == "no final newline":
            text = text[:-1]
        elif case == "first byte flipped":
            text = "z" + text[1:]
        else:
            text = "\n".join(lines[:-1] + [lines[-1].replace(":", ": ", 1)]) + "\n"
        chain.write_bytes(text.encode("utf-8"))
        before = tree_sha256(root)
        res = run_kary(root, *self.MINE)
        assert res.returncode == 1, res.stderr
        assert "ledger rejected" in res.stderr
        assert "Traceback" not in res.stderr
        assert tree_sha256(root) == before

    def test_non_canonical_middle_line_mines_but_fails_the_audit(self, tmp_path):
        # mine no longer decodes the lines before the tip, so it appends to
        # a chain that `ledger validate` and every gate still refuse
        root = tmp_path / "ws"
        tip_workspace(root, 30, 3)
        chain = root / "ledger.jsonl"
        lines = chain.read_text(encoding="ascii").split("\n")
        lines[4] = lines[4].replace(":", ": ", 1)
        chain.write_text("\n".join(lines), encoding="ascii")
        res = run_kary(root, *self.MINE)
        assert res.returncode == 0, res.stderr
        assert chain.read_text(encoding="ascii").count("\n") == 31
        res = run_kary(root, "ledger", "validate")
        assert res.returncode == 1, res.stderr
        assert "ledger line 5: " in res.stderr

    @pytest.mark.parametrize("blocks", [0, 2], ids=["no-chain", "chain"])
    def test_empty_listed_pool_creates_nothing(self, tmp_path, blocks):
        root = tmp_path / "ws"
        tip_workspace(root, blocks, 1)
        (root / "pending.json").write_bytes(b"[]")
        before = tree_sha256(root)
        res = run_kary(root, *self.MINE)
        assert res.returncode == 5, res.stderr
        assert "Traceback" not in res.stderr
        assert tree_sha256(root) == before
        assert (root / "ledger.jsonl").exists() == bool(blocks)
        assert not (root / "receipts").exists()


class TestMineWriteOrder:
    """`kary mine` saves every receipt, then appends the block, then clears
    the pool: wherever it fails, mining again leaves every pooled digest
    with a receipt that verifies."""

    @staticmethod
    def _fail_second_save(monkeypatch):
        save = ReceiptStore.save
        saved = []

        def failing(store, receipt):
            saved.append(receipt)
            if len(saved) == 2:
                raise OSError(errno.ENOSPC, "no space left for a receipt")
            return save(store, receipt)

        monkeypatch.setattr(ReceiptStore, "save", failing)

    @staticmethod
    def _fail(name):
        def failing(*args):
            raise OSError(errno.EIO, f"{name} failed")

        return failing

    @pytest.mark.parametrize("step, grows", [
        ("second receipt", False), ("block append", False), ("pool clear", True),
        ("torn append", False), ("torn append flushed at close", False),
    ])
    def test_mining_again_mends_a_failed_mine(
        self, runner, tmp_path, monkeypatch, tear_appends, step, grows
    ):
        root = tmp_path / "ws"
        tip_workspace(root, 3, 5)
        chain, pending = root / "ledger.jsonl", root / "pending.json"
        before = chain.read_bytes(), pending.read_bytes()
        digests = Pool(pending).digests
        if step == "second receipt":
            self._fail_second_save(monkeypatch)
        elif step == "block append":
            monkeypatch.setattr(cli_module, "append_block", self._fail(step))
        elif step == "pool clear":
            monkeypatch.setattr(Pool, "clear", self._fail(step))
        else:
            # the append writes part of the line, then fails
            tear_appends(chain, flushed=step == "torn append")
        args = ["--workspace", str(root), "--difficulty", "0", "mine"]
        res = runner.invoke(main, args, env={"KARY_TIMESTAMP": "1700000000"})
        assert res.exit_code == 3, res.output
        assert pending.read_bytes() == before[1]
        if grows:
            assert chain.read_bytes().startswith(before[0])
            assert chain.read_bytes().count(b"\n") == 4
        else:
            assert chain.read_bytes() == before[0]
        monkeypatch.undo()
        res = runner.invoke(main, args, env={"KARY_TIMESTAMP": "1700000001"})
        assert res.exit_code == 0, res.output
        assert pending.read_bytes() == b"[]"
        res = runner.invoke(main, ["--workspace", str(root), "ledger", "validate"])
        assert res.exit_code == 0, res.output
        reopened = Chain(chain)
        assert reopened.validate_chain()
        store = ReceiptStore(root / "receipts")
        assert all(reopened.verify_receipt(d, store.load(d)) for d in digests)

    def test_receipt_blocked_by_a_directory_changes_nothing(self, tmp_path):
        (tmp_path / "p.bin").write_bytes(PAYLOAD)
        (tmp_path / "q.bin").write_bytes(b"queued second")
        root = tmp_path / "ws"
        res = run_kary(root, "anchor", str(tmp_path / "p.bin"), str(tmp_path / "q.bin"))
        assert res.returncode == 0, res.stderr
        blocker = root / "receipts" / f"{hashlib.sha256(b'queued second').hexdigest()}.receipt.json"
        blocker.mkdir(parents=True)
        pool = (root / "pending.json").read_bytes()
        res = run_kary(root, "--difficulty", "0", "mine")
        assert res.returncode == 3, res.stderr
        assert "Traceback" not in res.stderr
        assert (root / "pending.json").read_bytes() == pool
        # the chain file is started with genesis alone; the block is not appended
        assert (root / "ledger.jsonl").read_text(encoding="ascii").count("\n") == 1
        blocker.rmdir()
        assert run_kary(root, "--difficulty", "0", "mine").returncode == 0
        chain = Chain(root / "ledger.jsonl")
        store = ReceiptStore(root / "receipts")
        digests = [hashlib.sha256(PAYLOAD).digest(), hashlib.sha256(b"queued second").digest()]
        assert all(chain.verify_receipt(d, store.load(d)) for d in digests)


class TestProofOfWorkFloor:
    """config.json's min_difficulty: the floor every block past genesis must
    reach for the gates to pass."""

    @pytest.mark.parametrize("config, flags", [
        ('{"min_difficulty": 8}', ["--difficulty", "4"]),
        ('{"min_difficulty": 8, "difficulty": 4}', []),
    ])
    def test_mining_below_the_floor_is_usage_error(self, runner, tmp_path, config, flags):
        root = tmp_path / "ws"
        root.mkdir()
        (root / "config.json").write_text(config)
        res = runner.invoke(main, ["--workspace", str(root), *flags, "ledger", "show"])
        assert res.exit_code == 2, res.output
        assert "min_difficulty" in res.output

    def test_default_difficulty_is_raised_to_the_floor(self, runner, tmp_path):
        root = tmp_path / "ws"
        root.mkdir()
        (root / "config.json").write_text('{"min_difficulty": 10}')
        payload_path = tmp_path / "payload.bin"
        payload_path.write_bytes(PAYLOAD)
        env = {"KARY_TIMESTAMP": "1700000000"}
        for args in (["anchor", str(payload_path)], ["mine"], ["ledger", "validate"]):
            res = runner.invoke(main, ["--workspace", str(root), *args], env=env)
            assert res.exit_code == 0, res.output
        assert '"difficulty":10' in (root / "ledger.jsonl").read_text().splitlines()[-1]

    def test_assemble_on_a_chain_below_the_floor_exits_1(self, runner, tmp_path):
        payload_path = tmp_path / "payload.bin"
        payload_path.write_bytes(PAYLOAD)
        root = tmp_path / "ws"
        manifest, frags = split_anchor_mine(runner, root, payload_path)  # difficulty 6
        files = [str(manifest), *map(str, frags)]
        (root / "config.json").write_text('{"min_difficulty": 8}')
        res = run_kary(root, "assemble", *files)
        assert res.returncode == 1, res.stderr
        assert "chain failed validation" in res.stderr
        assert "Traceback" not in res.stderr
        (root / "config.json").write_text('{"min_difficulty": 6}')
        res = run_kary(root, "assemble", *files)
        assert res.returncode == 0, res.stderr
