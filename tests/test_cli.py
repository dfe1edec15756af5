"""CLI tests: command wiring, exit codes, and reproducible runs."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import karychain
from karychain.cli import main

PAYLOAD = b"cli demo payload " * 64


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


def run_kary(root: Path, *args: str) -> subprocess.CompletedProcess:
    """Run `kary` in a child process, so stderr shows any traceback."""
    src = str(Path(karychain.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
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


class TestWorkspaceConfig:
    @pytest.mark.parametrize(
        "text",
        ['{"difficulty": "8"}', '{"difficulty": true}', "[]", '{"seed": "x"}',
         '{"difficulty": 33}', '{"seed": -1}'],
    )
    def test_malformed_config_is_usage_error(self, runner, tmp_path, text):
        root = tmp_path / "ws"
        root.mkdir()
        (root / "config.json").write_text(text)
        res = runner.invoke(main, ["--workspace", str(root), "ledger", "show"])
        assert res.exit_code == 2, res.output
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert "config.json" in res.output

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
