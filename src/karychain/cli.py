"""Command-line front end for the fragment/anchor/assemble workflow.

Commands: split, anchor, mine, verify, assemble, run, ledger show,
ledger validate. A workspace directory holds the chain file, the pending
pool, receipts, and fragment output. Exit codes are fixed per outcome:
0 success, 1 verification or assembly failure, 2 invalid arguments,
3 I/O error, 4 duplicate pending anchor, 5 mining an empty pool.

KARY_TIMESTAMP (unix seconds) overrides the wall clock so demo runs are
reproducible; --seed pins all generated randomness.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import click

from .canonical import CanonicalJsonError, canonical_dumps
from .fragments import (
    ClassCode,
    FragmentError,
    KeyScheme,
    PartitionStrategy,
    PayloadManifest,
    parse_fragment,
    sha256,
)
from .ledger import (
    AnchorReceipt,
    DuplicatePendingError,
    EmptyPoolError,
    Ledger,
    LedgerError,
    ReceiptStore,
    block_hash,
)
from . import workflow

EXIT_OK = 0
EXIT_GATE_FAILURE = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_DUPLICATE = 4
EXIT_EMPTY_POOL = 5

TIMESTAMP_ENV = "KARY_TIMESTAMP"
MAX_CLI_DIFFICULTY = 32


@dataclass
class WorkspaceConfig:
    """Resolved workspace paths and mining/seeding defaults."""

    root: Path
    ledger_path: Path
    receipts_dir: Path
    fragments_dir: Path
    pending_path: Path
    config_path: Path
    difficulty: int
    seed: int | None

    def __post_init__(self) -> None:
        paths = [
            self.ledger_path,
            self.receipts_dir,
            self.fragments_dir,
            self.pending_path,
            self.config_path,
        ]
        if len({p.resolve() for p in paths}) != len(paths):
            raise ValueError("workspace paths must be distinct")
        if not 0 <= self.difficulty <= MAX_CLI_DIFFICULTY:
            raise ValueError(f"difficulty must be in 0..{MAX_CLI_DIFFICULTY}")

    @classmethod
    def create(cls, root: Path, difficulty: int | None, seed: int | None) -> "WorkspaceConfig":
        """Merge CLI flags over the workspace defaults file over built-ins."""
        config_path = root / "config.json"
        defaults: dict = {}
        if config_path.exists():
            try:
                defaults = json.loads(config_path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError) as exc:
                raise click.UsageError(f"cannot read {config_path}: {exc}")
            if not isinstance(defaults, dict):
                raise click.UsageError(f"{config_path} must hold a JSON object")
        config_difficulty = _config_int(defaults, "difficulty", MAX_CLI_DIFFICULTY, config_path)
        config_seed = _config_int(defaults, "seed", 2**64 - 1, config_path)
        if difficulty is None:
            difficulty = 8 if config_difficulty is None else config_difficulty
        if seed is None:
            seed = config_seed
        return cls(
            root=root,
            ledger_path=root / "ledger.jsonl",
            receipts_dir=root / "receipts",
            fragments_dir=root / "fragments",
            pending_path=root / "pending.json",
            config_path=config_path,
            difficulty=difficulty,
            seed=seed,
        )

    def open_ledger(self) -> Ledger:
        return Ledger(
            path=self.ledger_path,
            pending_path=self.pending_path,
            difficulty=self.difficulty,
        )

    def receipt_store(self) -> ReceiptStore:
        return ReceiptStore(self.receipts_dir)


def _config_int(defaults: dict, key: str, upper: int, path: Path) -> int | None:
    """An optional integer field of config.json, in 0..upper (bools refused)."""
    if key not in defaults:
        return None
    value = defaults[key]
    if type(value) is not int or not 0 <= value <= upper:
        raise click.UsageError(
            f"{path}: {key!r} must be an integer in 0..{upper}, got {value!r}"
        )
    return value


def _now() -> int:
    raw = os.environ.get(TIMESTAMP_ENV)
    if raw is not None:
        try:
            return int(raw)
        except ValueError:
            raise click.UsageError(f"{TIMESTAMP_ENV} must be an integer, got {raw!r}")
    return int(time.time())


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _read_file(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except OSError as exc:
        _fail(EXIT_IO, f"cannot read {path}: {exc}")
        raise AssertionError("unreachable")


def _write_file(path: Path, data: bytes) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    except OSError as exc:
        _fail(EXIT_IO, f"cannot write {path}: {exc}")


def _load_manifest(path: Path) -> PayloadManifest:
    data = _read_file(path)
    try:
        return PayloadManifest.from_canonical_bytes(data)
    except CanonicalJsonError as exc:
        _fail(EXIT_GATE_FAILURE, f"manifest {path} rejected: {exc}")
        raise AssertionError("unreachable")


def _open_ledger(cfg: WorkspaceConfig) -> Ledger:
    try:
        return cfg.open_ledger()
    except (LedgerError, CanonicalJsonError) as exc:
        _fail(EXIT_GATE_FAILURE, f"ledger rejected: {exc}")
        raise AssertionError("unreachable")
    except OSError as exc:
        _fail(EXIT_IO, f"cannot open the ledger: {exc}")
        raise AssertionError("unreachable")


def _gather_receipts(
    store: ReceiptStore, digests: list[bytes]
) -> dict[bytes, AnchorReceipt]:
    receipts: dict[bytes, AnchorReceipt] = {}
    for digest in digests:
        try:
            receipt = store.load(digest)
        except (CanonicalJsonError, ValueError) as exc:
            _fail(EXIT_GATE_FAILURE, f"receipt for {digest.hex()} rejected: {exc}")
            raise AssertionError("unreachable")
        if receipt is not None:
            receipts[digest] = receipt
    return receipts


@click.group()
@click.option(
    "--workspace",
    type=click.Path(path_type=Path),
    default=Path("workspace"),
    show_default=True,
    help="Directory holding the ledger, receipts, and fragment output.",
)
@click.option("--seed", type=click.IntRange(0, 2**64 - 1), default=None, help="RNG seed.")
@click.option(
    "--difficulty",
    type=click.IntRange(0, MAX_CLI_DIFFICULTY),
    default=None,
    help="Leading zero bits required of mined block hashes.",
)
@click.pass_context
def main(ctx: click.Context, workspace: Path, seed: int | None, difficulty: int | None) -> None:
    """Fragment an encrypted payload, anchor it, and gate its reassembly."""
    try:
        ctx.obj = WorkspaceConfig.create(workspace, difficulty, seed)
    except ValueError as exc:
        raise click.UsageError(str(exc))


@main.command()
@click.argument("payload", type=click.Path(path_type=Path))
@click.option("-k", "--fragments", "k", type=click.IntRange(1, 255), required=True)
@click.option("-t", "--threshold", type=click.IntRange(1, 255), default=None,
              help="Shares needed to rebuild the key (default: k).")
@click.option("--class-code", type=click.Choice([c.name for c in ClassCode]), default="I_B",
              show_default=True)
@click.option("--scheme", type=click.Choice([s.value for s in KeyScheme]), default="SHAMIR",
              show_default=True)
@click.option("--strategy", type=click.Choice([s.value for s in PartitionStrategy]),
              default="CONTIGUOUS", show_default=True)
@click.option("--partition-seed", type=click.IntRange(0, 2**64 - 1), default=0)
@click.pass_obj
def split(
    cfg: WorkspaceConfig,
    payload: Path,
    k: int,
    threshold: int | None,
    class_code: str,
    scheme: str,
    strategy: str,
    partition_seed: int,
) -> None:
    """Encrypt PAYLOAD and split it into k fragment files plus a manifest."""
    data = _read_file(payload)
    threshold = k if threshold is None else threshold
    rng = random.Random(cfg.seed) if cfg.seed is not None else None
    try:
        manifest, blobs = workflow.produce(
            payload=data,
            k=k,
            threshold=threshold,
            class_code=ClassCode[class_code],
            key_scheme=KeyScheme(scheme),
            strategy=PartitionStrategy(strategy),
            rng=rng,
            partition_seed=partition_seed,
        )
    except ValueError as exc:
        raise click.UsageError(str(exc))
    for i, blob in enumerate(blobs, start=1):
        frag_path = cfg.fragments_dir / f"frag_{i}.kary"
        _write_file(frag_path, blob)
        click.echo(f"wrote {frag_path}")
    manifest_path = cfg.fragments_dir / "manifest.kmanifest.json"
    _write_file(manifest_path, manifest.canonical_bytes())
    click.echo(f"wrote {manifest_path}")


@main.command()
@click.argument("paths", type=click.Path(path_type=Path), nargs=-1, required=True)
@click.pass_obj
def anchor(cfg: WorkspaceConfig, paths: tuple[Path, ...]) -> None:
    """Queue the SHA-256 of each file for anchoring in the next block."""
    ledger = _open_ledger(cfg)
    for path in paths:
        digest = sha256(_read_file(path))
        try:
            position = ledger.submit_anchor(digest)
        except DuplicatePendingError as exc:
            _fail(EXIT_DUPLICATE, str(exc))
        click.echo(f"pending[{position}] {digest.hex()}  {path}")


@main.command()
@click.pass_obj
def mine(cfg: WorkspaceConfig) -> None:
    """Mine the pending pool into one block and write its receipts."""
    ledger = _open_ledger(cfg)
    store = cfg.receipt_store()
    try:
        block, receipts = ledger.mine_block(_now())
    except EmptyPoolError as exc:
        _fail(EXIT_EMPTY_POOL, str(exc))
        raise AssertionError("unreachable")
    for receipt in receipts:
        store.save(receipt)
    click.echo(
        f"mined block {block.height} hash={block_hash(block).hex()} "
        f"nonce={block.nonce} txs={len(block.tx_digests)}"
    )


def _verification(
    cfg: WorkspaceConfig, manifest_path: Path, fragment_paths: tuple[Path, ...]
) -> tuple[PayloadManifest, list[bytes], dict[bytes, AnchorReceipt], Ledger]:
    manifest = _load_manifest(manifest_path)
    blobs = [_read_file(p) for p in fragment_paths]
    ledger = _open_ledger(cfg)
    digests = [manifest.digest(), *[sha256(b) for b in blobs]]
    receipts = _gather_receipts(cfg.receipt_store(), digests)
    return manifest, blobs, receipts, ledger


@main.command()
@click.argument("manifest_path", metavar="MANIFEST", type=click.Path(path_type=Path))
@click.argument("fragment_paths", metavar="FRAGMENTS...", type=click.Path(path_type=Path),
                nargs=-1, required=True)
@click.pass_obj
def verify(cfg: WorkspaceConfig, manifest_path: Path, fragment_paths: tuple[Path, ...]) -> None:
    """Check every fragment and the manifest against the ledger."""
    manifest, blobs, receipts, ledger = _verification(cfg, manifest_path, fragment_paths)
    chain_ok = ledger.validate_chain()
    manifest_result = workflow.verify_manifest_anchor(manifest, receipts, ledger)
    # an unparseable fragment becomes a failing row (reported under its
    # argument position) instead of aborting the whole table
    parseable: list[bytes] = []
    broken: list[tuple[int, str]] = []
    for position, blob in enumerate(blobs, start=1):
        try:
            parse_fragment(blob)
            parseable.append(blob)
        except FragmentError as exc:
            broken.append((position, str(exc)))
    statuses = workflow.verify_fragments(parseable, manifest, receipts, ledger)
    rows = [s.to_json_dict() for s in statuses]
    for position, reason in broken:
        rows.append(
            {
                "index": position,
                "anchored": False,
                "anchor_reason": f"unparseable: {reason}",
                "slice_ok": False,
                "deps_ok": False,
                "consistent": False,
                "ok": False,
            }
        )
    rows.sort(key=lambda r: r["index"])
    click.echo(f"chain valid:       {'yes' if chain_ok else 'NO'}")
    click.echo(
        f"manifest anchored: {'yes' if manifest_result.ok else 'NO'}"
        + (f" ({manifest_result.reason})" if manifest_result.reason else "")
    )
    click.echo("index  anchored  slice  deps  consistent")
    for r in rows:
        click.echo(
            f"{r['index']:<6} {_mark(r['anchored']):<9} {_mark(r['slice_ok']):<6} "
            f"{_mark(r['deps_ok']):<5} {_mark(r['consistent'])}"
            + (f"  [{r['anchor_reason']}]" if r["anchor_reason"] else "")
        )
    all_ok = chain_ok and manifest_result.ok and not broken and all(s.ok for s in statuses)
    report = {
        "chain_valid": chain_ok,
        "manifest_anchored": manifest_result.ok,
        "manifest_reason": manifest_result.reason,
        "fragments": rows,
        "all_valid": all_ok,
    }
    _write_file(cfg.root / "verify_report.json", canonical_dumps(report).encode("ascii"))
    sys.exit(EXIT_OK if all_ok else EXIT_GATE_FAILURE)


def _mark(ok: bool) -> str:
    return "ok" if ok else "FAIL"


@main.command()
@click.argument("manifest_path", metavar="MANIFEST", type=click.Path(path_type=Path))
@click.argument("fragment_paths", metavar="FRAGMENTS...", type=click.Path(path_type=Path),
                nargs=-1, required=True)
@click.option("--method", type=click.Choice([workflow.LAGRANGE, workflow.NEVILLE],
              case_sensitive=False), default=workflow.NEVILLE, show_default=True)
@click.option("--out", type=click.Path(path_type=Path), default=None,
              help="Where to write the recovered payload.")
@click.pass_obj
def assemble(
    cfg: WorkspaceConfig,
    manifest_path: Path,
    fragment_paths: tuple[Path, ...],
    method: str,
    out: Path | None,
) -> None:
    """Verify, reconstruct the key, and decrypt the payload."""
    manifest, blobs, receipts, ledger = _verification(cfg, manifest_path, fragment_paths)
    try:
        payload, report = workflow.assemble(blobs, manifest, receipts, ledger, method.upper())
    except workflow.AssemblyError as exc:
        _fail(EXIT_GATE_FAILURE, f"{type(exc).__name__}: {exc}")
        raise AssertionError("unreachable")
    except FragmentError as exc:
        _fail(EXIT_GATE_FAILURE, f"fragment rejected: {exc}")
        raise AssertionError("unreachable")
    out = out if out is not None else cfg.root / "recovered.bin"
    _write_file(out, payload)
    _write_file(
        cfg.root / "assembly_report.json",
        canonical_dumps(report.to_json_dict()).encode("ascii"),
    )
    click.echo(f"recovered {len(payload)} bytes -> {out}")


@main.command()
@click.argument("manifest_path", metavar="MANIFEST", type=click.Path(path_type=Path))
@click.argument("fragment_paths", metavar="FRAGMENTS...", type=click.Path(path_type=Path),
                nargs=-1, required=True)
@click.option("--method", type=click.Choice([workflow.LAGRANGE, workflow.NEVILLE],
              case_sensitive=False), default=workflow.NEVILLE, show_default=True)
@click.pass_obj
def run(
    cfg: WorkspaceConfig,
    manifest_path: Path,
    fragment_paths: tuple[Path, ...],
    method: str,
) -> None:
    """Assemble, then activate each fragment under its class semantics."""
    manifest, blobs, receipts, ledger = _verification(cfg, manifest_path, fragment_paths)
    trace_path = cfg.root / "activation_trace.json"
    try:
        payload, report = workflow.assemble(blobs, manifest, receipts, ledger, method.upper())
        trace = workflow.execute(blobs, manifest)
    except (workflow.AssemblyError, workflow.ExecutionError, FragmentError) as exc:
        _write_file(trace_path, canonical_dumps({"activation_trace": []}).encode("ascii"))
        _fail(EXIT_GATE_FAILURE, f"{type(exc).__name__}: {exc}")
        raise AssertionError("unreachable")
    report.activation_trace = tuple(trace)
    _write_file(
        trace_path,
        canonical_dumps({"activation_trace": [e.to_json_dict() for e in trace]}).encode("ascii"),
    )
    _write_file(
        cfg.root / "assembly_report.json",
        canonical_dumps(report.to_json_dict()).encode("ascii"),
    )
    click.echo(f"activated {len(trace)} fragments; payload {len(payload)} bytes verified")


@main.group(name="ledger")
def ledger_group() -> None:
    """Inspect or audit the chain."""


@ledger_group.command(name="show")
@click.pass_obj
def ledger_show(cfg: WorkspaceConfig) -> None:
    """Print one line per stored block."""
    ledger = _open_ledger(cfg)
    for block in ledger.blocks:
        click.echo(
            f"height={block.height} hash={block_hash(block).hex()} "
            f"txs={len(block.tx_digests)} timestamp={block.timestamp} "
            f"difficulty={block.difficulty} nonce={block.nonce}"
        )
    click.echo(f"pending: {len(ledger.pending)}")


@ledger_group.command(name="validate")
@click.pass_obj
def ledger_validate(cfg: WorkspaceConfig) -> None:
    """Audit the stored chain; exit 0 only if it is fully valid."""
    ledger = _open_ledger(cfg)
    if ledger.validate_chain():
        click.echo("chain valid")
        sys.exit(EXIT_OK)
    click.echo("chain INVALID")
    sys.exit(EXIT_GATE_FAILURE)


if __name__ == "__main__":
    main()
