"""Command-line front end for the fragment/anchor/assemble workflow.

Commands: split, anchor, mine, verify, assemble, run, ledger show,
ledger validate. A workspace directory holds the chain file, the pending
pool, receipts, and fragment output. Each command opens only what it uses:
anchor the `Pool`; mine the `Pool` and `read_tip`, and runs the library's
one mine sequence, `ledger.mine_pool`, which saves the receipts before it
appends the block and clears the pool; verify, assemble, run and ledger
validate the `Chain`, which must exist; ledger show the `Chain` (or genesis
from memory), then the `Pool`. Exit codes are fixed per outcome:
0 success, 1 verification or assembly failure, 2 invalid arguments,
3 I/O error, 4 duplicate pending anchor, 5 mining an empty pool. Every
failure raised under a command maps to its code in EXIT_CODES.

An optional config.json sets `difficulty`, `seed` and `min_difficulty`,
the proof-of-work floor of the chain audit past genesis.

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
from typing import Callable, NoReturn, TypeVar

import click

from .canonical import U64, CanonicalJsonError, IntRange, canonical_dumps, sha256
from .fragments import (
    MANIFEST_SUFFIX,
    MAX_K,
    ClassCode,
    FragmentError,
    KeyScheme,
    PartitionStrategy,
    PayloadManifest,
    parse_fragment,  # noqa: F401  (karybench's tracer wraps it under this name)
)
from .ledger import (
    GENESIS, Chain, DuplicatePendingError, EmptyPoolError, LedgerError, Pool, ReceiptStore,
    append_block, block_hash, mine_pool, read_tip, start_chain,
    write_file as _write_file,  # karybench's tracer wraps it under this name
)
from . import workflow

EXIT_OK = 0
EXIT_GATE_FAILURE = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_DUPLICATE = 4
EXIT_EMPTY_POOL = 5

# The first matching row gives a failure's exit code, so a subclass comes
# before its base. A bare ValueError means nothing in particular: not listed.
EXIT_CODES = (
    (DuplicatePendingError, EXIT_DUPLICATE),
    (EmptyPoolError, EXIT_EMPTY_POOL),
    (OSError, EXIT_IO),
    ((LedgerError, CanonicalJsonError, FragmentError, workflow.WorkflowError), EXIT_GATE_FAILURE),
)

TIMESTAMP_ENV = "KARY_TIMESTAMP"
CONFIG_NAME = "config.json"
MAX_CLI_DIFFICULTY = 32

_T = TypeVar("_T")


@dataclass
class WorkspaceConfig:
    """A workspace root, whose files have fixed names, and the resolved
    mining/seeding defaults."""

    root: Path
    difficulty: int
    min_difficulty: int
    seed: int | None

    ledger_path = property(lambda self: self.root / "ledger.jsonl")
    receipts_dir = property(lambda self: self.root / "receipts")
    fragments_dir = property(lambda self: self.root / "fragments")
    pending_path = property(lambda self: self.root / "pending.json")
    config_path = property(lambda self: self.root / CONFIG_NAME)

    def __post_init__(self) -> None:
        paths = [
            self.ledger_path,
            self.receipts_dir,
            self.fragments_dir,
            self.pending_path,
            self.config_path,
        ]
        # realpath, unlike Path.resolve, returns a symlink loop as is instead of raising
        if len(set(map(os.path.realpath, paths))) != len(paths):
            raise click.UsageError("workspace paths must be distinct")

    @classmethod
    def create(cls, root: Path, difficulty: int | None, seed: int | None) -> "WorkspaceConfig":
        """Merge CLI flags over the workspace defaults file over built-ins. A
        difficulty given below `min_difficulty` is refused; the built-in 8
        is raised to it."""
        config_path = root / CONFIG_NAME
        defaults: dict = {}
        if config_path.exists():
            try:
                defaults = json.loads(config_path.read_text(encoding="utf-8"))
            except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise click.UsageError(f"cannot read {config_path}: {exc}")
            except RecursionError:
                raise click.UsageError(f"{config_path} nests too deeply") from None
            if not isinstance(defaults, dict):
                raise click.UsageError(f"{config_path} must hold a JSON object")
        config_difficulty = _config_int(defaults, "difficulty", MAX_CLI_DIFFICULTY, config_path)
        floor = _config_int(defaults, "min_difficulty", MAX_CLI_DIFFICULTY, config_path) or 0
        config_seed = _config_int(defaults, "seed", U64.hi, config_path)
        if difficulty is None:
            difficulty = config_difficulty
        if difficulty is None:
            difficulty = max(8, floor)
        elif difficulty < floor:
            raise click.UsageError(f"difficulty {difficulty} is below min_difficulty {floor}")
        if seed is None:
            seed = config_seed
        return cls(root=root, difficulty=difficulty, min_difficulty=floor, seed=seed)


def _config_int(defaults: dict, key: str, upper: int, path: Path) -> int | None:
    """An optional integer field of config.json, in 0..upper (bools refused)."""
    if key not in defaults:
        return None
    try:
        return IntRange(0, upper).check(defaults[key], repr(key))
    except ValueError as exc:
        raise click.UsageError(f"{path}: {exc}") from None


def _now() -> int:
    raw = os.environ.get(TIMESTAMP_ENV)
    if raw is not None:
        try:
            return U64.check(int(raw), TIMESTAMP_ENV)
        except ValueError:
            raise click.UsageError(
                f"{TIMESTAMP_ENV} must be an integer in 0..2**64-1, got {raw!r}")
    return int(time.time())


def _fail(code: int, message: str) -> NoReturn:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _write_json(path: Path, obj: object) -> None:
    _write_file(path, canonical_dumps(obj).encode("ascii"))


def _load_manifest(path: Path) -> PayloadManifest:
    try:
        return PayloadManifest.from_canonical_bytes(path.read_bytes())
    except CanonicalJsonError as exc:
        _fail(EXIT_GATE_FAILURE, f"manifest {path} rejected: {exc}")


def _read(load: Callable[..., _T], *args: object) -> _T:
    """`load(*args)` on a workspace file; a file it refuses exits 1 as
    `ledger rejected`."""
    try:
        return load(*args)
    except (LedgerError, CanonicalJsonError) as exc:
        _fail(EXIT_GATE_FAILURE, f"ledger rejected: {exc}")


def _chain(cfg: WorkspaceConfig) -> Chain:
    return _read(Chain, cfg.ledger_path, cfg.min_difficulty)


class _KaryGroup(click.Group):
    """Exits with a failure's EXIT_CODES code; re-raises what no row matches."""

    def invoke(self, ctx: click.Context) -> object:
        try:
            return super().invoke(ctx)
        except Exception as exc:
            for classes, code in EXIT_CODES:
                if isinstance(exc, classes):
                    _fail(code, f"{type(exc).__name__}: {exc}")
            raise


@click.group(cls=_KaryGroup)
@click.option(
    "--workspace",
    type=click.Path(path_type=Path),
    default=Path("workspace"),
    show_default=True,
    help="Directory holding the ledger, receipts, and fragment output.",
)
@click.option("--seed", type=click.IntRange(0, U64.hi), default=None, help="RNG seed.")
@click.option(
    "--difficulty",
    type=click.IntRange(0, MAX_CLI_DIFFICULTY),
    default=None,
    help="Leading zero bits required of mined block hashes.",
)
@click.pass_context
def main(ctx: click.Context, workspace: Path, seed: int | None, difficulty: int | None) -> None:
    """Fragment an encrypted payload, anchor it, and gate its reassembly."""
    ctx.obj = WorkspaceConfig.create(workspace, difficulty, seed)


@main.command()
@click.argument("payload", type=click.Path(path_type=Path))
@click.option("-k", "--fragments", "k", type=click.IntRange(1, MAX_K), required=True)
@click.option("-t", "--threshold", type=click.IntRange(1, MAX_K), default=None,
              help="Shares needed to rebuild the key (default: k).")
@click.option("--class-code", type=click.Choice([c.name for c in ClassCode]), default="I_B",
              show_default=True)
@click.option("--scheme", type=click.Choice([s.value for s in KeyScheme]), default="SHAMIR",
              show_default=True)
@click.option("--strategy", type=click.Choice([s.value for s in PartitionStrategy]),
              default="CONTIGUOUS", show_default=True)
@click.option("--partition-seed", type=click.IntRange(0, U64.hi), default=0)
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
    data = payload.read_bytes()
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
    manifest_path = cfg.fragments_dir / f"manifest{MANIFEST_SUFFIX}"
    _write_file(manifest_path, manifest.canonical_bytes())
    click.echo(f"wrote {manifest_path}")


@main.command()
@click.argument("paths", type=click.Path(path_type=Path), nargs=-1, required=True)
@click.pass_obj
def anchor(cfg: WorkspaceConfig, paths: tuple[Path, ...]) -> None:
    """Queue the SHA-256 of each file for anchoring in the next block."""
    digests = [sha256(path.read_bytes()) for path in paths]
    first = _read(Pool, cfg.pending_path).submit(*digests)
    for position, (digest, path) in enumerate(zip(digests, paths), start=first):
        click.echo(f"pending[{position}] {digest.hex()}  {path}")


@main.command()
@click.pass_obj
def mine(cfg: WorkspaceConfig) -> None:
    """Mine the pending pool into one block and write its receipts."""
    now = _now()
    pool = _read(Pool, cfg.pending_path)
    if not pool.digests:  # refused before the chain file is started
        raise EmptyPoolError("no pending digests to mine")
    start_chain(cfg.ledger_path)
    block, _ = mine_pool(pool, _read(read_tip, cfg.ledger_path), cfg.difficulty, now,
                         lambda b: append_block(cfg.ledger_path, b),
                         ReceiptStore(cfg.receipts_dir).save)
    click.echo(
        f"mined block {block.height} hash={block_hash(block).hex()} "
        f"nonce={block.nonce} txs={len(block.tx_digests)}"
    )


def _verification(
    cfg: WorkspaceConfig, manifest_path: Path, fragment_paths: tuple[Path, ...]
) -> tuple[PayloadManifest, list[bytes], ReceiptStore, Chain]:
    manifest = _load_manifest(manifest_path)
    blobs = [p.read_bytes() for p in fragment_paths]
    return manifest, blobs, ReceiptStore(cfg.receipts_dir), _chain(cfg)


@main.command()
@click.argument("manifest_path", metavar="MANIFEST", type=click.Path(path_type=Path))
@click.argument("fragment_paths", metavar="FRAGMENTS...", type=click.Path(path_type=Path),
                nargs=-1, required=True)
@click.pass_obj
def verify(cfg: WorkspaceConfig, manifest_path: Path, fragment_paths: tuple[Path, ...]) -> None:
    """Check every fragment and the manifest against the ledger."""
    manifest, blobs, receipts, chain = _verification(cfg, manifest_path, fragment_paths)
    chain_ok = chain.validate_chain()
    manifest_result = workflow.verify_manifest_anchor(manifest, receipts, chain)
    statuses = workflow.verify_fragments(blobs, manifest, receipts, chain)
    # by index; where an unparseable blob's argument position equals a
    # parsed fragment's index, the parsed fragment's row comes first
    statuses.sort(key=lambda s: (s.index, isinstance(s.fragment, FragmentError)))
    rows = [s.to_json_dict() for s in statuses]
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
    all_ok = chain_ok and manifest_result.ok and all(s.ok for s in statuses)
    report = {
        "chain_valid": chain_ok,
        "manifest_anchored": manifest_result.ok,
        "manifest_reason": manifest_result.reason,
        "fragments": rows,
        "all_valid": all_ok,
    }
    _write_json(cfg.root / "verify_report.json", report)
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
    manifest, blobs, receipts, chain = _verification(cfg, manifest_path, fragment_paths)
    payload, report = workflow.assemble(blobs, manifest, receipts, chain, method.upper())
    out = out if out is not None else cfg.root / "recovered.bin"
    _write_file(out, payload)
    _write_json(cfg.root / "assembly_report.json", report.to_json_dict())
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
    # a refused run leaves this empty trace, never the trace of an earlier
    # run; a workspace without a chain is refused before anything is written
    trace_path = cfg.root / "activation_trace.json"
    if cfg.ledger_path.exists():
        _write_json(trace_path, {"activation_trace": []})
    manifest, blobs, receipts, chain = _verification(cfg, manifest_path, fragment_paths)
    payload, report = workflow.run(blobs, manifest, receipts, chain, method.upper())
    report_json = report.to_json_dict()
    trace = report_json["activation_trace"]
    _write_json(trace_path, {"activation_trace": trace})
    _write_json(cfg.root / "assembly_report.json", report_json)
    click.echo(f"activated {len(trace)} fragments; payload {len(payload)} bytes verified")


@main.group(name="ledger")
def ledger_group() -> None:
    """Inspect or audit the chain."""


@ledger_group.command(name="show")
@click.pass_obj
def ledger_show(cfg: WorkspaceConfig) -> None:
    """Print one line per stored block, then the pool size; without a chain
    file, genesis only. The pool is read after the blocks are printed, so a
    torn one still shows the chain before it is refused."""
    try:
        blocks = _chain(cfg).blocks
    except FileNotFoundError:  # not any OSError: a symlink loop is an I/O error
        blocks = (GENESIS,)
    for block in blocks:
        click.echo(
            f"height={block.height} hash={block_hash(block).hex()} "
            f"txs={len(block.tx_digests)} timestamp={block.timestamp} "
            f"difficulty={block.difficulty} nonce={block.nonce}"
        )
    click.echo(f"pending: {len(_read(Pool, cfg.pending_path).digests)}")


@ledger_group.command(name="validate")
@click.pass_obj
def ledger_validate(cfg: WorkspaceConfig) -> None:
    """Audit the stored chain; exit 0 only if it is fully valid."""
    if _chain(cfg).validate_chain():
        click.echo("chain valid")
        sys.exit(EXIT_OK)
    click.echo("chain INVALID")
    sys.exit(EXIT_GATE_FAILURE)


if __name__ == "__main__":
    main()
