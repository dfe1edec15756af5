"""Per-layer tracing from outside the program.

The tracer replaces public functions of karychain's modules with timed
wrappers, at the names their callers look them up under (for example
`workflow.parse_fragment`, which `assemble` calls, and `fragments.sha256`,
which `Fragment.slice_digest` calls). Each wrapper records calls, inclusive
and self time (inclusive minus the time of wrapped calls made inside it),
an optional amount such as bytes hashed, and how often it ran directly
inside each other wrapped span. Wrappers only count while `on` is set, so
the benchmark's own output checks stay out of the figures.

All wrapped functions run on the thread that called the gate: class II
activation threads run only the activation action, which is not wrapped.
"""

from __future__ import annotations

import time
from collections import Counter
from types import SimpleNamespace


class Span:
    __slots__ = ("calls", "incl_ns", "self_ns", "amount")

    def __init__(self) -> None:
        self.calls = 0
        self.incl_ns = 0
        self.self_ns = 0
        self.amount = 0


class Tracer:
    def __init__(self) -> None:
        self.on = False
        self.spans: dict[str, Span] = {}
        self.nested: Counter = Counter()
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object, bool]] = []

    def wrap(self, name: str, fn, amount=None):
        span = self.spans.setdefault(name, Span())
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            frame = [name, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                span.calls += 1
                span.incl_ns += elapsed
                span.self_ns += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                    self.nested[stack[-1][0], name] += 1
            if amount is not None:
                span.amount += amount(args, result)
            return result

        return traced

    def patch(self, owner: object, attr: str, name: str, amount=None) -> None:
        own = attr in vars(owner)
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original, own))
        setattr(owner, attr, self.wrap(name, original, amount))

    def install(self) -> None:
        from karychain import cli, fragments, gf256, ledger, workflow

        first = lambda args, result: len(args[0])  # noqa: E731
        returned = lambda args, result: len(result)  # noqa: E731
        for owner, attr, name, amount in [
            (gf256, "neville_zero", "gf256.interp", None),
            (gf256, "lagrange_zero", "gf256.interp", None),
            (gf256, "eval_polys", "gf256.eval", None),
            (workflow, "split_secret_shamir", "sharing.split", None),
            (workflow, "split_secret_xor", "sharing.split", None),
            (workflow, "reconstruct_neville", "sharing.reconstruct", None),
            (workflow, "reconstruct_lagrange", "sharing.reconstruct", None),
            (workflow, "reconstruct_xor", "sharing.reconstruct", None),
            (workflow, "parse_fragment", "fragments.parse", None),
            (cli, "parse_fragment", "fragments.parse", None),
            (fragments, "sha256", "fragments.sha256", first),
            (workflow, "sha256", "fragments.sha256", first),
            (cli, "sha256", "fragments.sha256", first),
            (workflow, "partition_payload", "fragments.partition", None),
            (workflow, "build_fragments", "fragments.build", None),
            (workflow, "unpartition", "fragments.unpartition", None),
            (ledger, "canonical_loads_strict", "canonical.loads", first),
            (fragments, "canonical_loads_strict", "canonical.loads", first),
            (ledger, "canonical_dumps", "canonical.dumps", returned),
            (cli, "canonical_dumps", "canonical.dumps", returned),
            (fragments, "canonical_bytes", "canonical.dumps", returned),
            (ledger.Ledger, "__init__", "ledger.load",
             lambda args, result: args[0].path is not None),
            (ledger.Ledger, "submit_anchor", "ledger.submit", _pending_size),
            (ledger.Ledger, "mine_block", "ledger.mine",
             lambda args, result: result[0].nonce + 1),
            (ledger, "block_hash", "ledger.block_hash", None),
            (cli, "block_hash", "ledger.block_hash", None),
            (ledger, "merkle_path_of", "ledger.merkle_path", None),
            (ledger, "merkle_root_of", "ledger.merkle_root", None),
            (ledger, "sha256", "ledger.sha256", None),
            (ledger.Ledger, "validate_chain", "ledger.audit", None),
            (ledger.Ledger, "verify_receipt", "ledger.verify_receipt", None),
            (workflow, "produce", "workflow.produce", None),
            (workflow, "assemble", "workflow.assemble", None),
            (workflow, "execute", "workflow.execute", None),
            (workflow, "verify_fragments", "workflow.verify_fragments", None),
            (workflow, "reconstruct_key", "workflow.reconstruct_key", None),
            (ledger.ReceiptStore, "save", "cli.receipt_save",
             lambda args, result: result.stat().st_size),
            (ledger.ReceiptStore, "load", "cli.receipt_load",
             lambda args, result: result is not None),
            (cli, "_write_file", "cli.write_file", lambda args, result: len(args[1])),
            (cli.main, "main", "cli.command", None),
        ]:
            self.patch(owner, attr, name, amount)
        aead_cls = workflow.ChaCha20Poly1305
        self.spans.setdefault("workflow.aead", Span())

        def traced_aead(key):
            inner = aead_cls(key)
            return SimpleNamespace(
                encrypt=self.wrap("workflow.aead", inner.encrypt, _aead_bytes),
                decrypt=self.wrap("workflow.aead", inner.decrypt, _aead_bytes),
            )

        self._patched.append((workflow, "ChaCha20Poly1305", aead_cls, True))
        workflow.ChaCha20Poly1305 = traced_aead

    def uninstall(self) -> None:
        for owner, attr, original, own in reversed(self._patched):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patched.clear()

    def snapshot(self) -> dict[str, tuple[int, int]]:
        return {name: (s.calls, s.amount) for name, s in self.spans.items()}


def _pending_size(args, result) -> int:
    path = args[0].pending_path
    return path.stat().st_size if path is not None else 0


def _aead_bytes(args, result) -> int:
    return len(args[1])


def layer_metrics(tracer: Tracer, rounds: int, opened: dict) -> dict:
    """Per-round layer figures from one traced pass.

    `opened` holds what the gate opened in the open stages of the pass
    (fragments, payload bytes) and the parse calls and SHA-256 bytes made
    there, so that the two ratios have a stated base.
    """
    s = tracer.spans
    nested = tracer.nested

    def incl(name):
        return s[name].incl_ns / 1e9 / rounds

    def own(name):
        return s[name].self_ns / 1e9 / rounds

    def calls(name):
        return s[name].calls / rounds

    def amount(name):
        return s[name].amount / rounds

    merkle = nested["ledger.merkle_path", "ledger.sha256"] + nested[
        "ledger.merkle_root", "ledger.sha256"]
    return {
        "gf256.interp_s": (own("gf256.interp"), "s"),
        "gf256.eval_s": (incl("gf256.eval"), "s"),
        "sharing.split_s": (incl("sharing.split"), "s"),
        "sharing.reconstruct_s": (incl("sharing.reconstruct"), "s"),
        "fragments.parse_calls": (calls("fragments.parse"), "count"),
        "fragments.parse_s": (incl("fragments.parse"), "s"),
        "fragments.parses_per_fragment": (
            opened["parse_calls"] / opened["fragments"], "ratio"),
        "fragments.sha256_calls": (calls("fragments.sha256"), "count"),
        "fragments.sha256_bytes": (amount("fragments.sha256"), "B"),
        "fragments.sha256_s": (incl("fragments.sha256"), "s"),
        "fragments.hash_bytes_per_payload_byte": (
            opened["sha256_bytes"] / opened["payload_bytes"], "ratio"),
        "fragments.partition_s": (incl("fragments.partition"), "s"),
        "fragments.build_s": (incl("fragments.build"), "s"),
        "fragments.unpartition_s": (incl("fragments.unpartition"), "s"),
        "canonical.loads_calls": (calls("canonical.loads"), "count"),
        "canonical.loads_bytes": (amount("canonical.loads"), "B"),
        "canonical.loads_s": (incl("canonical.loads"), "s"),
        "canonical.dumps_bytes": (amount("canonical.dumps"), "B"),
        "canonical.dumps_s": (incl("canonical.dumps"), "s"),
        "ledger.loads": (amount("ledger.load"), "count"),
        "ledger.load_s": (incl("ledger.load"), "s"),
        "ledger.submit_s": (incl("ledger.submit"), "s"),
        "ledger.pending_bytes_written": (amount("ledger.submit"), "B"),
        "ledger.mine_s": (incl("ledger.mine"), "s"),
        "ledger.pow_attempts": (amount("ledger.mine"), "count"),
        "ledger.block_hash_calls": (calls("ledger.block_hash"), "count"),
        "ledger.merkle_path_s": (incl("ledger.merkle_path"), "s"),
        "ledger.merkle_hashes": (merkle / rounds, "count"),
        "ledger.audit_s": (incl("ledger.audit"), "s"),
        "ledger.blocks_audited": (
            nested["ledger.audit", "ledger.merkle_root"] / rounds, "count"),
        "ledger.verify_receipt_s": (incl("ledger.verify_receipt"), "s"),
        "ledger.receipts_verified": (calls("ledger.verify_receipt"), "count"),
        "workflow.produce_s": (own("workflow.produce"), "s"),
        "workflow.assemble_s": (own("workflow.assemble"), "s"),
        "workflow.execute_s": (own("workflow.execute"), "s"),
        "workflow.verify_fragments_s": (incl("workflow.verify_fragments"), "s"),
        "workflow.reconstruct_key_s": (incl("workflow.reconstruct_key"), "s"),
        "workflow.aead_s": (incl("workflow.aead"), "s"),
        "workflow.aead_bytes": (amount("workflow.aead"), "B"),
        "cli.commands": (calls("cli.command"), "count"),
        "cli.receipt_files_written": (calls("cli.receipt_save"), "count"),
        "cli.receipt_files_read": (amount("cli.receipt_load"), "count"),
        "cli.bytes_written": (
            amount("cli.write_file") + amount("cli.receipt_save"), "B"),
    }


# Counts that must repeat exactly between two traced passes of one seed.
EXACT_COUNTS = (
    "ledger.pow_attempts",
    "fragments.parse_calls",
    "fragments.sha256_bytes",
    "ledger.blocks_audited",
    "canonical.loads_bytes",
)
