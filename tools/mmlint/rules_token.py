"""Token-layer rules: the nine rules of the old regex lint, re-run on the
real token stream from mmlint.lexer so they can never fire inside a comment,
string literal, raw string, or macro definition body.

Each rule is a function `rule(ctx, findings)` where ctx is a FileContext.
Scoping (which directories a rule applies to) is identical to the legacy
regex lint, with `src/persist/` added to the persistence dirs (the journal
moved there).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from .findings import Finding
from .lexer import IDENT, PUNCT, STRING, LexedFile, Token

RULES: Dict[str, Tuple[Callable, str]] = {}


def rule(rule_id: str, doc: str):
    def wrap(fn):
        RULES[rule_id] = (fn, doc)
        return fn
    return wrap


@dataclass
class FileContext:
    relpath: str  # posix, repo-relative
    lexed: LexedFile
    text: str

    @property
    def is_header(self) -> bool:
        return self.relpath.endswith((".h", ".hpp"))

    def in_dir(self, prefix: str) -> bool:
        return self.relpath.startswith(prefix)


def _tok(tokens: List[Token], i: int) -> Token:
    if 0 <= i < len(tokens):
        return tokens[i]
    return Token(PUNCT, "", 0)


def _is_call(tokens: List[Token], i: int) -> bool:
    """tokens[i] is an identifier immediately followed by '('."""
    return (tokens[i].kind == IDENT and _tok(tokens, i + 1).kind == PUNCT
            and _tok(tokens, i + 1).value == "(")


def _qualified_by(tokens: List[Token], i: int) -> str:
    """Returns the identifier qualifying tokens[i] via '::', or ''."""
    if _tok(tokens, i - 1).value == "::" and _tok(tokens, i - 2).kind == IDENT:
        return _tok(tokens, i - 2).value
    return ""


def _member_access(tokens: List[Token], i: int) -> bool:
    return _tok(tokens, i - 1).value in (".", "->")


def _match_paren(tokens: List[Token], open_idx: int) -> int:
    """Index of the ')' matching tokens[open_idx] == '('; -1 if unbalanced."""
    depth = 0
    for j in range(open_idx, len(tokens)):
        v = tokens[j].value
        if tokens[j].kind == PUNCT:
            if v == "(":
                depth += 1
            elif v == ")":
                depth -= 1
                if depth == 0:
                    return j
    return -1


def _match_paren_back(tokens: List[Token], close_idx: int,
                      open_ch: str = "(", close_ch: str = ")") -> int:
    depth = 0
    for j in range(close_idx, -1, -1):
        v = tokens[j].value
        if tokens[j].kind == PUNCT:
            if v == close_ch:
                depth += 1
            elif v == open_ch:
                depth -= 1
                if depth == 0:
                    return j
    return -1


# --------------------------------------------------------------------------


@rule("no-raw-rand",
      "rand()/srand()/std::random_device outside src/util/random")
def check_raw_rand(ctx: FileContext, findings: List[Finding]) -> None:
    if ctx.relpath.startswith("src/util/random"):
        return
    toks = ctx.lexed.tokens
    for i, t in enumerate(toks):
        if t.kind != IDENT:
            continue
        qual = _qualified_by(toks, i)
        if qual not in ("", "std"):
            continue  # somelib::rand is not the libc rand
        hit = (t.value in ("rand", "srand", "random") and _is_call(toks, i)) \
            or t.value == "random_device"
        if hit:
            findings.append(Finding(
                "no-raw-rand", ctx.relpath, t.line,
                "use the seeded mmlib::Rng from util/random.h; raw "
                "rand()/std::random_device breaks reproducibility"))


@rule("no-assert",
      "assert( in src/ library code (use MMLIB_CHECK/MMLIB_DCHECK)")
def check_assert(ctx: FileContext, findings: List[Finding]) -> None:
    if not ctx.in_dir("src/"):
        return
    toks = ctx.lexed.tokens
    for i, t in enumerate(toks):
        if (t.kind == IDENT and t.value == "assert" and _is_call(toks, i)
                and _tok(toks, i - 1).value != "."):
            findings.append(Finding(
                "no-assert", ctx.relpath, t.line,
                "use MMLIB_CHECK/MMLIB_DCHECK from check/check.h instead "
                "of assert()"))


@rule("pragma-once", "headers must contain #pragma once")
def check_pragma_once(ctx: FileContext, findings: List[Finding]) -> None:
    if not ctx.is_header:
        return
    for d in ctx.lexed.directives:
        if d.keyword == "pragma" and d.text.replace(" ", "") == "#pragmaonce":
            return
    findings.append(Finding(
        "pragma-once", ctx.relpath, 1, "header is missing #pragma once"))


@rule("no-iostream", "<iostream> in the src/ library target")
def check_iostream(ctx: FileContext, findings: List[Finding]) -> None:
    if not ctx.in_dir("src/"):
        return
    for d in ctx.lexed.directives:
        if d.keyword == "include" and d.include_target() == "<iostream>":
            findings.append(Finding(
                "no-iostream", ctx.relpath, d.line,
                "library code must not include <iostream>; use <cstdio>, "
                "<sstream>, or util/strings.h"))


_THREAD_POOL_FILES = frozenset(("src/util/thread_pool.h",
                                "src/util/thread_pool.cc"))


@rule("no-raw-thread", "std::thread/std::async outside util::ThreadPool")
def check_raw_thread(ctx: FileContext, findings: List[Finding]) -> None:
    if ctx.relpath in _THREAD_POOL_FILES:
        return
    for d in ctx.lexed.directives:
        if d.keyword == "include" and d.include_target() == "<future>":
            findings.append(_raw_thread_finding(ctx, d.line))
    toks = ctx.lexed.tokens
    for i, t in enumerate(toks):
        if not (t.kind == IDENT and t.value in ("thread", "jthread", "async")
                and _qualified_by(toks, i) == "std"):
            continue
        if (t.value == "thread" and _tok(toks, i + 1).value == "::"
                and _tok(toks, i + 2).value == "hardware_concurrency"):
            continue  # a query, not a spawn; ThreadPool sizes from it
        findings.append(_raw_thread_finding(ctx, t.line))


def _raw_thread_finding(ctx: FileContext, line: int) -> Finding:
    return Finding(
        "no-raw-thread", ctx.relpath, line,
        "spawn parallel work through util::ThreadPool's deterministic "
        "ParallelFor, not raw std::thread/std::async; ad-hoc threads break "
        "the bit-identical-across-thread-counts contract")


_STORE_OPS = frozenset((
    "SaveFile", "LoadFile", "Delete", "FileSize", "FileCount", "Insert",
    "Get", "ListIds", "FindByField"))


@rule("no-unchecked-remote",
      "bare .value() on a store operation in src/dist/")
def check_unchecked_remote(ctx: FileContext, findings: List[Finding]) -> None:
    if not ctx.in_dir("src/dist/"):
        return
    toks = ctx.lexed.tokens
    for i, t in enumerate(toks):
        if not (t.kind == IDENT and t.value in _STORE_OPS
                and _is_call(toks, i)):
            continue
        close = _match_paren(toks, i + 1)
        if close < 0:
            continue
        if (_tok(toks, close + 1).value == "."
                and _tok(toks, close + 2).value == "value"
                and _tok(toks, close + 3).value == "("):
            findings.append(Finding(
                "no-unchecked-remote", ctx.relpath, t.line,
                "remote store calls can fail with Unavailable/"
                "DeadlineExceeded even after retries; propagate with "
                "MMLIB_ASSIGN_OR_RETURN instead of .value()"))


_PERSIST_DIRS = ("src/filestore/", "src/docstore/", "src/core/",
                 "src/persist/")


@rule("no-direct-persist",
      "std::ofstream/fopen file writes in persistence code")
def check_direct_persist(ctx: FileContext, findings: List[Finding]) -> None:
    if not ctx.relpath.startswith(_PERSIST_DIRS):
        return
    toks = ctx.lexed.tokens
    for i, t in enumerate(toks):
        if t.kind != IDENT:
            continue
        qual = _qualified_by(toks, i)
        hit = (t.value in ("ofstream", "fstream") and qual == "std") or (
            t.value == "fopen" and qual in ("", "std")
            and not _member_access(toks, i) and _is_call(toks, i))
        if hit:
            findings.append(Finding(
                "no-direct-persist", ctx.relpath, t.line,
                "persistence code must write through util::AtomicWriteFile "
                "or the save journal; a direct stream write can tear on "
                "crash and is invisible to journal replay"))


_REPLICA_MUTATORS = frozenset((
    "SaveFile", "WriteAllocated", "AllocateFileId", "AllocateDocId",
    "Insert", "InsertWithId", "Delete"))


@rule("no-direct-replica-write",
      "replica mutation bypassing the quorum writer (outside src/repl/)")
def check_direct_replica_write(ctx: FileContext,
                               findings: List[Finding]) -> None:
    if ctx.relpath.startswith("src/repl/"):
        return
    toks = ctx.lexed.tokens
    for i, t in enumerate(toks):
        if not (t.kind == IDENT and t.value in _REPLICA_MUTATORS
                and _is_call(toks, i)):
            continue
        if _tok(toks, i - 1).value != "->":
            continue
        recv = i - 2  # last token of the receiver expression
        # Findings anchor at the receiver's line — a statement like
        # `backends[i]  // lint:allow(...)\n  ->WriteAllocated(...)` wraps,
        # and the allow convention annotates the receiver.
        if _tok(toks, recv).value == ")":
            open_idx = _match_paren_back(toks, recv)
            callee = _tok(toks, open_idx - 1)
            if callee.kind != IDENT:
                continue
            if callee.value == "backend" and _tok(
                    toks, open_idx - 2).value in (".", "->"):
                findings.append(_replica_write_finding(ctx, callee.line))
            elif callee.value == "transport":
                findings.append(_replica_write_finding(ctx, callee.line))
        elif _tok(toks, recv).value == "]":
            open_idx = _match_paren_back(toks, recv, "[", "]")
            arr = _tok(toks, open_idx - 1)
            if arr.kind == IDENT and arr.value.endswith("_backends"):
                findings.append(_replica_write_finding(ctx, arr.line))


def _replica_write_finding(ctx: FileContext, line: int) -> Finding:
    return Finding(
        "no-direct-replica-write", ctx.relpath, line,
        "mutate replicas through the quorum writer (ReplicatedFileStore/"
        "ReplicatedDocumentStore) or the scrubber, never one replica "
        "directly; a lone-replica write diverges silently until "
        "anti-entropy finds it")


_NODISCARD_CLASSES = {
    "src/util/result.h": "Result",
    "src/util/status.h": "Status",
}


@rule("nodiscard-result", "Result/Status must be declared [[nodiscard]]")
def check_nodiscard(ctx: FileContext, findings: List[Finding]) -> None:
    want = _NODISCARD_CLASSES.get(ctx.relpath)
    if want is None:
        return
    toks = ctx.lexed.tokens
    for i, t in enumerate(toks):
        if (t.kind == IDENT and t.value == "class"
                and _tok(toks, i + 1).value == "["
                and _tok(toks, i + 2).value == "["
                and _tok(toks, i + 3).value == "nodiscard"
                and _tok(toks, i + 4).value == "]"
                and _tok(toks, i + 5).value == "]"
                and _tok(toks, i + 6).value == want):
            return
    findings.append(Finding(
        "nodiscard-result", ctx.relpath, 1,
        "error-carrying class lost its [[nodiscard]] annotation; discarded "
        "Result/Status would go unnoticed"))


_QUEUE_DIRS = ("src/serve/", "src/data/")
# A queue member is "bounded" when a comment on its declaration line or the
# three lines above names the bound: the words `bounded` or `capacity`
# (word-boundary match, so "unbounded" never satisfies the rule).
_BOUND_MARKER = re.compile(r"\b(bounded|capacity)\b", re.IGNORECASE)


@rule("no-unbounded-queue",
      "std::deque/std::queue member without a declared capacity bound in "
      "serving/data-path code")
def check_unbounded_queue(ctx: FileContext, findings: List[Finding]) -> None:
    """Serving and data-path queues must shed, never grow without limit.

    An unbounded request queue converts overload into unbounded queueing
    delay for every tenant at once — the failure mode admission control
    exists to prevent. Any std::deque/std::queue *member* (house style:
    trailing-underscore identifier) declared under src/serve/ or src/data/
    must carry a capacity justification next to the declaration (the words
    "bounded" or "capacity" in a comment on the declaration line or the
    three lines above it), or an explicit same-line
    lint:allow(no-unbounded-queue) with its reason.
    """
    if not any(ctx.in_dir(d) for d in _QUEUE_DIRS):
        return
    toks = ctx.lexed.tokens
    lines = ctx.text.splitlines()
    for i, t in enumerate(toks):
        if not (t.kind == IDENT and t.value in ("deque", "queue")):
            continue
        if _qualified_by(toks, i) != "std":
            continue
        if _tok(toks, i + 1).value != "<":
            continue
        # The declared name: last identifier before the terminating ';'
        # (template arguments contribute identifiers too, so scan them all).
        name = None
        j = i + 1
        for _ in range(64):
            if j >= len(toks) or toks[j].value in (";", "(", "="):
                break
            if toks[j].kind == IDENT:
                name = toks[j]
            j += 1
        if name is None or not name.value.endswith("_"):
            continue  # locals, parameters, aliases: not this rule's target
        window = "\n".join(lines[max(0, t.line - 4):t.line])
        if _BOUND_MARKER.search(window):
            continue
        findings.append(Finding(
            "no-unbounded-queue", ctx.relpath, t.line,
            f"queue member `{name.value}` has no declared capacity bound; "
            "serving/data-path queues must be bounded (shed on overflow) — "
            "state the bound in a comment at the declaration or justify "
            "with lint:allow(no-unbounded-queue)"))
