#!/usr/bin/env python3
"""Repo-specific concurrency-discipline lint (stdlib only).

Rules (each also documented in README.md "Static analysis"):

  atomic-order     Every std::atomic load/store/RMW in src/ must name an
                   explicit std::memory_order — an implicit seq_cst on a hot
                   path is almost always an unreviewed decision, and making
                   the order visible is what lets a reviewer check it.
                   Compound operator forms (a++, a += x, a = x) on declared
                   atomic members are flagged for the same reason.

  qsbr-free        Inside src/core, `delete`/`free` of index structure
                   memory (Leaf / Node / bucket lines / tables) must go
                   through Qsbr::Retire: a lock-free reader may still hold a
                   pointer to anything that was ever published. Inline
                   frees are only legal pre-publication or in destructors
                   (whose contract excludes concurrent readers) — those
                   sites carry an explicit waiver.

  raw-mutex        No raw std::mutex / std::shared_mutex / std lock RAII
                   declarations outside src/common/sync.h: every lock must
                   be an annotated capability (wh::Mutex / wh::SharedMutex)
                   so Clang Thread Safety Analysis can see it.

  hot-path-string  Functions marked with a `// hot-path` comment must not
                   construct std::string (allocation + copy on paths whose
                   whole point is to avoid both). string_view is fine.

  raw-io           Inside src/durability/, no direct file I/O — POSIX calls
                   (open/write/fsync/rename/...), stdio (fopen/fwrite/...),
                   or std::ofstream/std::filesystem. Every persisted byte
                   must move through the fault-injectable Fs layer
                   (src/durability/fault_file.{h,cc}, the rule's home files)
                   so the crash tests can intercept it; a direct call is a
                   hole in the fault-injection coverage.

  seqlock-order    The leaf `version` seqlock counter has exactly one legal
                   protocol (odd/even write sections, acquire-validated
                   reads), implemented by the helpers in src/core/leaf_ops.h
                   and their call sites in src/core/wormhole.cc — the
                   read bracket SpecBegin / SpecEnd (shared by Get's
                   OptimisticLeafGet, MultiGet's pipelined stage 3 via
                   PointVerdict, and the cursor's ExtractWindow), the
                   cursor hop revalidation (CursorImpl::Hop) and the
                   writers' SeqlockWriteSection brackets; the read paths
                   also serve as the read fallbacks by running under the
                   leaf's shared lock. Any direct
                   `version` load/store/RMW or operator form in any other
                   file fails; inside the two home files, method calls must
                   still name an explicit std::memory_order and operator
                   forms (implicit seq_cst, and invisible to review) are
                   banned outright. Passing `&leaf->version` to a helper is
                   the sanctioned handoff and does not match. The leaf
                   retirement flag `dead` rides on the same protocol (its
                   store publishes under the removal write section; readers
                   recheck it after validate), so its atomic METHOD CALLS
                   are policed the same way — call forms only, because
                   LeafStore::dead is an unrelated plain dead-bytes counter
                   whose `+=` must not match.

  slab-view        The view invariant (src/core/leaf_ops.h): the bytes a
                   validated slot references never change for the life of
                   their slab block, because cursor windows hand out plain
                   views of them. So no store into a published block may
                   land at a slot-derived offset: a RelaxedCopyIn or
                   RelaxedStore* call whose destination argument names a
                   slot's `.koff`/`.voff` (or `->koff`/`->voff`) fails. New
                   bytes go past the slab's live end; a rewrite goes to a
                   fresh block.

Suppression, most-specific first:
  - inline waiver: a `// lint:allow(<rule>): <reason>` comment on the
    flagged line or the line above it. The reason is mandatory.
  - allowlist file (scripts/lint_allowlist.txt): lines of the form
    `<rule>|<path substring>|<line substring>` with `#` comments.

Usage: lint_concurrency.py [--root DIR] [--allowlist FILE] [--list-rules]
Exit status: 0 clean, 1 violations, 2 usage error.
"""

import argparse
import os
import re
import sys

# Atomic member functions whose implicit memory order is seq_cst. The names
# are specific enough that non-atomic receivers (vector::clear-style noise)
# never collide with them in this tree.
ATOMIC_CALLS = (
    "load",
    "store",
    "exchange",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "compare_exchange_weak",
    "compare_exchange_strong",
)

RULES = ("atomic-order", "qsbr-free", "raw-mutex", "hot-path-string",
         "seqlock-order", "raw-io", "slab-view")

# Stores into a published SpecVec block (leaf_ops.h); their first argument
# is the destination.
SLAB_STORE_RE = re.compile(
    r"\bRelaxed(?:CopyIn|Store(?:8|16|32|64|Entry))\s*\(")

# A slot-derived slab offset: a LeafSlot's key or out-of-line value offset.
SLOT_OFFSET_RE = re.compile(r"(?:\.|->)\s*[kv]off\b")

# The only files allowed to issue raw file I/O: the fault-injection choke
# point itself.
RAW_IO_HOME_FILES = ("src/durability/fault_file.h",
                     "src/durability/fault_file.cc")

# Bare (or ::-qualified) calls to POSIX/stdio file primitives. The lookbehind
# rejects member calls (x.read(...)) and std::-qualified names — those are
# matched by RAW_IO_STD_RE instead.
RAW_IO_CALL_RE = re.compile(
    r"(?<![\w.>])(?:::\s*)?\b(?:open|openat|creat|write|pwrite|writev|read|"
    r"pread|fsync|fdatasync|close|rename|renameat|unlink|unlinkat|ftruncate|"
    r"truncate|mkdir|rmdir|opendir|readdir|closedir|fopen|fclose|fwrite|"
    r"fread|fflush)\s*\(")

RAW_IO_STD_RE = re.compile(
    r"std::(?:ofstream|ifstream|fstream|filesystem\b|fopen|fwrite|fread|"
    r"fflush|remove\s*\(|rename\s*\()")

# Files allowed to touch the seqlock counter directly: the helper layer and
# the one translation unit that brackets mutations / validates reads with it.
SEQLOCK_HOME_FILES = ("src/core/leaf_ops.h", "src/core/wormhole.cc")

# `version` reached as a member (x.version.load(...), p->version.store(...))
# or directly, followed by an atomic method call.
SEQLOCK_CALL_RE = re.compile(
    r"\bversion\s*(?:\.|->)\s*(" + "|".join(ATOMIC_CALLS) + r")\s*\(")

# Operator forms on the counter: ++/--/compound-assign/plain assignment.
# (Brace-init in the declaration does not match; `==`/`!=` comparisons are
# excluded by the lookarounds.)
SEQLOCK_OP_RE = re.compile(r"\bversion\s*(\+\+|--|\+=|-=|\|=|&=|\^=|=(?!=))")

# The leaf retirement flag participates in the same protocol (speculative
# readers recheck it after SeqlockReadValidate), so its atomic method calls
# obey the same home-file + explicit-order rules. CALL FORMS ONLY:
# LeafStore::dead is a plain uint32 dead-bytes counter mutated with `+=` in
# leaf_ops.h, so an operator-form check on `dead` would false-positive.
SEQLOCK_DEAD_CALL_RE = re.compile(
    r"\bdead\s*(?:\.|->)\s*(" + "|".join(ATOMIC_CALLS) + r")\s*\(")

RAW_MUTEX_RE = re.compile(
    r"std::(mutex|shared_mutex|timed_mutex|recursive_mutex|lock_guard|"
    r"unique_lock|shared_lock|scoped_lock|condition_variable)\b"
)

ATOMIC_DECL_RE = re.compile(
    r"std::atomic<[^;{}]*>\s+(\w+)\s*(?:\{[^;]*\}|=[^;]*)?;"
)

# a++ / a-- / a += x / a -= x / a |= x / a &= x / a ^= x / a = x on a known
# atomic name (assignment through the atomic's operator= is seq_cst). Only
# direct uses: a receiver reached through `.`/`->` has a type this text-level
# lint cannot resolve (a file may hold unrelated structs that share a member
# name with different atomicity), so those are left to the method-call check.
def compound_atomic_re(name):
    return re.compile(
        r"(?<![\w.>])" + re.escape(name) +
        r"\s*(\+\+|--|\+=|-=|\|=|&=|\^=|=(?!=))"
    )


DELETE_FREE_RE = re.compile(r"(?<!\w)(delete(?:\[\])?\s+\w|free\s*\()")

WAIVER_RE = re.compile(r"//\s*lint:allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)\s*:\s*\S")

HOT_PATH_MARK_RE = re.compile(r"//\s*hot-path\b")

# std::string construction: declarations, temporaries, std::to_string. A
# std::string_view token must not match, nor a reference/pointer to an
# existing string (no allocation happens there).
HOT_STRING_RE = re.compile(r"std::(?:string\b(?!_view)(?!\s*[&*])|to_string\b)")


def strip_code(text):
    """Removes comments and string/char literal *contents*, preserving line
    structure so reported line numbers match the file."""
    out = []
    i = 0
    n = len(text)
    state = "code"  # code | line_comment | block_comment | dquote | squote
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                i += 2
                continue
            if c == '"':
                state = "dquote"
                out.append(c)
                i += 1
                continue
            if c == "'":
                state = "squote"
                out.append(c)
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append(c)
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                i += 2
                continue
            if c == "\n":
                out.append(c)
        elif state in ("dquote", "squote"):
            quote = '"' if state == "dquote" else "'"
            if c == "\\":
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(c)
            elif c == "\n":  # unterminated (macro line continuation); bail
                state = "code"
                out.append(c)
        i += 1
    return "".join(out)


def call_args(code, start):
    """Returns the balanced-paren argument text starting at code[start] == '('
    (possibly spanning lines), or None if unbalanced/truncated."""
    depth = 0
    i = start
    while i < len(code):
        c = code[i]
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth == 0:
                return code[start + 1:i]
        i += 1
    return None


class Linter:
    def __init__(self, root, allowlist_path):
        self.root = root
        self.violations = []
        self.allowlist = []
        if allowlist_path and os.path.exists(allowlist_path):
            with open(allowlist_path, encoding="utf-8") as f:
                for ln in f:
                    ln = ln.strip()
                    if not ln or ln.startswith("#"):
                        continue
                    parts = ln.split("|", 2)
                    if len(parts) != 3:
                        print(f"{allowlist_path}: malformed entry: {ln}",
                              file=sys.stderr)
                        sys.exit(2)
                    self.allowlist.append(tuple(parts))

    def allowed(self, rule, relpath, lineno, raw_lines):
        line = raw_lines[lineno - 1]
        prev = raw_lines[lineno - 2] if lineno >= 2 else ""
        for candidate in (line, prev):
            m = WAIVER_RE.search(candidate)
            if m and rule in [r.strip() for r in m.group(1).split(",")]:
                return True
        for arule, apath, asub in self.allowlist:
            if arule == rule and apath in relpath and asub in line:
                return True
        return False

    def report(self, rule, relpath, lineno, raw_lines, msg):
        if not self.allowed(rule, relpath, lineno, raw_lines):
            self.violations.append(f"{relpath}:{lineno}: [{rule}] {msg}")

    def lint_file(self, relpath):
        path = os.path.join(self.root, relpath)
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
        raw_lines = text.split("\n")
        code = strip_code(text)
        code_lines = code.split("\n")

        in_src = relpath.startswith("src/")
        in_core = relpath.startswith("src/core/")
        is_sync_h = relpath == "src/common/sync.h"

        if not is_sync_h:
            self.check_raw_mutex(relpath, code_lines, raw_lines)
        if in_src:
            self.check_atomic_order(relpath, code, code_lines, raw_lines)
        if in_core:
            self.check_qsbr_free(relpath, code_lines, raw_lines)
        if (relpath.startswith("src/durability/")
                and relpath not in RAW_IO_HOME_FILES):
            self.check_raw_io(relpath, code_lines, raw_lines)
        self.check_hot_path_string(relpath, raw_lines, code_lines)
        self.check_seqlock_order(relpath, code, code_lines, raw_lines)
        self.check_slab_view(relpath, code, raw_lines)

    def check_slab_view(self, relpath, code, raw_lines):
        for m in SLAB_STORE_RE.finditer(code):
            args = call_args(code, m.end() - 1)
            if args is None:
                continue
            depth = 0
            dest = args
            for i, c in enumerate(args):
                if c in "([{":
                    depth += 1
                elif c in ")]}":
                    depth -= 1
                elif c == "," and depth == 0:
                    dest = args[:i]
                    break
            if SLOT_OFFSET_RE.search(dest):
                lineno = code.count("\n", 0, m.start()) + 1
                self.report(
                    "slab-view", relpath, lineno, raw_lines,
                    "store into a slab at a slot-derived offset; cursor "
                    "views rely on a slot's bytes never changing (the view "
                    "invariant in leaf_ops.h) — append past the live end")

    def check_raw_mutex(self, relpath, code_lines, raw_lines):
        for idx, line in enumerate(code_lines):
            if RAW_MUTEX_RE.search(line):
                self.report(
                    "raw-mutex", relpath, idx + 1, raw_lines,
                    "raw std:: lock primitive; use the annotated wrappers "
                    "from src/common/sync.h")

    def check_atomic_order(self, relpath, code, code_lines, raw_lines):
        # Method-call forms, matched against the flat text so an argument
        # list spanning lines is still parsed; reported at the call line.
        for call in ATOMIC_CALLS:
            for m in re.finditer(r"\.\s*" + call + r"\s*\(", code):
                args = call_args(code, m.end() - 1)
                if args is None or "memory_order" not in args:
                    lineno = code.count("\n", 0, m.start()) + 1
                    self.report(
                        "atomic-order", relpath, lineno, raw_lines,
                        f".{call}() without an explicit std::memory_order "
                        "(implicit seq_cst)")
        # Operator forms on members declared std::atomic in this file. A name
        # also declared non-atomic anywhere in the file (an atomic member
        # `next` beside a local `Leaf* next`) is ambiguous to a text-level
        # lint and skipped — the method-call check above is the load/store
        # enforcement either way.
        atomic_names = set()
        for m in ATOMIC_DECL_RE.finditer(code):
            atomic_names.add(m.group(1))
        for name in sorted(atomic_names):
            plain_decl = re.compile(
                r"^\s*(?:[A-Za-z_][\w:]*(?:<[^\n;]*>)?[\s*&]+)" +
                re.escape(name) + r"\s*(?:=|;|\{|$)")
            if any(plain_decl.search(l) and "std::atomic" not in l
                   for l in code_lines):
                continue
            pat = compound_atomic_re(name)
            for idx, line in enumerate(code_lines):
                if ATOMIC_DECL_RE.search(line):
                    continue  # the declaration's own initializer
                if pat.search(line):
                    self.report(
                        "atomic-order", relpath, idx + 1, raw_lines,
                        f"operator form on std::atomic '{name}' is seq_cst; "
                        "use .load/.store/.fetch_* with an explicit order")

    def check_seqlock_order(self, relpath, code, code_lines, raw_lines):
        home = relpath in SEQLOCK_HOME_FILES
        # Method-call forms, against the flat text so multi-line argument
        # lists still parse.
        for m in SEQLOCK_CALL_RE.finditer(code):
            lineno = code.count("\n", 0, m.start()) + 1
            if not home:
                self.report(
                    "seqlock-order", relpath, lineno, raw_lines,
                    "direct access to the leaf seqlock counter outside "
                    "leaf_ops.h/wormhole.cc; use the SeqlockReadBegin/"
                    "SeqlockReadValidate/SeqlockWriteSection helpers")
                continue
            args = call_args(code, m.end() - 1)
            if args is None or "memory_order" not in args:
                self.report(
                    "seqlock-order", relpath, lineno, raw_lines,
                    f"seqlock counter .{m.group(1)}() without an explicit "
                    "std::memory_order")
        # The retirement flag: same home files, same explicit-order demand
        # (call forms only — see SEQLOCK_DEAD_CALL_RE).
        for m in SEQLOCK_DEAD_CALL_RE.finditer(code):
            lineno = code.count("\n", 0, m.start()) + 1
            if not home:
                self.report(
                    "seqlock-order", relpath, lineno, raw_lines,
                    "direct access to the leaf retirement flag outside "
                    "leaf_ops.h/wormhole.cc; speculative readers go through "
                    "Leaf::retired() after SeqlockReadValidate")
                continue
            args = call_args(code, m.end() - 1)
            if args is None or "memory_order" not in args:
                self.report(
                    "seqlock-order", relpath, lineno, raw_lines,
                    f"leaf retirement flag .{m.group(1)}() without an "
                    "explicit std::memory_order")
        # Operator forms are never legal: the write protocol is the RAII
        # SeqlockWriteSection, and an implicit-seq_cst bump hides the
        # odd/even bracket from review.
        for idx, line in enumerate(code_lines):
            if SEQLOCK_OP_RE.search(line):
                self.report(
                    "seqlock-order", relpath, idx + 1, raw_lines,
                    "operator form on the leaf seqlock counter; mutations "
                    "must go through leafops::SeqlockWriteSection")

    def check_raw_io(self, relpath, code_lines, raw_lines):
        for idx, line in enumerate(code_lines):
            if RAW_IO_CALL_RE.search(line) or RAW_IO_STD_RE.search(line):
                self.report(
                    "raw-io", relpath, idx + 1, raw_lines,
                    "direct file I/O in src/durability; all persisted bytes "
                    "must go through the fault-injectable Fs layer "
                    "(fault_file.h)")

    def check_qsbr_free(self, relpath, code_lines, raw_lines):
        for idx, line in enumerate(code_lines):
            if DELETE_FREE_RE.search(line):
                self.report(
                    "qsbr-free", relpath, idx + 1, raw_lines,
                    "inline delete/free in src/core; published index "
                    "structures must go through Qsbr::Retire")

    def check_hot_path_string(self, relpath, raw_lines, code_lines):
        # A `// hot-path` marker line opens a region covering the next
        # function body: from the first '{' at or after the marker through
        # its matching '}'. Brace counting runs on comment-stripped text.
        i = 0
        n = len(raw_lines)
        while i < n:
            if not HOT_PATH_MARK_RE.search(raw_lines[i]):
                i += 1
                continue
            marker_line = i
            depth = 0
            opened = False
            j = i
            while j < n:
                for ch in code_lines[j]:
                    if ch == "{":
                        depth += 1
                        opened = True
                    elif ch == "}":
                        depth -= 1
                if opened and depth <= 0:
                    break
                if not opened and j - marker_line > 10:
                    break  # marker not followed by a body; ignore it
                j += 1
            for k in range(marker_line, min(j + 1, n)):
                if HOT_STRING_RE.search(code_lines[k]):
                    self.report(
                        "hot-path-string", relpath, k + 1, raw_lines,
                        "std::string construction inside a // hot-path "
                        "function")
            i = j + 1

    def run(self, subdirs):
        files = []
        for sub in subdirs:
            top = os.path.join(self.root, sub)
            if not os.path.isdir(top):
                continue
            for dirpath, _, names in os.walk(top):
                for name in sorted(names):
                    if name.endswith((".h", ".cc", ".cpp", ".hpp")):
                        full = os.path.join(dirpath, name)
                        files.append(os.path.relpath(full, self.root))
        for relpath in sorted(files):
            self.lint_file(relpath)
        return files


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=None,
                    help="repo root (default: the parent of this script)")
    ap.add_argument("--allowlist", default=None,
                    help="allowlist file (default: <root>/scripts/"
                         "lint_allowlist.txt)")
    ap.add_argument("--list-rules", action="store_true")
    args = ap.parse_args()

    if args.list_rules:
        for r in RULES:
            print(r)
        return 0

    root = os.path.abspath(
        args.root
        or os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
    allowlist = args.allowlist or os.path.join(root, "scripts",
                                               "lint_allowlist.txt")
    linter = Linter(root, allowlist)
    files = linter.run(["src", "bench", "tests"])
    for v in linter.violations:
        print(v)
    if linter.violations:
        print(f"lint_concurrency: {len(linter.violations)} violation(s) in "
              f"{len(files)} files", file=sys.stderr)
        return 1
    print(f"lint_concurrency: OK ({len(files)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
