#!/usr/bin/env python3
"""Fixture tests for scripts/lint_concurrency.py: every rule must FIRE on a
known-bad snippet and be SUPPRESSED by an inline waiver and by the allowlist.

Each case builds a throwaway tree (tempdir with src/core etc.), runs the lint
as a subprocess against it with --root/--allowlist, and asserts on exit code
and the reported rule/line. Pure stdlib; registered as ctest `test_lint` and
also run by the check.sh `lint` stage.
"""

import os
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LINT = os.path.join(REPO, "scripts", "lint_concurrency.py")

FAILURES = []


def run_lint(root, allowlist_lines=None):
    allowlist = os.path.join(root, "allow.txt")
    with open(allowlist, "w") as f:
        f.write("\n".join(allowlist_lines or []) + "\n")
    proc = subprocess.run(
        [sys.executable, LINT, "--root", root, "--allowlist", allowlist],
        capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def write_tree(root, relpath, content):
    path = os.path.join(root, relpath)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        f.write(content)


def check(name, cond, detail=""):
    if cond:
        print(f"  ok: {name}")
    else:
        print(f"  FAIL: {name} {detail}")
        FAILURES.append(name)


def case(title):
    print(f"[{title}]")


def expect_fires(title, relpath, content, rule, allowlist_lines=None):
    with tempfile.TemporaryDirectory() as root:
        write_tree(root, relpath, content)
        code, out = run_lint(root, allowlist_lines)
        check(f"{title} fires", code == 1 and f"[{rule}]" in out,
              f"(exit {code}, output: {out.strip()!r})")


def expect_clean(title, relpath, content, allowlist_lines=None):
    with tempfile.TemporaryDirectory() as root:
        write_tree(root, relpath, content)
        code, out = run_lint(root, allowlist_lines)
        check(f"{title} clean", code == 0,
              f"(exit {code}, output: {out.strip()!r})")


# --- atomic-order -----------------------------------------------------------

case("atomic-order")

BAD_ATOMIC = """#include <atomic>
std::atomic<int> counter{0};
int f() { return counter.load(); }
"""
expect_fires("implicit load", "src/x.cc", BAD_ATOMIC, "atomic-order")

expect_clean("explicit load", "src/x.cc", """#include <atomic>
std::atomic<int> counter{0};
int f() { return counter.load(std::memory_order_relaxed); }
""")

expect_fires("implicit store", "src/x.cc", """#include <atomic>
std::atomic<int> counter{0};
void f() { counter.store(1); }
""", "atomic-order")

expect_fires("implicit fetch_add", "src/x.cc", """#include <atomic>
std::atomic<int> counter{0};
void f() { counter.fetch_add(1); }
""", "atomic-order")

expect_fires("operator++ on declared atomic", "src/x.cc", """#include <atomic>
std::atomic<int> counter{0};
void f() { counter++; }
""", "atomic-order")

expect_fires("operator= on declared atomic", "src/x.cc", """#include <atomic>
std::atomic<int> counter{0};
void f() { counter = 7; }
""", "atomic-order")

expect_clean("multi-line args with order", "src/x.cc", """#include <atomic>
std::atomic<int> counter{0};
void f() {
  counter.store(42,
                std::memory_order_release);
}
""")

expect_clean("ambiguous name skipped", "src/x.cc", """#include <atomic>
std::atomic<int> counter{0};
void f() {
  int counter = 0;  // shadowing plain decl makes the name ambiguous
  counter = 7;
}
""")

expect_clean("outside src/ not scanned", "bench/x.cc", BAD_ATOMIC)

expect_clean("call in comment ignored", "src/x.cc", """#include <atomic>
std::atomic<int> counter{0};
// counter.load() would be implicit seq_cst
int f() { return counter.load(std::memory_order_acquire); }
""")

expect_clean("inline waiver", "src/x.cc", """#include <atomic>
std::atomic<int> counter{0};
// lint:allow(atomic-order): fixture demonstrating the waiver syntax
int f() { return counter.load(); }
""")

expect_fires("waiver without reason still fires", "src/x.cc",
             """#include <atomic>
std::atomic<int> counter{0};
// lint:allow(atomic-order):
int f() { return counter.load(); }
""", "atomic-order")

expect_clean("allowlist", "src/x.cc", BAD_ATOMIC,
             ["atomic-order|src/x.cc|counter.load()"])

expect_fires("allowlist for other rule does not suppress", "src/x.cc",
             BAD_ATOMIC, "atomic-order",
             ["qsbr-free|src/x.cc|counter.load()"])

# --- qsbr-free --------------------------------------------------------------

case("qsbr-free")

BAD_DELETE = """struct Leaf { int x; };
void f(Leaf* l) { delete l; }
"""
expect_fires("delete in src/core", "src/core/x.cc", BAD_DELETE, "qsbr-free")

expect_fires("free() in src/core", "src/core/x.cc", """#include <cstdlib>
void f(void* p) { free(p); }
""", "qsbr-free")

expect_clean("delete outside src/core", "src/common/x.cc", BAD_DELETE)

expect_clean("retire instead of delete", "src/core/x.cc", """struct Leaf {};
struct Q { void Retire(Leaf*); };
void f(Q* q, Leaf* l) { q->Retire(l); }
""")

expect_clean("deleted special member not flagged", "src/core/x.cc",
             """struct Leaf {
  Leaf(const Leaf&) = delete;
  Leaf& operator=(const Leaf&) = delete;
};
""")

expect_clean("inline waiver", "src/core/x.cc", """struct Leaf { int x; };
void f(Leaf* l) {
  delete l;  // lint:allow(qsbr-free): fixture — pre-publication teardown
}
""")

expect_clean("waiver on the preceding line", "src/core/x.cc",
             """struct Leaf { int x; };
void f(Leaf* l) {
  // lint:allow(qsbr-free): fixture — pre-publication teardown
  delete l;
}
""")

expect_clean("allowlist", "src/core/x.cc", BAD_DELETE,
             ["qsbr-free|src/core/x.cc|delete l"])

expect_fires("allowlist path mismatch does not suppress", "src/core/x.cc",
             BAD_DELETE, "qsbr-free", ["qsbr-free|src/other.cc|delete l"])

# --- raw-mutex --------------------------------------------------------------

case("raw-mutex")

BAD_MUTEX = """#include <mutex>
std::mutex mu;
"""
expect_fires("std::mutex decl", "src/x.cc", BAD_MUTEX, "raw-mutex")
expect_fires("std::shared_mutex decl", "src/x.h", """#include <shared_mutex>
class C { std::shared_mutex mu_; };
""", "raw-mutex")
expect_fires("std::lock_guard", "src/x.cc", """#include <mutex>
void f() { static std::mutex m; std::lock_guard<std::mutex> g(m); }
""", "raw-mutex")
expect_fires("raw mutex in tests/ too", "tests/x.cc", BAD_MUTEX, "raw-mutex")
expect_fires("raw mutex in bench/ too", "bench/x.cc", BAD_MUTEX, "raw-mutex")

expect_clean("wrapper types are fine", "src/x.cc", """#include "src/common/sync.h"
wh::Mutex mu;
void f() { wh::ScopedLock g(mu); }
""")

expect_clean("mention in comment is fine", "src/x.cc",
             "// an earlier revision used one global std::shared_mutex\n")

expect_clean("sync.h itself is exempt", "src/common/sync.h", BAD_MUTEX)

expect_clean("inline waiver", "src/x.cc", """#include <mutex>
std::mutex mu;  // lint:allow(raw-mutex): fixture
""")

# --- hot-path-string --------------------------------------------------------

case("hot-path-string")

expect_fires("string construction in hot-path fn", "src/x.cc", """// hot-path
int f() {
  std::string s("boom");
  return s.size();
}
""", "hot-path-string")

expect_fires("std::to_string in hot-path fn", "src/x.cc", """// hot-path: count
int f(int x) { return std::to_string(x).size(); }
""", "hot-path-string")

expect_clean("string_view is fine", "src/x.cc", """// hot-path
int f(std::string_view key) { return key.size(); }
""")

expect_clean("const string& is fine", "src/x.cc", """// hot-path
int f(const std::string& key) { return key.size(); }
""")

expect_clean("string after the hot function", "src/x.cc", """// hot-path
int f(int x) { return x; }

std::string g() { return std::string("fine here"); }
""")

expect_clean("unmarked function unrestricted", "src/x.cc", """
std::string f() { return std::string("fine"); }
""")

expect_clean("inline waiver", "src/x.cc", """// hot-path
int f() {
  // lint:allow(hot-path-string): fixture — cold error branch
  std::string s("rare");
  return s.size();
}
""")

# --- seqlock-order ----------------------------------------------------------

case("seqlock-order")

# Explicit order, so only seqlock-order can fire: the access is outside the
# two home files.
BAD_SEQLOCK_FOREIGN = """#include <atomic>
struct Leaf { std::atomic<unsigned long> version{0}; };
unsigned long f(Leaf* l) {
  return l->version.load(std::memory_order_acquire);
}
"""
expect_fires("version access outside home files", "src/core/x.cc",
             BAD_SEQLOCK_FOREIGN, "seqlock-order")

expect_fires("version access in tests/ too", "tests/x.cc",
             BAD_SEQLOCK_FOREIGN, "seqlock-order")

expect_fires("implicit order inside wormhole.cc", "src/core/wormhole.cc",
             """#include <atomic>
struct Leaf { std::atomic<unsigned long> version{0}; };
unsigned long f(Leaf* l) { return l->version.load(); }
""", "seqlock-order")

expect_clean("explicit order inside wormhole.cc", "src/core/wormhole.cc",
             """#include <atomic>
struct Leaf { std::atomic<unsigned long> version{0}; };
unsigned long f(Leaf* l) {
  return l->version.load(std::memory_order_relaxed);
}
""")

expect_fires("operator form banned even in a home file", "src/core/wormhole.cc",
             """#include <atomic>
struct Leaf { std::atomic<unsigned long> version{0}; };
void f(Leaf* l) { l->version += 2; }
""", "seqlock-order")

expect_clean("helper handoff by address is sanctioned", "src/core/x.cc",
             """#include <atomic>
struct Leaf { std::atomic<unsigned long> version{0}; };
struct Section { explicit Section(std::atomic<unsigned long>*); };
void f(Leaf* l) { Section ws(&l->version); }
""")

expect_clean("mention in comment is fine", "src/core/x.cc",
             "// readers snapshot version.load(std::memory_order_acquire)\n")

expect_clean("unrelated member name does not match", "src/core/x.cc",
             """#include <atomic>
struct C { unsigned long leaf_version_ = 0; };
void f(C* c) { c->leaf_version_ = 7; }
""")

expect_clean("inline waiver", "src/core/x.cc", """#include <atomic>
struct Leaf { std::atomic<unsigned long> version{0}; };
unsigned long f(Leaf* l) {
  // lint:allow(seqlock-order): fixture demonstrating the waiver syntax
  return l->version.load(std::memory_order_acquire);
}
""")

expect_clean("allowlist", "src/core/x.cc", BAD_SEQLOCK_FOREIGN,
             ["seqlock-order|src/core/x.cc|l->version.load"])

# The leaf retirement flag rides on the same rule (speculative fills recheck
# it after validation), call forms only.
BAD_DEAD_FOREIGN = """#include <atomic>
struct Leaf { std::atomic<bool> dead{false}; };
bool f(Leaf* l) {
  return l->dead.load(std::memory_order_acquire);
}
"""
expect_fires("dead-flag access outside home files", "src/core/x.cc",
             BAD_DEAD_FOREIGN, "seqlock-order")

expect_fires("dead-flag access in tests/ too", "tests/x.cc",
             BAD_DEAD_FOREIGN, "seqlock-order")

expect_fires("dead-flag implicit order inside wormhole.cc",
             "src/core/wormhole.cc", """#include <atomic>
struct Leaf { std::atomic<bool> dead{false}; };
void f(Leaf* l) { l->dead.store(true); }
""", "seqlock-order")

expect_clean("dead-flag explicit order inside wormhole.cc",
             "src/core/wormhole.cc", """#include <atomic>
struct Leaf { std::atomic<bool> dead{false}; };
void f(Leaf* l) { l->dead.store(true, std::memory_order_release); }
""")

expect_clean("plain dead-bytes counter += does not match", "src/core/x.h",
             """struct Store { unsigned dead = 0; };
void f(Store* s, unsigned n) { s->dead += n; }
""")

# --- raw-io -----------------------------------------------------------------

case("raw-io")

BAD_RAW_IO = """#include <unistd.h>
#include <fcntl.h>
int f(const char* p) { return open(p, O_RDONLY); }
"""
expect_fires("open() in src/durability", "src/durability/x.cc", BAD_RAW_IO,
             "raw-io")

expect_fires("fsync() in src/durability", "src/durability/x.cc",
             """#include <unistd.h>
void f(int fd) { fsync(fd); }
""", "raw-io")

expect_fires("::write in src/durability", "src/durability/x.cc",
             """#include <unistd.h>
void f(int fd, const char* p, unsigned long n) { ::write(fd, p, n); }
""", "raw-io")

expect_fires("std::ofstream in src/durability", "src/durability/x.cc",
             """#include <fstream>
void f() { std::ofstream out("x"); }
""", "raw-io")

expect_fires("std::rename in src/durability", "src/durability/x.cc",
             """#include <cstdio>
void f() { std::rename("a", "b"); }
""", "raw-io")

expect_clean("fault layer Fs calls are fine", "src/durability/x.cc",
             """#include "src/durability/fault_file.h"
wh::durability::Status f(wh::durability::Fs* fs) {
  return fs->WriteFile("a", "b");
}
""")

expect_clean("the home files are exempt", "src/durability/fault_file.cc",
             BAD_RAW_IO)

expect_clean("raw I/O outside src/durability not in scope",
             "src/server/x.cc", BAD_RAW_IO)

expect_clean("member .read()/.close() calls are not syscalls",
             "src/durability/x.cc",
             """int f(Stream* s, Stream& t) { return s->read(1) + t.close(); }
""")

expect_clean("mention in comment is fine", "src/durability/x.cc",
             "// recovery must never call open() or fsync() directly\n")

expect_clean("inline waiver", "src/durability/x.cc", """#include <unistd.h>
void f(int fd) {
  fsync(fd);  // lint:allow(raw-io): fixture demonstrating the waiver syntax
}
""")

expect_clean("allowlist", "src/durability/x.cc", BAD_RAW_IO,
             ["raw-io|src/durability/x.cc|open(p"])

# --- slab-view --------------------------------------------------------------

case("slab-view")

# The in-place shrink overwrite UpdateValue used to make: it rewrote bytes a
# cursor window may still be viewing.
BAD_SLAB_VIEW = """struct Slot { unsigned koff, voff; };
void RelaxedCopyIn(char* dst, const char* src, unsigned long n);
void f(char* slab, Slot sl, const char* v, unsigned long n) {
  RelaxedCopyIn(slab + sl.voff, v, n);
}
"""
expect_fires("copy-in at a slot's value offset", "src/core/leaf_ops.h",
             BAD_SLAB_VIEW, "slab-view")

expect_fires("store through a slot pointer's key offset", "src/core/x.h",
             """struct Slot { unsigned koff, voff; };
void RelaxedStore8(char* p, char v);
void f(char* slab, const Slot* sl) { RelaxedStore8(slab + sl->koff, 'x'); }
""", "slab-view")

expect_fires("multi-line call", "src/core/x.h", """struct Slot { unsigned voff; };
void RelaxedCopyIn(char* dst, const char* src, unsigned long n);
void f(char* slab, Slot sl, const char* v, unsigned long n) {
  RelaxedCopyIn(slab +
                    sl.voff,
                v, n);
}
""", "slab-view")

expect_clean("append past the live end", "src/core/x.h",
             """struct Store { unsigned long size; char* data; };
void RelaxedCopyIn(char* dst, const char* src, unsigned long n);
void f(Store* s, const char* v, unsigned long n) {
  const unsigned voff = static_cast<unsigned>(s->size);
  RelaxedCopyIn(s->data + voff, v, n);
}
""")

expect_clean("slot offset in a later argument", "src/core/x.h",
             """struct Slot { unsigned koff; };
void RelaxedCopyIn(char* dst, const char* src, unsigned long n);
void f(char* fresh, const char* slab, Slot sl) {
  RelaxedCopyIn(fresh, slab + sl.koff, 4);
}
""")

expect_clean("inline waiver", "src/core/x.h", """struct Slot { unsigned voff; };
void RelaxedCopyIn(char* dst, const char* src, unsigned long n);
void f(char* slab, Slot sl, const char* v, unsigned long n) {
  // lint:allow(slab-view): fixture demonstrating the waiver syntax
  RelaxedCopyIn(slab + sl.voff, v, n);
}
""")

expect_clean("allowlist", "src/core/leaf_ops.h", BAD_SLAB_VIEW,
             ["slab-view|src/core/leaf_ops.h|sl.voff"])

# --- multiple rules at once -------------------------------------------------

case("combined")

with tempfile.TemporaryDirectory() as root:
    write_tree(root, "src/core/x.cc", """#include <atomic>
#include <mutex>
struct Leaf {};
std::atomic<int> n{0};
std::mutex mu;
void f(Leaf* l) {
  n.fetch_add(1);
  delete l;
}
""")
    code, out = run_lint(root)
    check("all three rules fire", code == 1
          and "[atomic-order]" in out and "[raw-mutex]" in out
          and "[qsbr-free]" in out, f"(output: {out.strip()!r})")
    check("violation count reported", "3 violation(s)" in out,
          f"(output: {out.strip()!r})")

# --- the real tree is clean -------------------------------------------------

case("repo")

proc = subprocess.run([sys.executable, LINT], capture_output=True, text=True,
                      cwd=REPO)
check("repo tree is lint-clean", proc.returncode == 0,
      f"(exit {proc.returncode}: {proc.stdout.strip()!r} {proc.stderr.strip()!r})")

print()
if FAILURES:
    print(f"test_lint: {len(FAILURES)} FAILED: {', '.join(FAILURES)}")
    sys.exit(1)
print("test_lint: all cases passed")
