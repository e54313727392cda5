#!/usr/bin/env python3
"""Unit tests for ci/mm_verify.py: fixture C++ snippets per rule, plus the
repo-tree-is-clean gate. Mirrors ci/test_mm_lint.py.

Usage: python3 ci/test_mm_verify.py
"""

from __future__ import annotations

import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import mm_verify  # noqa: E402


def verify(files: dict[str, str], rules=None, dot_path=None, depth=3):
    model = mm_verify.build_model(sorted(files.items()))
    kwargs = {"dot_path": dot_path, "call_depth": depth}
    if rules is not None:
        kwargs["rules"] = rules
    return model, mm_verify.run_rules(model, **kwargs)


def findings_for(files: dict[str, str], rule: str, **kw):
    _, fs = verify(files, **kw)
    return [f for f in fs if f.rule == rule]


# ---------------------------------------------------------------------------
# MML101: lock ordering
# ---------------------------------------------------------------------------

CYCLE_FIXTURE = {
    "include/mm/x/ab.h": """
namespace mm::x {
class B;
class A {
 public:
  void Foo(B& b);
  void TakeA() { MutexLock lock(mu_); }
  Mutex mu_;
};
class B {
 public:
  void Bar(A& a);
  void TakeB() { MutexLock lock(mu_); }
  Mutex mu_;
};
}  // namespace mm::x
""",
    "src/x/ab.cc": """
namespace mm::x {
void A::Foo(B& b) {
  MutexLock lock(mu_);
  b.TakeB();
}
void B::Bar(A& a) {
  MutexLock lock(mu_);
  a.TakeA();
}
}  // namespace mm::x
""",
}


class TestMML101LockOrder(unittest.TestCase):
    def test_cycle_detected(self):
        fs = findings_for(CYCLE_FIXTURE, "MML101")
        cycles = [f for f in fs if "cycle" in f.message]
        self.assertEqual(len(cycles), 1, fs)
        self.assertIn("mm::x::A::mu_", cycles[0].message)
        self.assertIn("mm::x::B::mu_", cycles[0].message)
        # Both witness paths are present.
        self.assertIn("src/x/ab.cc", cycles[0].message)

    def test_cycle_edges_also_undeclared(self):
        fs = findings_for(CYCLE_FIXTURE, "MML101")
        undeclared = [f for f in fs if "not declared" in f.message]
        self.assertEqual(len(undeclared), 2, fs)

    def test_dag_with_declarations_is_clean(self):
        files = {
            "include/mm/x/ab.h": """
namespace mm::x {
class B {
 public:
  void TakeB() { MutexLock lock(mu_); }
  Mutex mu_;
};
class A {
 public:
  void Foo(B& b) {
    MutexLock lock(mu_);
    b.TakeB();
  }
  Mutex mu_ MM_ACQUIRED_BEFORE(B::mu_);
};
}  // namespace mm::x
""",
        }
        self.assertEqual(findings_for(files, "MML101"), [])

    def test_acquired_after_covers_the_pair(self):
        files = {
            "include/mm/x/ab.h": """
namespace mm::x {
class B {
 public:
  void TakeB() { MutexLock lock(mu_); }
  Mutex mu_ MM_ACQUIRED_AFTER(A::mu_);
};
class A {
 public:
  void Foo(B& b) {
    MutexLock lock(mu_);
    b.TakeB();
  }
  Mutex mu_;
};
}  // namespace mm::x
""",
        }
        self.assertEqual(findings_for(files, "MML101"), [])

    def test_undeclared_nested_pair_flagged(self):
        files = {
            "src/x/a.cc": """
namespace mm::x {
class Inner {
 public:
  Mutex mu_;
};
class Outer {
 public:
  void Go(Inner& in) {
    MutexLock lock(mu_);
    MutexLock inner(in.mu_);
  }
  Mutex mu_;
};
}  // namespace mm::x
""",
        }
        fs = findings_for(files, "MML101")
        self.assertEqual(len(fs), 1, fs)
        self.assertIn("MM_ACQUIRED_BEFORE", fs[0].message)

    def test_leaf_lock_waives_declaration(self):
        files = {
            "src/x/a.cc": """
namespace mm::x {
class Inner {
 public:
  // mm-verify: leaf-lock(fixture utility lock)
  Mutex mu_;
};
class Outer {
 public:
  void Go(Inner& in) {
    MutexLock lock(mu_);
    MutexLock inner(in.mu_);
  }
  Mutex mu_;
};
}  // namespace mm::x
""",
        }
        self.assertEqual(findings_for(files, "MML101"), [])

    def test_self_deadlock_via_callee(self):
        files = {
            "src/x/a.cc": """
namespace mm::x {
class A {
 public:
  void Inner() { MutexLock lock(mu_); }
  void Outer() {
    MutexLock lock(mu_);
    Inner();
  }
  Mutex mu_;
};
}  // namespace mm::x
""",
        }
        fs = findings_for(files, "MML101")
        self.assertEqual(len(fs), 1, fs)
        self.assertIn("re-acquired", fs[0].message)

    def test_early_unlock_trims_scope(self):
        files = {
            "src/x/a.cc": """
namespace mm::x {
class A {
 public:
  void Inner() { MutexLock lock(mu_); }
  void Outer() {
    MutexLock lock(mu_);
    lock.Unlock();
    Inner();
  }
  Mutex mu_;
};
}  // namespace mm::x
""",
        }
        self.assertEqual(findings_for(files, "MML101"), [])

    def test_two_level_callee_chain(self):
        files = {
            "src/x/chain.cc": """
namespace mm::x {
class Queue {
 public:
  void Push() { MutexLock lock(mu_); }
  Mutex mu_;
};
class Runtime {
 public:
  void Submit() { q_.Push(); }
  Queue q_;
};
class Svc {
 public:
  void Fault() {
    MutexLock lock(mu_);
    rt_.Submit();
  }
  Mutex mu_;
  Runtime rt_;
};
}  // namespace mm::x
""",
        }
        fs = findings_for(files, "MML101")
        self.assertEqual(len(fs), 1, fs)
        self.assertIn("via Submit", fs[0].message)
        self.assertIn("Queue::mu_", fs[0].message)

    def test_declaration_naming_unknown_mutex(self):
        files = {
            "include/mm/x/a.h": """
namespace mm::x {
class A {
 public:
  Mutex mu_ MM_ACQUIRED_BEFORE(Nope::mu_);
};
}  // namespace mm::x
""",
        }
        fs = findings_for(files, "MML101")
        self.assertEqual(len(fs), 1, fs)
        self.assertIn("unknown mutex", fs[0].message)

    def test_declared_only_cycle_detected(self):
        files = {
            "include/mm/x/a.h": """
namespace mm::x {
class B {
 public:
  Mutex mu_ MM_ACQUIRED_BEFORE(A::mu_);
};
class A {
 public:
  Mutex mu_ MM_ACQUIRED_BEFORE(B::mu_);
};
}  // namespace mm::x
""",
        }
        fs = findings_for(files, "MML101")
        cycles = [f for f in fs if "cycle" in f.message]
        self.assertEqual(len(cycles), 1, fs)
        self.assertIn("declared at", cycles[0].message)


class TestLockHierarchyDot(unittest.TestCase):
    def test_dot_written_with_observed_and_declared_edges(self):
        files = dict(CYCLE_FIXTURE)
        with tempfile.TemporaryDirectory() as td:
            path = os.path.join(td, "lock_hierarchy.dot")
            verify(files, dot_path=path)
            with open(path) as f:
                dot = f.read()
        self.assertIn("digraph lock_hierarchy", dot)
        self.assertIn('"mm::x::A::mu_" -> "mm::x::B::mu_"', dot)
        self.assertIn('"mm::x::B::mu_" -> "mm::x::A::mu_"', dot)
        self.assertIn("src/x/ab.cc", dot)


# ---------------------------------------------------------------------------
# MML102: guarded-field escapes
# ---------------------------------------------------------------------------

class TestMML102GuardedEscape(unittest.TestCase):
    def test_return_address_of_guarded_field(self):
        files = {
            "src/x/a.cc": """
namespace mm::x {
class A {
 public:
  int* Leak() {
    MutexLock lock(mu_);
    return &count_;
  }
  Mutex mu_;
  int count_ MM_GUARDED_BY(mu_);
};
}  // namespace mm::x
""",
        }
        fs = findings_for(files, "MML102")
        self.assertEqual(len(fs), 1, fs)
        self.assertIn("escapes via return", fs[0].message)

    def test_reference_return_of_guarded_field(self):
        files = {
            "src/x/a.cc": """
namespace mm::x {
class A {
 public:
  int& Leak() {
    MutexLock lock(mu_);
    return count_;
  }
  Mutex mu_;
  int count_ MM_GUARDED_BY(mu_);
};
}  // namespace mm::x
""",
        }
        fs = findings_for(files, "MML102")
        self.assertEqual(len(fs), 1, fs)
        self.assertIn("returned by reference", fs[0].message)

    def test_value_return_is_fine(self):
        files = {
            "src/x/a.cc": """
namespace mm::x {
class A {
 public:
  int Copy() {
    MutexLock lock(mu_);
    return count_;
  }
  Mutex mu_;
  int count_ MM_GUARDED_BY(mu_);
};
}  // namespace mm::x
""",
        }
        self.assertEqual(findings_for(files, "MML102"), [])

    def test_store_into_longer_lived_object(self):
        files = {
            "src/x/a.cc": """
namespace mm::x {
struct Sink { int* p; };
class A {
 public:
  void Stash(Sink* sink) {
    MutexLock lock(mu_);
    sink->p = &count_;
  }
  Mutex mu_;
  int count_ MM_GUARDED_BY(mu_);
};
}  // namespace mm::x
""",
        }
        fs = findings_for(files, "MML102")
        self.assertEqual(len(fs), 1, fs)
        self.assertIn("outlives the lock scope", fs[0].message)

    def test_deferred_lambda_capture_by_reference(self):
        files = {
            "src/x/a.cc": """
namespace mm::x {
class A {
 public:
  void Defer(Runtime& rt) {
    MutexLock lock(mu_);
    rt.Submit([&] { count_ += 1; });
  }
  Mutex mu_;
  int count_ MM_GUARDED_BY(mu_);
};
}  // namespace mm::x
""",
        }
        fs = findings_for(files, "MML102")
        self.assertEqual(len(fs), 1, fs)
        self.assertIn("deferred sink Submit", fs[0].message)

    def test_immediate_lambda_not_flagged(self):
        files = {
            "src/x/a.cc": """
namespace mm::x {
class A {
 public:
  void Inline() {
    MutexLock lock(mu_);
    auto bump = [&] { count_ += 1; };
    bump();
  }
  Mutex mu_;
  int count_ MM_GUARDED_BY(mu_);
};
}  // namespace mm::x
""",
        }
        self.assertEqual(findings_for(files, "MML102"), [])

    def test_suppression(self):
        files = {
            "src/x/a.cc": """
namespace mm::x {
class A {
 public:
  int* Leak() {
    // mm-verify: allow(MML102 fixture-approved escape)
    return &count_;
  }
  Mutex mu_;
  int count_ MM_GUARDED_BY(mu_);
};
}  // namespace mm::x
""",
        }
        self.assertEqual(findings_for(files, "MML102"), [])


# ---------------------------------------------------------------------------
# MML103: seqlock discipline
# ---------------------------------------------------------------------------

class TestMML103Seqlock(unittest.TestCase):
    def test_store_bytes_outside_guard(self):
        files = {
            "src/x/w.cc": """
namespace mm::x {
class W {
 public:
  void Write(PageFrame* frame) {
    OptimisticGuard::StoreBytes(*frame, 0, src_, 8);
  }
  char* src_;
};
}  // namespace mm::x
""",
        }
        fs = findings_for(files, "MML103")
        self.assertEqual(len(fs), 1, fs)
        self.assertIn("StoreBytes", fs[0].message)

    def test_store_bytes_inside_guard_ok(self):
        files = {
            "src/x/w.cc": """
namespace mm::x {
class W {
 public:
  void Write(PageFrame* frame) {
    FrameWriteGuard wg(frame);
    OptimisticGuard::StoreBytes(*frame, 0, src_, 8);
  }
  char* src_;
};
}  // namespace mm::x
""",
        }
        self.assertEqual(findings_for(files, "MML103"), [])

    def test_raw_memcpy_into_frame_outside_guard(self):
        files = {
            "src/x/w.cc": """
namespace mm::x {
class W {
 public:
  void Write(PageFrame* frame, const char* src) {
    std::memcpy(frame->data.data(), src, 8);
  }
};
}  // namespace mm::x
""",
        }
        fs = findings_for(files, "MML103")
        self.assertEqual(len(fs), 1, fs)
        self.assertIn("memcpy", fs[0].message)

    def test_bytes_store_outside_guard(self):
        files = {
            "src/x/w.cc": """
namespace mm::x {
class W {
 public:
  void Publish(PageFrame* frame, unsigned char* p) {
    frame->bytes.store(p);
  }
};
}  // namespace mm::x
""",
        }
        fs = findings_for(files, "MML103")
        self.assertEqual(len(fs), 1, fs)

    def test_seqlock_implementation_exempt(self):
        files = {
            "src/core/pcache.cc": """
namespace mm::core {
class PCache {
 public:
  void Write(PageFrame* frame) {
    OptimisticGuard::StoreBytes(*frame, 0, src_, 8);
  }
  char* src_;
};
}  // namespace mm::core
""",
        }
        self.assertEqual(findings_for(files, "MML103"), [])

    def test_deref_on_validate_failure_path(self):
        files = {
            "src/x/r.cc": """
namespace mm::x {
class R {
 public:
  int Read(OptimisticGuard& g) {
    int value = 0;
    g.ReadBytes(0, &value, 4);
    if (!g.Validate()) {
      return value;
    }
    return value;
  }
};
}  // namespace mm::x
""",
        }
        fs = findings_for(files, "MML103")
        self.assertEqual(len(fs), 1, fs)
        self.assertIn("Validate()-failed", fs[0].message)

    def test_retry_without_use_is_clean(self):
        files = {
            "src/x/r.cc": """
namespace mm::x {
class R {
 public:
  int Read(OptimisticGuard& g) {
    int value = 0;
    g.ReadBytes(0, &value, 4);
    if (!g.Validate()) {
      retries_ += 1;
      return 0;
    }
    return value;
  }
  int retries_;
};
}  // namespace mm::x
""",
        }
        self.assertEqual(findings_for(files, "MML103"), [])


# ---------------------------------------------------------------------------
# MML104: determinism
# ---------------------------------------------------------------------------

class TestMML104Determinism(unittest.TestCase):
    def snippet(self, rel, line):
        return {rel: f"namespace mm {{\nvoid F() {{ {line} }}\n}}\n"}

    def test_wall_clock_in_src(self):
        fs = findings_for(self.snippet(
            "src/core/f.cc",
            "auto t = std::chrono::steady_clock::now();"), "MML104")
        self.assertEqual(len(fs), 1, fs)
        self.assertIn("wall clock", fs[0].message)

    def test_system_clock_in_header(self):
        fs = findings_for(self.snippet(
            "include/mm/core/f.h",
            "auto t = std::chrono::system_clock::now();"), "MML104")
        self.assertEqual(len(fs), 1, fs)

    def test_sim_dir_exempt(self):
        fs = findings_for(self.snippet(
            "src/sim/clock.cc",
            "auto t = std::chrono::steady_clock::now();"), "MML104")
        self.assertEqual(fs, [])

    def test_bench_allowlist_exempt(self):
        fs = findings_for(self.snippet(
            "bench/hotpath.cc",
            "auto t = std::chrono::steady_clock::now();"), "MML104")
        self.assertEqual(fs, [])

    def test_non_allowlisted_bench_flagged(self):
        fs = findings_for(self.snippet(
            "bench/other.cc",
            "auto t = std::chrono::high_resolution_clock::now();"), "MML104")
        self.assertEqual(len(fs), 1, fs)

    def test_rand_flagged(self):
        fs = findings_for(self.snippet(
            "src/core/f.cc", "int r = rand();"), "MML104")
        self.assertEqual(len(fs), 1, fs)

    def test_std_rand_flagged(self):
        fs = findings_for(self.snippet(
            "src/core/f.cc", "int r = std::rand();"), "MML104")
        self.assertEqual(len(fs), 1, fs)

    def test_random_device_flagged(self):
        fs = findings_for(self.snippet(
            "src/core/f.cc", "std::random_device rd;"), "MML104")
        self.assertEqual(len(fs), 1, fs)

    def test_time_null_flagged(self):
        fs = findings_for(self.snippet(
            "src/core/f.cc", "auto t = time(nullptr);"), "MML104")
        self.assertEqual(len(fs), 1, fs)

    def test_seeded_engine_ok(self):
        fs = findings_for(self.snippet(
            "src/core/f.cc", "std::mt19937_64 rng(seed);"), "MML104")
        self.assertEqual(fs, [])

    def test_tests_dir_out_of_scope(self):
        fs = findings_for(self.snippet(
            "tests/f_test.cc", "int r = rand();"), "MML104")
        self.assertEqual(fs, [])

    def test_suppression(self):
        files = {"src/core/f.cc": (
            "namespace mm {\nvoid F() {\n"
            "  // mm-verify: allow(MML104 fixture-approved wall clock)\n"
            "  auto t = std::chrono::steady_clock::now();\n}\n}\n")}
        self.assertEqual(findings_for(files, "MML104"), [])


# ---------------------------------------------------------------------------
# MML002/MML003 AST editions
# ---------------------------------------------------------------------------

class TestMML002PoolDataflow(unittest.TestCase):
    def test_leaked_buffer_flagged(self):
        files = {
            "src/x/a.cc": """
namespace mm::x {
class A {
 public:
  void Leak() {
    auto buf = pool_.Acquire(4096);
    buf[0] = 1;
  }
  PagePool pool_;
};
}  // namespace mm::x
""",
        }
        fs = findings_for(files, "MML002")
        self.assertEqual(len(fs), 1, fs)
        self.assertIn("buf", fs[0].message)

    def test_pool_return_guard_ok(self):
        files = {
            "src/x/a.cc": """
namespace mm::x {
class A {
 public:
  void Guarded() {
    auto buf = pool_.Acquire(4096);
    PoolReturn ret(pool_, buf);
    buf[0] = 1;
  }
  PagePool pool_;
};
}  // namespace mm::x
""",
        }
        self.assertEqual(findings_for(files, "MML002"), [])

    def test_move_handoff_ok(self):
        files = {
            "src/x/a.cc": """
namespace mm::x {
class A {
 public:
  void Move() {
    auto buf = pool_.AcquireZeroed(4096);
    Consume(std::move(buf));
  }
  PagePool pool_;
};
}  // namespace mm::x
""",
        }
        self.assertEqual(findings_for(files, "MML002"), [])

    def test_member_store_handoff_ok(self):
        files = {
            "src/x/a.cc": """
namespace mm::x {
class A {
 public:
  void Stash(Outcome& out) {
    out.data = pool_.AcquireZeroed(4096);
  }
  PagePool pool_;
};
}  // namespace mm::x
""",
        }
        self.assertEqual(findings_for(files, "MML002"), [])

    def test_return_handoff_ok(self):
        files = {
            "src/x/a.cc": """
namespace mm::x {
class A {
 public:
  Buf Take() {
    auto buf = pool_.Acquire(4096);
    return buf;
  }
  PagePool pool_;
};
}  // namespace mm::x
""",
        }
        self.assertEqual(findings_for(files, "MML002"), [])


    def test_explicit_release_ok(self):
        files = {
            "src/x/a.cc": """
namespace mm::x {
class A {
 public:
  void GiveBack() {
    auto buf = pool_.Acquire(64);
    pool_.Release(std::move(buf));
  }
  PagePool pool_;
};
}  // namespace mm::x
""",
        }
        self.assertEqual(findings_for(files, "MML002"), [])

    def test_non_pool_acquire_ignored(self):
        files = {
            "src/x/a.cc": """
namespace mm::x {
class A {
 public:
  void Lock() {
    auto held = dl_.Acquire(ctx_);
    held.Touch();
  }
  DistributedLock dl_;
  Ctx ctx_;
};
}  // namespace mm::x
""",
        }
        self.assertEqual(findings_for(files, "MML002"), [])

    def test_mm_lint_suppression_spelling_honored(self):
        files = {
            "src/x/a.cc": """
namespace mm::x {
class A {
 public:
  void Leak() {
    // mm-lint: allow(MML002 fixture hands the buffer off out of band)
    auto buf = pool_.Acquire(4096);
    buf[0] = 1;
  }
  PagePool pool_;
};
}  // namespace mm::x
""",
        }
        self.assertEqual(findings_for(files, "MML002"), [])


class TestMML003PinBalance(unittest.TestCase):
    def test_pcache_definitions_exempt(self):
        files = {
            "src/core/pcache.cc": """
namespace mm::core {
void PCache::Grab(std::uint64_t page) { Pin(page); }
}  // namespace mm::core
""",
        }
        self.assertEqual(findings_for(files, "MML003"), [])

    def test_unbalanced_class_flagged(self):
        files = {
            "src/x/a.cc": """
namespace mm::x {
class A {
 public:
  void Grab() { cache_->Pin(page_); }
  PCache* cache_;
  int page_;
};
}  // namespace mm::x
""",
        }
        fs = findings_for(files, "MML003")
        self.assertEqual(len(fs), 1, fs)
        self.assertIn("1 Pin vs 0 Unpin", fs[0].message)

    def test_balanced_across_methods_ok(self):
        files = {
            "src/x/a.cc": """
namespace mm::x {
class A {
 public:
  void Grab() { cache_->Pin(page_); }
  void Drop() { cache_->Unpin(page_); }
  PCache* cache_;
  int page_;
};
}  // namespace mm::x
""",
        }
        self.assertEqual(findings_for(files, "MML003"), [])

    def test_balanced_across_files_ok(self):
        # The AST edition tallies per class, so a Pin in the header and the
        # matching Unpin in the .cc must balance (mm_lint's per-file count
        # would flag both files).
        files = {
            "include/mm/x/a.h": """
namespace mm::x {
class A {
 public:
  void Grab() { cache_->Pin(page_); }
  void Drop();
  PCache* cache_;
  int page_;
};
}  // namespace mm::x
""",
            "src/x/a.cc": """
namespace mm::x {
void A::Drop() { cache_->Unpin(page_); }
}  // namespace mm::x
""",
        }
        self.assertEqual(findings_for(files, "MML003"), [])


# ---------------------------------------------------------------------------
# Suppression hygiene + repo gate
# ---------------------------------------------------------------------------

class TestSuppressions(unittest.TestCase):
    def test_reasonless_suppression_is_a_finding(self):
        files = {"src/x/a.cc": "// mm-verify: allow(MML104)\n"}
        _, fs = verify(files)
        self.assertEqual(len(fs), 1, fs)
        self.assertIn("without a reason", fs[0].message)

    def test_mm_lint_spelling_accepted(self):
        files = {"src/core/f.cc": (
            "namespace mm {\nvoid F() {\n"
            "  // mm-lint: allow(MML104 shared suppression spelling)\n"
            "  auto t = std::chrono::steady_clock::now();\n}\n}\n")}
        self.assertEqual(findings_for(files, "MML104"), [])


class TestRepoTreeClean(unittest.TestCase):
    def test_repo_is_clean(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with tempfile.TemporaryDirectory() as td:
            rc = mm_verify.main(
                ["--root", root, "--frontend", "auto",
                 "--dot", os.path.join(td, "lock_hierarchy.dot")])
            self.assertEqual(rc, 0)

    def test_repo_observes_known_hierarchy(self):
        # The annotated contract must stay anchored to reality: these edges
        # are observed in today's tree and should remain in the model.
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        file_texts = []
        for path in mm_verify.collect_tree(root):
            rel = os.path.relpath(path, root)
            with open(path, encoding="utf-8", errors="replace") as f:
                file_texts.append((rel, f.read()))
        model = mm_verify.build_model(file_texts)
        summaries = mm_verify.compute_summaries(model, 3)
        edges = {(e.src, e.dst)
                 for e in mm_verify.observed_edges(model, summaries)}
        self.assertIn(("mm::storage::BufferManager::mu_",
                       "mm::storage::TierStore::mu_"), edges)
        self.assertIn(("mm::core::Service::vectors_mu_",
                       "mm::core::VectorMeta::backend_mu"), edges)
        self.assertIn(("mm::core::Service::inflight_mu_",
                       "mm::BlockingQueue::mu_"), edges)
        # The index subsystem's SMO lease sits above the distributed lock
        # and the service internals (DESIGN.md §15): its MM_ACQUIRED_BEFORE
        # declaration must resolve (no MML101 unresolved-ref findings) and
        # keep these edges in the declared contract.
        declared, unresolved = mm_verify.declared_edges(model)
        self.assertEqual(unresolved, [], unresolved)
        declared_pairs = {(e.src, e.dst) for e in declared}
        for dst in ("mm::comm::DistributedLock::mu_",
                    "mm::core::Service::vectors_mu_",
                    "mm::core::Service::inflight_mu_",
                    "mm::BlockingQueue::mu_"):
            self.assertIn(("mm::index::BTreeBase::smo_mu_", dst),
                          declared_pairs)


if __name__ == "__main__":
    unittest.main(verbosity=2)
