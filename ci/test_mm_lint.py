#!/usr/bin/env python3
"""Unit tests for ci/mm_lint.py: one positive (finding) and one negative
(clean) fixture per rule, plus the suppression machinery.

Run: python3 ci/test_mm_lint.py
"""

import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import mm_lint  # noqa: E402


def lint_snippet(snippet: str, rel: str = "src/core/fake.cc"):
    scanner = mm_lint.FileScanner("/fake/" + rel, snippet, rel)
    return scanner.run()


def rules_of(findings):
    return [f.rule for f in findings]


class Mml001RawSyncTest(unittest.TestCase):
    def test_flags_raw_mutex_in_core(self):
        findings = lint_snippet("#include <mutex>\nstd::mutex mu_;\n")
        self.assertEqual(rules_of(findings), ["MML001", "MML001"])

    def test_flags_lock_guard_and_condvar(self):
        snippet = ("std::lock_guard<std::mutex> lock(mu_);\n"
                   "std::condition_variable cv_;\n")
        self.assertEqual(rules_of(lint_snippet(snippet)),
                         ["MML001", "MML001"])  # one finding per line

    def test_allows_wrappers(self):
        snippet = ('#include "mm/util/mutex.h"\n'
                   "mm::Mutex mu_;\nmm::MutexLock lock(mu_);\n")
        self.assertEqual(lint_snippet(snippet), [])

    def test_util_is_exempt(self):
        findings = lint_snippet("std::mutex mu_;\n",
                                rel="include/mm/util/mutex.h")
        self.assertEqual(findings, [])

    def test_tests_are_exempt(self):
        # Scope is include/ + src/: tests may build raw-primitive fixtures.
        findings = lint_snippet("std::mutex mu_;\n", rel="tests/test_x.cc")
        self.assertEqual(findings, [])

    def test_commented_mention_is_ignored(self):
        findings = lint_snippet("// replaces std::mutex with mm::Mutex\n")
        self.assertEqual(findings, [])


class Mml004HotPathTest(unittest.TestCase):
    def test_flags_check_in_span_subscript(self):
        snippet = ("T& operator[](std::uint64_t i) {\n"
                   "  MM_CHECK(i < n_);\n"
                   "  return *p_;\n"
                   "}\n")
        self.assertEqual(
            rules_of(lint_snippet(snippet, rel="include/mm/core/vector.h")),
            ["MML004"])

    def test_check_free_hot_function_is_clean(self):
        snippet = ("T& operator[](std::uint64_t i) {\n"
                   "  return *p_;\n"
                   "}\n")
        self.assertEqual(
            lint_snippet(snippet, rel="include/mm/core/vector.h"), [])

    def test_flags_check_in_pcache_find(self):
        snippet = ("PageFrame* PCache::Find(std::uint64_t page) {\n"
                   "  MM_CHECK_MSG(page < max_, \"bad page\");\n"
                   "  return nullptr;\n"
                   "}\n")
        self.assertEqual(
            rules_of(lint_snippet(snippet, rel="src/core/pcache.cc")),
            ["MML004"])

    def test_cold_function_in_hot_file_is_clean(self):
        snippet = ("void PCache::Validate() {\n"
                   "  MM_CHECK(frames_.size() <= capacity_);\n"
                   "}\n")
        self.assertEqual(lint_snippet(snippet, rel="src/core/pcache.cc"), [])

    def test_declaration_is_not_a_body(self):
        snippet = "PageFrame* Find(std::uint64_t page);\n"
        self.assertEqual(lint_snippet(snippet, rel="src/core/pcache.cc"), [])


class Mml005VoidDiscardTest(unittest.TestCase):
    def test_flags_bare_discard(self):
        snippet = "void F() {\n  (void)DoThing();\n}\n"
        self.assertEqual(rules_of(lint_snippet(snippet)), ["MML005"])

    def test_same_line_comment_is_clean(self):
        snippet = "void F() {\n  (void)DoThing();  // teardown path\n}\n"
        self.assertEqual(lint_snippet(snippet), [])

    def test_preceding_comment_is_clean(self):
        snippet = ("void F() {\n"
                   "  // Best-effort cleanup; failure only wastes bytes.\n"
                   "  (void)DoThing();\n"
                   "}\n")
        self.assertEqual(lint_snippet(snippet), [])

    def test_void_cast_in_cast_expression_unflagged(self):
        # `(void*)` is a pointer cast, not a discard.
        snippet = "void F() {\n  auto* p = (void*)buf;\n}\n"
        self.assertEqual(lint_snippet(snippet), [])


class Mml006MetricNamesTest(unittest.TestCase):
    def test_flags_wrong_scheme(self):
        snippet = 'void F() {\n  reg.GetCounter("pcache_hits");\n}\n'
        self.assertEqual(rules_of(lint_snippet(snippet)), ["MML006"])

    def test_flags_missing_unit_suffix(self):
        snippet = 'void F() {\n  reg.GetCounter("mm.pcache.hits");\n}\n'
        self.assertEqual(rules_of(lint_snippet(snippet)), ["MML006"])

    def test_flags_uppercase(self):
        snippet = 'void F() {\n  reg.GetGauge("mm.Tier.used_bytes");\n}\n'
        self.assertEqual(rules_of(lint_snippet(snippet)), ["MML006"])

    def test_well_formed_names_are_clean(self):
        snippet = ('void F() {\n'
                   '  reg.GetCounter("mm.pcache.hit_count");\n'
                   '  reg.GetGauge("mm.tier.dram_used_bytes");\n'
                   '  reg.GetHistogram("mm.task.get_page_ns", bounds);\n'
                   '}\n')
        self.assertEqual(lint_snippet(snippet), [])

    def test_multiline_call_is_checked(self):
        snippet = ('void F() {\n'
                   '  reg.GetHistogram(\n'
                   '      "mm.service.fault.latency",\n'
                   '      bounds);\n'
                   '}\n')
        findings = lint_snippet(snippet)
        self.assertEqual(rules_of(findings), ["MML006"])
        self.assertEqual(findings[0].line, 3)

    def test_tests_and_bench_are_exempt(self):
        snippet = 'void F() {\n  reg.GetCounter("whatever");\n}\n'
        self.assertEqual(lint_snippet(snippet, rel="tests/test_x.cc"), [])
        self.assertEqual(lint_snippet(snippet, rel="bench/hotpath.cc"), [])

    def test_non_literal_first_arg_is_ignored(self):
        # Dynamic names can't be validated statically; the catalog review
        # catches them.
        snippet = 'void F() {\n  reg.GetCounter(name);\n}\n'
        self.assertEqual(lint_snippet(snippet), [])


class Mml007AtomicPublishTest(unittest.TestCase):
    def test_flags_direct_open_of_final_path(self):
        snippet = ('void F(const std::string& path) {\n'
                   '  std::ofstream out(path, std::ios::binary);\n'
                   '  out << "x";\n'
                   '}\n')
        findings = lint_snippet(snippet, rel="src/ckpt/manifest.cc")
        self.assertEqual(rules_of(findings), ["MML007"])
        self.assertEqual(findings[0].line, 2)

    def test_tmp_named_path_is_clean(self):
        snippet = ('void F(const std::string& path) {\n'
                   '  std::string tmp = path + ".tmp";\n'
                   '  std::ofstream out(tmp, std::ios::binary);\n'
                   '}\n')
        self.assertEqual(lint_snippet(snippet, rel="src/ckpt/manifest.cc"), [])

    def test_append_mode_is_clean(self):
        # The redo journal IS the write-ahead log: append-mode opens of the
        # journal file are the mechanism, not a violation.
        snippet = ('void F(const std::string& path) {\n'
                   '  std::ofstream out(path,'
                   ' std::ios::binary | std::ios::app);\n'
                   '}\n')
        self.assertEqual(lint_snippet(snippet, rel="src/ckpt/journal.cc"), [])

    def test_renaming_function_is_clean(self):
        snippet = ('void F(const std::string& path, const std::string& f) {\n'
                   '  std::ofstream out(f, std::ios::binary);\n'
                   '  out.close();\n'
                   '  std::filesystem::rename(f, path);\n'
                   '}\n')
        self.assertEqual(lint_snippet(snippet, rel="src/ckpt/manifest.cc"), [])

    def test_non_ckpt_files_are_exempt(self):
        snippet = ('void F(const std::string& path) {\n'
                   '  std::ofstream out(path, std::ios::binary);\n'
                   '}\n')
        self.assertEqual(lint_snippet(snippet, rel="src/storage/stager.cc"),
                         [])

    def test_suppression_applies(self):
        snippet = ('void F(const std::string& path) {\n'
                   '  // mm-lint: allow(MML007 bootstrap file, no readers)\n'
                   '  std::ofstream out(path, std::ios::binary);\n'
                   '}\n')
        self.assertEqual(lint_snippet(snippet, rel="src/ckpt/manifest.cc"), [])


class Mml008UnboundedRecvTest(unittest.TestCase):
    def test_flags_blocking_recv_in_apps(self):
        snippet = ("void F(Communicator& comm) {\n"
                   "  auto tmp = comm.Recv<double>(src, tag);\n"
                   "}\n")
        findings = lint_snippet(snippet, rel="src/apps/gray_scott.cc")
        self.assertEqual(rules_of(findings), ["MML008"])
        self.assertEqual(findings[0].line, 2)

    def test_flags_recv_value_and_recv_bytes(self):
        snippet = ("void F(Communicator* comm) {\n"
                   "  int v = comm->RecvValue<int>(0, 1);\n"
                   "  auto b = comm->RecvBytes(0, 2);\n"
                   "}\n")
        self.assertEqual(rules_of(lint_snippet(snippet)),
                         ["MML008", "MML008"])

    def test_deadline_variants_are_clean(self):
        snippet = ("void F(Communicator& comm) {\n"
                   "  auto a = comm.RecvOr<double>(src, tag);\n"
                   "  auto b = comm.RecvValueOr<int>(0, 1);\n"
                   "  auto c = comm.RecvBytesOr(0, 2);\n"
                   "}\n")
        self.assertEqual(lint_snippet(snippet), [])

    def test_comm_layer_is_exempt(self):
        # The wrappers' own definitions live in comm/.
        snippet = ("std::vector<std::uint8_t> RecvBytes(int src, int tag) {\n"
                   "  auto out = mailbox.RecvBytes(src, tag);\n"
                   "  return out;\n"
                   "}\n")
        self.assertEqual(
            lint_snippet(snippet, rel="include/mm/comm/communicator.h"), [])
        self.assertEqual(
            lint_snippet(snippet, rel="src/comm/communicator.cc"), [])

    def test_tests_are_exempt(self):
        snippet = ("void F(Communicator& comm) {\n"
                   "  int v = comm.RecvValue<int>(0, 1);\n"
                   "}\n")
        self.assertEqual(lint_snippet(snippet, rel="tests/test_comm.cc"), [])

    def test_unrelated_recv_named_method_is_ignored(self):
        # Only the exact Recv/RecvValue/RecvBytes names are unbounded.
        snippet = ("void F(Stats& s) {\n"
                   "  s.RecvCount();\n"
                   "  Recv(x);\n"  # free function, not a comm method
                   "}\n")
        self.assertEqual(lint_snippet(snippet), [])

    def test_suppression_applies(self):
        snippet = ("void F(Communicator& comm) {\n"
                   "  // mm-lint: allow(MML008 bootstrap runs pre-detector)\n"
                   "  auto b = comm.RecvBytes(0, 2);\n"
                   "}\n")
        self.assertEqual(lint_snippet(snippet), [])


class Mml009FrameVersionTest(unittest.TestCase):
    def test_flags_arrow_access_in_core(self):
        snippet = ("void F(PageFrame* frame) {\n"
                   "  std::uint64_t v = frame->version.load();\n"
                   "}\n")
        findings = lint_snippet(snippet, rel="src/core/vector_impl.cc")
        self.assertEqual(rules_of(findings), ["MML009"])
        self.assertEqual(findings[0].line, 2)

    def test_flags_dot_access_and_frame_substring_names(self):
        snippet = ("void F(PageFrame& victim_frame, PageFrame* frame_ptr) {\n"
                   "  auto a = victim_frame.version;\n"
                   "  frame_ptr->version = 7;\n"
                   "}\n")
        self.assertEqual(rules_of(lint_snippet(snippet)),
                         ["MML009", "MML009"])

    def test_flags_in_tests_and_benches_too(self):
        # The guard protocol binds every reader, fixtures included.
        snippet = ("TEST(X, Y) {\n"
                   "  EXPECT_EQ(frame->version.load(), 1u);\n"
                   "}\n")
        self.assertEqual(
            rules_of(lint_snippet(snippet, rel="tests/test_vector.cc")),
            ["MML009"])

    def test_guard_api_is_clean(self):
        snippet = ("void F(const PageFrame& frame) {\n"
                   "  OptimisticGuard g(frame);\n"
                   "  std::uint64_t v = OptimisticGuard::Version(frame);\n"
                   "  OptimisticGuard::SetVersion(frame, v + 1);\n"
                   "  std::uint64_t gv = g.version();\n"
                   "}\n")
        self.assertEqual(lint_snippet(snippet), [])

    def test_implementation_files_are_exempt(self):
        snippet = ("void F(PageFrame* frame) {\n"
                   "  frame->version.store(2, std::memory_order_release);\n"
                   "}\n")
        self.assertEqual(
            lint_snippet(snippet, rel="src/core/pcache.cc"), [])
        self.assertEqual(
            lint_snippet(snippet, rel="include/mm/core/pcache.h"), [])
        self.assertEqual(
            lint_snippet(snippet,
                         rel="include/mm/core/optimistic_guard.h"), [])

    def test_non_frame_version_fields_are_ignored(self):
        # BlobLocation and friends have version fields too; only
        # frame-named identifiers are the seqlock word.
        snippet = ("void F(const BlobLocation& loc, Record* rec) {\n"
                   "  auto a = loc.version;\n"
                   "  auto b = rec->version;\n"
                   "}\n")
        self.assertEqual(lint_snippet(snippet), [])

    def test_suppression_applies(self):
        snippet = ("void F(PageFrame* frame) {\n"
                   "  // mm-lint: allow(MML009 owner thread, no readers yet)\n"
                   "  frame->version = 1;\n"
                   "}\n")
        self.assertEqual(lint_snippet(snippet), [])


class Mml011TreeNodeBytesTest(unittest.TestCase):
    def test_flags_union_arm_access_in_core(self):
        snippet = ("void F(NodeBlock& blk) {\n"
                   "  auto k = blk.leaf.keys[0];\n"
                   "  blk.inner.children[1] = 7;\n"
                   "}\n")
        findings = lint_snippet(snippet)
        self.assertEqual(rules_of(findings), ["MML011", "MML011"])
        self.assertEqual(findings[0].line, 2)

    def test_flags_node_named_identifier_fields(self):
        snippet = ("void F(LeafNode* node, InnerNode& root_node) {\n"
                   "  node->hdr.count = 0;\n"
                   "  auto s = root_node.seps[2];\n"
                   "}\n")
        self.assertEqual(rules_of(lint_snippet(snippet)),
                         ["MML011", "MML011"])

    def test_flags_in_benches_too(self):
        snippet = ("int main() {\n"
                   "  auto f = blk.leaf.fence;\n"
                   "}\n")
        self.assertEqual(rules_of(lint_snippet(snippet, rel="bench/x.cc")),
                        ["MML011"])

    def test_index_subsystem_and_layout_test_are_exempt(self):
        snippet = ("void F(NodeBlock& blk) {\n"
                   "  blk.leaf.keys[0] = 1;\n"
                   "}\n")
        for rel in ("include/mm/index/btree.h", "src/index/metrics.cc",
                    "tests/test_btree.cc"):
            self.assertEqual(lint_snippet(snippet, rel=rel), [], rel)

    def test_api_use_is_clean(self):
        snippet = ("void F(mm::index::BTree<int, int>& tree, NodeRef r) {\n"
                   "  tree.Put(1, 2);\n"
                   "  auto k = r.key(0);\n"
                   "  auto c = r.child(1);\n"
                   "}\n")
        self.assertEqual(lint_snippet(snippet), [])

    def test_suppression_applies(self):
        snippet = ("void F(NodeBlock& blk) {\n"
                   "  // mm-lint: allow(MML011 offline repair tool)\n"
                   "  blk.leaf.keys[0] = 1;\n"
                   "}\n")
        self.assertEqual(lint_snippet(snippet), [])


CATALOG_STUB = ("## 11. Telemetry\n"
                "### Metric catalog\n"
                "| family | metrics |\n"
                "|---|---|\n"
                "| `mm.pcache.*` | `hit_count`, `miss_count` |\n"
                "| `mm.tier.*` | `{dram,nvme}_{read,write}_bytes` |\n"
                "## 12. Next\n")


def write_tree(root: str, design: str, sources: dict):
    """Lays out a fake repo: DESIGN.md plus {relpath: text} source files."""
    with open(os.path.join(root, "DESIGN.md"), "w") as f:
        f.write(design)
    for rel, text in sources.items():
        path = os.path.join(root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            f.write(text)


class Mml010CatalogDriftTest(unittest.TestCase):
    def test_expand_token_passthrough_and_braces(self):
        self.assertEqual(mm_lint.expand_token("hit_count"), ["hit_count"])
        self.assertEqual(mm_lint.expand_token("{a,b}_ns"), ["a_ns", "b_ns"])
        self.assertEqual(
            mm_lint.expand_token("{a, b}_{x,y}"),
            ["a_x", "a_y", "b_x", "b_y"])  # whitespace in alternatives ok

    def test_parse_metric_catalog(self):
        names = mm_lint.parse_metric_catalog(CATALOG_STUB)
        self.assertIn("mm.pcache.hit_count", names)
        self.assertIn("mm.tier.nvme_write_bytes", names)
        self.assertEqual(len(names), 2 + 4)
        # Values are 1-based DESIGN.md lines of the family row.
        self.assertEqual(names["mm.pcache.miss_count"], 5)

    def test_parse_missing_section_returns_none(self):
        self.assertIsNone(mm_lint.parse_metric_catalog("## 11\nno table\n"))

    def test_clean_round_trip(self):
        with tempfile.TemporaryDirectory() as root:
            write_tree(root, CATALOG_STUB, {
                "src/core/a.cc":
                    'void F() {\n'
                    '  reg.GetCounter("mm.pcache.hit_count");\n'
                    '  reg.GetCounter("mm.pcache.miss_count");\n'
                    '  reg.GetCounter("mm.tier.dram_read_bytes");\n'
                    '  reg.GetCounter("mm.tier.dram_write_bytes");\n'
                    '  reg.GetCounter("mm.tier.nvme_read_bytes");\n'
                    '  reg.GetCounter("mm.tier.nvme_write_bytes");\n'
                    '}\n'})
            self.assertEqual(mm_lint.check_mml010(root), [])

    def test_flags_metric_missing_from_catalog(self):
        with tempfile.TemporaryDirectory() as root:
            write_tree(root, CATALOG_STUB, {
                "src/core/a.cc":
                    'void F() {\n'
                    '  reg.GetCounter("mm.pcache.hit_count");\n'
                    '  reg.GetCounter("mm.pcache.miss_count");\n'
                    '  reg.GetCounter("mm.tier.dram_read_bytes");\n'
                    '  reg.GetCounter("mm.tier.dram_write_bytes");\n'
                    '  reg.GetCounter("mm.tier.nvme_read_bytes");\n'
                    '  reg.GetCounter("mm.tier.nvme_write_bytes");\n'
                    '  reg.GetCounter("mm.rogue.thing_count");\n'
                    '}\n'})
            findings = mm_lint.check_mml010(root)
            self.assertEqual(rules_of(findings), ["MML010"])
            self.assertEqual(findings[0].path, "src/core/a.cc")
            self.assertEqual(findings[0].line, 8)
            self.assertIn("mm.rogue.thing_count", findings[0].message)

    def test_flags_stale_catalog_entry(self):
        with tempfile.TemporaryDirectory() as root:
            write_tree(root, CATALOG_STUB, {
                "src/core/a.cc":
                    'void F() {\n'
                    '  reg.GetCounter("mm.pcache.hit_count");\n'
                    '  reg.GetCounter("mm.tier.dram_read_bytes");\n'
                    '  reg.GetCounter("mm.tier.dram_write_bytes");\n'
                    '  reg.GetCounter("mm.tier.nvme_read_bytes");\n'
                    '  reg.GetCounter("mm.tier.nvme_write_bytes");\n'
                    '}\n'})  # miss_count documented but never registered
            findings = mm_lint.check_mml010(root)
            self.assertEqual(rules_of(findings), ["MML010"])
            self.assertEqual(findings[0].path, "DESIGN.md")
            self.assertEqual(findings[0].line, 5)
            self.assertIn("mm.pcache.miss_count", findings[0].message)

    def test_missing_catalog_section_is_a_finding(self):
        with tempfile.TemporaryDirectory() as root:
            write_tree(root, "## 11. Telemetry\nprose only\n", {})
            findings = mm_lint.check_mml010(root)
            self.assertEqual(rules_of(findings), ["MML010"])
            self.assertEqual(findings[0].path, "DESIGN.md")

    def test_allow_comment_suppresses_registration(self):
        with tempfile.TemporaryDirectory() as root:
            write_tree(root, CATALOG_STUB, {
                "src/core/a.cc":
                    'void F() {\n'
                    '  reg.GetCounter("mm.pcache.hit_count");\n'
                    '  reg.GetCounter("mm.pcache.miss_count");\n'
                    '  reg.GetCounter("mm.tier.dram_read_bytes");\n'
                    '  reg.GetCounter("mm.tier.dram_write_bytes");\n'
                    '  reg.GetCounter("mm.tier.nvme_read_bytes");\n'
                    '  reg.GetCounter("mm.tier.nvme_write_bytes");\n'
                    '  // mm-lint: allow(MML010 experimental, not in catalog)\n'
                    '  reg.GetCounter("mm.lab.probe_count");\n'
                    '}\n'})
            self.assertEqual(mm_lint.check_mml010(root), [])


class SuppressionTest(unittest.TestCase):
    def test_allow_comment_suppresses_same_line(self):
        snippet = ("std::mutex mu_;  "
                   "// mm-lint: allow(MML001 fixture for wrapper tests)\n")
        self.assertEqual(lint_snippet(snippet), [])

    def test_allow_comment_suppresses_next_line(self):
        snippet = ("// mm-lint: allow(MML001 fixture for wrapper tests)\n"
                   "std::mutex mu_;\n")
        self.assertEqual(lint_snippet(snippet), [])

    def test_allow_without_reason_is_a_finding(self):
        snippet = "std::mutex mu_;  // mm-lint: allow(MML001)\n"
        rules = rules_of(lint_snippet(snippet))
        self.assertIn("MML001", rules)  # reasonless allow does not suppress

    def test_allow_only_covers_named_rule(self):
        snippet = ("// mm-lint: allow(MML005 audited)\n"
                   "std::mutex mu_;\n")
        self.assertEqual(rules_of(lint_snippet(snippet)), ["MML001"])


class StripperTest(unittest.TestCase):
    def test_preserves_offsets(self):
        text = 'a = "x{y}"; // std::mutex\nb;\n'
        stripped = mm_lint.strip_comments_and_strings(text)
        self.assertEqual(len(stripped), len(text))
        self.assertEqual(stripped.count("\n"), text.count("\n"))
        self.assertNotIn("mutex", stripped)
        self.assertNotIn("{", stripped)


class TreeTest(unittest.TestCase):
    def test_repo_tree_is_clean(self):
        root = os.path.dirname(
            os.path.dirname(os.path.abspath(mm_lint.__file__)))
        findings = []
        for path in mm_lint.collect_files(root):
            findings.extend(mm_lint.lint_file(path, root))
        self.assertEqual([str(f) for f in findings], [])

    def test_repo_catalog_matches_code(self):
        root = os.path.dirname(
            os.path.dirname(os.path.abspath(mm_lint.__file__)))
        self.assertEqual(
            [str(f) for f in mm_lint.check_mml010(root)], [])


if __name__ == "__main__":
    unittest.main()
