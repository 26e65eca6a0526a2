"""Token-layer rules against the fixtures: every rule has a positive, a
negative, a used lint:allow, and (where meaningful) a stale allow, checked
against golden findings in fixtures/*.expected.json."""

import unittest

from tools.mmlint.tests.util import (as_triples, fixture_context, golden,
                                     make_context, run_token_rules)


class FixtureGoldenTest(unittest.TestCase):
    def check_fixture(self, fixture_names, golden_name):
        contexts = [fixture_context(n) for n in fixture_names]
        findings = run_token_rules(contexts)
        self.assertEqual(as_triples(findings), golden(golden_name))

    def test_no_raw_rand(self):
        self.check_fixture(["no_raw_rand.cc"], "no_raw_rand.expected.json")

    def test_no_assert(self):
        self.check_fixture(["no_assert.cc"], "no_assert.expected.json")

    def test_pragma_once(self):
        self.check_fixture(
            ["pragma_once_missing.h", "pragma_once_allowed.h",
             "pragma_once_ok.h"],
            "pragma_once.expected.json")

    def test_no_iostream(self):
        self.check_fixture(["no_iostream.cc"], "no_iostream.expected.json")

    def test_no_raw_thread(self):
        self.check_fixture(["no_raw_thread.cc"],
                           "no_raw_thread.expected.json")

    def test_no_unchecked_remote(self):
        self.check_fixture(["no_unchecked_remote.cc"],
                           "no_unchecked_remote.expected.json")

    def test_no_direct_persist(self):
        self.check_fixture(["no_direct_persist.cc"],
                           "no_direct_persist.expected.json")

    def test_no_direct_replica_write(self):
        self.check_fixture(["no_direct_replica_write.cc"],
                           "no_direct_replica_write.expected.json")

    def test_nodiscard(self):
        self.check_fixture(["nodiscard_missing.h", "nodiscard_ok.h"],
                           "nodiscard.expected.json")

    def test_no_unbounded_queue(self):
        self.check_fixture(["no_unbounded_queue.cc"],
                           "no_unbounded_queue.expected.json")


class ScopingTest(unittest.TestCase):
    """Rules must not fire outside their declared directories."""

    def test_assert_outside_src_is_fine(self):
        ctx = make_context("tests/foo_test.cc",
                           "void T() { assert(1 == 1); }\n")
        self.assertEqual(run_token_rules([ctx]), [])

    def test_rand_inside_util_random_is_fine(self):
        ctx = make_context("src/util/random.cc",
                           "int Seed() { return rand(); }\n")
        self.assertEqual(run_token_rules([ctx]), [])

    def test_ofstream_outside_persistence_dirs_is_fine(self):
        ctx = make_context("src/nn/dump.cc",
                           "void D(const std::string& p) {"
                           " std::ofstream out(p); }\n")
        self.assertEqual(run_token_rules([ctx]), [])

    def test_value_outside_dist_is_fine(self):
        ctx = make_context("src/core/local.cc",
                           "void L(Store* s) {"
                           " auto v = s->LoadFile(1).value(); }\n")
        self.assertEqual(run_token_rules([ctx]), [])

    def test_thread_inside_thread_pool_is_fine(self):
        ctx = make_context("src/util/thread_pool.cc",
                           "void Start() { std::thread t([] {}); }\n")
        self.assertEqual(run_token_rules([ctx]), [])

    def test_thread_elsewhere_in_util_is_flagged(self):
        # Only ThreadPool may start threads; the rest of util/ is not
        # exempt. A hardware_concurrency query stays allowed anywhere.
        ctx = make_context(
            "src/util/worker.cc",
            "unsigned N() { return std::thread::hardware_concurrency(); }\n"
            "void Start() { std::thread t([] {}); }\n")
        self.assertEqual(as_triples(run_token_rules([ctx])),
                         [["no-raw-thread", "src/util/worker.cc", 2]])


class SuppressionAuditTest(unittest.TestCase):
    def test_unknown_rule_name_is_reported(self):
        ctx = make_context("src/core/x.cc",
                           "int a;  // lint:allow(no-such-rule)\n")
        findings = run_token_rules([ctx])
        self.assertEqual(len(findings), 1)
        self.assertEqual(findings[0].rule, "unused-suppression")
        self.assertIn("unknown rule", findings[0].message)
        self.assertFalse(findings[0].suppressible)

    def test_allow_on_wrong_line_does_not_suppress(self):
        ctx = make_context(
            "src/core/x.cc",
            "// lint:allow(no-assert)\n"
            "void F(int x) { assert(x); }\n")
        findings = run_token_rules([ctx])
        rules = sorted(f.rule for f in findings)
        self.assertEqual(rules, ["no-assert", "unused-suppression"])

    def test_allow_for_wrong_rule_does_not_suppress(self):
        ctx = make_context(
            "src/core/x.cc",
            "void F(int x) { assert(x); }  // lint:allow(no-raw-rand)\n")
        findings = run_token_rules([ctx])
        rules = sorted(f.rule for f in findings)
        self.assertEqual(rules, ["no-assert", "unused-suppression"])


if __name__ == "__main__":
    unittest.main()
