"""Engine + CLI tests: baseline round-trip, fingerprint stability, the
repo-lints-clean invariant, output formats, and the legacy shim."""

import contextlib
import io
import json
import tempfile
import unittest
from pathlib import Path

from tools.mmlint import cli, engine
from tools.mmlint.findings import assign_fingerprints
from tools.mmlint.tests.util import make_context, run_token_rules

BAD_SOURCE = ("namespace m {\n"
              "int F(int x) {\n"
              "  assert(x >= 0);\n"
              "  return x;\n"
              "}\n"
              "}  // namespace m\n")


def run_cli(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args)
    return code, out.getvalue(), err.getvalue()


class RepoCleanTest(unittest.TestCase):
    """The acceptance invariant: the shipped tree lints clean with an empty
    baseline, and crash-point coverage is total."""

    def test_repo_lints_clean(self):
        result = engine.lint()
        self.assertEqual([str(f) for f in result.findings], [])
        self.assertEqual(result.baselined, [])
        self.assertEqual(result.stale_baseline, [])
        self.assertTrue(result.ok)

    def test_coverage_is_total(self):
        result = engine.lint()
        cov = result.coverage
        self.assertGreater(cov["persistence_call_sites"], 0)
        self.assertEqual(cov["covered"], cov["persistence_call_sites"])
        self.assertEqual(cov["coverage_percent"], 100.0)
        self.assertGreater(cov["registered_crash_points"], 0)

    def test_shipped_baseline_is_empty(self):
        self.assertEqual(engine.load_baseline(), [])

    def test_subset_run_skips_whole_graph_rules(self):
        # On a file subset the call graph is partial: crash points in other
        # TUs are invisible, so coverage must not report false positives.
        result = engine.lint(paths=[str(engine.REPO_ROOT / "src" /
                                        "persist")])
        self.assertEqual([str(f) for f in result.findings], [])
        self.assertEqual(result.coverage_sites, [])
        self.assertEqual(result.coverage, {})


class FingerprintTest(unittest.TestCase):
    def fingerprint_of(self, text):
        ctx = make_context("src/core/a.cc", text)
        findings = run_token_rules([ctx])
        self.assertEqual(len(findings), 1)
        assign_fingerprints(findings, {ctx.relpath: text.splitlines()})
        return findings[0].fingerprint

    def test_stable_under_line_shift(self):
        shifted = "// one new leading comment line\n" + BAD_SOURCE
        self.assertEqual(self.fingerprint_of(BAD_SOURCE),
                         self.fingerprint_of(shifted))

    def test_changes_when_line_text_changes(self):
        edited = BAD_SOURCE.replace("x >= 0", "x > 0")
        self.assertNotEqual(self.fingerprint_of(BAD_SOURCE),
                            self.fingerprint_of(edited))

    def test_duplicate_lines_get_distinct_fingerprints(self):
        text = ("void F(int x) { assert(x); }\n"
                "void G(int x) { assert(x); }\n")
        ctx = make_context("src/core/a.cc", text)
        findings = run_token_rules([ctx])
        self.assertEqual(len(findings), 2)
        assign_fingerprints(findings, {ctx.relpath: text.splitlines()})
        self.assertNotEqual(findings[0].fingerprint,
                            findings[1].fingerprint)


class BaselineRoundTripTest(unittest.TestCase):
    def test_roundtrip_and_stale_detection(self):
        with tempfile.TemporaryDirectory() as td:
            root = Path(td)
            (root / "src" / "core").mkdir(parents=True)
            bad = root / "src" / "core" / "bad.cc"
            bad.write_text(BAD_SOURCE, encoding="utf-8")
            baseline = root / "baseline.json"
            bands = {"core": 0}

            first = engine.lint(root=root, baseline_path=baseline,
                                bands=bands)
            self.assertEqual([f.rule for f in first.findings], ["no-assert"])

            engine.write_baseline(first.findings, baseline)
            second = engine.lint(root=root, baseline_path=baseline,
                                 bands=bands)
            self.assertTrue(second.ok)
            self.assertEqual([f.rule for f in second.baselined],
                             ["no-assert"])
            self.assertEqual(second.stale_baseline, [])

            # Fix the debt: the baseline entry must be flagged as stale.
            bad.write_text(BAD_SOURCE.replace("assert(x >= 0);", ""),
                           encoding="utf-8")
            third = engine.lint(root=root, baseline_path=baseline,
                                bands=bands)
            self.assertTrue(third.ok)
            self.assertEqual(len(third.stale_baseline), 1)

    def test_baseline_survives_line_shift(self):
        with tempfile.TemporaryDirectory() as td:
            root = Path(td)
            (root / "src" / "core").mkdir(parents=True)
            bad = root / "src" / "core" / "bad.cc"
            bad.write_text(BAD_SOURCE, encoding="utf-8")
            baseline = root / "baseline.json"
            bands = {"core": 0}

            first = engine.lint(root=root, baseline_path=baseline,
                                bands=bands)
            engine.write_baseline(first.findings, baseline)
            bad.write_text("// unrelated edit above the finding\n"
                           + BAD_SOURCE, encoding="utf-8")
            second = engine.lint(root=root, baseline_path=baseline,
                                 bands=bands)
            self.assertTrue(second.ok)
            self.assertEqual(len(second.baselined), 1)


class CliTest(unittest.TestCase):
    def test_list_rules_covers_all(self):
        code, out, _ = run_cli(["--list-rules"])
        self.assertEqual(code, 0)
        for rule_id in engine.all_rule_docs():
            self.assertIn(rule_id, out)

    def test_text_run_is_clean(self):
        code, out, _ = run_cli([])
        self.assertEqual(code, 0)
        self.assertIn("mmlint: OK", out)
        self.assertIn("crash-point coverage", out)

    def test_json_output(self):
        code, out, _ = run_cli(["--format=json"])
        self.assertEqual(code, 0)
        doc = json.loads(out)
        self.assertEqual(doc["findings"], [])
        self.assertEqual(doc["coverage"]["coverage_percent"], 100.0)

    def test_sarif_output(self):
        code, out, _ = run_cli(["--format=sarif"])
        self.assertEqual(code, 0)
        doc = json.loads(out)
        self.assertEqual(doc["version"], "2.1.0")
        driver = doc["runs"][0]["tool"]["driver"]
        self.assertEqual(driver["name"], "mmlint")
        self.assertGreater(len(driver["rules"]), 10)
        self.assertEqual(doc["runs"][0]["results"], [])

    def test_coverage_report(self):
        code, out, _ = run_cli(["--coverage-report"])
        self.assertEqual(code, 0)
        self.assertIn("[ok]", out)

    def test_nonexistent_path_is_usage_error(self):
        code, _, _ = run_cli(["no/such/path.cc"])
        self.assertEqual(code, 2)


if __name__ == "__main__":
    unittest.main()
