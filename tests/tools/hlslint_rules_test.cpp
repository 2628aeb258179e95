// Fixture-based self-test for the hlslint rule engine: every rule has at
// least one known-bad snippet (exact file:line:rule pinned here) and a
// known-clean twin. The fixture trees under tests/tools/fixtures/ are data,
// not compiled code — the lint engine's own tree walk skips any `fixtures`
// directory so the intentionally-bad files never fail the repo gate.
// Allow-comments are exercised against synthetic trees in a temp directory.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "hlslint/lint.hpp"

namespace {

namespace fs = std::filesystem;

/// Writes synthetic trees for a test under a temp directory of its own: ctest
/// runs each test as its own process, concurrently, so the tree name must be
/// unique per test or parallel runs race on the shared TempDir.
class HlslintRules : public ::testing::Test {
 protected:
  void TearDown() override {
    if (!root_.empty()) {
      fs::remove_all(root_);
    }
  }

  void write_file(const std::string& rel, const std::string& text) {
    if (root_.empty()) {
      root_ = fs::path(::testing::TempDir()) /
              (std::string("hlslint_") +
               ::testing::UnitTest::GetInstance()->current_test_info()->name());
      fs::remove_all(root_);
    }
    fs::create_directories((root_ / rel).parent_path());
    std::ofstream out(root_ / rel);
    out << text;
    ASSERT_TRUE(out.good());
  }

  hlslint::Options options() const {
    hlslint::Options opts;
    opts.root = root_.string();
    return opts;
  }

  fs::path root_;
};

hlslint::LintResult lint_fixture(const std::string& tree) {
  hlslint::Options opts;
  opts.root = std::string(HLS_FIXTURE_DIR) + "/" + tree;
  return hlslint::lint_tree(opts);
}

bool has_finding(const hlslint::LintResult& r, const std::string& file,
                 int line, const std::string& rule) {
  return std::any_of(r.findings.begin(), r.findings.end(),
                     [&](const hlslint::Finding& f) {
                       return f.file == file && f.line == line &&
                              f.rule == rule;
                     });
}

TEST_F(HlslintRules, BadTreeFindsEveryRule) {
  hlslint::LintResult r = lint_fixture("bad");

  struct Expected {
    const char* file;
    int line;
    const char* rule;
  };
  const std::vector<Expected> expected = {
      {"src/util/missing_pragma.hpp", 1, "pragma-once"},
      {"src/util/bare_assert.cpp", 4, "hls-assert"},
      {"src/util/bare_assert.cpp", 7, "hls-assert"},
      {"src/sim/wall_clock.cpp", 5, "wall-clock"},
      {"src/sim/wall_clock.cpp", 6, "wall-clock"},
      {"src/workload/global_rng.cpp", 2, "global-rng"},
      {"src/workload/global_rng.cpp", 5, "global-rng"},
      {"src/workload/global_rng.cpp", 6, "global-rng"},
      {"src/core/local_include.cpp", 2, "include-style"},
      {"src/core/local_include.cpp", 3, "include-style"},
      {"src/model/float_eq.cpp", 4, "float-eq"},
      {"src/model/float_eq.cpp", 7, "float-eq"},
      {"src/obs/unordered_emit.cpp", 9, "unordered-iter"},
      {"src/hybrid/unsorted_collect.cpp", 10, "unordered-iter"},
      {"src/hybrid/raw_capture.cpp", 13, "callback-epoch"},
      {"src/hybrid/no_epoch.cpp", 14, "callback-epoch"},
      {"src/util/uses_core.hpp", 3, "layer-order"},
      {"src/net/uses_db.hpp", 3, "layer-order"},
      {"src/sim/cycle_a.hpp", 1, "layer-cycle"},
      {"bench/no_scale.cpp", 5, "bench-time-scale"},
      {"src/hybrid/named_lambda.cpp", 14, "callback-epoch"},
      {"src/hybrid/wrong_sort.cpp", 13, "unordered-iter"},
  };
  for (const Expected& e : expected) {
    EXPECT_TRUE(has_finding(r, e.file, e.line, e.rule))
        << "missing " << e.file << ":" << e.line << ": " << e.rule;
  }
  EXPECT_EQ(r.findings.size(), expected.size())
      << "unexpected extra findings in the bad fixture tree";
}

TEST_F(HlslintRules, GoodTreeIsClean) {
  hlslint::LintResult r = lint_fixture("good");
  for (const hlslint::Finding& f : r.findings) {
    ADD_FAILURE() << "unexpected finding: " << f.file << ":" << f.line << ": "
                  << f.rule << ": " << f.message;
  }
  EXPECT_GT(r.files_scanned, 0);
}

TEST_F(HlslintRules, EveryRuleIsExercisedByTheBadTree) {
  // Guards the fixture suite itself: adding a rule without a bad fixture
  // should fail here, not silently ship unexercised.
  hlslint::LintResult r = lint_fixture("bad");
  for (const auto& [id, desc] : hlslint::rule_catalog()) {
    (void)desc;
    EXPECT_TRUE(std::any_of(
        r.findings.begin(), r.findings.end(),
        [&](const hlslint::Finding& f) { return f.rule == id; }))
        << "rule '" << id << "' has no bad fixture";
  }
}

TEST_F(HlslintRules, OnlyAndDisableFilterRules) {
  hlslint::Options opts;
  opts.root = std::string(HLS_FIXTURE_DIR) + "/bad";
  opts.only = {"pragma-once"};
  hlslint::LintResult only = hlslint::lint_tree(opts);
  ASSERT_EQ(only.findings.size(), 1u);
  EXPECT_EQ(only.findings[0].rule, "pragma-once");

  opts.only.clear();
  opts.disabled = {"pragma-once"};
  hlslint::LintResult disabled = hlslint::lint_tree(opts);
  EXPECT_TRUE(std::none_of(
      disabled.findings.begin(), disabled.findings.end(),
      [](const hlslint::Finding& f) { return f.rule == "pragma-once"; }));
}

TEST_F(HlslintRules, LexerBlanksCommentsAndStrings) {
  hlslint::SourceFile f;
  f.path = "src/util/x.cpp";
  hlslint::lex_source(
      "int a = 1; // srand(7)\n"
      "const char* s = \"rand()\";\n"
      "/* time(nullptr) */ int b = 2;\n",
      f);
  std::vector<hlslint::Finding> findings;
  hlslint::check_text_rules(f, findings);
  for (const hlslint::Finding& fi : findings) {
    ADD_FAILURE() << fi.rule << " fired on comment/string content at line "
                  << fi.line;
  }
}

TEST_F(HlslintRules, RuleCatalogMatchesKnownRules) {
  EXPECT_TRUE(hlslint::known_rule("callback-epoch"));
  EXPECT_FALSE(hlslint::known_rule("no-such-rule"));
  EXPECT_TRUE(hlslint::known_rule("bench-time-scale"));
  // Table asserts its own row arity, and Rng::fork takes no label.
  EXPECT_FALSE(hlslint::known_rule("bench-csv-schema"));
  EXPECT_FALSE(hlslint::known_rule("fork-label-unique"));
  // Registration names are compile-time constants (obs::MetricName), one
  // unit per name is artifact_test's, and the config key list's coverage
  // is config_io_test's.
  EXPECT_FALSE(hlslint::known_rule("registry-name"));
  EXPECT_FALSE(hlslint::known_rule("registry-unit"));
  EXPECT_FALSE(hlslint::known_rule("config-roundtrip"));
  EXPECT_EQ(hlslint::rule_catalog().size(), 11u);
}

TEST_F(HlslintRules, AllowCommentSuppressesSameAndNextLine) {
  write_file("src/util/same_line.cpp",
             "namespace fx {\n"
             "void check(int x) {\n"
             "  assert(x > 0);  // hlslint:allow(hls-assert)\n"
             "}\n"
             "}  // namespace fx\n");
  write_file("src/util/next_line.cpp",
             "namespace fx {\n"
             "void check(int x) {\n"
             "  // hlslint:allow(hls-assert) — documented exception\n"
             "  assert(x > 0);\n"
             "}\n"
             "}  // namespace fx\n");
  hlslint::LintResult r = hlslint::lint_tree(options());
  EXPECT_TRUE(r.findings.empty());
  EXPECT_EQ(r.suppressed_allow, 2);
}

TEST_F(HlslintRules, AllowCommentForOtherRuleDoesNotSuppress) {
  write_file("src/util/wrong_rule.cpp",
             "namespace fx {\n"
             "void check(int x) {\n"
             "  assert(x > 0);  // hlslint:allow(float-eq)\n"
             "}\n"
             "}  // namespace fx\n");
  hlslint::LintResult r = hlslint::lint_tree(options());
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].rule, "hls-assert");
}

}  // namespace
