// Injected-drift self-tests for the semantic-model rules, plus the JSON
// output round trip. The drift test builds a scratch tree in a temp dir
// that lints clean, then re-injects the exact drift the rule exists to
// catch — deleting a config key list entry — and asserts the lint produces
// exactly the expected finding, nothing more. The baseline test closes the
// loop for the model rule ids: model-rule findings must grandfather and
// resurface like any text-rule finding.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "hlslint/lint.hpp"

namespace {

namespace fs = std::filesystem;

class HlslintModel : public ::testing::Test {
 protected:
  void SetUp() override {
    // ctest runs each TEST_F as its own process, concurrently: the tree name
    // must be unique per test or parallel runs race on the shared TempDir.
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    root_ = fs::path(::testing::TempDir()) /
            (std::string("hlslint_model_") + info->name());
    fs::remove_all(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  void write_file(const std::string& rel, const std::string& text) {
    fs::path p = root_ / rel;
    fs::create_directories(p.parent_path());
    std::ofstream out(p);
    out << text;
    ASSERT_TRUE(out.good());
  }

  hlslint::Options options() const {
    hlslint::Options opts;
    opts.root = root_.string();
    opts.use_baseline = false;
    return opts;
  }

  fs::path root_;
};

// ---- scratch-tree sources -------------------------------------------------

const char kConfigClean[] =
    "#pragma once\n"
    "// Scratch config: both scalar fields are in the key list.\n"
    "namespace fx {\n"
    "struct SystemConfig {\n"
    "  double alpha = 1.5;\n"
    "  double beta = 0.25;\n"  // line 6: the beta field
    "};\n"
    "template <class Config, class Key>\n"
    "void for_each_config_key(Config& c, Key&& key) {\n"
    "  key(\"alpha\", c.alpha, kNonNegative);\n"
    "  key(\"beta\", c.beta, kNonNegative);\n"
    "}\n"
    "}  // namespace fx\n";

// Same file with the beta list entry deleted: config text can no longer set
// beta, and a described run would silently drop it on replay.
const char kConfigDrift[] =
    "#pragma once\n"
    "// Scratch config: both scalar fields are in the key list.\n"
    "namespace fx {\n"
    "struct SystemConfig {\n"
    "  double alpha = 1.5;\n"
    "  double beta = 0.25;\n"  // line 6: the beta field
    "};\n"
    "template <class Config, class Key>\n"
    "void for_each_config_key(Config& c, Key&& key) {\n"
    "  key(\"alpha\", c.alpha, kNonNegative);\n"
    "}\n"
    "}  // namespace fx\n";

// A bench whose main() honors HLS_TIME_SCALE through scaled_options.
const char kBenchClean[] =
    "// Scratch bench: quick runs scale down.\n"
    "int run_everything(double scale);\n"
    "double scaled_options();\n"
    "int main() {\n"
    "  return run_everything(scaled_options());\n"
    "}\n";

// Same bench with the scaling call dropped: quick CI runs would silently
// run it at full length.
const char kBenchDrift[] =
    "// Scratch bench: quick runs scale down.\n"
    "int run_everything(double scale);\n"
    "int main() {\n"
    "  return run_everything(1.0);\n"
    "}\n";

// ---- injected-drift self-tests -------------------------------------------

TEST_F(HlslintModel, DeletingAKeyListEntryIsCaught) {
  write_file("src/hybrid/config.hpp", kConfigClean);
  hlslint::LintResult before = hlslint::lint_tree(options());
  ASSERT_TRUE(before.findings.empty())
      << before.findings[0].file << ":" << before.findings[0].line << ": "
      << before.findings[0].rule << ": " << before.findings[0].message;

  write_file("src/hybrid/config.hpp", kConfigDrift);
  hlslint::LintResult after = hlslint::lint_tree(options());
  ASSERT_EQ(after.findings.size(), 1u);
  EXPECT_EQ(after.findings[0].rule, "config-roundtrip");
  EXPECT_EQ(after.findings[0].file, "src/hybrid/config.hpp");
  EXPECT_EQ(after.findings[0].line, 6);  // the now-unlisted beta field
  EXPECT_NE(after.findings[0].message.find("no entry in the config key list"),
            std::string::npos)
      << after.findings[0].message;
}

// ---- baseline round trip for the model rules -----------------------------

TEST_F(HlslintModel, ModelRuleFindingsRoundTripThroughBaseline) {
  // Both drifts in one tree: two findings across two model rule ids.
  write_file("src/hybrid/config.hpp", kConfigDrift);
  write_file("bench/scratch.cpp", kBenchDrift);

  hlslint::Options opts = options();
  opts.use_baseline = true;
  hlslint::LintResult before = hlslint::lint_tree(opts);
  ASSERT_EQ(before.findings.size(), 2u);

  std::vector<std::string> keys = hlslint::compute_baseline_keys(opts);
  ASSERT_EQ(keys.size(), 2u);
  fs::create_directories(root_ / "tools" / "hlslint");
  ASSERT_TRUE(hlslint::write_baseline(
      (root_ / "tools" / "hlslint" / "baseline.txt").string(), keys));
  hlslint::LintResult suppressed = hlslint::lint_tree(opts);
  EXPECT_TRUE(suppressed.findings.empty());
  EXPECT_EQ(suppressed.suppressed_baseline, 2);
  EXPECT_EQ(suppressed.stale_baseline, 0);

  // Fixing one drift (restoring the scaling call) makes exactly its entry
  // stale; the other stays grandfathered.
  write_file("bench/scratch.cpp", kBenchClean);
  hlslint::LintResult fixed = hlslint::lint_tree(opts);
  EXPECT_TRUE(fixed.findings.empty());
  EXPECT_EQ(fixed.suppressed_baseline, 1);
  EXPECT_EQ(fixed.stale_baseline, 1);
}

// ---- JSON output ----------------------------------------------------------

TEST(HlslintJson, RoundTripIsIdentity) {
  std::vector<hlslint::Finding> in = {
      {"src/a.cpp", 3, "hls-assert", "plain message"},
      {"src/b.hpp", 41, "config-roundtrip",
       "config key 'x' has no `key == \"x\"` parse case"},
      {"bench/c.cpp", 7, "bench-time-scale",
       "quotes \" backslash \\ newline \n tab \t return \r control \x01"},
  };
  std::string json = hlslint::findings_to_json(in);
  std::vector<hlslint::Finding> out;
  ASSERT_TRUE(hlslint::parse_findings_json(json, out));
  ASSERT_EQ(out.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out[i].file, in[i].file);
    EXPECT_EQ(out[i].line, in[i].line);
    EXPECT_EQ(out[i].rule, in[i].rule);
    EXPECT_EQ(out[i].message, in[i].message);
  }
}

TEST(HlslintJson, EmptyFindingsRoundTrip) {
  std::string json = hlslint::findings_to_json({});
  std::vector<hlslint::Finding> out = {{"x", 1, "y", "z"}};
  ASSERT_TRUE(hlslint::parse_findings_json(json, out));
  EXPECT_TRUE(out.empty());
}

TEST(HlslintJson, ParserRejectsOtherShapes) {
  std::vector<hlslint::Finding> out;
  EXPECT_FALSE(hlslint::parse_findings_json("{}", out));
  EXPECT_FALSE(hlslint::parse_findings_json("[]", out));
  EXPECT_FALSE(hlslint::parse_findings_json("{\"results\": []}", out));
  // Unknown member: not this schema.
  EXPECT_FALSE(hlslint::parse_findings_json(
      "{\"findings\": [{\"rule\": \"r\", \"file\": \"f\", \"line\": 1, "
      "\"message\": \"m\", \"extra\": 0}]}",
      out));
}

}  // namespace
