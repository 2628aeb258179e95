// Repo-is-clean integration test: runs the lint engine over the live tree.
// This is the same gate scripts/check.sh enforces, kept in ctest so a
// violation fails the ordinary test run too, with the diagnostics inline.
#include <gtest/gtest.h>

#include "hlslint/lint.hpp"

namespace {

TEST(HlslintRepo, LiveTreeIsLintClean) {
  hlslint::Options opts;
  opts.root = HLS_REPO_ROOT;
  hlslint::LintResult r = hlslint::lint_tree(opts);
  for (const hlslint::Finding& f : r.findings) {
    ADD_FAILURE() << f.file << ":" << f.line << ": " << f.rule << ": "
                  << f.message;
  }
  // The tree is large; a tiny count means the walk silently missed it.
  EXPECT_GT(r.files_scanned, 100);
}

}  // namespace
