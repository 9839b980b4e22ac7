// Pins the explorer's non-timing output bytes. Each cell's SHA-256 of
// chk::ToJson(Explore(cfg), /*include_timing=*/false) must match
// tests/golden/chk_manifest.json: every registry app × runtime at --exhaust=1, plus
// two budgeted depth-2 cells. Any refactor of the explorer must leave every digest
// unchanged. A mismatch prints the recomputed manifest entry, so a deliberate output
// change regenerates the manifest by copying the printed lines.

#include <gtest/gtest.h>

#include <cctype>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>

#include "chk/explorer.h"
#include "daemon/jsonin.h"
#include "platform/hash.h"
#include "report/jobs.h"

namespace easeio::chk {
namespace {

struct GoldenCell {
  apps::AppKind app;
  apps::RuntimeKind runtime;
  uint32_t exhaust;  // > 0: --exhaust=N; 0: depth 2 at `budget`
  uint32_t budget;
};

std::string CellName(const GoldenCell& c) {
  std::string name =
      std::string(report::AppName(c.app)) + "/" + report::RuntimeName(c.runtime) + "/";
  return name + (c.exhaust > 0 ? "exhaust=" + std::to_string(c.exhaust)
                               : "depth=2,budget=" + std::to_string(c.budget));
}

// gtest would otherwise print the raw struct bytes into the test name.
void PrintTo(const GoldenCell& c, std::ostream* os) { *os << CellName(c); }

std::vector<GoldenCell> AllCells() {
  static constexpr apps::RuntimeKind kRuntimes[] = {
      apps::RuntimeKind::kAlpaca, apps::RuntimeKind::kInk, apps::RuntimeKind::kSamoyed,
      apps::RuntimeKind::kEaseio, apps::RuntimeKind::kEaseioOp};
  std::vector<GoldenCell> cells;
  for (apps::AppKind app : apps::kAllApps) {
    for (apps::RuntimeKind rt : kRuntimes) {
      cells.push_back({app, rt, 1, 0});
    }
  }
  // The budgeted depth-2 cells of the snapshot-engine equivalence tests.
  cells.push_back({apps::AppKind::kDma, apps::RuntimeKind::kAlpaca, 0, 160});
  cells.push_back({apps::AppKind::kWeather, apps::RuntimeKind::kSamoyed, 0, 60});
  return cells;
}

const daemon::JsonValue& Manifest() {
  static const daemon::JsonValue manifest = [] {
    std::ifstream in(std::string(EASEIO_SOURCE_DIR) + "/tests/golden/chk_manifest.json");
    std::stringstream text;
    text << in.rdbuf();
    daemon::JsonValue doc;
    std::string error;
    EXPECT_TRUE(daemon::ParseJson(text.str(), &doc, &error)) << error;
    return doc;
  }();
  return manifest;
}

class ChkGolden : public ::testing::TestWithParam<GoldenCell> {};

TEST_P(ChkGolden, NonTimingJsonMatchesManifest) {
  const GoldenCell& c = GetParam();
  ExploreConfig cfg;
  cfg.app = c.app;
  cfg.runtime = c.runtime;
  cfg.jobs = 4;
  if (c.exhaust > 0) {
    cfg.exhaust = c.exhaust;
  } else {
    cfg.depth = 2;
    cfg.budget = c.budget;
  }
  const std::string digest =
      platform::Sha256Hex(ToJson(Explore(cfg), /*include_timing=*/false));

  const std::string name = CellName(c);
  const daemon::JsonValue* cells = Manifest().Find("cells");
  ASSERT_NE(cells, nullptr) << "manifest has no \"cells\" object";
  const daemon::JsonValue* want = cells->Find(name);
  ASSERT_NE(want, nullptr) << "no manifest entry; recomputed:\n    \"" << name << "\": \""
                           << digest << "\"";
  EXPECT_EQ(want->AsString(), digest)
      << "recomputed:\n    \"" << name << "\": \"" << digest << "\"";
}

TEST(ChkGoldenManifest, ListsExactlyTheCells) {
  const daemon::JsonValue* cells = Manifest().Find("cells");
  ASSERT_NE(cells, nullptr);
  EXPECT_EQ(Manifest().Find("schema")->AsString(), "easeio-golden/1");
  EXPECT_EQ(cells->Members().size(), AllCells().size()) << "stale manifest entries";
}

INSTANTIATE_TEST_SUITE_P(Cells, ChkGolden, ::testing::ValuesIn(AllCells()),
                         [](const auto& info) {
                           std::string name = CellName(info.param);
                           for (char& ch : name) {
                             if (!std::isalnum(static_cast<unsigned char>(ch))) {
                               ch = '_';
                             }
                           }
                           return name;
                         });

}  // namespace
}  // namespace easeio::chk
