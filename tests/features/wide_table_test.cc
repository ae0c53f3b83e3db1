#include "features/wide_table.h"

#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/telemetry/metrics.h"
#include "common/telemetry/trace.h"
#include "common/thread_pool.h"
#include "datagen/table_names.h"
#include "sim_fixture.h"

namespace telco {
namespace {

TEST(WideTableTest, BuildsAllNineFamilies) {
  auto& shared = sim_fixture::GetSharedSim();
  WideTableBuilder builder(&shared.catalog);
  auto wide = builder.Build(2);
  ASSERT_TRUE(wide.ok()) << wide.status().ToString();

  for (FeatureFamily f : AllFeatureFamilies()) {
    EXPECT_FALSE(wide->FamilyColumns(f).empty())
        << FeatureFamilyLabel(f);
  }
  // Family sizes from the paper where fixed: F2 = 9, F3 = 25 (15 KPI + 10
  // locations), graph families 2 each, topics 10 each, F9 = 20.
  EXPECT_EQ(wide->FamilyColumns(FeatureFamily::kF2Cs).size(), 9u);
  EXPECT_EQ(wide->FamilyColumns(FeatureFamily::kF3Ps).size(), 25u);
  EXPECT_EQ(wide->FamilyColumns(FeatureFamily::kF4CallGraph).size(), 2u);
  EXPECT_EQ(wide->FamilyColumns(FeatureFamily::kF5MsgGraph).size(), 2u);
  EXPECT_EQ(wide->FamilyColumns(FeatureFamily::kF6CoocGraph).size(), 2u);
  EXPECT_EQ(
      wide->FamilyColumns(FeatureFamily::kF7ComplaintTopics).size(), 10u);
  EXPECT_EQ(wide->FamilyColumns(FeatureFamily::kF8SearchTopics).size(),
            10u);
  EXPECT_EQ(wide->FamilyColumns(FeatureFamily::kF9SecondOrder).size(), 20u);
  // F1 is the large baseline family (~60 features; 150-ish total).
  EXPECT_GE(wide->FamilyColumns(FeatureFamily::kF1Baseline).size(), 55u);
  EXPECT_GE(wide->AllFeatureColumns().size(), 135u);
}

TEST(WideTableTest, EveryFamilyColumnExistsInTable) {
  auto& shared = sim_fixture::GetSharedSim();
  WideTableBuilder builder(&shared.catalog);
  auto wide = builder.Build(2);
  ASSERT_TRUE(wide.ok());
  for (const auto& name : wide->AllFeatureColumns()) {
    EXPECT_TRUE(wide->table->schema().HasField(name)) << name;
  }
  EXPECT_TRUE(wide->table->schema().HasField("imsi"));
}

TEST(WideTableTest, NoDuplicateFeatureColumns) {
  auto& shared = sim_fixture::GetSharedSim();
  WideTableBuilder builder(&shared.catalog);
  auto wide = builder.Build(2);
  ASSERT_TRUE(wide.ok());
  const auto cols = wide->AllFeatureColumns();
  const std::set<std::string> unique(cols.begin(), cols.end());
  EXPECT_EQ(unique.size(), cols.size());
}

TEST(WideTableTest, OneRowPerActiveCustomer) {
  auto& shared = sim_fixture::GetSharedSim();
  WideTableBuilder builder(&shared.catalog);
  auto wide = builder.Build(3);
  ASSERT_TRUE(wide.ok());
  EXPECT_EQ(wide->table->num_rows(),
            shared.sim->truth().months[2].active_imsis.size());
}

TEST(WideTableTest, CachedBuildReturnsSameTable) {
  auto& shared = sim_fixture::GetSharedSim();
  WideTableBuilder builder(&shared.catalog);
  auto a = builder.Build(2);
  auto b = builder.Build(2);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->table.get(), b->table.get());  // memoised
  // And registered in the catalog as the paper's reusable Hive table.
  EXPECT_TRUE(shared.catalog.Contains("wide_m2"));
}

TEST(WideTableTest, SecondOrderPairsComeFromBaseline) {
  auto& shared = sim_fixture::GetSharedSim();
  WideTableBuilder builder(&shared.catalog);
  auto wide = builder.Build(2);
  ASSERT_TRUE(wide.ok());
  auto pairs = builder.SelectedSecondOrderPairs();
  ASSERT_TRUE(pairs.ok());
  EXPECT_EQ(pairs->size(), 20u);
  const auto& f1 = wide->FamilyColumns(FeatureFamily::kF1Baseline);
  const std::set<std::string> f1_set(f1.begin(), f1.end());
  for (const auto& [a, b] : *pairs) {
    EXPECT_TRUE(f1_set.count(a)) << a;
    EXPECT_TRUE(f1_set.count(b)) << b;
  }
}

TEST(WideTableTest, SecondOrderColumnsAreProducts) {
  auto& shared = sim_fixture::GetSharedSim();
  WideTableBuilder builder(&shared.catalog);
  auto wide = builder.Build(2);
  ASSERT_TRUE(wide.ok());
  auto pairs = *builder.SelectedSecondOrderPairs();
  const auto& [a, b] = pairs[0];
  const auto& so_cols = wide->FamilyColumns(FeatureFamily::kF9SecondOrder);
  auto col_a = *wide->table->GetColumn(a);
  auto col_b = *wide->table->GetColumn(b);
  auto col_so = *wide->table->GetColumn(so_cols[0]);
  for (size_t r = 0; r < 50; ++r) {
    if (col_a->IsNull(r) || col_b->IsNull(r)) {
      EXPECT_TRUE(col_so->IsNull(r));
      continue;
    }
    EXPECT_NEAR(col_so->GetNumeric(r),
                col_a->GetNumeric(r) * col_b->GetNumeric(r),
                1e-6 * std::max(1.0, std::fabs(col_so->GetNumeric(r))));
  }
}

TEST(WideTableTest, StalenessWindowStillBuilds) {
  auto& shared = sim_fixture::GetSharedSim();
  WideTableOptions options;
  options.staleness_weeks = 2;
  WideTableBuilder builder(&shared.catalog, options);
  auto wide = builder.Build(3);
  ASSERT_TRUE(wide.ok()) << wide.status().ToString();
  EXPECT_EQ(wide->table->num_rows(),
            shared.sim->truth().months[2].active_imsis.size());
  EXPECT_TRUE(shared.catalog.Contains("wide_m3_s2"));
}

TEST(WideTableTest, StalenessChangesWeeklyFeatures) {
  auto& shared = sim_fixture::GetSharedSim();
  WideTableBuilder fresh(&shared.catalog);
  WideTableOptions stale_options;
  stale_options.staleness_weeks = 2;
  stale_options.cache_in_catalog = false;
  WideTableBuilder stale(&shared.catalog, stale_options);
  auto a = fresh.Build(3);
  auto b = stale.Build(3);
  ASSERT_TRUE(a.ok() && b.ok());
  auto va = *a->table->GetColumn("voice_dur");
  auto vb = *b->table->GetColumn("voice_dur");
  size_t differing = 0;
  const size_t n = std::min(a->table->num_rows(), b->table->num_rows());
  for (size_t r = 0; r < n; ++r) {
    if (std::fabs(va->GetNumeric(r) - vb->GetNumeric(r)) > 1e-9) {
      ++differing;
    }
  }
  EXPECT_GT(differing, n / 2);
}

TEST(WideTableTest, MissingMonthFails) {
  auto& shared = sim_fixture::GetSharedSim();
  WideTableBuilder builder(&shared.catalog);
  EXPECT_FALSE(builder.Build(99).ok());
}

uint64_t HistogramCount(const std::string& name) {
  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  const MetricValue* metric = snapshot.Find(name);
  return metric == nullptr ? 0 : metric->histogram.count;
}

// The FM pair selector reads only the pair-selection month's F1, so a
// build of another month runs F2..F8 exactly once: no nested wide build
// of the pair month.
TEST(WideTableTest, BuildOfLaterMonthBuildsEachFamilyOnce) {
  auto& shared = sim_fixture::GetSharedSim();
  const uint64_t f1_before = HistogramCount("features.F1.build_seconds");
  const uint64_t f2_before = HistogramCount("features.F2.build_seconds");
  const uint64_t fm_before =
      HistogramCount("features.F9.select_pairs_seconds");
  WideTableOptions options;
  options.cache_in_catalog = false;
  WideTableBuilder builder(&shared.catalog, options);
  ASSERT_TRUE(builder.Build(2).ok());
  EXPECT_EQ(HistogramCount("features.F2.build_seconds") - f2_before, 1u);
  // F1 of month 2 plus the F1-only build of the pair-selection month.
  EXPECT_EQ(HistogramCount("features.F1.build_seconds") - f1_before, 2u);
  EXPECT_EQ(HistogramCount("features.F9.select_pairs_seconds") - fm_before,
            1u);
  // The pair month's F1 is memoised: building month 1 afterwards reuses it.
  ASSERT_TRUE(builder.Build(1).ok());
  EXPECT_EQ(HistogramCount("features.F1.build_seconds") - f1_before, 2u);
  EXPECT_EQ(HistogramCount("features.F2.build_seconds") - f2_before, 2u);
}

// A pair-selection-month input that is gone fails the build with the same
// error on every schedule, without hanging, and leaves nothing half built:
// a second Build fails the same way. Without the search corpus the LDA
// fit task fails (reported by F8); without the billing table the F1-only
// build behind the FM fit fails, but F4 reads it too and comes first.
TEST(WideTableTest, MissingPairMonthTableFailsTheSameOnEveryPool) {
  auto& shared = sim_fixture::GetSharedSim();
  for (const std::string& dropped :
       {SearchTextTableName(1), BillingTableName(1)}) {
    Catalog catalog;
    for (const std::string& name : shared.catalog.ListTables()) {
      // Skip the dropped table, and wide tables other tests cached.
      if (name == dropped || name.rfind("wide_", 0) == 0) continue;
      ASSERT_TRUE(catalog.Register(name, *shared.catalog.Get(name)).ok());
    }
    std::vector<std::string> errors;
    for (const size_t threads : {1u, 4u}) {
      ThreadPool pool(threads);
      WideTableOptions options;
      options.pool = &pool;
      WideTableBuilder builder(&catalog, options);
      for (int attempt = 0; attempt < 2; ++attempt) {
        auto wide = builder.Build(2);
        ASSERT_FALSE(wide.ok()) << dropped << ", " << threads << " threads";
        errors.push_back(wide.status().ToString());
        EXPECT_FALSE(catalog.Contains("wide_m2"));
      }
    }
    EXPECT_NE(errors[0].find(dropped), std::string::npos) << errors[0];
    for (const std::string& error : errors) {
      EXPECT_EQ(error, errors[0]) << dropped;
    }
  }
}

// The fits run as pool tasks but stay attributed to the build that
// started them, and the F9 span covers only the product projection.
TEST(WideTableTest, FitSpansNestUnderTheBuild) {
  auto& shared = sim_fixture::GetSharedSim();
  ThreadPool pool(4);
  WideTableOptions options;
  options.cache_in_catalog = false;
  options.pool = &pool;
  WideTableBuilder builder(&shared.catalog, options);
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Start();
  const bool built = builder.Build(2).ok();
  recorder.Stop();
  ASSERT_TRUE(built);
  const std::vector<TraceEvent> events = recorder.Collect();
  uint64_t build_id = 0;
  for (const TraceEvent& event : events) {
    if (event.name == "features.build_wide:m2") build_id = event.id;
  }
  ASSERT_NE(build_id, 0u);
  size_t lda_fits = 0;
  size_t pair_fits = 0;
  for (const TraceEvent& event : events) {
    if (event.name == "text.lda.train") {
      ++lda_fits;
      EXPECT_EQ(event.parent_id, build_id);
    } else if (event.name == "features.F9.select_pairs") {
      ++pair_fits;
      EXPECT_EQ(event.parent_id, build_id);
    } else if (event.name == "features.F9") {
      EXPECT_EQ(event.parent_id, build_id);
    }
  }
  EXPECT_EQ(lda_fits, 2u);
  EXPECT_EQ(pair_fits, 1u);
}

}  // namespace
}  // namespace telco
