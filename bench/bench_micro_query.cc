// Micro-benchmarks of the query layer (google-benchmark): the operator
// kernels that dominate wide-table construction. The operators run on
// the default pool's workers, so every case reports wall-clock rates
// (UseRealTime); the main thread's CPU time would overstate them.

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "query/operators.h"

namespace telco {
namespace {

TablePtr MakeEventsTable(size_t rows, size_t num_keys, uint64_t seed) {
  TableBuilder builder(Schema({{"imsi", DataType::kInt64},
                               {"week", DataType::kInt64},
                               {"v1", DataType::kDouble},
                               {"v2", DataType::kDouble},
                               {"v3", DataType::kDouble}}));
  builder.Reserve(rows);
  Rng rng(seed);
  std::vector<Value> row(5);
  for (size_t r = 0; r < rows; ++r) {
    row[0] = Value(static_cast<int64_t>(rng.UniformInt(num_keys)));
    row[1] = Value(static_cast<int64_t>(1 + rng.UniformInt(4)));
    row[2] = Value(rng.Uniform() * 100.0);
    row[3] = Value(rng.Gaussian());
    row[4] = Value(rng.Exponential(1.0));
    builder.AppendRowUnchecked(row);
  }
  return *builder.Finish();
}

void BM_Filter(benchmark::State& state) {
  const auto table = MakeEventsTable(static_cast<size_t>(state.range(0)),
                                     10000, 1);
  const auto predicate = Expr::Gt(Col("v1"), Lit(Value(50.0)));
  for (auto _ : state) {
    auto result = Filter(table, predicate);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Filter)->Arg(10000)->Arg(100000)->UseRealTime();

void BM_GroupByAggregate(benchmark::State& state) {
  const auto table = MakeEventsTable(static_cast<size_t>(state.range(0)),
                                     static_cast<size_t>(state.range(0)) / 4,
                                     2);
  const std::vector<Aggregate> aggs = {{AggKind::kSum, "v1", "v1_sum"},
                                       {AggKind::kMean, "v2", "v2_mean"},
                                       {AggKind::kMax, "v3", "v3_max"}};
  for (auto _ : state) {
    auto result = GroupByAggregate(table, {"imsi"}, aggs);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GroupByAggregate)->Arg(10000)->Arg(100000)->UseRealTime();

void BM_HashJoin(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  const auto left = MakeEventsTable(rows, rows / 4, 3);
  const auto right = GroupByAggregate(
      MakeEventsTable(rows, rows / 4, 4), {"imsi"},
      {{AggKind::kSum, "v1", "total"}});
  for (auto _ : state) {
    auto result =
        HashJoin(left, *right, {"imsi"}, {"imsi"}, JoinType::kLeft);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_HashJoin)->Arg(10000)->Arg(100000)->UseRealTime();

void BM_SortBy(benchmark::State& state) {
  const auto table = MakeEventsTable(static_cast<size_t>(state.range(0)),
                                     10000, 5);
  for (auto _ : state) {
    auto result = SortBy(table, {{"v1", false}});
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SortBy)->Arg(10000)->Arg(100000)->UseRealTime();

void BM_ProjectExpression(benchmark::State& state) {
  const auto table = MakeEventsTable(static_cast<size_t>(state.range(0)),
                                     10000, 6);
  const std::vector<ProjectedColumn> columns = {
      {"imsi", Col("imsi"), DataType::kInt64},
      {"ratio", Expr::Div(Col("v1"), Expr::Add(Col("v3"), Lit(Value(1.0)))),
       DataType::kDouble}};
  for (auto _ : state) {
    auto result = Project(table, columns);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ProjectExpression)->Arg(10000)->Arg(100000)->UseRealTime();

}  // namespace
}  // namespace telco

BENCHMARK_MAIN();
