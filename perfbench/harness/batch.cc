#include "batch.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <numeric>

#include "churn/churn_model.h"
#include "datagen/table_names.h"
#include "datagen/telco_simulator.h"
#include "features/churn_labels.h"
#include "features/graph_features.h"
#include "features/topic_features.h"
#include "graph/label_propagation.h"
#include "graph/pagerank.h"
#include "ml/metrics.h"
#include "query/operators.h"
#include "serve.h"
#include "serve/model_snapshot.h"
#include "storage/streaming_writer.h"
#include "storage/warehouse_io.h"

namespace perfbench {

using telco::Result;
using telco::Status;

namespace {

std::string WarehouseDir(const Options& options) {
  return options.work + "/warehouse";
}

std::string CacheDir(const Options& options) {
  return options.work + "/wide_cache";
}

/// The forest of monthly_batch: the light 30-tree forest bench_scale
/// fits, on the pipeline's default tree settings.
telco::ChurnModelOptions LightForest() {
  telco::ChurnModelOptions model;
  model.rf.num_trees = 30;
  return model;
}

/// The paper's forest for retrain: 500 trees, sqrt(N) feature subspace,
/// nodes below 100 instances not split (RandomForestOptions defaults).
telco::ChurnModelOptions PaperForest() {
  telco::ChurnModelOptions model;
  model.rf = telco::RandomForestOptions{};
  return model;
}

/// What one timed pass hands back to the checks that follow it.
struct PassOutput {
  std::unique_ptr<telco::ChurnModel> model;
  LabelledMonth test;
  std::vector<double> scores;  // test-row order
  std::vector<size_t> order;   // ranked: descending score, stable
  double auc = 0.0;
  double pr_auc = 0.0;
  /// Share of churners in the predict month (PR-AUC's chance level).
  double positive_share = 0.0;
};

using PassFn = std::function<Status(Tracer*, Results*, PassOutput*)>;

/// Ranks the predict month and computes AUC / PR-AUC: the tail every
/// batch pass shares.
void RankAndEvaluate(Tracer* tracer, PassOutput* out) {
  {
    ScopedSpan span(tracer, "rank");
    out->order.resize(out->scores.size());
    std::iota(out->order.begin(), out->order.end(), size_t{0});
    std::stable_sort(out->order.begin(), out->order.end(),
                     [&](size_t a, size_t b) {
                       return out->scores[a] > out->scores[b];
                     });
  }
  ScopedSpan span(tracer, "ml.metrics");
  std::vector<telco::ScoredInstance> instances;
  instances.reserve(out->scores.size());
  for (size_t i = 0; i < out->scores.size(); ++i) {
    instances.push_back({out->scores[i], out->test.data.label(i) == 1});
  }
  out->auc = telco::Auc(instances);
  out->pr_auc = telco::PrAuc(instances);
  double positives = 0.0;
  for (const telco::ScoredInstance& instance : instances) {
    positives += instance.positive ? 1.0 : 0.0;
  }
  out->positive_share =
      instances.empty() ? 0.0 : positives / static_cast<double>(instances.size());
}

/// Fits `model_options` on `train` and scores `out->test`, recording the
/// ml.* per-layer results.
Status FitAndScore(const telco::ChurnModelOptions& model_options,
                   const LabelledMonth& train, Tracer* tracer,
                   Results* layer, PassOutput* out) {
  out->model = std::make_unique<telco::ChurnModel>(model_options);
  const double fit_start = NowSeconds();
  {
    ScopedSpan span(tracer, "ml.fit");
    TELCO_RETURN_NOT_OK(out->model->Train(train.data));
  }
  const double fit_s = NowSeconds() - fit_start;
  layer->Set("ml.fit_s", fit_s);
  layer->Set("ml.fit_tree_rows_per_s",
             static_cast<double>(model_options.rf.num_trees) *
                 static_cast<double>(train.data.num_rows()) / fit_s);
  const double score_start = NowSeconds();
  {
    ScopedSpan span(tracer, "ml.score");
    out->scores = out->model->ScoreAll(out->test.data);
  }
  layer->Set("ml.score_rows_per_s",
             static_cast<double>(out->test.data.num_rows()) /
                 (NowSeconds() - score_start));
  return Status::OK();
}

Result<std::unordered_map<int64_t, int>> TimedLabels(
    const telco::Catalog& catalog, int month, Tracer* tracer,
    Results* layer) {
  const double start = NowSeconds();
  ScopedSpan span(tracer, "churn.labels");
  Result<std::unordered_map<int64_t, int>> labels =
      telco::LoadChurnLabels(catalog, month);
  layer->Add("churn.labels_s", NowSeconds() - start);
  return labels;
}

/// Runs timed passes for options.seconds (at least two, so the ranked
/// list can be compared across passes), checks every pass, then hands
/// the last pass's model to the serve probe. In a traced run the first
/// pass warms up, the second is untraced and the third traced; the wall
/// difference of the last two is the tracing overhead.
Status RunPasses(const Options& options, const std::string& name,
                 const PassFn& pass, Tracer* tracer, Results* results) {
  ResetPeakRss();
  const double start = NowSeconds();
  double pass_cpu = 0.0;  // CPU seconds inside passes (checks excluded)
  std::vector<double> rates;
  std::vector<double> clean_rates;
  std::vector<double> walls;
  uint64_t reference = 0;
  double attempted = 0.0;
  double failed = 0.0;
  PassOutput last;
  Results layer;
  Tracer untraced(false);
  for (int index = 0;; ++index) {
    const bool traced = options.trace && index == 2;
    Tracer& pass_tracer = traced ? *tracer : untraced;
    Results pass_layer;
    PassOutput out;
    const double pass_start = NowSeconds();
    const double cpu_start = ProcessCpuSeconds();
    const double steal_start = HostStealSeconds();
    int root = -1;
    if (traced) root = pass_tracer.Begin(name + ".pass");
    TELCO_RETURN_NOT_OK(pass(&pass_tracer, &pass_layer, &out));
    if (traced) pass_tracer.End(root);
    const double wall = NowSeconds() - pass_start;
    pass_cpu += ProcessCpuSeconds() - cpu_start;
    walls.push_back(wall);
    rates.push_back(static_cast<double>(out.order.size()) / wall);
    const double steal = (HostStealSeconds() - steal_start) /
                         (wall * static_cast<double>(Cores()));
    if (steal <= kStealLimit) clean_rates.push_back(rates.back());

    // Checks (untimed): every ranked score equals the per-row pointer
    // walk of the same model, and the ranked list is bit-identical to
    // the first pass's.
    std::vector<double> ranked(out.order.size());
    std::vector<int64_t> imsis(out.order.size());
    for (size_t k = 0; k < out.order.size(); ++k) {
      ranked[k] = out.scores[out.order[k]];
      imsis[k] = out.test.imsis[out.order[k]];
    }
    if (options.corrupt && index == 1) {
      uint64_t bits = 0;
      std::memcpy(&bits, &ranked[0], sizeof(bits));
      bits ^= 1;
      std::memcpy(&ranked[0], &bits, sizeof(bits));
    }
    size_t mismatches = 0;
    for (size_t k = 0; k < ranked.size(); ++k) {
      const double oracle =
          out.model->Score(out.test.data.Row(out.order[k]));
      if (std::memcmp(&oracle, &ranked[k], sizeof(oracle)) != 0) {
        ++mismatches;
      }
    }
    const uint64_t fingerprint = Fingerprint(imsis, ranked);
    if (index == 0) reference = fingerprint;
    attempted += static_cast<double>(ranked.size());
    if (mismatches > 0) {
      failed += static_cast<double>(mismatches);
    } else if (fingerprint != reference) {
      failed += static_cast<double>(ranked.size());
    }
    if (index == 0) {
      results->Set("auc", out.auc);
      results->Set("pr_auc", out.pr_auc);
      results->Set("eval.positive_share", out.positive_share);
      std::printf("fingerprint=%016llx\n",
                  static_cast<unsigned long long>(fingerprint));
    } else if (out.auc != results->Get("auc") ||
               out.pr_auc != results->Get("pr_auc")) {
      failed += static_cast<double>(ranked.size());
    }
    if (traced) {
      layer = pass_layer;
      results->Set("trace.overhead_s", walls[2] - walls[1]);
      results->Set("trace.self_coverage",
                   1.0 - tracer->SelfSeconds(root) / wall);
    }
    last = std::move(out);
    const double elapsed = NowSeconds() - start;
    const bool enough = options.trace ? index >= 2
                                      : elapsed + wall > options.seconds;
    if (index >= 1 && enough) break;
  }
  results->Set("passes", static_cast<double>(walls.size()));
  results->Set("batch.customers_per_s",
               Median(clean_rates.empty() ? rates : clean_rates));
  results->Set("batch.contended_passes",
               static_cast<double>(rates.size() - clean_rates.size()));
  results->Set("batch.pass_s", Median(walls));
  results->Set("proc.cpu_per_wall",
               pass_cpu / std::accumulate(walls.begin(), walls.end(), 0.0));
  if (!options.trace) results->Set("peak_rss_mb", PeakRssMb());
  results->Add("attempted", attempted);
  results->Add("failed", failed);
  if (options.trace) {
    // Per-layer numbers come from the traced pass only.
    for (const char* key :
         {"storage.load_s", "storage.load_mb_per_s",
          "features.build_s.first_month", "features.build_s.next_month",
          "features.rss_mb", "churn.labels_s", "ml.fit_s",
          "ml.fit_tree_rows_per_s", "ml.score_rows_per_s"}) {
      if (layer.Has(key)) results->Set(key, layer.Get(key));
    }
  }

  // Publish the freshly trained forest to the serving path and probe it.
  const telco::RandomForest* forest = last.model->forest();
  if (forest == nullptr) return Status::Internal("batch model is not a forest");
  TELCO_ASSIGN_OR_RETURN(
      std::shared_ptr<const telco::ModelSnapshot> snapshot,
      telco::ModelSnapshot::FromForest(*forest,
                                       last.test.data.feature_names(),
                                       name + "-model"));
  return ServeProbe(options, snapshot, last.test.data, tracer, results);
}

Status WriteLines(const std::string& path,
                  const std::vector<std::string>& lines) {
  std::ofstream out(path);
  for (const std::string& line : lines) out << line << '\n';
  out.close();
  if (!out) return Status::IoError("cannot write " + path);
  return Status::OK();
}

Result<std::vector<std::string>> ReadLines(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot read " + path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

}  // namespace

Result<LabelledMonth> JoinLabels(
    const telco::Table& wide, const std::vector<std::string>& columns,
    const std::unordered_map<int64_t, int>& labels) {
  TELCO_ASSIGN_OR_RETURN(telco::Dataset all,
                         telco::Dataset::FromTableUnlabeled(wide, columns));
  TELCO_ASSIGN_OR_RETURN(const telco::Column* imsi, wide.GetColumn("imsi"));
  LabelledMonth out;
  out.data = telco::Dataset(columns);
  for (size_t r = 0; r < all.num_rows(); ++r) {
    const auto it = labels.find(imsi->GetInt64(r));
    if (it == labels.end()) continue;
    out.data.AddRow(all.Row(r), it->second);
    out.imsis.push_back(it->first);
  }
  if (out.imsis.empty()) return Status::Internal("no labelled rows");
  return out;
}

Status GenerateWarehouse(const Options& options, const std::string& dir,
                         Tracer* tracer, Results* results) {
  std::filesystem::remove_all(dir);
  telco::SimConfig config;
  config.scale_factor = options.sf;
  config.num_months = kMonths;
  config.seed = options.seed;
  telco::TelcoSimulator simulator(config);
  simulator.set_record_truth(false);
  telco::StreamingWarehouseSink sink(dir);
  const double start = NowSeconds();
  {
    ScopedSpan span(tracer, "datagen.stream");
    TELCO_RETURN_NOT_OK(simulator.Run(&sink));
  }
  const double wall = NowSeconds() - start;
  results->Set("datagen.stream_rows_per_s",
               static_cast<double>(sink.rows_written()) / wall);
  results->Set("storage.warehouse_mb", DirMb(dir));
  return Status::OK();
}

Result<std::unique_ptr<telco::Catalog>> LoadCatalog(const std::string& dir,
                                                    Tracer* tracer,
                                                    Results* results) {
  auto catalog = std::make_unique<telco::Catalog>();
  const double start = NowSeconds();
  {
    ScopedSpan span(tracer, "storage.load");
    TELCO_RETURN_NOT_OK(telco::LoadWarehouse(dir, catalog.get()));
  }
  const double wall = NowSeconds() - start;
  results->Set("storage.load_s", wall);
  results->Set("storage.load_mb_per_s", DirMb(dir) / wall);
  return catalog;
}

Status BuildWideTables(telco::WideTableBuilder* builder, Tracer* tracer,
                       Results* results, telco::WideTable* train,
                       telco::WideTable* predict) {
  if (tracer->enabled()) ResetPeakRss();
  double start = NowSeconds();
  {
    ScopedSpan span(tracer, "features.build.first_month");
    TELCO_ASSIGN_OR_RETURN(*train, builder->Build(kTrainMonth));
  }
  results->Set("features.build_s.first_month", NowSeconds() - start);
  start = NowSeconds();
  {
    ScopedSpan span(tracer, "features.build.next_month");
    TELCO_ASSIGN_OR_RETURN(*predict, builder->Build(kPredictMonth));
  }
  results->Set("features.build_s.next_month", NowSeconds() - start);
  if (tracer->enabled()) results->Set("features.rss_mb", PeakRssMb());
  return Status::OK();
}

Status SetupMonthlyBatch(const Options& options, Tracer* tracer,
                         Results* results) {
  return GenerateWarehouse(options, WarehouseDir(options), tracer, results);
}

Status SetupRetrain(const Options& options, Tracer* tracer,
                    Results* results) {
  TELCO_RETURN_NOT_OK(
      GenerateWarehouse(options, WarehouseDir(options), tracer, results));
  TELCO_ASSIGN_OR_RETURN(auto catalog,
                         LoadCatalog(WarehouseDir(options), tracer, results));
  // One shared builder caches both months, as the Fig 7 / Fig 9 sweeps do.
  telco::WideTableBuilder builder(catalog.get());
  telco::WideTable train;
  telco::WideTable predict;
  TELCO_RETURN_NOT_OK(
      BuildWideTables(&builder, tracer, results, &train, &predict));

  // The cache: both wide tables plus the recharge tables the labels come
  // from, as a v3 warehouse, and the feature-column order.
  ScopedSpan span(tracer, "storage.save_cache");
  telco::Catalog cache;
  TELCO_RETURN_NOT_OK(cache.Register("wide_train", train.table));
  TELCO_RETURN_NOT_OK(cache.Register("wide_predict", predict.table));
  for (const int month : {kTrainMonth, kPredictMonth}) {
    const std::string name = telco::RechargeTableName(month);
    TELCO_ASSIGN_OR_RETURN(telco::TablePtr table, catalog->Get(name));
    TELCO_RETURN_NOT_OK(cache.Register(name, table));
  }
  std::filesystem::remove_all(CacheDir(options));
  TELCO_RETURN_NOT_OK(telco::SaveWarehouse(cache, CacheDir(options)));
  return WriteLines(CacheDir(options) + "/columns.txt",
                    train.AllFeatureColumns());
}

Status RunMonthlyBatch(const Options& options, Tracer* tracer,
                       Results* results) {
  const std::string dir = WarehouseDir(options);
  const PassFn pass = [&](Tracer* tracer, Results* layer,
                          PassOutput* out) -> Status {
    TELCO_ASSIGN_OR_RETURN(auto catalog, LoadCatalog(dir, tracer, layer));
    telco::WideTableBuilder builder(catalog.get());
    telco::WideTable train_wide;
    telco::WideTable test_wide;
    TELCO_RETURN_NOT_OK(
        BuildWideTables(&builder, tracer, layer, &train_wide, &test_wide));
    const std::vector<std::string> columns = train_wide.AllFeatureColumns();
    TELCO_ASSIGN_OR_RETURN(
        const auto train_labels,
        TimedLabels(*catalog, kTrainMonth, tracer, layer));
    TELCO_ASSIGN_OR_RETURN(
        const auto test_labels,
        TimedLabels(*catalog, kPredictMonth, tracer, layer));
    LabelledMonth train;
    {
      ScopedSpan span(tracer, "ml.dataset");
      TELCO_ASSIGN_OR_RETURN(
          train, JoinLabels(*train_wide.table, columns, train_labels));
      TELCO_ASSIGN_OR_RETURN(
          out->test, JoinLabels(*test_wide.table, columns, test_labels));
    }
    TELCO_RETURN_NOT_OK(FitAndScore(LightForest(), train, tracer, layer, out));
    RankAndEvaluate(tracer, out);
    return Status::OK();
  };
  return RunPasses(options, "monthly_batch", pass, tracer, results);
}

Status RunRetrain(const Options& options, Tracer* tracer, Results* results) {
  // Untimed: load the set-up's cached wide tables.
  telco::Catalog cache;
  TELCO_RETURN_NOT_OK(telco::LoadWarehouse(CacheDir(options), &cache));
  TELCO_ASSIGN_OR_RETURN(const std::vector<std::string> columns,
                         ReadLines(CacheDir(options) + "/columns.txt"));
  TELCO_ASSIGN_OR_RETURN(const telco::TablePtr train_wide,
                         cache.Get("wide_train"));
  TELCO_ASSIGN_OR_RETURN(const telco::TablePtr test_wide,
                         cache.Get("wide_predict"));

  const PassFn pass = [&](Tracer* tracer, Results* layer,
                          PassOutput* out) -> Status {
    TELCO_ASSIGN_OR_RETURN(const auto train_labels,
                           TimedLabels(cache, kTrainMonth, tracer, layer));
    TELCO_ASSIGN_OR_RETURN(const auto test_labels,
                           TimedLabels(cache, kPredictMonth, tracer, layer));
    LabelledMonth train;
    {
      ScopedSpan span(tracer, "ml.dataset");
      TELCO_ASSIGN_OR_RETURN(train,
                             JoinLabels(*train_wide, columns, train_labels));
      TELCO_ASSIGN_OR_RETURN(out->test,
                             JoinLabels(*test_wide, columns, test_labels));
    }
    TELCO_RETURN_NOT_OK(FitAndScore(PaperForest(), train, tracer, layer, out));
    RankAndEvaluate(tracer, out);
    return Status::OK();
  };
  return RunPasses(options, "retrain", pass, tracer, results);
}

namespace {

/// Times `fn` over `input_rows` rows, repeating until 0.2 s have passed
/// (at least three times), and records the median wall-clock rate.
Status TimeOperator(const std::string& key, size_t input_rows, Tracer* tracer,
                    Results* results,
                    const std::function<Result<telco::TablePtr>()>& fn) {
  ScopedSpan span(tracer, key);
  std::vector<double> rates;
  const double start = NowSeconds();
  while (rates.size() < 3 || NowSeconds() - start < 0.2) {
    const double op_start = NowSeconds();
    TELCO_ASSIGN_OR_RETURN(const telco::TablePtr out, fn());
    if (out == nullptr) return Status::Internal(key + " produced no table");
    rates.push_back(static_cast<double>(input_rows) /
                    (NowSeconds() - op_start));
  }
  results->Set(key + ".rows_per_s", Median(rates));
  return Status::OK();
}

Result<std::vector<int64_t>> Imsis(const telco::Table& table) {
  TELCO_ASSIGN_OR_RETURN(const telco::Column* col, table.GetColumn("imsi"));
  std::vector<int64_t> out;
  out.reserve(table.num_rows());
  for (size_t r = 0; r < table.num_rows(); ++r) {
    if (!col->IsNull(r)) out.push_back(col->GetInt64(r));
  }
  return out;
}

}  // namespace

Status RunLayerReplays(const Options& options, Tracer* tracer,
                       Results* results) {
  Results ignored;
  TELCO_ASSIGN_OR_RETURN(
      auto catalog, LoadCatalog(WarehouseDir(options), tracer, &ignored));
  const telco::Catalog& cat = *catalog;
  using telco::Col;
  using telco::Expr;
  using telco::Lit;

  // --- query: the operator shapes of the F1 job over month 2's tables.
  TELCO_ASSIGN_OR_RETURN(const telco::TablePtr cdr,
                         cat.Get(telco::CdrTableName(kPredictMonth)));
  TELCO_ASSIGN_OR_RETURN(const telco::TablePtr billing,
                         cat.Get(telco::BillingTableName(kPredictMonth)));
  TELCO_RETURN_NOT_OK(TimeOperator(
      "query.filter", cdr->num_rows(), tracer, results, [&] {
        return telco::Filter(
            cdr, Expr::Le(Col("week"), Lit(static_cast<int64_t>(2))));
      }));
  TELCO_RETURN_NOT_OK(TimeOperator(
      "query.project", cdr->num_rows(), tracer, results, [&] {
        return telco::Project(
            cdr, {telco::ProjectedColumn{"imsi", Col("imsi"),
                                         telco::DataType::kInt64},
                  telco::ProjectedColumn{
                      "avg_call_dur",
                      Expr::Div(Col("voice_dur"),
                                Expr::Add(Col("all_call_cnt"), Lit(1.0))),
                      telco::DataType::kDouble}});
      }));
  std::vector<telco::Aggregate> sums;
  for (const char* column : {"voice_dur", "all_call_cnt", "gprs_all_flux",
                             "sms_p2p_mo_cnt", "roam_call_dur"}) {
    sums.push_back({telco::AggKind::kSum, column, column});
  }
  TELCO_RETURN_NOT_OK(TimeOperator(
      "query.group_by", cdr->num_rows(), tracer, results,
      [&] { return telco::GroupByAggregate(cdr, {"imsi"}, sums); }));
  TELCO_ASSIGN_OR_RETURN(const telco::TablePtr cdr_agg,
                         telco::GroupByAggregate(cdr, {"imsi"}, sums));
  TELCO_RETURN_NOT_OK(TimeOperator(
      "query.hash_join", billing->num_rows() + cdr_agg->num_rows(), tracer,
      results, [&] {
        return telco::HashJoin(billing, cdr_agg, {"imsi"}, {"imsi"},
                               telco::JoinType::kLeft);
      }));
  TELCO_RETURN_NOT_OK(TimeOperator(
      "query.sort", billing->num_rows(), tracer, results, [&] {
        return telco::SortBy(billing, {{"total_charge", false}});
      }));

  // --- graph: build, PageRank and label propagation over the three
  // customer graphs, as F4-F6 use them.
  TELCO_ASSIGN_OR_RETURN(const std::vector<int64_t> universe,
                         Imsis(*billing));
  TELCO_ASSIGN_OR_RETURN(const telco::TablePtr prev_billing,
                         cat.Get(telco::BillingTableName(kTrainMonth)));
  TELCO_ASSIGN_OR_RETURN(const std::vector<int64_t> prev_universe,
                         Imsis(*prev_billing));
  TELCO_ASSIGN_OR_RETURN(const auto prev_labels,
                         telco::LoadChurnLabels(cat, kTrainMonth));
  double build_s = 0.0;
  double pagerank_s = 0.0;
  double label_prop_s = 0.0;
  for (const auto& table_name :
       {telco::CallEdgesTableName, telco::MsgEdgesTableName,
        telco::CoocEdgesTableName}) {
    TELCO_ASSIGN_OR_RETURN(const telco::TablePtr edges,
                           cat.Get(table_name(kPredictMonth)));
    TELCO_ASSIGN_OR_RETURN(const telco::TablePtr prev_edges,
                           cat.Get(table_name(kTrainMonth)));
    double start = NowSeconds();
    telco::CustomerGraph graph;
    telco::CustomerGraph prev_graph;
    {
      ScopedSpan span(tracer, "graph.build");
      TELCO_ASSIGN_OR_RETURN(graph,
                             telco::BuildCustomerGraph(*edges, universe));
      TELCO_ASSIGN_OR_RETURN(
          prev_graph, telco::BuildCustomerGraph(*prev_edges, prev_universe));
    }
    build_s += NowSeconds() - start;
    start = NowSeconds();
    {
      ScopedSpan span(tracer, "graph.pagerank");
      telco::PageRankOptions pagerank;
      TELCO_ASSIGN_OR_RETURN(const telco::PageRankResult ranks,
                             telco::PageRank(graph.graph, pagerank));
      if (ranks.scores.size() != universe.size()) {
        return Status::Internal("PageRank lost vertices");
      }
    }
    pagerank_s += NowSeconds() - start;
    std::vector<telco::LabeledVertex> seeds;
    for (size_t v = 0; v < prev_graph.imsi_of.size(); ++v) {
      const auto it = prev_labels.find(prev_graph.imsi_of[v]);
      if (it != prev_labels.end()) {
        seeds.push_back({static_cast<uint32_t>(v),
                         static_cast<uint32_t>(it->second)});
      }
    }
    start = NowSeconds();
    {
      ScopedSpan span(tracer, "graph.label_prop");
      TELCO_ASSIGN_OR_RETURN(
          const telco::LabelPropagationResult propagated,
          telco::PropagateLabels(prev_graph.graph, seeds));
      if (propagated.probabilities.empty() && !prev_universe.empty()) {
        return Status::Internal("label propagation produced nothing");
      }
    }
    label_prop_s += NowSeconds() - start;
  }
  results->Set("graph.build_s", build_s);
  results->Set("graph.pagerank_s", pagerank_s);
  results->Set("graph.label_prop_s", label_prop_s);

  // --- text: LDA fit on month 1's corpora and fold-in of month 2's, as
  // F7/F8 do.
  double train_s = 0.0;
  double infer_s = 0.0;
  for (const bool complaint : {true, false}) {
    TELCO_ASSIGN_OR_RETURN(
        const telco::TablePtr fit_text,
        cat.Get(complaint ? telco::ComplaintTextTableName(kTrainMonth)
                          : telco::SearchTextTableName(kTrainMonth)));
    TELCO_ASSIGN_OR_RETURN(
        const telco::TablePtr text,
        cat.Get(complaint ? telco::ComplaintTextTableName(kPredictMonth)
                          : telco::SearchTextTableName(kPredictMonth)));
    TELCO_ASSIGN_OR_RETURN(
        const telco::TablePtr vocab,
        cat.Get(complaint ? telco::kComplaintVocabTable
                          : telco::kSearchVocabTable));
    telco::LdaOptions lda = telco::WideTableOptions().lda;
    double start = NowSeconds();
    Result<telco::LdaModel> model = [&] {
      ScopedSpan span(tracer, "text.lda_train");
      return telco::TrainLdaOnTable(*fit_text, vocab->num_rows(), lda);
    }();
    TELCO_RETURN_NOT_OK(model.status());
    train_s += NowSeconds() - start;
    start = NowSeconds();
    {
      ScopedSpan span(tracer, "text.lda_infer");
      TELCO_ASSIGN_OR_RETURN(
          const telco::TablePtr topics,
          telco::ComputeTopicFeatures(*model, *text, universe,
                                      vocab->num_rows(), "topic"));
      if (topics->num_rows() != universe.size()) {
        return Status::Internal("topic features lost customers");
      }
    }
    infer_s += NowSeconds() - start;
  }
  results->Set("text.lda_train_s", train_s);
  results->Set("text.lda_infer_s", infer_s);
  return Status::OK();
}

}  // namespace perfbench
