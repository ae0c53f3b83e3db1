#include "features/wide_table.h"

#include <algorithm>
#include <functional>
#include <future>
#include <iterator>
#include <unordered_map>

#include "common/logging.h"
#include "common/string_util.h"
#include "common/telemetry/metrics.h"
#include "common/telemetry/timer.h"
#include "common/telemetry/trace.h"
#include "common/thread_pool.h"
#include "datagen/table_names.h"
#include "features/churn_labels.h"
#include "features/graph_features.h"
#include "features/topic_features.h"
#include "ml/dataset.h"
#include "query/query.h"

namespace telco {

namespace {

// Weekly metric columns of the CDR table (everything except imsi/week).
const std::vector<std::string>& CdrMetricColumns() {
  static const std::vector<std::string> kCols = {
      "localbase_inner_call_dur", "localbase_outer_call_dur",
      "ld_call_dur",              "roam_call_dur",
      "localbase_called_dur",     "ld_called_dur",
      "roam_called_dur",          "cm_dur",
      "ct_dur",                   "busy_call_dur",
      "fest_call_dur",            "free_call_dur",
      "voice_dur",                "caller_dur",
      "all_call_cnt",             "voice_cnt",
      "local_base_call_cnt",      "ld_call_cnt",
      "roam_call_cnt",            "caller_cnt",
      "call_10010_cnt",           "call_10010_manual_cnt",
      "sms_p2p_mo_cnt",           "sms_p2p_mt_cnt",
      "sms_info_mo_cnt",          "sms_bill_cnt",
      "mms_cnt",                  "mms_p2p_mt_cnt",
      "gprs_all_flux"};
  return kCols;
}

const std::vector<std::string>& BillingFeatureColumns() {
  static const std::vector<std::string> kCols = {
      "total_charge",     "balance",
      "balance_rate",     "gprs_charge",
      "gprs_flux",        "local_call_minutes",
      "toll_call_minutes", "roam_call_minutes",
      "voice_call_minutes", "p2p_sms_mo_cnt",
      "p2p_sms_mo_charge", "gift_voice_call_dur",
      "gift_sms_mo_cnt",  "gift_flux_value",
      "distinct_serve_count", "serve_sms_count"};
  return kCols;
}

const std::vector<std::string>& CsKpiColumns() {
  static const std::vector<std::string> kCols = {
      "call_succ_rate", "e2e_conn_delay", "call_drop_rate",
      "uplink_mos",     "downlink_mos",   "ip_mos",
      "oneway_audio_cnt", "noise_cnt",    "echo_cnt"};
  return kCols;
}

const std::vector<std::string>& PsKpiColumns() {
  static const std::vector<std::string> kCols = {
      "page_resp_succ_rate", "page_resp_delay",
      "page_browse_succ_rate", "page_browse_delay",
      "page_download_throughput", "l4_ul_throughput",
      "l4_dw_throughput",    "tcp_rtt",
      "tcp_conn_succ_rate",  "streaming_filesize",
      "streaming_dw_packets", "email_succ_rate",
      "email_resp_delay",    "pagesize_avg",
      "page_succeed_flag_rate"};
  return kCols;
}

// Billing p2p_sms_mo_cnt collides with the CDR column of the same name;
// the join will suffix the CDR aggregate, so record the rename.
constexpr char kRightSuffix[] = "_cdr";

// Reads the imsi column of a table as a vector.
Result<std::vector<int64_t>> ReadImsis(const Table& table) {
  TELCO_ASSIGN_OR_RETURN(const Column* col, table.GetColumn("imsi"));
  std::vector<int64_t> out;
  out.reserve(table.num_rows());
  for (size_t r = 0; r < table.num_rows(); ++r) {
    if (!col->IsNull(r)) out.push_back(col->GetInt64(r));
  }
  return out;
}

// Projects the table to (all current columns) + the computed extras.
Result<TablePtr> AppendComputedColumns(const TablePtr& table,
                                       std::vector<ProjectedColumn> extras) {
  std::vector<ProjectedColumn> columns;
  columns.reserve(table->schema().num_fields() + extras.size());
  for (const auto& f : table->schema().fields()) {
    columns.push_back(ProjectedColumn{f.name, Col(f.name), f.type});
  }
  for (auto& e : extras) columns.push_back(std::move(e));
  return Project(table, std::move(columns));
}

// Records one family build: "features.<F#>.build_seconds" histogram plus
// shared rows-emitted/families-built counters.
void RecordFamilyBuild(FeatureFamily family, double seconds,
                       const Result<TablePtr>& table) {
  static const Counter families_built =
      MetricsRegistry::Global().GetCounter("features.family.builds");
  static const Counter rows_emitted =
      MetricsRegistry::Global().GetCounter("features.family.rows_emitted");
  MetricsRegistry::Global()
      .GetHistogram(StrFormat("features.%s.build_seconds",
                              FeatureFamilyLabel(family)))
      .Observe(seconds);
  families_built.Add();
  if (table.ok()) rows_emitted.Add((*table)->num_rows());
}

int MaxWeek(const Table& table) {
  auto col = table.GetColumn("week");
  if (!col.ok()) return 0;
  int64_t max_week = 0;
  const Column* week = *col;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    if (!week->IsNull(r)) max_week = std::max(max_week, week->GetInt64(r));
  }
  return static_cast<int>(max_week);
}

// The model fits of one Build call (the LDA fits for F7/F8, the FM pair
// selection for F9). On a pool with more than one worker, entered from
// outside it, Launch submits a fit as a pool task that starts at once;
// otherwise the fit is deferred and runs on the first get(), where a
// serial build first needs its result. The destructor waits for every
// submitted fit, so none outlives the Build, error paths included.
//
// A family task may block on a fit's future: the pool dequeues FIFO and
// every fit is submitted before the family fan-out, so a waited-for fit
// is already running (see common/thread_pool.h).
class FitSchedule {
 public:
  explicit FitSchedule(ThreadPool* pool)
      : pool_(pool->num_threads() > 1 && !pool->InWorkerThread() ? pool
                                                                  : nullptr) {}
  ~FitSchedule() {
    for (const auto& fit : submitted_) fit.wait();
  }
  FitSchedule(const FitSchedule&) = delete;
  FitSchedule& operator=(const FitSchedule&) = delete;

  bool parallel() const { return pool_ != nullptr; }

  std::shared_future<Status> Launch(std::function<Status()> fit) {
    if (pool_ == nullptr) {
      return std::async(std::launch::deferred, std::move(fit)).share();
    }
    auto task = std::make_shared<std::packaged_task<Status()>>(std::move(fit));
    std::shared_future<Status> result = task->get_future().share();
    pool_->Submit([task] { (*task)(); });
    submitted_.push_back(result);
    return result;
  }

 private:
  ThreadPool* pool_;
  std::vector<std::shared_future<Status>> submitted_;
};

}  // namespace

const std::vector<std::string>& WideTable::FamilyColumns(
    FeatureFamily f) const {
  static const std::vector<std::string> kEmpty;
  const auto it = columns.find(f);
  return it == columns.end() ? kEmpty : it->second;
}

std::vector<std::string> WideTable::ColumnsForFamilies(
    const std::vector<FeatureFamily>& families) const {
  std::vector<std::string> out;
  for (FeatureFamily f : families) {
    const auto& cols = FamilyColumns(f);
    out.insert(out.end(), cols.begin(), cols.end());
  }
  return out;
}

std::vector<std::string> WideTable::AllFeatureColumns() const {
  return ColumnsForFamilies(AllFeatureFamilies());
}

WideTableBuilder::WideTableBuilder(Catalog* catalog, WideTableOptions options)
    : catalog_(catalog), options_(std::move(options)) {
  TELCO_CHECK(catalog_ != nullptr);
}

// Builds the weekly feature window for a weekly table family: the plain
// month when staleness is 0; otherwise the month's first (weeks - k) weeks
// unioned with the previous month's last k weeks — a 4-week window ending
// k weeks early, the Velocity experiment's stale-feature emulation.
Result<TablePtr> WideTableBuilder::BuildWeeklyWindow(
    const std::string& base_name, int month) {
  TELCO_ASSIGN_OR_RETURN(TablePtr current,
                         catalog_->Get(StrFormat("%s_m%d", base_name.c_str(),
                                                 month)));
  const int k = options_.staleness_weeks;
  if (k <= 0) return current;
  const int weeks = MaxWeek(*current);
  if (k >= weeks) {
    return Status::InvalidArgument(
        StrFormat("staleness %d >= weeks per month %d", k, weeks));
  }
  TELCO_ASSIGN_OR_RETURN(
      TablePtr head,
      Filter(current, Expr::Le(Col("week"),
                               Lit(static_cast<int64_t>(weeks - k)))));
  const std::string prev_name = StrFormat("%s_m%d", base_name.c_str(),
                                          month - 1);
  if (!catalog_->Contains(prev_name)) return head;  // first month fallback
  TELCO_ASSIGN_OR_RETURN(TablePtr prev, catalog_->Get(prev_name));
  TELCO_ASSIGN_OR_RETURN(
      TablePtr tail,
      Filter(prev, Expr::Gt(Col("week"),
                            Lit(static_cast<int64_t>(weeks - k)))));
  return Union({tail, head});
}

Result<TablePtr> WideTableBuilder::BuildF1(
    int month, std::vector<std::string>* columns) {
  // --- CDR monthly aggregates (sum of the weekly metrics).
  TELCO_ASSIGN_OR_RETURN(TablePtr cdr, BuildWeeklyWindow("bss_cdr", month));
  std::vector<Aggregate> sums;
  for (const auto& c : CdrMetricColumns()) {
    sums.push_back(Aggregate{AggKind::kSum, c, c});
  }
  TELCO_ASSIGN_OR_RETURN(TablePtr cdr_agg,
                         GroupByAggregate(cdr, {"imsi"}, sums));

  // --- Within-month usage trend: second-half over first-half usage, the
  // classic decline signal.
  TELCO_ASSIGN_OR_RETURN(
      TablePtr first_half,
      Query::FromTable(cdr)
          .Filter(Expr::Le(Col("week"), Lit(static_cast<int64_t>(2))))
          .GroupBy({"imsi"}, {{AggKind::kSum, "voice_dur", "voice_h1"},
                              {AggKind::kSum, "gprs_all_flux", "flux_h1"}})
          .Execute());
  TELCO_ASSIGN_OR_RETURN(
      TablePtr second_half,
      Query::FromTable(cdr)
          .Filter(Expr::Gt(Col("week"), Lit(static_cast<int64_t>(2))))
          .GroupBy({"imsi"}, {{AggKind::kSum, "voice_dur", "voice_h2"},
                              {AggKind::kSum, "gprs_all_flux", "flux_h2"}})
          .Execute());
  TELCO_ASSIGN_OR_RETURN(
      TablePtr trend_joined,
      HashJoin(first_half, second_half, {"imsi"}, {"imsi"}, JoinType::kLeft));
  TELCO_ASSIGN_OR_RETURN(
      TablePtr trend,
      Project(trend_joined,
              {ProjectedColumn{"imsi", Col("imsi"), DataType::kInt64},
               ProjectedColumn{
                   "voice_trend",
                   Expr::Div(Col("voice_h2"),
                             Expr::Add(Col("voice_h1"), Lit(1.0))),
                   DataType::kDouble},
               ProjectedColumn{
                   "flux_trend",
                   Expr::Div(Col("flux_h2"),
                             Expr::Add(Col("flux_h1"), Lit(1.0))),
                   DataType::kDouble}}));

  // --- Demographics with derived tenure.
  TELCO_ASSIGN_OR_RETURN(TablePtr customers, catalog_->Get(kCustomersTable));
  TELCO_ASSIGN_OR_RETURN(
      TablePtr demo,
      Project(customers,
              {ProjectedColumn{"imsi", Col("imsi"), DataType::kInt64},
               ProjectedColumn{"gender", Col("gender"), DataType::kInt64},
               ProjectedColumn{"age", Col("age"), DataType::kInt64},
               ProjectedColumn{"pspt_type", Col("pspt_type"),
                               DataType::kInt64},
               ProjectedColumn{"is_shanghai", Col("is_shanghai"),
                               DataType::kInt64},
               ProjectedColumn{"town_id", Col("town_id"), DataType::kInt64},
               ProjectedColumn{"sale_id", Col("sale_id"), DataType::kInt64},
               ProjectedColumn{"credit_value", Col("credit_value"),
                               DataType::kInt64},
               ProjectedColumn{"product_id", Col("product_id"),
                               DataType::kInt64},
               ProjectedColumn{"product_price", Col("product_price"),
                               DataType::kDouble},
               ProjectedColumn{"product_knd", Col("product_knd"),
                               DataType::kInt64},
               ProjectedColumn{
                   "innet_dura",
                   Expr::Sub(Lit(static_cast<int64_t>(month)),
                             Col("innet_month")),
                   DataType::kInt64}}));

  // --- Join: billing (the universe) <- cdr_agg <- trend <- demo <- compl.
  TELCO_ASSIGN_OR_RETURN(
      TablePtr joined,
      Query::From(*catalog_, BillingTableName(month))
          .JoinTable(cdr_agg, {"imsi"}, {"imsi"}, JoinType::kLeft)
          .JoinTable(trend, {"imsi"}, {"imsi"}, JoinType::kLeft)
          .JoinTable(demo, {"imsi"}, {"imsi"}, JoinType::kLeft)
          .Join(*catalog_, ComplaintTableName(month), {"imsi"}, {"imsi"},
                JoinType::kLeft)
          .Execute());

  // --- Derived ratios.
  TELCO_ASSIGN_OR_RETURN(
      joined,
      AppendComputedColumns(
          joined,
          {ProjectedColumn{
               "avg_call_dur",
               Expr::Div(Col("voice_dur"),
                         Expr::Add(Col("all_call_cnt"), Lit(1.0))),
               DataType::kDouble},
           ProjectedColumn{
               "charge_per_minute",
               Expr::Div(Col("total_charge"),
                         Expr::Add(Col("voice_call_minutes"), Lit(1.0))),
               DataType::kDouble}}));

  // Record the F1 feature-column names. The CDR aggregate that collided
  // with a billing column arrives suffixed by the join.
  columns->clear();
  for (const auto& c : BillingFeatureColumns()) columns->push_back(c);
  for (const auto& c : CdrMetricColumns()) {
    columns->push_back(joined->schema().HasField(c) ? c : c + "_right");
  }
  columns->insert(columns->end(),
                  {"voice_trend", "flux_trend", "gender", "age", "pspt_type",
                   "is_shanghai", "town_id", "sale_id", "credit_value",
                   "product_id", "product_price", "product_knd", "innet_dura",
                   "complaint_cnt", "avg_call_dur", "charge_per_minute"});
  for (const auto& c : *columns) {
    if (!joined->schema().HasField(c)) {
      return Status::Internal("F1 feature column missing: " + c);
    }
  }
  return joined;
}

Result<TablePtr> WideTableBuilder::BuildF2(
    int month, std::vector<std::string>* columns) {
  TELCO_ASSIGN_OR_RETURN(TablePtr cs, BuildWeeklyWindow("oss_cs", month));
  std::vector<Aggregate> means;
  columns->clear();
  for (const auto& c : CsKpiColumns()) {
    means.push_back(Aggregate{AggKind::kMean, c, c});
    columns->push_back(c);
  }
  return GroupByAggregate(cs, {"imsi"}, means);
}

Result<TablePtr> WideTableBuilder::BuildF3(
    int month, std::vector<std::string>* columns) {
  TELCO_ASSIGN_OR_RETURN(TablePtr ps, BuildWeeklyWindow("oss_ps", month));
  std::vector<Aggregate> means;
  columns->clear();
  for (const auto& c : PsKpiColumns()) {
    means.push_back(Aggregate{AggKind::kMean, c, c});
    columns->push_back(c);
  }
  TELCO_ASSIGN_OR_RETURN(TablePtr ps_agg,
                         GroupByAggregate(ps, {"imsi"}, means));

  // Top-5 stay locations pivoted to mr_lat_r / mr_lon_r (the paper's "10
  // most frequent location features").
  TELCO_ASSIGN_OR_RETURN(TablePtr mr, catalog_->Get(MrTableName(month)));
  TablePtr joined = ps_agg;
  for (int r = 1; r <= 5; ++r) {
    TELCO_ASSIGN_OR_RETURN(
        TablePtr rank_rows,
        Query::FromTable(mr)
            .Filter(Expr::Eq(Col("rank"), Lit(static_cast<int64_t>(r))))
            .Project({ProjectedColumn{"imsi", Col("imsi"), DataType::kInt64},
                      ProjectedColumn{StrFormat("mr_lat_%d", r), Col("lat"),
                                      DataType::kDouble},
                      ProjectedColumn{StrFormat("mr_lon_%d", r), Col("lon"),
                                      DataType::kDouble}})
            .Execute());
    TELCO_ASSIGN_OR_RETURN(joined, HashJoin(joined, rank_rows, {"imsi"},
                                            {"imsi"}, JoinType::kLeft));
    columns->push_back(StrFormat("mr_lat_%d", r));
    columns->push_back(StrFormat("mr_lon_%d", r));
  }
  return joined;
}

Result<TablePtr> WideTableBuilder::BuildGraphFamily(
    int month, FeatureFamily family, const std::vector<int64_t>& universe,
    std::vector<std::string>* columns) {
  std::string table_base;
  std::string prefix;
  switch (family) {
    case FeatureFamily::kF4CallGraph:
      table_base = "graph_call";
      prefix = "call";
      break;
    case FeatureFamily::kF5MsgGraph:
      table_base = "graph_msg";
      prefix = "msg";
      break;
    case FeatureFamily::kF6CoocGraph:
      table_base = "graph_cooc";
      prefix = "cooc";
      break;
    default:
      return Status::InvalidArgument("not a graph family");
  }
  TELCO_ASSIGN_OR_RETURN(
      TablePtr current,
      catalog_->Get(StrFormat("%s_m%d", table_base.c_str(), month)));

  GraphFeatureInputs inputs;
  inputs.current_edges = current.get();
  inputs.current_universe = &universe;
  inputs.pool = options_.pool;
  inputs.seed = HashCombine64(options_.seed,
                              static_cast<uint64_t>(month) * 10 +
                                  static_cast<uint64_t>(family));

  TablePtr previous;
  std::vector<int64_t> prev_universe;
  std::unordered_map<int64_t, int> prev_labels;
  const std::string prev_name =
      StrFormat("%s_m%d", table_base.c_str(), month - 1);
  if (month > 1 && catalog_->Contains(prev_name)) {
    TELCO_ASSIGN_OR_RETURN(previous, catalog_->Get(prev_name));
    TELCO_ASSIGN_OR_RETURN(TablePtr prev_billing,
                           catalog_->Get(BillingTableName(month - 1)));
    TELCO_ASSIGN_OR_RETURN(prev_universe, ReadImsis(*prev_billing));
    TELCO_ASSIGN_OR_RETURN(prev_labels, LoadChurnLabels(*catalog_, month - 1));
    inputs.previous_edges = previous.get();
    inputs.previous_universe = &prev_universe;
    inputs.previous_labels = &prev_labels;
  }
  columns->assign({prefix + "_pagerank", prefix + "_lp_churn"});
  return ComputeGraphFeatures(inputs, prefix);
}

Status WideTableBuilder::EnsureLdaModel(bool complaint) {
  std::unique_ptr<LdaModel>& slot =
      complaint ? lda_complaint_ : lda_search_;
  if (slot != nullptr) return Status::OK();
  const int month = options_.pair_selection_month;
  const std::string table_name = complaint ? ComplaintTextTableName(month)
                                           : SearchTextTableName(month);
  const std::string vocab_name =
      complaint ? kComplaintVocabTable : kSearchVocabTable;
  TELCO_ASSIGN_OR_RETURN(TablePtr text, catalog_->Get(table_name));
  TELCO_ASSIGN_OR_RETURN(TablePtr vocab, catalog_->Get(vocab_name));
  LdaOptions lda = options_.lda;
  lda.pool = options_.pool;
  lda.seed = HashCombine64(options_.seed, complaint ? 7 : 8);
  TELCO_ASSIGN_OR_RETURN(LdaModel model,
                         TrainLdaOnTable(*text, vocab->num_rows(), lda));
  slot = std::make_unique<LdaModel>(std::move(model));
  return Status::OK();
}

Result<TablePtr> WideTableBuilder::BuildTopics(
    int month, FeatureFamily family, const std::vector<int64_t>& universe,
    const std::shared_future<Status>& lda_fit,
    std::vector<std::string>* columns) {
  const bool complaint = family == FeatureFamily::kF7ComplaintTopics;
  const std::string table_name = complaint ? ComplaintTextTableName(month)
                                           : SearchTextTableName(month);
  const std::string vocab_name =
      complaint ? kComplaintVocabTable : kSearchVocabTable;
  const std::string prefix = complaint ? "cmpl" : "srch";
  TELCO_ASSIGN_OR_RETURN(TablePtr text, catalog_->Get(table_name));
  TELCO_ASSIGN_OR_RETURN(TablePtr vocab, catalog_->Get(vocab_name));
  if (lda_fit.valid()) TELCO_RETURN_NOT_OK(lda_fit.get());
  const LdaModel* model =
      complaint ? lda_complaint_.get() : lda_search_.get();

  columns->clear();
  for (uint32_t k = 0; k < model->num_topics(); ++k) {
    columns->push_back(StrFormat("%s_topic%u", prefix.c_str(), k));
  }
  return ComputeTopicFeatures(*model, *text, universe, vocab->num_rows(),
                              prefix, options_.pool);
}

Result<WideTableBuilder::F1Table> WideTableBuilder::BuildF1Family(
    int month) {
  const bool pair_month = month == options_.pair_selection_month;
  if (pair_month && pair_f1_.has_value()) return *pair_f1_;
  F1Table f1;
  TraceSpan span("features.F1");
  Stopwatch watch;
  Result<TablePtr> built = BuildF1(month, &f1.columns);
  RecordFamilyBuild(FeatureFamily::kF1Baseline, watch.ElapsedSeconds(),
                    built);
  TELCO_ASSIGN_OR_RETURN(f1.table, std::move(built));
  if (pair_month) pair_f1_ = f1;
  return f1;
}

Status WideTableBuilder::EnsurePairsSelected() {
  if (pairs_selected_) return Status::OK();
  // Pairs are selected among the basic (F1) features of the labelled
  // pair-selection month, matching the paper: the second-order features of
  // Fig 4 / Table 4 (e.g. innet_dura x total_charge) are products of basic
  // BSS features.
  TELCO_ASSIGN_OR_RETURN(const F1Table base,
                         BuildF1Family(options_.pair_selection_month));
  TraceSpan span("features.F9.select_pairs");
  Stopwatch watch;
  const Status fitted = [&]() -> Status {
    TELCO_ASSIGN_OR_RETURN(
        const auto labels,
        LoadChurnLabels(*catalog_, options_.pair_selection_month));
    TELCO_ASSIGN_OR_RETURN(
        Dataset data, Dataset::FromTableUnlabeled(*base.table, base.columns));
    TELCO_ASSIGN_OR_RETURN(const Column* imsi_col,
                           base.table->GetColumn("imsi"));
    for (size_t r = 0; r < base.table->num_rows(); ++r) {
      const auto it = labels.find(imsi_col->GetInt64(r));
      data.set_label(r, it != labels.end() ? it->second : 0);
    }

    FactorizationMachineOptions fm_options = options_.fm;
    fm_options.seed = HashCombine64(options_.seed, 0xF9F9ULL);
    FactorizationMachine fm(fm_options);
    TELCO_RETURN_NOT_OK(fm.Fit(data));
    selected_pairs_.clear();
    for (const auto& p : fm.RankPairWeights(options_.num_second_order)) {
      selected_pairs_.emplace_back(base.columns[p.i], base.columns[p.j]);
    }
    pairs_selected_ = true;
    return Status::OK();
  }();
  MetricsRegistry::Global()
      .GetHistogram("features.F9.select_pairs_seconds")
      .Observe(watch.ElapsedSeconds());
  TELCO_RETURN_NOT_OK(fitted);
  TELCO_LOG(Info) << "F9: selected " << selected_pairs_.size()
                  << " second-order pairs (top: "
                  << (selected_pairs_.empty()
                          ? "none"
                          : selected_pairs_[0].first + " x " +
                                selected_pairs_[0].second)
                  << ")";
  return Status::OK();
}

Result<std::vector<std::pair<std::string, std::string>>>
WideTableBuilder::SelectedSecondOrderPairs() {
  TELCO_RETURN_NOT_OK(EnsurePairsSelected());
  return selected_pairs_;
}

Result<TablePtr> WideTableBuilder::AttachSecondOrder(
    const WideTable& base, std::vector<std::string>* columns) {
  std::vector<ProjectedColumn> extras;
  columns->clear();
  for (const auto& [a, b] : selected_pairs_) {
    const std::string name = a + "_x_" + b;
    extras.push_back(ProjectedColumn{name, Expr::Mul(Col(a), Col(b)),
                                     DataType::kDouble});
    columns->push_back(name);
  }
  return AppendComputedColumns(base.table, std::move(extras));
}

Result<WideTable> WideTableBuilder::BuildWithoutSecondOrder(
    int month, const F1Table& f1,
    const std::shared_future<Status> (&lda_fits)[2]) {
  WideTable wide;
  wide.columns[FeatureFamily::kF1Baseline] = f1.columns;
  TablePtr table = f1.table;
  TELCO_ASSIGN_OR_RETURN(const std::vector<int64_t> universe,
                         ReadImsis(*table));

  // F1 fixed the universe; families F2..F8 only read the (thread-safe)
  // catalog, the universe and their own LDA model, so fan them out across
  // the pool. Each family lands in its own slot and the joins below run
  // serially in the fixed F2..F8 order, making the wide table
  // bit-identical to a serial build.
  static constexpr FeatureFamily kParallelFamilies[] = {
      FeatureFamily::kF2Cs,           FeatureFamily::kF3Ps,
      FeatureFamily::kF4CallGraph,    FeatureFamily::kF5MsgGraph,
      FeatureFamily::kF6CoocGraph,    FeatureFamily::kF7ComplaintTopics,
      FeatureFamily::kF8SearchTopics};
  constexpr size_t kNumParallel = std::size(kParallelFamilies);
  std::vector<Result<TablePtr>> family_tables(
      kNumParallel, Result<TablePtr>(Status::Internal("family not built")));
  std::vector<std::vector<std::string>> family_cols(kNumParallel);
  ThreadPool* pool =
      options_.pool != nullptr ? options_.pool : &ThreadPool::Default();
  pool->ParallelFor(0, kNumParallel, [&](size_t i) {
    TraceSpan span(StrFormat("features.%s",
                             FeatureFamilyLabel(kParallelFamilies[i])));
    Stopwatch watch;
    switch (kParallelFamilies[i]) {
      case FeatureFamily::kF2Cs:
        family_tables[i] = BuildF2(month, &family_cols[i]);
        break;
      case FeatureFamily::kF3Ps:
        family_tables[i] = BuildF3(month, &family_cols[i]);
        break;
      case FeatureFamily::kF4CallGraph:
      case FeatureFamily::kF5MsgGraph:
      case FeatureFamily::kF6CoocGraph:
        family_tables[i] = BuildGraphFamily(month, kParallelFamilies[i],
                                            universe, &family_cols[i]);
        break;
      case FeatureFamily::kF7ComplaintTopics:
        family_tables[i] = BuildTopics(month, kParallelFamilies[i], universe,
                                       lda_fits[0], &family_cols[i]);
        break;
      default:
        family_tables[i] = BuildTopics(month, kParallelFamilies[i], universe,
                                       lda_fits[1], &family_cols[i]);
        break;
    }
    RecordFamilyBuild(kParallelFamilies[i], watch.ElapsedSeconds(),
                      family_tables[i]);
  });
  // Surface the first failure in family order (deterministic across runs).
  for (size_t i = 0; i < kNumParallel; ++i) {
    if (!family_tables[i].ok()) return family_tables[i].status();
  }
  for (size_t i = 0; i < kNumParallel; ++i) {
    wide.columns[kParallelFamilies[i]] = std::move(family_cols[i]);
    TELCO_ASSIGN_OR_RETURN(table,
                           HashJoin(table, *family_tables[i], {"imsi"},
                                    {"imsi"}, JoinType::kLeft, kRightSuffix));
  }
  wide.table = std::move(table);
  return wide;
}

Result<WideTable> WideTableBuilder::Build(int month) {
  const auto it = cache_.find(month);
  if (it != cache_.end()) return it->second;

  TraceSpan build_span(StrFormat("features.build_wide:m%d", month));
  ThreadPool* pool =
      options_.pool != nullptr ? options_.pool : &ThreadPool::Default();
  FitSchedule fits(pool);

  // The LDA fits read only the pair-selection month's text: start them
  // before anything else.
  std::shared_future<Status> lda_fits[2];
  for (const bool complaint : {true, false}) {
    if ((complaint ? lda_complaint_ : lda_search_) == nullptr) {
      lda_fits[complaint ? 0 : 1] =
          fits.Launch([this, complaint] { return EnsureLdaModel(complaint); });
    }
  }

  // The FM pair selection reads only the pair-selection month's F1. For
  // another month, build that F1 here (on this thread, so its operators
  // use the whole pool) and start the fit before this month's F1; a
  // failed F1 surfaces where the serial order would report it, at F9.
  const int pair_month = options_.pair_selection_month;
  const bool select_pairs = !pairs_selected_;
  const auto fit_pairs = [this] { return EnsurePairsSelected(); };
  std::shared_future<Status> pairs_fit;
  Status pair_f1;
  if (select_pairs && month != pair_month) {
    if (fits.parallel()) pair_f1 = BuildF1Family(pair_month).status();
    if (pair_f1.ok()) pairs_fit = fits.Launch(fit_pairs);
  }
  TELCO_ASSIGN_OR_RETURN(const F1Table f1, BuildF1Family(month));
  if (select_pairs && month == pair_month) pairs_fit = fits.Launch(fit_pairs);

  TELCO_ASSIGN_OR_RETURN(WideTable wide,
                         BuildWithoutSecondOrder(month, f1, lda_fits));
  TELCO_RETURN_NOT_OK(pair_f1);
  if (pairs_fit.valid()) TELCO_RETURN_NOT_OK(pairs_fit.get());
  std::vector<std::string> cols;
  Result<TablePtr> with_f9 = [&]() -> Result<TablePtr> {
    TraceSpan span("features.F9");
    Stopwatch watch;
    Result<TablePtr> built = AttachSecondOrder(wide, &cols);
    RecordFamilyBuild(FeatureFamily::kF9SecondOrder, watch.ElapsedSeconds(),
                      built);
    return built;
  }();
  TELCO_RETURN_NOT_OK(with_f9.status());
  wide.table = std::move(with_f9).ValueOrDie();
  wide.columns[FeatureFamily::kF9SecondOrder] = cols;

  InjectCached(month, wide);
  return wide;
}

void WideTableBuilder::InjectCached(int month, WideTable wide) {
  if (options_.cache_in_catalog) {
    const std::string name =
        options_.staleness_weeks > 0
            ? StrFormat("wide_m%d_s%d", month, options_.staleness_weeks)
            : StrFormat("wide_m%d", month);
    catalog_->RegisterOrReplace(name, wide.table);
  }
  cache_.insert_or_assign(month, std::move(wide));
}

}  // namespace telco
