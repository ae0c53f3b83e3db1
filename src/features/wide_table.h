// WideTableBuilder: materialises the paper's "unified wide table, where
// each tuple represents a customer's feature vector" (Section 4.1) from
// the raw warehouse tables, one month at a time.
//
// The builder runs the same job shapes the paper describes in Hive/Spark
// SQL — weekly-to-monthly aggregations, multi-table equi-joins, pivots —
// through src/query, then attaches the learned features: PageRank/label
// propagation (F4-F6), LDA topics (F7-F8) and FM-selected second-order
// products (F9). Results are cached in the catalog ("the intermediate
// results are stored as Hive tables, which can be reused by other tasks").

#ifndef TELCO_FEATURES_WIDE_TABLE_H_
#define TELCO_FEATURES_WIDE_TABLE_H_

#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "features/feature_families.h"
#include "ml/fm.h"
#include "storage/catalog.h"
#include "text/lda.h"

namespace telco {

class ThreadPool;

/// Options of the wide-table build.
struct WideTableOptions {
  /// LDA settings for F7/F8 (paper: K = 10).
  LdaOptions lda;
  /// Number of FM-selected second-order features (paper: 20).
  size_t num_second_order = 20;
  /// Labeled month used to fit the F9 pair selector (its labels are known
  /// before any later month is predicted, so there is no leakage).
  int pair_selection_month = 1;
  /// FM selector hyper-parameters.
  FactorizationMachineOptions fm;
  /// Velocity experiments: drop this many trailing weeks from the weekly
  /// sources and substitute the previous month's trailing weeks, emulating
  /// features computed from a window that ends `staleness_weeks` early.
  int staleness_weeks = 0;
  uint64_t seed = 123;
  /// Cache finished wide tables in the catalog under "wide_m<N>[_sK]".
  bool cache_in_catalog = true;
  /// Pool for the wide-table build (null = the process-wide default
  /// pool). Each task starts as soon as its inputs exist: the first build
  /// that needs them submits the two LDA fits (complaint, search) as pool
  /// tasks at its top, and the FM pair selection as a task fed by the
  /// pair-selection month's F1 table, right after F1 on that month or
  /// after a memoised F1-only build of it otherwise. Families F2..F8 fan
  /// out once F1 fixes the universe; F7/F8 wait for their LDA fit before
  /// fold-in. The joins (fixed F2..F9 order) and the F9 projection stay
  /// on the calling thread. A one-thread pool, or a Build called from one
  /// of the pool's workers, runs everything serially in that same order.
  /// No task outlives the Build that submitted it, and results are
  /// bit-identical to a serial build for any thread count.
  ThreadPool* pool = nullptr;

  WideTableOptions() {
    lda.num_topics = 10;
    fm.epochs = 15;
    fm.latent_dim = 8;
  }
};

/// \brief A built wide table plus its family -> column-names index.
struct WideTable {
  TablePtr table;
  std::map<FeatureFamily, std::vector<std::string>> columns;

  /// Feature columns of one family.
  const std::vector<std::string>& FamilyColumns(FeatureFamily f) const;
  /// Concatenated feature columns of the given families, in order.
  std::vector<std::string> ColumnsForFamilies(
      const std::vector<FeatureFamily>& families) const;
  /// All 150-ish feature columns (F1..F9).
  std::vector<std::string> AllFeatureColumns() const;
};

/// \brief Builds (and caches) monthly wide tables from a catalog.
class WideTableBuilder {
 public:
  WideTableBuilder(Catalog* catalog, WideTableOptions options = {});

  /// Builds the full wide table of `month` (all families F1..F9).
  /// Results are memoised per month.
  Result<WideTable> Build(int month);

  /// Seeds the memo for `month` with an externally materialised wide
  /// table (e.g. restored from a pipeline checkpoint), registering it in
  /// the catalog exactly as Build would. Subsequent Build(month) calls
  /// return it without recomputing.
  void InjectCached(int month, WideTable wide);

  /// The (name_i, name_j) second-order pairs selected by the FM (fitted
  /// lazily on the pair-selection month's F1 features). Exposed for
  /// diagnostics.
  Result<std::vector<std::pair<std::string, std::string>>>
  SelectedSecondOrderPairs();

 private:
  /// F1 of one month: the table F2..F9 attach to and its feature columns.
  struct F1Table {
    TablePtr table;
    std::vector<std::string> columns;
  };

  Result<TablePtr> BuildWeeklyWindow(const std::string& base_name, int month);
  Result<TablePtr> BuildF1(int month,
                           std::vector<std::string>* columns);
  /// Traced, recorded F1 build; the pair-selection month's is memoised.
  Result<F1Table> BuildF1Family(int month);
  Result<TablePtr> BuildF2(int month, std::vector<std::string>* columns);
  Result<TablePtr> BuildF3(int month, std::vector<std::string>* columns);
  Result<TablePtr> BuildGraphFamily(int month, FeatureFamily family,
                                    const std::vector<int64_t>& universe,
                                    std::vector<std::string>* columns);
  /// F7/F8 of `month`; `lda_fit`, when valid, is the pending fit of the
  /// family's LDA model, waited for before fold-in.
  Result<TablePtr> BuildTopics(int month, FeatureFamily family,
                               const std::vector<int64_t>& universe,
                               const std::shared_future<Status>& lda_fit,
                               std::vector<std::string>* columns);
  /// Builds F2..F8 of `month` and joins them onto `f1` in family order.
  /// `lda_fits` are the pending complaint and search LDA fits.
  Result<WideTable> BuildWithoutSecondOrder(
      int month, const F1Table& f1,
      const std::shared_future<Status> (&lda_fits)[2]);
  /// Appends the selected pairs' product columns (the F9 projection).
  Result<TablePtr> AttachSecondOrder(const WideTable& base,
                                     std::vector<std::string>* columns);

  /// Lazily trains the LDA model for one text source on the
  /// pair-selection month's corpus; later months fold into the same phi
  /// so topic indices stay aligned across the sliding window.
  Status EnsureLdaModel(bool complaint);
  /// Lazily fits the FM pair selector on the pair-selection month's F1.
  Status EnsurePairsSelected();

  Catalog* catalog_;
  WideTableOptions options_;
  std::map<int, WideTable> cache_;
  std::optional<F1Table> pair_f1_;
  bool pairs_selected_ = false;
  std::vector<std::pair<std::string, std::string>> selected_pairs_;
  std::unique_ptr<LdaModel> lda_complaint_;
  std::unique_ptr<LdaModel> lda_search_;
};

}  // namespace telco

#endif  // TELCO_FEATURES_WIDE_TABLE_H_
