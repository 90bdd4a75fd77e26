#ifndef WLM_ENGINE_CATALOG_H_
#define WLM_ENGINE_CATALOG_H_

#include <map>
#include <string>

#include "common/result.h"

namespace wlm {

/// Physical statistics of one table.
struct TableSpec {
  std::string name;
  int64_t rows = 0;
  int row_bytes = 100;
  /// Pages of `page_bytes` (computed by the catalog when added).
  int64_t pages = 0;
  bool has_primary_index = true;
};

/// Minimal system catalog: table statistics that logical workload
/// generators and cost derivation use. The simulated optimizer's cost
/// inputs (rows scanned, pages read) come from here, so query demands are
/// grounded in data sizes rather than picked per query.
class Catalog {
 public:
  static constexpr int kPageBytes = 8192;

  Catalog() = default;

  /// Adds (or replaces) a table; fills in `pages`.
  void AddTable(TableSpec spec);
  [[nodiscard]] Result<TableSpec> Lookup(const std::string& name) const;
  size_t table_count() const { return tables_.size(); }

  /// A ready-made TPC-H-flavoured analytical schema at the given scale
  /// factor (SF 1 ~ lineitem 6M rows).
  static Catalog TpchLike(double scale_factor = 1.0);
  /// A TPC-C-flavoured transactional schema for `warehouses`.
  static Catalog TpccLike(int warehouses = 10);

 private:
  std::map<std::string, TableSpec> tables_;
};

/// Cost-derivation helpers shared by logical generators: all convert data
/// volumes into the engine's demand units.
struct CostModel {
  /// CPU seconds to process one million rows through one operator.
  double cpu_seconds_per_mrow = 0.5;
  /// Sequential scan: fraction of a table's pages actually read per unit
  /// selectivity is 1.0 (scans read everything regardless of selectivity).
  double io_ops_per_page = 1.0;
  /// Index lookup cost (B-tree descent + row fetch), I/O ops per probed
  /// row.
  double io_ops_per_index_probe = 3.0;
  /// Hash-join build memory per row on the build side.
  double join_mb_per_mrow = 24.0;
};

}  // namespace wlm

#endif  // WLM_ENGINE_CATALOG_H_
