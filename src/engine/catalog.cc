#include "engine/catalog.h"

#include <cmath>

namespace wlm {

void Catalog::AddTable(TableSpec spec) {
  spec.pages = std::max<int64_t>(
      1, (spec.rows * spec.row_bytes + kPageBytes - 1) / kPageBytes);
  tables_[spec.name] = std::move(spec);
}

Result<TableSpec> Catalog::Lookup(const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("no table: " + name);
  return it->second;
}

Catalog Catalog::TpchLike(double scale_factor) {
  Catalog catalog;
  auto add = [&](const std::string& name, double rows, int row_bytes) {
    TableSpec spec;
    spec.name = name;
    spec.rows = static_cast<int64_t>(rows * scale_factor);
    spec.row_bytes = row_bytes;
    catalog.AddTable(std::move(spec));
  };
  add("lineitem", 6'000'000, 120);
  add("orders", 1'500'000, 110);
  add("customer", 150'000, 180);
  add("part", 200'000, 160);
  add("partsupp", 800'000, 140);
  add("supplier", 10'000, 160);
  add("nation", 25, 120);
  add("region", 5, 120);
  return catalog;
}

Catalog Catalog::TpccLike(int warehouses) {
  Catalog catalog;
  auto add = [&](const std::string& name, int64_t rows, int row_bytes) {
    TableSpec spec;
    spec.name = name;
    spec.rows = rows;
    spec.row_bytes = row_bytes;
    catalog.AddTable(std::move(spec));
  };
  int64_t w = warehouses;
  add("warehouse", w, 90);
  add("district", w * 10, 95);
  add("customer_t", w * 30'000, 650);
  add("stock", w * 100'000, 310);
  add("item", 100'000, 80);
  add("orders_t", w * 30'000, 25);
  add("order_line", w * 300'000, 55);
  add("new_order", w * 9'000, 10);
  add("history", w * 30'000, 45);
  return catalog;
}

}  // namespace wlm
