// Materialized result tables produced by the collection layer.
#pragma once

#include <string>
#include <vector>

#include "common/table.hpp"
#include "lang/schema.hpp"

namespace perfq::runtime {

/// A finite table of rows (doubles) under a schema. Aggregate results and
/// sink-SELECT outputs are both delivered this way.
class ResultTable {
 public:
  ResultTable() = default;
  explicit ResultTable(lang::Schema schema) : schema_(std::move(schema)) {}

  [[nodiscard]] const lang::Schema& schema() const { return schema_; }
  [[nodiscard]] std::size_t row_count() const { return rows_.size(); }
  [[nodiscard]] const std::vector<std::vector<double>>& rows() const {
    return rows_;
  }

  void add_row(std::vector<double> row);

  /// Make room for `rows` rows in all.
  void reserve(std::size_t rows) { rows_.reserve(rows); }

  /// Column index by (canonical or alias) name; throws if absent.
  [[nodiscard]] std::size_t column(std::string_view name) const;

  /// Value accessor.
  [[nodiscard]] double at(std::size_t row, std::string_view name) const {
    return rows_[row][column(name)];
  }

  /// Sort rows descending by a column (reporting convenience).
  void sort_desc(std::string_view name);

  /// Render the top `limit` rows (0 = all) as an aligned text table.
  [[nodiscard]] std::string to_text(const std::string& title,
                                    std::size_t limit = 0) const;

 private:
  lang::Schema schema_;
  std::vector<std::vector<double>> rows_;
};

}  // namespace perfq::runtime
