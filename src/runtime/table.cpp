#include "runtime/table.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "packet/fivetuple.hpp"

namespace perfq::runtime {

void ResultTable::add_row(std::vector<double> row) {
  check(row.size() == schema_.size(), "ResultTable: row arity mismatch");
  rows_.push_back(std::move(row));
}

std::size_t ResultTable::column(std::string_view name) const {
  const int idx = schema_.index_of(name);
  if (idx < 0) {
    throw QueryError{"result", "no column '" + std::string{name} + "' in " +
                                   schema_.to_string()};
  }
  return static_cast<std::size_t>(idx);
}

void ResultTable::sort_desc(std::string_view name) {
  const std::size_t c = column(name);
  std::sort(rows_.begin(), rows_.end(),
            [c](const std::vector<double>& a, const std::vector<double>& b) {
              return a[c] > b[c];
            });
}

std::string ResultTable::to_text(const std::string& title,
                                 std::size_t limit) const {
  TextTable table(title);
  std::vector<std::string> header;
  for (const auto& col : schema_.columns()) header.push_back(col.name);
  table.set_header(std::move(header));

  const std::size_t n = limit == 0 ? rows_.size() : std::min(limit, rows_.size());
  for (std::size_t r = 0; r < n; ++r) {
    std::vector<std::string> cells;
    for (std::size_t c = 0; c < schema_.size(); ++c) {
      const auto& col = schema_.columns()[c];
      const double v = rows_[r][c];
      // IP-valued columns render dotted-quad for readability.
      if (col.base_field == FieldId::kSrcIp || col.base_field == FieldId::kDstIp) {
        cells.push_back(ipv4_to_string(static_cast<std::uint32_t>(v)));
      } else if (v >= -0x1p63 && v < 0x1p63 &&
                 v == static_cast<double>(static_cast<long long>(v))) {
        // Integral and in long long's range; the cast is undefined for
        // ±inf, NaN and |v| >= 2^63, which render as doubles.
        cells.push_back(std::to_string(static_cast<long long>(v)));
      } else {
        cells.push_back(fmt_double(v, 3));
      }
    }
    table.add_row(std::move(cells));
  }
  std::string out = table.to_text();
  if (n < rows_.size()) {
    out += "(" + std::to_string(rows_.size() - n) + " more rows)\n";
  }
  return out;
}

}  // namespace perfq::runtime
