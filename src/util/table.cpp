#include "util/table.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "util/assert.hpp"

namespace hls {

std::string format_double(double value, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << value;
  return os.str();
}

std::string format_shortest(double value) {
  char buf[32];
  return {buf, std::to_chars(buf, buf + sizeof buf, value).ptr};
}

std::optional<double> parse_number(const std::string& text) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size() || !std::isfinite(v)) {
    return std::nullopt;
  }
  return v;
}

std::optional<std::uint64_t> parse_uint64(const std::string& text) {
  std::uint64_t v = 0;
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, v);
  if (ec != std::errc() || end != last) {
    return std::nullopt;
  }
  return v;
}

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  HLS_ASSERT(!headers_.empty(), "table needs at least one column");
}

void Table::assert_last_row_full() const {
  HLS_ASSERT(rows_.empty() || rows_.back().size() == headers_.size(),
             "row has fewer cells than headers");
}

Table& Table::begin_row() {
  assert_last_row_full();
  rows_.emplace_back();
  rows_.back().reserve(headers_.size());
  return *this;
}

Table& Table::add_cell(std::string value) {
  HLS_ASSERT(!rows_.empty(), "begin_row() before adding cells");
  HLS_ASSERT(rows_.back().size() < headers_.size(), "row has more cells than headers");
  rows_.back().push_back(std::move(value));
  return *this;
}

Table& Table::add_num(double value, int precision) {
  return add_cell(format_double(value, precision));
}

Table& Table::add_int(long long value) { return add_cell(std::to_string(value)); }

void Table::print(std::ostream& os) const {
  assert_last_row_full();
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      os << std::setw(static_cast<int>(widths[c])) << cells[c];
      if (c + 1 < headers_.size()) {
        os << "  ";
      }
    }
    os << '\n';
  };
  print_row(headers_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < widths.size(); ++c) {
    total += widths[c] + (c + 1 < widths.size() ? 2 : 0);
  }
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) {
    print_row(row);
  }
}

void Table::print_csv(std::ostream& os) const {
  assert_last_row_full();
  auto emit = [&](const std::vector<std::string>& cells) {
    os << "csv";
    for (const auto& cell : cells) {
      os << ',' << cell;
    }
    os << '\n';
  };
  emit(headers_);
  for (const auto& row : rows_) {
    emit(row);
  }
}

}  // namespace hls
