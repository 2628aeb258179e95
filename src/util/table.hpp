// Aligned-table and CSV emitters used by the benchmark harness to print the
// paper's figure series in a form that is both human-readable and easy to
// plot (every table is also emitted as CSV rows prefixed with "csv,").
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

namespace hls {

/// Accumulates rows of string cells and renders them either as an aligned
/// monospace table or as CSV. Numeric helpers format with fixed precision so
/// series are comparable across runs. Every row has one cell per header:
/// add_cell asserts against a cell too many, and begin_row, print and
/// print_csv against a last row left short.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Starts a new row; subsequent add_cell/add_num calls fill it.
  Table& begin_row();
  Table& add_cell(std::string value);
  Table& add_num(double value, int precision = 4);
  Table& add_int(long long value);

  [[nodiscard]] std::size_t num_rows() const { return rows_.size(); }
  [[nodiscard]] const std::vector<std::string>& row(std::size_t i) const {
    return rows_[i];
  }

  /// Renders the aligned table (with a header underline) to `os`.
  void print(std::ostream& os) const;

  /// Renders csv with a "csv," sentinel prefix on every line so plotting
  /// scripts can grep the machine-readable part out of mixed output.
  void print_csv(std::ostream& os) const;

 private:
  void assert_last_row_full() const;

  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with fixed precision (helper shared with log output).
std::string format_double(double value, int precision);

/// The shortest decimal text that parses back to exactly `value`
/// (std::to_chars), so config files and fault specs replay the same run.
std::string format_shortest(double value);

/// All of `text` read as a finite number (std::strtod's syntax); empty when
/// `text` is empty, has characters after the number, or reads as an
/// infinity or NaN. Command-line values go through this, so "abc" or "5x"
/// is an error rather than 0 or 5.
std::optional<double> parse_number(const std::string& text);

/// All of `text` read as a decimal unsigned 64-bit integer, digits only;
/// empty when it is not one or does not fit. Seeds use the whole range.
std::optional<std::uint64_t> parse_uint64(const std::string& text);

}  // namespace hls
