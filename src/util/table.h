// ASCII table rendering for the paper's tables (core/paper_tables.cpp) and
// the example CLIs.
//
// TablePrinter gives every table a single, consistent look (right-aligned
// numeric columns, optional title and footnotes).
#pragma once

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

namespace fastdiag {

class TablePrinter {
 public:
  /// Creates a table with the given column @p headers.
  explicit TablePrinter(std::vector<std::string> headers);

  /// Optional title printed above the table.
  void set_title(std::string title) { title_ = std::move(title); }

  /// Appends a row; the cell count must match the header count.
  void add_row(std::vector<std::string> cells);

  /// Appends a horizontal separator between rows.
  void add_separator();

  /// Appends a footnote line printed under the table.
  void add_note(std::string note) { notes_.push_back(std::move(note)); }

  /// Renders to the stream.
  void print(std::ostream& os) const;

  /// Renders to a string (used by tests).
  [[nodiscard]] std::string to_string() const;

  [[nodiscard]] std::size_t row_count() const { return rows_.size(); }

 private:
  struct Row {
    bool separator = false;
    std::vector<std::string> cells;
  };

  std::string title_;
  std::vector<std::string> headers_;
  std::vector<Row> rows_;
  std::vector<std::string> notes_;
};

/// Formats a double with @p decimals digits after the point.
[[nodiscard]] std::string fmt_double(double value, int decimals = 2);

/// Formats with thousands separators: 1234567 -> "1,234,567".
[[nodiscard]] std::string fmt_count(std::uint64_t value);

/// Formats a fraction as a percentage string, e.g. 0.5 -> "50.0%".
[[nodiscard]] std::string fmt_percent(double fraction, int decimals = 1);

}  // namespace fastdiag
