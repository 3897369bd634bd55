#include "faults/dictionary.h"

#include <algorithm>
#include <set>

namespace fastdiag::faults {

MatchReport match_diagnosis(const std::vector<FaultInstance>& truth,
                            std::span<const sram::CellCoord> diagnosed,
                            const sram::SramConfig& config) {
  MatchReport report;
  report.truth_faults = truth.size();
  report.diagnosed_cells = diagnosed.size();

  // Two geometry-sized bitmaps: the diagnosed cells, and those some
  // footprint explains.  A cell outside the geometry (only a hand-made
  // truth or log carries one) is binary-searched in @p diagnosed instead
  // and tallied in a set, so the counts stay exact for any input.
  const std::uint64_t bits = config.bits;
  const auto inside = [&](const sram::CellCoord& cell) {
    return cell.row < config.words && cell.bit < config.bits;
  };
  const std::size_t limbs =
      static_cast<std::size_t>((std::uint64_t{config.words} * bits + 63) / 64);
  std::vector<std::uint64_t> reported(limbs, 0);
  std::vector<std::uint64_t> explained(limbs, 0);
  for (const auto& cell : diagnosed) {
    if (inside(cell)) {
      const std::uint64_t i = cell.row * bits + cell.bit;
      reported[i >> 6] |= std::uint64_t{1} << (i & 63);
    }
  }
  std::size_t explained_inside = 0;
  std::set<sram::CellCoord> explained_outside;
  for (const auto& fault : truth) {
    bool matched = false;
    for (const auto& cell : fault.footprint(config)) {
      if (!inside(cell)) {
        if (std::binary_search(diagnosed.begin(), diagnosed.end(), cell)) {
          matched = true;
          explained_outside.insert(cell);
        }
        continue;
      }
      const std::uint64_t i = cell.row * bits + cell.bit;
      const std::uint64_t mask = std::uint64_t{1} << (i & 63);
      if ((reported[i >> 6] & mask) == 0) {
        continue;
      }
      matched = true;
      if ((explained[i >> 6] & mask) == 0) {
        explained[i >> 6] |= mask;
        ++explained_inside;
      }
    }
    if (matched) {
      ++report.matched_faults;
    }
  }
  // Every explained cell is a diagnosed one; the rest point at no fault.
  report.spurious_cells =
      diagnosed.size() - explained_inside - explained_outside.size();
  return report;
}

void ConfusionMatrix::add(FaultKind truth, std::optional<FaultKind> predicted,
                          bool truth_among_top) {
  ++truths_;
  ++truth_totals_[truth];
  if (!predicted.has_value()) {
    ++missed_;
    return;
  }
  ++counts_[{truth, *predicted}];
  if (*predicted == truth && truth_among_top) {
    ++strict_correct_;
  }
  if (truth_among_top) {
    ++lenient_total_;
    ++lenient_correct_[truth];
  }
}

void ConfusionMatrix::add_spurious(FaultKind predicted) {
  ++spurious_by_kind_[predicted];
  ++spurious_;
}

std::size_t ConfusionMatrix::spurious(FaultKind predicted) const {
  const auto it = spurious_by_kind_.find(predicted);
  return it == spurious_by_kind_.end() ? 0 : it->second;
}

void ConfusionMatrix::merge(const ConfusionMatrix& other) {
  for (const auto& [key, count] : other.counts_) {
    counts_[key] += count;
  }
  for (const auto& [kind, count] : other.truth_totals_) {
    truth_totals_[kind] += count;
  }
  for (const auto& [kind, count] : other.lenient_correct_) {
    lenient_correct_[kind] += count;
  }
  for (const auto& [kind, count] : other.spurious_by_kind_) {
    spurious_by_kind_[kind] += count;
  }
  truths_ += other.truths_;
  strict_correct_ += other.strict_correct_;
  lenient_total_ += other.lenient_total_;
  missed_ += other.missed_;
  spurious_ += other.spurious_;
}

ConfusionMatrix::Snapshot ConfusionMatrix::snapshot() const {
  Snapshot out;
  const auto flatten = [](const std::map<FaultKind, std::size_t>& map,
                          std::vector<std::pair<FaultKind, std::uint64_t>>&
                              into) {
    into.reserve(map.size());
    for (const auto& [kind, count] : map) {
      into.emplace_back(kind, count);
    }
  };
  out.counts.reserve(counts_.size());
  for (const auto& [key, count] : counts_) {
    out.counts.emplace_back(key, count);
  }
  flatten(truth_totals_, out.truth_totals);
  flatten(lenient_correct_, out.lenient_correct);
  flatten(spurious_by_kind_, out.spurious_by_kind);
  out.truths = truths_;
  out.strict_correct = strict_correct_;
  out.lenient_total = lenient_total_;
  out.missed = missed_;
  out.spurious = spurious_;
  return out;
}

ConfusionMatrix ConfusionMatrix::from_snapshot(const Snapshot& snapshot) {
  ConfusionMatrix matrix;
  for (const auto& [key, count] : snapshot.counts) {
    matrix.counts_[key] = static_cast<std::size_t>(count);
  }
  const auto unflatten =
      [](const std::vector<std::pair<FaultKind, std::uint64_t>>& flat,
         std::map<FaultKind, std::size_t>& into) {
        for (const auto& [kind, count] : flat) {
          into[kind] = static_cast<std::size_t>(count);
        }
      };
  unflatten(snapshot.truth_totals, matrix.truth_totals_);
  unflatten(snapshot.lenient_correct, matrix.lenient_correct_);
  unflatten(snapshot.spurious_by_kind, matrix.spurious_by_kind_);
  matrix.truths_ = static_cast<std::size_t>(snapshot.truths);
  matrix.strict_correct_ = static_cast<std::size_t>(snapshot.strict_correct);
  matrix.lenient_total_ = static_cast<std::size_t>(snapshot.lenient_total);
  matrix.missed_ = static_cast<std::size_t>(snapshot.missed);
  matrix.spurious_ = static_cast<std::size_t>(snapshot.spurious);
  return matrix;
}

std::size_t ConfusionMatrix::count(FaultKind truth,
                                   FaultKind predicted) const {
  const auto it = counts_.find({truth, predicted});
  return it == counts_.end() ? 0 : it->second;
}

double ConfusionMatrix::strict_accuracy() const {
  return truths_ == 0 ? 1.0
                      : static_cast<double>(strict_correct_) /
                            static_cast<double>(truths_);
}

double ConfusionMatrix::lenient_accuracy() const {
  return truths_ == 0 ? 1.0
                      : static_cast<double>(lenient_total_) /
                            static_cast<double>(truths_);
}

double ConfusionMatrix::class_accuracy(FaultKind kind) const {
  const auto total = truth_totals_.find(kind);
  if (total == truth_totals_.end() || total->second == 0) {
    return 1.0;
  }
  const auto correct = lenient_correct_.find(kind);
  return static_cast<double>(
             correct == lenient_correct_.end() ? 0 : correct->second) /
         static_cast<double>(total->second);
}

std::string ConfusionMatrix::to_string() const {
  std::string out = "confusion (truth -> predicted):\n";
  for (const auto& [kind_pair, count] : counts_) {
    out += "  ";
    out += fault_kind_name(kind_pair.first);
    out += " -> ";
    out += fault_kind_name(kind_pair.second);
    out += ": " + std::to_string(count) + '\n';
  }
  out += "  truths=" + std::to_string(truths_) +
         " missed=" + std::to_string(missed_) +
         " spurious=" + std::to_string(spurious_) + '\n';
  out += "  strict=" + std::to_string(strict_accuracy()) +
         " lenient=" + std::to_string(lenient_accuracy()) + '\n';
  return out;
}

}  // namespace fastdiag::faults
