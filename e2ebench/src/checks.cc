#include "checks.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <tuple>

namespace e2ebench {

namespace {

bool RelClose(double a, double b, double tol) {
  if (!std::isfinite(a) || !std::isfinite(b)) return false;
  return std::fabs(a - b) <= tol * std::max(std::fabs(a), std::fabs(b));
}

using ColumnKey = std::tuple<std::string, size_t, bool, size_t>;

/// The columns of `batch` in a provenance-defined order (their keys) and its
/// rows with columns in that order, sorted.
struct Canonical {
  std::vector<ColumnKey> keys;
  std::vector<std::vector<double>> rows;
};

Canonical Canonicalize(const zerodb::exec::RowBatch& batch) {
  std::map<std::tuple<std::string, size_t, bool>, size_t> seen;
  std::vector<std::pair<ColumnKey, size_t>> order;
  for (size_t c = 0; c < batch.schema.size(); ++c) {
    const auto& col = batch.schema[c];
    const size_t occurrence =
        seen[{col.table, col.column_index, col.synthetic}]++;
    order.push_back(
        {ColumnKey{col.table, col.column_index, col.synthetic, occurrence}, c});
  }
  std::sort(order.begin(), order.end());
  Canonical out;
  for (const auto& [key, c] : order) out.keys.push_back(key);
  out.rows.resize(batch.num_rows());
  for (size_t r = 0; r < out.rows.size(); ++r) {
    out.rows[r].reserve(order.size());
    for (const auto& [key, c] : order) {
      out.rows[r].push_back(batch.columns[c][r]);
    }
  }
  std::sort(out.rows.begin(), out.rows.end());
  return out;
}

}  // namespace

bool ModelBeatsBaseline(double model_median_qerror,
                        double baseline_median_qerror) {
  return std::isfinite(model_median_qerror) && model_median_qerror >= 1.0 &&
         model_median_qerror < baseline_median_qerror;
}

bool LossDecreased(const std::vector<double>& train_losses) {
  if (train_losses.size() < 2) return false;
  for (double loss : train_losses) {
    if (!std::isfinite(loss)) return false;
  }
  return train_losses.back() < train_losses.front();
}

bool SameResultMultiset(const zerodb::exec::RowBatch& a,
                        const zerodb::exec::RowBatch& b) {
  if (a.num_columns() != b.num_columns() || a.num_rows() != b.num_rows()) {
    return false;
  }
  const Canonical ca = Canonicalize(a);
  const Canonical cb = Canonicalize(b);
  if (ca.keys != cb.keys) return false;
  const auto& rows_a = ca.rows;
  const auto& rows_b = cb.rows;
  for (size_t r = 0; r < rows_a.size(); ++r) {
    for (size_t c = 0; c < rows_a[r].size(); ++c) {
      if (rows_a[r][c] != rows_b[r][c] &&
          !RelClose(rows_a[r][c], rows_b[r][c], 1e-9)) {
        return false;
      }
    }
  }
  return true;
}

bool BitIdenticalHistory(const std::vector<zerodb::obs::EpochStat>& a,
                         const std::vector<zerodb::obs::EpochStat>& b) {
  if (a.empty() || a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].train_loss == b[i].train_loss &&
          a[i].val_loss == b[i].val_loss &&
          a[i].grad_norm == b[i].grad_norm)) {
      return false;
    }
  }
  return true;
}

bool AllFinitePositive(const std::vector<double>& values) {
  if (values.empty()) return false;
  for (double v : values) {
    if (!std::isfinite(v) || v <= 0.0) return false;
  }
  return true;
}

bool AllEqual(const std::vector<uint64_t>& a, const std::vector<uint64_t>& b) {
  return !a.empty() && a == b;
}

bool AllRelClose(const std::vector<double>& a, const std::vector<double>& b,
                 double tol) {
  if (a.empty() || a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!RelClose(a[i], b[i], tol)) return false;
  }
  return true;
}

bool AdvisorResultValid(double baseline_total_ms, double final_total_ms,
                        const std::vector<std::string>& chosen,
                        size_t max_indexes,
                        const std::vector<std::string>& candidates) {
  if (!std::isfinite(baseline_total_ms) || !std::isfinite(final_total_ms) ||
      final_total_ms <= 0.0 || final_total_ms > baseline_total_ms) {
    return false;
  }
  if (chosen.size() > max_indexes) return false;
  for (const std::string& index : chosen) {
    if (std::find(candidates.begin(), candidates.end(), index) ==
        candidates.end()) {
      return false;
    }
  }
  return true;
}

}  // namespace e2ebench
