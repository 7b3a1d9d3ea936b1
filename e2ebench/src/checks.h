#ifndef E2EBENCH_CHECKS_H_
#define E2EBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "exec/batch.h"
#include "obs/telemetry.h"

namespace e2ebench {

/// Correctness checks. Each takes plain values so that the self-tests can
/// feed it one corrupted value and see it fail; none compares against a
/// stored copy of earlier output.

/// The learned model's median q-error beats the scaled-optimizer-cost
/// baseline's on the same held-out set.
bool ModelBeatsBaseline(double model_median_qerror,
                        double baseline_median_qerror);

/// Every loss is finite and the last epoch's training loss is below the
/// first's.
bool LossDecreased(const std::vector<double>& train_losses);

/// Two results hold the same multiset of rows. Columns are matched by their
/// provenance (table, column, synthetic, occurrence), so plans that emit
/// them in another order compare equal; values compare within 1e-9
/// relative, since aggregates summed in another order may differ in the
/// last bits.
bool SameResultMultiset(const zerodb::exec::RowBatch& a,
                        const zerodb::exec::RowBatch& b);

/// Two loss histories are bit-identical (train loss, validation loss and
/// gradient norm of every epoch).
bool BitIdenticalHistory(const std::vector<zerodb::obs::EpochStat>& a,
                         const std::vector<zerodb::obs::EpochStat>& b);

/// Every value is finite and strictly positive.
bool AllFinitePositive(const std::vector<double>& values);

/// Element-wise equality of two equally long fingerprint lists.
bool AllEqual(const std::vector<uint64_t>& a, const std::vector<uint64_t>& b);

/// |a - b| <= tol * max(|a|, |b|), element-wise over equally long lists.
bool AllRelClose(const std::vector<double>& a, const std::vector<double>& b,
                 double tol);

/// The index advisor's result is consistent: the final predicted cost does
/// not exceed the baseline, at most `max_indexes` indexes are chosen, and
/// each is one of the enumerated candidates ("table.column" keys).
bool AdvisorResultValid(double baseline_total_ms, double final_total_ms,
                        const std::vector<std::string>& chosen,
                        size_t max_indexes,
                        const std::vector<std::string>& candidates);

}  // namespace e2ebench

#endif  // E2EBENCH_CHECKS_H_
