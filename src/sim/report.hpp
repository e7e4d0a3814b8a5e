// Turning results into console tables and CSV files.
#pragma once

#include <span>
#include <string>

#include "sim/result.hpp"
#include "sim/trials.hpp"
#include "util/table.hpp"

namespace partree::sim {

/// One row per SimResult: allocator, N, events, max load, L*, ratio,
/// reallocation/migration accounting.
[[nodiscard]] util::Table results_table(std::span<const SimResult> results);

/// One row per TrialAggregate: allocator, N, trials, both load metrics and
/// both ratios.
[[nodiscard]] util::Table trials_table(std::span<const TrialAggregate> results);

/// Writes `table` as CSV to `path` if nonempty, atomically (a failed
/// write leaves any previous file intact); throws std::runtime_error when
/// the file cannot be written.
void write_csv_file(const util::Table& table, const std::string& path);

}  // namespace partree::sim
