#include "sim/report.hpp"

#include <sstream>
#include <stdexcept>

#include "util/file.hpp"
#include "util/str.hpp"

namespace partree::sim {

util::Table results_table(std::span<const SimResult> results) {
  util::Table table({"allocator", "N", "events", "max_load", "L*", "ratio",
                     "reallocs", "migrations", "moved_size"});
  for (const SimResult& r : results) {
    table.add(r.allocator, r.n_pes, r.events, r.max_load, r.optimal_load,
              r.ratio(), r.reallocation_count, r.migration_count,
              r.migrated_size);
  }
  return table;
}

util::Table trials_table(std::span<const TrialAggregate> results) {
  util::Table table({"allocator", "N", "trials", "L*", "E[max L]",
                     "sd", "max_t E[L]", "E-ratio", "paper-ratio"});
  for (const TrialAggregate& r : results) {
    table.add(r.allocator, r.n_pes, r.trials, r.optimal_load,
              r.expected_max_load, r.stddev_max_load, r.max_expected_load,
              r.expected_ratio(), r.paper_ratio());
  }
  return table;
}

void write_csv_file(const util::Table& table, const std::string& path) {
  if (path.empty()) return;
  // Rendered in memory and landed with write_file_atomic, as
  // workload::write_trace_file does: a plain ofstream swallows write
  // errors and can leave a partial table behind.
  std::ostringstream out;
  table.write_csv(out);
  if (!out || !util::write_file_atomic(path, out.str())) {
    throw std::runtime_error("cannot write CSV file: " + path);
  }
}

}  // namespace partree::sim
