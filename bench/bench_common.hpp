// Shared conventions for the experiment binaries (bench/e*.cpp).
//
// Each binary reproduces one "experiment" -- a theorem or worked example of
// the paper -- printing a fixed-format table of measured values next to the
// paper's predicted bound, plus a PASS/VIOLATION verdict line. All runs are
// seeded; output is reproducible.
#pragma once

#include <cstdint>
#include <iostream>
#include <string>

#include "util/cli.hpp"
#include "util/table.hpp"

namespace partree::bench {

/// Standard options every experiment accepts. Returns false if the process
/// should exit (help/parse error).
[[nodiscard]] bool parse_standard(util::Cli& cli, int argc, char** argv);

/// Prints the experiment banner.
void banner(const std::string& id, const std::string& claim);

/// Prints the verdict line: PASS when `violations == 0`.
void verdict(std::uint64_t violations);

/// Prints a table and optionally writes it as CSV (--csv path). When the
/// CSV cannot be written, prints "cannot write <path>" and exits 1.
void emit(const util::Table& table, const std::string& title,
          const util::Cli& cli);

}  // namespace partree::bench
