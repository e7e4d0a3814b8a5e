#include "bench_common.hpp"

#include <cstdlib>
#include <stdexcept>

#include "sim/report.hpp"

namespace partree::bench {

bool parse_standard(util::Cli& cli, int argc, char** argv) {
  cli.option("seed", "base RNG seed", "1", util::Cli::Kind::kU64);
  cli.option("csv", "write the result table to this CSV path", "");
  return cli.parse(argc, argv);
}

void banner(const std::string& id, const std::string& claim) {
  std::cout << "=== " << id << " ===\n" << claim << "\n\n";
}

void verdict(std::uint64_t violations) {
  if (violations == 0) {
    std::cout << "\nverdict: PASS (no bound violations)\n\n";
  } else {
    std::cout << "\nverdict: VIOLATION (" << violations
              << " measurements exceeded the paper's bound)\n\n";
  }
}

void emit(const util::Table& table, const std::string& title,
          const util::Cli& cli) {
  table.print(std::cout, title);
  const std::string path = cli.get("csv");
  try {
    sim::write_csv_file(table, path);
  } catch (const std::runtime_error&) {
    std::cerr << "cannot write " << path << "\n";
    std::exit(1);  // the experiments' usage code
  }
}

}  // namespace partree::bench
