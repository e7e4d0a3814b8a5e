// Baseline allocators for comparison benchmarks.
//
// - Leftmost: always the leftmost submachine of the right size; the naive
//   policy the paper's introduction warns about (stacks threads on PE 0).
// - RoundRobin: cycles through same-size submachines; oblivious but fair.
// - DChoices: "power of d choices" (Azar-Broder-Karlin-Upfal, cited as [2]
//   in the paper): sample k submachines uniformly, take the least loaded.
#pragma once

#include <unordered_map>

#include "core/allocator.hpp"
#include "util/rng.hpp"

namespace partree::core {

class LeftmostAllocator : public Allocator {
 public:
  explicit LeftmostAllocator(tree::Topology topo) : topo_(topo) {}

  [[nodiscard]] tree::NodeId place(const Task& task,
                                   const MachineState& state) override;
  [[nodiscard]] std::string name() const override { return "leftmost"; }
  void reset() override {}

 private:
  tree::Topology topo_;
};

class RoundRobinAllocator : public Allocator {
 public:
  explicit RoundRobinAllocator(tree::Topology topo) : topo_(topo) {}

  [[nodiscard]] tree::NodeId place(const Task& task,
                                   const MachineState& state) override;
  [[nodiscard]] std::string name() const override { return "roundrobin"; }
  void reset() override { cursors_.clear(); }

 private:
  tree::Topology topo_;
  std::unordered_map<std::uint64_t, std::uint64_t> cursors_;  // size -> next
};

class DChoicesAllocator : public Allocator {
 public:
  DChoicesAllocator(tree::Topology topo, std::uint64_t k, std::uint64_t seed);

  [[nodiscard]] tree::NodeId place(const Task& task,
                                   const MachineState& state) override;
  [[nodiscard]] std::string name() const override;
  void reset() override;

 private:
  tree::Topology topo_;
  std::uint64_t k_;
  std::uint64_t seed_;
  util::Rng rng_;
};

}  // namespace partree::core
