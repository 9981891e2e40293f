// Shared helpers for the figure-reproduction benches: canonical rule
// texts for the paper's three transformations (Listings 5, 8, 11) at a
// given LEN, and printing utilities for the per-set series the figures
// plot. See DESIGN.md §4 for the experiment index and EXPERIMENTS.md for
// paper-vs-measured notes.
#pragma once

#include <cstdio>
#include <string>

#include "analysis/experiment.hpp"
#include "analysis/report.hpp"

namespace tdt::bench {

/// Listing 5: SoA -> AoS.
inline std::string t1_rules(std::int64_t len) {
  const std::string n = std::to_string(len);
  return "in:\nstruct lSoA {\n  int mX[" + n + "];\n  double mY[" + n +
         "];\n};\nout:\nstruct lAoS {\n  int mX;\n  double mY;\n}[" + n +
         "];\n";
}

/// Listing 8: nested -> outlined (pool types matching the in elements;
/// the paper's listing swaps them — see EXPERIMENTS.md, T2 note).
inline std::string t2_rules(std::int64_t len) {
  const std::string n = std::to_string(len);
  return "in:\nstruct mRarelyUsed {\n  double mY;\n  int mZ;\n};\n"
         "struct lS1 {\n  int mFrequentlyUsed;\n  struct mRarelyUsed;\n}[" +
         n +
         "];\nout:\nstruct lStorageForRarelyUsed {\n  double mY;\n  int "
         "mZ;\n}[" +
         n +
         "];\nstruct lS2 {\n  int mFrequentlyUsed;\n  + "
         "mRarelyUsed:lStorageForRarelyUsed;\n}[" +
         n + "];\n";
}

/// Listing 11: contiguous -> set-pinning stride, with the injected
/// index-arithmetic loads of Figure 9.
inline std::string t3_rules(std::int64_t len, std::int64_t sets) {
  return "in:\nint lContiguousArray[" + std::to_string(len) +
         "]:lSetHashingArray;\nout:\nint lSetHashingArray[" +
         std::to_string(len * sets) +
         "((lI/8)*(16*8)+(lI%8))];\ninject:\nL lITEMSPERLINE 4;\nL "
         "lITEMSPERLINE 4;\nL lITEMSPERLINE 4;\n";
}

/// Prints one figure's data: the per-set hit/miss series of `variables`.
inline void print_figure(const char* figure_id, const char* caption,
                         const analysis::SimulationResult& sim,
                         const std::vector<std::string>& variables) {
  std::printf("=== %s: %s ===\n", figure_id, caption);
  std::string header = "set";
  for (const std::string& v : variables) {
    header += "," + v + ":hits," + v + ":misses";
  }
  std::printf("%s\n", header.c_str());
  for (std::uint64_t s = 0; s < sim.num_sets; ++s) {
    bool any = false;
    std::string row = std::to_string(s);
    for (const std::string& v : variables) {
      const auto it = sim.per_set.find(v);
      const std::uint64_t hits = it == sim.per_set.end() ? 0 : it->second[s].hits;
      const std::uint64_t misses =
          it == sim.per_set.end() ? 0 : it->second[s].misses;
      any = any || hits != 0 || misses != 0;
      row += ',';
      row += std::to_string(hits);
      row += ',';
      row += std::to_string(misses);
    }
    if (any) std::printf("%s\n", row.c_str());
  }
  std::printf("\n");
}

}  // namespace tdt::bench
