#include "streamrel/core/polynomial_decomposition.hpp"

#include <stdexcept>
#include <unordered_map>
#include <vector>

namespace streamrel {

namespace {

// Per realized mask, the number of side configurations with each failure
// count: counts[mask][j] = #configs realizing exactly `mask` with j dead
// side links.
using CountTable = std::unordered_map<Mask, std::vector<std::uint64_t>>;

CountTable bucket_counts(const std::vector<Mask>& array, int side_edges) {
  CountTable table;
  for (Mask config = 0; config < static_cast<Mask>(array.size()); ++config) {
    auto& row = table[array[static_cast<std::size_t>(config)]];
    if (row.empty()) {
      row.assign(static_cast<std::size_t>(side_edges) + 1, 0);
    }
    row[static_cast<std::size_t>(side_edges - popcount(config))]++;
  }
  return table;
}

// Compresses a mask to the dense bit positions of `allowed`.
Mask compress(Mask m, Mask allowed) {
  Mask out = 0;
  int rank = 0;
  for (Mask rest = allowed; rest != 0; rest &= rest - 1, ++rank) {
    if (m & (rest & (~rest + 1))) out |= bit(rank);
  }
  return out;
}

}  // namespace

ReliabilityPolynomial polynomial_bottleneck(
    const FlowNetwork& net, const FlowDemand& demand,
    const BottleneckPartition& partition, const BottleneckOptions& options) {
  net.check_demand(demand);
  const int m_total = net.num_edges();
  std::vector<std::uint64_t> n_j(static_cast<std::size_t>(m_total) + 1, 0);

  const AssignmentSet assignments =
      enumerate_assignments(net, partition, demand.rate, options.assignments);
  if (assignments.size() == 0) {
    return ReliabilityPolynomial(m_total, std::move(n_j));
  }

  const std::shared_ptr<const CompiledNetwork> snapshot = net.compile();
  const SideProblem side_s =
      make_side_problem(snapshot, demand, partition, /*source_side=*/true);
  const SideProblem side_t =
      make_side_problem(snapshot, demand, partition, /*source_side=*/false);
  const int m_s = side_s.view.num_edges();
  const int m_t = side_t.view.num_edges();
  const CountTable counts_s = bucket_counts(
      config_form(build_side_array(side_s, assignments, demand.rate)), m_s);
  const CountTable counts_t = bucket_counts(
      config_form(build_side_array(side_t, assignments, demand.rate)), m_t);

  const int k = partition.k();
  for (Mask alive = 0; alive < (Mask{1} << k); ++alive) {
    const Mask allowed = assignments.supported_by(alive);
    if (allowed == 0) continue;
    const int j_bottleneck = k - popcount(alive);
    const int r = popcount(allowed);
    if (r > 26) {
      throw std::invalid_argument(
          "polynomial decomposition: allowed assignment set too large");
    }

    // zeta[m][jt] = #sink-side configs with jt failures whose realized
    // set, restricted to `allowed`, is a SUBSET of m (compressed).
    std::vector<std::vector<std::uint64_t>> zeta(
        std::size_t{1} << r,
        std::vector<std::uint64_t>(static_cast<std::size_t>(m_t) + 1, 0));
    for (const auto& [mask, row] : counts_t) {
      auto& cell = zeta[static_cast<std::size_t>(
          compress(mask & allowed, allowed))];
      for (std::size_t jt = 0; jt <= static_cast<std::size_t>(m_t); ++jt) {
        cell[jt] += row[jt];
      }
    }
    for (int i = 0; i < r; ++i) {
      const std::size_t stride = std::size_t{1} << i;
      for (std::size_t m = 0; m < zeta.size(); ++m) {
        if (!(m & stride)) continue;
        const auto& src = zeta[m ^ stride];
        auto& dst = zeta[m];
        for (std::size_t jt = 0; jt <= static_cast<std::size_t>(m_t); ++jt) {
          dst[jt] += src[jt];
        }
      }
    }
    const auto& totals_t = zeta[(std::size_t{1} << r) - 1];

    // For every source bucket: successful sink counts per jt are
    // totals minus the disjoint ones; convolve over failure counts.
    const Mask full = full_mask(r);
    for (const auto& [mask, row_s] : counts_s) {
      const Mask live = compress(mask & allowed, allowed);
      const auto& disjoint = zeta[static_cast<std::size_t>(full & ~live)];
      for (std::size_t js = 0; js <= static_cast<std::size_t>(m_s); ++js) {
        if (row_s[js] == 0) continue;
        for (std::size_t jt = 0; jt <= static_cast<std::size_t>(m_t); ++jt) {
          const std::uint64_t good = totals_t[jt] - disjoint[jt];
          if (good == 0) continue;
          n_j[static_cast<std::size_t>(j_bottleneck) + js + jt] +=
              row_s[js] * good;
        }
      }
    }
  }
  return ReliabilityPolynomial(m_total, std::move(n_j));
}

}  // namespace streamrel
