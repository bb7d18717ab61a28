#pragma once
// Bit-parallel slab layout over side failure configurations.
//
// The side-array sweep (§III-C) walks the 2^|E_side| configurations in
// Gray-code rank order. A SLAB is a block of 64 consecutive ranks, stored
// TRANSPOSED: one uint64_t per side edge whose bit L answers "is edge e
// alive in the configuration of rank base + L?". In this layout one word
// operation touches 64 configurations at once — a certificate check
// becomes a handful of ANDs and a feasibility class like connectivity is
// decided by a 64-lane BFS.
//
// The fill is O(|E_side|) per slab, not O(64 |E_side|), thanks to a Gray
// identity: for a 64-aligned base, base + L splits XOR-disjointly into
// base | L, so
//
//   gray_code(base + L) == gray_code(base) ^ gray_code(L).
//
// gray_code(L) for L < 64 only occupies bits 0..5, so the lane pattern of
// edge e — bit L set iff bit e of gray_code(L) — is a CONSTANT word
// low_pattern(e) (zero for e >= 6), and the slab word of edge e is that
// pattern XOR-broadcast with bit e of gray_code(base):
//
//   word(e) = low_pattern(e) ^ (bit e of gray_code(base) ? ~0 : 0).
//
// SlabMaskTable is the matching rank-ordered resting form of a side
// array: a palette of the distinct realized-assignment masks plus one
// small palette index per rank, which the fold reads with unit stride.

#include <cstdint>
#include <variant>
#include <vector>

#include "streamrel/util/bitops.hpp"

namespace streamrel {

/// Transposed 64-configuration window over up to kMaxMaskBits side edges.
class BitSlabs {
 public:
  /// One lane word per edge; all words start at zero (no slab filled).
  explicit BitSlabs(int num_edges);

  /// Loads the slab of ranks [base_rank, base_rank + 64). Requires
  /// base_rank % 64 == 0 (throws otherwise). Callers working a partial
  /// slab (fewer than 64 ranks remain) mask the high lanes off
  /// themselves — the undecided-lane masks of the sweep already do.
  void fill(Mask base_rank);

  int num_edges() const noexcept { return static_cast<int>(words_.size()); }

  /// Lane word of edge e: bit L set iff e is alive at rank base + L.
  std::uint64_t word(int e) const {
    return words_[static_cast<std::size_t>(e)];
  }

  /// The constant lane pattern of edge e over gray_code(0..63) — exposed
  /// so tests can cross-check fill() against the per-lane definition.
  static std::uint64_t low_pattern(int e) noexcept;

 private:
  std::vector<std::uint64_t> words_;
};

/// A side array at rest, in Gray-code rank order, as a palette-indexed
/// mask column: `palette` holds the distinct realized-assignment masks in
/// first-seen rank order, and `index` holds, per rank r, the palette slot
/// of configuration gray_code(r)'s mask. Sides realize few distinct
/// masks, so the index is one byte per rank while the palette holds at
/// most 256 masks and widens to two or four bytes only for tables that
/// need it. Both the palette order and the index width follow from the
/// masks alone, so equal arrays give equal tables. Rank order is what
/// every consumer walks (sweeps, folds, slabs), so this is the form
/// QuerySession caches; at_config() serves point lookups through the
/// inverse Gray permutation.
struct SlabMaskTable {
  using Index = std::variant<std::vector<std::uint8_t>,
                             std::vector<std::uint16_t>,
                             std::vector<std::uint32_t>>;

  std::vector<Mask> palette;
  Index index;
  int num_links = 0;  ///< |E_side|: size() == 2^num_links

  std::size_t size() const noexcept {
    return std::visit([](const auto& column) { return column.size(); },
                      index);
  }
  bool empty() const noexcept { return size() == 0; }
  void clear() noexcept {
    palette.clear();
    index = Index{};
    num_links = 0;
  }
  /// Resident bytes: the index column plus the palette.
  std::size_t bytes() const noexcept {
    const std::size_t width = std::visit(
        [](const auto& column) { return sizeof(column[0]); }, index);
    return size() * width + palette.size() * sizeof(Mask);
  }

  Mask at_rank(Mask rank) const {
    return std::visit(
        [&](const auto& column) {
          return palette[column[static_cast<std::size_t>(rank)]];
        },
        index);
  }
  /// Realized mask of a configuration-value lookup (the historical
  /// config-indexed array's operator[]).
  Mask at_config(Mask config) const { return at_rank(gray_rank(config)); }

  bool operator==(const SlabMaskTable& other) const = default;
};

/// Permutes a configuration-indexed side array (array[config]) into rank
/// order, and back. Both directions are exact inverses.
SlabMaskTable slab_form(const std::vector<Mask>& config_indexed,
                        int num_links);
std::vector<Mask> config_form(const SlabMaskTable& table);

}  // namespace streamrel
