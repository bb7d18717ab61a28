#pragma once
// Rank-ordered resting form of a side array.
//
// The fold (§III-C) walks a side's 2^|E_side| configurations in
// Gray-code rank order: rank r stands for configuration gray_code(r), so
// consecutive ranks differ in one link. SlabMaskTable keeps a side array
// in that order as a palette of the distinct realized-assignment masks
// plus one small palette index per rank, which the fold reads with unit
// stride.

#include <cstdint>
#include <variant>
#include <vector>

#include "streamrel/util/bitops.hpp"

namespace streamrel {

/// A side array at rest, in Gray-code rank order, as a palette-indexed
/// mask column: `palette` holds the distinct realized-assignment masks in
/// first-seen rank order, and `index` holds, per rank r, the palette slot
/// of configuration gray_code(r)'s mask. Sides realize few distinct
/// masks, so the index is one byte per rank while the palette holds at
/// most 256 masks and widens to two or four bytes only for tables that
/// need it. Both the palette order and the index width follow from the
/// masks alone, so equal arrays give equal tables. Rank order is what
/// the fold walks, so this is the form QuerySession caches; at_config()
/// serves point lookups through the inverse Gray permutation.
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
