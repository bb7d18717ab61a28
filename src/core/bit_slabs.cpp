#include "streamrel/core/bit_slabs.hpp"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <stdexcept>

namespace streamrel {

namespace {

// Open-addressed mask -> palette slot map for slab_form's permute pass:
// each table cell holds a palette slot. Runs of equal masks are common in
// rank order, so the last answer is checked first.
class PaletteSlots {
 public:
  explicit PaletteSlots(std::vector<Mask>& palette) : palette_(palette) {}

  std::uint32_t slot(Mask mask) {
    if (last_ < palette_.size() && palette_[last_] == mask) return last_;
    std::size_t i = home(mask);
    while (table_[i] != kFree && palette_[table_[i]] != mask) i = next(i);
    if (table_[i] != kFree) return last_ = table_[i];
    last_ = table_[i] = static_cast<std::uint32_t>(palette_.size());
    palette_.push_back(mask);
    if (palette_.size() * 2 > table_.size()) grow();
    return last_;
  }

 private:
  static constexpr std::uint32_t kFree = ~std::uint32_t{0};

  std::size_t home(Mask mask) const noexcept {
    return static_cast<std::size_t>((mask * 0x9e3779b97f4a7c15ULL) >> shift_);
  }
  std::size_t next(std::size_t i) const noexcept {
    return (i + 1) & (table_.size() - 1);
  }

  void grow() {
    table_.assign(table_.size() * 2, kFree);
    --shift_;
    for (std::uint32_t s = 0; s < palette_.size(); ++s) {
      std::size_t i = home(palette_[s]);
      while (table_[i] != kFree) i = next(i);
      table_[i] = s;
    }
  }

  std::vector<Mask>& palette_;
  std::vector<std::uint32_t> table_ = std::vector<std::uint32_t>(64, kFree);
  int shift_ = 64 - 6;  ///< 64 - log2(table_.size())
  std::uint32_t last_ = 0;
};

// Writes the palette slots of the ranks from `rank` on into `column`
// until the palette outgrows its index type; returns the first rank not
// written.
template <typename I>
std::size_t fill_slots(const std::vector<Mask>& config_indexed,
                       std::size_t rank, PaletteSlots& slots,
                       std::vector<I>& column) {
  for (; rank < column.size(); ++rank) {
    const std::uint32_t s =
        slots.slot(config_indexed[static_cast<std::size_t>(gray_code(rank))]);
    if (s > std::numeric_limits<I>::max()) break;
    column[rank] = static_cast<I>(s);
  }
  return rank;
}

// Copies the ranks done so far into a column of the next index width.
template <typename Wide, typename Narrow>
std::vector<Wide> widen(const std::vector<Narrow>& column, std::size_t done) {
  std::vector<Wide> wide(column.size());
  std::copy(column.begin(), column.begin() + static_cast<std::ptrdiff_t>(done),
            wide.begin());
  return wide;
}

}  // namespace

SlabMaskTable slab_form(const std::vector<Mask>& config_indexed,
                        int num_links) {
  if (config_indexed.size() != (std::size_t{1} << num_links)) {
    throw std::invalid_argument("slab_form: array size is not 2^num_links");
  }
  const std::size_t n = config_indexed.size();
  SlabMaskTable table;
  table.num_links = num_links;
  PaletteSlots slots(table.palette);
  // One pass in rank order; the column widens only when the palette
  // outgrows 256, then 65,536 masks.
  std::vector<std::uint8_t> narrow(n);
  std::size_t rank = fill_slots(config_indexed, 0, slots, narrow);
  if (rank == n) {
    table.index = std::move(narrow);
    return table;
  }
  std::vector<std::uint16_t> mid = widen<std::uint16_t>(narrow, rank);
  rank = fill_slots(config_indexed, rank, slots, mid);
  if (rank == n) {
    table.index = std::move(mid);
    return table;
  }
  std::vector<std::uint32_t> wide = widen<std::uint32_t>(mid, rank);
  fill_slots(config_indexed, rank, slots, wide);
  table.index = std::move(wide);
  return table;
}

std::vector<Mask> config_form(const SlabMaskTable& table) {
  std::vector<Mask> array(table.size());
  std::visit(
      [&](const auto& column) {
        for (std::size_t rank = 0; rank < column.size(); ++rank) {
          array[static_cast<std::size_t>(gray_code(rank))] =
              table.palette[column[rank]];
        }
      },
      table.index);
  return array;
}

}  // namespace streamrel
