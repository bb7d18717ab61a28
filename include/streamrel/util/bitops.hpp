#pragma once
// Bit-level utilities shared by the exact (exhaustive) reliability
// algorithms. Failure configurations over a set of up to 63 links are
// represented as 64-bit masks: bit i set means link i is ALIVE.

#include <bit>
#include <cstdint>
#include <vector>

namespace streamrel {

/// A set of edges (or assignments, or bottleneck links) as a bitmask.
/// Bit i set <=> element i present.
using Mask = std::uint64_t;

/// Largest element count representable by a Mask with a usable "all" mask.
inline constexpr int kMaxMaskBits = 63;

/// Mask with the lowest `n` bits set. Requires 0 <= n <= 63.
constexpr Mask full_mask(int n) noexcept { return (Mask{1} << n) - 1; }

/// Number of set bits.
constexpr int popcount(Mask m) noexcept { return std::popcount(m); }

/// True if bit i is set.
constexpr bool test_bit(Mask m, int i) noexcept { return (m >> i) & 1ULL; }

/// Mask with only bit i set.
constexpr Mask bit(int i) noexcept { return Mask{1} << i; }

/// Index of the lowest set bit. Requires m != 0.
constexpr int lowest_bit(Mask m) noexcept { return std::countr_zero(m); }

/// Indices of the set bits, ascending.
std::vector<int> bits_of(Mask m);

/// Builds a mask from element indices.
Mask mask_of(const std::vector<int>& indices);

/// The i-th value of the binary-reflected Gray code.
constexpr Mask gray_code(Mask i) noexcept { return i ^ (i >> 1); }

/// Index of the bit that flips between gray_code(i) and gray_code(i+1):
/// the number of trailing ones of i... equivalently countr_zero(i+1).
constexpr int gray_flip_bit(Mask i) noexcept {
  return std::countr_zero(i + 1);
}

/// Iterates all submasks of `superset` (including 0 and superset itself)
/// in decreasing numeric order of the submask bits. Usage:
///   for (SubmaskRange r(sup); !r.done(); r.next()) use(r.value());
class SubmaskRange {
 public:
  explicit SubmaskRange(Mask superset) noexcept
      : superset_(superset), current_(superset), done_(false) {}

  bool done() const noexcept { return done_; }
  Mask value() const noexcept { return current_; }

  void next() noexcept {
    if (current_ == 0) {
      done_ = true;
    } else {
      current_ = (current_ - 1) & superset_;
    }
  }

 private:
  Mask superset_;
  Mask current_;
  bool done_;
};

/// Iterates all k-element subsets of {0..n-1} as masks, in colex order
/// (Gosper's hack). Yields nothing if k > n; yields {0} once if k == 0.
class CombinationRange {
 public:
  CombinationRange(int n, int k) noexcept;

  bool done() const noexcept { return done_; }
  Mask value() const noexcept { return current_; }
  void next() noexcept;

 private:
  Mask limit_;    // first mask >= 2^n, i.e. out of range
  Mask current_;
  bool done_;
};

}  // namespace streamrel
