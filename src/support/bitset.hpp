// A fixed-size bit set over node ids, walked in ascending id order.
//
// The activity-driven stepper (sim/wake.hpp) and the station-set channel
// disciplines (sim/channel_discipline.hpp) keep per-node flags here so that
// enumerating the few set ones costs O(n/64 + set bits) instead of a scan
// over all n nodes.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace mmn {

class NodeBitset {
 public:
  /// Resizes to `bits` bits, all clear.
  void assign(std::size_t bits) { words_.assign((bits + 63) / 64, 0); }

  void set(std::size_t i) { words_[i >> 6] |= bit(i); }
  void reset(std::size_t i) { words_[i >> 6] &= ~bit(i); }
  bool test(std::size_t i) const { return (words_[i >> 6] & bit(i)) != 0; }

  std::size_t num_words() const { return words_.size(); }
  std::uint64_t* words() { return words_.data(); }
  const std::uint64_t* words() const { return words_.data(); }

  /// Calls fn(i) for every set bit, ascending.  fn must not modify the set.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      for (std::uint64_t bits = words_[w]; bits != 0; bits &= bits - 1) {
        fn(w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
      }
    }
  }

 private:
  static std::uint64_t bit(std::size_t i) { return std::uint64_t{1} << (i & 63); }

  std::vector<std::uint64_t> words_;
};

}  // namespace mmn
