// Per-node expected-vs-delivered sequence state (DESIGN.md §6).
//
// A node's holdings are the gap-free prefix [0, next) plus the ids received
// ahead of it. The ahead set is a sliding-window bitmap: a power-of-two
// ring of 64-bit words covering word indices [next >> 6, (next >> 6) + cap)
// — bit (p & 63) of word (p >> 6) is set iff p > next was received. Only
// ids at or above the prefix keep bits, so every word below next >> 6 is
// zero and is recycled the moment the prefix passes it: memory is
// O(span of held ids) bits, whatever the stream length. A count and the
// newest id ahead ride along, so emptiness and the holdings' upper end are
// O(1).
//
// Header-only and free of simulation state, so it sits in the simbase rank
// (tools/layers.toml) and the policy layer, rrd and dyntree can use it
// without reaching up into the loss host.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/sim/packet.hpp"

namespace streamcast::loss {

using sim::PacketId;

class SequenceTracker {
 public:
  /// Records receipt of packet p (idempotent).
  void mark(PacketId p) {
    if (p < next_) return;
    if (p == next_) {
      ++next_;
      advance();
      return;
    }
    const std::int64_t w = p >> 6;
    if (w - base() >= static_cast<std::int64_t>(words_.size())) grow(w);
    std::uint64_t& word = at(w);
    const std::uint64_t bit = std::uint64_t{1} << (p & 63);
    if ((word & bit) != 0) return;
    word |= bit;
    ++count_;
    if (p > newest_) newest_ = p;
  }

  /// Floors the expectation at packet p: ids below p are no longer part of
  /// this node's stream (a churn joiner seated at the live edge is not in
  /// debt for pre-join history). No-op when the prefix already passed p.
  void start_at(PacketId p) {
    if (p <= next_) return;
    if (count_ > 0 && p > newest_) {
      for (std::uint64_t& word : words_) word = 0;
      count_ = 0;
    }
    // Forget the held ids in [next, p), a word at a time.
    while (count_ > 0 && next_ < p) {
      const std::int64_t w = next_ >> 6;
      const int lo = static_cast<int>(next_ & 63);
      const int hi = (w == (p >> 6)) ? static_cast<int>(p & 63) : 64;
      std::uint64_t& word = at(w);
      const std::uint64_t mask = span_mask(lo, hi);
      count_ -= std::popcount(word & mask);
      word &= ~mask;
      next_ = (w << 6) + hi;
    }
    next_ = p;
    advance();
  }

  bool has(PacketId p) const {
    if (p < next_) return true;
    if (count_ == 0) return false;
    const std::int64_t w = p >> 6;
    if (w - base() >= static_cast<std::int64_t>(words_.size())) return false;
    return ((at(w) >> (p & 63)) & 1u) != 0;
  }

  /// First packet id not yet received: the stream prefix [0, prefix) is
  /// complete and gap-free.
  PacketId gap_free_prefix() const { return next_; }

  /// True when nothing was received ahead of the prefix.
  bool ahead_empty() const { return count_ == 0; }

  /// Newest held id: the newest id ahead of the prefix, else prefix - 1
  /// (-1 when nothing is held).
  PacketId newest() const { return count_ > 0 ? newest_ : next_ - 1; }

  /// Calls f(p) for every id received ahead of the prefix, ascending.
  template <typename F>
  void for_each_ahead(F&& f) const {
    if (count_ == 0) return;
    for (std::int64_t w = base(); w <= (newest_ >> 6); ++w) {
      for (std::uint64_t word = at(w); word != 0; word &= word - 1) {
        f(static_cast<PacketId>((w << 6) + std::countr_zero(word)));
      }
    }
  }

 private:
  std::int64_t base() const { return next_ >> 6; }
  std::uint64_t& at(std::int64_t w) {
    return words_[static_cast<std::size_t>(w) & (words_.size() - 1)];
  }
  std::uint64_t at(std::int64_t w) const {
    return words_[static_cast<std::size_t>(w) & (words_.size() - 1)];
  }

  /// Bits [lo, hi) of a word, 0 <= lo <= hi <= 64.
  static std::uint64_t span_mask(int lo, int hi) {
    const std::uint64_t upto = hi == 64 ? ~std::uint64_t{0}
                                        : (std::uint64_t{1} << hi) - 1;
    return upto & ~((std::uint64_t{1} << lo) - 1);
  }

  /// Swallows the received ids contiguous with the prefix, a word at a
  /// time, clearing their bits so passed words are zero for reuse.
  void advance() {
    while (count_ > 0) {
      std::uint64_t& word = at(base());
      const int lo = static_cast<int>(next_ & 63);
      const int run = std::countr_one(word >> lo);
      if (run == 0) return;
      word &= ~span_mask(lo, lo + run);
      count_ -= run;
      next_ += run;
      if (lo + run < 64) return;
    }
  }

  /// Resizes the ring so word w fits, keeping every held word in place
  /// relative to the new mask.
  void grow(std::int64_t w) {
    const auto need = std::bit_ceil(static_cast<std::size_t>(w - base() + 1));
    std::vector<std::uint64_t> words(std::max<std::size_t>(need, 2), 0);
    const std::int64_t b = base();
    for (std::int64_t i = b; i < b + static_cast<std::int64_t>(words_.size());
         ++i) {
      words[static_cast<std::size_t>(i) & (words.size() - 1)] = at(i);
    }
    words_ = std::move(words);
  }

  PacketId next_ = 0;
  PacketId newest_ = -1;
  std::int64_t count_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace streamcast::loss
