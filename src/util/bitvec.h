// Bit-vector utilities used for dirty-object tracking.
//
// The checkpointing algorithms need three flavors of per-object flags:
//  - BitVector: a plain packed bit array (one bit per atomic object),
//  - InvertibleBitVector: a bit array whose "set" interpretation can be
//    flipped in O(1). This is the trick the paper attributes to Pu [24]: a
//    Dribble checkpoint sets the bit of every object exactly once, so instead
//    of clearing all bits for the next checkpoint we invert what "set" means.
//  - EpochVector: a per-object epoch stamp giving O(1) bulk clear without the
//    every-bit-touched invariant (used by write-set tracking where only a
//    subset of the bits are ever set within one checkpoint).
#ifndef TICKPOINT_UTIL_BITVEC_H_
#define TICKPOINT_UTIL_BITVEC_H_

#include <cstdint>
#include <vector>

#include "util/status.h"

namespace tickpoint {

/// Packed bit array with word-at-a-time fill.
class BitVector {
 public:
  BitVector() : size_(0) {}
  explicit BitVector(uint64_t size, bool value = false) { Resize(size, value); }

  void Resize(uint64_t size, bool value = false) {
    size_ = size;
    words_.assign((size + 63) / 64, value ? ~uint64_t{0} : 0);
    ClearPadding();
  }

  uint64_t size() const { return size_; }

  bool Get(uint64_t i) const {
    TP_DCHECK(i < size_);
    return (words_[i >> 6] >> (i & 63)) & 1;
  }

  void Set(uint64_t i) {
    TP_DCHECK(i < size_);
    words_[i >> 6] |= uint64_t{1} << (i & 63);
  }

  void Clear(uint64_t i) {
    TP_DCHECK(i < size_);
    words_[i >> 6] &= ~(uint64_t{1} << (i & 63));
  }

  void Assign(uint64_t i, bool value) {
    if (value) {
      Set(i);
    } else {
      Clear(i);
    }
  }

  /// Sets every bit to `value`. O(size/64).
  void Fill(bool value) {
    for (auto& w : words_) w = value ? ~uint64_t{0} : 0;
    ClearPadding();
  }

  /// Number of set bits. O(size/64).
  uint64_t CountSet() const {
    uint64_t count = 0;
    for (uint64_t w : words_) {
      count += static_cast<uint64_t>(__builtin_popcountll(w));
    }
    return count;
  }

  /// First set bit at index >= from, or size() if none.
  uint64_t FindNextSet(uint64_t from) const {
    if (from >= size_) return size_;
    uint64_t word_idx = from >> 6;
    uint64_t word = words_[word_idx] & (~uint64_t{0} << (from & 63));
    while (true) {
      if (word != 0) {
        const uint64_t bit =
            (word_idx << 6) + static_cast<uint64_t>(__builtin_ctzll(word));
        return bit < size_ ? bit : size_;
      }
      if (++word_idx >= words_.size()) return size_;
      word = words_[word_idx];
    }
  }

 private:
  void ClearPadding() {
    if (size_ & 63) {
      words_.back() &= (~uint64_t{0}) >> (64 - (size_ & 63));
    }
  }

  uint64_t size_;
  std::vector<uint64_t> words_;
};

/// Bit array with O(1) "clear all" by flipping the interpretation of set.
/// Usable only when every bit is driven to the set interpretation before the
/// flip (the Dribble-and-Copy-on-Update invariant: each object is flushed or
/// copied exactly once per checkpoint).
class InvertibleBitVector {
 public:
  explicit InvertibleBitVector(uint64_t size)
      : bits_(size, false), set_meaning_(true) {}

  uint64_t size() const { return bits_.size(); }

  bool Get(uint64_t i) const { return bits_.Get(i) == set_meaning_; }

  void Set(uint64_t i) { bits_.Assign(i, set_meaning_); }

  /// Flips the interpretation: every currently-set bit becomes clear. O(1).
  /// Precondition (checked in debug builds): all bits are currently set.
  void InvertInterpretation() {
    TP_DCHECK(bits_.CountSet() == (set_meaning_ ? size() : 0));
    set_meaning_ = !set_meaning_;
  }

  /// True when every bit is set (ready for InvertInterpretation).
  bool AllSet() const {
    return bits_.CountSet() == (set_meaning_ ? size() : 0);
  }

 private:
  BitVector bits_;
  bool set_meaning_;
};

/// Per-object epoch stamps: Get(i) is true iff Set(i) happened since the last
/// ClearAll(). ClearAll is O(1) (epoch bump) until the 32-bit epoch wraps,
/// which triggers one O(n) rewrite every ~4e9 clears.
class EpochVector {
 public:
  explicit EpochVector(uint64_t size) : epochs_(size, 0), current_(1) {}

  uint64_t size() const { return epochs_.size(); }

  bool Get(uint64_t i) const {
    TP_DCHECK(i < epochs_.size());
    return epochs_[i] == current_;
  }

  void Set(uint64_t i) {
    TP_DCHECK(i < epochs_.size());
    epochs_[i] = current_;
  }

  void ClearAll() {
    if (++current_ == 0) {
      std::fill(epochs_.begin(), epochs_.end(), 0);
      current_ = 1;
    }
  }

  /// Number of set entries. O(n); intended for tests and statistics.
  uint64_t CountSet() const {
    uint64_t count = 0;
    for (uint32_t e : epochs_) count += (e == current_);
    return count;
  }

 private:
  std::vector<uint32_t> epochs_;
  uint32_t current_;
};

}  // namespace tickpoint

#endif  // TICKPOINT_UTIL_BITVEC_H_
