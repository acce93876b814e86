#include "features/edit_distance.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "util/check.h"

namespace sentinel::features {

std::size_t EditDistance(std::span<const PacketFeatureVector> a,
                         std::span<const PacketFeatureVector> b) {
  const std::size_t n = a.size();
  const std::size_t m = b.size();
  if (n == 0) return m;
  if (m == 0) return n;

  // Three-row rolling OSA dynamic program: prev2 = d[i-2], prev = d[i-1],
  // cur = d[i].
  std::vector<std::size_t> prev2(m + 1), prev(m + 1), cur(m + 1);
  for (std::size_t j = 0; j <= m; ++j) prev[j] = j;

  for (std::size_t i = 1; i <= n; ++i) {
    cur[0] = i;
    for (std::size_t j = 1; j <= m; ++j) {
      const std::size_t cost = (a[i - 1] == b[j - 1]) ? 0 : 1;
      cur[j] = std::min({prev[j] + 1,        // deletion
                         cur[j - 1] + 1,     // insertion
                         prev[j - 1] + cost  // substitution
      });
      if (i > 1 && j > 1 && a[i - 1] == b[j - 2] && a[i - 2] == b[j - 1]) {
        cur[j] = std::min(cur[j], prev2[j - 2] + cost);  // transposition
      }
    }
    std::swap(prev2, prev);
    std::swap(prev, cur);
  }
  return prev[m];
}

double NormalizedEditDistance(const Fingerprint& a, const Fingerprint& b) {
  const std::size_t longest = std::max(a.size(), b.size());
  if (longest == 0) return 0.0;
  const std::size_t d = EditDistance(a.packets(), b.packets());
  // The OSA distance is bounded by the longer sequence length, so the
  // normalized value the tie-breaker ranks on is always in [0, 1].
  SENTINEL_CHECK(d <= longest)
      << "edit distance " << d << " exceeds longer fingerprint length "
      << longest;
  return static_cast<double>(d) / static_cast<double>(longest);
}

namespace {

constexpr std::uint32_t kEmptySlot = 0xffffffffu;

std::uint64_t HashPacket(const PacketFeatureVector& packet) {
  // FNV-1a over the feature words: equal packets hash equal, and every
  // index hit is still verified by full packet equality, so hash quality
  // only affects probe length, never ids.
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint32_t value : packet) {
    h = (h ^ value) * 0x100000001b3ull;
  }
  return h;
}

}  // namespace

void PacketInterner::Intern(std::span<const PacketFeatureVector> packets,
                            std::vector<std::uint32_t>& out) {
  // Growing the table invalidates any previously built index.
  slots_.clear();
  slot_mask_ = 0;
  out.clear();
  out.reserve(packets.size());
  for (const auto& packet : packets) {
    std::uint32_t id = 0;
    for (; id < keys_.size(); ++id) {
      if (keys_[id] == packet) break;
    }
    if (id == keys_.size()) keys_.push_back(packet);
    out.push_back(id);
  }
}

void PacketInterner::Freeze() {
  slots_.clear();
  slot_mask_ = 0;
  if (keys_.empty()) return;
  std::size_t capacity = 8;
  while (capacity < keys_.size() * 2) capacity *= 2;
  slots_.assign(capacity, kEmptySlot);
  slot_mask_ = static_cast<std::uint32_t>(capacity - 1);
  for (std::uint32_t id = 0; id < keys_.size(); ++id) {
    std::uint32_t slot =
        static_cast<std::uint32_t>(HashPacket(keys_[id])) & slot_mask_;
    while (slots_[slot] != kEmptySlot) slot = (slot + 1) & slot_mask_;
    slots_[slot] = id;
  }
}

std::uint32_t PacketInterner::LookupLinear(
    const PacketFeatureVector& packet) const {
  std::uint32_t id = 0;
  for (; id < keys_.size(); ++id) {
    if (keys_[id] == packet) break;
  }
  return id;  // keys_.size() when absent
}

std::uint32_t PacketInterner::LookupIndexed(
    const PacketFeatureVector& packet) const {
  std::uint32_t slot =
      static_cast<std::uint32_t>(HashPacket(packet)) & slot_mask_;
  while (true) {
    const std::uint32_t id = slots_[slot];
    if (id == kEmptySlot) return static_cast<std::uint32_t>(keys_.size());
    if (keys_[id] == packet) return id;
    slot = (slot + 1) & slot_mask_;
  }
}

void PacketInterner::InternReadOnly(
    std::span<const PacketFeatureVector> packets,
    std::vector<PacketFeatureVector>& overflow,
    std::vector<std::uint32_t>& out) const {
  overflow.clear();
  out.clear();
  out.reserve(packets.size());
  const std::uint32_t table = static_cast<std::uint32_t>(keys_.size());
  const bool indexed = !slots_.empty();
  for (const auto& packet : packets) {
    const std::uint32_t id =
        indexed ? LookupIndexed(packet) : LookupLinear(packet);
    if (id < table) {
      out.push_back(id);
      continue;
    }
    // Unknown to the frozen table: id past its end, equal unknown packets
    // mapped to one id so id equality stays equivalent to packet equality.
    std::uint32_t extra = 0;
    for (; extra < overflow.size(); ++extra) {
      if (overflow[extra] == packet) break;
    }
    if (extra == overflow.size()) overflow.push_back(packet);
    out.push_back(table + extra);
  }
}

bool BuildMyersPattern(std::span<const std::uint32_t> ids,
                       std::size_t id_space, EditDistanceScratch& scratch) {
  if (ids.size() > 64) return false;
  scratch.peq.assign(id_space, 0);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] < id_space) scratch.peq[ids[i]] |= std::uint64_t{1} << i;
  }
  return true;
}

bool BuildMyersPatternSparse(std::span<const std::uint32_t> ids,
                             std::size_t id_space,
                             EditDistanceScratch& scratch) {
  if (ids.size() > 64) return false;
  if (scratch.peq.size() < id_space) scratch.peq.resize(id_space, 0);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] < id_space) scratch.peq[ids[i]] |= std::uint64_t{1} << i;
  }
  return true;
}

void ClearMyersPattern(std::span<const std::uint32_t> ids,
                       EditDistanceScratch& scratch) {
  for (const std::uint32_t id : ids) {
    if (id < scratch.peq.size()) scratch.peq[id] = 0;
  }
}

std::size_t MyersDistance(std::size_t pattern_length,
                          std::span<const std::uint32_t> text,
                          const EditDistanceScratch& scratch) {
  const std::size_t n = pattern_length;
  if (n == 0) return text.size();
  SENTINEL_CHECK(n <= 64) << "Myers pattern length " << n << " exceeds 64";
  // Myers 1999 bit-vector Levenshtein as formulated by Hyyro 2001: Pv/Mv
  // track the +1/-1 vertical deltas of the current DP column; score is the
  // column's last cell, i.e. d(pattern, text[0..j]).
  std::uint64_t pv = ~std::uint64_t{0};
  std::uint64_t mv = 0;
  std::size_t score = n;
  const std::uint64_t high = std::uint64_t{1} << (n - 1);
  for (const std::uint32_t c : text) {
    const std::uint64_t eq = c < scratch.peq.size() ? scratch.peq[c] : 0;
    const std::uint64_t xv = eq | mv;
    const std::uint64_t xh = (((eq & pv) + pv) ^ pv) | eq;
    std::uint64_t ph = mv | ~(xh | pv);
    std::uint64_t mh = pv & xh;
    if (ph & high) {
      ++score;
    } else if (mh & high) {
      --score;
    }
    ph = (ph << 1) | 1;
    mh <<= 1;
    pv = mh | ~(xv | ph);
    mv = ph & xv;
  }
  return score;
}

BoundedDistance BoundedEditDistance(std::span<const std::uint32_t> a,
                                    std::span<const std::uint32_t> b,
                                    std::size_t cutoff,
                                    EditDistanceScratch& scratch) {
  const std::size_t n = a.size();
  const std::size_t m = b.size();
  if (n == 0) return {m, m > cutoff};
  if (m == 0) return {n, n > cutoff};
  // Length-difference lower bound: every alignment needs at least
  // |n - m| insertions or deletions.
  const std::size_t diff = n > m ? n - m : m - n;
  if (diff > cutoff) return {diff, true};

  // Banded three-row OSA program. kInf marks cells outside the |i-j| <=
  // cutoff band: their true distance is >= |i-j| > cutoff, so clamping
  // them to cutoff+1 preserves exactness for any result <= cutoff (values
  // along a DP path never decrease, so a path through a clamped cell ends
  // > cutoff and is never selected when the true distance is in band).
  const std::size_t kInf = cutoff + 1;
  scratch.prev2.assign(m + 1, kInf);
  scratch.prev.assign(m + 1, kInf);
  scratch.cur.assign(m + 1, kInf);
  auto& prev2 = scratch.prev2;
  auto& prev = scratch.prev;
  auto& cur = scratch.cur;
  for (std::size_t j = 0; j <= std::min(m, cutoff); ++j) prev[j] = j;
  std::size_t prev_min = 0;

  for (std::size_t i = 1; i <= n; ++i) {
    const std::size_t lo = i > cutoff ? i - cutoff : 1;
    const std::size_t hi = std::min(m, i + cutoff);
    cur[0] = i <= cutoff ? i : kInf;
    // Band edges the recurrence may read before they are written this
    // round (insertion at j = lo, and the next rows' prev/prev2 reads just
    // outside their own windows) are pinned to the out-of-band sentinel.
    if (lo > 1) cur[lo - 1] = kInf;
    std::size_t row_min = cur[0];
    for (std::size_t j = lo; j <= hi; ++j) {
      const std::size_t cost = (a[i - 1] == b[j - 1]) ? 0 : 1;
      std::size_t v = std::min({prev[j] + 1,        // deletion
                                cur[j - 1] + 1,     // insertion
                                prev[j - 1] + cost  // substitution
      });
      if (i > 1 && j > 1 && a[i - 1] == b[j - 2] && a[i - 2] == b[j - 1]) {
        v = std::min(v, prev2[j - 2] + cost);  // transposition
      }
      v = std::min(v, kInf);
      cur[j] = v;
      row_min = std::min(row_min, v);
    }
    if (hi < m) cur[hi + 1] = kInf;
    // Every cell of a later row is a min over this row and the previous
    // one plus non-negative costs (same-row chains ground at the column-0
    // head, itself > cutoff once i > cutoff), so two consecutive all-
    // exceeding rows certify the final distance exceeds the cutoff.
    if (row_min > cutoff && prev_min > cutoff) return {kInf, true};
    prev_min = row_min;
    std::swap(prev2, prev);
    std::swap(prev, cur);
  }
  const std::size_t d = prev[m];
  return {d, d > cutoff};
}

PrunedNormalized PrunedNormalizedEditDistance(std::span<const std::uint32_t> a,
                                              std::span<const std::uint32_t> b,
                                              std::size_t external_lower_bound,
                                              std::size_t external_upper_bound,
                                              double partial_score,
                                              double best_score,
                                              EditDistanceScratch& scratch) {
  const std::size_t longest = std::max(a.size(), b.size());
  if (longest == 0) return {0.0, false};
  const double denominator = static_cast<double>(longest);
  // useful(d): could an exact distance of d still keep the candidate's
  // score at or below best (a win or a tie)? Evaluated with the exact
  // floating-point expressions the caller's accumulation performs —
  // division and addition are monotone in d, so the predicate is monotone
  // and the pruning decision is certain, not approximate.
  const auto useful = [&](std::size_t d) {
    return partial_score + static_cast<double>(d) / denominator <= best_score;
  };
  std::size_t cutoff;
  if (!(best_score < std::numeric_limits<double>::infinity())) {
    cutoff = longest;  // no best yet — full, exact computation
  } else if (!useful(0)) {
    // Even a zero distance leaves the candidate above best: skip the
    // computation entirely (the returned 0 keeps the caller's running
    // score unchanged, which is already certified above best).
    return {0.0, true};
  } else {
    // Seed at the real-arithmetic crossover, then settle onto the largest
    // useful distance with the exact predicate (at most a step or two).
    double guess = (best_score - partial_score) * denominator;
    if (!(guess >= 0.0)) guess = 0.0;
    if (guess > denominator) guess = denominator;
    cutoff = static_cast<std::size_t>(guess);
    while (cutoff < longest && useful(cutoff + 1)) ++cutoff;
    while (cutoff > 0 && !useful(cutoff)) --cutoff;
  }
  // A caller-certified lower bound above the cutoff decides pruning
  // without running the DP: the true distance is >= bound >= cutoff + 1,
  // which is exactly the certificate the banded program's early-out
  // reports. A sound bound never exceeds longest, so when pruning is
  // disabled (cutoff == longest) this branch cannot fire.
  if (external_lower_bound > cutoff) {
    return {static_cast<double>(cutoff + 1) /
                static_cast<double>(longest),
            true};
  }
  // Pinched bounds determine the distance outright: lower == upper means
  // the true distance IS that value, and it is <= cutoff (the lower-bound
  // branch above did not fire), so the banded program would have returned
  // exactly this.
  if (external_lower_bound == external_upper_bound &&
      external_upper_bound <= longest) {
    return {static_cast<double>(external_upper_bound) / denominator, false};
  }
  // A certified upper bound below the budget cutoff narrows the band to
  // the true distance's width: the result is in band by construction, so
  // the program below returns the exact distance either way.
  const std::size_t run_cutoff = std::min(cutoff, external_upper_bound);
  const BoundedDistance bounded =
      BoundedEditDistance(a, b, run_cutoff, scratch);
  SENTINEL_CHECK(!bounded.exceeded || run_cutoff == cutoff)
      << "banded program exceeded a certified upper bound " << run_cutoff;
  if (!bounded.exceeded) {
    SENTINEL_CHECK(bounded.distance <= longest)
        << "edit distance " << bounded.distance
        << " exceeds longer fingerprint length " << longest;
    return {static_cast<double>(bounded.distance) / denominator, false};
  }
  // True distance >= cutoff + 1 and useful(cutoff + 1) is false, so the
  // candidate's score stays strictly above best whatever the exact value
  // is; report the certified normalized lower bound.
  return {static_cast<double>(cutoff + 1) / denominator, true};
}

}  // namespace sentinel::features
