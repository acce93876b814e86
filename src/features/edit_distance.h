// Damerau-Levenshtein edit distance over packet sequences (paper
// Sect. IV-B2): fingerprints F are compared as words whose characters are
// whole packet feature vectors; two characters are equal iff all 23
// features match. The variant implemented is optimal string alignment
// (insertion, deletion, substitution, immediate transposition), exactly the
// operation set the paper lists.
//
// Two implementations share the recurrence:
//  - EditDistance / NormalizedEditDistance: the reference full dynamic
//    program over packets (allocates its rows per call), kept as the
//    oracle the fast path is tested against.
//  - BoundedEditDistance / PrunedNormalizedEditDistance: the fast path the
//    identifier's tie-break runs, over interned packet ids (see
//    PacketInterner) — a length-difference lower bound plus Ukkonen band
//    pruning around the diagonal (cells with |i - j| > cutoff cannot lie
//    on any alignment of cost <= cutoff because d(i, j) >= |i - j|), with
//    caller-owned scratch rows so repeated calls allocate nothing. When
//    the distance is within the cutoff the banded program returns the
//    exact value (bit-identical to the reference); otherwise it reports
//    "exceeded" with a certified lower bound, which is what lets the
//    tie-break skip reference fingerprints that cannot beat the current
//    best candidate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "features/fingerprint.h"

namespace sentinel::features {

/// Absolute OSA edit distance between two packet sequences.
std::size_t EditDistance(std::span<const PacketFeatureVector> a,
                         std::span<const PacketFeatureVector> b);

/// Distance normalized by the length of the longer sequence, in [0, 1].
/// Two empty fingerprints have distance 0.
double NormalizedEditDistance(const Fingerprint& a, const Fingerprint& b);

/// Reusable dynamic-program rows for the bounded edit distance. One
/// workspace per thread; repeated calls reuse the grown capacity.
struct EditDistanceScratch {
  std::vector<std::size_t> prev2, prev, cur;
  /// Interned id forms of the two sequences (see PacketInterner).
  std::vector<std::uint32_t> ids_a, ids_b;
  /// Distinct unknown packets met during a read-only intern.
  std::vector<PacketFeatureVector> overflow;
  /// Per-id bit masks for the Myers pattern (see BuildMyersPattern).
  std::vector<std::uint64_t> peq;
};

/// Bit-parallel Levenshtein pattern: one position mask per id of the
/// pattern sequence. Because OSA only adds an operation (transposition)
/// to Levenshtein's set, Lev(a, b) is a certified UPPER bound on the OSA
/// distance — the identifier's tie-break uses it to cap the banded OSA
/// program's cutoff, shrinking the band to the true distance's width while
/// keeping the in-band result exact.
///
/// Builds masks for `ids` (at most 64 elements) over the id space
/// [0, id_space); ids >= id_space are permitted in the pattern (they
/// simply never match any text id below id_space). Reuses scratch.peq.
/// Returns false (leaving scratch untouched) when ids.size() > 64.
bool BuildMyersPattern(std::span<const std::uint32_t> ids,
                       std::size_t id_space, EditDistanceScratch& scratch);

/// Sparse build for large id spaces: instead of zeroing all of peq it
/// relies on peq being all-zero at entry (the state ClearMyersPattern
/// restores), grows it zero-filled to id_space if needed, and ORs in only
/// the pattern ids' bits — O(|ids|) once peq has reached the space's
/// size. Callers must pair every successful build with a
/// ClearMyersPattern over the same ids before the next sparse build.
/// Returns false (leaving peq untouched) when ids.size() > 64.
bool BuildMyersPatternSparse(std::span<const std::uint32_t> ids,
                             std::size_t id_space,
                             EditDistanceScratch& scratch);

/// Zeroes the pattern ids' masks, restoring the all-zero invariant
/// BuildMyersPatternSparse depends on.
void ClearMyersPattern(std::span<const std::uint32_t> ids,
                       EditDistanceScratch& scratch);

/// Exact Levenshtein distance between the pattern prepared by the last
/// BuildMyersPattern on `scratch` (length `pattern_length`, which must
/// match) and `text`, whose ids must all lie below the id_space the
/// pattern was built with. O(|text|) word operations (Myers 1999 /
/// Hyyro 2001).
std::size_t MyersDistance(std::size_t pattern_length,
                          std::span<const std::uint32_t> text,
                          const EditDistanceScratch& scratch);

/// Maps packet feature vectors to dense ids such that two packets get the
/// same id iff they are equal — after interning, the edit-distance DP
/// compares single integers per cell instead of 23-word arrays (three
/// array comparisons per cell once transpositions are checked), without
/// changing any distance. Lookup is a linear scan: fingerprints hold at
/// most a few dozen distinct packets, where a scan over contiguous keys
/// beats hashing.
class PacketInterner {
 public:
  void Clear() {
    keys_.clear();
    slots_.clear();
    slot_mask_ = 0;
  }
  /// Appends unknown packets to the key table and writes one id per input
  /// packet. Ids from earlier Intern() calls on the same (un-Cleared)
  /// table stay valid and comparable. Invalidates a previous Freeze().
  void Intern(std::span<const PacketFeatureVector> packets,
              std::vector<std::uint32_t>& out);
  /// Builds an open-addressing hash index over the current key table so
  /// InternReadOnly does one expected-O(1) probe per packet instead of a
  /// linear scan over the keys. Ids are unchanged (every index hit is
  /// verified by full packet equality against the key it points at), so
  /// freezing is purely an access-path optimization. Call again after any
  /// further Intern().
  void Freeze();
  /// Lookup-only interning against the frozen table (the identifier
  /// pre-interns every type's references into one table at bank-build
  /// time, then interns each probe this way once — const, so concurrent
  /// probes can share the table). Packets absent from the table get
  /// consistent ids past its end, deduplicated through the caller's
  /// `overflow` scratch.
  void InternReadOnly(std::span<const PacketFeatureVector> packets,
                      std::vector<PacketFeatureVector>& overflow,
                      std::vector<std::uint32_t>& out) const;
  [[nodiscard]] std::size_t size() const { return keys_.size(); }
  [[nodiscard]] bool frozen() const { return !slots_.empty(); }
  [[nodiscard]] std::size_t MemoryBytes() const {
    return keys_.capacity() * sizeof(PacketFeatureVector) +
           slots_.capacity() * sizeof(std::uint32_t);
  }

 private:
  [[nodiscard]] std::uint32_t LookupLinear(
      const PacketFeatureVector& packet) const;
  [[nodiscard]] std::uint32_t LookupIndexed(
      const PacketFeatureVector& packet) const;

  std::vector<PacketFeatureVector> keys_;
  /// Open-addressing index over keys_ (power-of-two size, linear probing,
  /// kEmptySlot marks free). Empty until Freeze().
  std::vector<std::uint32_t> slots_;
  std::uint32_t slot_mask_ = 0;
};

struct BoundedDistance {
  /// Exact OSA distance when !exceeded (bit-identical to EditDistance);
  /// a certified lower bound on it when exceeded.
  std::size_t distance = 0;
  /// True iff the true distance is > cutoff.
  bool exceeded = false;
};

/// Banded OSA distance over interned id sequences: exact for distances <=
/// cutoff, early-out otherwise. cutoff >= max(a.size, b.size) degenerates
/// to the full (always-exact) program. Both spans must have been interned
/// against one shared PacketInterner table, making id equality equivalent
/// to packet equality — the returned distance is then identical to
/// EditDistance over the packets.
BoundedDistance BoundedEditDistance(std::span<const std::uint32_t> a,
                                    std::span<const std::uint32_t> b,
                                    std::size_t cutoff,
                                    EditDistanceScratch& scratch);

struct PrunedNormalized {
  /// !pruned: bit-identical to NormalizedEditDistance(a, b). pruned: a
  /// certified lower bound L on it such that fl(partial_score + L) >
  /// best_score under the caller's left-to-right summation — adding it to
  /// the candidate's running score provably keeps the candidate above the
  /// best score, ties included.
  double value = 0.0;
  bool pruned = false;
};

/// Normalized edit distance with tie-break budget pruning, over id
/// sequences interned against one shared PacketInterner table (references
/// via Intern, the probe via InternReadOnly); id sequences preserve
/// lengths, so normalization divides by the same longer length.
///
/// The caller is accumulating `partial_score` (sum of earlier reference
/// distances, all >= 0) for a candidate competing against `best_score`;
/// this reference can only matter if the candidate's final score could
/// still be <= best_score. The cutoff translation into the integer
/// distance domain is done with the exact floating-point comparisons the
/// caller will perform (monotone in the distance), so the pruning decision
/// is certain: a pruned reference could never have produced a score <=
/// best_score, and in particular never a tie (the identifier's tie-break
/// RNG stream is therefore unchanged). Every non-pruned value is
/// bit-identical to NormalizedEditDistance. best_score = +infinity
/// disables pruning.
///
/// It also takes two caller-certified bounds on the absolute
/// (unnormalized) distance:
/// - a LOWER bound, e.g. the bag bound max(n, m) - |multiset
///   intersection|, valid for OSA because every kept element of an
///   alignment consumes one occurrence from each side while insertions
///   and substitutions each cost 1. When it alone already exceeds the
///   budget-derived cutoff the DP is skipped entirely and the same
///   certified normalized bound the banded program would report is
///   returned. Pass 0 to disable.
/// - an UPPER bound, e.g. the Levenshtein distance from MyersDistance,
///   which OSA can only improve on. The banded program's cutoff is capped
///   at it — the true distance is in band by construction, so the band
///   narrows to the distance's actual width with the result still exact.
///   Pass SIZE_MAX to disable.
/// Unsound bounds (lower or upper on the wrong side of the true distance)
/// would break the pruning certificate — callers own that proof.
PrunedNormalized PrunedNormalizedEditDistance(std::span<const std::uint32_t> a,
                                              std::span<const std::uint32_t> b,
                                              std::size_t external_lower_bound,
                                              std::size_t external_upper_bound,
                                              double partial_score,
                                              double best_score,
                                              EditDistanceScratch& scratch);

}  // namespace sentinel::features
