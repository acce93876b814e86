// Edit-distance tests: known values for the OSA variant plus
// property-based metric axioms over randomized packet sequences.
#include "features/edit_distance.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>

namespace sentinel::features {
namespace {

PacketFeatureVector Vec(std::uint32_t tag) {
  PacketFeatureVector v{};
  v[kFeatPacketSize] = tag;
  return v;
}

std::vector<PacketFeatureVector> Seq(std::initializer_list<std::uint32_t> tags) {
  std::vector<PacketFeatureVector> out;
  for (auto t : tags) out.push_back(Vec(t));
  return out;
}

TEST(EditDistance, IdenticalSequencesAreZero) {
  const auto s = Seq({1, 2, 3, 4});
  EXPECT_EQ(EditDistance(s, s), 0u);
}

TEST(EditDistance, EmptyVersusNonEmpty) {
  const auto s = Seq({1, 2, 3});
  EXPECT_EQ(EditDistance({}, s), 3u);
  EXPECT_EQ(EditDistance(s, {}), 3u);
  EXPECT_EQ(EditDistance({}, {}), 0u);
}

TEST(EditDistance, SingleSubstitution) {
  EXPECT_EQ(EditDistance(Seq({1, 2, 3}), Seq({1, 9, 3})), 1u);
}

TEST(EditDistance, SingleInsertionDeletion) {
  EXPECT_EQ(EditDistance(Seq({1, 2, 3}), Seq({1, 2, 3, 4})), 1u);
  EXPECT_EQ(EditDistance(Seq({1, 2, 3, 4}), Seq({1, 3, 4})), 1u);
}

TEST(EditDistance, ImmediateTranspositionCostsOne) {
  // Plain Levenshtein would need 2 operations; Damerau-Levenshtein 1.
  EXPECT_EQ(EditDistance(Seq({1, 2, 3, 4}), Seq({1, 3, 2, 4})), 1u);
}

TEST(EditDistance, ClassicStringExample) {
  // "ca" -> "abc": OSA distance is 3 (the restricted-transposition variant
  // famously differs from unrestricted Damerau-Levenshtein, which gives 2).
  EXPECT_EQ(EditDistance(Seq({3, 1}), Seq({1, 2, 3})), 3u);
}

TEST(EditDistance, CharacterEqualityRequiresAllFeatures) {
  auto a = Vec(100);
  auto b = Vec(100);
  b[kFeatDns] = 1;  // any differing feature makes packets unequal
  EXPECT_EQ(EditDistance(std::vector{a}, std::vector{b}), 1u);
}

TEST(NormalizedEditDistance, DividesByLongerLength) {
  const auto a = Fingerprint::FromPacketVectors(Seq({1, 2, 3, 4}));
  const auto b = Fingerprint::FromPacketVectors(Seq({1, 2}));
  EXPECT_DOUBLE_EQ(NormalizedEditDistance(a, b), 2.0 / 4.0);
}

TEST(NormalizedEditDistance, EmptyPairIsZero) {
  const Fingerprint empty;
  EXPECT_DOUBLE_EQ(NormalizedEditDistance(empty, empty), 0.0);
}

TEST(NormalizedEditDistance, EmptyVersusNonEmptyIsOne) {
  // Inserting every packet of the non-empty side = longer-length edits.
  const Fingerprint empty;
  const auto b = Fingerprint::FromPacketVectors(Seq({1, 2, 3}));
  EXPECT_DOUBLE_EQ(NormalizedEditDistance(empty, b), 1.0);
  EXPECT_DOUBLE_EQ(NormalizedEditDistance(b, empty), 1.0);
}

TEST(NormalizedEditDistance, SinglePacketFingerprints) {
  const auto a = Fingerprint::FromPacketVectors(Seq({7}));
  const auto same = Fingerprint::FromPacketVectors(Seq({7}));
  const auto other = Fingerprint::FromPacketVectors(Seq({8}));
  EXPECT_DOUBLE_EQ(NormalizedEditDistance(a, same), 0.0);
  // One substitution over max length 1: the distance saturates at 1.
  EXPECT_DOUBLE_EQ(NormalizedEditDistance(a, other), 1.0);
}

TEST(NormalizedEditDistance, AllDuplicatePacketsCollapseBeforeComparison) {
  // F removes consecutive duplicates, so an all-duplicate stream is a
  // single-packet fingerprint regardless of its raw length.
  const auto a = Fingerprint::FromPacketVectors(Seq({5, 5, 5, 5, 5, 5}));
  const auto b = Fingerprint::FromPacketVectors(Seq({5, 5}));
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_DOUBLE_EQ(NormalizedEditDistance(a, b), 0.0);
}

TEST(NormalizedEditDistance, NormalizesByLongerDedupedLength) {
  // {1,1,1,1} dedups to {1}; distance to {1,2,3} is 2 insertions over the
  // longer deduped length 3 — the raw (pre-dedup) lengths must not leak in.
  const auto a = Fingerprint::FromPacketVectors(Seq({1, 1, 1, 1}));
  const auto b = Fingerprint::FromPacketVectors(Seq({1, 2, 3}));
  EXPECT_DOUBLE_EQ(NormalizedEditDistance(a, b), 2.0 / 3.0);
}

// ---- Property-based axioms --------------------------------------------------

class EditDistanceProperties : public ::testing::TestWithParam<unsigned> {};

TEST_P(EditDistanceProperties, MetricAxiomsHold) {
  std::mt19937_64 rng(GetParam());
  std::uniform_int_distribution<std::size_t> len_dist(0, 20);
  std::uniform_int_distribution<std::uint32_t> tag_dist(1, 5);

  auto random_seq = [&] {
    std::vector<PacketFeatureVector> s(len_dist(rng));
    for (auto& v : s) v = Vec(tag_dist(rng));
    return s;
  };

  for (int iter = 0; iter < 40; ++iter) {
    const auto a = random_seq();
    const auto b = random_seq();
    const auto c = random_seq();
    const auto dab = EditDistance(a, b);
    const auto dba = EditDistance(b, a);
    // Symmetry.
    EXPECT_EQ(dab, dba);
    // Identity of indiscernibles (one direction).
    EXPECT_EQ(EditDistance(a, a), 0u);
    if (a == b) {
      EXPECT_EQ(dab, 0u);
    }
    // Bounded by the longer length.
    EXPECT_LE(dab, std::max(a.size(), b.size()));
    // At least the length difference.
    EXPECT_GE(dab, a.size() > b.size() ? a.size() - b.size()
                                       : b.size() - a.size());
    // NOTE: OSA famously violates the triangle inequality (e.g. "ca" /
    // "ac" / "abc"), so no triangle axiom is asserted here; the classic
    // counterexample is pinned in ClassicStringExample above.
    (void)c;

    // Normalized version is within [0, 1].
    const auto fa = Fingerprint::FromPacketVectors(a);
    const auto fb = Fingerprint::FromPacketVectors(b);
    const double norm = NormalizedEditDistance(fa, fb);
    EXPECT_GE(norm, 0.0);
    EXPECT_LE(norm, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EditDistanceProperties,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u));

// ---- Bounded / pruned fast path ---------------------------------------------

/// Both sequences interned into one shared table — the form the fast path
/// takes, where id equality is packet equality.
struct InternedPair {
  std::vector<std::uint32_t> a, b;
};

InternedPair InternPair(std::span<const PacketFeatureVector> a,
                        std::span<const PacketFeatureVector> b) {
  PacketInterner table;
  InternedPair ids;
  table.Intern(a, ids.a);
  table.Intern(b, ids.b);
  return ids;
}

/// The pruned distance between two fingerprints, external bounds disabled.
PrunedNormalized Pruned(const Fingerprint& a, const Fingerprint& b,
                        double partial_score, double best_score,
                        EditDistanceScratch& scratch) {
  const auto ids = InternPair(a.packets(), b.packets());
  return PrunedNormalizedEditDistance(
      ids.a, ids.b, 0, std::numeric_limits<std::size_t>::max(), partial_score,
      best_score, scratch);
}

TEST(BoundedEditDistance, AgreesWithReferenceAcrossAllCutoffs) {
  std::mt19937_64 rng(424242);
  std::uniform_int_distribution<std::size_t> len_dist(0, 24);
  std::uniform_int_distribution<std::uint32_t> tag_dist(1, 4);
  EditDistanceScratch scratch;

  auto random_seq = [&] {
    std::vector<PacketFeatureVector> s(len_dist(rng));
    for (auto& v : s) v = Vec(tag_dist(rng));
    return s;
  };

  for (int iter = 0; iter < 60; ++iter) {
    const auto a = random_seq();
    const auto b = random_seq();
    const std::size_t exact = EditDistance(a, b);
    const std::size_t max_len = std::max(a.size(), b.size());
    const auto ids = InternPair(a, b);
    for (std::size_t cutoff = 0; cutoff <= max_len + 2; ++cutoff) {
      const auto bounded = BoundedEditDistance(ids.a, ids.b, cutoff, scratch);
      EXPECT_EQ(bounded.exceeded, exact > cutoff)
          << "exact=" << exact << " cutoff=" << cutoff;
      if (bounded.exceeded) {
        // A certified lower bound above the cutoff.
        EXPECT_GT(bounded.distance, cutoff);
        EXPECT_LE(bounded.distance, exact);
      } else {
        EXPECT_EQ(bounded.distance, exact);
      }
    }
  }
}

TEST(BoundedEditDistance, LengthDifferencePrunesWithoutDpWork) {
  EditDistanceScratch scratch;
  const auto a = Seq({1, 2, 3, 4, 5, 6, 7, 8});
  const auto b = Seq({1, 2});
  const auto ids = InternPair(a, b);
  const auto bounded = BoundedEditDistance(ids.a, ids.b, 3, scratch);
  EXPECT_TRUE(bounded.exceeded);
  EXPECT_EQ(bounded.distance, 6u);  // the exact length difference
}

TEST(PrunedNormalizedEditDistance, InfiniteBestNeverPrunes) {
  std::mt19937_64 rng(9);
  std::uniform_int_distribution<std::size_t> len_dist(0, 18);
  std::uniform_int_distribution<std::uint32_t> tag_dist(1, 5);
  EditDistanceScratch scratch;
  for (int iter = 0; iter < 40; ++iter) {
    std::vector<PacketFeatureVector> sa(len_dist(rng)), sb(len_dist(rng));
    for (auto& v : sa) v = Vec(tag_dist(rng));
    for (auto& v : sb) v = Vec(tag_dist(rng));
    const auto fa = Fingerprint::FromPacketVectors(sa);
    const auto fb = Fingerprint::FromPacketVectors(sb);
    const auto out =
        Pruned(fa, fb, 1.25, std::numeric_limits<double>::infinity(), scratch);
    EXPECT_FALSE(out.pruned);
    EXPECT_EQ(out.value, NormalizedEditDistance(fa, fb));  // bitwise
  }
}

TEST(PrunedNormalizedEditDistance, ExactWhenCompetitiveBoundWhenNot) {
  std::mt19937_64 rng(1717);
  std::uniform_int_distribution<std::size_t> len_dist(1, 18);
  std::uniform_int_distribution<std::uint32_t> tag_dist(1, 4);
  std::uniform_real_distribution<double> partial_dist(0.0, 2.0);
  std::uniform_real_distribution<double> best_dist(0.0, 2.5);
  EditDistanceScratch scratch;
  std::size_t pruned_seen = 0;
  for (int iter = 0; iter < 200; ++iter) {
    std::vector<PacketFeatureVector> sa(len_dist(rng)), sb(len_dist(rng));
    for (auto& v : sa) v = Vec(tag_dist(rng));
    for (auto& v : sb) v = Vec(tag_dist(rng));
    const auto fa = Fingerprint::FromPacketVectors(sa);
    const auto fb = Fingerprint::FromPacketVectors(sb);
    const double exact = NormalizedEditDistance(fa, fb);
    const double partial = partial_dist(rng);
    const double best = best_dist(rng);
    const auto out = Pruned(fa, fb, partial, best, scratch);
    if (out.pruned) {
      ++pruned_seen;
      // Certified: the candidate's running score ends strictly above best
      // whatever the exact distance is, so ties are impossible.
      EXPECT_GT(partial + out.value, best);
      EXPECT_LE(out.value, exact);
      EXPECT_GT(partial + exact, best);
    } else {
      EXPECT_EQ(out.value, exact);  // bitwise
      EXPECT_LE(partial + exact, best);
    }
  }
  EXPECT_GT(pruned_seen, 0u);
}

TEST(PrunedNormalizedEditDistance, ExactTieIsNeverPruned) {
  // d = 2 over longer length 4: normalized 0.5 is exactly representable,
  // so partial 0 + 0.5 == best 0.5 is a true floating-point tie — the
  // pruner must fully evaluate it (the identifier's tie-break coin flip
  // depends on ties surviving).
  EditDistanceScratch scratch;
  const auto fa = Fingerprint::FromPacketVectors(Seq({1, 2, 3, 4}));
  const auto fb = Fingerprint::FromPacketVectors(Seq({1, 9, 8, 4}));
  ASSERT_DOUBLE_EQ(NormalizedEditDistance(fa, fb), 0.5);
  const auto out = Pruned(fa, fb, 0.0, 0.5, scratch);
  EXPECT_FALSE(out.pruned);
  EXPECT_EQ(out.value, 0.5);
  // One representable step below the tie, the same pair must prune.
  const double below =
      std::nextafter(0.5, 0.0);
  const auto pruned = Pruned(fa, fb, 0.0, below, scratch);
  EXPECT_TRUE(pruned.pruned);
  EXPECT_GT(pruned.value, below);
}

TEST(PacketInterner, ReadOnlyInterningPreservesDistances) {
  std::mt19937 rng(604);
  std::uniform_int_distribution<std::uint32_t> tag(0, 5);  // force collisions
  std::uniform_int_distribution<std::size_t> len(0, 14);
  for (int round = 0; round < 200; ++round) {
    std::vector<PacketFeatureVector> reference, probe;
    for (std::size_t i = 0, n = len(rng); i < n; ++i)
      reference.push_back(Vec(tag(rng)));
    for (std::size_t i = 0, n = len(rng); i < n; ++i)
      probe.push_back(Vec(tag(rng)));

    PacketInterner table;
    std::vector<std::uint32_t> reference_ids;
    table.Intern(reference, reference_ids);
    const std::size_t frozen = table.size();

    std::vector<PacketFeatureVector> overflow;
    std::vector<std::uint32_t> probe_ids;
    table.InternReadOnly(probe, overflow, probe_ids);

    // The frozen table is untouched, probe packets unknown to it get ids
    // past its end, and id equality still mirrors packet equality — so the
    // id-level distance equals the packet-level one.
    EXPECT_EQ(table.size(), frozen);
    ASSERT_EQ(probe_ids.size(), probe.size());
    for (std::size_t i = 0; i < probe.size(); ++i) {
      for (std::size_t j = 0; j < reference.size(); ++j) {
        EXPECT_EQ(probe_ids[i] == reference_ids[j],
                  probe[i] == reference[j]);
      }
      for (std::size_t j = 0; j < probe.size(); ++j) {
        EXPECT_EQ(probe_ids[i] == probe_ids[j], probe[i] == probe[j]);
      }
    }
    EditDistanceScratch scratch;
    const std::size_t cutoff = std::max(probe.size(), reference.size());
    const auto ids = BoundedEditDistance(
        std::span<const std::uint32_t>(probe_ids),
        std::span<const std::uint32_t>(reference_ids), cutoff, scratch);
    EXPECT_FALSE(ids.exceeded);
    EXPECT_EQ(ids.distance, EditDistance(probe, reference));
  }
}

TEST(PrunedNormalizedEditDistance, EmptyPairIsZeroAndUnpruned) {
  EditDistanceScratch scratch;
  const Fingerprint empty;
  const auto out = Pruned(empty, empty, 0.3, 0.1, scratch);
  EXPECT_FALSE(out.pruned);
  EXPECT_EQ(out.value, 0.0);
}

// Reference Levenshtein (no transposition) over id sequences, for
// validating the bit-parallel implementation.
std::size_t ReferenceLevenshtein(std::span<const std::uint32_t> a,
                                 std::span<const std::uint32_t> b) {
  std::vector<std::size_t> prev(b.size() + 1), cur(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t cost = a[i - 1] == b[j - 1] ? 0 : 1;
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

std::vector<std::uint32_t> RandomIds(std::mt19937& rng, std::size_t max_len,
                                     std::uint32_t alphabet) {
  std::uniform_int_distribution<std::size_t> len(0, max_len);
  std::uniform_int_distribution<std::uint32_t> sym(0, alphabet - 1);
  std::vector<std::uint32_t> out(len(rng));
  for (auto& id : out) id = sym(rng);
  return out;
}

TEST(MyersDistance, MatchesReferenceLevenshtein) {
  std::mt19937 rng(711);
  EditDistanceScratch scratch;
  for (int round = 0; round < 300; ++round) {
    const auto a = RandomIds(rng, 40, 7);
    const auto b = RandomIds(rng, 40, 7);
    ASSERT_TRUE(BuildMyersPattern(a, 8, scratch));
    EXPECT_EQ(MyersDistance(a.size(), b, scratch),
              ReferenceLevenshtein(a, b));
  }
}

TEST(MyersDistance, IsAnUpperBoundOnOsaDistance) {
  // OSA adds transposition to Levenshtein's operation set, so it can only
  // be cheaper — the property the serve path's cutoff cap relies on.
  std::mt19937 rng(712);
  EditDistanceScratch scratch;
  EditDistanceScratch dp_scratch;
  for (int round = 0; round < 300; ++round) {
    const auto a = RandomIds(rng, 20, 4);
    const auto b = RandomIds(rng, 20, 4);
    ASSERT_TRUE(BuildMyersPattern(a, 4, scratch));
    const std::size_t lev = MyersDistance(a.size(), b, scratch);
    const auto osa = BoundedEditDistance(
        std::span<const std::uint32_t>(a), std::span<const std::uint32_t>(b),
        std::max(a.size(), b.size()), dp_scratch);
    EXPECT_LE(osa.distance, lev);
  }
}

TEST(MyersDistance, PatternsLongerThan64Decline) {
  EditDistanceScratch scratch;
  const std::vector<std::uint32_t> long_ids(65, 1);
  EXPECT_FALSE(BuildMyersPattern(long_ids, 8, scratch));
  EXPECT_FALSE(BuildMyersPatternSparse(long_ids, 8, scratch));
}

TEST(MyersDistance, SparseBuildMatchesDenseAndClearRestoresZeros) {
  std::mt19937 rng(713);
  EditDistanceScratch dense, sparse;
  for (int round = 0; round < 100; ++round) {
    const auto a = RandomIds(rng, 30, 9);
    const auto b = RandomIds(rng, 30, 9);
    ASSERT_TRUE(BuildMyersPattern(a, 16, dense));
    ASSERT_TRUE(BuildMyersPatternSparse(a, 16, sparse));
    EXPECT_EQ(MyersDistance(a.size(), b, sparse),
              MyersDistance(a.size(), b, dense));
    ClearMyersPattern(a, sparse);
    for (const std::uint64_t mask : sparse.peq) EXPECT_EQ(mask, 0u);
  }
}

TEST(PrunedNormalizedEditDistance, SoundBoundsNeverChangeTheValue) {
  // Every sound (lower <= true <= upper) bound pair must give the value
  // the disabled bounds (0, SIZE_MAX) give, including the pinched case
  // lower == upper where no DP runs at all.
  std::mt19937 rng(714);
  EditDistanceScratch scratch;
  std::uniform_real_distribution<double> best(0.0, 1.2);
  for (int round = 0; round < 400; ++round) {
    const auto a = RandomIds(rng, 14, 5);
    const auto b = RandomIds(rng, 14, 5);
    const std::span<const std::uint32_t> sa(a), sb(b);
    const std::size_t longest = std::max(a.size(), b.size());
    const std::size_t exact =
        BoundedEditDistance(sa, sb, longest, scratch).distance;
    const double best_score = best(rng);
    const auto plain = PrunedNormalizedEditDistance(
        sa, sb, 0, std::numeric_limits<std::size_t>::max(), 0.0, best_score,
        scratch);
    // Exercise loose, tight, and pinched bounds around the true distance.
    const std::size_t lowers[] = {0, exact / 2, exact};
    const std::size_t uppers[] = {exact, exact + 1,
                                  std::numeric_limits<std::size_t>::max()};
    for (const std::size_t lower : lowers) {
      for (const std::size_t upper : uppers) {
        const auto bounded = PrunedNormalizedEditDistance(
            sa, sb, lower, upper, 0.0, best_score, scratch);
        EXPECT_EQ(bounded.pruned, plain.pruned);
        EXPECT_EQ(bounded.value, plain.value);
      }
    }
  }
}

TEST(PrunedNormalizedEditDistance, BagBoundIsSoundForOsa) {
  // max(n, m) - |multiset intersection| <= OSA distance: every kept
  // element of an alignment consumes one occurrence from each side, and
  // each unkept element of the longer side costs at least one operation.
  // This is the certificate the identifier's tie-break feeds the bounded
  // overload.
  std::mt19937 rng(715);
  EditDistanceScratch scratch;
  for (int round = 0; round < 400; ++round) {
    const auto a = RandomIds(rng, 16, 4);
    const auto b = RandomIds(rng, 16, 4);
    std::size_t overlap = 0;
    for (std::uint32_t sym = 0; sym < 4; ++sym) {
      overlap += static_cast<std::size_t>(
          std::min(std::count(a.begin(), a.end(), sym),
                   std::count(b.begin(), b.end(), sym)));
    }
    const std::size_t longest = std::max(a.size(), b.size());
    const std::size_t exact =
        BoundedEditDistance(std::span<const std::uint32_t>(a),
                            std::span<const std::uint32_t>(b), longest,
                            scratch)
            .distance;
    EXPECT_LE(longest - overlap, exact);
  }
}

}  // namespace
}  // namespace sentinel::features
