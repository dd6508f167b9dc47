//===- tests/test_batch.cpp - Batch/single hashing equivalence ------------===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The batch API's one contract is bit-identity: hashBatch(Keys, Out, N)
/// must produce exactly operator()(Keys[i]) for every i, for every
/// hasher, at every IsaLevel. These property tests sweep all ten
/// HashKinds across all eight paper formats and all three ISA levels,
/// including the edge shapes the interleaved kernels must get right:
/// empty batches, N == 1, and odd N that leaves a remainder after the
/// four-keys-per-iteration main loop.
///
//===----------------------------------------------------------------------===//

#include "driver/hash_registry.h"

#include "core/regex_parser.h"
#include "core/synthesizer.h"
#include "hashes/city.h"
#include "keygen/distributions.h"
#include "runtime/adaptive_hash.h"
#include "support/batch.h"
#include "test_keys.h"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <string_view>
#include <vector>

using namespace sepe;
using sepe::test::PageEndKeys;

namespace {

constexpr std::array<IsaLevel, 3> AllIsaLevels = {
    IsaLevel::Native, IsaLevel::NoBitExtract, IsaLevel::Portable};

const char *isaName(IsaLevel Isa) {
  switch (Isa) {
  case IsaLevel::Native:
    return "Native";
  case IsaLevel::NoBitExtract:
    return "NoBitExtract";
  case IsaLevel::Portable:
    return "Portable";
  }
  return "<invalid>";
}

std::vector<std::string_view> viewsOf(const std::vector<std::string> &Keys) {
  return std::vector<std::string_view>(Keys.begin(), Keys.end());
}

class BatchEquivalence : public ::testing::TestWithParam<PaperKey> {};

TEST_P(BatchEquivalence, AllKindsAllIsaLevelsBitIdentical) {
  const PaperKey Key = GetParam();
  KeyGenerator Gen(paperKeyFormat(Key), KeyDistribution::Uniform,
                   0x5eed + static_cast<uint64_t>(Key));
  // 131 = 32 interleaved groups of 4 plus a remainder of 3.
  const std::vector<std::string> Text = Gen.distinct(131);
  const std::vector<std::string_view> Views = viewsOf(Text);

  for (IsaLevel Isa : AllIsaLevels) {
    const HashFunctionSet Set = HashFunctionSet::create(Key, Isa);
    for (HashKind Kind : AllHashKinds) {
      const std::string Label = std::string(paperKeyName(Key)) + "/" +
                                hashKindName(Kind) + "/" + isaName(Isa);

      // An empty batch must not touch the output buffer.
      uint64_t Guard = 0xdeadbeefdeadbeefULL;
      Set.hashBatch(Kind, Views.data(), &Guard, 0);
      EXPECT_EQ(Guard, 0xdeadbeefdeadbeefULL) << Label;

      // N == 1: below any interleaving width.
      uint64_t One = 0;
      Set.hashBatch(Kind, Views.data(), &One, 1);
      EXPECT_EQ(One, Set.hash(Kind, Views[0])) << Label;

      // Odd N: exercises both the 4-way main loop and its remainder.
      std::vector<uint64_t> Out(Views.size(), 0);
      Set.hashBatch(Kind, Views.data(), Out.data(), Views.size());
      for (size_t I = 0; I != Views.size(); ++I)
        ASSERT_EQ(Out[I], Set.hash(Kind, Views[I]))
            << Label << " key[" << I << "]=" << Text[I];
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllFormats, BatchEquivalence,
                         ::testing::ValuesIn(AllPaperKeys),
                         [](const auto &Info) {
                           return std::string(paperKeyName(Info.param));
                         });

constexpr std::array<BatchPath, 5> AllBatchPaths = {
    BatchPath::Auto, BatchPath::Scalar, BatchPath::Interleaved,
    BatchPath::Avx2, BatchPath::Jit};

class ForcedPathEquivalence : public ::testing::TestWithParam<PaperKey> {};

TEST_P(ForcedPathEquivalence, EveryDispatchRungBitIdentical) {
  // Whatever kernel a preference resolves to on this host — scalar,
  // interleaved, or the AVX2 wide kernels — the batch output must be
  // bit-identical to the scalar single-key evaluator. 131 keys leave a
  // remainder after the 4-key loops.
  const PaperKey Key = GetParam();
  KeyGenerator Gen(paperKeyFormat(Key), KeyDistribution::Uniform,
                   0xf0ced + static_cast<uint64_t>(Key));
  const std::vector<std::string> Text = Gen.distinct(131);
  const std::vector<std::string_view> Views = viewsOf(Text);

  for (IsaLevel Isa : AllIsaLevels) {
    const HashFunctionSet Set = HashFunctionSet::create(Key, Isa);
    for (HashKind Kind : SyntheticHashKinds) {
      const SynthesizedHash &Attached =
          Set.synthesized(syntheticFamily(Kind));
      for (BatchPath Preferred : AllBatchPaths) {
        const SynthesizedHash Forced(Attached.plan(), Isa, Preferred);
        const std::string Label = std::string(paperKeyName(Key)) + "/" +
                                  hashKindName(Kind) + "/" + isaName(Isa) +
                                  "/" + batchPathName(Preferred) + "->" +
                                  Forced.batchPathName();

        uint64_t Guard = 0xdeadbeefdeadbeefULL;
        Forced.hashBatch(Views.data(), &Guard, 0);
        EXPECT_EQ(Guard, 0xdeadbeefdeadbeefULL) << Label;

        for (size_t N : {size_t(1), size_t(3), Views.size()}) {
          std::vector<uint64_t> Out(N, 0);
          Forced.hashBatch(Views.data(), Out.data(), N);
          for (size_t I = 0; I != N; ++I)
            ASSERT_EQ(Out[I], Forced(Views[I]))
                << Label << " N=" << N << " key[" << I << "]=" << Text[I];
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllFormats, ForcedPathEquivalence,
                         ::testing::ValuesIn(AllPaperKeys),
                         [](const auto &Info) {
                           return std::string(paperKeyName(Info.param));
                         });

TEST(BatchDispatchTest, ResolutionRespectsIsaCeiling) {
  // The wide rung only exists at Native; below it a forced Avx2 request
  // must land on a soft path, and a Scalar request always wins.
  for (PaperKey Key : AllPaperKeys) {
    for (IsaLevel Isa : AllIsaLevels) {
      const HashFunctionSet Set = HashFunctionSet::create(Key, Isa);
      for (HashKind Kind : SyntheticHashKinds) {
        const SynthesizedHash &Attached =
            Set.synthesized(syntheticFamily(Kind));
        for (BatchPath Preferred : AllBatchPaths) {
          const SynthesizedHash Forced(Attached.plan(), Isa, Preferred);
          const std::string Resolved = Forced.batchPathName();
          const std::string Label = std::string(paperKeyName(Key)) + "/" +
                                    hashKindName(Kind) + "/" + isaName(Isa);
          EXPECT_TRUE(Resolved == "scalar" || Resolved == "interleaved" ||
                      Resolved == "avx2" || Resolved == "jit")
              << Label << " resolved " << Resolved;
          if (Preferred == BatchPath::Scalar) {
            EXPECT_EQ(Resolved, "scalar") << Label;
          }
          if (Isa != IsaLevel::Native) {
            EXPECT_NE(Resolved, "avx2")
                << Label << ": wide kernels require the Native ceiling";
            EXPECT_NE(Resolved, "jit")
                << Label << ": compiled code requires the Native ceiling";
          }
          // Pext has no wide kernel: a forced Avx2 lands on the
          // interleaved rung, as any pin the host cannot honor does.
          if (Kind == HashKind::Pext && Preferred == BatchPath::Avx2) {
            EXPECT_EQ(Resolved, "interleaved") << Label;
          }
        }
        if (Kind == HashKind::Pext) {
          EXPECT_NE(std::string(Attached.batchPathName()), "avx2")
              << paperKeyName(Key) << "/" << isaName(Isa);
        }
      }
    }
  }
}

TEST(BatchDispatchTest, DegenerateShapesResolveScalar) {
  // FallbackToStl and PartialLoad plans only have the per-key loop; any
  // preference must resolve to it.
  Expected<FormatSpec> Spec = parseRegex(R"(\d{4})");
  ASSERT_TRUE(Spec);
  for (bool AllowShort : {false, true}) {
    SynthesisOptions Options;
    Options.AllowShortKeys = AllowShort;
    Expected<HashPlan> Plan =
        synthesize(Spec->abstract(), HashFamily::OffXor, Options);
    ASSERT_TRUE(Plan);
    ASSERT_TRUE(AllowShort ? Plan->PartialLoad : Plan->FallbackToStl);
    for (BatchPath Preferred : AllBatchPaths) {
      const SynthesizedHash Forced(*Plan, IsaLevel::Native, Preferred);
      EXPECT_EQ(std::string(Forced.batchPathName()), "scalar");
    }
  }
}

TEST(BatchExecutorTest, UnalignedKeyDataBitIdentical) {
  // The wide kernels issue 32- and 16-byte loads at whatever alignment
  // the key data happens to have. Pack copies of each key at stride
  // len+1 inside one arena so the data pointers walk through every
  // alignment class mod 32.
  for (PaperKey Key : {PaperKey::IPv6, PaperKey::INTS, PaperKey::URL1,
                       PaperKey::URL2}) {
    KeyGenerator Gen(paperKeyFormat(Key), KeyDistribution::Uniform,
                     0xa119 + static_cast<uint64_t>(Key));
    const std::vector<std::string> Text = Gen.distinct(67);
    std::string Arena;
    for (const std::string &K : Text) {
      Arena += K;
      Arena.push_back('|');
    }
    std::vector<std::string_view> Views;
    size_t Pos = 0;
    for (const std::string &K : Text) {
      Views.push_back(std::string_view(Arena).substr(Pos, K.size()));
      Pos += K.size() + 1;
    }

    const HashFunctionSet Set = HashFunctionSet::create(Key);
    for (HashKind Kind : SyntheticHashKinds) {
      const SynthesizedHash &Attached =
          Set.synthesized(syntheticFamily(Kind));
      for (BatchPath Preferred : AllBatchPaths) {
        const SynthesizedHash Forced(Attached.plan(), IsaLevel::Native,
                                     Preferred);
        std::vector<uint64_t> Out(Views.size(), 0);
        Forced.hashBatch(Views.data(), Out.data(), Views.size());
        for (size_t I = 0; I != Views.size(); ++I)
          ASSERT_EQ(Out[I], Forced(Views[I]))
              << paperKeyName(Key) << "/" << hashKindName(Kind) << "/"
              << Forced.batchPathName() << " key[" << I << "]";
      }
    }
  }
}

TEST(BatchExecutorTest, PartialLoadPlansBatchLikeSingle) {
  // Forced short-key specialization (RQ7) is not in the registry; check
  // the batch kernels for the partial-load plan shape directly.
  Expected<FormatSpec> Spec = parseRegex(R"(\d{4})");
  ASSERT_TRUE(Spec);
  SynthesisOptions Options;
  Options.AllowShortKeys = true;
  for (HashFamily Family : {HashFamily::Naive, HashFamily::OffXor,
                            HashFamily::Aes, HashFamily::Pext}) {
    Expected<HashPlan> Plan = synthesize(Spec->abstract(), Family, Options);
    ASSERT_TRUE(Plan);
    ASSERT_TRUE(Plan->PartialLoad);
    for (IsaLevel Isa : AllIsaLevels) {
      const SynthesizedHash Hash(*Plan, Isa);
      KeyGenerator Gen(*Spec, KeyDistribution::Uniform, 77);
      const std::vector<std::string> Text = Gen.distinct(21);
      const std::vector<std::string_view> Views = viewsOf(Text);
      std::vector<uint64_t> Out(Views.size());
      Hash.hashBatch(Views.data(), Out.data(), Views.size());
      for (size_t I = 0; I != Views.size(); ++I)
        EXPECT_EQ(Out[I], Hash(Views[I]))
            << familyName(Family) << "/" << isaName(Isa);
    }
  }
}

TEST(BatchExecutorTest, StlFallbackPlansBatchLikeSingle) {
  // Keys under 8 bytes without forced specialization defer to the STL
  // hash; the batch path must defer identically.
  Expected<FormatSpec> Spec = parseRegex(R"(\d{4})");
  ASSERT_TRUE(Spec);
  Expected<HashPlan> Plan = synthesize(Spec->abstract(), HashFamily::OffXor);
  ASSERT_TRUE(Plan);
  ASSERT_TRUE(Plan->FallbackToStl);
  const SynthesizedHash Hash(Plan.take());
  KeyGenerator Gen(*Spec, KeyDistribution::Uniform, 3);
  const std::vector<std::string> Text = Gen.distinct(9);
  const std::vector<std::string_view> Views = viewsOf(Text);
  std::vector<uint64_t> Out(Views.size());
  Hash.hashBatch(Views.data(), Out.data(), Views.size());
  for (size_t I = 0; I != Views.size(); ++I)
    EXPECT_EQ(Out[I], Hash(Views[I]));
}

TEST(BatchAdapterTest, FallbackLoopCoversUnspecializedHashers) {
  // CityHash has no native batch kernel; the support/batch.h adapter
  // must supply the loop-over-single fallback.
  static_assert(!HasNativeBatch<CityHash>);
  static_assert(HasNativeBatch<MurmurStlHash>);
  static_assert(HasNativeBatch<FnvHash>);
  static_assert(HasNativeBatch<SynthesizedHash>);
  static_assert(HasNativeBatch<PerfectHashFunction>);

  const CityHash City;
  const std::vector<std::string> Text = {"alpha", "beta", "gamma-delta",
                                         "epsilon", "z"};
  const std::vector<std::string_view> Views = viewsOf(Text);
  std::vector<uint64_t> Out(Views.size());
  hashBatch(City, Views.data(), Out.data(), Views.size());
  for (size_t I = 0; I != Views.size(); ++I)
    EXPECT_EQ(Out[I], City(Views[I]));
}

// A GuardedHash must agree exactly with the matches() oracle on
// admit/reject, single-key and batch, and with the unguarded operator()
// on every admitted key's image — across every paper format and ISA
// level, with mutated bytes, wrong lengths, chunk-boundary placements,
// and keys that end where an unreadable page begins.

/// Checks \p G against the oracles on \p Views.
void expectAgreesWithOracle(const GuardedHash &G,
                            const std::vector<std::string_view> &Views) {
  const KeyPattern &Pattern = G.pattern();
  std::vector<uint64_t> Out(Views.size(), 0);
  std::vector<uint32_t> MissIdx(Views.size());
  const size_t Misses =
      G.admitBatch(Views.data(), Out.data(), Views.size(), MissIdx.data());
  std::vector<bool> Missed(Views.size(), false);
  for (size_t I = 0; I != Misses; ++I) {
    ASSERT_LT(MissIdx[I], Views.size());
    ASSERT_FALSE(Missed[MissIdx[I]]) << "duplicate miss index";
    if (I != 0) {
      ASSERT_LT(MissIdx[I - 1], MissIdx[I]) << "miss indices increase";
    }
    Missed[MissIdx[I]] = true;
  }
  size_t OracleMisses = 0;
  for (size_t I = 0; I != Views.size(); ++I) {
    const bool InFormat = Pattern.matches(Views[I]);
    OracleMisses += !InFormat;
    uint64_t Image = 0;
    EXPECT_EQ(G.admit(Views[I], Image), InFormat) << "key[" << I << "]";
    EXPECT_EQ(Missed[I], !InFormat) << "key[" << I << "]";
    if (InFormat) {
      EXPECT_EQ(Image, G.hash()(Views[I])) << "key[" << I << "]";
      EXPECT_EQ(Out[I], G.hash()(Views[I])) << "key[" << I << "]";
    }
  }
  EXPECT_EQ(Misses, OracleMisses);
}

class FusedGuardEquivalence : public ::testing::TestWithParam<PaperKey> {
protected:
  /// Runs the oracle check for \p Family at every ISA level, asserting
  /// that the guard fuses exactly when \p Fused.
  void checkFamily(HashFamily Family, bool Fused) {
    const PaperKey Key = GetParam();
    const KeyPattern Pattern = paperKeyFormat(Key).abstract();
    Expected<HashPlan> Plan = synthesize(Pattern, Family);
    ASSERT_TRUE(Plan) << Plan.error().Message;
    const auto Shared = std::make_shared<const HashPlan>(Plan.take());

    KeyGenerator Gen(paperKeyFormat(Key), KeyDistribution::Uniform,
                     0xfeed + static_cast<uint64_t>(Key));
    // 331 keys: several 64-key guard chunks plus a 4-wide remainder.
    std::vector<std::string> Text = Gen.distinct(331);
    // Sprinkle rejections everywhere a kernel lane could mishandle
    // them: mutated bytes at chunk starts/ends, wrong lengths mid-chunk
    // (which demote their whole chunk to the per-key lane), and a
    // constant-prefix violation when the format has uncovered constant
    // positions.
    std::mt19937_64 Rng(99);
    for (const size_t I : {size_t{0}, size_t{63}, size_t{64}, size_t{127},
                           size_t{200}, Text.size() - 1})
      Text[I].back() = '\xff';
    Text[70] += "tail";
    Text[130].pop_back();
    Text[131].clear();
    for (size_t I = 0; I != 40; ++I) {
      std::string &K = Text[Rng() % Text.size()];
      if (!K.empty())
        K[Rng() % K.size()] ^= 0x80;
    }
    const std::vector<std::string_view> Views = viewsOf(Text);

    // Page-end keys: one of every length from 0 to Len + 1 (the prefix
    // of an in-format key, or one with a byte appended), then eight of
    // length Len, alternately in-format and with the drift probe's
    // byte, so the interleaved loop runs at the page end too.
    const std::vector<std::string> Valid = Gen.distinct(8);
    const size_t Len = Pattern.maxLength();
    const DriftProbe Probe = findDriftProbe(Pattern);
    ASSERT_TRUE(Probe.Valid);
    PageEndKeys Pages(Len + 2 + Valid.size());
    std::vector<std::string_view> Lengths, Edge;
    for (size_t L = 0; L <= Len + 1; ++L)
      Lengths.push_back(
          Pages.place(L, L <= Len ? Valid[0].substr(0, L) : Valid[0] + "x"));
    for (size_t I = 0; I != Valid.size(); ++I) {
      std::string K = Valid[I];
      if (I % 2 == 1)
        K[Probe.Pos] = Probe.Byte;
      Edge.push_back(Pages.place(Len + 2 + I, K));
    }

    for (IsaLevel Isa : AllIsaLevels) {
      SCOPED_TRACE(std::string(paperKeyName(Key)) + " " + isaName(Isa));
      const GuardedHash G(SynthesizedHash(Shared, Isa), Pattern);
      ASSERT_EQ(G.fused(), Fused);
      expectAgreesWithOracle(G, Views);
      expectAgreesWithOracle(G, Lengths);
      expectAgreesWithOracle(G, Edge);
    }
  }
};

TEST_P(FusedGuardEquivalence, AgreesWithMembershipOracle) {
  checkFamily(HashFamily::OffXor, /*Fused=*/true);
}

TEST_P(FusedGuardEquivalence, PextAgreesWithMembershipOracle) {
  checkFamily(HashFamily::Pext, /*Fused=*/true);
}

// Aes keeps the two-pass shape: matches(), then the attached kernel.
TEST_P(FusedGuardEquivalence, TwoPassAesAgreesWithMembershipOracle) {
  checkFamily(HashFamily::Aes, /*Fused=*/false);
}

INSTANTIATE_TEST_SUITE_P(AllFormats, FusedGuardEquivalence,
                         ::testing::ValuesIn(AllPaperKeys),
                         [](const auto &Info) {
                           return std::string(paperKeyName(Info.param));
                         });

} // namespace
