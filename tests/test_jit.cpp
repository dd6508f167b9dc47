//===- tests/test_jit.cpp - JIT ≡ interpreter property tests --------------===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The JIT's one contract mirrors the batch API's: compiled code must be
/// bit-identical to the interpreter it replaces, for every family, every
/// paper format, and both entry points (single-key and batch, at every
/// batch size including the empty and tail shapes). The reference lane
/// is a Scalar-pinned SynthesizedHash over the same plan — forced
/// interpreted rungs never take the JIT, so it is exactly the kernel
/// codegen.h mirrors. On top of the equivalence sweep: the W^X smoke
/// (the live mapping is r-x, never writable), dispatch-resolution
/// checks (Auto takes Jit only when host + shape allow, Jit requests
/// resolve downward elsewhere), and the shared-ownership property the
/// RCU retirement story rests on (copies keep the code alive after the
/// original dies).
///
//===----------------------------------------------------------------------===//

#include "core/jit.h"

#include "core/regex_parser.h"
#include "core/synthesizer.h"
#include "driver/hash_registry.h"
#include "keygen/distributions.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

using namespace sepe;

namespace {

std::vector<std::string_view> viewsOf(const std::vector<std::string> &Keys) {
  return std::vector<std::string_view>(Keys.begin(), Keys.end());
}

class JitEquivalence : public ::testing::TestWithParam<PaperKey> {};

TEST_P(JitEquivalence, AllFamiliesBothEntryPointsBitIdentical) {
  const PaperKey Key = GetParam();
  KeyGenerator Gen(paperKeyFormat(Key), KeyDistribution::Uniform,
                   0x717 + static_cast<uint64_t>(Key));
  // 131 = 32 four-wide main-loop iterations plus a 3-key tail.
  const std::vector<std::string> Text = Gen.distinct(131);
  const std::vector<std::string_view> Views = viewsOf(Text);

  const HashFunctionSet Set = HashFunctionSet::create(Key);
  for (HashKind Kind : SyntheticHashKinds) {
    const HashPlan &Plan = Set.synthesized(syntheticFamily(Kind)).plan();
    // The interpreted reference: a forced Scalar rung never upgrades to
    // compiled code.
    const SynthesizedHash Ref(Plan, IsaLevel::Native, BatchPath::Scalar);
    const SynthesizedHash Jitted(Plan, IsaLevel::Native, BatchPath::Jit);
    const std::string Label = std::string(paperKeyName(Key)) + "/" +
                              hashKindName(Kind) + "->" +
                              Jitted.batchPathName();

    if (jitAvailable() && jitSupportsPlan(Plan)) {
      EXPECT_STREQ(Jitted.batchPathName(), "jit") << Label;
      ASSERT_NE(Jitted.jitProgram(), nullptr) << Label;
      EXPECT_GT(Jitted.jitProgram()->codeBytes(), 0u) << Label;
    } else {
      // Unsupported shape or host: the request resolved downward and
      // no program was attached.
      EXPECT_STRNE(Jitted.batchPathName(), "jit") << Label;
      EXPECT_EQ(Jitted.jitProgram(), nullptr) << Label;
    }

    // Single-key entry point.
    for (const std::string_view View : Views)
      ASSERT_EQ(Jitted(View), Ref(View)) << Label << " key=" << View;

    // Batch entry point: empty (output untouched), sub-stride sizes,
    // an exact stride multiple, and the full main-loop + tail shape.
    uint64_t Guard = 0xdeadbeefdeadbeefULL;
    Jitted.hashBatch(Views.data(), &Guard, 0);
    EXPECT_EQ(Guard, 0xdeadbeefdeadbeefULL) << Label;
    for (size_t N : {size_t(1), size_t(3), size_t(4), size_t(5),
                     Views.size()}) {
      std::vector<uint64_t> Got(N, 0), Want(N, 0);
      Jitted.hashBatch(Views.data(), Got.data(), N);
      Ref.hashBatch(Views.data(), Want.data(), N);
      for (size_t I = 0; I != N; ++I)
        ASSERT_EQ(Got[I], Want[I])
            << Label << " N=" << N << " key[" << I << "]=" << Text[I];
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllFormats, JitEquivalence,
                         ::testing::ValuesIn(AllPaperKeys),
                         [](const auto &Info) {
                           return std::string(paperKeyName(Info.param));
                         });

TEST(JitWxTest, MappingIsExecutableNeverWritable) {
  const HashFunctionSet Set = HashFunctionSet::create(PaperKey::SSN);
  const HashPlan &Plan = Set.synthesized(HashFamily::Pext).plan();
  if (!jitAvailable() || !jitSupportsPlan(Plan))
    GTEST_SKIP() << "JIT not available on this host/build";
  const SynthesizedHash Jitted(Plan, IsaLevel::Native, BatchPath::Jit);
  ASSERT_NE(Jitted.jitProgram(), nullptr);
  const uintptr_t Addr =
      reinterpret_cast<uintptr_t>(Jitted.jitProgram()->code());

  // The sealed buffer must show up as r-x: readable, executable, and —
  // the W^X property — not writable. (While being emitted it was rw-;
  // the factory seals before publishing, so no caller can observe a
  // simultaneously writable+executable state.)
  std::ifstream Maps("/proc/self/maps");
  ASSERT_TRUE(Maps.is_open());
  std::string Line;
  bool Found = false;
  while (std::getline(Maps, Line)) {
    unsigned long Start = 0, End = 0;
    char Perms[5] = {0};
    if (std::sscanf(Line.c_str(), "%lx-%lx %4s", &Start, &End, Perms) != 3)
      continue;
    if (Addr < Start || Addr >= End)
      continue;
    Found = true;
    EXPECT_EQ(Perms[0], 'r') << Line;
    EXPECT_EQ(Perms[1], '-') << "writable+executable mapping: " << Line;
    EXPECT_EQ(Perms[2], 'x') << Line;
  }
  EXPECT_TRUE(Found) << "jit mapping not present in /proc/self/maps";
}

TEST(JitDispatchTest, AutoTakesJitOnlyWhenHostAndShapeAllow) {
  for (PaperKey Key : AllPaperKeys) {
    const HashFunctionSet Set = HashFunctionSet::create(Key);
    for (HashKind Kind : SyntheticHashKinds) {
      const HashPlan &Plan = Set.synthesized(syntheticFamily(Kind)).plan();
      const SynthesizedHash Auto(Plan, IsaLevel::Native, BatchPath::Auto);
      const std::string Resolved = Auto.batchPathName();
      const std::string Label =
          std::string(paperKeyName(Key)) + "/" + hashKindName(Kind);
      if (Resolved == "jit") {
        EXPECT_TRUE(jitAvailable() && jitSupportsPlan(Plan)) << Label;
        EXPECT_NE(Auto.jitProgram(), nullptr) << Label;
      } else {
        EXPECT_EQ(Auto.jitProgram(), nullptr) << Label;
      }
      // Hardware-pext plans are exactly the shapes the JIT exists for:
      // under Auto on a capable host they must land on compiled code.
      if (Kind == HashKind::Pext && jitAvailable() && jitSupportsPlan(Plan)) {
        EXPECT_EQ(Resolved, "jit") << Label;
      }

      // Below the Native ceiling the JIT never engages, even forced.
      for (IsaLevel Isa : {IsaLevel::NoBitExtract, IsaLevel::Portable}) {
        const SynthesizedHash Capped(Plan, Isa, BatchPath::Jit);
        EXPECT_STRNE(Capped.batchPathName(), "jit") << Label;
        EXPECT_EQ(Capped.jitProgram(), nullptr) << Label;
      }
    }
  }
}

TEST(JitDispatchTest, UnsupportedShapesResolveDownward) {
  // Variable-length and partial-load shapes have no JIT kernel; a Jit
  // preference must resolve onto the interpreted ladder, not fail.
  for (bool AllowShort : {false, true}) {
    SynthesisOptions Options;
    Options.AllowShortKeys = AllowShort;
    Expected<FormatSpec> Spec = parseRegex(R"(\d{4})");
    ASSERT_TRUE(Spec);
    Expected<HashPlan> Plan =
        synthesize(Spec->abstract(), HashFamily::OffXor, Options);
    ASSERT_TRUE(Plan);
    EXPECT_FALSE(jitSupportsPlan(*Plan));
    const SynthesizedHash Forced(*Plan, IsaLevel::Native, BatchPath::Jit);
    EXPECT_STREQ(Forced.batchPathName(), "scalar");
    EXPECT_EQ(Forced.jitProgram(), nullptr);
  }
}

TEST(JitRcuTest, CopiesKeepCompiledCodeAliveAfterOriginalDies) {
  // The retirement story: retired generations hold SynthesizedHash
  // copies, and those copies must keep the mapping executable. Destroy
  // the original, then hash through the survivor.
  const HashFunctionSet Set = HashFunctionSet::create(PaperKey::SSN);
  const HashPlan &Plan = Set.synthesized(HashFamily::Pext).plan();
  if (!jitAvailable() || !jitSupportsPlan(Plan))
    GTEST_SKIP() << "JIT not available on this host/build";

  KeyGenerator Gen(paperKeyFormat(PaperKey::SSN), KeyDistribution::Uniform,
                   0xa11ce);
  const std::vector<std::string> Text = Gen.distinct(37);
  const std::vector<std::string_view> Views = viewsOf(Text);
  const SynthesizedHash Ref(Plan, IsaLevel::Native, BatchPath::Scalar);

  std::unique_ptr<SynthesizedHash> Original =
      std::make_unique<SynthesizedHash>(Plan, IsaLevel::Native,
                                        BatchPath::Jit);
  ASSERT_NE(Original->jitProgram(), nullptr);
  const SynthesizedHash Survivor = *Original;
  EXPECT_EQ(Survivor.jitProgram(), Original->jitProgram())
      << "copies share one program";
  Original.reset();

  std::vector<uint64_t> Out(Views.size(), 0);
  Survivor.hashBatch(Views.data(), Out.data(), Views.size());
  for (size_t I = 0; I != Views.size(); ++I)
    EXPECT_EQ(Out[I], Ref(Views[I])) << "key[" << I << "]=" << Text[I];
}

} // namespace
