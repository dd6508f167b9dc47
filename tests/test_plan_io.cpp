//===- tests/test_plan_io.cpp - Plan serialization -------------------------===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//

#include "core/plan_io.h"

#include "core/executor.h"
#include "core/regex_parser.h"
#include "core/synthesizer.h"
#include "keygen/distributions.h"
#include "keygen/paper_formats.h"

#include <gtest/gtest.h>

using namespace sepe;

namespace {

bool plansEqual(const HashPlan &A, const HashPlan &B) {
  return A.Family == B.Family && A.MinKeyLen == B.MinKeyLen &&
         A.MaxKeyLen == B.MaxKeyLen && A.FixedLength == B.FixedLength &&
         A.FallbackToStl == B.FallbackToStl &&
         A.PartialLoad == B.PartialLoad && A.Bijective == B.Bijective &&
         A.Steps == B.Steps && A.Skip.Skip == B.Skip.Skip &&
         A.Skip.Masks == B.Skip.Masks &&
         A.Skip.TailStart == B.Skip.TailStart &&
         A.FreeBits == B.FreeBits;
}

TEST(PlanIoTest, RoundTripsEveryPaperFormatAndFamily) {
  for (PaperKey Key : AllPaperKeys)
    for (HashFamily Family : {HashFamily::Naive, HashFamily::OffXor,
                              HashFamily::Aes, HashFamily::Pext}) {
      Expected<HashPlan> Plan =
          synthesize(paperKeyFormat(Key).abstract(), Family);
      ASSERT_TRUE(Plan);
      const std::string Text = serializePlan(*Plan);
      Expected<HashPlan> Round = deserializePlan(Text);
      ASSERT_TRUE(Round) << paperKeyName(Key) << "/" << familyName(Family)
                         << ": " << Round.error().Message;
      EXPECT_TRUE(plansEqual(*Plan, *Round))
          << paperKeyName(Key) << "/" << familyName(Family) << "\n"
          << Text;
    }
}

TEST(PlanIoTest, RoundTripsVariableLengthPlans) {
  Expected<FormatSpec> Spec = parseRegex(R"(user-\d{10}(.){0,8})");
  ASSERT_TRUE(Spec);
  for (HashFamily Family : {HashFamily::OffXor, HashFamily::Pext,
                            HashFamily::Aes}) {
    Expected<HashPlan> Plan = synthesize(Spec->abstract(), Family);
    ASSERT_TRUE(Plan);
    Expected<HashPlan> Round = deserializePlan(serializePlan(*Plan));
    ASSERT_TRUE(Round) << Round.error().Message;
    EXPECT_TRUE(plansEqual(*Plan, *Round)) << familyName(Family);
  }
}

TEST(PlanIoTest, RoundTripsFallbackAndPartialPlans) {
  Expected<FormatSpec> Spec = parseRegex(R"(\d{4})");
  ASSERT_TRUE(Spec);
  Expected<HashPlan> Fallback =
      synthesize(Spec->abstract(), HashFamily::OffXor);
  ASSERT_TRUE(Fallback);
  Expected<HashPlan> Round = deserializePlan(serializePlan(*Fallback));
  ASSERT_TRUE(Round);
  EXPECT_TRUE(Round->FallbackToStl);

  SynthesisOptions Force;
  Force.AllowShortKeys = true;
  Expected<HashPlan> Partial =
      synthesize(Spec->abstract(), HashFamily::Pext, Force);
  ASSERT_TRUE(Partial);
  Expected<HashPlan> Round2 = deserializePlan(serializePlan(*Partial));
  ASSERT_TRUE(Round2);
  EXPECT_TRUE(plansEqual(*Partial, *Round2));
}

TEST(PlanIoTest, DeserializedPlanHashesIdentically) {
  // The executor over a round-tripped plan is the same function.
  Expected<HashPlan> Plan = synthesize(
      paperKeyFormat(PaperKey::SSN).abstract(), HashFamily::Pext);
  ASSERT_TRUE(Plan);
  Expected<HashPlan> Round = deserializePlan(serializePlan(*Plan));
  ASSERT_TRUE(Round);
  const SynthesizedHash Original(Plan.take());
  const SynthesizedHash Restored(Round.take());
  KeyGenerator Gen(paperKeyFormat(PaperKey::SSN), KeyDistribution::Uniform,
                   808);
  for (int I = 0; I != 100; ++I) {
    const std::string Key = Gen.next();
    EXPECT_EQ(Original(Key), Restored(Key));
  }
}

TEST(PlanIoTest, SerializedTextIsHumanReadable) {
  Expected<HashPlan> Plan = synthesize(
      paperKeyFormat(PaperKey::SSN).abstract(), HashFamily::Pext);
  ASSERT_TRUE(Plan);
  const std::string Text = serializePlan(*Plan);
  EXPECT_NE(Text.find("sepe-plan v1"), std::string::npos);
  EXPECT_NE(Text.find("family Pext"), std::string::npos);
  EXPECT_NE(Text.find("len 11 11"), std::string::npos);
  EXPECT_NE(Text.find("bijective"), std::string::npos);
  EXPECT_NE(Text.find("step 0 0x0f000f0f000f0f0f 0"), std::string::npos)
      << Text;
}

TEST(PlanIoTest, CommentsAndBlankLinesIgnored) {
  Expected<HashPlan> Plan = synthesize(
      paperKeyFormat(PaperKey::SSN).abstract(), HashFamily::OffXor);
  ASSERT_TRUE(Plan);
  std::string Text = serializePlan(*Plan);
  Text.insert(Text.find('\n') + 1, "# a comment\n\n");
  Expected<HashPlan> Round = deserializePlan(Text);
  ASSERT_TRUE(Round);
  EXPECT_TRUE(plansEqual(*Plan, *Round));
}

TEST(PlanIoTest, RejectsMalformedInput) {
  const std::vector<std::string> Bad = {
      "",
      "not-a-plan\n",
      "sepe-plan v1\n",                                    // incomplete
      "sepe-plan v1\nfamily Bogus\nlen 8 8\n",             // bad family
      "sepe-plan v1\nfamily Pext\nlen 9 3\n",              // min > max
      "sepe-plan v1\nfamily Pext\nlen 8 8\nstep 0 zz 0\n", // bad mask
      "sepe-plan v1\nfamily Pext\nlen 8 8\nstep 0 0x1 99\n", // shift >= 64
      "sepe-plan v1\nfamily Pext\nlen 8 8\nflags wat\n",
      "sepe-plan v1\nfamily Pext\nlen 8 8\nwhatkey 1\n",
      "sepe-plan v1\nfamily Pext\nlen 8 8\n", // fixed without steps
      // A bijective flag the steps do not prove (a 12-bit chunk shifted
      // to bit 60 wraps), and a true bijection that claims not to be.
      "sepe-plan v1\nfamily Pext\nlen 8 8\nflags bijective\nfreebits 12\n"
      "step 0 0xfff 60\n",
      "sepe-plan v1\nfamily Pext\nlen 8 8\nfreebits 12\nstep 0 0xfff 0\n",
      // An offset that only fits after narrowing to 32 bits, and a
      // length past 32 bits.
      "sepe-plan v1\nfamily OffXor\nlen 8 8\nstep 4294967296 0x1 0\n",
      "sepe-plan v1\nfamily OffXor\nlen 8 4294967304\nstep 0 0x1 0\n",
      // A free-bit count, a skip entry and a tail start that each only
      // fit after narrowing to 32 bits (to 12, 8 and 8).
      "sepe-plan v1\nfamily Pext\nlen 8 8\nflags bijective\n"
      "freebits 4294967308\nstep 0 0xfff 0\n",
      "sepe-plan v1\nfamily OffXor\nlen 10 24\nflags variable\nfreebits 96\n"
      "skip 0 4294967304\nskipmasks 0xffffffffffffffff\ntail 8\n",
      "sepe-plan v1\nfamily OffXor\nlen 10 24\nflags variable\nfreebits 96\n"
      "skip 0 8\nskipmasks 0xffffffffffffffff\ntail 4294967304\n",
      // A full load past the minimum key length, and a partial load off
      // offset 0.
      "sepe-plan v1\nfamily OffXor\nlen 11 11\nstep 4 0x1 0\n",
      "sepe-plan v1\nfamily Pext\nlen 5 5\nflags partial\nstep 1 0xf 0\n",
      // Skip-table loads past the minimum key length: one four billion
      // bytes out, and one at offset 4 of an 8-byte key.
      "sepe-plan v1\nfamily OffXor\nlen 8 16\nflags variable\n"
      "skip 4000000000 8\nskipmasks 0xff\n",
      "sepe-plan v1\nfamily OffXor\nlen 8 16\nflags variable\n"
      "skip 4 8\nskipmasks 0xff\n",
  };
  for (const std::string &Text : Bad) {
    Expected<HashPlan> Result = deserializePlan(Text);
    EXPECT_FALSE(Result) << "accepted: " << Text;
  }
}

TEST(PlanIoTest, ErrorsCarryLineNumbers) {
  Expected<HashPlan> Result =
      deserializePlan("sepe-plan v1\nfamily Pext\nlen 8 8\nstep 0 zz 0\n");
  ASSERT_FALSE(Result);
  EXPECT_NE(Result.error().Message.find("line 4"), std::string::npos)
      << Result.error().Message;
}

} // namespace
