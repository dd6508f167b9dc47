//===- tests/integration_tools_cli.cpp - keybuilder / keysynth CLI --------===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exercises the two command-line tools end to end, reproducing the
/// Figure 5 tutorial: keybuilder infers a regex from example keys, and
/// keysynth turns the regex into compilable C++.
///
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <string>

namespace {

std::string binaryPath(const std::string &Tool) {
  return std::string(SEPE_BINARY_DIR) + "/src/" + Tool;
}

/// Runs \p Command, captures stdout, stores the exit code.
std::string runCommand(const std::string &Command, int &ExitCode) {
  std::string Output;
  FILE *Pipe = popen(Command.c_str(), "r");
  if (Pipe == nullptr) {
    ExitCode = -1;
    return Output;
  }
  std::array<char, 4096> Buffer;
  size_t Count;
  while ((Count = fread(Buffer.data(), 1, Buffer.size(), Pipe)) > 0)
    Output.append(Buffer.data(), Count);
  ExitCode = pclose(Pipe);
  return Output;
}

TEST(ToolsCliTest, KeybuilderInfersIpv4Regex) {
  const std::string KeysFile = ::testing::TempDir() + "/ipv4_keys.txt";
  {
    std::ofstream Out(KeysFile);
    Out << "192.168.001.042\n"
        << "010.000.255.001\n"
        << "127.000.000.001\n"
        << "555.555.555.555\n";
  }
  int ExitCode = 0;
  const std::string Regex =
      runCommand(binaryPath("keybuilder") + " " + KeysFile, ExitCode);
  EXPECT_EQ(ExitCode, 0);
  EXPECT_NE(Regex.find("{3}"), std::string::npos) << Regex;
  EXPECT_NE(Regex.find("\\."), std::string::npos) << Regex;
}

TEST(ToolsCliTest, KeybuilderReadsStdin) {
  int ExitCode = 0;
  const std::string Regex = runCommand(
      "printf 'JFK\\nLaX\\nGRu\\n' | " + binaryPath("keybuilder"),
      ExitCode);
  EXPECT_EQ(ExitCode, 0);
  EXPECT_FALSE(Regex.empty());
}

TEST(ToolsCliTest, KeybuilderFailsOnEmptyInput) {
  int ExitCode = 0;
  runCommand("printf '' | " + binaryPath("keybuilder") + " 2>/dev/null",
             ExitCode);
  EXPECT_NE(ExitCode, 0);
}

TEST(ToolsCliTest, KeysynthEmitsAllFourFamilies) {
  int ExitCode = 0;
  const std::string Code = runCommand(
      binaryPath("keysynth") + " '(([0-9]{3})\\.){3}[0-9]{3}'", ExitCode);
  EXPECT_EQ(ExitCode, 0);
  for (const char *Name : {"SepeNaiveHash", "SepeOffXorHash", "SepeAesHash",
                           "SepePextHash"})
    EXPECT_NE(Code.find(Name), std::string::npos) << Name;
}

TEST(ToolsCliTest, KeysynthSingleFamilyWithOptions) {
  int ExitCode = 0;
  const std::string Code = runCommand(
      binaryPath("keysynth") +
          " --family=pext --target=aarch64 --name=JetsonHash"
          " '\\d{3}-\\d{2}-\\d{4}'",
      ExitCode);
  EXPECT_EQ(ExitCode, 0);
  EXPECT_NE(Code.find("struct JetsonHash"), std::string::npos);
  EXPECT_NE(Code.find("sepe_pext_soft"), std::string::npos)
      << "the paper's Jetson has no bext: expect the soft gather";
  EXPECT_EQ(Code.find("SepeNaiveHash"), std::string::npos);
}

TEST(ToolsCliTest, KeysynthRejectsBadRegex) {
  int ExitCode = 0;
  runCommand(binaryPath("keysynth") + " 'a*' 2>/dev/null", ExitCode);
  EXPECT_NE(ExitCode, 0);
}

TEST(ToolsCliTest, PipelineKeybuilderIntoKeysynth) {
  // Figure 5a: keysynth "$(keybuilder < file_with_keys.txt)".
  const std::string KeysFile = ::testing::TempDir() + "/ssn_keys.txt";
  {
    std::ofstream Out(KeysFile);
    Out << "000-00-0000\n555-55-5555\n123-45-6789\n";
  }
  int ExitCode = 0;
  const std::string Code = runCommand(
      binaryPath("keysynth") + " \"$(" + binaryPath("keybuilder") + " < " +
          KeysFile + ")\"",
      ExitCode);
  EXPECT_EQ(ExitCode, 0);
  EXPECT_NE(Code.find("SepePextHash"), std::string::npos);
}

TEST(ToolsCliTest, PlanOutPlanInRoundTripsTheGeneratedCode) {
  const std::string PlanStem = ::testing::TempDir() + "/ssn_plan";
  int ExitCode = 0;
  const std::string Direct = runCommand(
      binaryPath("keysynth") + " --family=pext --plan-out=" + PlanStem +
          " '\\d{3}-\\d{2}-\\d{4}'",
      ExitCode);
  ASSERT_EQ(ExitCode, 0);
  const std::string FromPlan = runCommand(
      binaryPath("keysynth") + " --plan-in=" + PlanStem + ".Pext",
      ExitCode);
  ASSERT_EQ(ExitCode, 0);
  EXPECT_EQ(Direct, FromPlan)
      << "plan round trip must regenerate identical code";
}

TEST(ToolsCliTest, PlanInRejectsGarbage) {
  const std::string Path = ::testing::TempDir() + "/garbage_plan";
  {
    std::ofstream Out(Path);
    Out << "this is not a plan\n";
  }
  int ExitCode = 0;
  runCommand(binaryPath("keysynth") + " --plan-in=" + Path +
                 " 2>/dev/null",
             ExitCode);
  EXPECT_NE(ExitCode, 0);
}

TEST(ToolsCliTest, MphfBuildSerializeLoadExplainRoundTrips) {
  // Static-set tier CLI loop: build an MPHF over a key file (the regex
  // supplies the extraction front-end), store it, reload it, and check
  // the reloaded plan renders identically.
  const std::string KeysFile = ::testing::TempDir() + "/mphf_keys.txt";
  {
    std::ofstream Out(KeysFile);
    for (int I = 0; I != 200; ++I) {
      char Buffer[16];
      std::snprintf(Buffer, sizeof(Buffer), "%03d-%02d-%04d", I % 1000,
                    (I * 7) % 100, (I * 37) % 10000);
      Out << Buffer << "\n";
    }
  }
  const std::string MphfFile = ::testing::TempDir() + "/mphf_keys.mphf";
  int ExitCode = 0;
  const std::string Direct = runCommand(
      binaryPath("keysynth") + " --mphf-keys=" + KeysFile +
          " --mphf-out=" + MphfFile + " '\\d{3}-\\d{2}-\\d{4}'",
      ExitCode);
  ASSERT_EQ(ExitCode, 0);
  EXPECT_NE(Direct.find("splitting tree"), std::string::npos)
      << "the explanation must render the split tree: " << Direct;
  const std::string Reloaded = runCommand(
      binaryPath("keysynth") + " --mphf-in=" + MphfFile, ExitCode);
  ASSERT_EQ(ExitCode, 0);
  EXPECT_EQ(Direct, Reloaded)
      << "serialized MPHF must explain identically after reload";
}

TEST(ToolsCliTest, MphfInRejectsGarbage) {
  const std::string Path = ::testing::TempDir() + "/garbage_mphf";
  {
    std::ofstream Out(Path);
    Out << "sepe-mphf v999\nnot a plan\n";
  }
  int ExitCode = 0;
  runCommand(binaryPath("keysynth") + " --mphf-in=" + Path +
                 " 2>/dev/null",
             ExitCode);
  EXPECT_NE(ExitCode, 0);
}

TEST(ToolsCliTest, SepedriverRunsOneExperiment) {
  int ExitCode = 0;
  const std::string Output = runCommand(
      binaryPath("sepedriver") +
          " --key=SSN --spread=300 --affectations=600 --mode=inter70",
      ExitCode);
  EXPECT_EQ(ExitCode, 0);
  EXPECT_NE(Output.find("OffXor"), std::string::npos);
  EXPECT_NE(Output.find("Gperf"), std::string::npos);
  EXPECT_NE(Output.find("B-Time"), std::string::npos);
}

TEST(ToolsCliTest, SepedriverRejectsBadArguments) {
  int ExitCode = 0;
  runCommand(binaryPath("sepedriver") + " --key=NOPE 2>/dev/null",
             ExitCode);
  EXPECT_NE(ExitCode, 0);
  runCommand(binaryPath("sepedriver") + " --container=tree 2>/dev/null",
             ExitCode);
  EXPECT_NE(ExitCode, 0);
}

TEST(ToolsCliTest, GeneratedCodeFromCliCompiles) {
  const std::string Dir = ::testing::TempDir();
  const std::string Cpp = Dir + "/cli_gen.cpp";
  const std::string Obj = Dir + "/cli_gen.o";
  int ExitCode = 0;
  runCommand(binaryPath("keysynth") +
                 " '([0-9a-f]{4}:){7}[0-9a-f]{4}' > " + Cpp,
             ExitCode);
  ASSERT_EQ(ExitCode, 0);
  runCommand("g++ -std=c++20 -O2 -mbmi2 -maes -c -o " + Obj + " " + Cpp,
             ExitCode);
  EXPECT_EQ(ExitCode, 0) << "keysynth output must compile as-is";
}

} // namespace
