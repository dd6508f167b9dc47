//===- tests/test_adaptive.cpp - Adaptive runtime ------------------------===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The adaptive runtime's contracts: the sampler stays a bounded uniform
/// reservoir, the drift detector closes windows exactly once, guarded
/// dispatch is bit-identical to the specialized hash in-format and to
/// the fallback out-of-format (all eight paper formats, single and
/// batch), drift trips lead to a hot swap whose joined pattern still
/// admits every pre-drift key (join monotonicity), and concurrent
/// readers only ever observe values of a published generation.
///
//===----------------------------------------------------------------------===//

#include "runtime/adaptive_hash.h"

#include "core/inference.h"
#include "core/synthesizer.h"
#include "hashes/low_level_hash.h"
#include "keygen/distributions.h"
#include "keygen/paper_formats.h"
#include "runtime/drift_detector.h"
#include "runtime/key_sampler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>
#include <thread>

using namespace sepe;

namespace {

std::vector<std::string> formatKeys(PaperKey Key, size_t N,
                                    uint64_t Seed = 42) {
  KeyGenerator Gen(paperKeyFormat(Key), KeyDistribution::Uniform, Seed);
  std::vector<std::string> Keys;
  Keys.reserve(N);
  for (size_t I = 0; I != N; ++I)
    Keys.push_back(Gen.next());
  return Keys;
}

/// Applies the library's drift probe: one byte the pattern's guard is
/// guaranteed to reject (findDriftProbe handles the pair-granular quad
/// lattice, where e.g. the hex positions of MAC/IPv6 abstract to top
/// and admit anything).
std::vector<std::string> drifted(std::vector<std::string> Keys,
                                 const KeyPattern &P) {
  const DriftProbe Probe = findDriftProbe(P);
  EXPECT_TRUE(Probe.Valid) << "pattern admits every probe byte";
  for (std::string &Key : Keys)
    Key[Probe.Pos] = Probe.Byte;
  return Keys;
}

std::vector<std::string_view> views(const std::vector<std::string> &Keys) {
  return {Keys.begin(), Keys.end()};
}

// --- KeySampler --------------------------------------------------------

TEST(KeySamplerTest, FillsToCapacityThenStaysBounded) {
  KeySampler Sampler(8);
  for (int I = 0; I != 100; ++I)
    Sampler.offer("key-" + std::to_string(I));
  EXPECT_EQ(Sampler.size(), 8u);
  EXPECT_EQ(Sampler.offered(), 100u);
  for (const std::string &Key : Sampler.snapshot())
    EXPECT_EQ(Key.substr(0, 4), "key-");
}

TEST(KeySamplerTest, DeterministicForSeed) {
  KeySampler A(4, 99), B(4, 99);
  for (int I = 0; I != 50; ++I) {
    A.offer(std::to_string(I));
    B.offer(std::to_string(I));
  }
  EXPECT_EQ(A.snapshot(), B.snapshot());
}

TEST(KeySamplerTest, DrainResetsCountAndReservoir) {
  KeySampler Sampler(4);
  for (int I = 0; I != 10; ++I)
    Sampler.offer("k");
  const std::vector<std::string> Drained = Sampler.drain();
  EXPECT_EQ(Drained.size(), 4u);
  EXPECT_EQ(Sampler.size(), 0u);
  EXPECT_EQ(Sampler.offered(), 0u);
  Sampler.offer("fresh");
  EXPECT_EQ(Sampler.snapshot(), std::vector<std::string>{"fresh"});
}

TEST(KeySamplerTest, ReservoirIsRoughlyUniform) {
  // Offer 0..999 into a 100-slot reservoir many times; every decile of
  // the stream should land some keys (Algorithm R keeps early and late
  // offers alike).
  KeySampler Sampler(100, 7);
  for (int I = 0; I != 1000; ++I)
    Sampler.offer(std::to_string(I));
  std::set<int> Deciles;
  for (const std::string &Key : Sampler.snapshot())
    Deciles.insert(std::stoi(Key) / 100);
  EXPECT_GE(Deciles.size(), 8u);
}

TEST(KeySamplerTest, ConcurrentOffersStayBoundedAndExact) {
  // Rejected offers take no lock, so racing offerers must still leave
  // an exact count and a reservoir of offered keys, full and no more.
  KeySampler Sampler(64, 3);
  constexpr int Threads = 4;
  constexpr int PerThread = 5000;
  std::vector<std::thread> Offerers;
  for (int T = 0; T != Threads; ++T)
    Offerers.emplace_back([&Sampler, T] {
      for (int I = 0; I != PerThread; ++I)
        Sampler.offer(std::to_string(T) + "-" + std::to_string(I));
    });
  for (std::thread &T : Offerers)
    T.join();
  EXPECT_EQ(Sampler.offered(), uint64_t{Threads} * PerThread);
  const std::vector<std::string> Kept = Sampler.snapshot();
  ASSERT_EQ(Kept.size(), 64u);
  std::set<char> Sources;
  for (const std::string &Key : Kept) {
    ASSERT_EQ(Key[1], '-') << Key;
    Sources.insert(Key[0]);
  }
  // A thread missing from a uniform 64-key sample: p = 4 * 0.75^64.
  EXPECT_EQ(Sources.size(), size_t{Threads});
}

// --- DriftDetector -----------------------------------------------------

TEST(DriftDetectorTest, WindowOpenUntilFull) {
  DriftDetector D(100, 0.1);
  for (int I = 0; I != 9; ++I)
    EXPECT_EQ(D.observe(10, 0), DriftDetector::Window::Open);
  EXPECT_EQ(D.observe(10, 0), DriftDetector::Window::Closed);
  EXPECT_EQ(D.windowsClosed(), 1u);
  EXPECT_DOUBLE_EQ(D.lastRatio(), 0.0);
}

TEST(DriftDetectorTest, TripsPastThreshold) {
  DriftDetector D(100, 0.1);
  EXPECT_EQ(D.observe(99, 20), DriftDetector::Window::Open);
  EXPECT_EQ(D.observe(1, 1), DriftDetector::Window::Tripped);
  EXPECT_NEAR(D.lastRatio(), 0.21, 1e-9);
  EXPECT_EQ(D.observedTotal(), 100u);
  EXPECT_EQ(D.mismatchedTotal(), 21u);
}

TEST(DriftDetectorTest, ExactThresholdDoesNotTrip) {
  DriftDetector D(100, 0.1);
  EXPECT_EQ(D.observe(100, 10), DriftDetector::Window::Closed);
}

TEST(DriftDetectorTest, ResetClearsLiveWindowNotTotals) {
  DriftDetector D(100, 0.1);
  D.observe(50, 50);
  D.reset();
  // The 50 pre-reset misses are gone from the live window: a clean
  // window of 100 now closes with ratio 0.
  EXPECT_EQ(D.observe(100, 0), DriftDetector::Window::Closed);
  EXPECT_DOUBLE_EQ(D.lastRatio(), 0.0);
  EXPECT_EQ(D.observedTotal(), 150u);
  EXPECT_EQ(D.mismatchedTotal(), 50u);
}

TEST(DriftDetectorTest, ConcurrentObserversLoseNothing) {
  DriftDetector D(1000, 0.5);
  constexpr int ThreadCount = 4, PerThread = 50000;
  std::atomic<uint64_t> Trips{0}, Closes{0};
  std::vector<std::thread> Threads;
  for (int T = 0; T != ThreadCount; ++T)
    Threads.emplace_back([&] {
      for (int I = 0; I != PerThread; ++I)
        switch (D.observe(10, I % 2 ? 10 : 0)) {
        case DriftDetector::Window::Tripped:
          Trips.fetch_add(1);
          break;
        case DriftDetector::Window::Closed:
          Closes.fetch_add(1);
          break;
        case DriftDetector::Window::Open:
          break;
        }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(D.observedTotal(), uint64_t{ThreadCount} * PerThread * 10);
  EXPECT_EQ(D.mismatchedTotal(), uint64_t{ThreadCount} * PerThread * 5);
  // Every closed window was closed by exactly one thread.
  EXPECT_EQ(Trips + Closes, D.windowsClosed());
  // Windows can overshoot their nominal size under contention (adds
  // landing between the crossing and the close), so only require the
  // order of magnitude.
  EXPECT_GE(D.windowsClosed(), uint64_t{ThreadCount} * PerThread * 10 / 2000);
}

TEST(DriftDetectorTest, StalledCloserCannotWedgeTheWindow) {
  // More observers than cores, so a thread is often preempted right
  // after the add that filled a window. If only that thread could close
  // the window, the others' adds would leave it past its size for good:
  // no later add crosses the boundary again, so no window ever closes.
  // Any thread that sees a full window must close it instead. Each
  // trial ends with one single-threaded full window, which must close.
  const unsigned Threads =
      std::max(8u, 2 * std::thread::hardware_concurrency());
  for (int Trial = 0; Trial != 3; ++Trial) {
    DriftDetector D(64, 0.5);
    std::atomic<bool> Stop{false};
    std::vector<std::thread> Observers;
    for (unsigned T = 0; T != Threads; ++T)
      Observers.emplace_back([&] {
        while (!Stop.load(std::memory_order_relaxed))
          D.observe(1, 0);
      });
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    Stop.store(true, std::memory_order_relaxed);
    for (std::thread &T : Observers)
      T.join();
    const uint64_t Closed = D.windowsClosed();
    EXPECT_EQ(D.observe(64, 0), DriftDetector::Window::Closed)
        << "trial " << Trial << " wedged after " << Closed << " windows";
    EXPECT_EQ(D.windowsClosed(), Closed + 1);
  }
}

TEST(DriftDetectorTest, SingleKeyObservationsCountExactly) {
  // Clean single keys wait in this thread's stripe until FlushEvery of
  // them accumulate; a miss moves them into the window with itself.
  DriftDetector D(100, 0.1);
  for (int I = 0; I != 99; ++I)
    EXPECT_EQ(D.observeClean(), DriftDetector::Window::Open);
  EXPECT_EQ(D.observedTotal(), 99u) << "pending keys count toward totals";
  EXPECT_EQ(D.observeMiss(), DriftDetector::Window::Closed);
  EXPECT_EQ(D.windowsClosed(), 1u);
  EXPECT_DOUBLE_EQ(D.lastRatio(), 0.01);
  // Twenty misses in a row trip the next window the moment it fills.
  for (int I = 0; I != 80; ++I)
    D.observeClean();
  for (int I = 0; I != 19; ++I)
    EXPECT_EQ(D.observeMiss(), DriftDetector::Window::Open);
  EXPECT_EQ(D.observeMiss(), DriftDetector::Window::Tripped);
  EXPECT_EQ(D.observedTotal(), 200u);
  EXPECT_EQ(D.mismatchedTotal(), 21u);
  // reset() empties the stripes as well: keys observed before it stay
  // in the totals but never reach the next window.
  for (int I = 0; I != 50; ++I)
    D.observeClean();
  D.reset();
  EXPECT_EQ(D.observedTotal(), 250u);
  for (int I = 0; I != 99; ++I)
    EXPECT_EQ(D.observeClean(), DriftDetector::Window::Open) << I;
  EXPECT_EQ(D.observeMiss(), DriftDetector::Window::Closed);
  EXPECT_DOUBLE_EQ(D.lastRatio(), 0.01);
  EXPECT_EQ(D.observedTotal(), 350u);
  EXPECT_EQ(D.mismatchedTotal(), 22u);
}

TEST(DriftDetectorTest, MoreThreadsThanStripesCountExactly) {
  // Owners count with a plain store, so a stripe two threads counted in
  // at once would lose keys. Threads past the owned slots share one
  // atomic stripe; reset() takes pending keys while owners store; and
  // slots released at thread exit are claimed again by later threads.
  DriftDetector D(4096, 0.5);
  constexpr int PerThread = 200000;
  const unsigned Concurrent = 2 * DriftDetector::Stripes + 3;
  std::atomic<bool> Go{false};
  std::atomic<uint64_t> Clean{0}, Misses{0};
  const auto Observe = [&](unsigned T, int Count) {
    while (!Go.load(std::memory_order_acquire))
      std::this_thread::yield();
    uint64_t MyClean = 0, MyMisses = 0;
    for (int I = 0; I != Count; ++I) {
      if ((I + T) % 97 == 0) {
        D.observeMiss();
        ++MyMisses;
      } else {
        D.observeClean();
        ++MyClean;
      }
    }
    Clean.fetch_add(MyClean);
    Misses.fetch_add(MyMisses);
  };
  std::atomic<bool> Stop{false};
  std::thread Resetter([&] {
    while (!Stop.load(std::memory_order_relaxed)) {
      D.reset();
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> Observers;
  for (unsigned T = 0; T != Concurrent; ++T)
    Observers.emplace_back(Observe, T, PerThread);
  Go.store(true, std::memory_order_release);
  for (std::thread &T : Observers)
    T.join();
  Stop.store(true, std::memory_order_relaxed);
  Resetter.join();
  EXPECT_EQ(D.observedTotal(), Clean + Misses);
  EXPECT_EQ(D.mismatchedTotal(), Misses.load());

  // One short-lived thread after another: each claims a slot the last
  // one released and continues its count.
  for (unsigned T = 0; T != 40; ++T)
    std::thread(Observe, T, 1000 + T).join();
  EXPECT_EQ(D.observedTotal(), Clean + Misses);
  EXPECT_EQ(D.mismatchedTotal(), Misses.load());
}

// --- Guarded dispatch equivalence (per paper format) -------------------

class AdaptiveFormatTest : public ::testing::TestWithParam<PaperKey> {};

TEST_P(AdaptiveFormatTest, GuardedDispatchMatchesSpecializedAndFallback) {
  AdaptiveOptions Options;
  Options.Background = false;
  AdaptiveHash Adaptive(paperKeyFormat(GetParam()).abstract(), Options);
  const SynthesizedHash Specialized = Adaptive.specialized();
  ASSERT_TRUE(Specialized.valid());

  const std::vector<std::string> InFormat = formatKeys(GetParam(), 300);
  const std::vector<std::string> OutOfFormat =
      drifted(InFormat, Adaptive.pattern());
  for (size_t I = 0; I != InFormat.size(); ++I) {
    EXPECT_EQ(Adaptive(InFormat[I]), Specialized(InFormat[I]));
    EXPECT_EQ(Adaptive(OutOfFormat[I]),
              lowLevelHash(OutOfFormat[I].data(), OutOfFormat[I].size(), 0));
  }
  EXPECT_EQ(Adaptive.guardPasses(), InFormat.size());
  EXPECT_EQ(Adaptive.guardMisses(), OutOfFormat.size());
}

TEST_P(AdaptiveFormatTest, BatchAgreesWithSingleKeyOnMixedStream) {
  AdaptiveOptions Options;
  Options.Background = false;
  AdaptiveHash Adaptive(paperKeyFormat(GetParam()).abstract(), Options);
  const SynthesizedHash Specialized = Adaptive.specialized();

  // Interleave in- and out-of-format keys so every block is mixed,
  // exercising the guarded batch kernel's miss collection.
  std::vector<std::string> Keys = formatKeys(GetParam(), 600, 7);
  const DriftProbe Probe = findDriftProbe(Adaptive.pattern());
  ASSERT_TRUE(Probe.Valid);
  for (size_t I = 0; I < Keys.size(); I += 3)
    Keys[I][Probe.Pos] = Probe.Byte;
  const std::vector<std::string_view> Views = views(Keys);
  std::vector<uint64_t> Out(Keys.size());
  Adaptive.hashBatch(Views.data(), Out.data(), Views.size());
  for (size_t I = 0; I != Keys.size(); ++I) {
    if (I % 3 == 0)
      EXPECT_EQ(Out[I], lowLevelHash(Keys[I].data(), Keys[I].size(), 0));
    else
      EXPECT_EQ(Out[I], Specialized(Keys[I]));
  }
}

TEST_P(AdaptiveFormatTest, RouteAgreesWithOperatorAndHashBatch) {
  // The lane-reporting entry points against the plain ones, over one
  // stream where every third key carries the drift probe: the same
  // hashes, the guard verdict, the epoch, and the same movement of the
  // guard counters.
  AdaptiveOptions Options;
  Options.Background = false;
  AdaptiveHash Adaptive(paperKeyFormat(GetParam()).abstract(), Options);
  std::vector<std::string> Keys = formatKeys(GetParam(), 600, 11);
  const DriftProbe Probe = findDriftProbe(Adaptive.pattern());
  ASSERT_TRUE(Probe.Valid);
  std::vector<uint32_t> Rejected;
  for (size_t I = 0; I < Keys.size(); I += 3) {
    Keys[I][Probe.Pos] = Probe.Byte;
    Rejected.push_back(static_cast<uint32_t>(I));
  }
  const std::vector<std::string_view> Views = views(Keys);
  const uint64_t Admitted = Keys.size() - Rejected.size();
  uint64_t Passes = 0, Misses = 0;
  const auto ExpectCountersAdvanced = [&](const char *Api) {
    EXPECT_EQ(Adaptive.guardPasses() - Passes, Admitted) << Api;
    EXPECT_EQ(Adaptive.guardMisses() - Misses, Rejected.size()) << Api;
    Passes = Adaptive.guardPasses();
    Misses = Adaptive.guardMisses();
  };

  std::vector<AdaptiveHash::Routed> Routes;
  for (const std::string &Key : Keys)
    Routes.push_back(Adaptive.route(Key));
  ExpectCountersAdvanced("route");
  for (size_t I = 0; I != Keys.size(); ++I) {
    EXPECT_EQ(Routes[I].Hash, Adaptive(Keys[I])) << I;
    EXPECT_EQ(Routes[I].Epoch, Adaptive.epoch()) << I;
    EXPECT_EQ(Routes[I].Admitted, I % 3 != 0) << I;
  }
  ExpectCountersAdvanced("operator()");

  std::vector<uint64_t> Routed(Keys.size()), Hashed(Keys.size());
  std::vector<uint32_t> MissIdx(Keys.size());
  uint64_t Epoch = ~0ull;
  const size_t MissCount = Adaptive.routeBatch(
      Views.data(), Routed.data(), Views.size(), MissIdx.data(), Epoch);
  ExpectCountersAdvanced("routeBatch");
  EXPECT_EQ(Epoch, Adaptive.epoch());
  ASSERT_EQ(MissCount, Rejected.size());
  MissIdx.resize(MissCount);
  EXPECT_EQ(MissIdx, Rejected);
  Adaptive.hashBatch(Views.data(), Hashed.data(), Views.size());
  ExpectCountersAdvanced("hashBatch");
  EXPECT_EQ(Routed, Hashed);
  for (size_t I = 0; I != Keys.size(); ++I)
    EXPECT_EQ(Routed[I], Routes[I].Hash) << I;
}

INSTANTIATE_TEST_SUITE_P(AllFormats, AdaptiveFormatTest,
                         ::testing::ValuesIn(AllPaperKeys),
                         [](const ::testing::TestParamInfo<PaperKey> &Info) {
                           return paperKeyName(Info.param);
                         });

// --- Drift -> resynthesis -> hot swap ----------------------------------

TEST(AdaptiveSwapTest, DriftTripsDetectorAndPumpSwaps) {
  AdaptiveOptions Options;
  Options.Background = false;
  Options.DriftWindow = 256;
  AdaptiveHash Adaptive(paperKeyFormat(PaperKey::SSN).abstract(), Options);
  EXPECT_EQ(Adaptive.epoch(), 0u);

  const std::vector<std::string> PreDrift = formatKeys(PaperKey::SSN, 512);
  const std::vector<std::string> PostDrift =
      drifted(PreDrift, Adaptive.pattern());
  const std::vector<std::string_view> Views = views(PostDrift);
  std::vector<uint64_t> Out(Views.size());
  Adaptive.hashBatch(Views.data(), Out.data(), Views.size());

  EXPECT_TRUE(Adaptive.resynthesisPending());
  EXPECT_GT(Adaptive.windowMismatchRatio(), AdaptiveHash::DriftThreshold);
  ASSERT_TRUE(Adaptive.pumpResynthesis());
  EXPECT_EQ(Adaptive.epoch(), 1u);
  EXPECT_EQ(Adaptive.swaps(), 1u);
  EXPECT_FALSE(Adaptive.resynthesisPending());

  // Join monotonicity, end to end: the re-learned pattern admits both
  // the drifted keys that forced the swap and every pre-drift key.
  const KeyPattern Joined = Adaptive.pattern();
  for (size_t I = 0; I != PreDrift.size(); ++I) {
    EXPECT_TRUE(Joined.matches(PreDrift[I]));
    EXPECT_TRUE(Joined.matches(PostDrift[I]));
  }

  // And the new generation hashes both on the specialized path.
  const SynthesizedHash NewHash = Adaptive.specialized();
  const uint64_t MissesBeforeReplay = Adaptive.guardMisses();
  for (size_t I = 0; I != PreDrift.size(); ++I) {
    EXPECT_EQ(Adaptive(PreDrift[I]), NewHash(PreDrift[I]));
    EXPECT_EQ(Adaptive(PostDrift[I]), NewHash(PostDrift[I]));
  }
  EXPECT_EQ(Adaptive.guardMisses(), MissesBeforeReplay);
}

TEST(AdaptiveSwapTest, JoinMonotonicityAcrossRepeatedDrift) {
  // Property (a) of the issue: under successive drift waves the active
  // pattern only ever widens — keys admitted at epoch E stay admitted
  // at every epoch > E.
  AdaptiveOptions Options;
  Options.Background = false;
  Options.DriftWindow = 128;
  AdaptiveHash Adaptive(paperKeyFormat(PaperKey::IPv4).abstract(), Options);

  std::vector<std::string> Admitted = formatKeys(PaperKey::IPv4, 128);
  const char Waves[] = {'X', '!', '~'};
  for (char Wave : Waves) {
    std::vector<std::string> Drift = formatKeys(PaperKey::IPv4, 128, Wave);
    for (std::string &Key : Drift)
      Key[0] = Wave;
    const std::vector<std::string_view> Views = views(Drift);
    std::vector<uint64_t> Out(Views.size());
    Adaptive.hashBatch(Views.data(), Out.data(), Views.size());
    if (!Adaptive.pumpResynthesis())
      continue;
    const KeyPattern Pattern = Adaptive.pattern();
    for (const std::string &Key : Admitted)
      EXPECT_TRUE(Pattern.matches(Key)) << "wave " << Wave << ": " << Key;
    Admitted.insert(Admitted.end(), Drift.begin(), Drift.end());
  }
  EXPECT_GE(Adaptive.swaps(), 1u);
}

TEST(AdaptiveSwapTest, ColdStartLearnsPatternFromScratch) {
  AdaptiveOptions Options;
  Options.Background = false;
  Options.DriftWindow = 64;
  AdaptiveHash Adaptive(KeyPattern{}, Options);
  EXPECT_FALSE(Adaptive.specialized().valid());

  const std::vector<std::string> Keys = formatKeys(PaperKey::MAC, 256);
  const std::vector<std::string_view> Views = views(Keys);
  std::vector<uint64_t> Out(Views.size());
  Adaptive.hashBatch(Views.data(), Out.data(), Views.size());
  // Cold start: every key is a guard miss and a fallback hash.
  for (size_t I = 0; I != Keys.size(); ++I)
    EXPECT_EQ(Out[I], lowLevelHash(Keys[I].data(), Keys[I].size(), 0));

  ASSERT_TRUE(Adaptive.pumpResynthesis());
  EXPECT_TRUE(Adaptive.specialized().valid());
  // The inferred pattern covers the MAC format the stream came from.
  for (const std::string &Key : Keys)
    EXPECT_TRUE(Adaptive.pattern().matches(Key));
}

TEST(AdaptiveSwapTest, TooFewSamplesRefusesToSwap) {
  AdaptiveOptions Options;
  Options.Background = false;
  AdaptiveHash Adaptive(paperKeyFormat(PaperKey::SSN).abstract(), Options);
  const std::vector<std::string> Keys =
      drifted(formatKeys(PaperKey::SSN, 8), Adaptive.pattern());
  for (const std::string &Key : Keys)
    Adaptive(Key);
  EXPECT_FALSE(Adaptive.pumpResynthesis());
  EXPECT_EQ(Adaptive.epoch(), 0u);
}

TEST(AdaptiveSwapTest, InFormatStreamNeverSwaps) {
  AdaptiveOptions Options;
  Options.Background = false;
  Options.DriftWindow = 64;
  AdaptiveHash Adaptive(paperKeyFormat(PaperKey::URL1).abstract(), Options);
  const std::vector<std::string> Keys = formatKeys(PaperKey::URL1, 512);
  const std::vector<std::string_view> Views = views(Keys);
  std::vector<uint64_t> Out(Views.size());
  Adaptive.hashBatch(Views.data(), Out.data(), Views.size());
  EXPECT_FALSE(Adaptive.resynthesisPending());
  EXPECT_FALSE(Adaptive.pumpResynthesis());
  EXPECT_EQ(Adaptive.swaps(), 0u);
}

TEST(AdaptiveSwapTest, BackgroundWorkerSwapsOnItsOwn) {
  AdaptiveOptions Options;
  Options.Background = true;
  Options.DriftWindow = 256;
  Options.Cooldown = std::chrono::milliseconds(0);
  AdaptiveHash Adaptive(paperKeyFormat(PaperKey::SSN).abstract(), Options);

  const std::vector<std::string> Drift =
      drifted(formatKeys(PaperKey::SSN, 512), Adaptive.pattern());
  const std::vector<std::string_view> Views = views(Drift);
  std::vector<uint64_t> Out(Views.size());
  for (int Round = 0; Round != 200 && Adaptive.epoch() == 0; ++Round) {
    Adaptive.hashBatch(Views.data(), Out.data(), Views.size());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(Adaptive.epoch(), 1u);
}

// --- Concurrency: readers never block, never see torn state ------------

TEST(AdaptiveConcurrencyTest, ReadersSeeOnlyPublishedGenerations) {
  AdaptiveOptions Options;
  Options.Background = false;
  Options.DriftWindow = 128;
  AdaptiveHash Adaptive(paperKeyFormat(PaperKey::SSN).abstract(), Options);
  const SynthesizedHash OldHash = Adaptive.specialized();

  // Pre-drift keys stay in-format across the swap (join is monotone),
  // so every read must return H_old(key) or H_new(key) — never a torn
  // or fallback value.
  const std::vector<std::string> Keys = formatKeys(PaperKey::SSN, 256);
  const std::vector<std::string_view> Views = views(Keys);

  std::atomic<bool> Stop{false};
  std::atomic<bool> Failed{false};
  std::vector<std::thread> Readers;
  for (int T = 0; T != 4; ++T)
    Readers.emplace_back([&] {
      std::vector<uint64_t> Out(Views.size());
      while (!Stop.load(std::memory_order_acquire)) {
        Adaptive.hashBatch(Views.data(), Out.data(), Views.size());
        const SynthesizedHash NewHash = Adaptive.specialized();
        for (size_t I = 0; I != Keys.size(); ++I)
          if (Out[I] != OldHash(Keys[I]) && Out[I] != NewHash(Keys[I])) {
            Failed.store(true, std::memory_order_release);
            return;
          }
      }
    });

  // Drift + swap while the readers hash.
  const std::vector<std::string> Drift =
      drifted(formatKeys(PaperKey::SSN, 512), Adaptive.pattern());
  const std::vector<std::string_view> DriftViews = views(Drift);
  std::vector<uint64_t> DriftOut(DriftViews.size());
  int Swaps = 0;
  for (int Round = 0; Round != 50 && Swaps == 0; ++Round) {
    Adaptive.hashBatch(DriftViews.data(), DriftOut.data(), DriftViews.size());
    Swaps += Adaptive.pumpResynthesis();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  Stop.store(true, std::memory_order_release);
  for (std::thread &T : Readers)
    T.join();
  EXPECT_FALSE(Failed.load());
  EXPECT_EQ(Swaps, 1);
}

TEST(AdaptiveConcurrencyTest, SingleKeyReadersRaceTheWorker) {
  // Background mode under reader load; TSan's target. Values are
  // checked against the set of hashes either generation could produce.
  AdaptiveOptions Options;
  Options.Background = true;
  Options.DriftWindow = 64;
  Options.Cooldown = std::chrono::milliseconds(0);
  AdaptiveHash Adaptive(paperKeyFormat(PaperKey::IPv4).abstract(), Options);
  const SynthesizedHash OldHash = Adaptive.specialized();

  const std::vector<std::string> Keys = formatKeys(PaperKey::IPv4, 64);
  std::atomic<bool> Stop{false};
  std::atomic<bool> Failed{false};
  std::vector<std::thread> Readers;
  for (int T = 0; T != 3; ++T)
    Readers.emplace_back([&] {
      while (!Stop.load(std::memory_order_acquire))
        for (const std::string &Key : Keys) {
          const uint64_t H = Adaptive(Key);
          const SynthesizedHash NewHash = Adaptive.specialized();
          if (H != OldHash(Key) && H != NewHash(Key))
            Failed.store(true, std::memory_order_release);
        }
    });

  const std::vector<std::string> Drift =
      drifted(formatKeys(PaperKey::IPv4, 64), Adaptive.pattern());
  for (int Round = 0; Round != 500 && Adaptive.epoch() == 0; ++Round)
    for (const std::string &Key : Drift)
      Adaptive(Key);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  Stop.store(true, std::memory_order_release);
  for (std::thread &T : Readers)
    T.join();
  EXPECT_FALSE(Failed.load());
}

} // namespace
