//===- runtime/resynthesizer.cpp - Background resynthesis worker ----------===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//

#include "runtime/resynthesizer.h"

#include "support/telemetry.h"

#include <utility>

namespace sepe {

Resynthesizer::Resynthesizer(Work Fn)
    : Fn(std::move(Fn)), Worker([this] { run(); }) {}

Resynthesizer::~Resynthesizer() { stop(); }

void Resynthesizer::trigger() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (Stopping)
      return;
    Pending = true;
  }
  Cond.notify_one();
}

void Resynthesizer::stop() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (Stopping && !Worker.joinable())
      return;
    Stopping = true;
    Pending = false;
  }
  Cond.notify_one();
  if (Worker.joinable())
    Worker.join();
}

void Resynthesizer::run() {
  std::unique_lock<std::mutex> Lock(Mutex);
  while (true) {
    Cond.wait(Lock, [this] { return Pending || Stopping; });
    if (Stopping)
      return;
    Pending = false;
    // Run the callback unlocked so trigger() (and stop()) never wait on
    // a synthesis in flight; a trigger landing meanwhile re-raises
    // Pending and the loop runs the callback again.
    Lock.unlock();
    {
      SEPE_SPAN("adaptive.resynth.job");
      Fn();
    }
    Lock.lock();
  }
}

} // namespace sepe
