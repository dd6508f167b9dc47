//===- core/plan_io.h - HashPlan (de)serialization --------------*- C++-*-===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Text serialization of HashPlan so synthesized functions can be
/// cached, diffed and shipped separately from the synthesizer (the
/// keysynth tool exposes it via --plan-out / --plan-in). The format is
/// a stable line-oriented key/value layout:
///
///   sepe-plan v1
///   family Pext
///   len 11 11
///   flags bijective
///   freebits 36
///   step 0 0x0f000f0f000f0f0f 0
///   step 3 0x0f0f0f0000000000 52
///
/// Variable-length plans serialize their skip table and masks; fallback
/// and partial-load plans carry the corresponding flags.
///
//===----------------------------------------------------------------------===//

#ifndef SEPE_CORE_PLAN_IO_H
#define SEPE_CORE_PLAN_IO_H

#include "core/plan.h"
#include "support/expected.h"

#include <string>
#include <string_view>

namespace sepe {

/// Serializes \p Plan into the stable text format.
std::string serializePlan(const HashPlan &Plan);

/// Parses a plan previously produced by serializePlan. Fails with a
/// line-numbered message on malformed input; round-trips every field.
/// Also rejects loads outside the key and a bijective flag that
/// provesBijective disagrees with.
Expected<HashPlan> deserializePlan(std::string_view Text);

} // namespace sepe

#endif // SEPE_CORE_PLAN_IO_H
