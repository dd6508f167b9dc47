//===- mphf/mphf_io.h - MphfPlan (de)serialization --------------*- C++-*-===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Text serialization of MphfPlan in the same stable line-oriented
/// style as core/plan_io.h, so built MPHFs can be cached and shipped
/// separately from the builder (keysynth exposes it via --mphf-out /
/// --mphf-in). The extraction front-end, when present, embeds its
/// serializePlan text verbatim between 'plan' and 'endplan':
///
///   sepe-mphf v2
///   n 100000
///   seed 0x0000000005e7a5e7
///   buckets 32768
///   leafmax 12
///   pilots 4231
///   p 12 5 0 9 31 2 2 7
///   ...
///   offsets 3126
///   o 0 28 61 ...
///   pilotstarts 3126
///   s 0 9 17 ...
///   plan
///   sepe-plan v1
///   ...
///   endplan
///
/// Logical pilot/offset values are serialized (not the packed words),
/// so the format is independent of the in-memory encodings and stays
/// human-diffable; the succinct structures are rebuilt on load.
///
//===----------------------------------------------------------------------===//

#ifndef SEPE_MPHF_MPHF_IO_H
#define SEPE_MPHF_MPHF_IO_H

#include "mphf/mphf.h"
#include "support/expected.h"

#include <string>
#include <string_view>

namespace sepe {

/// Serializes \p Plan into the stable text format.
std::string serializeMphf(const MphfPlan &Plan);

/// Parses a plan previously produced by serializeMphf. Fails with a
/// line-numbered message on malformed input, and rejects any plan the
/// evaluator could not walk: a bucket count that is not a power of
/// two, n past MphfMaxKeys, or a bucket whose pilot count differs from
/// the split tree's node count for its size. Round-trips every field.
Expected<MphfPlan> deserializeMphf(std::string_view Text);

} // namespace sepe

#endif // SEPE_MPHF_MPHF_IO_H
