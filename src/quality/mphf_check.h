//===- quality/mphf_check.h - MPHF structural verification ------*- C++-*-===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The quality harness's structural check for the static-set tier: a
/// minimal perfect hash function must map its construction keys onto
/// [0, n) with zero collisions and exact coverage. measureMphf walks
/// the whole key set against a bitmap and reports every way the
/// bijection can fail, as a scorecard row the mphf-smoke CI job floors
/// on (Collisions == 0, Coverage == 1.0).
///
//===----------------------------------------------------------------------===//

#ifndef SEPE_QUALITY_MPHF_CHECK_H
#define SEPE_QUALITY_MPHF_CHECK_H

#include "mphf/mphf.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace sepe {
namespace quality {

/// One structural scorecard row for a built MPHF.
struct MphfReport {
  std::string Format; ///< Label (paper key name), set by the caller.

  uint64_t N = 0;          ///< Keys checked.
  uint64_t Collisions = 0; ///< Pairs of keys sharing an index.
  uint64_t OutOfRange = 0; ///< Keys mapped outside [0, n).
  uint64_t MaxIndex = 0;   ///< Largest index observed.
  /// Fraction of [0, n) hit by at least one key; 1.0 for a bijection.
  double Coverage = 0.0;
  double BitsPerKey = 0.0; ///< Storage cost of the pilot structures.

  /// True iff the function is minimal perfect on the checked set.
  bool perfect() const {
    return Collisions == 0 && OutOfRange == 0 && Coverage == 1.0;
  }

  /// One JSON object (one scorecard row).
  std::string toJson() const;
};

/// Checks \p F over \p N keys (normally its construction set).
MphfReport measureMphf(const Mphf &F, const std::string_view *Keys,
                       size_t N);

inline MphfReport measureMphf(const Mphf &F,
                              const std::vector<std::string> &Keys) {
  std::vector<std::string_view> Views(Keys.begin(), Keys.end());
  return measureMphf(F, Views.data(), Views.size());
}

} // namespace quality
} // namespace sepe

#endif // SEPE_QUALITY_MPHF_CHECK_H
