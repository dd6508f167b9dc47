//===- tests/test_keys.h - Key sources shared by the unit tests -*- C++-*-===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Two key sources more than one suite needs: a seeded generator of
/// arbitrary fixed-length formats (the differential sweeps beyond the
/// paper's eight), and keys that end exactly at a PROT_NONE page, so any
/// load past a key's last byte faults.
///
//===----------------------------------------------------------------------===//

#ifndef SEPE_TESTS_TEST_KEYS_H
#define SEPE_TESTS_TEST_KEYS_H

#include "core/format_spec.h"

#include <gtest/gtest.h>

#include <sys/mman.h>
#include <unistd.h>

#include <cstring>
#include <random>
#include <string_view>
#include <vector>

namespace sepe::test {

/// Builds a random fixed-length format of 8 to ~120 bytes: mixed
/// constant runs and digit, hex, letter and full-byte classes.
inline FormatSpec randomFormat(uint64_t Seed) {
  std::mt19937_64 Rng(Seed);
  std::vector<CharSet> Classes;
  const size_t RunCount = 2 + Rng() % 8;
  for (size_t Run = 0; Run != RunCount; ++Run) {
    const size_t RunLen = 1 + Rng() % 15;
    const unsigned Kind = static_cast<unsigned>(Rng() % 5);
    for (size_t I = 0; I != RunLen; ++I) {
      switch (Kind) {
      case 0: // constant byte
        Classes.push_back(CharSet::singleton(
            static_cast<uint8_t>('!' + Rng() % 90)));
        break;
      case 1: // digits
        Classes.push_back(CharSet::range('0', '9'));
        break;
      case 2: { // hex
        CharSet Hex = CharSet::range('0', '9');
        Hex |= CharSet::range('a', 'f');
        Classes.push_back(Hex);
        break;
      }
      case 3: // letters
        Classes.push_back(CharSet::range('a', 'z'));
        break;
      default: // full byte range
        Classes.push_back(CharSet::any());
        break;
      }
    }
  }
  while (Classes.size() < 8)
    Classes.push_back(CharSet::range('0', '9'));
  return FormatSpec::fixed(std::move(Classes));
}

/// Keys that each end at the last byte before a PROT_NONE page, so a
/// kernel that loads past a key's end faults.
class PageEndKeys {
public:
  explicit PageEndKeys(size_t Slots)
      : Page(static_cast<size_t>(sysconf(_SC_PAGESIZE))), Slots(Slots) {
    Map = static_cast<char *>(mmap(nullptr, 2 * Page * Slots,
                                   PROT_READ | PROT_WRITE,
                                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0));
    EXPECT_NE(Map, MAP_FAILED);
    for (size_t S = 0; S != Slots; ++S)
      EXPECT_EQ(mprotect(Map + (2 * S + 1) * Page, Page, PROT_NONE), 0);
  }
  ~PageEndKeys() { munmap(Map, 2 * Page * Slots); }
  PageEndKeys(const PageEndKeys &) = delete;
  PageEndKeys &operator=(const PageEndKeys &) = delete;

  /// Copies \p Text so that it ends at slot \p S's page end.
  std::string_view place(size_t S, std::string_view Text) {
    char *End = Map + (2 * S + 1) * Page;
    std::memcpy(End - Text.size(), Text.data(), Text.size());
    return {End - Text.size(), Text.size()};
  }

private:
  size_t Page;
  size_t Slots;
  char *Map = nullptr;
};

} // namespace sepe::test

#endif // SEPE_TESTS_TEST_KEYS_H
