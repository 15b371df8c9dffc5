// CRC-32C: the production implementation, the SSE4.2 path and the
// slice-by-8 fallback must agree with the one-byte-at-a-time table-driven
// reference for every input — all small lengths (covering every tail-loop
// count), unaligned starts, random payloads, seed chaining — plus the
// standard known-answer vector.
#include "src/sim/crc32.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "src/sim/rng.h"

namespace {

std::span<const uint8_t> Bytes(const char* s) {
  return {reinterpret_cast<const uint8_t*>(s), std::strlen(s)};
}

TEST(Crc32cTest, KnownAnswerVector) {
  // The canonical CRC-32C check value (RFC 3720 appendix / every
  // implementation's self-test): crc32c("123456789") == 0xE3069283.
  EXPECT_EQ(rlsim::Crc32c(Bytes("123456789")), 0xE3069283u);
  EXPECT_EQ(rlsim::Crc32cTableDriven(Bytes("123456789")), 0xE3069283u);
}

TEST(Crc32cTest, EmptyInput) {
  EXPECT_EQ(rlsim::Crc32c({}), 0u);
  EXPECT_EQ(rlsim::Crc32c({}), rlsim::Crc32cTableDriven({}));
  // An empty update must preserve any seed, not reset it.
  EXPECT_EQ(rlsim::Crc32c({}, 0xDEADBEEF), 0xDEADBEEFu);
  EXPECT_EQ(rlsim::Crc32cTableDriven({}, 0xDEADBEEF), 0xDEADBEEFu);
}

TEST(Crc32cTest, SliceBy8MatchesTableOnEveryLength) {
  // 0..129 covers: pure tail loop (<8), exactly one word, word+tail for
  // every tail size, and many words. Random payloads so table symmetry
  // can't mask a byte-order bug.
  rlsim::Rng rng(7);
  std::vector<uint8_t> buf(130);
  for (uint8_t& b : buf) {
    b = static_cast<uint8_t>(rng.Next());
  }
  for (size_t len = 0; len <= buf.size(); ++len) {
    const std::span<const uint8_t> data(buf.data(), len);
    EXPECT_EQ(rlsim::Crc32cSlice8(data), rlsim::Crc32cTableDriven(data))
        << "length " << len;
  }
}

TEST(Crc32cTest, UnalignedStartsMatch) {
  // The word loop uses memcpy loads; verify every misalignment of the
  // buffer start against the reference.
  rlsim::Rng rng(11);
  std::vector<uint8_t> buf(64 + 16);
  for (uint8_t& b : buf) {
    b = static_cast<uint8_t>(rng.Next());
  }
  for (size_t offset = 0; offset < 16; ++offset) {
    const std::span<const uint8_t> data(buf.data() + offset, 64);
    EXPECT_EQ(rlsim::Crc32c(data), rlsim::Crc32cTableDriven(data))
        << "offset " << offset;
  }
}

TEST(Crc32cTest, SeedsAndChainingMatch) {
  rlsim::Rng rng(13);
  std::vector<uint8_t> buf(257);
  for (uint8_t& b : buf) {
    b = static_cast<uint8_t>(rng.Next());
  }
  const std::span<const uint8_t> all(buf);
  for (uint32_t seed : {0u, 1u, 0xFFFFFFFFu, 0x12345678u}) {
    EXPECT_EQ(rlsim::Crc32c(all, seed),
              rlsim::Crc32cTableDriven(all, seed))
        << "seed " << seed;
  }
  // Feeding a split buffer through the seed parameter equals one pass, for
  // both implementations and any cut point (this is what WAL record
  // verification relies on).
  for (size_t cut : {0u, 1u, 7u, 8u, 9u, 128u, 256u, 257u}) {
    const std::span<const uint8_t> head(buf.data(), cut);
    const std::span<const uint8_t> tail(buf.data() + cut, buf.size() - cut);
    EXPECT_EQ(rlsim::Crc32c(tail, rlsim::Crc32c(head)), rlsim::Crc32c(all))
        << "cut " << cut;
    EXPECT_EQ(rlsim::Crc32cTableDriven(tail, rlsim::Crc32cTableDriven(head)),
              rlsim::Crc32cTableDriven(all))
        << "cut " << cut;
  }
}

TEST(Crc32cTest, LargeRandomBuffersMatch) {
  rlsim::Rng rng(17);
  for (size_t size : {4096u, 4097u, 4099u, 65536u + 3u}) {
    std::vector<uint8_t> buf(size);
    for (uint8_t& b : buf) {
      b = static_cast<uint8_t>(rng.Next());
    }
    EXPECT_EQ(rlsim::Crc32c(buf), rlsim::Crc32cTableDriven(buf))
        << "size " << size;
  }
}

// Every length up to a page at every start misalignment within a word,
// each chained from the previous result so a seed-handling bug surfaces
// too, checked against the table-driven reference.
void ExpectMatchesTableEverywhere(
    uint32_t (*crc)(std::span<const uint8_t>, uint32_t)) {
  rlsim::Rng rng(19);
  std::vector<uint8_t> buf(4096 + 8);
  for (uint8_t& b : buf) {
    b = static_cast<uint8_t>(rng.Next());
  }
  for (size_t offset = 0; offset < 8; ++offset) {
    uint32_t seed = static_cast<uint32_t>(offset) * 0x9E3779B9u;
    for (size_t len = 0; len <= 4096; ++len) {
      const std::span<const uint8_t> data(buf.data() + offset, len);
      const uint32_t want = rlsim::Crc32cTableDriven(data, seed);
      ASSERT_EQ(crc(data, seed), want)
          << "offset " << offset << " length " << len;
      seed = want;
    }
  }
}

TEST(Crc32cTest, Slice8MatchesTableAcrossLengthsAndAlignments) {
  ExpectMatchesTableEverywhere(&rlsim::Crc32cSlice8);
}

TEST(Crc32cTest, HardwareMatchesTableAcrossLengthsAndAlignments) {
  if (!rlsim::Crc32cHwSupported()) {
    GTEST_SKIP() << "CPU lacks SSE4.2";
  }
  ExpectMatchesTableEverywhere(&rlsim::Crc32cHw);
}

}  // namespace
