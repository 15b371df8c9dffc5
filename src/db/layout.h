// On-disk layout of the data device and helpers for page headers and the
// metadata sectors.
//
// Data device:
//   sector 0, 1        — two alternating metadata slots (pick highest valid
//                        sequence number at open; a torn meta write leaves
//                        the other slot intact)
//   page 0             — checkpoint-journal header page
//   pages 1..J-1       — checkpoint-journal data pages (page images)
//   pages J..          — B+-tree pages
// where page p starts at sector kFirstPageSector + p * (page_bytes / 512).
//
// Every page embeds {page_id, crc} in its header so torn pages are detected
// at read time and repairable from the checkpoint journal.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <vector>

#include "src/sim/check.h"
#include "src/sim/crc32.h"
#include "src/storage/block.h"

namespace rldb {

inline constexpr uint64_t kMetaSectorA = 0;
inline constexpr uint64_t kMetaSectorB = 1;
inline constexpr uint64_t kFirstPageSector = 16;

// Page types.
enum class PageType : uint8_t {
  kFree = 0,
  kLeaf = 1,
  kInternal = 2,
  kJournalHeader = 3,
  kJournalData = 4,
};

// Fixed 32-byte page header.
struct PageHeader {
  uint64_t page_id = 0;
  uint32_t crc = 0;  // over the page with this field zeroed
  PageType type = PageType::kFree;
  uint8_t level = 0;
  uint16_t nkeys = 0;
  uint64_t next_leaf = 0;
};

inline constexpr size_t kPageHeaderBytes = 32;

// Little-endian scalar accessors.
template <typename T>
T LoadScalar(std::span<const uint8_t> buf, size_t offset) {
  T v;
  RL_CHECK(offset + sizeof(T) <= buf.size());
  std::memcpy(&v, buf.data() + offset, sizeof(T));
  return v;
}

template <typename T>
void StoreScalar(std::span<uint8_t> buf, size_t offset, T v) {
  RL_CHECK(offset + sizeof(T) <= buf.size());
  std::memcpy(buf.data() + offset, &v, sizeof(T));
}

inline PageHeader ReadPageHeader(std::span<const uint8_t> page) {
  PageHeader h;
  h.page_id = LoadScalar<uint64_t>(page, 0);
  h.crc = LoadScalar<uint32_t>(page, 8);
  h.type = static_cast<PageType>(LoadScalar<uint8_t>(page, 12));
  h.level = LoadScalar<uint8_t>(page, 13);
  h.nkeys = LoadScalar<uint16_t>(page, 14);
  h.next_leaf = LoadScalar<uint64_t>(page, 16);
  return h;
}

inline void WritePageHeader(std::span<uint8_t> page, const PageHeader& h) {
  StoreScalar<uint64_t>(page, 0, h.page_id);
  StoreScalar<uint32_t>(page, 8, h.crc);
  StoreScalar<uint8_t>(page, 12, static_cast<uint8_t>(h.type));
  StoreScalar<uint8_t>(page, 13, h.level);
  StoreScalar<uint16_t>(page, 14, h.nkeys);
  StoreScalar<uint64_t>(page, 16, h.next_leaf);
}

// Computes the page CRC with the stored crc field treated as zero.
inline uint32_t ComputePageCrc(std::span<const uint8_t> page) {
  uint32_t crc = rlsim::Crc32c(page.subspan(0, 8));
  const uint32_t zero = 0;
  crc = rlsim::Crc32c(
      std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(&zero), 4),
      crc);
  crc = rlsim::Crc32c(page.subspan(12), crc);
  return crc;
}

// Stamps page_id + crc into the page image (call just before writing out).
inline void SealPage(std::span<uint8_t> page, uint64_t page_id) {
  StoreScalar<uint64_t>(page, 0, page_id);
  StoreScalar<uint32_t>(page, 8, 0);
  StoreScalar<uint32_t>(page, 8, ComputePageCrc(page));
}

inline bool PageValid(std::span<const uint8_t> page, uint64_t expect_id) {
  const PageHeader h = ReadPageHeader(page);
  return h.page_id == expect_id && h.crc == ComputePageCrc(page);
}

// Database metadata, persisted in a 512-byte sector slot.
struct MetaContent {
  uint64_t seq = 0;              // checkpoint sequence number
  uint64_t root_page = 0;        // 0 = empty tree
  uint64_t next_free_page = 0;   // page allocator watermark
  uint64_t replay_block = 0;     // first log block recovery must scan
  uint64_t replay_lsn = 0;       // first LSN recovery replays
  uint32_t page_bytes = 0;       // engine page size (sanity-checked at open)
};

inline std::vector<uint8_t> SerializeMeta(const MetaContent& m) {
  std::vector<uint8_t> buf(rlstor::kSectorSize, 0);
  StoreScalar<uint32_t>(buf, 0, 0x524C4442);  // "RLDB"
  StoreScalar<uint64_t>(buf, 4, m.seq);
  StoreScalar<uint64_t>(buf, 12, m.root_page);
  StoreScalar<uint64_t>(buf, 20, m.next_free_page);
  StoreScalar<uint64_t>(buf, 28, m.replay_block);
  StoreScalar<uint64_t>(buf, 36, m.replay_lsn);
  StoreScalar<uint32_t>(buf, 44, m.page_bytes);
  const uint32_t crc =
      rlsim::Crc32c(std::span<const uint8_t>(buf.data(), 48));
  StoreScalar<uint32_t>(buf, 48, crc);
  return buf;
}

inline std::optional<MetaContent> DeserializeMeta(
    std::span<const uint8_t> buf) {
  if (buf.size() < 52 || LoadScalar<uint32_t>(buf, 0) != 0x524C4442) {
    return std::nullopt;
  }
  const uint32_t crc = rlsim::Crc32c(buf.subspan(0, 48));
  if (crc != LoadScalar<uint32_t>(buf, 48)) {
    return std::nullopt;
  }
  MetaContent m;
  m.seq = LoadScalar<uint64_t>(buf, 4);
  m.root_page = LoadScalar<uint64_t>(buf, 12);
  m.next_free_page = LoadScalar<uint64_t>(buf, 20);
  m.replay_block = LoadScalar<uint64_t>(buf, 28);
  m.replay_lsn = LoadScalar<uint64_t>(buf, 36);
  m.page_bytes = LoadScalar<uint32_t>(buf, 44);
  return m;
}

// First sector of page `page_id`.
inline uint64_t PageLba(uint64_t page_id, uint32_t page_bytes) {
  return kFirstPageSector + page_id * (page_bytes / rlstor::kSectorSize);
}

// --- Redo partitioning -------------------------------------------------------
//
// Redo records are partitioned by a fixed hash of the row key into
// kRedoSlices slices; a recovery with K redo streams groups the slices into
// K contiguous ranges. The slice count is an on-disk constant: the journal
// header page persists one low-water LSN per slice (the "fuzzy horizon"),
// so it cannot change without a format change.
inline constexpr uint32_t kRedoSlices = 64;

// Deterministic key -> slice map (splitmix-style finalizer). Must be stable
// across builds and platforms: the persisted per-slice horizons are only
// meaningful if recovery buckets keys exactly as the checkpoint did.
inline uint32_t RedoSliceOf(uint64_t key) {
  uint64_t x = key + 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  x ^= x >> 31;
  return static_cast<uint32_t>(x & (kRedoSlices - 1));
}

}  // namespace rldb
