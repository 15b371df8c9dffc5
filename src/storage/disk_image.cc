#include "src/storage/disk_image.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "src/sim/check.h"

namespace rlstor {

namespace {

// Pattern written into a torn sector so corruption is recognisable (and so
// checksum verification in upper layers reliably fails).
constexpr uint8_t kTornFill = 0xDB;

}  // namespace

DiskImage::DiskImage(uint64_t sector_count) : sector_count_(sector_count) {
  RL_CHECK(sector_count > 0);
}

void DiskImage::CheckRange(uint64_t sector) const {
  RL_CHECK_MSG(sector < sector_count_,
               "sector " << sector << " beyond capacity " << sector_count_);
}

void DiskImage::Read(uint64_t sector, std::span<uint8_t> out) const {
  CheckRange(sector);
  RL_CHECK(out.size() == kSectorSize);
  if (auto it = cache_.find(sector); it != cache_.end()) {
    std::copy(it->second.begin(), it->second.end(), out.begin());
    return;
  }
  ReadDurable(sector, out);
}

void DiskImage::ReadDurable(uint64_t sector, std::span<uint8_t> out) const {
  CheckRange(sector);
  RL_CHECK(out.size() == kSectorSize);
  if (auto it = durable_.find(sector); it != durable_.end()) {
    std::copy(it->second.begin(), it->second.end(), out.begin());
  } else {
    std::fill(out.begin(), out.end(), uint8_t{0});
  }
}

void DiskImage::WriteCached(uint64_t sector, std::span<const uint8_t> data) {
  CheckRange(sector);
  RL_CHECK(data.size() == kSectorSize);
  Sector& s = cache_[sector];
  std::copy(data.begin(), data.end(), s.begin());
  torn_.erase(sector);
}

void DiskImage::WriteDurable(uint64_t sector, std::span<const uint8_t> data) {
  CheckRange(sector);
  RL_CHECK(data.size() == kSectorSize);
  Sector& s = durable_[sector];
  std::copy(data.begin(), data.end(), s.begin());
  cache_.erase(sector);  // the medium now holds the newest contents
  torn_.erase(sector);
}

void DiskImage::Harden(uint64_t sector) {
  auto node = cache_.extract(sector);
  if (node.empty()) {
    return;
  }
  // Move the cached node onto the medium: no sector copy, no allocation.
  durable_.erase(sector);
  durable_.insert(std::move(node));
  torn_.erase(sector);
}

void DiskImage::HardenAll() {
  // simlint: ordered-ok (pure state fold: every cached sector moves to the
  // durable map; no I/O, no events, and the result is order-independent)
  for (const auto& [sector, data] : cache_) {
    durable_[sector] = data;
    torn_.erase(sector);
  }
  cache_.clear();
}

void DiskImage::PowerLoss(int64_t torn_sector) {
  cache_.clear();
  if (torn_sector >= 0) {
    const uint64_t sector = static_cast<uint64_t>(torn_sector);
    CheckRange(sector);
    Sector& s = durable_[sector];
    s.fill(kTornFill);
    torn_[sector] = true;
  }
}

SectorState DiskImage::state(uint64_t sector) const {
  CheckRange(sector);
  if (cache_.contains(sector)) {
    return SectorState::kCachedVolatile;
  }
  if (torn_.contains(sector)) {
    return SectorState::kTorn;
  }
  if (durable_.contains(sector)) {
    return SectorState::kDurable;
  }
  return SectorState::kUnwritten;
}

bool DiskImage::IsDurable(uint64_t sector) const {
  const SectorState s = state(sector);
  return s == SectorState::kDurable || s == SectorState::kUnwritten;
}

std::vector<uint64_t> DiskImage::DurableSectorList() const {
  std::vector<uint64_t> sectors;
  sectors.reserve(durable_.size());
  // simlint: ordered-ok (collected set is sorted before it is returned)
  for (const auto& [sector, contents] : durable_) {
    if (!torn_.contains(sector)) {
      sectors.push_back(sector);
    }
  }
  std::sort(sectors.begin(), sectors.end());
  return sectors;
}

}  // namespace rlstor
