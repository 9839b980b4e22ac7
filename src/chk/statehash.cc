#include "chk/statehash.h"

#include <algorithm>
#include <cstring>

#include "platform/hash.h"

namespace easeio::chk {

namespace {

constexpr uint32_t kPage = sim::Memory::kSnapshotPageSize;
// Canonical-encoding version tag: bump when the field set or layout changes so a
// stale table (there are none persisted today) could never verify against it.
constexpr uint8_t kCanonicalTag = 1;

void Put8(std::string& out, uint8_t v) { out.push_back(static_cast<char>(v)); }

void Put32(std::string& out, uint32_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}

void Put64(std::string& out, uint64_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}

void PutStr(std::string& out, const std::string& s) {
  Put32(out, static_cast<uint32_t>(s.size()));
  out.append(s);
}

void PutBytes(std::string& out, const std::vector<uint8_t>& v) {
  Put32(out, static_cast<uint32_t>(v.size()));
  out.append(reinterpret_cast<const char*>(v.data()), v.size());
}

void PutEvent(std::string& out, const sim::ProbeEvent& ev) {
  Put8(out, static_cast<uint8_t>(ev.kind));
  Put32(out, ev.id);
  Put32(out, ev.lane);
  Put64(out, ev.a);
  Put64(out, ev.b);
  Put64(out, ev.on_us);
}

}  // namespace

void StateHasher::BeginTrial(const kernel::Runtime& rt) {
  std::vector<kernel::Runtime::StateMaskRange> ranges;
  rt.AppendStateMask(ranges);
  mask_spans_.clear();
  mask_spans_.reserve(ranges.size());
  for (const kernel::Runtime::StateMaskRange& r : ranges) {
    // Registration hands out absolute device addresses; the page scan works in FRAM
    // offsets.
    mask_spans_.emplace_back(r.addr - sim::Memory::kFramBase,
                             r.addr - sim::Memory::kFramBase + r.size);
  }
  std::sort(mask_spans_.begin(), mask_spans_.end());
}

uint64_t StateHasher::HashPage(const sim::Memory& mem, uint32_t page) const {
  const uint8_t* data = mem.fram_data() + static_cast<size_t>(page) * kPage;
  const uint32_t lo = page * kPage;
  const uint32_t hi = lo + kPage;
  // Masked metadata inside this page? The span list is short (one 4-byte entry per
  // registered lane/block) and sorted; find the overlap window.
  auto it = std::lower_bound(mask_spans_.begin(), mask_spans_.end(),
                             std::make_pair(lo, 0u),
                             [](const auto& a, const auto& b) { return a.first < b.first; });
  // A span starting before lo can still reach into this page.
  if (it != mask_spans_.begin() && (it - 1)->second > lo) {
    --it;
  }
  if (it == mask_spans_.end() || it->first >= hi) {
    return platform::HashBytes64(data, kPage);
  }
  uint8_t scratch[kPage];
  std::memcpy(scratch, data, kPage);
  for (; it != mask_spans_.end() && it->first < hi; ++it) {
    const uint32_t b = std::max(it->first, lo);
    const uint32_t e = std::min(it->second, hi);
    if (b < e) {
      std::memset(scratch + (b - lo), 0, e - b);
    }
  }
  return platform::HashBytes64(scratch, kPage);
}

bool StateHasher::Fingerprint(const sim::Memory& mem, const kernel::Runtime& rt,
                              kernel::TaskId paused_task, const EventScanState& scan,
                              StateKey* out) {
  out->valid = false;
  out->canonical.clear();

  // Cheapest rejection first: a runtime that carries host state it cannot
  // canonicalize opts the whole trial out of dedup.
  std::string digest;
  if (!rt.AppendStateDigest(digest)) {
    return false;
  }

  std::string& c = out->canonical;
  Put8(c, kCanonicalTag);
  Put32(c, paused_task);
  Put32(c, mem.fram_used());
  Put32(c, mem.sram_used());

  // Durable image, page by page, through the dirty-stamp cache.
  const std::vector<uint64_t>& stamps = mem.page_stamps();
  if (mem.mem_uid() != mem_uid_ || page_hash_.size() != stamps.size()) {
    mem_uid_ = mem.mem_uid();
    page_hash_.assign(stamps.size(), 0);
    page_synced_.assign(stamps.size(), 0);
  }
  const uint64_t epoch = mem.snap_epoch();
  const uint32_t pages = (mem.fram_used() + kPage - 1) / kPage;
  for (uint32_t p = 0; p < pages; ++p) {
    if (page_synced_[p] == 0 || page_synced_[p] < stamps[p]) {
      page_hash_[p] = HashPage(mem, p);
      page_synced_[p] = epoch;
    }
    Put64(c, page_hash_[p]);
  }
  mem.EndPageScan();

  // Host-side runtime state (undo logs, open-block depth, ...).
  PutStr(c, digest);

  // The event-scan fold carried across the failure: it seeds the suffix scan, so two
  // states must agree on it for their verdicts to coincide. Prefix violations ride
  // along — a violating prefix can therefore never alias a clean one.
  Put32(c, scan.io_lane_stride);
  PutBytes(c, scan.io_locked);
  PutBytes(c, scan.dma_locked);
  Put32(c, static_cast<uint32_t>(scan.last_nv_dma.size()));
  for (size_t i = 0; i < scan.last_nv_dma.size(); ++i) {
    Put8(c, i < scan.last_nv_dma_set.size() ? scan.last_nv_dma_set[i] : 0);
    PutEvent(c, scan.last_nv_dma[i]);
  }
  Put32(c, static_cast<uint32_t>(scan.violations.size()));
  for (const Violation& v : scan.violations) {
    Put8(c, static_cast<uint8_t>(v.invariant));
    PutStr(c, v.subject);
    PutStr(c, v.detail);
  }

  out->probe = platform::HashBytes64(c.data(), c.size());
  out->valid = true;
  return true;
}

DedupTable::DedupTable(uint32_t probe_bits)
    : probe_mask_(probe_bits >= 64 ? ~uint64_t{0} : (uint64_t{1} << probe_bits) - 1) {}

const std::string* DedupTable::FindIn(const std::vector<std::string>& bucket,
                                      const StateKey& key) {
  for (const std::string& canonical : bucket) {
    // The canonical bytes are the ground truth; no hash decides equality.
    if (canonical == key.canonical) {
      return &canonical;
    }
    ++probe_collisions_;
  }
  return nullptr;
}

bool DedupTable::Lookup(const StateKey& key) {
  if (!key.valid) {
    return false;
  }
  auto it = buckets_.find(BucketOf(key.probe));
  if (it == buckets_.end() || FindIn(it->second, key) == nullptr) {
    return false;
  }
  ++hits_;
  return true;
}

void DedupTable::Insert(const StateKey& key) {
  if (!key.valid) {
    return;
  }
  std::vector<std::string>& bucket = buckets_[BucketOf(key.probe)];
  if (!bucket.empty()) {
    const uint64_t collisions_before = probe_collisions_;
    const bool present = FindIn(bucket, key) != nullptr;
    probe_collisions_ = collisions_before;  // inserts don't count as lookup traffic
    if (present) {
      return;
    }
  }
  bucket.push_back(key.canonical);
  ++entries_;
}

}  // namespace easeio::chk
