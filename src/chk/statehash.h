// Canonical state fingerprinting for the explorer's dedup layer.
//
// Two trials whose post-reboot worlds agree on everything the invariant engine can
// observe must produce the same verdicts, so the second one need not run. The
// observable world is: the durable memory image (modulo runtime metadata that is
// *recorded* but never *read* — see Runtime::AppendStateMask), the runtime's host-side
// state (Runtime::AppendStateDigest), the identity of the task that was interrupted,
// and the event-scan fold state carried across the failure (locks, last NV->NV DMA,
// prefix violations). StateHasher encodes exactly that set into a canonical byte
// string; everything deliberately excluded — diagnostics counters, SRAM, clocks,
// reboot ordinals, peripheral RNG state — is listed in DESIGN.md §14.
//
// The hot path rides the simulator's dirty-page stamps (sim::Memory::page_stamps):
// per-page 64-bit hashes are cached per device and recomputed only for pages written
// since the last scan, so steady-state fingerprinting touches the few pages a trial
// actually dirtied, not the whole FRAM image.
//
// The dedup table resolves membership in two stages: a 64-bit probe
// (platform::HashBytes64 over the canonical bytes) selects a bucket, and the candidate's
// canonical bytes are compared with each entry's. That comparison, not any hash, is
// what declares two canonical strings equal, so a forged probe can never forge a
// verdict. (The canonical string itself still carries one 64-bit hash per FRAM page;
// see ROADMAP item 3.)

#ifndef EASEIO_CHK_STATEHASH_H_
#define EASEIO_CHK_STATEHASH_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "chk/invariants.h"
#include "kernel/runtime.h"
#include "sim/memory.h"

namespace easeio::chk {

// One fingerprinted state: the authoritative canonical encoding plus its fast probe.
struct StateKey {
  bool valid = false;      // false: this state opted out of dedup (see Fingerprint)
  uint64_t probe = 0;      // HashBytes64(canonical) — the hot-path discriminator
  std::string canonical;   // full canonical encoding — the ground truth
};

// Per-worker fingerprint builder with a dirty-page hash cache.
class StateHasher {
 public:
  // Rebinds to a (re)built runtime: collects its static mask ranges (dead metadata
  // the canonical form zeroes). Call once per trial-stack Prepare. The page-hash
  // cache is NOT reset here — it keys on sim::Memory::mem_uid and the page stamps,
  // so it stays valid across Prepare/Reset cycles of the same device.
  void BeginTrial(const kernel::Runtime& rt);

  // Encodes the post-reboot state into *out. Returns false (out->valid == false)
  // when the runtime cannot canonicalize its host state (AppendStateDigest returned
  // false) — such states never participate in dedup.
  bool Fingerprint(const sim::Memory& mem, const kernel::Runtime& rt,
                   kernel::TaskId paused_task, const EventScanState& scan,
                   StateKey* out);

 private:
  uint64_t HashPage(const sim::Memory& mem, uint32_t page) const;

  // Mask spans as [begin, end) FRAM offsets, sorted; rebuilt each BeginTrial.
  std::vector<std::pair<uint32_t, uint32_t>> mask_spans_;
  uint64_t mem_uid_ = 0;             // device identity the cache below belongs to
  std::vector<uint64_t> page_hash_;  // cached masked hash per page
  std::vector<uint64_t> page_synced_;  // epoch the cache entry was computed at; 0 = never
};

// The dedup table: probe-bucketed canonical states with verified membership.
// Not thread-safe; callers that share one table across workers wrap it in a mutex.
class DedupTable {
 public:
  // probe_bits < 64 truncates the probe used for bucketing — a test hook that forces
  // bucket collisions (probe_bits = 0 puts every state in one bucket) so the
  // byte-compare verification path is exercised deterministically.
  explicit DedupTable(uint32_t probe_bits = 64);

  // True iff an entry with byte-identical canonical encoding exists (counted as a
  // hit). Invalid keys never match. Bucket collisions that fail verification are
  // counted in probe_collisions().
  bool Lookup(const StateKey& key);

  // Inserts the key unless an identical entry already exists. Invalid keys are
  // ignored.
  void Insert(const StateKey& key);

  uint64_t hits() const { return hits_; }
  uint64_t probe_collisions() const { return probe_collisions_; }
  size_t size() const { return entries_; }

 private:
  uint64_t BucketOf(uint64_t probe) const { return probe & probe_mask_; }
  // Returns the entry in `bucket` whose canonical bytes equal the key's, or nullptr,
  // counting every entry compared and found different in probe_collisions_.
  const std::string* FindIn(const std::vector<std::string>& bucket, const StateKey& key);

  uint64_t probe_mask_;
  std::unordered_map<uint64_t, std::vector<std::string>> buckets_;
  uint64_t hits_ = 0;
  uint64_t probe_collisions_ = 0;
  size_t entries_ = 0;
};

}  // namespace easeio::chk

#endif  // EASEIO_CHK_STATEHASH_H_
