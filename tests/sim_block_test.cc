// Exactness of the simulator's block data path against the word-at-a-time forms it
// replaces: the LEA kernels against plain scalar loops, and Device::CpuCopy against a
// LoadWord/StoreWord loop. Both sides must agree bit for bit — output bytes, clock,
// RunStats, EnergyMeter, capacitor, arenas and dirty-page stamps.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>
#include <vector>

#include "platform/rng.h"
#include "sim/device.h"

namespace easeio::sim {
namespace {

// --- LEA kernels vs scalar references ------------------------------------------------

// The scalar loops, output by output, with the accumulator's int32 wrap made explicit:
// the 64-bit sum is reduced mod 2^32 before the Q15 shift and saturation.
int16_t RefNarrow(int64_t sum) {
  const auto acc = static_cast<int32_t>(static_cast<uint32_t>(sum));
  return static_cast<int16_t>(std::clamp<int32_t>(acc >> 15, INT16_MIN, INT16_MAX));
}

std::vector<int16_t> RefFir(const std::vector<int16_t>& in, const std::vector<int16_t>& coef,
                            uint32_t out_len) {
  std::vector<int16_t> out(out_len);
  for (uint32_t i = 0; i < out_len; ++i) {
    int64_t acc = 0;
    for (uint32_t k = 0; k < coef.size(); ++k) {
      acc += int64_t{coef[k]} * in[i + k];
    }
    out[i] = RefNarrow(acc);
  }
  return out;
}

std::vector<int16_t> RefConv(const std::vector<int16_t>& img, const std::vector<int16_t>& ker,
                             uint32_t in_h, uint32_t in_w, uint32_t k) {
  const uint32_t out_h = in_h - k + 1;
  const uint32_t out_w = in_w - k + 1;
  std::vector<int16_t> out(out_h * out_w);
  for (uint32_t y = 0; y < out_h; ++y) {
    for (uint32_t x = 0; x < out_w; ++x) {
      int64_t acc = 0;
      for (uint32_t ky = 0; ky < k; ++ky) {
        for (uint32_t kx = 0; kx < k; ++kx) {
          acc += int64_t{ker[ky * k + kx]} * img[(y + ky) * in_w + (x + kx)];
        }
      }
      out[y * out_w + x] = RefNarrow(acc);
    }
  }
  return out;
}

std::vector<int16_t> RefFc(const std::vector<int16_t>& in, const std::vector<int16_t>& w,
                           uint32_t out_len) {
  const auto in_len = static_cast<uint32_t>(in.size());
  std::vector<int16_t> out(out_len);
  for (uint32_t o = 0; o < out_len; ++o) {
    int64_t acc = 0;
    for (uint32_t i = 0; i < in_len; ++i) {
      acc += int64_t{w[o * in_len + i]} * in[i];
    }
    out[o] = RefNarrow(acc);
  }
  return out;
}

// Operand families: uniform int16, only the two extremes (drives every product to
// +-2^30, so sums wrap and saturate), and small values (sums that stay in range).
enum class Operands { kUniform, kExtremes, kSmall };

std::vector<int16_t> Draw(Xorshift64Star& rng, size_t n, Operands kind) {
  std::vector<int16_t> v(n);
  for (int16_t& x : v) {
    const uint64_t r = rng.Next();
    switch (kind) {
      case Operands::kUniform:
        x = static_cast<int16_t>(static_cast<uint16_t>(r));
        break;
      case Operands::kExtremes:
        x = (r & 1) ? INT16_MAX : INT16_MIN;
        break;
      case Operands::kSmall:
        x = static_cast<int16_t>(static_cast<int64_t>(r % 201) - 100);
        break;
    }
  }
  return v;
}

// A device with a large SRAM arena and helpers to stage int16 vectors in it.
struct LeaRig {
  NeverFailScheduler never;
  Device dev{[] {
               DeviceConfig c;
               c.sram_bytes = 48 * 1024;
               return c;
             }(),
             never};

  LeaRig() { dev.Begin(); }

  uint32_t Stage(const std::vector<int16_t>& v) {
    const uint32_t addr = dev.mem().AllocSram("op", static_cast<uint32_t>(v.size()) * 2);
    for (size_t i = 0; i < v.size(); ++i) {
      dev.mem().WriteI16(addr + static_cast<uint32_t>(2 * i), v[i]);
    }
    return addr;
  }
  uint32_t Out(size_t n) { return dev.mem().AllocSram("out", static_cast<uint32_t>(n) * 2); }

  // Byte-for-byte comparison of the kernel's output with the reference.
  void ExpectBytes(uint32_t addr, const std::vector<int16_t>& expect) {
    const uint8_t* got = dev.mem().PeekBlock(addr, static_cast<uint32_t>(expect.size()) * 2);
    EXPECT_EQ(std::memcmp(got, expect.data(), expect.size() * 2), 0);
  }
};

constexpr Operands kFamilies[] = {Operands::kUniform, Operands::kExtremes, Operands::kSmall};

TEST(LeaKernels, FirMatchesScalarLoop) {
  struct Shape {
    uint32_t out_len, taps;
  };
  // Output counts on both sides of the 256-output block, and taps == 1.
  const Shape shapes[] = {{1, 1}, {7, 1}, {255, 4}, {256, 16}, {257, 3}, {700, 16}, {1024, 16},
                          {513, 33}};
  Xorshift64Star rng(11);
  int wrapped = 0;
  for (const Shape& s : shapes) {
    for (Operands family : kFamilies) {
      LeaRig rig;
      const auto in = Draw(rng, s.out_len + s.taps - 1, family);
      const auto coef = Draw(rng, s.taps, family);
      const uint32_t src = rig.Stage(in);
      const uint32_t cp = rig.Stage(coef);
      const uint32_t dst = rig.Out(s.out_len);
      rig.dev.lea().Fir(rig.dev, src, cp, dst, s.out_len, s.taps);
      SCOPED_TRACE(testing::Message() << "out_len=" << s.out_len << " taps=" << s.taps
                                      << " family=" << static_cast<int>(family));
      rig.ExpectBytes(dst, RefFir(in, coef, s.out_len));
      for (uint32_t i = 0; i < s.out_len; ++i) {
        int64_t sum = 0;
        for (uint32_t k = 0; k < s.taps; ++k) {
          sum += int64_t{coef[k]} * in[i + k];
        }
        wrapped += sum != static_cast<int32_t>(static_cast<uint32_t>(sum));
      }
    }
  }
  EXPECT_GT(wrapped, 0) << "no case exercised the accumulator wrap";
}

TEST(LeaKernels, Conv2dValidMatchesScalarLoop) {
  struct Shape {
    uint32_t in_h, in_w, k;
  };
  // k from 1 to 5, non-square images, out_w == 1 (in_w == k), out_h == 1, and
  // images whose flattened output span crosses several blocks.
  const Shape shapes[] = {{1, 1, 1},  {6, 6, 3},   {7, 12, 2}, {12, 7, 4},  {9, 5, 5},
                          {5, 9, 5},  {20, 3, 3},  {4, 40, 4}, {20, 33, 3}, {30, 30, 5},
                          {17, 64, 1}, {40, 2, 2}};
  Xorshift64Star rng(12);
  for (const Shape& s : shapes) {
    for (Operands family : kFamilies) {
      LeaRig rig;
      const auto img = Draw(rng, s.in_h * s.in_w, family);
      const auto ker = Draw(rng, s.k * s.k, family);
      const uint32_t src = rig.Stage(img);
      const uint32_t kp = rig.Stage(ker);
      const uint32_t dst = rig.Out((s.in_h - s.k + 1) * (s.in_w - s.k + 1));
      rig.dev.lea().Conv2dValid(rig.dev, src, kp, dst, s.in_h, s.in_w, s.k);
      SCOPED_TRACE(testing::Message() << s.in_h << "x" << s.in_w << " k=" << s.k
                                      << " family=" << static_cast<int>(family));
      rig.ExpectBytes(dst, RefConv(img, ker, s.in_h, s.in_w, s.k));
    }
  }
}

TEST(LeaKernels, FullyConnectedMatchesScalarLoop) {
  struct Shape {
    uint32_t in_len, out_len;
  };
  const Shape shapes[] = {{1, 1}, {37, 5}, {300, 10}, {16, 64}, {257, 3}};
  Xorshift64Star rng(13);
  for (const Shape& s : shapes) {
    for (Operands family : kFamilies) {
      LeaRig rig;
      const auto in = Draw(rng, s.in_len, family);
      const auto w = Draw(rng, s.in_len * s.out_len, family);
      const uint32_t src = rig.Stage(in);
      const uint32_t wp = rig.Stage(w);
      const uint32_t dst = rig.Out(s.out_len);
      rig.dev.lea().FullyConnected(rig.dev, src, wp, dst, s.in_len, s.out_len);
      SCOPED_TRACE(testing::Message() << "in=" << s.in_len << " out=" << s.out_len
                                      << " family=" << static_cast<int>(family));
      rig.ExpectBytes(dst, RefFc(in, w, s.out_len));
    }
  }
}

TEST(LeaKernels, OutputOverlappingAnInputAborts) {
  LeaRig rig;
  const uint32_t buf = rig.Out(64);
  EXPECT_DEATH(rig.dev.lea().Fir(rig.dev, buf, buf + 100, buf + 2, 8, 4), "overlaps");
}

// --- CpuCopy: bulk path vs the word loop ---------------------------------------------

// The word loop CpuCopy falls back to, written against the public accessors.
void WordLoopCopy(Device& dev, uint32_t dst, uint32_t src, uint32_t nbytes) {
  for (uint32_t i = 0; i < (nbytes + 1) / 2; ++i) {
    dev.StoreWord(dst + 2 * i, dev.LoadWord(src + 2 * i));
  }
}

uint64_t Bits(double d) { return std::bit_cast<uint64_t>(d); }

// What one side of a comparison observed: whether the copy threw, and (if a capture
// plan is armed) the clock at each capture and the snapshot taken there.
struct Outcome {
  bool threw = false;
  std::vector<uint64_t> capture_on_us;
  std::vector<DeviceSnapshot> captures;
};

struct CopyCase {
  bool src_fram, dst_fram;
  uint32_t nbytes;
  int32_t dst_shift = 0;                 // dst = src + shift when non-zero (overlap)
  std::vector<uint64_t> fail_after;      // scripted failures, on-us after the copy starts
  std::vector<uint64_t> capture_after;   // capture instants, on-us after the copy starts
  bool capacitor = false;
};

// Runs one copy on a fresh device, by CpuCopy or by the word loop. Before the copy
// the device charges some compute in two phases and syncs a snapshot, so the copy
// starts from non-zero ledgers and the next SnapshotInto counts the pages it dirtied.
constexpr uint64_t kPrepAppUs = 1234;
constexpr uint64_t kPrepOverheadUs = 77;
constexpr uint64_t kCopyStartUs = kPrepAppUs + kPrepOverheadUs;

struct CopySide {
  ScriptedScheduler scripted{{}};
  CapacitorScheduler capacitor_sched;
  ConstantHarvester harvester{2e-3};
  std::unique_ptr<Device> dev;
  MemorySnapshot sync;
  Outcome out;

  CopySide(const CopyCase& c, bool bulk) {
    DeviceConfig config;
    config.seed = 5;
    if (c.capacitor) {
      config.use_capacitor = true;
      dev = std::make_unique<Device>(config, capacitor_sched, &harvester);
    } else {
      dev = std::make_unique<Device>(config, scripted);
    }
    Memory& mem = dev->mem();
    const uint32_t sram = mem.AllocSram("s", 4096);
    const uint32_t fram = mem.AllocFram("f", 4096);
    const uint32_t fram2 = mem.AllocFram("f2", 4096);
    Xorshift64Star rng(99);
    for (uint32_t i = 0; i < 4096; ++i) {
      mem.Write8(sram + i, static_cast<uint8_t>(rng.Next()));
    }
    for (uint32_t i = 0; i < 4096; ++i) {
      mem.Write8(fram + i, static_cast<uint8_t>(rng.Next()));
      mem.Write8(fram2 + i, static_cast<uint8_t>(rng.Next()));
    }
    // Odd offsets put the copies across page boundaries and off word alignment.
    const uint32_t src = (c.src_fram ? fram + 301 : sram + 17);
    uint32_t dst = c.dst_fram ? (c.src_fram ? fram2 + 250 : fram + 501) : sram + 1100;
    if (c.dst_shift != 0) {
      dst = src + c.dst_shift;
    }

    std::vector<uint64_t> fails;
    for (uint64_t d : c.fail_after) {
      fails.push_back(kCopyStartUs + d);
    }
    scripted.Rescript(fails, 500);
    dev->Begin();
    dev->Cpu(kPrepAppUs);
    {
      Device::PhaseScope scope(*dev, Phase::kOverhead);
      dev->Cpu(kPrepOverheadUs);
    }
    mem.SnapshotInto(sync);
    EXPECT_EQ(dev->clock().on_us(), kCopyStartUs);
    if (!c.capture_after.empty()) {
      std::vector<uint64_t> at;
      for (uint64_t d : c.capture_after) {
        at.push_back(kCopyStartUs + d);
      }
      dev->SetCapturePlan(at, [this](size_t) {
        out.capture_on_us.push_back(dev->clock().on_us());
        out.captures.push_back(dev->SnapshotAtReboot());
      });
    }
    try {
      if (bulk) {
        dev->CpuCopy(dst, src, c.nbytes);
      } else {
        WordLoopCopy(*dev, dst, src, c.nbytes);
      }
    } catch (const PowerFailure&) {
      out.threw = true;
    }
    mem.SnapshotInto(sync);
  }
};

void ExpectSameDevice(Device& a, Device& b) {
  EXPECT_EQ(a.clock().on_us(), b.clock().on_us());
  EXPECT_EQ(a.clock().off_us(), b.clock().off_us());
  EXPECT_EQ(std::memcmp(&a.stats(), &b.stats(), sizeof(RunStats)), 0) << "RunStats differ";
  for (Phase p : {Phase::kApp, Phase::kOverhead, Phase::kRedundant}) {
    EXPECT_EQ(Bits(a.meter().PhaseJ(p)), Bits(b.meter().PhaseJ(p))) << static_cast<int>(p);
  }
  EXPECT_EQ(Bits(a.capacitor().voltage()), Bits(b.capacitor().voltage()));
  const Memory& x = a.mem();
  const Memory& y = b.mem();
  EXPECT_EQ(std::memcmp(x.PeekBlock(Memory::kSramBase, x.sram_size()),
                        y.PeekBlock(Memory::kSramBase, y.sram_size()), x.sram_size()),
            0)
      << "SRAM differs";
  EXPECT_EQ(std::memcmp(x.fram_data(), y.fram_data(), x.fram_size()), 0) << "FRAM differs";
  EXPECT_EQ(x.pages_copied(), y.pages_copied()) << "dirty-page stamps differ";
}

// Returns what the CpuCopy side observed, for the caller's own expectations.
Outcome ExpectCopyMatchesWordLoop(const CopyCase& c) {
  CopySide bulk(c, /*bulk=*/true);
  CopySide words(c, /*bulk=*/false);
  EXPECT_EQ(bulk.out.threw, words.out.threw);
  ExpectSameDevice(*bulk.dev, *words.dev);
  EXPECT_EQ(bulk.out.capture_on_us, words.out.capture_on_us);
  for (size_t i = 0; i < std::min(bulk.out.captures.size(), words.out.captures.size()); ++i) {
    const DeviceSnapshot& s = bulk.out.captures[i];
    const DeviceSnapshot& t = words.out.captures[i];
    EXPECT_EQ(s.mem.fram, t.mem.fram) << "capture " << i;
    EXPECT_EQ(std::memcmp(&s.stats, &t.stats, sizeof(RunStats)), 0) << "capture " << i;
    EXPECT_EQ(std::memcmp(&s.meter, &t.meter, sizeof(EnergyMeter)), 0) << "capture " << i;
  }
  return bulk.out;
}

TEST(CpuCopyBulk, MatchesWordLoopAcrossArenas) {
  for (uint32_t n : {1u, 2u, 33u, 64u, 511u, 1024u}) {
    SCOPED_TRACE(testing::Message() << "nbytes=" << n);
    ExpectCopyMatchesWordLoop({/*src_fram=*/true, /*dst_fram=*/false, n});
    ExpectCopyMatchesWordLoop({/*src_fram=*/false, /*dst_fram=*/true, n});
    ExpectCopyMatchesWordLoop({/*src_fram=*/true, /*dst_fram=*/true, n});
    ExpectCopyMatchesWordLoop({/*src_fram=*/false, /*dst_fram=*/false, n});
  }
}

TEST(CpuCopyBulk, OverlappingRangesKeepWordLoopSemantics) {
  for (int32_t shift : {2, -2, 1, -1, 7}) {
    SCOPED_TRACE(testing::Message() << "shift=" << shift);
    ExpectCopyMatchesWordLoop({true, true, 200, shift});
    ExpectCopyMatchesWordLoop({false, false, 201, shift});
  }
}

TEST(CpuCopyBulk, FailureInsideCopyTearsAtTheSameWord) {
  // FRAM->FRAM costs 3 us per word, so the 100-word copy ends at +300: failures
  // land after the first load, mid-word, on a word boundary, on the last store, and
  // one tick after the copy.
  for (uint64_t at : {1u, 2u, 3u, 151u, 299u, 300u, 301u}) {
    SCOPED_TRACE(testing::Message() << "fail_after=" << at);
    CopyCase c{true, true, 200};
    c.fail_after = {at};
    EXPECT_EQ(ExpectCopyMatchesWordLoop(c).threw, at <= 300u);
  }
}

TEST(CpuCopyBulk, CaptureInsideCopyObservesTheSameState) {
  for (std::vector<uint64_t> at :
       {std::vector<uint64_t>{1}, std::vector<uint64_t>{100, 101, 250}, {299}, {300}}) {
    CopyCase c{true, false, 400};  // FRAM->SRAM, 2 us per word: ends at +400
    c.capture_after = at;
    EXPECT_EQ(ExpectCopyMatchesWordLoop(c).capture_on_us.size(), at.size());
    CopyCase f{false, true, 100};  // SRAM->FRAM, 3 us per word, failing at +120
    f.capture_after = at;
    f.fail_after = {120};
    EXPECT_TRUE(ExpectCopyMatchesWordLoop(f).threw);
  }
}

TEST(CpuCopyBulk, CapacitorModeMatchesWordLoop) {
  for (uint32_t n : {33u, 1024u}) {
    CopyCase c{true, false, n};
    c.capacitor = true;
    ExpectCopyMatchesWordLoop(c);
    c.dst_fram = true;
    ExpectCopyMatchesWordLoop(c);
  }
}

}  // namespace
}  // namespace easeio::sim
