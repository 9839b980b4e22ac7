#include "sim/lea.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <initializer_list>

#include "platform/check.h"
#include "sim/costs.h"
#include "sim/device.h"

namespace easeio::sim {

namespace {

static_assert(std::endian::native == std::endian::little,
              "the kernels load simulated little-endian words with memcpy");

// Outputs per accumulator block: 1 KiB of uint32 accumulators stays in L1.
constexpr uint32_t kBlock = 256;

// Raw element access for the kernel inner loops. Begin() has already range-checked
// every operand and pinned it to SRAM, so the loops stream through pointers instead of
// paying a Resolve (bounds + arena dispatch) per element. memcpy loads keep the loops
// free of byte shuffling, so the compiler vectorizes them.
int16_t LoadI16(const uint8_t* p) {
  int16_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void StoreI16(uint8_t* p, int16_t v) { std::memcpy(p, &v, sizeof v); }

// Accumulators are uint32: sums wrap mod 2^32 with defined behaviour, so the order in
// which a kernel adds its products cannot change the result. The Q15 output is the
// wrapped sum read as int32, shifted and saturated.
int16_t NarrowQ15(uint32_t acc) {
  return static_cast<int16_t>(
      std::clamp<int32_t>(static_cast<int32_t>(acc) >> 15, INT16_MIN, INT16_MAX));
}

// acc[i] += w * x[i] for i < n. An int16 x int16 product always fits in int32.
void MacRow(uint32_t* acc, int16_t w, const uint8_t* x, uint32_t n) {
  for (uint32_t i = 0; i < n; ++i) {
    acc[i] += static_cast<uint32_t>(static_cast<int32_t>(w) * LoadI16(x + 2 * i));
  }
}

// The blocked kernels read all of a block's inputs before writing its outputs, so the
// output must not share bytes with any input.
void CheckDisjoint(uint32_t out, uint32_t out_size, uint32_t in, uint32_t in_size) {
  EASEIO_CHECK(out + out_size <= in || in + in_size <= out,
               "LEA output overlaps an input operand");
}

}  // namespace

void LeaAccelerator::Begin(Device& dev, uint64_t mac_count,
                           std::initializer_list<uint32_t> operand_addrs,
                           std::initializer_list<uint32_t> operand_sizes) {
  auto size_it = operand_sizes.begin();
  for (uint32_t addr : operand_addrs) {
    EASEIO_CHECK(size_it != operand_sizes.end(), "operand addr/size mismatch");
    EASEIO_CHECK(dev.mem().RangeValid(addr, *size_it), "LEA operand out of range");
    EASEIO_CHECK(dev.mem().Classify(addr) == MemKind::kSram,
                 "LEA operands must reside in SRAM (stage them with DMA)");
    ++size_it;
  }
  const uint64_t mac_cycles =
      (mac_count * kLeaCyclesPerMacNumerator + kLeaCyclesPerMacDenominator - 1) /
      kLeaCyclesPerMacDenominator;
  dev.Spend(kLeaSetupCycles, kLeaSetupEnergyJ);
  dev.Spend(std::max<uint64_t>(mac_cycles, 1),
            static_cast<double>(mac_count) * kLeaEnergyPerMacJ);
  ++invocations_;
  macs_ += mac_count;
}

void LeaAccelerator::Fir(Device& dev, uint32_t src, uint32_t coef, uint32_t dst,
                         uint32_t out_len, uint32_t taps) {
  EASEIO_CHECK(out_len > 0 && taps > 0, "empty FIR");
  const uint32_t in_len = out_len + taps - 1;
  Begin(dev, static_cast<uint64_t>(out_len) * taps, {src, coef, dst},
        {in_len * 2, taps * 2, out_len * 2});
  CheckDisjoint(dst, out_len * 2, src, in_len * 2);
  CheckDisjoint(dst, out_len * 2, coef, taps * 2);
  Memory& mem = dev.mem();
  const uint8_t* sp = mem.PeekBlock(src, in_len * 2);
  const uint8_t* cp = mem.PeekBlock(coef, taps * 2);
  uint8_t* dp = mem.MutableSramBlock(dst, out_len * 2);
  // Tap-major over blocks of outputs: each tap is one vectorizable row update.
  uint32_t acc[kBlock];
  for (uint32_t base = 0; base < out_len; base += kBlock) {
    const uint32_t n = std::min(kBlock, out_len - base);
    std::fill_n(acc, n, 0u);
    for (uint32_t k = 0; k < taps; ++k) {
      MacRow(acc, LoadI16(cp + 2 * k), sp + 2 * (base + k), n);
    }
    for (uint32_t i = 0; i < n; ++i) {
      StoreI16(dp + 2 * (base + i), NarrowQ15(acc[i]));
    }
  }
}

void LeaAccelerator::Relu(Device& dev, uint32_t addr, uint32_t len) {
  EASEIO_CHECK(len > 0, "empty ReLU");
  Begin(dev, len, {addr}, {len * 2});
  uint8_t* p = dev.mem().MutableSramBlock(addr, len * 2);
  for (uint32_t i = 0; i < len; ++i) {
    if (LoadI16(p + 2 * i) < 0) {
      StoreI16(p + 2 * i, 0);
    }
  }
}

void LeaAccelerator::Conv2dValid(Device& dev, uint32_t src, uint32_t kernel, uint32_t dst,
                                 uint32_t in_h, uint32_t in_w, uint32_t k) {
  EASEIO_CHECK(k > 0 && in_h >= k && in_w >= k, "kernel larger than input");
  const uint32_t out_h = in_h - k + 1;
  const uint32_t out_w = in_w - k + 1;
  Begin(dev, static_cast<uint64_t>(out_h) * out_w * k * k, {src, kernel, dst},
        {in_h * in_w * 2, k * k * 2, out_h * out_w * 2});
  CheckDisjoint(dst, out_h * out_w * 2, src, in_h * in_w * 2);
  CheckDisjoint(dst, out_h * out_w * 2, kernel, k * k * 2);
  Memory& mem = dev.mem();
  const uint8_t* sp = mem.PeekBlock(src, in_h * in_w * 2);
  const uint8_t* kp = mem.PeekBlock(kernel, k * k * 2);
  uint8_t* dp = mem.MutableSramBlock(dst, out_h * out_w * 2);
  // Flattened FIR over the image: output (y, x) accumulates at j = y*in_w + x, and
  // kernel tap (ky, kx) reads the input at j + ky*in_w + kx. Positions with
  // x >= out_w are computed and dropped. The last kept position is
  // (out_h-1)*in_w + out_w-1, so the largest read is in_h*in_w - 1: inside the image.
  const uint32_t flat_len = (out_h - 1) * in_w + out_w;
  uint32_t acc[kBlock];
  for (uint32_t base = 0; base < flat_len; base += kBlock) {
    const uint32_t n = std::min(kBlock, flat_len - base);
    std::fill_n(acc, n, 0u);
    for (uint32_t ky = 0; ky < k; ++ky) {
      for (uint32_t kx = 0; kx < k; ++kx) {
        MacRow(acc, LoadI16(kp + 2 * (ky * k + kx)), sp + 2 * (base + ky * in_w + kx), n);
      }
    }
    uint32_t y = base / in_w;
    uint32_t x = base % in_w;
    for (uint32_t i = 0; i < n; ++i) {
      if (x < out_w) {
        StoreI16(dp + 2 * (y * out_w + x), NarrowQ15(acc[i]));
      }
      if (++x == in_w) {
        x = 0;
        ++y;
      }
    }
  }
}

void LeaAccelerator::FullyConnected(Device& dev, uint32_t src, uint32_t weights, uint32_t dst,
                                    uint32_t in_len, uint32_t out_len) {
  EASEIO_CHECK(in_len > 0 && out_len > 0, "empty fully-connected layer");
  Begin(dev, static_cast<uint64_t>(in_len) * out_len, {src, weights, dst},
        {in_len * 2, in_len * out_len * 2, out_len * 2});
  Memory& mem = dev.mem();
  const uint8_t* sp = mem.PeekBlock(src, in_len * 2);
  const uint8_t* wp = mem.PeekBlock(weights, in_len * out_len * 2);
  uint8_t* dp = mem.MutableSramBlock(dst, out_len * 2);
  for (uint32_t o = 0; o < out_len; ++o) {
    uint32_t acc = 0;
    for (uint32_t i = 0; i < in_len; ++i) {
      acc += static_cast<uint32_t>(static_cast<int32_t>(LoadI16(wp + 2 * (o * in_len + i))) *
                                   LoadI16(sp + 2 * i));
    }
    StoreI16(dp + 2 * o, NarrowQ15(acc));
  }
}

void LeaAccelerator::MaxIndex(Device& dev, uint32_t src, uint32_t len, uint32_t dst) {
  EASEIO_CHECK(len > 0, "empty argmax");
  Begin(dev, len, {src, dst}, {len * 2, 2});
  Memory& mem = dev.mem();
  const uint8_t* sp = mem.PeekBlock(src, len * 2);
  int16_t best = LoadI16(sp);
  uint32_t best_i = 0;
  for (uint32_t i = 1; i < len; ++i) {
    const int16_t v = LoadI16(sp + 2 * i);
    if (v > best) {
      best = v;
      best_i = i;
    }
  }
  StoreI16(mem.MutableSramBlock(dst, 2), static_cast<int16_t>(best_i));
}

}  // namespace easeio::sim
