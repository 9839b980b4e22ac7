// Simulated Low Energy Accelerator (LEA).
//
// The MSP430FR5994's LEA executes vector math (FIR, MAC, transforms) out of a dedicated
// SRAM window at a fraction of the CPU's per-MAC cost. Two properties matter for the
// paper's workloads and are enforced here:
//   * operands must live in (volatile) SRAM — which is why the FIR and DNN applications
//     stage inputs/coefficients from FRAM with DMA and write results back with DMA;
//   * an invocation is a peripheral operation: charged first, effects applied only on
//     completion.
// Arithmetic is int16 fixed point with Q15 coefficients, matching LEA firmware style.
// Each output's products are summed mod 2^32, then read as int32, shifted right by 15
// and saturated to int16; the wrap makes the sum independent of the order in which a
// kernel adds its products. Fir and Conv2dValid run tap-major over blocks of outputs
// and read a block's inputs before writing its outputs, so their output operand must
// not overlap an input (checked).

#ifndef EASEIO_SIM_LEA_H_
#define EASEIO_SIM_LEA_H_

#include <cstdint>
#include <initializer_list>

namespace easeio::sim {

class Device;

class LeaAccelerator {
 public:
  // FIR convolution: dst[i] = sum_{k<taps} (coef[k] * src[i+k]) >> 15 for i < out_len.
  // src needs out_len + taps - 1 input samples. All operands in SRAM.
  void Fir(Device& dev, uint32_t src, uint32_t coef, uint32_t dst, uint32_t out_len,
           uint32_t taps);

  // In-place ReLU over `len` int16 elements.
  void Relu(Device& dev, uint32_t addr, uint32_t len);

  // Single-channel 2-D valid convolution of an in_h x in_w image with a k x k kernel
  // (Q15 weights); output is (in_h-k+1) x (in_w-k+1).
  void Conv2dValid(Device& dev, uint32_t src, uint32_t kernel, uint32_t dst, uint32_t in_h,
                   uint32_t in_w, uint32_t k);

  // Fully connected layer: dst[o] = sum_i (w[o*in_len+i] * src[i]) >> 15, o < out_len.
  void FullyConnected(Device& dev, uint32_t src, uint32_t weights, uint32_t dst,
                      uint32_t in_len, uint32_t out_len);

  // Argmax over `len` int16 elements; writes the winning index (int16) to dst.
  void MaxIndex(Device& dev, uint32_t src, uint32_t len, uint32_t dst);

  uint64_t invocations() const { return invocations_; }
  uint64_t macs() const { return macs_; }

 private:
  // Charges setup + per-MAC cost and checks the SRAM-residence constraint.
  void Begin(Device& dev, uint64_t mac_count, std::initializer_list<uint32_t> operand_addrs,
             std::initializer_list<uint32_t> operand_sizes);

  uint64_t invocations_ = 0;
  uint64_t macs_ = 0;
};

}  // namespace easeio::sim

#endif  // EASEIO_SIM_LEA_H_
