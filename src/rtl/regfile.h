// The MMIO-AXI Lite register file as an RTL component (the hardware half of
// the generated software/hardware boundary, paper section 3.5 and Figure 7).
// The software side accesses the registers between clock ticks through the
// methods below; the hardware side speaks the ready/valid handshake. The
// valid and ready flags auto-reset: a non-zero software write to VALID
// publishes the staged message exactly once, a non-zero write to READY
// accepts exactly one packet — preventing double delivery and packet loss
// with a slow software peer.

#ifndef SRC_RTL_REGFILE_H_
#define SRC_RTL_REGFILE_H_

#include <algorithm>
#include <span>
#include <vector>

#include "src/rtl/component.h"

namespace efeu::rtl {

class MmioRegfile : public RtlComponent {
 public:
  MmioRegfile(int down_words, int up_words)
      : down_staged_(static_cast<size_t>(down_words), 0),
        up_latched_(static_cast<size_t>(up_words), 0) {}

  // Ablation: disable the automatic valid/ready reset of section 3.5. The
  // handshake then behaves like the pure-hardware protocol, and a slow
  // software peer double-delivers messages (the failure mode the paper's
  // design prevents).
  void set_disable_auto_reset(bool disable) { disable_auto_reset_ = disable; }

  // `down` carries messages software -> hardware (this component sends);
  // `up` the reverse (this component receives).
  void BindDown(HsWire* wire) {
    down_wire_ = wire;
    RecheckDownData();
  }
  void BindUp(HsWire* wire) { up_wire_ = wire; }

  // -- Software-side register accesses (between ticks) ---------------------
  void WriteDownWord(int index, int32_t value) {
    down_staged_[index] = value;
    RecheckDownData();
  }
  // Burst write: stages every data word in one AXI burst. Register contents
  // are identical to word-at-a-time access; only the modeled bus cost (paid
  // by the driver's timing model) differs.
  void WriteDown(std::span<const int32_t> words) {
    std::copy(words.begin(), words.end(), down_staged_.begin());
    RecheckDownData();
  }
  void SetDownValid() { sw_down_valid_ = true; }
  // True while the published message has not been consumed by hardware.
  bool DownPending() const { return sw_down_valid_ || down_out_valid_; }
  void ArmUp() { sw_up_ready_ = true; }
  bool UpFull() const { return up_full_; }
  int32_t ReadUpWord(int index) const { return up_latched_[index]; }
  // Burst read, zero-copy: the span aliases the latch registers and stays
  // valid until the next packet lands, which cannot happen before ArmUp()
  // re-arms the handshake — consume and deliver before re-arming.
  std::span<const int32_t> ReadUp() const { return up_latched_; }
  // Acknowledges the landed message and clears the interrupt.
  void ConsumeUp() {
    up_full_ = false;
    irq_ = false;
  }
  bool irq() const { return irq_; }

  // Software-triggered synchronous soft reset (the generated SOFT_RESET
  // register): drops any staged/latched message and every handshake flag,
  // publishing the deasserted valid/ready onto the bound wires immediately
  // so the hardware side cannot observe a stale handshake mid-reset.
  void SoftReset();

  // -- RtlComponent -----------------------------------------------------
  void Evaluate() override;
  void Commit() override;
  // Idle while neither handshake can move and the down wire already shows
  // the staged down words (a lost doorbell leaves staged words the wire has
  // not seen yet).
  uint64_t IdleCycles() const override;

 private:
  // Software stages down words between edges, so after each staging write
  // (and on binding) compare them with the wire once, instead of on every
  // poll. The flags need no such check: only Commit and SoftReset move them,
  // and both publish them.
  void RecheckDownData() {
    down_data_published_ = down_wire_ == nullptr || down_wire_->data == down_staged_;
  }

  HsWire* down_wire_ = nullptr;
  HsWire* up_wire_ = nullptr;

  std::vector<int32_t> down_staged_;
  // The down wire's data equals down_staged_.
  bool down_data_published_ = true;
  bool sw_down_valid_ = false;
  bool down_out_valid_ = false;
  bool next_down_out_valid_ = false;
  bool next_clear_sw_down_ = false;

  std::vector<int32_t> up_latched_;
  bool sw_up_ready_ = false;
  bool up_out_ready_ = false;
  bool next_up_out_ready_ = false;
  bool next_clear_sw_up_ = false;
  bool next_latch_up_ = false;
  bool up_full_ = false;
  bool irq_ = false;
  bool disable_auto_reset_ = false;
};

}  // namespace efeu::rtl

#endif  // SRC_RTL_REGFILE_H_
