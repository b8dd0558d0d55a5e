#include "src/sim/mux.h"

#include "src/support/check.h"

namespace efeu::sim {

I2cMux::I2cMux(I2cBus* upstream, std::vector<I2cBus*> downstream, const MuxConfig& config)
    : upstream_(upstream),
      downstream_(std::move(downstream)),
      config_(config),
      upstream_id_(upstream->AddDriver()),
      target_(this, config.address) {
  EFEU_CHECK(downstream_.size() <= 32, "I2cMux: at most 32 downstream channels");
  downstream_ids_.reserve(downstream_.size());
  for (I2cBus* bus : downstream_) {
    downstream_ids_.push_back(bus->AddDriver());
  }
}

int I2cMux::RotateMask(int mask) const {
  int n = config_.channels;
  int all = (1 << n) - 1;
  mask &= all;
  return ((mask << 1) | (mask >> (n - 1))) & all;
}

void I2cMux::ApplySelect(int mask) {
  mask &= (1 << config_.channels) - 1;
  ++selects_applied_;
  if (stuck_left_ > 0) {
    --stuck_left_;
    ++selects_stuck_;
    return;
  }
  if (fault_plan_ != nullptr) {
    if (int duration = fault_plan_->Consult(FaultKind::kMuxStuck)) {
      // This apply and the next duration-1 are swallowed; the ACK already
      // went out, so only a read-back can tell the driver.
      stuck_left_ = duration - 1;
      ++selects_stuck_;
      return;
    }
    if (fault_plan_->Consult(FaultKind::kMuxMisroute) > 0 && config_.channels > 1) {
      control_mask_ = mask;
      routed_mask_ = RotateMask(mask);
      ++selects_misrouted_;
      return;
    }
  }
  control_mask_ = mask;
  routed_mask_ = mask;
}

void I2cMux::OnStart() { have_pending_ = false; }

void I2cMux::OnStop() {
  if (target_.writing() && have_pending_) {
    ApplySelect(pending_mask_);
  }
  have_pending_ = false;
}

bool I2cMux::OnWriteByte(uint8_t byte) {
  // Every byte is acknowledged; only the last one before the STOP becomes
  // the select mask (the stack's two offset bytes pass through).
  pending_mask_ = byte;
  have_pending_ = true;
  return true;
}

void I2cMux::Evaluate() {
  target_.Clock(upstream_->scl(), upstream_->sda());
  // After the clock: a STOP may have just moved the routed mask.
  gates_ = ComputePassGates();
}

I2cMux::PassGates I2cMux::ComputePassGates() const {
  // Every selected channel and the upstream segment form one wired-AND net.
  // Each side's forwarded drive is the AND of every OTHER segment's
  // except-own level, so the mux's own forwarded low never reads back as a
  // latched low (see I2cBus::SclExcept).
  uint32_t low_scl = 0;  // selected channels whose segment pulls SCL low
  uint32_t low_sda = 0;
  for (size_t c = 0; c < downstream_.size(); ++c) {
    if ((routed_mask_ >> c) & 1) {
      if (!downstream_[c]->SclExcept(downstream_ids_[c])) {
        low_scl |= 1u << c;
      }
      if (!downstream_[c]->SdaExcept(downstream_ids_[c])) {
        low_sda |= 1u << c;
      }
    }
  }
  const bool up_scl = upstream_->SclExcept(upstream_id_);
  const bool up_sda = upstream_->SdaExcept(upstream_id_);
  PassGates gates;
  gates.up_scl = low_scl == 0;
  gates.up_sda = low_sda == 0;
  for (size_t c = 0; c < downstream_.size(); ++c) {
    const uint32_t bit = 1u << c;
    if ((routed_mask_ >> c) & 1) {
      if (!up_scl || (low_scl & ~bit) != 0) {
        gates.down_scl &= ~bit;
      }
      if (!up_sda || (low_sda & ~bit) != 0) {
        gates.down_sda &= ~bit;
      }
    }
  }
  return gates;
}

uint64_t I2cMux::IdleCycles() const {
  if (!target_.Settled(upstream_->scl(), upstream_->sda())) {
    return 0;
  }
  return ComputePassGates() == gates_ ? rtl::kIdleForever : 0;
}

void I2cMux::Commit() {
  const bool fsm_sda = target_.Commit();
  upstream_->SetDriver(upstream_id_, gates_.up_scl, gates_.up_sda && fsm_sda);
  for (size_t c = 0; c < downstream_.size(); ++c) {
    downstream_[c]->SetDriver(downstream_ids_[c], (gates_.down_scl >> c) & 1,
                              (gates_.down_sda >> c) & 1);
  }
}

}  // namespace efeu::sim
