// The target (responder) side of the I2C bit protocol, shared by every bus
// device model: START/STOP detection, the 7-bit address match, MSB-first
// shifting in both directions and the ACK bit. A device keeps only its own
// semantics behind five hooks, the way the paper's responder stack writes the
// bit and byte layers once (RSymbol, RByte) and puts each device on top
// (REep). The hooks fire at a START, a STOP, the device's own address and
// each data byte boundary, never on a plain clock edge.

#ifndef SRC_SIM_I2C_TARGET_H_
#define SRC_SIM_I2C_TARGET_H_

#include <cstdint>

namespace efeu::sim {

class I2cTarget {
 public:
  class Hooks {
   public:
    // Every START or repeated START, whoever it addresses: whatever the
    // previous transfer left pending is aborted.
    virtual void OnStart() = 0;
    // Every STOP; I2cTarget::writing() still tells the direction of the
    // transfer it ends.
    virtual void OnStop() = 0;
    // The device's own address, with the R/W bit; returns whether to ACK.
    // After a NACK the engine ignores the bus until the next START or STOP.
    virtual bool OnAddress(bool read) = 0;
    // A data byte of a write transfer; returns whether to ACK (as above).
    virtual bool OnWriteByte(uint8_t byte) = 0;
    // The next byte of a read transfer, at the edge that starts clocking it
    // out.
    virtual uint8_t NextReadByte() = 0;
  };

  // `hooks` is non-owning and must outlive the engine. It is usually the
  // device that owns the engine, so neither may be copied or moved.
  I2cTarget(Hooks* hooks, int address) : hooks_(hooks), address_(address) {}
  I2cTarget(const I2cTarget&) = delete;
  I2cTarget& operator=(const I2cTarget&) = delete;

  // Follows the bus over one clock edge, given the SCL/SDA levels the
  // device's Evaluate sees, and stages the SDA drive.
  void Clock(bool scl, bool sda);
  // Publishes the staged SDA drive and returns it (true = released).
  bool Commit() {
    drive_sda_ = next_drive_sda_;
    return drive_sda_;
  }
  // Whether a Clock at these levels would change nothing: they equal the
  // levels the last Clock saw.
  bool Settled(bool scl, bool sda) const { return scl == prev_scl_ && sda == prev_sda_; }
  // Whether the current transfer's acknowledged address byte asked for a
  // write; a START or STOP clears it.
  bool writing() const { return writing_; }

 private:
  enum class Mode {
    kIdle,         // not addressed: wait for a START
    kReceiveByte,  // shifting in an address or data byte
    kAckDrive,     // driving SDA low for our ACK
    kSendBits,     // shifting a read byte out
    kAckSample,    // sampling the controller's ACK
  };

  void Start();
  void Stop();
  void RisingEdge(bool sda);
  void FallingEdge();
  void ReceivedByte();
  void LoadReadByte();
  void DriveNextBit();

  Hooks* hooks_;
  int address_;

  bool prev_scl_ = true;
  bool prev_sda_ = true;
  bool drive_sda_ = true;  // committed
  bool next_drive_sda_ = true;
  Mode mode_ = Mode::kIdle;
  bool address_byte_ = false;  // the byte being received is the address
  bool writing_ = false;
  // One shift register for both directions: bits come in at the LSB and go
  // out from the MSB.
  uint8_t shift_ = 0;
  int bits_ = 0;
};

}  // namespace efeu::sim

#endif  // SRC_SIM_I2C_TARGET_H_
