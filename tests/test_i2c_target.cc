// The shared I2C target engine (src/sim/i2c_target.h) driven directly: a
// scripted controller clocks bit sequences into it, and a recording device
// pins which hooks fire, in what order, and the ACK and data bits the engine
// drives back.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/sim/i2c_target.h"

namespace efeu {
namespace {

std::string Hex(uint8_t byte) {
  char buffer[8];
  std::snprintf(buffer, sizeof(buffer), "%02x", byte);
  return buffer;
}

// Logs every hook call; acknowledges everything unless told to refuse, and
// serves `reads` in order.
class RecordingDevice : public sim::I2cTarget::Hooks {
 public:
  explicit RecordingDevice(std::vector<uint8_t> reads = {}) : reads_(std::move(reads)) {}

  sim::I2cTarget* target = nullptr;
  std::vector<std::string> calls;
  bool ack_address = true;
  int refuse_write_index = -1;  // the Nth OnWriteByte call (0-based) NACKs

  void OnStart() override { calls.push_back("start"); }
  void OnStop() override {
    calls.push_back(std::string("stop writing=") + (target->writing() ? "1" : "0"));
  }
  bool OnAddress(bool read) override {
    calls.push_back(read ? "address read" : "address write");
    return ack_address;
  }
  bool OnWriteByte(uint8_t byte) override {
    calls.push_back("write " + Hex(byte));
    return writes_++ != refuse_write_index;
  }
  uint8_t NextReadByte() override {
    uint8_t byte = reads_.at(next_read_++);
    calls.push_back("read " + Hex(byte));
    return byte;
  }

 private:
  std::vector<uint8_t> reads_;
  size_t next_read_ = 0;
  int writes_ = 0;
};

// A controller on a two-wire bus whose only other driver is the engine: the
// engine sees the wired-AND of both SDA drives, two clock edges per level
// change as on the RTL timeline.
class ScriptedController {
 public:
  ScriptedController(RecordingDevice* device, int address) : target_(device, address) {
    device->target = &target_;
  }

  const sim::I2cTarget& target() const { return target_; }
  bool sda() const { return sda_ && drive_; }
  bool drive() const { return drive_; }

  void Start() {
    Set(true, true);
    Set(true, false);
    Set(false, false);
  }

  void Stop() {
    Set(false, false);
    Set(true, false);
    Set(true, true);
  }

  // Clocks out one byte MSB-first; returns the ACK bit the engine drove.
  bool SendByte(uint8_t byte) {
    for (int bit = 7; bit >= 0; --bit) {
      bool level = ((byte >> bit) & 1) != 0;
      Set(false, level);
      Set(true, level);
      Set(false, level);
    }
    Set(false, true);
    Set(true, true);
    bool ack = !sda();
    Set(false, true);
    return ack;
  }

  // Clocks in one byte MSB-first, then answers with ACK or NACK.
  uint8_t ReadByte(bool ack) {
    int byte = 0;
    for (int bit = 0; bit < 8; ++bit) {
      Set(true, true);
      byte = (byte << 1) | (sda() ? 1 : 0);
      Set(false, true);
    }
    Set(false, !ack);
    Set(true, !ack);
    Set(false, !ack);
    Set(false, true);
    return static_cast<uint8_t>(byte);
  }

 private:
  void Set(bool scl, bool sda) {
    sda_ = sda;
    for (int edge = 0; edge < 2; ++edge) {
      target_.Clock(scl, sda_ && drive_);
      drive_ = target_.Commit();
    }
  }

  sim::I2cTarget target_;
  bool sda_ = true;
  bool drive_ = true;
};

TEST(I2cTarget, ScriptedTransfersFireEachHookOnceAndDriveTheAckBits) {
  RecordingDevice device({0xC1, 0x2E});
  ScriptedController bus(&device, 0x50);

  // Two-byte write, then a repeated START into a two-byte read that ends
  // with the controller's NACK, then a STOP.
  bus.Start();
  EXPECT_TRUE(bus.SendByte(0x50 << 1));
  EXPECT_TRUE(bus.target().writing());
  EXPECT_TRUE(bus.SendByte(0x12));
  EXPECT_TRUE(bus.SendByte(0xB7));
  bus.Start();
  EXPECT_TRUE(bus.SendByte((0x50 << 1) | 1));
  EXPECT_FALSE(bus.target().writing());
  EXPECT_EQ(bus.ReadByte(/*ack=*/true), 0xC1);
  EXPECT_EQ(bus.ReadByte(/*ack=*/false), 0x2E);
  bus.Stop();
  // Another device's address: no hook but START and STOP, and no ACK.
  bus.Start();
  EXPECT_FALSE(bus.SendByte(0x51 << 1));
  bus.Stop();

  const std::vector<std::string> expected = {
      "start", "address write", "write 12", "write b7",
      "start", "address read",  "read c1",  "read 2e", "stop writing=0",
      "start", "stop writing=0",
  };
  EXPECT_EQ(device.calls, expected);
  EXPECT_TRUE(bus.drive());
}

TEST(I2cTarget, StopSeesTheDirectionBeforeClearingIt) {
  RecordingDevice device;
  ScriptedController bus(&device, 0x30);
  bus.Start();
  ASSERT_TRUE(bus.SendByte(0x30 << 1));
  ASSERT_TRUE(bus.SendByte(0x7F));
  bus.Stop();
  EXPECT_FALSE(bus.target().writing());
  const std::vector<std::string> expected = {"start", "address write", "write 7f",
                                             "stop writing=1"};
  EXPECT_EQ(device.calls, expected);
}

TEST(I2cTarget, RefusedBytesNackAndSilenceTheTargetUntilTheNextStart) {
  RecordingDevice device({0x99});
  ScriptedController bus(&device, 0x50);
  device.refuse_write_index = 1;
  bus.Start();
  ASSERT_TRUE(bus.SendByte(0x50 << 1));
  EXPECT_TRUE(bus.SendByte(0x01));
  EXPECT_FALSE(bus.SendByte(0x02));  // refused by the device
  EXPECT_FALSE(bus.SendByte(0x03));  // not even offered to it
  // A refused address NACKs as well; the read never starts.
  device.ack_address = false;
  bus.Start();
  EXPECT_FALSE(bus.SendByte((0x50 << 1) | 1));
  bus.Stop();
  // The repeated START ends the write, and a refused address sets no
  // direction, so the STOP reports no write.
  const std::vector<std::string> expected = {
      "start", "address write", "write 01", "write 02",
      "start", "address read",  "stop writing=0",
  };
  EXPECT_EQ(device.calls, expected);
  EXPECT_TRUE(bus.drive());
}

TEST(I2cTarget, SettledOnlyWhileTheLevelsEqualTheLastClockedOnes) {
  RecordingDevice device;
  sim::I2cTarget target(&device, 0x50);
  device.target = &target;
  EXPECT_TRUE(target.Settled(true, true));
  EXPECT_FALSE(target.Settled(true, false));
  target.Clock(true, false);  // START
  EXPECT_TRUE(target.Settled(true, false));
  EXPECT_FALSE(target.Settled(false, false));
  EXPECT_EQ(device.calls, std::vector<std::string>{"start"});
}

}  // namespace
}  // namespace efeu
