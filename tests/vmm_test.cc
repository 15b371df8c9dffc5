#include "src/vmm/virtual_block_device.h"
#include "src/vmm/vm.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/microkernel/kernel.h"
#include "src/sim/simulator.h"
#include "src/storage/block_device.h"

namespace rlvmm {
namespace {

using rlkern::Kernel;
using rlkern::KernelStatus;
using rlkern::SlotAddr;
using rlsim::Duration;
using rlsim::Simulator;
using rlsim::Task;
using rlsim::TimePoint;
using rlstor::BlockStatus;

TEST(VirtualMachineTest, ComputeChargesOverhead) {
  Simulator sim;
  VmParams p;
  p.cpu_overhead = 1.5;
  VirtualMachine vm(sim, p);
  sim.Spawn([](VirtualMachine& v) -> Task<void> {
    co_await v.Compute(Duration::Millis(10));
  }(vm));
  sim.Run();
  EXPECT_EQ(sim.now(), TimePoint::Origin() + Duration::Millis(15));
}

TEST(VirtualMachineTest, CrashUnwindsGuestWork) {
  Simulator sim;
  VirtualMachine vm(sim, VmParams{});
  bool crashed_seen = false;
  bool finished = false;
  sim.Spawn([](VirtualMachine& v, bool& crashed, bool& done) -> Task<void> {
    try {
      co_await v.Compute(Duration::Millis(10));
      done = true;
    } catch (const GuestCrashed&) {
      crashed = true;
    }
  }(vm, crashed_seen, finished));
  sim.Schedule(Duration::Millis(5), [&] { vm.Crash(); });
  sim.Run();
  EXPECT_TRUE(crashed_seen);
  EXPECT_FALSE(finished);
}

TEST(VirtualMachineTest, ResetBumpsIncarnation) {
  Simulator sim;
  VirtualMachine vm(sim, VmParams{});
  const uint64_t before = vm.incarnation();
  vm.Crash();
  vm.Reset();
  EXPECT_EQ(vm.incarnation(), before + 1);
  EXPECT_TRUE(vm.running());
}

TEST(VirtualMachineTest, StaleIncarnationDetected) {
  Simulator sim;
  VirtualMachine vm(sim, VmParams{});
  const uint64_t old = vm.incarnation();
  vm.Crash();
  vm.Reset();
  EXPECT_THROW(vm.CheckAlive(old), GuestCrashed);
  vm.CheckAlive(vm.incarnation());  // current one is fine
}

TEST(VirtualMachineTest, CrashCallbacksFire) {
  Simulator sim;
  VirtualMachine vm(sim, VmParams{});
  int fired = 0;
  vm.OnCrash([&] { ++fired; });
  vm.OnCrash([&] { ++fired; });
  vm.Crash();
  vm.Crash();  // idempotent
  EXPECT_EQ(fired, 2);
}

// Full paravirtual stack: guest -> VM exit -> kernel IPC -> backend ->
// physical disk, and back.
struct StackFixture {
  StackFixture()
      : kernel(sim),
        vm(sim, VmParams{}),
        disk(sim,
             rlstor::SimBlockDevice::Options{
                 .geometry = {.sector_count = 1 << 16},
                 .cache_policy = rlstor::WriteCachePolicy::kWriteBack},
             rlstor::MakeDefaultHdd()) {
    root = kernel.BootstrapCNode(64);
    EXPECT_EQ(kernel.BootstrapUntyped(root, 0, 1 << 20), KernelStatus::kOk);
    EXPECT_EQ(kernel.Retype(SlotAddr{root, 0}, root, 1, 1), KernelStatus::kOk);
    backend = std::make_unique<BlockBackend>(sim, kernel, SlotAddr{root, 1},
                                             disk);
    backend->Start();
    vdisk = std::make_unique<VirtualBlockDevice>(sim, vm, kernel,
                                                 SlotAddr{root, 1},
                                                 disk.geometry());
  }

  Simulator sim;
  Kernel kernel;
  VirtualMachine vm;
  rlstor::SimBlockDevice disk;
  rlkern::ObjectId root = rlkern::kNullObject;
  std::unique_ptr<BlockBackend> backend;
  std::unique_ptr<VirtualBlockDevice> vdisk;
};

TEST(VirtualBlockDeviceTest, WriteReadRoundTrip) {
  StackFixture f;
  BlockStatus wst = BlockStatus::kDeviceOff;
  BlockStatus rst = BlockStatus::kDeviceOff;
  std::vector<uint8_t> got(1024);
  f.sim.Spawn([](VirtualBlockDevice& d, BlockStatus& w, BlockStatus& r,
                 std::vector<uint8_t>& out) -> Task<void> {
    const std::vector<uint8_t> data(1024, 0x42);
    w = co_await d.Write(10, data, false);
    r = co_await d.Read(10, out);
  }(*f.vdisk, wst, rst, got));
  f.sim.Run();
  EXPECT_EQ(wst, BlockStatus::kOk);
  EXPECT_EQ(rst, BlockStatus::kOk);
  EXPECT_EQ(got, std::vector<uint8_t>(1024, 0x42));
  EXPECT_EQ(f.backend->requests_served(), 2u);
}

TEST(VirtualBlockDeviceTest, VirtualisationAddsLatency) {
  StackFixture f;
  Duration direct_latency;
  Duration virt_latency;
  f.sim.Spawn([](Simulator& s, StackFixture& fx, Duration& direct,
                 Duration& virt) -> Task<void> {
    const std::vector<uint8_t> data(512, 1);
    TimePoint t0 = s.now();
    co_await fx.disk.Write(0, data, false);
    direct = s.now() - t0;
    t0 = s.now();
    co_await fx.vdisk->Write(8, data, false);
    virt = s.now() - t0;
  }(f.sim, f, direct_latency, virt_latency));
  f.sim.Run();
  EXPECT_GT(virt_latency, direct_latency);
  // Overhead is microseconds, not milliseconds.
  EXPECT_LT(virt_latency - direct_latency, Duration::Micros(50));
}

TEST(VirtualBlockDeviceTest, FlushForwardedToBackend) {
  StackFixture f;
  BlockStatus fst = BlockStatus::kDeviceOff;
  f.sim.Spawn([](VirtualBlockDevice& d, BlockStatus& out) -> Task<void> {
    co_await d.Write(0, std::vector<uint8_t>(512, 9), false);
    out = co_await d.Flush();
  }(*f.vdisk, fst));
  f.sim.Run();
  EXPECT_EQ(fst, BlockStatus::kOk);
  EXPECT_TRUE(f.disk.image().IsDurable(0));
}

TEST(VirtualBlockDeviceTest, GuestCrashDuringIoUnwinds) {
  StackFixture f;
  bool crashed_seen = false;
  f.sim.Spawn([](VirtualBlockDevice& d, bool& crashed) -> Task<void> {
    try {
      // FUA write: slow mechanical path so the crash lands mid-request.
      co_await d.Write(0, std::vector<uint8_t>(512, 7), /*fua=*/true);
    } catch (const GuestCrashed&) {
      crashed = true;
    }
  }(*f.vdisk, crashed_seen));
  f.sim.Schedule(Duration::Micros(100), [&] { f.vm.Crash(); });
  f.sim.Run();
  EXPECT_TRUE(crashed_seen);
  // The write had left the guest before the crash: it still lands.
  EXPECT_TRUE(f.disk.image().IsDurable(0));
}

TEST(VirtualBlockDeviceTest, ErrorStatusPropagates) {
  StackFixture f;
  BlockStatus st = BlockStatus::kOk;
  f.sim.Spawn([](VirtualBlockDevice& d, BlockStatus& out) -> Task<void> {
    // Beyond the 1<<16-sector disk.
    out = co_await d.Write(1 << 20, std::vector<uint8_t>(512, 1), false);
  }(*f.vdisk, st));
  f.sim.Run();
  EXPECT_EQ(st, BlockStatus::kOutOfRange);
}

TEST(VirtualBlockDeviceTest, ConcurrentRequestsAllComplete) {
  StackFixture f;
  int completed = 0;
  for (int i = 0; i < 16; ++i) {
    f.sim.Spawn([](VirtualBlockDevice& d, int idx, int& done) -> Task<void> {
      const std::vector<uint8_t> data(512, static_cast<uint8_t>(idx));
      const BlockStatus st =
          co_await d.Write(static_cast<uint64_t>(idx) * 16, data, false);
      EXPECT_EQ(st, BlockStatus::kOk);
      ++done;
    }(*f.vdisk, i, completed));
  }
  f.sim.Run();
  EXPECT_EQ(completed, 16);
  EXPECT_EQ(f.backend->requests_served(), 16u);
}

}  // namespace
}  // namespace rlvmm
