#include "src/microkernel/kernel.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/sim/simulator.h"

namespace rlkern {
namespace {

using rlsim::Duration;
using rlsim::Simulator;
using rlsim::Task;

constexpr size_t kRootSlots = 256;
constexpr CPtr kUntypedSlot = 0;

struct Fixture {
  Fixture() : kernel(sim) {
    root = kernel.BootstrapCNode(kRootSlots);
    EXPECT_EQ(kernel.BootstrapUntyped(root, kUntypedSlot, 1 << 20),
              KernelStatus::kOk);
  }

  SlotAddr Slot(CPtr i) const { return SlotAddr{root, i}; }

  // Calls `ep` once with `words` and runs the simulation; returns the
  // call's status.
  KernelStatus CallOnce(SlotAddr ep, std::vector<uint64_t> words,
                        IpcMessage* reply) {
    KernelStatus st = KernelStatus::kInvalidArgument;
    sim.Spawn([](Kernel& k, SlotAddr e, std::vector<uint64_t> w,
                 IpcMessage* out, KernelStatus& st) -> Task<void> {
      IpcMessage msg;
      msg.words = std::move(w);
      st = co_await k.Call(e, std::move(msg), out);
    }(kernel, ep, std::move(words), reply, st));
    sim.Run();
    return st;
  }

  // A server that answers one call on `ep` with the first word doubled.
  void ServeOnce(SlotAddr ep) {
    sim.Spawn([](Kernel& k, SlotAddr e) -> Task<void> {
      Received got;
      EXPECT_EQ(co_await k.Recv(e, &got), KernelStatus::kOk);
      IpcMessage reply;
      reply.words = {got.message.words.at(0) * 2};
      EXPECT_EQ(k.Reply(got.reply, std::move(reply)), KernelStatus::kOk);
    }(kernel, ep));
  }

  Simulator sim;
  Kernel kernel;
  ObjectId root = kNullObject;
};

TEST(KernelTest, BootstrapInvariantsHold) {
  Fixture f;
  f.kernel.CheckInvariants();
  EXPECT_EQ(f.kernel.BootstrapUntyped(f.root, kUntypedSlot, 4096),
            KernelStatus::kSlotOccupied);
  EXPECT_EQ(f.kernel.BootstrapUntyped(f.root, 1, 0),
            KernelStatus::kInvalidArgument);
  EXPECT_EQ(f.kernel.BootstrapUntyped(f.root, kRootSlots, 4096),
            KernelStatus::kInvalidSlot);
}

TEST(KernelTest, RetypeCreatesServableEndpoints) {
  Fixture f;
  ASSERT_EQ(f.kernel.Retype(f.Slot(kUntypedSlot), f.root, 10, 4),
            KernelStatus::kOk);
  f.kernel.CheckInvariants();
  for (CPtr i = 10; i < 14; ++i) {
    f.ServeOnce(f.Slot(i));
    IpcMessage reply;
    ASSERT_EQ(f.CallOnce(f.Slot(i), {i}, &reply), KernelStatus::kOk);
    EXPECT_EQ(reply.words, (std::vector<uint64_t>{2 * i}));
  }
}

TEST(KernelTest, RetypeIntoOccupiedSlotFails) {
  Fixture f;
  ASSERT_EQ(f.kernel.Retype(f.Slot(kUntypedSlot), f.root, 10, 1),
            KernelStatus::kOk);
  EXPECT_EQ(f.kernel.Retype(f.Slot(kUntypedSlot), f.root, 10, 1),
            KernelStatus::kSlotOccupied);
  // A range that overlaps the occupied slot fails as a whole.
  EXPECT_EQ(f.kernel.Retype(f.Slot(kUntypedSlot), f.root, 8, 3),
            KernelStatus::kSlotOccupied);
  EXPECT_EQ(f.kernel.Retype(f.Slot(kUntypedSlot), f.root, 8, 1),
            KernelStatus::kOk);
  f.kernel.CheckInvariants();
}

TEST(KernelTest, RetypeErrorCodes) {
  Fixture f;
  EXPECT_EQ(f.kernel.Retype(f.Slot(kUntypedSlot), f.root, 10, 0),
            KernelStatus::kInvalidArgument);
  EXPECT_EQ(f.kernel.Retype(f.Slot(5), f.root, 10, 1),
            KernelStatus::kEmptySlot);
  EXPECT_EQ(f.kernel.Retype(SlotAddr{f.root, 9999}, f.root, 10, 1),
            KernelStatus::kInvalidSlot);
  EXPECT_EQ(f.kernel.Retype(SlotAddr{kNullObject, 0}, f.root, 10, 1),
            KernelStatus::kInvalidSlot);
  // Destination past the end of the CNode.
  EXPECT_EQ(f.kernel.Retype(f.Slot(kUntypedSlot), f.root, kRootSlots - 1, 2),
            KernelStatus::kInvalidSlot);
  // A CNode id that names an untyped is not a CNode.
  EXPECT_EQ(f.kernel.Retype(f.Slot(kUntypedSlot), f.root + 1, 0, 1),
            KernelStatus::kInvalidSlot);
  // Retyping from an endpoint capability.
  ASSERT_EQ(f.kernel.Retype(f.Slot(kUntypedSlot), f.root, 10, 1),
            KernelStatus::kOk);
  EXPECT_EQ(f.kernel.Retype(f.Slot(10), f.root, 11, 1),
            KernelStatus::kTypeMismatch);
  f.kernel.CheckInvariants();
}

TEST(KernelTest, RetypeExhaustsUntyped) {
  Fixture f;
  // A 64-byte region holds four 16-byte endpoints.
  ASSERT_EQ(f.kernel.BootstrapUntyped(f.root, 1, 64), KernelStatus::kOk);
  EXPECT_EQ(f.kernel.Retype(f.Slot(1), f.root, 20, 5),
            KernelStatus::kOutOfMemory);
  ASSERT_EQ(f.kernel.Retype(f.Slot(1), f.root, 20, 3), KernelStatus::kOk);
  ASSERT_EQ(f.kernel.Retype(f.Slot(1), f.root, 23, 1), KernelStatus::kOk);
  EXPECT_EQ(f.kernel.Retype(f.Slot(1), f.root, 24, 1),
            KernelStatus::kOutOfMemory);
  // The other region is untouched.
  EXPECT_EQ(f.kernel.Retype(f.Slot(kUntypedSlot), f.root, 24, 1),
            KernelStatus::kOk);
  f.kernel.CheckInvariants();
}

TEST(KernelTest, CallReplyRoundTrip) {
  Fixture f;
  ASSERT_EQ(f.kernel.Retype(f.Slot(kUntypedSlot), f.root, 10, 1),
            KernelStatus::kOk);
  Received got;
  f.sim.Spawn([](Kernel& k, SlotAddr ep, Received& out) -> Task<void> {
    EXPECT_EQ(co_await k.Recv(ep, &out), KernelStatus::kOk);
    IpcMessage reply;
    reply.words = {out.message.words[0] * 2};
    reply.payload = {7, 8};
    EXPECT_EQ(k.Reply(out.reply, std::move(reply)), KernelStatus::kOk);
  }(f.kernel, f.Slot(10), got));
  IpcMessage reply;
  KernelStatus call_st = KernelStatus::kInvalidArgument;
  f.sim.Spawn([](Kernel& k, SlotAddr ep, IpcMessage& out,
                 KernelStatus& st) -> Task<void> {
    IpcMessage msg;
    msg.label = 42;
    msg.words = {21};
    msg.payload = {1, 2, 3};
    st = co_await k.Call(ep, std::move(msg), &out);
  }(f.kernel, f.Slot(10), reply, call_st));
  f.sim.Run();
  EXPECT_EQ(call_st, KernelStatus::kOk);
  EXPECT_EQ(got.message.label, 42u);
  EXPECT_EQ(got.message.payload, (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_EQ(reply.words, (std::vector<uint64_t>{42}));
  EXPECT_EQ(reply.payload, (std::vector<uint8_t>{7, 8}));
}

TEST(KernelTest, CallBlocksUntilReceiverArrives) {
  Fixture f;
  ASSERT_EQ(f.kernel.Retype(f.Slot(kUntypedSlot), f.root, 10, 1),
            KernelStatus::kOk);
  rlsim::TimePoint call_done;
  f.sim.Spawn([](Simulator& s, Kernel& k, SlotAddr ep,
                 rlsim::TimePoint& done) -> Task<void> {
    IpcMessage msg;  // named: GCC 12 mishandles non-trivial prvalue args to coroutines
    IpcMessage reply;
    co_await k.Call(ep, std::move(msg), &reply);
    done = s.now();
  }(f.sim, f.kernel, f.Slot(10), call_done));
  f.sim.Spawn([](Simulator& s, Kernel& k, SlotAddr ep) -> Task<void> {
    co_await s.Sleep(Duration::Millis(5));
    Received got;
    co_await k.Recv(ep, &got);
    k.Reply(got.reply, IpcMessage{});
  }(f.sim, f.kernel, f.Slot(10)));
  f.sim.Run();
  EXPECT_GE(call_done, rlsim::TimePoint::Origin() + Duration::Millis(5));
}

TEST(KernelTest, ReplyTokenIsSingleUse) {
  Fixture f;
  ASSERT_EQ(f.kernel.Retype(f.Slot(kUntypedSlot), f.root, 10, 1),
            KernelStatus::kOk);
  KernelStatus second = KernelStatus::kOk;
  f.sim.Spawn([](Kernel& k, SlotAddr ep, KernelStatus& st) -> Task<void> {
    Received got;
    co_await k.Recv(ep, &got);
    EXPECT_TRUE(got.reply.valid());
    EXPECT_EQ(k.Reply(got.reply, IpcMessage{}), KernelStatus::kOk);
    EXPECT_FALSE(got.reply.valid());
    st = k.Reply(got.reply, IpcMessage{});
  }(f.kernel, f.Slot(10), second));
  IpcMessage reply;
  EXPECT_EQ(f.CallOnce(f.Slot(10), {1}, &reply), KernelStatus::kOk);
  EXPECT_EQ(second, KernelStatus::kInvalidArgument);
  ReplyToken never_issued;
  EXPECT_EQ(f.kernel.Reply(never_issued, IpcMessage{}),
            KernelStatus::kInvalidArgument);
}

TEST(KernelTest, IpcOnNonEndpointCapFails) {
  Fixture f;
  IpcMessage reply;
  EXPECT_EQ(f.CallOnce(f.Slot(kUntypedSlot), {1}, &reply),
            KernelStatus::kTypeMismatch);
  EXPECT_EQ(f.CallOnce(f.Slot(7), {1}, &reply), KernelStatus::kEmptySlot);
  EXPECT_EQ(f.CallOnce(SlotAddr{f.root, 9999}, {1}, &reply),
            KernelStatus::kInvalidSlot);
  KernelStatus recv_st = KernelStatus::kOk;
  f.sim.Spawn([](Kernel& k, SlotAddr ep, KernelStatus& st) -> Task<void> {
    Received got;
    st = co_await k.Recv(ep, &got);
  }(f.kernel, f.Slot(kUntypedSlot), recv_st));
  f.sim.Run();
  EXPECT_EQ(recv_st, KernelStatus::kTypeMismatch);
  // Failed invocations cost no simulated time.
  EXPECT_EQ(f.sim.now(), rlsim::TimePoint::Origin());
}

TEST(KernelTest, IpcCostsSimulatedTime) {
  Fixture f;
  ASSERT_EQ(f.kernel.Retype(f.Slot(kUntypedSlot), f.root, 10, 1),
            KernelStatus::kOk);
  f.ServeOnce(f.Slot(10));
  IpcMessage reply;
  ASSERT_EQ(f.CallOnce(f.Slot(10), {1}, &reply), KernelStatus::kOk);
  // Both sides enter the kernel (300 ns, concurrently) and the message
  // transfers (700 ns).
  EXPECT_EQ(f.sim.now() - rlsim::TimePoint::Origin(), Duration::Nanos(1000));
}

}  // namespace
}  // namespace rlkern
