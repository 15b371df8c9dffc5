// Randomised Retype fuzzing: apply thousands of random Retype calls — from
// random source slots into random destination ranges, across several small
// untyped regions — and check every kernel invariant after each one. This
// is the runtime stand-in for the "verified kernel" property the paper
// leverages.
#include <gtest/gtest.h>

#include <vector>

#include "src/microkernel/kernel.h"
#include "src/sim/rng.h"
#include "src/sim/simulator.h"

namespace rlkern {
namespace {

constexpr size_t kSlots = 512;
constexpr CPtr kUntypedRegions = 4;

class KernelFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KernelFuzzTest, InvariantsSurviveRandomRetype) {
  rlsim::Simulator sim;
  Kernel kernel(sim);
  const ObjectId root = kernel.BootstrapCNode(kSlots);
  // Regions 0..3 of 1, 2, 3 and 4 KiB hold 64..256 endpoints each, so the
  // small ones run out while the CNode still has free slots.
  for (CPtr r = 0; r < kUntypedRegions; ++r) {
    ASSERT_EQ(kernel.BootstrapUntyped(root, r, 1024 * (r + 1)),
              KernelStatus::kOk);
  }

  rlsim::Rng rng(GetParam());
  std::vector<int> by_status(7, 0);
  for (int step = 0; step < 3000; ++step) {
    // Mostly a region's slot; sometimes an endpoint, empty or invalid slot.
    const CPtr src = rng.Chance(0.8) ? rng.NextBelow(kUntypedRegions)
                                     : rng.NextBelow(kSlots + 8);
    const CPtr dest = rng.NextBelow(kSlots + 8);
    const size_t count = rng.NextBelow(5);
    const KernelStatus st =
        kernel.Retype(SlotAddr{root, src}, root, dest, count);
    ++by_status[static_cast<size_t>(st)];
    ASSERT_NO_THROW(kernel.CheckInvariants()) << "step " << step;
  }
  // The sequence must have actually exercised the kernel, and every Retype
  // outcome.
  EXPECT_GT(by_status[static_cast<size_t>(KernelStatus::kOk)], 100);
  for (KernelStatus st :
       {KernelStatus::kInvalidSlot, KernelStatus::kEmptySlot,
        KernelStatus::kSlotOccupied, KernelStatus::kTypeMismatch,
        KernelStatus::kOutOfMemory, KernelStatus::kInvalidArgument}) {
    EXPECT_GT(by_status[static_cast<size_t>(st)], 0) << ToString(st);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelFuzzTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

TEST(KernelIpcStressTest, ManyClientsOneServer) {
  rlsim::Simulator sim;
  Kernel kernel(sim);
  const ObjectId root = kernel.BootstrapCNode(kSlots);
  ASSERT_EQ(kernel.BootstrapUntyped(root, 0, 1 << 20), KernelStatus::kOk);
  ASSERT_EQ(kernel.Retype(SlotAddr{root, 0}, root, 1, 1), KernelStatus::kOk);
  const SlotAddr ep{root, 1};

  constexpr int kClients = 16;
  std::vector<int> served_per_client(kClients, 0);
  constexpr int kCallsPerClient = 50;

  // Server loop. Each client names itself in its message's first word.
  sim.Spawn([](Kernel& k, SlotAddr e, std::vector<int>& served)
                -> rlsim::Task<void> {
    for (int i = 0; i < kClients * kCallsPerClient; ++i) {
      Received got;
      const KernelStatus st = co_await k.Recv(e, &got);
      EXPECT_EQ(st, KernelStatus::kOk);
      const uint64_t client = got.message.words.at(0);
      EXPECT_LT(client, static_cast<uint64_t>(kClients));
      ++served[client];
      IpcMessage reply;
      reply.words = {client, got.message.words.at(1) + 1};
      k.Reply(got.reply, std::move(reply));
    }
  }(kernel, ep, served_per_client));

  // Clients.
  for (int c = 0; c < kClients; ++c) {
    sim.Spawn([](rlsim::Simulator& s, Kernel& k, SlotAddr e,
                 int id) -> rlsim::Task<void> {
      rlsim::Rng rng(static_cast<uint64_t>(id) + 777);
      for (int i = 0; i < kCallsPerClient; ++i) {
        co_await s.Sleep(rlsim::Duration::Micros(rng.UniformInt(1, 20)));
        IpcMessage msg;
        msg.words = {static_cast<uint64_t>(id), static_cast<uint64_t>(i)};
        IpcMessage reply;
        const KernelStatus st = co_await k.Call(e, std::move(msg), &reply);
        EXPECT_EQ(st, KernelStatus::kOk);
        // The reply reaches the caller that sent the request.
        EXPECT_EQ(reply.words,
                  (std::vector<uint64_t>{static_cast<uint64_t>(id),
                                         static_cast<uint64_t>(i) + 1}));
      }
    }(sim, kernel, ep, c));
  }

  sim.Run();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(served_per_client[static_cast<size_t>(c)], kCallsPerClient);
  }
  kernel.CheckInvariants();
}

}  // namespace
}  // namespace rlkern
