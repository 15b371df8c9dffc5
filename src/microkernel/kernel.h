// The seL4-like kernel: an object table of CNodes, untyped regions and
// endpoints, and synchronous call/reply IPC over endpoint capabilities.
//
// "Verification" is modelled by construction (see DESIGN.md): this component
// is part of the trusted computing base, is exempt from fault injection, and
// asserts its own invariants — CheckInvariants() validates the full kernel
// state and is called liberally from tests (including randomised operation
// fuzzing).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "src/microkernel/types.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace rlkern {

// Handle a receiver uses to answer a Call. Single-use.
class ReplyToken {
 public:
  ReplyToken() = default;

  bool valid() const { return completion_ != nullptr; }

 private:
  friend class Kernel;
  explicit ReplyToken(std::shared_ptr<rlsim::Completion<IpcMessage>> c)
      : completion_(std::move(c)) {}
  std::shared_ptr<rlsim::Completion<IpcMessage>> completion_;
};

// Result of a successful Recv: the caller's message and the token that
// answers it.
struct Received {
  IpcMessage message;
  ReplyToken reply;
};

class Kernel {
 public:
  explicit Kernel(rlsim::Simulator& sim);
  ~Kernel();

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  // --- Bootstrap (no capability checks; used to set up the initial task) ---

  // Creates a CNode with `slots` empty capability slots.
  ObjectId BootstrapCNode(size_t slots);
  // Creates an untyped region of `bytes` and places its capability at
  // slot `dest` of `cnode`.
  KernelStatus BootstrapUntyped(ObjectId cnode, CPtr dest, size_t bytes);

  // seL4_Untyped_Retype: carves `count` endpoints out of the untyped
  // capability at `untyped`, placing their capabilities into consecutive
  // slots of `dest_cnode` starting at `dest_first`.
  KernelStatus Retype(SlotAddr untyped, ObjectId dest_cnode, CPtr dest_first,
                      size_t count);

  // --- IPC -----------------------------------------------------------------

  // Blocks until a caller arrives on the endpoint.
  rlsim::Task<KernelStatus> Recv(SlotAddr ep_cap, Received* out);

  // Sends `msg` and blocks for the receiver's Reply.
  rlsim::Task<KernelStatus> Call(SlotAddr ep_cap, IpcMessage msg,
                                 IpcMessage* reply_out);

  // Answers a Call; consumes the token.
  KernelStatus Reply(ReplyToken& token, IpcMessage msg);

  // Validates every kernel invariant; throws rlsim::CheckFailure on
  // violation. Cheap enough to call after every operation in tests.
  void CheckInvariants() const;

 private:
  struct PendingCall {
    IpcMessage msg;
    std::shared_ptr<rlsim::Completion<IpcMessage>> reply;
  };
  struct Endpoint {
    explicit Endpoint(rlsim::Simulator& sim) : recv_wait(sim) {}
    std::deque<PendingCall> callers;
    rlsim::WaitQueue recv_wait;
  };
  struct Object {
    ObjectType type = ObjectType::kUntyped;
    // Untyped: region size, bytes retyped so far.
    size_t bytes = 0;
    size_t watermark = 0;
    // Endpoint: the untyped it was retyped from.
    ObjectId parent_untyped = kNullObject;
    std::vector<std::optional<Capability>> slots;  // CNode
    std::unique_ptr<Endpoint> endpoint;            // Endpoint (heap: stable
                                                   // across table growth)
  };

  ObjectId AllocateObject(Object obj);
  std::optional<Capability>* SlotAt(SlotAddr addr);
  KernelStatus CapAt(SlotAddr addr, ObjectType type, ObjectId* id_out);

  rlsim::Simulator& sim_;
  std::vector<Object> objects_;  // index = ObjectId - 1
};

}  // namespace rlkern
