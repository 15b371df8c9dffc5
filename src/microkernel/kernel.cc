#include "src/microkernel/kernel.h"

#include <utility>

#include "src/sim/check.h"

namespace rlkern {

using rlsim::Completion;
using rlsim::Duration;
using rlsim::Task;

std::string ToString(KernelStatus s) {
  switch (s) {
    case KernelStatus::kOk:
      return "ok";
    case KernelStatus::kInvalidSlot:
      return "invalid-slot";
    case KernelStatus::kEmptySlot:
      return "empty-slot";
    case KernelStatus::kSlotOccupied:
      return "slot-occupied";
    case KernelStatus::kTypeMismatch:
      return "type-mismatch";
    case KernelStatus::kOutOfMemory:
      return "out-of-memory";
    case KernelStatus::kInvalidArgument:
      return "invalid-argument";
  }
  return "unknown";
}

namespace {

// Kernel entry and IPC costs, in the vicinity of published seL4 numbers on
// period hardware.
constexpr Duration kSyscallOverhead = Duration::Nanos(300);
constexpr Duration kIpcTransfer = Duration::Nanos(700);

// Untyped memory one endpoint takes.
constexpr size_t kEndpointBytes = 16;

}  // namespace

Kernel::Kernel(rlsim::Simulator& sim) : sim_(sim) {}

Kernel::~Kernel() = default;

ObjectId Kernel::AllocateObject(Object obj) {
  objects_.push_back(std::move(obj));
  return objects_.size();
}

std::optional<Capability>* Kernel::SlotAt(SlotAddr addr) {
  if (addr.cnode == kNullObject || addr.cnode > objects_.size()) {
    return nullptr;
  }
  Object& cn = objects_[addr.cnode - 1];
  if (cn.type != ObjectType::kCNode || addr.index >= cn.slots.size()) {
    return nullptr;
  }
  return &cn.slots[addr.index];
}

KernelStatus Kernel::CapAt(SlotAddr addr, ObjectType type, ObjectId* id_out) {
  const std::optional<Capability>* slot = SlotAt(addr);
  if (slot == nullptr) {
    return KernelStatus::kInvalidSlot;
  }
  if (!slot->has_value()) {
    return KernelStatus::kEmptySlot;
  }
  if ((*slot)->type != type) {
    return KernelStatus::kTypeMismatch;
  }
  *id_out = (*slot)->object;
  return KernelStatus::kOk;
}

ObjectId Kernel::BootstrapCNode(size_t slots) {
  RL_CHECK(slots > 0);
  Object cnode{.type = ObjectType::kCNode};
  cnode.slots.resize(slots);
  return AllocateObject(std::move(cnode));
}

KernelStatus Kernel::BootstrapUntyped(ObjectId cnode, CPtr dest,
                                      size_t bytes) {
  if (bytes == 0) {
    return KernelStatus::kInvalidArgument;
  }
  std::optional<Capability>* slot = SlotAt(SlotAddr{cnode, dest});
  if (slot == nullptr) {
    return KernelStatus::kInvalidSlot;
  }
  if (slot->has_value()) {
    return KernelStatus::kSlotOccupied;
  }
  const ObjectId id =
      AllocateObject(Object{.type = ObjectType::kUntyped, .bytes = bytes});
  // Re-resolved: allocation may have moved the object table.
  *SlotAt(SlotAddr{cnode, dest}) =
      Capability{.object = id, .type = ObjectType::kUntyped};
  return KernelStatus::kOk;
}

KernelStatus Kernel::Retype(SlotAddr untyped, ObjectId dest_cnode,
                            CPtr dest_first, size_t count) {
  if (count == 0) {
    return KernelStatus::kInvalidArgument;
  }
  ObjectId ut_id = kNullObject;
  if (KernelStatus st = CapAt(untyped, ObjectType::kUntyped, &ut_id);
      st != KernelStatus::kOk) {
    return st;
  }
  if (objects_[ut_id - 1].watermark + kEndpointBytes * count >
      objects_[ut_id - 1].bytes) {
    return KernelStatus::kOutOfMemory;
  }
  // All destination slots must exist and be empty.
  for (size_t i = 0; i < count; ++i) {
    const std::optional<Capability>* slot =
        SlotAt(SlotAddr{dest_cnode, dest_first + i});
    if (slot == nullptr) {
      return KernelStatus::kInvalidSlot;
    }
    if (slot->has_value()) {
      return KernelStatus::kSlotOccupied;
    }
  }
  for (size_t i = 0; i < count; ++i) {
    const ObjectId id = AllocateObject(
        Object{.type = ObjectType::kEndpoint,
               .parent_untyped = ut_id,
               .endpoint = std::make_unique<Endpoint>(sim_)});
    objects_[ut_id - 1].watermark += kEndpointBytes;
    *SlotAt(SlotAddr{dest_cnode, dest_first + i}) =
        Capability{.object = id, .type = ObjectType::kEndpoint};
  }
  return KernelStatus::kOk;
}

Task<KernelStatus> Kernel::Recv(SlotAddr ep_cap, Received* out) {
  RL_CHECK(out != nullptr);
  ObjectId ep_id = kNullObject;
  if (KernelStatus st = CapAt(ep_cap, ObjectType::kEndpoint, &ep_id);
      st != KernelStatus::kOk) {
    co_return st;
  }
  Endpoint& ep = *objects_[ep_id - 1].endpoint;
  co_await sim_.Sleep(kSyscallOverhead);
  while (ep.callers.empty()) {
    co_await ep.recv_wait.Wait();
  }
  PendingCall call = std::move(ep.callers.front());
  ep.callers.pop_front();
  co_await sim_.Sleep(kIpcTransfer);
  out->message = std::move(call.msg);
  out->reply = ReplyToken(std::move(call.reply));
  co_return KernelStatus::kOk;
}

Task<KernelStatus> Kernel::Call(SlotAddr ep_cap, IpcMessage msg,
                                IpcMessage* reply_out) {
  RL_CHECK(reply_out != nullptr);
  ObjectId ep_id = kNullObject;
  if (KernelStatus st = CapAt(ep_cap, ObjectType::kEndpoint, &ep_id);
      st != KernelStatus::kOk) {
    co_return st;
  }
  Endpoint& ep = *objects_[ep_id - 1].endpoint;
  co_await sim_.Sleep(kSyscallOverhead);
  auto reply = std::make_shared<Completion<IpcMessage>>(sim_);
  ep.callers.push_back(PendingCall{std::move(msg), reply});
  ep.recv_wait.NotifyOne();
  *reply_out = co_await reply->Wait();
  co_return KernelStatus::kOk;
}

KernelStatus Kernel::Reply(ReplyToken& token, IpcMessage msg) {
  if (!token.valid()) {
    return KernelStatus::kInvalidArgument;
  }
  token.completion_->Complete(std::move(msg));
  token.completion_.reset();
  return KernelStatus::kOk;
}

void Kernel::CheckInvariants() const {
  std::vector<size_t> retyped(objects_.size() + 1, 0);
  for (const Object& obj : objects_) {
    // I1: every capability names an existing object of its recorded type.
    for (const std::optional<Capability>& cap : obj.slots) {
      if (!cap.has_value()) {
        continue;
      }
      RL_CHECK_MSG(cap->object != kNullObject &&
                       cap->object <= objects_.size(),
                   "dangling capability to object " << cap->object);
      RL_CHECK_MSG(objects_[cap->object - 1].type == cap->type,
                   "capability type mismatch on object " << cap->object);
    }
    if (obj.type == ObjectType::kEndpoint) {
      RL_CHECK_MSG(obj.parent_untyped != kNullObject &&
                       obj.parent_untyped <= objects_.size() &&
                       objects_[obj.parent_untyped - 1].type ==
                           ObjectType::kUntyped,
                   "endpoint not retyped from an untyped");
      retyped[obj.parent_untyped] += kEndpointBytes;
    }
  }
  // I2: each untyped's watermark is the bytes retyped from it, within the
  // region.
  for (ObjectId id = 1; id <= objects_.size(); ++id) {
    const Object& obj = objects_[id - 1];
    if (obj.type == ObjectType::kUntyped) {
      RL_CHECK_MSG(obj.watermark == retyped[id] && obj.watermark <= obj.bytes,
                   "untyped " << id << " watermark " << obj.watermark
                              << " != retyped " << retyped[id]);
    }
  }
}

}  // namespace rlkern
