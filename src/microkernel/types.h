// Core types of the seL4-like microkernel model.
//
// The model keeps only what the guest block path crosses: capabilities as
// the only naming mechanism, untyped memory carved into endpoints, and
// synchronous call/reply IPC. Its state obeys machine-checkable invariants
// (here enforced with runtime checks and exercised by fuzz tests).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace rlkern {

// Index into the kernel object table; 0 is the null object.
using ObjectId = uint64_t;
inline constexpr ObjectId kNullObject = 0;

// Slot index within a CNode.
using CPtr = uint64_t;

enum class ObjectType : uint8_t {
  kUntyped,
  kCNode,
  kEndpoint,
};

// A capability as stored in a CNode slot. Every capability carries full
// authority over its object.
struct Capability {
  ObjectId object = kNullObject;
  ObjectType type = ObjectType::kUntyped;
};

// Global address of a capability slot.
struct SlotAddr {
  ObjectId cnode = kNullObject;
  CPtr index = 0;
};

enum class KernelStatus {
  kOk,
  kInvalidSlot,    // slot address does not name a valid slot
  kEmptySlot,      // expected a capability, slot is empty
  kSlotOccupied,   // destination slot already holds a capability
  kTypeMismatch,   // capability names an object of the wrong type
  kOutOfMemory,    // untyped exhausted
  kInvalidArgument,
};

std::string ToString(KernelStatus s);

// An IPC message: a label plus untyped machine words. `payload` stands in
// for data that real systems move through shared frames; modelling it inline
// keeps the I/O path simple while the simulated transfer cost stays explicit
// at the call site.
struct IpcMessage {
  uint64_t label = 0;
  std::vector<uint64_t> words;
  std::vector<uint8_t> payload;
};

}  // namespace rlkern
