#include "src/vmm/virtual_block_device.h"

#include <utility>
#include <vector>

#include "src/sim/check.h"

namespace rlvmm {

using rlkern::IpcMessage;
using rlkern::KernelStatus;
using rlkern::Received;
using rlsim::Task;
using rlstor::BlockStatus;
using rlstor::kSectorSize;

BlockBackend::BlockBackend(rlsim::Simulator& sim, rlkern::Kernel& kernel,
                           rlkern::SlotAddr service_ep,
                           rlstor::BlockDevice& target, std::string name)
    : sim_(sim),
      kernel_(kernel),
      service_ep_(service_ep),
      target_(target),
      name_(std::move(name)) {}

void BlockBackend::Start() { sim_.Spawn(ServiceLoop()); }

rlsim::Task<void> BlockBackend::ServiceLoop() {
  while (true) {
    Received request;
    const KernelStatus st = co_await kernel_.Recv(service_ep_, &request);
    if (st != KernelStatus::kOk) {
      co_return;  // endpoint destroyed — backend retires
    }
    sim_.Spawn(HandleRequest(std::move(request)));
  }
}

rlsim::Task<void> BlockBackend::HandleRequest(Received request) {
  IpcMessage& msg = request.message;
  IpcMessage reply;
  BlockStatus status = BlockStatus::kOutOfRange;
  RL_CHECK_MSG(msg.words.size() >= 3, "malformed block request");
  const uint64_t lba = msg.words[0];
  const uint64_t sectors = msg.words[1];
  const bool fua = msg.words[2] != 0;

  switch (msg.label) {
    case kBlkRead: {
      std::vector<uint8_t> buf(sectors * kSectorSize);
      status = co_await target_.Read(lba, buf);
      reply.payload = std::move(buf);
      break;
    }
    case kBlkWrite:
      RL_CHECK(msg.payload.size() == sectors * kSectorSize);
      status = co_await target_.Write(lba, msg.payload, fua);
      break;
    case kBlkFlush:
      status = co_await target_.Flush();
      break;
    default:
      RL_UNREACHABLE("unknown block opcode");
  }
  reply.words = {static_cast<uint64_t>(status)};
  ++requests_served_;
  kernel_.Reply(request.reply, std::move(reply));
}

VirtualBlockDevice::VirtualBlockDevice(rlsim::Simulator& sim,
                                       VirtualMachine& vm,
                                       rlkern::Kernel& kernel,
                                       rlkern::SlotAddr backend_ep,
                                       rlstor::Geometry geometry,
                                       std::string name)
    : sim_(sim),
      vm_(vm),
      kernel_(kernel),
      backend_ep_(backend_ep),
      geometry_(geometry),
      name_(std::move(name)) {}

Task<BlockStatus> VirtualBlockDevice::Transact(IpcMessage msg,
                                               std::span<uint8_t> read_out,
                                               std::string_view kind,
                                               int64_t arg) {
  // Covers the whole guest-observed request: VM exit, backend IPC, physical
  // I/O, and completion-interrupt injection.
  rlsim::SpanScope span(sim_, name_, kind, arg);
  const uint64_t incarnation = vm_.incarnation();
  const rlsim::TimePoint start = sim_.now();
  co_await vm_.VmExit();

  IpcMessage reply;
  const KernelStatus st = co_await kernel_.Call(backend_ep_, std::move(msg),
                                                &reply);
  RL_CHECK_MSG(st == KernelStatus::kOk,
               "backend IPC failed: " << rlkern::ToString(st));

  // The physical effect (if any) has happened; now deliver the completion to
  // the guest — which may have died in the meantime.
  vm_.CheckAlive(incarnation);
  co_await vm_.InjectIrq();
  vm_.CheckAlive(incarnation);

  if (!read_out.empty()) {
    RL_CHECK(reply.payload.size() == read_out.size());
    std::copy(reply.payload.begin(), reply.payload.end(), read_out.begin());
  }
  stats_.request_latency.RecordDuration(sim_.now() - start);
  co_return static_cast<BlockStatus>(reply.words.at(0));
}

Task<BlockStatus> VirtualBlockDevice::Read(uint64_t lba,
                                           std::span<uint8_t> out) {
  IpcMessage msg;
  msg.label = kBlkRead;
  msg.words = {lba, out.size() / kSectorSize, 0};
  stats_.reads.Add();
  co_return co_await Transact(std::move(msg), out, "vblk-read",
                              static_cast<int64_t>(lba));
}

Task<BlockStatus> VirtualBlockDevice::Write(uint64_t lba,
                                            std::span<const uint8_t> data,
                                            bool fua) {
  IpcMessage msg;
  msg.label = kBlkWrite;
  msg.words = {lba, data.size() / kSectorSize, fua ? 1u : 0u};
  msg.payload.assign(data.begin(), data.end());
  stats_.writes.Add();
  co_return co_await Transact(std::move(msg), {}, "vblk-write",
                              static_cast<int64_t>(lba));
}

Task<BlockStatus> VirtualBlockDevice::Flush() {
  IpcMessage msg;
  msg.label = kBlkFlush;
  msg.words = {0, 0, 0};
  stats_.flushes.Add();
  co_return co_await Transact(std::move(msg), {}, "vblk-flush", 0);
}

}  // namespace rlvmm
