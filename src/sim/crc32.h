// CRC-32C (Castagnoli). Used by the DB engine to detect torn
// sectors/pages/log records after crashes, and by the trace/divergence
// machinery to digest payloads — which puts it on the hot path of every
// traced run. Crc32c therefore dispatches once, at first use, to the SSE4.2
// `crc32` instruction when the CPU has it, and to portable slice-by-8
// otherwise. All forms give the same output for every input (pinned by
// sim_crc_test), so the dispatch never changes a simulated result.
#pragma once

#include <cstdint>
#include <span>

namespace rlsim {

// The production entry point: Crc32cHw where supported, else Crc32cSlice8.
uint32_t Crc32c(std::span<const uint8_t> data, uint32_t seed = 0);

// True when this host can run Crc32cHw (x86-64 with SSE4.2).
bool Crc32cHwSupported();

// The SSE4.2 `crc32` instruction, eight bytes per step. Only callable when
// Crc32cHwSupported() is true.
uint32_t Crc32cHw(std::span<const uint8_t> data, uint32_t seed = 0);

// Slice-by-8: processes 8 input bytes per step through 8 derived tables.
// The portable fallback of Crc32c.
uint32_t Crc32cSlice8(std::span<const uint8_t> data, uint32_t seed = 0);

// The classic one-byte-at-a-time table-driven form. Kept as the reference
// implementation for the equivalence test and as the baseline the CRC
// throughput benchmark measures speedup against; production code calls
// Crc32c.
uint32_t Crc32cTableDriven(std::span<const uint8_t> data, uint32_t seed = 0);

}  // namespace rlsim
