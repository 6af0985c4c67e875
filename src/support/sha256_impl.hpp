// Internal: the SHA-256 compression functions behind Sha256. Sha256 picks
// one once per process (SHA-NI when the CPU has it, the portable scalar one
// otherwise); there is no override. This header exists so the tests can run
// both on the same input and compare them — production code uses Sha256.
#pragma once

#include <cstddef>
#include <cstdint>

namespace tanglefl::sha256_impl {

/// Absorbs `block_count` consecutive 64-byte blocks into `state`.
using CompressFn = void (*)(std::uint32_t* state, const std::uint8_t* blocks,
                            std::size_t block_count) noexcept;

/// Portable FIPS 180-4 compression; runs everywhere.
void compress_scalar(std::uint32_t* state, const std::uint8_t* blocks,
                     std::size_t block_count) noexcept;

/// Intel SHA extensions compression. Call only when shani_supported().
void compress_shani(std::uint32_t* state, const std::uint8_t* blocks,
                    std::size_t block_count) noexcept;

/// True when this build targets x86 and the CPU reports SHA and SSE4.1.
bool shani_supported() noexcept;

/// The function Sha256 uses in this process.
CompressFn active_compress() noexcept;

}  // namespace tanglefl::sha256_impl
