#pragma once
// Seeded input generation: sub-seeds and the array-multiplier BLIF.

#include <cstdint>
#include <string>

namespace perfbench {

/// splitmix64 finaliser.
std::uint64_t mix64(std::uint64_t x);

/// Seed of scenario `index` in a run with workload seed `seed`: nonzero and
/// below 2^31, so it also reads back through 32-bit seed parsers.
std::uint64_t sub_seed(std::uint64_t seed, int index);

/// BLIF text of a `width` x `width` unsigned array multiplier: PIs
/// a0..a{w-1}, b0..b{w-1}; POs p0..p{2w-1} = the bits of a * b.  Built from
/// AND partial products and ripple-carry rows of XOR/majority full adders.
/// `seed` picks the order in which the gates are written (a random
/// topological order) and the names of the internal nets; the function is
/// the same for every seed.
std::string multiplier_blif(int width, std::uint64_t seed);

}  // namespace perfbench
