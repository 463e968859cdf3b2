// Host vector-ISA level, reported as context next to benchmark figures.
//
// The packed engine (anf/packed.hpp) is portable C++: no code path depends
// on the level reported here.  It exists so timing records can say which
// instruction set the host offered when they were taken.
#pragma once

namespace gfre::anf::simd {

/// Instruction-set tiers, ordered.
enum class Level : int {
  Scalar = 0,
  Avx2 = 1,
  Avx512 = 2,
};

const char* to_string(Level level);

/// Widest level this CPU supports (CPUID-based, cached); Scalar on
/// non-x86 hosts.
Level detect_level();

/// The level reported as host context: the detected level.
Level active_level();

}  // namespace gfre::anf::simd
