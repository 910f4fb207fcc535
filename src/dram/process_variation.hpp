#pragma once

#include <cstdint>
#include <span>

#include "common/bitvec.hpp"
#include "common/normal.hpp"

namespace simra::dram {

/// Deterministic process-variation fields.
///
/// A real chip's per-cell capacitor mismatch and per-sense-amplifier offset
/// are fixed at manufacturing time: the same cell misbehaves in every
/// trial (this is what makes the paper's "success rate" metric meaningful —
/// a cell is *stable* or *unstable*, §3.1). We reproduce that persistence
/// without storing per-cell state by hashing the entity coordinates into a
/// standard normal deviate: the same (seed, coordinates) always yields the
/// same deviate.
class VariationField {
 public:
  explicit VariationField(std::uint64_t seed) : seed_(seed) {}

  /// Unit normal deviate for a 1-key entity.
  double normal(std::uint64_t k0) const;
  /// Unit normal deviate for multi-key entities (bank, subarray, column...).
  double normal(std::uint64_t k0, std::uint64_t k1) const;
  double normal(std::uint64_t k0, std::uint64_t k1, std::uint64_t k2) const;
  double normal(std::uint64_t k0, std::uint64_t k1, std::uint64_t k2,
                std::uint64_t k3) const;

  /// Batched 4-key normals sharing a (k0, k1, k2) prefix:
  /// out[i] = float(normal(k0, k1, k2, i)). Hoists the three prefix hash
  /// rounds out of the per-entity loop — bit-identical to the scalar
  /// calls, ~2x faster per cell on full-row spans.
  void normal_fill(std::uint64_t k0, std::uint64_t k1, std::uint64_t k2,
                   std::span<float> out) const;

  /// Batched 4-key threshold compare sharing a (k0, k1, k2) prefix:
  /// bit i = (float(u) < u_eff) for i < count, where normal(k0, k1, k2, i)
  /// = inverse_normal_cdf(u). Compares against the normal deviate are
  /// monotone-equivalent in this domain (zeta < z <=> u < normal_cdf(z)),
  /// so no inverse CDF runs and no deviate is stored
  /// (kernels::hashed_threshold_mask).
  BitVec threshold_mask(std::uint64_t k0, std::uint64_t k1, std::uint64_t k2,
                        std::size_t count, float u_eff) const;

  /// Uniform deviate in [0, 1) for the same keying scheme.
  double uniform(std::uint64_t k0, std::uint64_t k1, std::uint64_t k2) const;

  std::uint64_t seed() const noexcept { return seed_; }

 private:
  std::uint64_t seed_;
};

/// The normal-distribution helpers moved to common/normal.hpp (the
/// counter-based sampler in common/rng needs them below the dram layer);
/// re-exported here for the dram call sites that grew up with them.
using simra::inverse_normal_cdf;
using simra::normal_cdf;

}  // namespace simra::dram
