#include "dram/process_variation.hpp"

#include "common/normal.hpp"
#include "common/rng.hpp"
#include "dram/kernels.hpp"

namespace simra::dram {

namespace {

double hash_to_uniform(std::uint64_t h) { return uniform_from_hash(h); }

}  // namespace

double VariationField::normal(std::uint64_t k0) const {
  return inverse_normal_cdf(hash_to_uniform(hash_combine(seed_, k0)));
}

double VariationField::normal(std::uint64_t k0, std::uint64_t k1) const {
  return inverse_normal_cdf(
      hash_to_uniform(hash_combine(hash_combine(seed_, k0), k1)));
}

double VariationField::normal(std::uint64_t k0, std::uint64_t k1,
                              std::uint64_t k2) const {
  return inverse_normal_cdf(hash_to_uniform(
      hash_combine(hash_combine(hash_combine(seed_, k0), k1), k2)));
}

double VariationField::normal(std::uint64_t k0, std::uint64_t k1,
                              std::uint64_t k2, std::uint64_t k3) const {
  return inverse_normal_cdf(hash_to_uniform(hash_combine(
      hash_combine(hash_combine(hash_combine(seed_, k0), k1), k2), k3)));
}

void VariationField::normal_fill(std::uint64_t k0, std::uint64_t k1,
                                 std::uint64_t k2,
                                 std::span<float> out) const {
  const std::uint64_t prefix =
      hash_combine(hash_combine(hash_combine(seed_, k0), k1), k2);
  // Batched, SIMD-dispatched evaluation of
  // float(inverse_normal_cdf(hash_to_uniform(hash_combine(prefix, i)))) —
  // bit-identical to the per-index calls at every tier.
  kernels::hashed_normal_fill(prefix, out);
}

BitVec VariationField::threshold_mask(std::uint64_t k0, std::uint64_t k1,
                                      std::uint64_t k2, std::size_t count,
                                      float u_eff) const {
  const std::uint64_t prefix =
      hash_combine(hash_combine(hash_combine(seed_, k0), k1), k2);
  return kernels::hashed_threshold_mask(prefix, count, u_eff);
}

double VariationField::uniform(std::uint64_t k0, std::uint64_t k1,
                               std::uint64_t k2) const {
  return hash_to_uniform(
      hash_combine(hash_combine(hash_combine(seed_, k0), k1), k2));
}

}  // namespace simra::dram
