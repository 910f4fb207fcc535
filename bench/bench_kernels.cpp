// google-benchmark timings of the word-parallel electrical-model kernels
// (src/dram/kernels.hpp) against the scalar per-column loops they
// replaced. Run after kernel changes to confirm the word-at-a-time paths
// still win; the scalar BM_* variants are the pre-vectorization
// reference implementations kept verbatim for comparison.
//
// `bench_kernels --simd-report` skips google-benchmark and instead times
// each dispatched kernel under the forced scalar and forced AVX2 tiers,
// writing per-kernel speedups to the harness JSON ("simd" section). Add
// `--assert-avx2-wins` to exit nonzero when AVX2 loses to scalar (the CI
// perf-smoke gate); both modes exit 0 with a notice on hosts without
// AVX2.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstddef>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/bitvec.hpp"
#include "common/normal.hpp"
#include "common/rng.hpp"
#include "dram/kernels.hpp"
#include "dram/process_variation.hpp"

namespace {

using namespace simra;

constexpr std::size_t kColumns = 8192;  // one x8 subarray row

std::vector<float> random_floats(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> out(n);
  for (float& v : out) v = static_cast<float>(rng.normal());
  return out;
}

void BM_HashedThresholdMask(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(
        dram::kernels::hashed_threshold_mask(0x5eed, kColumns, 0.25f));
}
BENCHMARK(BM_HashedThresholdMask);

void BM_HashedThresholdMaskScalar(benchmark::State& state) {
  for (auto _ : state) {
    BitVec mask(kColumns);
    for (std::size_t c = 0; c < kColumns; ++c)
      if (static_cast<float>(uniform_from_hash(hash_combine(0x5eed, c))) <
          0.25f)
        mask.set(c, true);
    benchmark::DoNotOptimize(mask);
  }
}
BENCHMARK(BM_HashedThresholdMaskScalar);

void BM_LatchRaceMask(benchmark::State& state) {
  const auto race = random_floats(kColumns, 2);
  for (auto _ : state)
    benchmark::DoNotOptimize(dram::kernels::latch_race_mask(race, 0.5));
}
BENCHMARK(BM_LatchRaceMask);

void BM_OffsetNoiseMask(benchmark::State& state) {
  const auto offsets = random_floats(kColumns, 3);
  Rng rng(4);
  std::vector<double> noise(kColumns);
  rng.normal_fill(noise);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        dram::kernels::offset_noise_mask(offsets, noise, 0.35));
}
BENCHMARK(BM_OffsetNoiseMask);

void BM_Lag8Disagreement(benchmark::State& state) {
  Rng rng(5);
  BitVec row(kColumns);
  row.randomize(rng);
  for (auto _ : state) {
    std::size_t total = 0;
    benchmark::DoNotOptimize(dram::kernels::lag8_disagreement(row, total));
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_Lag8Disagreement);

void BM_Lag8DisagreementScalar(benchmark::State& state) {
  Rng rng(5);
  BitVec row(kColumns);
  row.randomize(rng);
  for (auto _ : state) {
    std::size_t disagree = 0, total = 0;
    for (std::size_t c = 0; c + 8 < row.size(); c += 16) {
      if (row.get(c) != row.get(c + 8)) ++disagree;
      ++total;
    }
    benchmark::DoNotOptimize(disagree);
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_Lag8DisagreementScalar);

void BM_ColumnPopcounts(benchmark::State& state) {
  const auto n_rows = static_cast<std::size_t>(state.range(0));
  Rng rng(6);
  std::vector<BitVec> rows(n_rows, BitVec(kColumns));
  for (auto& r : rows) r.randomize(rng);
  std::vector<const BitVec*> ptrs;
  for (const auto& r : rows) ptrs.push_back(&r);
  std::vector<std::uint64_t> planes(6);
  for (auto _ : state) {
    for (std::size_t wi = 0; wi < kColumns / 64; ++wi) {
      dram::kernels::column_popcounts(ptrs, wi, planes);
      benchmark::DoNotOptimize(planes.data());
    }
  }
}
BENCHMARK(BM_ColumnPopcounts)->Arg(8)->Arg(32);

void BM_ColumnPopcountsScalar(benchmark::State& state) {
  const auto n_rows = static_cast<std::size_t>(state.range(0));
  Rng rng(6);
  std::vector<BitVec> rows(n_rows, BitVec(kColumns));
  for (auto& r : rows) r.randomize(rng);
  std::vector<std::uint8_t> counts(kColumns);
  for (auto _ : state) {
    for (std::size_t c = 0; c < kColumns; ++c) {
      std::uint8_t ones = 0;
      for (const auto& r : rows) ones += r.get(c) ? 1 : 0;
      counts[c] = ones;
    }
    benchmark::DoNotOptimize(counts.data());
  }
}
BENCHMARK(BM_ColumnPopcountsScalar)->Arg(8)->Arg(32);

/// One row's worth of resolve_word inputs: per-word class planes of four
/// rows (three planes, the MAJ3-with-one-copy shape), a computed
/// class -> verdict table, and the zeta/polarity deviates.
struct ResolveRow {
  std::vector<dram::kernels::ClassPlanes> words;
  std::vector<double> zg;
  std::vector<std::int32_t> flags;
  std::vector<float> zetas;
  std::vector<float> polarities;
};

ResolveRow make_resolve_row() {
  ResolveRow row;
  Rng rng(8);
  std::vector<BitVec> data(4, BitVec(kColumns));
  for (auto& r : data) r.randomize(rng);
  std::vector<const BitVec*> ptrs;
  for (const auto& r : data) ptrs.push_back(&r);
  row.words.resize(kColumns / 64);
  for (std::size_t wi = 0; wi < row.words.size(); ++wi) {
    row.words[wi].count = 3;
    dram::kernels::column_popcounts(
        ptrs, wi, std::span(row.words[wi].planes, 3));
  }
  for (std::size_t cls = 0; cls < 8; ++cls) {
    row.zg.push_back(rng.normal());
    row.flags.push_back(cls > 2 ? dram::kernels::kClassMajorityOne : 0);
  }
  row.zetas = random_floats(kColumns, 9);
  row.polarities = random_floats(kColumns, 10);
  return row;
}

/// Resolves every column of `row` (no decided bitlines).
void resolve_row(const ResolveRow& row) {
  for (std::size_t wi = 0; wi < row.words.size(); ++wi) {
    const std::span<const float> zetas(row.zetas.data() + 64 * wi, 64);
    const std::span<const float> pols(row.polarities.data() + 64 * wi, 64);
    benchmark::DoNotOptimize(dram::kernels::resolve_word(
        row.words[wi], ~0ULL, row.zg, row.flags, zetas, pols));
  }
}

void BM_ResolveWord(benchmark::State& state) {
  const ResolveRow row = make_resolve_row();
  for (auto _ : state) resolve_row(row);
}
BENCHMARK(BM_ResolveWord);

// --- scalar-vs-AVX2 report -------------------------------------------------

/// Median-of-5 per-call microseconds for `fn` under the forced `tier`.
double time_tier_us(dram::kernels::SimdTier tier,
                    const std::function<void()>& fn) {
  dram::kernels::set_simd_for_test(tier);
  constexpr int kReps = 200;
  std::vector<double> samples;
  for (int s = 0; s < 5; ++s) {
    fn();  // warm caches (and fault in the dispatch) outside the timing.
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kReps; ++i) fn();
    const double us = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    samples.push_back(us / kReps);
  }
  std::sort(samples.begin(), samples.end());
  dram::kernels::set_simd_for_test(std::nullopt);
  return samples[samples.size() / 2];
}

int simd_report(bool assert_avx2_wins) {
  if (!dram::kernels::avx2_supported()) {
    std::cout << "simd-report: AVX2 unavailable on this host — skipped\n";
    return 0;
  }
  const auto zetas = random_floats(kColumns, 1);
  Rng noise_rng(4);
  std::vector<double> noise(kColumns);
  noise_rng.normal_fill(noise);
  Rng bit_rng(5);
  BitVec row(kColumns);
  row.randomize(bit_rng);
  const ResolveRow resolve_row_inputs = make_resolve_row();
  std::vector<float> deviates(kColumns);
  std::vector<double> counter_draws(kColumns);
  // margin_chain runs over sum classes (not columns); 1024 is a dense
  // batch, large enough to keep the vector loop hot.
  const auto sums = random_floats(1024, 7);
  dram::kernels::MarginChainParams margin_params;
  margin_params.gain = 1.1;
  margin_params.g = 0.97;
  margin_params.noise_denominator = 1.8;
  margin_params.threshold = 0.4;
  margin_params.vendor_shift = -0.05;
  margin_params.z_penalty = 0.3;
  margin_params.n_connected = 9.0;
  margin_params.cap_ratio = 6.0;
  margin_params.margin_exponent = 0.8;
  std::vector<double> zg(sums.size());
  std::vector<std::int32_t> flags(sums.size());

  const std::vector<std::pair<std::string, std::function<void()>>> kernels = {
      {"hashed_threshold_mask",
       [&] {
         benchmark::DoNotOptimize(
             dram::kernels::hashed_threshold_mask(0x5eed, kColumns, 0.25f));
       }},
      {"latch_race_mask",
       [&] {
         benchmark::DoNotOptimize(dram::kernels::latch_race_mask(zetas, 0.5));
       }},
      {"offset_noise_mask",
       [&] {
         benchmark::DoNotOptimize(
             dram::kernels::offset_noise_mask(zetas, noise, 0.35));
       }},
      {"lag8_disagreement",
       [&] {
         std::size_t total = 0;
         benchmark::DoNotOptimize(dram::kernels::lag8_disagreement(row, total));
       }},
      {"hashed_normal_fill",
       [&] {
         dram::kernels::hashed_normal_fill(0x5eed, deviates);
         benchmark::DoNotOptimize(deviates.data());
       }},
      {"counter_normal_fill",
       [&] {
         dram::kernels::counter_normal_fill(0x5eed, 0, counter_draws);
         benchmark::DoNotOptimize(counter_draws.data());
       }},
      {"margin_chain",
       [&] {
         dram::kernels::margin_chain(sums, margin_params, zg, flags);
         benchmark::DoNotOptimize(zg.data());
       }},
      {"resolve_word_row", [&] { resolve_row(resolve_row_inputs); }},
  };

  std::vector<bench_common::SimdRecord> records;
  for (const auto& [name, fn] : kernels) {
    bench_common::SimdRecord rec;
    rec.kernel = name;
    rec.scalar_us = time_tier_us(dram::kernels::SimdTier::scalar, fn);
    rec.avx2_us = time_tier_us(dram::kernels::SimdTier::avx2, fn);
    records.push_back(rec);
  }
  bench_common::HarnessReport::global().record_simd(records);

  if (assert_avx2_wins) {
    int losses = 0;
    for (const auto& r : records) {
      // Per-kernel tolerance absorbs scheduler noise on busy CI hosts;
      // a real regression shows up as a hard loss, not a 2% wobble.
      if (r.speedup() < 0.9) {
        std::cerr << "simd-report: AVX2 slower than scalar for " << r.kernel
                  << " (" << r.speedup() << "x)\n";
        ++losses;
      }
    }
    if (losses > 0) return 1;
    std::cout << "simd-report: AVX2 >= scalar for all "
              << records.size() << " kernels\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool report = false, assert_wins = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--simd-report") report = true;
    if (arg == "--assert-avx2-wins") assert_wins = true;
  }
  if (report) return simd_report(assert_wins);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
