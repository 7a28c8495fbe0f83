// Per-kernel scalar-vs-SIMD microbenchmark over the dsp::SimdOps table.
//
//   ./build/bench/simd_microbench [--smoke] [--out FILE] [--iters K]
//
// Every kernel in SimdOps runs on 128-element buffers (one render quantum)
// through the scalar table and through the best table the host supports,
// and the run emits BENCH_simd.json with ns/element and the speedup per
// kernel. Because the determinism contract says WAFP_SIMD changes speed
// and never bits, the bench also replays each kernel on both tables from
// identical state and records a per-kernel bit_identical verdict — a CI
// host that vectorizes faster but rounds differently fails loudly here
// rather than silently in a conformance digest.
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_json.h"
#include "dsp/simd.h"
#include "util/flags.h"

namespace {

using wafp::dsp::SimdBackend;
using wafp::dsp::SimdOps;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kN = 128;  // one render quantum

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// All buffers every kernel case touches. Cases share buffers freely —
/// each case re-derives the whole state before it runs, so mutation by a
/// previous case can never leak in.
struct State {
  float fa[kN], fb[kN], fdst[kN], facc[kN];
  float re[kN], im[kN], re0[kN], im0[kN];
  float mag[kN], sm[kN];
  float fwr[kN / 2], fwi[kN / 2];
  double dblock[kN], dwin[kN];
  double dtrig[kN], dexp[kN], dlog[kN], dout[kN];
};

/// Deterministic pseudo-random state (LCG, fixed seed) so both tables see
/// byte-identical inputs and reruns reproduce the same timings' workload.
State make_state() {
  State s{};
  std::uint32_t lcg = 0x2545F491u;
  auto next = [&lcg]() {
    lcg = lcg * 1664525u + 1013904223u;
    return static_cast<double>(lcg) / 4294967296.0;  // [0, 1)
  };
  for (std::size_t i = 0; i < kN; ++i) {
    s.fa[i] = static_cast<float>(next() * 2.0 - 1.0);
    s.fb[i] = static_cast<float>(next() * 2.0 - 1.0);
    s.re[i] = static_cast<float>(next() * 2.0 - 1.0);
    s.im[i] = static_cast<float>(next() * 2.0 - 1.0);
    s.mag[i] = static_cast<float>(next());
    s.sm[i] = static_cast<float>(next());
    s.dblock[i] = next() * 2.0 - 1.0;
    s.dwin[i] = next();
    s.dtrig[i] = (next() * 2.0 - 1.0) * 3.0;
    s.dexp[i] = (next() * 2.0 - 1.0) * 5.0;
    s.dlog[i] = next() * 9.5 + 0.5;
  }
  for (std::size_t i = 0; i < kN / 2; ++i) {
    const double angle =
        -2.0 * 3.14159265358979323846 * static_cast<double>(i) / kN;
    s.fwr[i] = static_cast<float>(std::cos(angle));
    s.fwi[i] = static_cast<float>(std::sin(angle));
  }
  std::memcpy(s.re0, s.re, sizeof(s.re0));
  std::memcpy(s.im0, s.im, sizeof(s.im0));
  return s;
}

/// One benchmarked kernel: `run` performs a single 128-element pass; the
/// out_ptr/out_bytes pair names the buffer the bit-identity replay compares.
struct Case {
  const char* name;
  void (*run)(State&, const SimdOps&);
  const void* (*out_ptr)(const State&);
  std::size_t out_bytes;
};

const Case kCases[] = {
    {"vmul_f32",
     [](State& s, const SimdOps& o) { o.vmul_f32(s.fdst, s.fa, s.fb, kN); },
     [](const State& s) -> const void* { return s.fdst; },
     sizeof(State::fdst)},
    {"vadd_f32",
     [](State& s, const SimdOps& o) { o.vadd_f32(s.fdst, s.fa, kN); },
     [](const State& s) -> const void* { return s.fdst; },
     sizeof(State::fdst)},
    {"vmac_f32",
     [](State& s, const SimdOps& o) { o.vmac_f32(s.fdst, s.fa, 0.3f, kN); },
     [](const State& s) -> const void* { return s.fdst; },
     sizeof(State::fdst)},
    {"vscale_f32",
     [](State& s, const SimdOps& o) { o.vscale_f32(s.fa, 1.0000001f, kN); },
     [](const State& s) -> const void* { return s.fa; }, sizeof(State::fa)},
    {"vabs_max_f32",
     [](State& s, const SimdOps& o) { o.vabs_max_f32(s.facc, s.fa, kN); },
     [](const State& s) -> const void* { return s.facc; },
     sizeof(State::facc)},
    {"vmax_abs_f32",
     [](State& s, const SimdOps& o) { s.fdst[0] = o.vmax_abs_f32(s.fa, kN); },
     [](const State& s) -> const void* { return s.fdst; }, sizeof(float)},
    {"vwindow_f32",
     [](State& s, const SimdOps& o) {
       o.vwindow_f32(s.fdst, s.dblock, s.dwin, kN);
     },
     [](const State& s) -> const void* { return s.fdst; },
     sizeof(State::fdst)},
    {"vmag_f32",
     [](State& s, const SimdOps& o) {
       o.vmag_f32(s.fdst, s.re, s.im, 1.0f / kN, true, kN);
     },
     [](const State& s) -> const void* { return s.fdst; },
     sizeof(State::fdst)},
    {"vsmooth_f32",
     [](State& s, const SimdOps& o) {
       o.vsmooth_f32(s.sm, s.mag, 0.8f, 0.2f, kN);
     },
     [](const State& s) -> const void* { return s.sm; }, sizeof(State::sm)},
    {"butterfly_f32",
     [](State& s, const SimdOps& o) {
       // Butterflies grow magnitudes, so restore pristine inputs each pass;
       // the memcpy cost is identical under both tables.
       std::memcpy(s.re, s.re0, sizeof(s.re));
       std::memcpy(s.im, s.im0, sizeof(s.im));
       o.butterfly_f32(s.re, s.im, kN / 2, s.fwr, s.fwi);
     },
     [](const State& s) -> const void* { return s.re; }, sizeof(State::re)},
    {"vsin_fma",
     [](State& s, const SimdOps& o) { o.vsin_fma(s.dtrig, s.dout, kN); },
     [](const State& s) -> const void* { return s.dout; },
     sizeof(State::dout)},
    {"vcos_fma",
     [](State& s, const SimdOps& o) { o.vcos_fma(s.dtrig, s.dout, kN); },
     [](const State& s) -> const void* { return s.dout; },
     sizeof(State::dout)},
    {"vexp_fma",
     [](State& s, const SimdOps& o) { o.vexp_fma(s.dexp, s.dout, kN); },
     [](const State& s) -> const void* { return s.dout; },
     sizeof(State::dout)},
    {"vlog_fma",
     [](State& s, const SimdOps& o) { o.vlog_fma(s.dlog, s.dout, kN); },
     [](const State& s) -> const void* { return s.dout; },
     sizeof(State::dout)},
};

double time_case(const Case& c, State& s, const SimdOps& ops,
                 std::size_t iters) {
  s = make_state();
  for (int warm = 0; warm < 128; ++warm) c.run(s, ops);
  const auto start = Clock::now();
  for (std::size_t i = 0; i < iters; ++i) c.run(s, ops);
  return seconds_since(start) * 1e9 /
         static_cast<double>(iters * kN);  // ns per element
}

bool bit_identical(const Case& c, State& s, const SimdOps& a,
                   const SimdOps& b) {
  constexpr std::size_t kReplayIters = 64;
  std::vector<unsigned char> out_a(c.out_bytes);
  std::vector<unsigned char> out_b(c.out_bytes);
  s = make_state();
  for (std::size_t i = 0; i < kReplayIters; ++i) c.run(s, a);
  std::memcpy(out_a.data(), c.out_ptr(s), c.out_bytes);
  s = make_state();
  for (std::size_t i = 0; i < kReplayIters; ++i) c.run(s, b);
  std::memcpy(out_b.data(), c.out_ptr(s), c.out_bytes);
  return out_a == out_b;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_simd.json";
  std::size_t iters = 100000;
  bool smoke = false;

  wafp::util::FlagParser flags(
      "simd_microbench",
      "Scalar-vs-SIMD kernel timings and bit-identity (BENCH_simd.json).");
  flags.flag("--smoke", &smoke, "tiny CI-sized run");
  flags.flag("--out", &out_path, "output JSON path");
  flags.flag("--iters", &iters, "timed passes per kernel", /*min=*/1);
  if (!flags.parse(argc, argv)) return flags.exit_code();
  if (smoke) iters = 20000;

  const SimdBackend detected = wafp::dsp::detect_simd_backend();
  const SimdOps& scalar = wafp::dsp::simd_ops_for(SimdBackend::kScalar);
  const SimdOps& simd = wafp::dsp::simd_ops_for(detected);
  const bool sse2_ok = wafp::dsp::simd_backend_supported(SimdBackend::kSse2);
  const bool avx2_ok = wafp::dsp::simd_backend_supported(SimdBackend::kAvx2);

  std::printf(
      "simd_microbench: n=%zu iters=%zu detected=%s active=%s "
      "(sse2=%d avx2=%d)\n",
      kN, iters, std::string(wafp::dsp::to_string(detected)).c_str(),
      std::string(wafp::dsp::to_string(wafp::dsp::active_simd_backend()))
          .c_str(),
      sse2_ok ? 1 : 0, avx2_ok ? 1 : 0);

  struct Row {
    const char* name;
    double scalar_ns;
    double simd_ns;
    double speedup;
    bool identical;
  };
  std::vector<Row> rows;
  State s{};
  double speedup_max = 0.0;
  double log_sum = 0.0;
  bool all_identical = true;
  for (const Case& c : kCases) {
    Row r{};
    r.name = c.name;
    r.scalar_ns = time_case(c, s, scalar, iters);
    r.simd_ns = time_case(c, s, simd, iters);
    r.speedup = r.simd_ns > 0.0 ? r.scalar_ns / r.simd_ns : 0.0;
    r.identical = bit_identical(c, s, scalar, simd);
    all_identical = all_identical && r.identical;
    if (r.speedup > speedup_max) speedup_max = r.speedup;
    if (r.speedup > 0.0) log_sum += std::log(r.speedup);
    rows.push_back(r);
    std::printf("  %-14s scalar=%8.3f ns/elem  %s=%8.3f ns/elem  %5.2fx  %s\n",
                r.name, r.scalar_ns,
                std::string(wafp::dsp::to_string(detected)).c_str(), r.simd_ns,
                r.speedup, r.identical ? "bit-identical" : "DIVERGED");
  }
  const double speedup_geomean =
      rows.empty() ? 0.0
                   : std::exp(log_sum / static_cast<double>(rows.size()));
  std::printf("  speedup: max=%.2fx geomean=%.2fx  bit_identical=%s\n",
              speedup_max, speedup_geomean, all_identical ? "all" : "FAIL");

  wafp::bench::BenchJson json("simd_microbench");
  json.integer("n", kN);
  json.integer("iters", iters);
  json.boolean("smoke", smoke);
  json.string("detected_backend", wafp::dsp::to_string(detected));
  json.boolean("sse2_supported", sse2_ok);
  json.boolean("avx2_supported", avx2_ok);
  json.boolean("bit_identical_all", all_identical);
  std::vector<wafp::bench::JsonObject> kernels;
  for (const Row& r : rows) {
    wafp::bench::JsonObject& kernel = kernels.emplace_back();
    kernel.string("name", r.name);
    kernel.fixed("scalar_ns_per_elem", r.scalar_ns, 4);
    kernel.fixed("simd_ns_per_elem", r.simd_ns, 4);
    kernel.fixed("speedup", r.speedup, 4);
    kernel.boolean("bit_identical", r.identical);
  }
  json.rows("kernels", kernels);
  json.fixed("speedup_max", speedup_max, 4);
  json.fixed("speedup_geomean", speedup_geomean, 4);
  json.write(out_path);
  return all_identical ? 0 : 1;
}
