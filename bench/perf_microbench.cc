// Performance microbenchmarks (google-benchmark): the engine's hot paths
// and the §3.2 scalability claim for the collation graph — the paper argues
// the fingerprint graph "scales well to even billions of users" because
// updates are polylogarithmic; BM_FingerprintGraphInsert measures the
// amortized insert cost at growing scales.
#include <benchmark/benchmark.h>

#include <vector>

#include "collation/disjoint_set.h"
#include "collation/dynamic_connectivity.h"
#include "collation/fingerprint_graph.h"
#include "dsp/fft.h"
#include "dsp/math_library.h"
#include "fingerprint/render_cache.h"
#include "fingerprint/vector.h"
#include "platform/catalog.h"
#include "platform/canvas_sim.h"
#include "platform/synthetic_vectors.h"
#include "study/dataset.h"
#include "util/hash.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "webaudio/dynamics_compressor_node.h"
#include "webaudio/offline_audio_context.h"
#include "webaudio/oscillator_node.h"

namespace {

using namespace wafp;

void BM_Sha256(benchmark::State& state) {
  const std::vector<std::uint8_t> data(
      static_cast<std::size_t>(state.range(0)), 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::sha256(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(1024)->Arg(65536)->Arg(1 << 20);

void BM_FftForward(benchmark::State& state) {
  const auto variant = static_cast<dsp::FftVariant>(state.range(0));
  const auto math = dsp::make_math_library(dsp::MathVariant::kPrecise);
  const auto engine = dsp::make_fft_engine(variant, math);
  const std::size_t n = 2048;
  std::vector<float> re(n), im(n);
  util::Rng rng(1);
  for (auto& v : re) v = static_cast<float>(rng.next_double());
  std::vector<float> work_re(n), work_im(n);
  for (auto _ : state) {
    work_re = re;
    work_im.assign(n, 0.0f);
    engine->forward(std::span<float>(work_re), std::span<float>(work_im));
    benchmark::DoNotOptimize(work_re.data());
  }
  state.SetLabel(std::string(dsp::to_string(variant)) + " n=2048 f32");
}
BENCHMARK(BM_FftForward)
    ->Arg(static_cast<int>(dsp::FftVariant::kRadix2))
    ->Arg(static_cast<int>(dsp::FftVariant::kRadix4))
    ->Arg(static_cast<int>(dsp::FftVariant::kSplitRadix))
    ->Arg(static_cast<int>(dsp::FftVariant::kBluestein));

void BM_MathVariantSin(benchmark::State& state) {
  const auto variant = static_cast<dsp::MathVariant>(state.range(0));
  const auto math = dsp::make_math_library(variant);
  double x = 0.1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(math->sin(x));
    x += 0.37;
    if (x > 100.0) x = 0.1;
  }
  state.SetLabel(std::string(dsp::to_string(variant)));
}
BENCHMARK(BM_MathVariantSin)
    ->Arg(static_cast<int>(dsp::MathVariant::kPrecise))
    ->Arg(static_cast<int>(dsp::MathVariant::kFdlibm))
    ->Arg(static_cast<int>(dsp::MathVariant::kFastPoly))
    ->Arg(static_cast<int>(dsp::MathVariant::kTable));

void BM_OscillatorRender(benchmark::State& state) {
  for (auto _ : state) {
    webaudio::OfflineAudioContext ctx(1, 44100, 44100.0,
                                      webaudio::EngineConfig::reference());
    auto& osc = ctx.create<webaudio::OscillatorNode>(
        webaudio::OscillatorType::kTriangle);
    osc.frequency().set_value(10000.0);
    osc.connect(ctx.destination());
    osc.start(0.0);
    benchmark::DoNotOptimize(ctx.start_rendering());
  }
  state.SetLabel("1 s triangle @ 44.1 kHz");
}
BENCHMARK(BM_OscillatorRender);

void BM_CompressorRender(benchmark::State& state) {
  for (auto _ : state) {
    webaudio::OfflineAudioContext ctx(1, 44100, 44100.0,
                                      webaudio::EngineConfig::reference());
    auto& osc = ctx.create<webaudio::OscillatorNode>(
        webaudio::OscillatorType::kTriangle);
    osc.frequency().set_value(10000.0);
    auto& comp = ctx.create<webaudio::DynamicsCompressorNode>();
    osc.connect(comp);
    comp.connect(ctx.destination());
    osc.start(0.0);
    benchmark::DoNotOptimize(ctx.start_rendering());
  }
  state.SetLabel("1 s osc->compressor @ 44.1 kHz");
}
BENCHMARK(BM_CompressorRender);

const platform::PlatformProfile& bench_profile() {
  static const platform::PlatformProfile profile = [] {
    platform::DeviceCatalog catalog;
    util::Rng rng(7);
    return catalog.sample_profile(rng);
  }();
  return profile;
}

void BM_FingerprintVector(benchmark::State& state) {
  const auto id = static_cast<fingerprint::VectorId>(state.range(0));
  const auto& vector = fingerprint::audio_vector(id);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vector.run(bench_profile(), {}));
  }
  state.SetLabel(std::string(to_string(id)));
}
BENCHMARK(BM_FingerprintVector)
    ->Arg(static_cast<int>(fingerprint::VectorId::kDc))
    ->Arg(static_cast<int>(fingerprint::VectorId::kFft))
    ->Arg(static_cast<int>(fingerprint::VectorId::kHybrid))
    ->Arg(static_cast<int>(fingerprint::VectorId::kMergedSignals))
    ->Arg(static_cast<int>(fingerprint::VectorId::kAm));

void BM_CanvasFingerprint(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(platform::canvas_fingerprint(bench_profile()));
  }
}
BENCHMARK(BM_CanvasFingerprint);

void BM_FingerprintGraphInsert(benchmark::State& state) {
  // §3.2 scalability: amortized cost of one observation insert at scale u.
  const auto users = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    collation::FingerprintGraph graph;
    util::Rng rng(3);
    state.ResumeTiming();
    for (std::uint32_t u = 0; u < users; ++u) {
      // Two platform-shared fingerprints + one unique per user.
      graph.add_observation(u, util::sha256("platform-" +
                                            std::to_string(u % 97)));
      graph.add_observation(
          u, util::sha256("state-" + std::to_string(u % 97) + "-" +
                          std::to_string(rng.next_below(4))));
      graph.add_observation(u, util::sha256("unique-" + std::to_string(u)));
    }
    benchmark::DoNotOptimize(graph.cluster_count());
  }
  state.SetItemsProcessed(state.iterations() * users * 3);
}
BENCHMARK(BM_FingerprintGraphInsert)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Arg(1000000);

void BM_FingerprintGraphQuery(benchmark::State& state) {
  collation::FingerprintGraph graph;
  for (std::uint32_t u = 0; u < 100000; ++u) {
    graph.add_observation(u,
                          util::sha256("platform-" + std::to_string(u % 97)));
    graph.add_observation(u, util::sha256("unique-" + std::to_string(u)));
  }
  std::uint32_t a = 0, b = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph.same_cluster(a, b));
    a = (a + 37) % 100000;
    b = (b + 101) % 100000;
  }
  state.SetLabel("u=100k connectivity query");
}
BENCHMARK(BM_FingerprintGraphQuery);

void BM_DynamicConnectivityChurn(benchmark::State& state) {
  // The HDT structure under sustained insert/delete churn (the paper's
  // cited O(log^2 n) amortized updates). Edges are random; about half the
  // operations are deletions once the graph warms up.
  const auto n = static_cast<std::uint32_t>(state.range(0));
  collation::DynamicConnectivity dc(n);
  util::Rng rng(41);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> live;
  std::size_t ops = 0;
  for (auto _ : state) {
    const bool do_delete = !live.empty() && rng.next_bool(0.5);
    if (do_delete) {
      const std::size_t pick = rng.next_below(live.size());
      dc.delete_edge(live[pick].first, live[pick].second);
      live[pick] = live.back();
      live.pop_back();
    } else {
      const auto u = static_cast<std::uint32_t>(rng.next_below(n));
      const auto v = static_cast<std::uint32_t>(rng.next_below(n));
      if (dc.insert_edge(u, v)) live.emplace_back(u, v);
    }
    ++ops;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(ops));
  state.SetLabel("HDT insert/delete mix, n=" + std::to_string(n));
}
BENCHMARK(BM_DynamicConnectivityChurn)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_DisjointSetUnion(benchmark::State& state) {
  // Baseline for the insert-only workload HDT is overkill for.
  const auto n = static_cast<std::uint32_t>(state.range(0));
  util::Rng rng(43);
  for (auto _ : state) {
    state.PauseTiming();
    collation::DisjointSet ds(n);
    state.ResumeTiming();
    for (std::uint32_t i = 0; i < n; ++i) {
      ds.unite(rng.next_below(n), rng.next_below(n));
    }
    benchmark::DoNotOptimize(ds.component_count());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DisjointSetUnion)->Arg(100000);

void BM_RenderCacheHit(benchmark::State& state) {
  // Hot-path lookup with the packed struct key: one class_hash over POD
  // fields instead of the old heap-allocated string key build per call.
  fingerprint::RenderCache cache;
  const auto& vec = fingerprint::audio_vector(fingerprint::VectorId::kHybrid);
  (void)cache.get(vec, bench_profile(), 0);  // warm: first call renders
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.get(vec, bench_profile(), 0));
  }
  state.SetLabel("sharded cache, warm key");
}
BENCHMARK(BM_RenderCacheHit);

void BM_ThreadPoolParallelFor(benchmark::State& state) {
  // Dispatch + join overhead of one parallel_for over trivial work.
  util::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  std::vector<std::uint64_t> out(4096);
  for (auto _ : state) {
    pool.parallel_for(out.size(), [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) out[i] = i * 2654435761u;
    });
    benchmark::DoNotOptimize(out.data());
  }
  state.SetLabel("threads=" + std::to_string(pool.thread_count()));
}
BENCHMARK(BM_ThreadPoolParallelFor)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_DatasetCollect(benchmark::State& state) {
  // Serial-vs-parallel end-to-end collection; the full sweep with per-stage
  // analysis timings lives in bench/parallel_pipeline (BENCH_parallel.json).
  study::StudyConfig cfg;
  cfg.num_users = 150;
  cfg.iterations = 10;
  cfg.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(study::Dataset::collect(cfg));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(cfg.num_users));
  state.SetLabel("150 users x 10 iters, threads=" +
                 std::to_string(cfg.threads));
}
BENCHMARK(BM_DatasetCollect)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
