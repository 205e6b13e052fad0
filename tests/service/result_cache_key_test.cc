// Property tests of the result cache's content addressing
// (core/canonical.h + ResultCache::MakeKey): equal requests produce equal
// keys, any single-field perturbation — the clustering seed included —
// produces a different key, and the field-coverage pins still hold so a
// new ClusterOptions/ProclusParams member cannot silently ship without
// being folded into the key.

#include "service/result_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <functional>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "core/api.h"
#include "core/canonical.h"
#include "core/multi_param.h"
#include "core/params.h"
#include "data/matrix.h"
#include "service/job.h"
#include "simt/device_properties.h"
#include "store/dataset_store.h"

namespace proclus::service {
namespace {

// Compile-time re-assertion of the field-coverage pins: if one of these
// fires, a struct that shapes the cache key grew a member that
// core/canonical.cc does not fold in yet. Fix the Append* function first.
#if defined(__x86_64__) || defined(__aarch64__)
static_assert(sizeof(core::ProclusParams) ==
              core::kCanonicalProclusParamsBytes);
static_assert(sizeof(core::ClusterOptions) ==
              core::kCanonicalClusterOptionsBytes);
static_assert(sizeof(simt::DeviceProperties) ==
              core::kCanonicalDevicePropertiesBytes);
static_assert(sizeof(core::ParamSetting) ==
              core::kCanonicalParamSettingBytes);
static_assert(sizeof(core::SweepSpec) == core::kCanonicalSweepSpecBytes);
#endif

struct Shape {
  uint64_t dataset_hash = 0x1234abcd5678ef00ull;
  JobKind kind = JobKind::kSingle;
  core::ProclusParams params;
  core::ClusterOptions options;
  core::SweepSpec sweep;
};

ResultCacheKey KeyOf(const Shape& shape) {
  return ResultCache::MakeKey(shape.dataset_hash, shape.kind, shape.params,
                              shape.options, shape.sweep);
}

// A randomized but valid-ish request shape; only key equality matters here,
// not whether the parameters would cluster well.
Shape RandomShape(Rng* rng) {
  Shape s;
  s.dataset_hash = rng->NextU64();
  s.kind = rng->UniformInt(2) == 0 ? JobKind::kSingle : JobKind::kSweep;
  s.params.k = 2 + static_cast<int>(rng->UniformInt(30));
  s.params.l = 2 + static_cast<int>(rng->UniformInt(20));
  s.params.a = 1.0 + rng->NextDouble() * 40.0;
  s.params.b = 1.0 + rng->NextDouble() * 10.0;
  s.params.min_dev = rng->NextDouble();
  s.params.itr_pat = 1 + static_cast<int>(rng->UniformInt(10));
  s.params.seed = rng->NextU64();
  s.params.max_total_iterations = 1 + static_cast<int>(rng->UniformInt(100));
  const int backend = static_cast<int>(rng->UniformInt(3));
  s.options.backend = backend == 0   ? core::ComputeBackend::kCpu
                      : backend == 1 ? core::ComputeBackend::kMultiCore
                                     : core::ComputeBackend::kGpu;
  const int strategy = static_cast<int>(rng->UniformInt(3));
  s.options.strategy = strategy == 0   ? core::Strategy::kBaseline
                       : strategy == 1 ? core::Strategy::kFast
                                       : core::Strategy::kFastStar;
  s.options.num_threads = static_cast<int>(rng->UniformInt(16));
  s.options.gpu_assign_block_dim = 32 << rng->UniformInt(4);
  s.options.gpu_streams = rng->UniformInt(2) == 1;
  s.options.gpu_device_dim_selection = rng->UniformInt(2) == 1;
  s.options.gpu_sanitize = rng->UniformInt(2) == 1;
  // At least two settings with distinct k, so the order perturbation (a
  // rotation) always observably changes the sequence.
  const int n_settings = 2 + static_cast<int>(rng->UniformInt(3));
  s.sweep.settings.clear();
  for (int i = 0; i < n_settings; ++i) {
    s.sweep.settings.push_back({2 + i,
                                2 + static_cast<int>(rng->UniformInt(10))});
  }
  s.sweep.reuse = static_cast<core::ReuseLevel>(rng->UniformInt(4));
  s.sweep.max_shards = static_cast<int>(rng->UniformInt(4));
  return s;
}

// One named single-field perturbation of a Shape.
struct Perturbation {
  const char* name;
  std::function<void(Shape*)> apply;
  // Sweep-only fields cannot change a kSingle key (MakeKey folds the sweep
  // in only for kSweep).
  bool sweep_only = false;
};

std::vector<Perturbation> AllPerturbations() {
  std::vector<Perturbation> all;
  auto add = [&](const char* name, std::function<void(Shape*)> apply,
                 bool sweep_only = false) {
    all.push_back({name, std::move(apply), sweep_only});
  };
  add("dataset_hash", [](Shape* s) { s->dataset_hash ^= 1; });
  add("kind", [](Shape* s) {
    s->kind = s->kind == JobKind::kSingle ? JobKind::kSweep
                                          : JobKind::kSingle;
  });
  add("params.k", [](Shape* s) { s->params.k += 1; });
  add("params.l", [](Shape* s) { s->params.l += 1; });
  add("params.a", [](Shape* s) { s->params.a += 0.5; });
  add("params.b", [](Shape* s) { s->params.b += 0.5; });
  add("params.min_dev", [](Shape* s) { s->params.min_dev += 0.015625; });
  add("params.itr_pat", [](Shape* s) { s->params.itr_pat += 1; });
  add("params.seed", [](Shape* s) { s->params.seed += 1; });
  add("params.max_total_iterations",
      [](Shape* s) { s->params.max_total_iterations += 1; });
  add("options.backend", [](Shape* s) {
    s->options.backend = s->options.backend == core::ComputeBackend::kCpu
                             ? core::ComputeBackend::kGpu
                             : core::ComputeBackend::kCpu;
  });
  add("options.strategy", [](Shape* s) {
    s->options.strategy = s->options.strategy == core::Strategy::kFast
                              ? core::Strategy::kBaseline
                              : core::Strategy::kFast;
  });
  add("options.num_threads", [](Shape* s) { s->options.num_threads += 1; });
  add("options.gpu_assign_block_dim",
      [](Shape* s) { s->options.gpu_assign_block_dim *= 2; });
  add("options.gpu_streams",
      [](Shape* s) { s->options.gpu_streams = !s->options.gpu_streams; });
  add("options.gpu_device_dim_selection", [](Shape* s) {
    s->options.gpu_device_dim_selection =
        !s->options.gpu_device_dim_selection;
  });
  add("options.gpu_sanitize", [](Shape* s) {
    s->options.gpu_sanitize = !s->options.gpu_sanitize;
  });
  add("device.name", [](Shape* s) {
    s->options.device_properties.name = "sim-other-device";
  });
  add("device.sm_count",
      [](Shape* s) { s->options.device_properties.sm_count += 1; });
  add("device.cores_per_sm",
      [](Shape* s) { s->options.device_properties.cores_per_sm += 1; });
  add("device.warp_size",
      [](Shape* s) { s->options.device_properties.warp_size *= 2; });
  add("device.max_threads_per_block", [](Shape* s) {
    s->options.device_properties.max_threads_per_block += 1;
  });
  add("device.max_warps_per_sm",
      [](Shape* s) { s->options.device_properties.max_warps_per_sm += 1; });
  add("device.max_blocks_per_sm",
      [](Shape* s) { s->options.device_properties.max_blocks_per_sm += 1; });
  add("device.clock_ghz",
      [](Shape* s) { s->options.device_properties.clock_ghz += 0.25; });
  add("device.mem_bandwidth_gbps", [](Shape* s) {
    s->options.device_properties.mem_bandwidth_gbps += 1.0;
  });
  add("device.pcie_bandwidth_gbps", [](Shape* s) {
    s->options.device_properties.pcie_bandwidth_gbps += 1.0;
  });
  add("device.kernel_launch_overhead_us", [](Shape* s) {
    s->options.device_properties.kernel_launch_overhead_us += 0.5;
  });
  add("device.atomic_cost_cycles", [](Shape* s) {
    s->options.device_properties.atomic_cost_cycles += 1.0;
  });
  add("device.global_memory_bytes", [](Shape* s) {
    s->options.device_properties.global_memory_bytes += 1024;
  });
  add(
      "sweep.reuse",
      [](Shape* s) {
        s->sweep.reuse = s->sweep.reuse == core::ReuseLevel::kNone
                             ? core::ReuseLevel::kWarmStart
                             : core::ReuseLevel::kNone;
      },
      /*sweep_only=*/true);
  add(
      "sweep.max_shards", [](Shape* s) { s->sweep.max_shards += 1; },
      /*sweep_only=*/true);
  add(
      "sweep.settings.k", [](Shape* s) { s->sweep.settings[0].k += 1; },
      /*sweep_only=*/true);
  add(
      "sweep.settings.l", [](Shape* s) { s->sweep.settings[0].l += 1; },
      /*sweep_only=*/true);
  add(
      "sweep.settings.count",
      [](Shape* s) { s->sweep.settings.push_back({7, 3}); },
      /*sweep_only=*/true);
  add(
      "sweep.settings.order",
      [](Shape* s) {
        s->sweep.settings.insert(s->sweep.settings.begin(),
                                 s->sweep.settings.back());
        s->sweep.settings.pop_back();
      },
      /*sweep_only=*/true);
  return all;
}

TEST(ResultCacheKeyTest, EqualRequestsProduceEqualKeys) {
  Rng rng(101);
  for (int round = 0; round < 50; ++round) {
    const Shape shape = RandomShape(&rng);
    Shape copy = shape;  // independent object, same values
    const ResultCacheKey a = KeyOf(shape);
    const ResultCacheKey b = KeyOf(copy);
    ASSERT_TRUE(a.valid());
    EXPECT_EQ(a.text, b.text);
    EXPECT_EQ(a.hash, b.hash);
    EXPECT_EQ(a.Hex(), b.Hex());
  }
}

TEST(ResultCacheKeyTest, EveryFieldPerturbationChangesTheKey) {
  Rng rng(202);
  const std::vector<Perturbation> perturbations = AllPerturbations();
  for (int round = 0; round < 25; ++round) {
    Shape base = RandomShape(&rng);
    const ResultCacheKey base_key = KeyOf(base);
    for (const Perturbation& p : perturbations) {
      Shape mutated = base;
      p.apply(&mutated);
      const ResultCacheKey mutated_key = KeyOf(mutated);
      if (p.sweep_only && base.kind == JobKind::kSingle) {
        // Sweep fields are not part of a single job's request.
        EXPECT_EQ(base_key.text, mutated_key.text) << p.name;
        continue;
      }
      EXPECT_NE(base_key.text, mutated_key.text)
          << "perturbing " << p.name << " did not change the key text";
      EXPECT_NE(base_key.hash, mutated_key.hash)
          << "perturbing " << p.name << " did not change the key hash";
    }
  }
}

TEST(ResultCacheKeyTest, SeedAloneSeparatesKeys) {
  // The one perturbation the issue calls out by name: two otherwise
  // identical requests with different clustering seeds must never share a
  // cache slot (the clusterings differ).
  Shape a;
  Shape b = a;
  b.params.seed = a.params.seed + 1;
  EXPECT_NE(KeyOf(a).text, KeyOf(b).text);
}

TEST(ResultCacheKeyTest, KindSeparatesSingleFromSweep) {
  // A kSweep with one setting is not the same request as a kSingle, even
  // when params/options agree: the sweep's response shape (setting_seconds)
  // and execution path differ.
  Shape single;
  single.kind = JobKind::kSingle;
  Shape sweep = single;
  sweep.kind = JobKind::kSweep;
  sweep.sweep.settings = {{single.params.k, single.params.l}};
  EXPECT_NE(KeyOf(single).text, KeyOf(sweep).text);
}

TEST(ResultCacheKeyTest, KeysAreDeterministicAcrossCallsAndOneLine) {
  Rng rng(303);
  for (int round = 0; round < 20; ++round) {
    const Shape shape = RandomShape(&rng);
    const ResultCacheKey key = KeyOf(shape);
    EXPECT_EQ(key.text.find('\n'), std::string::npos);
    EXPECT_EQ(key.hash, Fnv1a64(key.text));
    const std::string hex = key.Hex();
    ASSERT_EQ(hex.size(), 16u);
    for (const char c : hex) {
      EXPECT_TRUE(std::isxdigit(static_cast<unsigned char>(c)) &&
                  !std::isupper(static_cast<unsigned char>(c)))
          << hex;
    }
  }
}

TEST(ResultCacheKeyTest, GoldenKeyAndContentHashAreStable) {
  // Pinned values: cache keys name spill files and cross the wire, and the
  // content hash names dataset spill files, so neither may drift.
  EXPECT_EQ(KeyOf(Shape()).Hex(), "8f43b7275fff8780");
  data::Matrix m(2, 3);
  const float values[6] = {1.0f, -2.5f, 0.0f, 3.0f, 0.25f, 100.0f};
  for (int i = 0; i < 6; ++i) m(i / 3, i % 3) = values[i];
  EXPECT_EQ(store::DatasetStore::ContentHash(m), 0x441660d560e68db7ull);
}

TEST(ResultCacheKeyTest, RandomShapesRarelyCollideInText) {
  // 500 random shapes: all canonical texts pairwise distinct (the text is
  // the cache identity; the 64-bit hash only names the spill file).
  Rng rng(404);
  std::vector<std::string> texts;
  for (int i = 0; i < 500; ++i) {
    texts.push_back(KeyOf(RandomShape(&rng)).text);
  }
  std::sort(texts.begin(), texts.end());
  EXPECT_EQ(std::adjacent_find(texts.begin(), texts.end()), texts.end());
}

}  // namespace
}  // namespace proclus::service
