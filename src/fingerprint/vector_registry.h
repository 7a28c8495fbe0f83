// Unified fingerprinting-vector registry.
//
// The one lookup surface for the vector catalogue: resolve a VectorId (or
// its display name) to the vector instance plus its capability flags, and
// iterate whichever slice you need (audio, extension, static).
#pragma once

#include <span>
#include <string_view>
#include <vector>

#include "fingerprint/vector.h"

namespace wafp::fingerprint {

/// What a vector can do / how it behaves — the queryable version of the
/// knowledge that used to live in call-site comments.
struct VectorCapabilities {
  bool audio = false;      // renders through the webaudio engine
  bool jittery = false;    // susceptible to render-timing perturbation
  bool extension = false;  // beyond the paper's study set (§5 future work)
  bool compute = false;    // WebAssembly-style float battery (no audio graph)

  /// Static vectors digest the profile alone (Canvas/Fonts/UA/MathJS).
  [[nodiscard]] bool is_static() const { return !audio && !compute; }
};

struct VectorEntry {
  VectorId id = VectorId::kDc;
  std::string_view name;  // to_string(id)
  VectorCapabilities caps;
  /// The renderable instance for audio vectors; nullptr for static ones.
  const AudioFingerprintVector* vector = nullptr;
};

class VectorRegistry {
 public:
  /// The process-wide catalogue (vectors are stateless singletons).
  [[nodiscard]] static const VectorRegistry& instance();

  /// Every known vector, in VectorId enum order.
  [[nodiscard]] std::span<const VectorEntry> all() const { return entries_; }

  /// The paper's seven Web Audio vectors, in table order (enum order).
  [[nodiscard]] std::span<const VectorId> audio_ids() const {
    return audio_ids_;
  }
  /// The post-paper extension vectors (Filter Sweep, Distortion).
  [[nodiscard]] std::span<const VectorId> extension_ids() const {
    return extension_ids_;
  }
  /// The four non-audio comparison vectors (Canvas/Fonts/UA/MathJS).
  [[nodiscard]] std::span<const VectorId> static_ids() const {
    return static_ids_;
  }
  /// The WebAssembly-style compute vectors (WASM Float, WASM SIMD).
  [[nodiscard]] std::span<const VectorId> compute_ids() const {
    return compute_ids_;
  }

  /// Entry for `id`; throws std::invalid_argument for an unknown id.
  [[nodiscard]] const VectorEntry& entry(VectorId id) const;

  /// Entry by display name ("FFT", "Canvas", ...); nullptr when unknown.
  [[nodiscard]] const VectorEntry* find(std::string_view name) const;

  /// Unified dispatch: render an audio vector (honoring `jitter`) or digest
  /// a static one (jitter ignored — static vectors cannot waver).
  [[nodiscard]] util::Digest run(VectorId id,
                                 const platform::PlatformProfile& profile,
                                 const webaudio::RenderJitter& jitter) const;

 private:
  VectorRegistry();

  std::vector<VectorEntry> entries_;  // indexed by VectorId
  std::vector<VectorId> audio_ids_;
  std::vector<VectorId> extension_ids_;
  std::vector<VectorId> static_ids_;
  std::vector<VectorId> compute_ids_;
};

}  // namespace wafp::fingerprint
