#ifndef PROCLUS_CORE_CANONICAL_H_
#define PROCLUS_CORE_CANONICAL_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/api.h"
#include "core/multi_param.h"

namespace proclus::core {

// Canonical single-line text forms of the request-shaping structs, used by
// the serving layer's result cache (src/service/result_cache.h) to build
// content-addressed cache keys. Two requests that canonicalize identically
// are guaranteed to produce bit-identical clusterings on the same dataset:
// clustering is a pure function of (dataset, params, options) for every
// backend and strategy (core/api.h), so the canonical text plus the
// dataset's content hash fully addresses the result.
//
// Rules:
//   - Every *value* field is folded in, conservatively — including fields
//     like num_threads or the device model that provably do not change the
//     clustering. A spurious miss recomputes; a spurious hit serves a wrong
//     result, so the key only ever over-discriminates.
//   - Pointer fields (pool, device, cancel, trace) are execution
//     environment, not request content, and are excluded. A caller-provided
//     device must produce the identical result a fresh device would
//     (core/api.h contract), so excluding them is sound.
//   - The text is one line (no '\n').
//   - Doubles are printed with %.17g: round-trip exact, so distinct bit
//     patterns canonicalize distinctly.
//
// Field-coverage pins: canonical.cc static_asserts sizeof() of each folded
// struct against the constants below. Adding a member to ProclusParams,
// ClusterOptions, DeviceProperties, ParamSetting or SweepSpec breaks the
// build there until the new field is folded into the matching Append*
// function (or explicitly exempted) and the pin is bumped.
#if defined(__x86_64__) || defined(__aarch64__)
inline constexpr size_t kCanonicalProclusParamsBytes = 56;
inline constexpr size_t kCanonicalClusterOptionsBytes = 136;
inline constexpr size_t kCanonicalDevicePropertiesBytes = 80;
inline constexpr size_t kCanonicalParamSettingBytes = 8;
inline constexpr size_t kCanonicalSweepSpecBytes = 32;
#endif

// Appends "params k=10 l=5 ... seed=42 ..." — every ProclusParams field,
// seed included.
void AppendCanonicalParams(const ProclusParams& params, std::string* out);

// Appends "options backend=cpu strategy=fast ... device=sim-gtx1660ti/..."
// — every ClusterOptions value field plus the full device model.
void AppendCanonicalOptions(const ClusterOptions& options, std::string* out);

// Appends "sweep reuse=warm_start max_shards=0 settings=10:5,12:4,..." —
// the settings list in order (order is part of the request: results come
// back in input order).
void AppendCanonicalSweep(const SweepSpec& sweep, std::string* out);

}  // namespace proclus::core

#endif  // PROCLUS_CORE_CANONICAL_H_
