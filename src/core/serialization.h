#ifndef PROCLUS_CORE_SERIALIZATION_H_
#define PROCLUS_CORE_SERIALIZATION_H_

#include <string>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "core/result.h"

namespace proclus::core {

// The one encoding of a ProclusResult (medoids, dimensions, assignment,
// costs; run statistics are not persisted), shared by the wire protocol,
// the result cache's `.pcr` spill files and the file helpers below:
//
//   {"medoids":[...], "dimensions":[[...], ...], "assignment":[...],
//    "iterative_cost":<double>, "refined_cost":<double>}
//
// Costs print with %.17g, so they round-trip bit-identically.
json::JsonValue EncodeProclusResult(const ProclusResult& result);

// Decodes `value` into `*result`. kInvalidArgument unless every field is
// present and well-typed, there is one dimension list per medoid, no
// cluster has an empty dimension list, and every assignment is a cluster
// index in [0, k) or kOutlier.
Status DecodeProclusResult(const json::JsonValue& value,
                           ProclusResult* result);

// The outcome of one job as the wire and the result cache's `.pcr` files
// carry it: sets "results" (one EncodeProclusResult per entry) and, when
// non-empty, "setting_seconds" on `object`.
void EncodeResultList(const std::vector<ProclusResult>& results,
                      const std::vector<double>& setting_seconds,
                      json::JsonValue* object);

// Reads the members EncodeResultList writes from `object`; an absent member
// decodes as an empty list. kInvalidArgument for a mistyped member or any
// result DecodeProclusResult rejects.
Status DecodeResultList(const json::JsonValue& object,
                        std::vector<ProclusResult>* results,
                        std::vector<double>* setting_seconds);

// Persist a clustering as a JSON file and reload it without re-running.
Status WriteResultToFile(const ProclusResult& result,
                         const std::string& path);
Status ReadResultFromFile(const std::string& path, ProclusResult* result);

}  // namespace proclus::core

#endif  // PROCLUS_CORE_SERIALIZATION_H_
