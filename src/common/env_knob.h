// Shared parse for boolean environment knobs (GENEALOG_ADAPTIVE_BATCH,
// GENEALOG_EPOCH_TRAVERSAL, GENEALOG_ASYNC_PROV_SINK,
// GENEALOG_WIRE_BLOCK_COMPRESS): unset, empty, or any non-zero value means
// enabled — an empty var passed through by a wrapper script keeps the
// default. One definition so the knobs can never drift apart.
#ifndef GENEALOG_COMMON_ENV_KNOB_H_
#define GENEALOG_COMMON_ENV_KNOB_H_

#include <cstdlib>

namespace genealog {

inline bool EnvKnobEnabled(const char* name) {
  const char* v = std::getenv(name);
  return v == nullptr || v[0] == '\0' || std::atoi(v) != 0;
}

// Opt-in variant for features that default *off* (GENEALOG_LINEAGE_STORE):
// enabled only when the variable is set to a non-zero value. Unset or empty
// keeps the feature disabled, so an idle knob costs nothing.
inline bool EnvKnobOptIn(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != '\0' && std::atoi(v) != 0;
}

}  // namespace genealog

#endif  // GENEALOG_COMMON_ENV_KNOB_H_
