// Config-driven construction of the built-in hash families: Simhash and
// DWTA, the two the paper's experiments hash with (§3.2, §5). Other
// families plug in through the HashFamily interface. Header-only.
#pragma once

#include <memory>

#include "lsh/dwta.h"
#include "lsh/simhash.h"

namespace slide {

enum class HashFamilyKind { kSimhash, kDwta };

inline const char* to_string(HashFamilyKind kind) {
  switch (kind) {
    case HashFamilyKind::kSimhash:
      return "simhash";
    case HashFamilyKind::kDwta:
      return "dwta";
  }
  return "?";
}

struct HashFamilyConfig {
  HashFamilyKind kind = HashFamilyKind::kSimhash;
  int k = 9;
  int l = 50;
  Index dim = 0;  // set by the layer to its fan-in
  /// Simhash: fraction of nonzero projection coordinates.
  double simhash_density = 1.0 / 3.0;
  /// DWTA bin size m.
  int bin_size = 8;
  std::uint64_t seed = 11;
};

inline std::unique_ptr<HashFamily> make_hash_family(
    const HashFamilyConfig& cfg) {
  switch (cfg.kind) {
    case HashFamilyKind::kSimhash: {
      Simhash::Config c;
      c.k = cfg.k;
      c.l = cfg.l;
      c.dim = cfg.dim;
      c.density = cfg.simhash_density;
      c.seed = cfg.seed;
      return std::make_unique<Simhash>(c);
    }
    case HashFamilyKind::kDwta: {
      DwtaHash::Config c;
      c.k = cfg.k;
      c.l = cfg.l;
      c.dim = cfg.dim;
      c.bin_size = cfg.bin_size;
      c.seed = cfg.seed;
      return std::make_unique<DwtaHash>(c);
    }
  }
  throw Error("make_hash_family: unknown kind");
}

}  // namespace slide
