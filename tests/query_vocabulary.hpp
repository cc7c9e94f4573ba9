// The query language's own vocabulary, for token-soup fuzzing of everything
// that takes query text: the front end (lang_fuzz_test) and the line
// protocol that carries it (service_test).
#pragma once

#include <string>
#include <vector>

#include "common/rng.hpp"

namespace perfq {

inline const std::vector<std::string>& query_vocabulary() {
  static const std::vector<std::string> kVocab{
      "SELECT",  "FROM",    "WHERE",  "GROUPBY", "JOIN",   "ON",
      "def",     "if",      "else",   "and",     "or",     "not",
      "infinity", "5tuple", "srcip",  "dstip",   "tout",   "tin",
      "COUNT",   "SUM",     "R1",     "T",       "ewma",   "(",
      ")",       ",",       ":",      ".",       "=",      "==",
      "!=",      "<",       ">",      "+",       "-",      "*",
      "/",       "1",       "0.5",    "1ms",     "\n",     "    ",
  };
  return kVocab;
}

/// `tokens` random vocabulary tokens, each followed by a space.
inline std::string random_soup(Rng& rng, std::size_t tokens) {
  const auto& vocab = query_vocabulary();
  std::string out;
  for (std::size_t i = 0; i < tokens; ++i) {
    out += vocab[rng.below(vocab.size())];
    out += " ";
  }
  return out;
}

}  // namespace perfq
