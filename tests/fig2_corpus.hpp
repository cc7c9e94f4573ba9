// The Fig. 2 query corpus: one program per aggregation shape of the paper's
// expressiveness table, plus COUNT/SUM alone and mixed with user folds in
// one GROUPBY. Every program's GROUPBY is named R1. The differential suites
// (VM vs interpreter, serial vs sharded, lazy wire vs eager parse, snapshot
// vs prefix) loop over this list, so together they span const-A, varying-A,
// h = 1 linear and non-linear kernels. The kvstore and federation suites
// fold the same programs' compiled kernels (compiled_kernel) directly.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "common/error.hpp"
#include "compiler/program.hpp"

namespace perfq {

struct Fig2Query {
  const char* name;
  const char* source;
  bool linear;  ///< Fig. 2's "Linear in state?" for the program's GROUPBY
};

inline constexpr Fig2Query kFig2Corpus[] = {
    {"counter", R"(
def counter (cnt, (pkt_len)):
    cnt = cnt + 1

R1 = SELECT 5tuple, counter GROUPBY 5tuple
)",
     true},
    {"bytecounter", R"(
def bytecounter ((cnt, bytes), (pkt_len)):
    cnt = cnt + 1
    bytes = bytes + pkt_len

R1 = SELECT 5tuple, bytecounter GROUPBY 5tuple
)",
     true},
    {"ewma", R"(
def ewma (lat_est, (tin, tout)):
    lat_est = (1 - alpha) * lat_est + alpha * (tout - tin)

R1 = SELECT 5tuple, ewma GROUPBY 5tuple
)",
     true},
    {"outofseq", R"(
def outofseq ((lastseq, oos_count), (tcpseq, payload_len)):
    if lastseq + 1 != tcpseq: oos_count = oos_count + 1
    lastseq = tcpseq + payload_len

R1 = SELECT 5tuple, outofseq GROUPBY 5tuple
)",
     true},
    {"nonmt", R"(
def nonmt ((maxseq, nm_count), (tcpseq)):
    if maxseq > tcpseq: nm_count = nm_count + 1
    maxseq = max(maxseq, tcpseq)

R1 = SELECT 5tuple, nonmt GROUPBY 5tuple
)",
     false},
    {"perc", R"(
def perc ((tot, high), qin):
    if qin > K: high = high + 1
    tot = tot + 1

R1 = SELECT qid, perc GROUPBY qid
)",
     true},
    {"sum_lat", R"(
def sum_lat (lat, (tin, tout)):
    lat = lat + (tout - tin)

R1 = SELECT 5tuple, sum_lat GROUPBY 5tuple
)",
     true},
    {"gear", R"(
def gear (acc, (pkt_len)):
    if pkt_len > 500:
        acc = 2 * acc
    else:
        acc = acc + 1

R1 = SELECT 5tuple, gear GROUPBY 5tuple
)",
     true},
    {"count_sum", R"(
R1 = SELECT 5tuple, COUNT, SUM(pkt_len) GROUPBY 5tuple
)",
     true},
    {"count_ewma", R"(
def ewma (lat_est, (tin, tout)):
    lat_est = (1 - alpha) * lat_est + alpha * (tout - tin)

R1 = SELECT 5tuple, COUNT, ewma GROUPBY 5tuple
)",
     true},
    {"count_outofseq", R"(
def outofseq ((lastseq, oos_count), (tcpseq, payload_len)):
    if lastseq + 1 != tcpseq: oos_count = oos_count + 1
    lastseq = tcpseq + payload_len

R1 = SELECT 5tuple, COUNT, outofseq GROUPBY 5tuple
)",
     true},
    {"sumlat_nonmt", R"(
def nonmt ((maxseq, nm_count), (tcpseq)):
    if maxseq > tcpseq: nm_count = nm_count + 1
    maxseq = max(maxseq, tcpseq)

R1 = SELECT 5tuple, SUM(tout - tin), nonmt GROUPBY 5tuple
)",
     false},
    {"sum_upstream", R"(
S = SELECT 5tuple, pkt_len FROM T WHERE pkt_len > 200
R1 = SELECT 5tuple, COUNT, SUM(pkt_len) FROM S GROUPBY 5tuple
)",
     true},
};

/// Free constants the corpus's folds reference.
inline const std::map<std::string, double> kFig2Params = {{"alpha", 0.125},
                                                          {"K", 50}};

/// The source of the corpus program `name`.
inline const char* fig2_source(std::string_view name) {
  for (const Fig2Query& q : kFig2Corpus) {
    if (q.name == name) return q.source;
  }
  throw InternalError{"no Fig. 2 corpus program named " + std::string{name}};
}

/// The fold kernel the compiler emits for `source`'s first on-switch GROUPBY.
inline std::shared_ptr<const compiler::CompiledFoldKernel> compiled_kernel(
    std::string_view source,
    const std::map<std::string, double>& params = kFig2Params) {
  return compiler::compile_source(source, params).switch_plans.at(0).kernel;
}

}  // namespace perfq
