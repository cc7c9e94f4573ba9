// Semantic analysis tests: schemas, aggregation classification, join
// legality, and the linear-in-state analyzer reproducing Fig. 2's column.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "lang/sema.hpp"

namespace perfq::lang {
namespace {

using kv::Linearity;

// ------------------------------------------------------------- linearity --

AnalyzedProgram analyze_fold(const std::string& source,
                             const std::map<std::string, double>& params = {}) {
  return analyze_source(source, params);
}
#define LINEARITY_OF(prog) (prog).folds.at(0).linearity

TEST(Linearity, EwmaIsLinearConstA) {
  const auto prog = analyze_fold(R"(
def ewma (lat_est, (tin, tout)):
    lat_est = (1 - alpha) * lat_est + alpha * (tout - tin)

SELECT 5tuple, ewma GROUPBY 5tuple
)",
                              {{"alpha", 0.125}});
  const auto& r = LINEARITY_OF(prog);
  EXPECT_EQ(r.classification, Linearity::kLinearConstA);
  EXPECT_EQ(r.history_window, 0u);
  ASSERT_EQ(r.rows.size(), 1u);
  ASSERT_NE(r.rows[0].coeffs[0], nullptr);
  EXPECT_DOUBLE_EQ(r.rows[0].coeffs[0]->number, 0.875);
  EXPECT_EQ(to_string(*r.rows[0].constant), "(tout + -tin) * 0.125");
}

TEST(Linearity, SumLenIsLinearConstA) {
  const auto prog = analyze_fold(R"(
def sumlen (result, (pkt_len)): result = result + pkt_len

SELECT srcip, dstip, sumlen GROUPBY srcip, dstip
)");
  const auto& r = LINEARITY_OF(prog);
  EXPECT_EQ(r.classification, Linearity::kLinearConstA);
  EXPECT_EQ(r.history_window, 0u);
}

TEST(Linearity, OutOfSeqIsLinearWithHistoryOne) {
  // Fig. 2 classifies TCP out-of-sequence as linear in state; the analyzer
  // must discover that `lastseq` is a one-packet history variable.
  const auto prog = analyze_fold(R"(
def outofseq ((lastseq, oos_count), (tcpseq, payload_len)):
    if lastseq + 1 != tcpseq: oos_count = oos_count + 1
    lastseq = tcpseq + payload_len

SELECT 5tuple, outofseq GROUPBY 5tuple WHERE proto == TCP
)");
  const auto& r = LINEARITY_OF(prog);
  EXPECT_TRUE(r.linear()) << r.reason;
  EXPECT_EQ(r.history_window, 1u);
  EXPECT_EQ(r.classification, Linearity::kLinearConstA);  // A == I here
}

TEST(Linearity, NonMonotonicIsNotLinear) {
  // The single "No" row of Fig. 2.
  const auto prog = analyze_fold(R"(
def nonmt ((maxseq, nm_count), (tcpseq)):
    if maxseq > tcpseq: nm_count = nm_count + 1
    maxseq = max(maxseq, tcpseq)

SELECT 5tuple, nonmt GROUPBY 5tuple WHERE proto == TCP
)");
  const auto& r = LINEARITY_OF(prog);
  EXPECT_EQ(r.classification, Linearity::kNotLinear);
  EXPECT_FALSE(r.reason.empty());
}

TEST(Linearity, PercentileIsLinearConstA) {
  const auto prog = analyze_fold(R"(
def perc ((tot, high), qin):
    if qin > K: high = high + 1
    tot = tot + 1

SELECT qid, perc GROUPBY qid
)",
                              {{"K", 100.0}});
  const auto& r = LINEARITY_OF(prog);
  EXPECT_EQ(r.classification, Linearity::kLinearConstA);
  EXPECT_EQ(r.history_window, 0u);
}

TEST(Linearity, SumLatIsLinearConstA) {
  const auto prog = analyze_fold(R"(
def sum_lat (lat, (tin, tout)): lat = lat + tout - tin

SELECT pkt_uniq, sum_lat GROUPBY pkt_uniq
)");
  const auto& r = LINEARITY_OF(prog);
  EXPECT_EQ(r.classification, Linearity::kLinearConstA);
}

TEST(Linearity, PacketScaledStateIsLinearNotConstA) {
  // A depends on the packet => merge needs the running product, not A^N.
  const auto prog = analyze_fold(R"(
def weird (acc, (pkt_len)):
    acc = pkt_len * acc + 1

SELECT 5tuple, weird GROUPBY 5tuple
)");
  const auto& r = LINEARITY_OF(prog);
  EXPECT_EQ(r.classification, Linearity::kLinear);
}

TEST(Linearity, StateTimesStateIsNotLinear) {
  const auto prog = analyze_fold(R"(
def sq ((a, b), (pkt_len)):
    a = a * b + pkt_len

SELECT 5tuple, sq GROUPBY 5tuple
)");
  const auto& r = LINEARITY_OF(prog);
  EXPECT_EQ(r.classification, Linearity::kNotLinear);
  EXPECT_NE(r.reason.find("product"), std::string::npos);
}

TEST(Linearity, DivisionByStateIsNotLinear) {
  const auto prog = analyze_fold(R"(
def ratio (a, (pkt_len)):
    a = pkt_len / a

SELECT 5tuple, ratio GROUPBY 5tuple
)");
  const auto& r = LINEARITY_OF(prog);
  EXPECT_EQ(r.classification, Linearity::kNotLinear);
}

TEST(Linearity, PacketPurePredicateKeepsLinearity) {
  const auto prog = analyze_fold(R"(
def sel (acc, (pkt_len, qsize)):
    if pkt_len > 1000 and qsize > 10:
        acc = acc + pkt_len
    else:
        acc = acc + 1

SELECT 5tuple, sel GROUPBY 5tuple
)");
  const auto& r = LINEARITY_OF(prog);
  EXPECT_EQ(r.classification, Linearity::kLinearConstA);
}

TEST(Linearity, BranchAssigningDifferentCoefficientsStaysLinear) {
  const auto prog = analyze_fold(R"(
def gear (acc, (pkt_len)):
    if pkt_len > 500:
        acc = 2 * acc
    else:
        acc = acc + 1

SELECT 5tuple, gear GROUPBY 5tuple
)");
  const auto& r = LINEARITY_OF(prog);
  // Coefficient is __select(pkt_len > 500, 2, 1): packet-dependent A.
  EXPECT_EQ(r.classification, Linearity::kLinear);
  EXPECT_EQ(r.history_window, 0u);
}

TEST(Linearity, TwoPacketHistoryChainIsRejected) {
  // prev2 copies prev1 (a history var of order 1), so prev2 has order 2; the
  // analyzer supports h <= 1 and must fall back to not-linear, never to a
  // wrong merge.
  const auto prog = analyze_fold(R"(
def chain ((prev1, prev2, acc), (tcpseq)):
    if prev2 > tcpseq: acc = acc + 1
    prev2 = prev1
    prev1 = tcpseq

SELECT 5tuple, chain GROUPBY 5tuple
)");
  const auto& r = LINEARITY_OF(prog);
  EXPECT_EQ(r.classification, Linearity::kNotLinear);
}

// ----------------------------------------------------------------- sema ----

TEST(Sema, BaseSchemaHasAllPaperFields) {
  const Schema base = Schema::base();
  for (const char* name : {"srcip", "dstip", "srcport", "dstport", "proto",
                           "pkt_len", "tcpseq", "pkt_uniq", "pkt_path", "qid",
                           "tin", "tout", "qsize"}) {
    EXPECT_NE(base.find(name), nullptr) << name;
  }
  EXPECT_NE(base.find("qin"), nullptr) << "Fig. 2 uses qin for queue size";
}

TEST(Sema, GroupByProducesKeyedSchema) {
  const auto p = analyze_source("SELECT COUNT, SUM(pkt_len) GROUPBY srcip, dstip");
  const AnalyzedQuery& q = p.queries.at(0);
  EXPECT_TRUE(q.on_switch);
  ASSERT_EQ(q.key_columns.size(), 2u);
  EXPECT_EQ(q.output.key, q.key_columns);
  EXPECT_NE(q.output.find("COUNT"), nullptr);
  EXPECT_NE(q.output.find("SUM(pkt_len)"), nullptr);
  // COUNT and SUM lower to one fold, one state dim each.
  EXPECT_EQ(q.value_columns,
            (std::vector<std::string>{"COUNT", "SUM(pkt_len)"}));
  EXPECT_EQ(to_string(q.fold.def), "def COUNT, SUM(pkt_len) ((#0, #1), ()):\n"
                                   "    #0 = #0 + 1\n"
                                   "    #1 = #1 + pkt_len\n");
  EXPECT_EQ(q.fold.linearity.classification, Linearity::kLinearConstA);
}

TEST(Sema, GroupByFoldRenamesUserStateApartFromColumns) {
  // A user fold's state may share a name with a field; renamed to #i, it
  // cannot capture the field a SUM beside it reads.
  const auto p = analyze_source(R"(
def f (pkt_len, (tin)):
    pkt_len = pkt_len + 1

SELECT 5tuple, f, SUM(pkt_len) GROUPBY 5tuple
)");
  const AnalyzedQuery& q = p.queries.at(0);
  EXPECT_EQ(q.value_columns,
            (std::vector<std::string>{"pkt_len", "SUM(pkt_len)"}));
  EXPECT_EQ(to_string(q.fold.def), "def f, SUM(pkt_len) ((#0, #1), ()):\n"
                                   "    #0 = #0 + 1\n"
                                   "    #1 = #1 + pkt_len\n");
}

TEST(Sema, OnSwitchGroupByStateWidthIsLimited) {
  // Nine values per key: one past kMaxStateDims.
  const char* source =
      "SELECT srcip, COUNT, SUM(pkt_len), SUM(tin), SUM(tout), SUM(qsize), "
      "SUM(tcpseq), SUM(dstport), SUM(srcport), SUM(payload_len) "
      "GROUPBY srcip";
  try {
    (void)analyze_source(source);
    FAIL() << "nine values per key must not compile on the switch";
  } catch (const QueryError& e) {
    EXPECT_EQ(e.line(), 1);
    EXPECT_NE(std::string{e.what()}.find("keeps 9 values per key"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string{e.what()}.find("at most 8"), std::string::npos)
        << e.what();
  }
}

TEST(Sema, OnSwitchGroupByKeyWidthIsLimited) {
  // 13 + 8 + 4 + 4 + 4 = 33 bytes: one past kv::Key's 32-byte capacity.
  const char* source =
      "SELECT 5tuple, pkt_uniq, pkt_path, tcpseq, qid, COUNT "
      "GROUPBY 5tuple, pkt_uniq, pkt_path, tcpseq, qid";
  try {
    (void)analyze_source(source);
    FAIL() << "a 33-byte key must not compile on the switch";
  } catch (const QueryError& e) {
    EXPECT_EQ(e.line(), 1);
    EXPECT_NE(std::string{e.what()}.find("key packs 33 bytes"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string{e.what()}.find("at most 32 bytes"),
              std::string::npos)
        << e.what();
  }
  // Exactly 32 bytes (qsize packs 3) fits.
  EXPECT_NO_THROW((void)analyze_source(
      "SELECT COUNT GROUPBY 5tuple, pkt_uniq, pkt_path, tcpseq, qsize"));
}

TEST(Sema, CollectionLayerFoldMustFindItsColumns) {
  // Over a table a fold reads columns by name: R1 has no tin or tout.
  const char* source = R"(def ewma (lat_est, (tin, tout)):
    lat_est = (1 - alpha) * lat_est + alpha * (tout - tin)

R1 = SELECT 5tuple, ewma GROUPBY 5tuple
R2 = SELECT srcip, COUNT, ewma FROM R1 GROUPBY srcip
)";
  try {
    (void)analyze_source(source, {{"alpha", 0.125}});
    FAIL() << "R2's ewma reads columns R1 does not have";
  } catch (const QueryError& e) {
    EXPECT_EQ(e.line(), 5);
    EXPECT_NE(std::string{e.what()}.find("fold 'ewma' reads 'tin'"),
              std::string::npos)
        << e.what();
  }
}

TEST(Sema, FiveTupleExpandsToFiveKeyColumns) {
  const auto p = analyze_source("SELECT COUNT GROUPBY 5tuple");
  EXPECT_EQ(p.queries.at(0).key_columns.size(), 5u);
}

TEST(Sema, FoldColumnsNamedByStateVarsWithAliases) {
  const auto p = analyze_source(R"(
def perc ((tot, high), qin):
    if qin > K: high = high + 1
    tot = tot + 1

R1 = SELECT qid, perc GROUPBY qid
R2 = SELECT * FROM R1 WHERE perc.high / perc.tot > 0.01
)",
                                {{"K", 100.0}});
  const Schema& r1 = p.queries.at(0).output;
  EXPECT_NE(r1.find("tot"), nullptr);
  EXPECT_NE(r1.find("perc.high"), nullptr) << "dotted alias must resolve";
  // R2's WHERE referenced the dotted names: analysis must have accepted it.
  EXPECT_EQ(p.queries.at(1).projections.size(), r1.size());
}

TEST(Sema, DownstreamQueryReadsUpstreamColumns) {
  const auto p = analyze_source(R"(
def sum_lat (lat, (tin, tout)): lat = lat + tout - tin

R1 = SELECT pkt_uniq, sum_lat GROUPBY pkt_uniq
R2 = SELECT 5tuple FROM R1 GROUPBY 5tuple WHERE lat > 10ms
)");
  const AnalyzedQuery& r2 = p.queries.at(1);
  EXPECT_EQ(r2.input, 0);
  EXPECT_FALSE(r2.on_switch) << "aggregating an aggregate runs off-switch";
  EXPECT_EQ(r2.key_columns.size(), 5u);
}

TEST(Sema, JoinRequiresKeysOfBothSides) {
  const auto p = analyze_source(R"(
R1 = SELECT COUNT GROUPBY 5tuple
R2 = SELECT COUNT GROUPBY 5tuple WHERE tout == infinity
R3 = SELECT R2.COUNT / R1.COUNT FROM R1 JOIN R2 ON 5tuple
)");
  const AnalyzedQuery& r3 = p.queries.at(2);
  EXPECT_EQ(r3.def.kind, QueryDef::Kind::kJoin);
  EXPECT_EQ(r3.key_columns.size(), 5u);
  EXPECT_NE(r3.output.find("R2.COUNT / R1.COUNT"), nullptr);
}

TEST(Sema, JoinOnMismatchedKeysRejected) {
  EXPECT_THROW((void)analyze_source(R"(
R1 = SELECT COUNT GROUPBY 5tuple
R2 = SELECT COUNT GROUPBY srcip
R3 = SELECT R1.COUNT FROM R1 JOIN R2 ON srcip
)"),
               QueryError);
}

TEST(Sema, JoinOverRawTableRejected) {
  // §2: T JOIN T ON pkt_5tuple is inherently expensive and excluded.
  EXPECT_THROW((void)analyze_source(R"(
R1 = SELECT R1.COUNT FROM T JOIN T ON 5tuple
)"),
               QueryError);
}

TEST(Sema, UnknownColumnRejected) {
  EXPECT_THROW((void)analyze_source("SELECT nonexistent FROM T"), QueryError);
}

TEST(Sema, UnknownTableRejected) {
  EXPECT_THROW((void)analyze_source("SELECT srcip FROM Nope"), QueryError);
}

TEST(Sema, MissingConstantRejected) {
  EXPECT_THROW((void)analyze_source(R"(
def ewma (lat_est, (tin, tout)):
    lat_est = (1 - alpha) * lat_est + alpha * (tout - tin)

SELECT 5tuple, ewma GROUPBY 5tuple
)"),
               QueryError);  // alpha not provided
}

TEST(Sema, AssignToNonStateVarRejected) {
  EXPECT_THROW((void)analyze_source(R"(
def bad (acc, (pkt_len)):
    pkt_len = acc

SELECT 5tuple, bad GROUPBY 5tuple
)"),
               QueryError);
}

TEST(Sema, KeyOnlyGroupByGetsImplicitCount) {
  const auto p = analyze_source("SELECT srcip GROUPBY srcip");
  const AnalyzedQuery& q = p.queries.at(0);
  EXPECT_EQ(q.value_columns, std::vector<std::string>{"COUNT"});
  EXPECT_EQ(to_string(q.fold.def), "def COUNT (#0, ()):\n"
                                   "    #0 = #0 + 1\n");
}

TEST(Sema, WhereWithDroppedPacketsPredicate) {
  const auto p =
      analyze_source("SELECT COUNT GROUPBY 5tuple WHERE tout == infinity");
  ASSERT_NE(p.queries.at(0).def.where, nullptr);
}

TEST(Sema, SelectPreservesKeyWhenProjectionKeepsIt) {
  const auto p = analyze_source(R"(
R1 = SELECT COUNT GROUPBY srcip
R2 = SELECT srcip, COUNT FROM R1 WHERE COUNT > 5
R3 = SELECT R2.COUNT / R1.COUNT FROM R1 JOIN R2 ON srcip
)");
  EXPECT_EQ(p.queries.at(1).output.key, std::vector<std::string>{"srcip"});
}

TEST(Sema, DuplicateTableNameRejected) {
  EXPECT_THROW((void)analyze_source(R"(
R1 = SELECT COUNT GROUPBY srcip
R1 = SELECT COUNT GROUPBY dstip
)"),
               QueryError);
}

TEST(Sema, ComputedGroupByKeyOverStreamAccepted) {
  // An expression GROUPBY key over the packet stream becomes a computed key
  // column named by the expression's canonical rendering, with a fresh
  // 64-bit schema column; free constants fold into the key expression.
  const auto p = analyze_source("SELECT COUNT GROUPBY srcip, pkt_len / B",
                                {{"B", 256.0}});
  const AnalyzedQuery& q = p.queries.at(0);
  ASSERT_EQ(q.key_columns.size(), 2u);
  EXPECT_EQ(q.key_columns[0], "srcip");
  EXPECT_EQ(q.key_columns[1], "pkt_len / 256");
  ASSERT_EQ(q.computed_keys.size(), 1u);
  ASSERT_TRUE(q.computed_keys.count("pkt_len / 256") > 0);
  EXPECT_TRUE(q.on_switch);
  const Column* c = q.output.find("pkt_len / 256");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->bits, 64);
}

TEST(Sema, ComputedGroupByKeyOverAggregateRejected) {
  // Soft GROUPBYs resolve keys by column name against materialized tables.
  EXPECT_THROW((void)analyze_source(R"(
R1 = SELECT 5tuple, COUNT GROUPBY 5tuple
R2 = SELECT COUNT FROM R1 GROUPBY srcip / 256
)"),
               QueryError);
}

TEST(Sema, ComputedGroupByKeyWithUnknownColumnRejected) {
  EXPECT_THROW((void)analyze_source("SELECT COUNT GROUPBY mystery / 2"),
               QueryError);
}

}  // namespace
}  // namespace perfq::lang
