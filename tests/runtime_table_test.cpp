// ResultTable behaviours: column resolution through aliases, sorting,
// rendering, and arity enforcement; then the canonical row order of
// materialize_switch_table on every kind of store it reads, and 64-bit key
// components kept exact, and NaN ones packed as 0, on every engine topology.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "kvstore/federated.hpp"
#include "kvstore/kvstore.hpp"
#include "runtime/collection.hpp"
#include "runtime/table.hpp"
#include "runtime_test_util.hpp"
#include "trace/simple.hpp"

namespace perfq::runtime {
namespace {

lang::Schema demo_schema() {
  lang::Schema s;
  lang::Column ip;
  ip.name = "srcip";
  ip.base_field = FieldId::kSrcIp;
  s.add(std::move(ip));
  lang::Column count;
  count.name = "COUNT";
  count.aliases.push_back("n");
  s.add(std::move(count));
  return s;
}

TEST(ResultTable, ColumnResolutionUsesAliases) {
  ResultTable t(demo_schema());
  EXPECT_EQ(t.column("COUNT"), 1u);
  EXPECT_EQ(t.column("n"), 1u) << "aliases resolve";
  EXPECT_THROW((void)t.column("missing"), QueryError);
}

TEST(ResultTable, RowArityEnforced) {
  ResultTable t(demo_schema());
  EXPECT_THROW(t.add_row({1.0}), Error);
  t.add_row({1.0, 2.0});
  EXPECT_EQ(t.row_count(), 1u);
  EXPECT_DOUBLE_EQ(t.at(0, "n"), 2.0);
}

TEST(ResultTable, SortDescending) {
  ResultTable t(demo_schema());
  t.add_row({1.0, 5.0});
  t.add_row({2.0, 9.0});
  t.add_row({3.0, 1.0});
  t.sort_desc("COUNT");
  EXPECT_DOUBLE_EQ(t.rows()[0][1], 9.0);
  EXPECT_DOUBLE_EQ(t.rows()[2][1], 1.0);
}

TEST(ResultTable, TextRenderingFormatsIpsAndLimits) {
  ResultTable t(demo_schema());
  t.add_row({static_cast<double>(ipv4_from_string("192.168.0.1")), 7.0});
  t.add_row({static_cast<double>(ipv4_from_string("10.0.0.9")), 3.5});
  const std::string text = t.to_text("demo", 1);
  EXPECT_NE(text.find("192.168.0.1"), std::string::npos)
      << "IP columns render dotted-quad";
  EXPECT_NE(text.find("(1 more rows)"), std::string::npos);
  EXPECT_EQ(text.find("10.0.0.9"), std::string::npos) << "limit respected";

  const std::string full = t.to_text("demo");
  EXPECT_NE(full.find("3.500"), std::string::npos)
      << "non-integral values keep decimals";
}

TEST(ResultTable, NonFiniteAndHugeCellsRender) {
  // Only cells in [-2^63, 2^63) render as integers: a cast of the others to
  // long long would be undefined. SUM(tout) over a dropped packet is inf.
  lang::Schema schema;
  lang::Column sum;
  sum.name = "SUM";
  schema.add(std::move(sum));
  ResultTable t(std::move(schema));
  for (const double v : {std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN(), 0x1p63,
                         -0x1p63}) {
    t.add_row({v});
  }
  const std::string text = t.to_text("cells");
  EXPECT_NE(text.find("| inf"), std::string::npos) << text;
  EXPECT_NE(text.find("-inf"), std::string::npos) << text;
  EXPECT_NE(text.find("nan"), std::string::npos) << text;
  EXPECT_NE(text.find("9223372036854775808.000"), std::string::npos) << text;
  EXPECT_NE(text.find("-9223372036854775808 "), std::string::npos) << text;
}

TEST(ResultTable, EmptyTableRenders) {
  const ResultTable t(demo_schema());
  const std::string text = t.to_text("empty");
  EXPECT_NE(text.find("srcip"), std::string::npos);
  EXPECT_EQ(t.row_count(), 0u);
}

// ------------------------------------------- materialized row order --

using Entries = std::vector<std::pair<kv::Key, kv::StateVector>>;
using Rows = std::vector<std::vector<double>>;

/// (key, value) of every entry `store` visits.
template <typename Store>
Entries entries_of(const Store& store) {
  Entries out;
  store.for_each([&](const kv::Key& key, const kv::StateVector& value,
                     bool /*valid*/) { out.emplace_back(key, value); });
  return out;
}

Entries entries_of(const std::vector<kv::ExportedEntry>& exported) {
  Entries out;
  for (const kv::ExportedEntry& e : exported) out.emplace_back(e.key, e.value);
  return out;
}

/// The reference order wherever key columns unpack exactly: unpack every
/// row, then sort the rows as vectors of doubles.
Rows unpack_and_sort(const compiler::SwitchQueryPlan& plan,
                     const Entries& entries) {
  Rows rows;
  for (const auto& [key, value] : entries) {
    std::vector<double> row = compiler::unpack_key(plan, key);
    for (std::size_t d = 0; d < value.dims(); ++d) row.push_back(value[d]);
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Rows equal bit for bit (NaN payloads and signed zeros included).
void expect_bitwise(const Rows& got, const Rows& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t r = 0; r < got.size(); ++r) {
    ASSERT_EQ(got[r].size(), want[r].size()) << "row " << r;
    for (std::size_t c = 0; c < got[r].size(); ++c) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got[r][c]),
                std::bit_cast<std::uint64_t>(want[r][c]))
          << "row " << r << " column " << c;
    }
  }
}

constexpr const char* kFlowSource = R"(
def ewma (lat_est, (tin, tout)):
    lat_est = (1 - alpha) * lat_est + alpha * (tout - tin)

R1 = SELECT 5tuple, COUNT, ewma GROUPBY 5tuple
)";

compiler::CompiledProgram flow_program() {
  return compiler::compile_source(kFlowSource, {{"alpha", 0.125}});
}

TEST(MaterializeOrder, FiveTupleRowsMatchUnpackAndSortOnEveryStore) {
  // A 5-tuple's components are at most 4 bytes and unpack exactly, so the
  // key-byte order must reproduce the old order bit for bit.
  const auto records = test_workload();
  const Nanos end = records.back().tin + 1_s;
  const compiler::CompiledProgram program = flow_program();
  const compiler::SwitchQueryPlan& plan = program.switch_plans.at(0);
  const kv::CacheGeometry geometry = kv::CacheGeometry::set_associative(256, 4);

  kv::KeyValueStore store(geometry, plan.kernel);
  for (const PacketRecord& rec : records) {
    store.process(compiler::extract_key(plan, rec), rec);
  }
  store.flush(end);
  ASSERT_GT(store.cache().stats().evictions, 0u);
  {
    SCOPED_TRACE("BackingStore");
    expect_bitwise(materialize_switch_table(program, plan, store.backing()).rows(),
                   unpack_and_sort(plan, entries_of(store.backing())));
  }

  // Two sources, each exporting the whole store: every key has two
  // contributions to reduce.
  kv::FederatedStore federated(plan.kernel);
  for (std::uint32_t source = 0; source < 2; ++source) {
    kv::StoreExport part{"R1", records.size(), end,
                         store.backing().export_entries()};
    federated.absorb(source, part);
  }
  {
    SCOPED_TRACE("FederatedStore");
    expect_bitwise(materialize_switch_table(program, plan, federated).rows(),
                   unpack_and_sort(plan, entries_of(federated)));
  }

  EngineConfig config;
  config.geometry = geometry;
  for (const Topology topology :
       {kSerial, Topology{"s2", 2}, Topology{"s4", 4}}) {
    SCOPED_TRACE(topology.name);
    auto engine = build_engine(flow_program(), topology, config);
    engine->process_batch(records);
    engine->finish(end);
    expect_bitwise(engine->table("R1").rows(),
                   unpack_and_sort(plan, entries_of(
                                             engine->export_store("R1", end).entries)));
  }
}

TEST(MaterializeOrder, WideKeyComponentsSortByExactKey) {
  // GROUPBY pkt_uniq keys on the 5-tuple and an 8-byte pkt_uniq. Ids
  // 2^53 and 2^53 + 1 unpack to the same double, so sorting unpacked rows
  // would order those two by their COUNT column. Rows must follow the
  // exact keys: the COUNT column then reads kCounts in id order.
  const compiler::CompiledProgram program =
      compiler::compile_source("SELECT pkt_uniq, COUNT GROUPBY pkt_uniq");
  const compiler::SwitchQueryPlan& plan = program.switch_plans.at(0);
  ASSERT_EQ(plan.key.size(), 6u);
  constexpr std::uint64_t k53 = std::uint64_t{1} << 53;
  const std::vector<std::uint64_t> ids{k53 - 1, k53, k53 + 1, k53 + 2};
  const std::vector<double> counts{4, 7, 2, 9};
  ASSERT_EQ(static_cast<double>(ids[1]), static_cast<double>(ids[2]));

  const auto& layout_widths = plan.key_layout.widths;
  const std::vector<std::uint8_t> widths(
      layout_widths.begin(),
      layout_widths.begin() + static_cast<std::ptrdiff_t>(plan.key.size()));
  const auto key_of = [&](std::uint64_t id) {
    const std::vector<std::uint64_t> values{0x0A000001, 0x0B000001, 1000, 80,
                                            6, id};
    return kv::Key::pack(values, widths);
  };

  // Absorbed in reverse id order, so insertion order is no help.
  kv::BackingStore backing(plan.kernel);
  kv::FederatedStore federated(plan.kernel);
  for (std::size_t i = ids.size(); i-- > 0;) {
    kv::EvictedValue ev;
    ev.key = key_of(ids[i]);
    ev.state = kv::StateVector(1, counts[i]);
    ev.packets = static_cast<std::uint64_t>(counts[i]);
    ev.state_after_h = kv::StateVector(1, 0.0);
    ev.final_flush = true;
    backing.absorb(ev);
    // One source per key.
    federated.absorb(static_cast<std::uint32_t>(i),
                     kv::StoreExport{"R1", ev.packets, Nanos{1},
                                     {kv::ExportedEntry{ev.key, ev.state, {},
                                                        ev.packets, true}}});
  }

  const auto count_column = [](const ResultTable& table) {
    std::vector<double> out;
    for (const auto& row : table.rows()) out.push_back(row.back());
    return out;
  };
  EXPECT_EQ(count_column(materialize_switch_table(program, plan, backing)),
            counts);
  EXPECT_EQ(count_column(materialize_switch_table(program, plan, federated)),
            counts);
}

TEST(WideKeyComponents, EveryTopologyKeepsIdsAbove2To53Distinct) {
  // Records of one 5-tuple with pkt_uniq ids a double cannot tell apart
  // (2^53 and 2^53 + 1) or hold (2^64 - 1): every topology must fold them
  // into three keys of one packet each.
  constexpr std::uint64_t k53 = std::uint64_t{1} << 53;
  std::vector<PacketRecord> records;
  for (const std::uint64_t id : {k53, k53 + 1, ~std::uint64_t{0}}) {
    records.push_back(trace::RecordBuilder{}.flow_index(3).uniq(id).build());
  }
  for (const Topology& topology : kTopologies) {
    SCOPED_TRACE(topology.name);
    auto engine = build_engine(
        compiler::compile_source("SELECT pkt_uniq, COUNT GROUPBY pkt_uniq"),
        topology);
    engine->process_batch(records);
    engine->finish(1_s);
    const ResultTable& table = engine->result();
    ASSERT_EQ(table.row_count(), 3u);
    for (const auto& row : table.rows()) {
      EXPECT_EQ(row[table.column("COUNT")], 1.0);
    }
  }
}

TEST(NanKeys, DeliveredAndDroppedFoldIntoOneRowKeyedZero) {
  // A dropped packet's tout is infinite, so (tout - tin) * 0 is NaN for it
  // and 0 for a delivered one. NaN packs as 0, like a value below 0, so
  // every topology folds both into one row keyed 0.
  std::vector<PacketRecord> records;
  for (std::uint32_t i = 0; i < 6; ++i) {
    trace::RecordBuilder b;
    b.flow_index(i);
    if (i % 2 == 0) {
      b.times(Nanos{1000 * (i + 1)}, Nanos{1000 * (i + 1) + 500});
    } else {
      b.dropped_at(Nanos{1000 * (i + 1)});
    }
    records.push_back(b.build());
  }
  for (const Topology& topology : kTopologies) {
    SCOPED_TRACE(topology.name);
    auto engine = build_engine(
        compiler::compile_source("SELECT COUNT GROUPBY (tout - tin) * 0"),
        topology);
    engine->process_batch(records);
    engine->finish(1_s);
    const ResultTable& table = engine->result();
    ASSERT_EQ(table.row_count(), 1u);
    EXPECT_EQ(table.rows()[0][0], 0.0);
    EXPECT_EQ(table.rows()[0][table.column("COUNT")], 6.0);
  }
}

}  // namespace
}  // namespace perfq::runtime
