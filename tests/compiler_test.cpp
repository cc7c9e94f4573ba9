// Compiler lowering tests: scalar expressions, compiled fold kernels
// (differential vs plain C++ updates), key packing, plan construction.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "compiler/key_router.hpp"
#include "compiler/program.hpp"
#include "fig2_corpus.hpp"
#include "lang/parser.hpp"
#include "packet/wire.hpp"
#include "trace/flow_session.hpp"
#include "trace/simple.hpp"

namespace perfq::compiler {
namespace {

using lang::analyze_source;

TEST(ScalarExpr, EvaluatesFieldArithmetic) {
  const auto ast = lang::parse_expression("tout - tin > 500");
  const ScalarExpr e = ScalarExpr::compile(*ast, base_record_resolver());
  const auto fast =
      trace::RecordBuilder{}.times(Nanos{100}, Nanos{400}).build();
  const auto slow =
      trace::RecordBuilder{}.times(Nanos{100}, Nanos{900}).build();
  EXPECT_FALSE(e.eval_bool(RecordSource({&fast, 1})));
  EXPECT_TRUE(e.eval_bool(RecordSource({&slow, 1})));
}

TEST(ScalarExpr, InfinityComparesEqualForDrops) {
  const auto ast = lang::parse_expression("tout == infinity");
  const ScalarExpr e = ScalarExpr::compile(*ast, base_record_resolver());
  const auto dropped = trace::RecordBuilder{}.dropped_at(Nanos{5}).build();
  const auto fine = trace::RecordBuilder{}.times(Nanos{5}, Nanos{9}).build();
  EXPECT_TRUE(e.eval_bool(RecordSource({&dropped, 1})));
  EXPECT_FALSE(e.eval_bool(RecordSource({&fine, 1})));
}

TEST(ScalarExpr, PrevReferencesReadTheWindow) {
  const auto ast = lang::make_binary(lang::BinaryOp::kAdd,
                                     lang::make_name("prev$tcpseq"),
                                     lang::make_name("prev$payload_len"));
  const ScalarExpr e = ScalarExpr::compile(*ast, base_record_resolver());
  EXPECT_EQ(e.max_depth(), 1);
  const std::vector<PacketRecord> window{
      trace::RecordBuilder{}.seq(1000).len(154, 100).build(),
      trace::RecordBuilder{}.seq(1100).len(154, 100).build(),
  };
  EXPECT_DOUBLE_EQ(e.eval(RecordSource({window.data(), window.size()})), 1100.0);
}

TEST(ScalarExpr, UnknownNameFailsAtCompileTime) {
  const auto ast = lang::parse_expression("mystery + 1");
  EXPECT_THROW((void)ScalarExpr::compile(*ast, base_record_resolver()),
               QueryError);
}

TEST(ScalarExpr, RowSourceResolvesColumns) {
  const auto ast = lang::parse_expression("a / b");
  const Resolver resolver = [](const std::string& name) -> std::optional<Slot> {
    if (name == "a") return Slot{0, 0};
    if (name == "b") return Slot{0, 1};
    return std::nullopt;
  };
  const ScalarExpr e = ScalarExpr::compile(*ast, resolver);
  const std::vector<double> row{10.0, 4.0};
  EXPECT_DOUBLE_EQ(e.eval(RowSource({row.data(), row.size()})), 2.5);
}

// ------------------------------------------------- compiled fold kernels --

// Fig. 2's folds written as plain C++ over one record, from zeroed state:
// oracles independent of the compiler.

/// outofseq: state = (lastseq, oos_count).
void outofseq_update(kv::StateVector& s, const PacketRecord& rec) {
  const double seq = static_cast<double>(rec.pkt.tcp_seq);
  if (s[0] + 1.0 != seq) s[1] += 1.0;
  s[0] = seq + static_cast<double>(rec.pkt.payload_len);
}

/// perc with K = 100: state = (tot, high).
void perc_update(kv::StateVector& s, const PacketRecord& rec) {
  if (static_cast<double>(rec.qsize) > 100.0) s[1] += 1.0;
  s[0] += 1.0;
}

/// nonmt: state = (maxseq, nm_count).
void nonmt_update(kv::StateVector& s, const PacketRecord& rec) {
  const double seq = static_cast<double>(rec.pkt.tcp_seq);
  if (s[0] > seq) s[1] += 1.0;
  if (seq > s[0]) s[0] = seq;
}

/// Differential check: a compiled fold must agree with its oracle on every
/// record of a random workload.
void expect_matches_oracle(const kv::FoldKernel& compiled,
                           void (*oracle)(kv::StateVector&, const PacketRecord&),
                           std::span<const PacketRecord> records) {
  ASSERT_EQ(compiled.state_dims(), 2u) << "every oracle folds two variables";
  kv::StateVector sc = compiled.initial_state();
  kv::StateVector so(compiled.state_dims());
  for (const auto& rec : records) {
    compiled.update(sc, rec);
    oracle(so, rec);
    for (std::size_t d = 0; d < sc.dims(); ++d) {
      ASSERT_NEAR(sc[d], so[d], 1e-9 * std::max(1.0, std::abs(so[d])));
    }
  }
}

std::vector<PacketRecord> tcp_stream(std::uint64_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<PacketRecord> out;
  std::uint32_t seq = 5000;
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto payload = static_cast<std::uint32_t>(100 + rng.below(1000));
    trace::RecordBuilder b;
    b.flow_index(1).seq(seq).len(payload + 54, payload);
    b.times(Nanos{static_cast<std::int64_t>(i * 1000)},
            Nanos{static_cast<std::int64_t>(i * 1000 + 1 + rng.below(5000))});
    b.queue(3, static_cast<std::uint32_t>(rng.below(200)));
    if (rng.chance(0.1)) {
      seq += payload + 37;  // out-of-seq gap
    } else {
      seq += payload;
    }
    out.push_back(b.build());
  }
  return out;
}

TEST(FoldCompiler, CompiledOutOfSeqMatchesOracle) {
  const auto analysis = analyze_source(R"(
def outofseq ((lastseq, oos_count), (tcpseq, payload_len)):
    if lastseq + 1 != tcpseq: oos_count = oos_count + 1
    lastseq = tcpseq + payload_len

SELECT 5tuple, outofseq GROUPBY 5tuple
)");
  const CompiledFoldKernel compiled(analysis.folds[0], {});
  EXPECT_EQ(compiled.history_window(), 1u);
  EXPECT_TRUE(kv::is_linear(compiled.linearity()));
  expect_matches_oracle(compiled, outofseq_update, tcp_stream(300, 11));
}

TEST(FoldCompiler, CompiledPercMatchesOracle) {
  const auto analysis = analyze_source(R"(
def perc ((tot, high), qin):
    if qin > K: high = high + 1
    tot = tot + 1

SELECT qid, perc GROUPBY qid
)",
                                       {{"K", 100.0}});
  const CompiledFoldKernel compiled(analysis.folds[0], {});
  EXPECT_EQ(compiled.linearity(), kv::Linearity::kLinearConstA);
  expect_matches_oracle(compiled, perc_update, tcp_stream(300, 12));
}

TEST(FoldCompiler, CompiledNonMonotonicMatchesOracle) {
  const auto analysis = analyze_source(R"(
def nonmt ((maxseq, nm_count), (tcpseq)):
    if maxseq > tcpseq: nm_count = nm_count + 1
    maxseq = max(maxseq, tcpseq)

SELECT 5tuple, nonmt GROUPBY 5tuple
)");
  const CompiledFoldKernel compiled(analysis.folds[0], {});
  EXPECT_EQ(compiled.linearity(), kv::Linearity::kNotLinear);
  expect_matches_oracle(compiled, nonmt_update, tcp_stream(300, 13));
}

TEST(FoldCompiler, TransformSelfConsistencyOnCompiledFolds) {
  // Property sweep: compiled transform (A, B) must reproduce update() on
  // every record, including predicated-coefficient folds.
  const auto analysis = analyze_source(R"(
def gear (acc, (pkt_len)):
    if pkt_len > 500:
        acc = 2 * acc
    else:
        acc = acc + 1

SELECT 5tuple, gear GROUPBY 5tuple
)");
  const auto kernel = std::make_shared<CompiledFoldKernel>(analysis.folds[0],
                                                           std::map<std::string,
                                                                    const lang::Expr*>{});
  EXPECT_EQ(kernel->linearity(), kv::Linearity::kLinear);
  const auto records = tcp_stream(200, 17);
  Rng rng(5);
  for (const auto& rec : records) {
    kv::StateVector s(1);
    s[0] = static_cast<double>(rng.below(100));
    EXPECT_TRUE(kv::transform_matches_update(*kernel, s, {&rec, 1}));
  }
}

// ---------------------------------------------------- fold bytecode VM ----

TEST(FoldVm, BytecodeMatchesInterpreterBitForBitAcrossFig2Corpus) {
  // Property: for every corpus switch plan's kernel (COUNT and SUM included:
  // they are fold statements too) and every record of a randomized TCP
  // stream, the bytecode VM's update() must equal the AST-walking
  // interpreter's update() BIT FOR BIT (same IEEE ops in the same order;
  // exact double equality, not a tolerance).
  const auto records = tcp_stream(2000, 99);
  for (const Fig2Query& entry : kFig2Corpus) {
    SCOPED_TRACE(entry.name);
    const CompiledProgram program = compile_source(entry.source, kFig2Params);
    ASSERT_FALSE(program.switch_plans.empty());
    for (const SwitchQueryPlan& plan : program.switch_plans) {
      const CompiledFoldKernel& kernel = *plan.kernel;
      EXPECT_GT(kernel.body().vm().instruction_count(), 0u);
      kv::StateVector vm_state = kernel.initial_state();
      kv::StateVector interp_state = kernel.initial_state();
      for (const auto& rec : records) {
        kernel.update(vm_state, rec);
        kernel.update_interpreted(interp_state, rec);
        for (std::size_t d = 0; d < vm_state.dims(); ++d) {
          ASSERT_EQ(vm_state[d], interp_state[d])
              << "VM diverged from interpreter at dim " << d;
        }
      }
    }
  }
}

TEST(FoldVm, ExecutesRowsThroughGenericSource) {
  // The collection layer drives the same bytecode through a RowSource; the
  // VM and interpreter must agree there too (different load path).
  const Resolver resolver = [](const std::string& name) -> std::optional<Slot> {
    if (name == "x") return Slot{0, 0};
    if (name == "y") return Slot{0, 1};
    return std::nullopt;
  };
  const auto analysis = lang::analyze_source(R"(
def blend ((acc, n), (x, y)):
    acc = acc + x * y - acc / (n + 1)
    n = n + 1

SELECT 5tuple, blend GROUPBY 5tuple
)");
  const FoldBody body = FoldBody::compile(analysis.folds[0].def, resolver);
  std::vector<double> vm_state{0.0, 0.0};
  std::vector<double> interp_state{0.0, 0.0};
  Rng rng(17);
  for (int i = 0; i < 500; ++i) {
    const std::vector<double> row{static_cast<double>(rng.below(1000)),
                                  static_cast<double>(rng.below(1000))};
    const RowSource source({row.data(), row.size()});
    body.execute({vm_state.data(), vm_state.size()}, source);
    body.execute_interpreted({interp_state.data(), interp_state.size()}, source);
    ASSERT_EQ(vm_state[0], interp_state[0]);
    ASSERT_EQ(vm_state[1], interp_state[1]);
  }
}

// --------------------------------------------------------- program plans --

TEST(ProgramCompiler, PerFlowCountersPlan) {
  const CompiledProgram p =
      compile_source("SELECT COUNT, SUM(pkt_len) GROUPBY srcip, dstip");
  ASSERT_EQ(p.switch_plans.size(), 1u);
  const SwitchQueryPlan& plan = p.switch_plans[0];
  EXPECT_FALSE(plan.prefilter.has_value());
  EXPECT_EQ(plan.key.size(), 2u);
  EXPECT_EQ(plan.key_bytes(), 8);  // two 32-bit IPs
  EXPECT_EQ(plan.kernel->state_dims(), 2u);
  EXPECT_EQ(plan.linearity, kv::Linearity::kLinearConstA);
  EXPECT_EQ(plan.value_columns,
            (std::vector<std::string>{"COUNT", "SUM(pkt_len)"}));
}

TEST(ProgramCompiler, KeyPackUnpackRoundTrip) {
  const CompiledProgram p = compile_source("SELECT COUNT GROUPBY 5tuple");
  const SwitchQueryPlan& plan = p.switch_plans[0];
  EXPECT_EQ(plan.key_bytes(), 13);  // 104 bits, §4's figure

  const auto rec = trace::RecordBuilder{}.flow_index(77).build();
  const kv::Key key = extract_key(plan, rec);
  const std::vector<double> values = unpack_key(plan, key);
  ASSERT_EQ(values.size(), 5u);
  EXPECT_DOUBLE_EQ(values[0], static_cast<double>(rec.pkt.flow.src_ip));
  EXPECT_DOUBLE_EQ(values[1], static_cast<double>(rec.pkt.flow.dst_ip));
  EXPECT_DOUBLE_EQ(values[2], static_cast<double>(rec.pkt.flow.src_port));
  EXPECT_DOUBLE_EQ(values[3], static_cast<double>(rec.pkt.flow.dst_port));
  EXPECT_DOUBLE_EQ(values[4], static_cast<double>(rec.pkt.flow.proto));
}

TEST(ProgramCompiler, WherePushedIntoPrefilter) {
  const CompiledProgram p =
      compile_source("SELECT COUNT GROUPBY 5tuple WHERE proto == TCP");
  ASSERT_TRUE(p.switch_plans[0].prefilter.has_value());
  const auto tcp = trace::RecordBuilder{}.flow_index(1).build();
  auto udp_rec = trace::RecordBuilder{}.flow_index(2).build();
  udp_rec.pkt.flow.proto = static_cast<std::uint8_t>(IpProto::kUdp);
  EXPECT_TRUE(p.switch_plans[0].prefilter->eval_bool(RecordSource({&tcp, 1})));
  EXPECT_FALSE(p.switch_plans[0].prefilter->eval_bool(RecordSource({&udp_rec, 1})));
}

TEST(ProgramCompiler, SelectChainComposesIntoPlan) {
  // A SELECT renaming/filtering between T and the GROUPBY must fold into the
  // plan: filter conjunction + projected fold argument.
  const CompiledProgram p = compile_source(R"(
R0 = SELECT srcip, dstip, srcport, dstport, proto, pkt_len FROM T WHERE pkt_len > 100
R1 = SELECT COUNT, SUM(pkt_len) FROM R0 GROUPBY 5tuple WHERE proto == TCP
)");
  ASSERT_EQ(p.switch_plans.size(), 1u);
  const SwitchQueryPlan& plan = p.switch_plans[0];
  ASSERT_TRUE(plan.prefilter.has_value());
  auto small = trace::RecordBuilder{}.flow_index(1).len(64, 10).build();
  auto large = trace::RecordBuilder{}.flow_index(1).len(500, 446).build();
  EXPECT_FALSE(plan.prefilter->eval_bool(RecordSource({&small, 1})));
  EXPECT_TRUE(plan.prefilter->eval_bool(RecordSource({&large, 1})));
}

TEST(ProgramValue, CopiesShareTheAnalysisAndKernelsAndOwnTheirPlans) {
  const CompiledProgram original = compile_source(R"(
R1 = SELECT COUNT, SUM(pkt_len) GROUPBY 5tuple WHERE proto == TCP
R2 = SELECT COUNT GROUPBY srcip
)");
  ASSERT_EQ(original.switch_plans.size(), 2u);
  CompiledProgram copy = original;
  CompiledProgram assigned;
  assigned = copy;
  for (const CompiledProgram* p : {&copy, &assigned}) {
    EXPECT_EQ(p->analysis, original.analysis);
    ASSERT_EQ(p->switch_plans.size(), original.switch_plans.size());
    for (std::size_t i = 0; i < original.switch_plans.size(); ++i) {
      EXPECT_EQ(p->switch_plans[i].kernel, original.switch_plans[i].kernel);
      EXPECT_EQ(p->switch_plans[i].prefilter_ast,
                original.switch_plans[i].prefilter_ast);
    }
  }
  ASSERT_NE(original.switch_plans[0].prefilter_ast, nullptr);

  // A copy owns its plans: renaming one (as an attach does) leaves the
  // original's plan and the shared analysis as compiled.
  copy.switch_plans[0].name = "renamed";
  EXPECT_EQ(original.switch_plans[0].name, "R1");
  EXPECT_EQ(assigned.switch_plans[0].name, "R1");
  EXPECT_EQ(original.analysis->queries[0].def.result_name, "R1");
}

TEST(ProgramCompiler, MixedComputedKeyClearsFastPathEntirely) {
  // Regression: a plan mixing one plain-field key component with one
  // expression component must not be a plain key — reading fields for some
  // components would pack a key from the wrong values. Both the engine's
  // extraction and the threaded caller's routing key off this.
  const CompiledProgram mixed =
      compile_source("SELECT COUNT GROUPBY srcip, pkt_len / 256");
  ASSERT_EQ(mixed.switch_plans.size(), 1u);
  const SwitchQueryPlan& plan = mixed.switch_plans[0];
  ASSERT_EQ(plan.key.size(), 2u);
  EXPECT_FALSE(plan.key_layout.plain);
  EXPECT_FALSE(plan.key_layout.wire_direct);
  EXPECT_FALSE(plan.key[0].expr.as_slot_load().has_value() &&
               plan.key[1].expr.as_slot_load().has_value());

  // The all-plain twin keeps the field path.
  const CompiledProgram plain =
      compile_source("SELECT COUNT GROUPBY srcip, pkt_len");
  EXPECT_TRUE(plain.switch_plans[0].key_layout.plain);

  // And extraction matches the expression tree's values: srcip passed
  // through, pkt_len / 256 truncated to an 8-byte unsigned integer.
  const auto rec = trace::RecordBuilder{}.flow_index(3).len(1000, 946).build();
  const kv::Key key = extract_key(plan, rec);
  // The prehashed variant (the sharded worker's computed-key path) must
  // agree bit-for-bit while installing the supplied hash.
  const kv::Key pre = extract_key_prehashed(plan, rec, key.raw_hash());
  EXPECT_TRUE(pre == key);
  EXPECT_EQ(pre.raw_hash(), key.raw_hash());
  const auto values = unpack_key(plan, key);
  ASSERT_EQ(values.size(), 2u);
  EXPECT_DOUBLE_EQ(values[0], static_cast<double>(rec.pkt.flow.src_ip));
  EXPECT_DOUBLE_EQ(values[1],
                   std::floor(static_cast<double>(rec.pkt.pkt_len) / 256.0));
}

TEST(ProgramCompiler, ComputedKeyRejectedForSoftGroupBy) {
  // The collection layer resolves soft-GROUPBY keys by column name against
  // materialized tables; expression keys are only legal on-switch.
  EXPECT_THROW((void)compile_source(R"(
R1 = SELECT 5tuple, COUNT GROUPBY 5tuple
R2 = SELECT COUNT FROM R1 GROUPBY srcip / 256
)"),
               QueryError);
}

/// The key shapes the one packer must get right: wire-direct, plain but
/// not wire-direct (pkt_len adds the Ethernet header; pkt_uniq packs 8
/// bytes from a 2-byte wire field), and computed.
struct KeyShape {
  const char* source;
  std::vector<std::uint8_t> widths;
  bool plain;
  bool wire_direct;
};

const std::vector<KeyShape>& key_shapes() {
  static const std::vector<KeyShape> kShapes{
      {"SELECT COUNT GROUPBY 5tuple", {4, 4, 2, 2, 1}, true, true},
      {"SELECT COUNT GROUPBY srcip", {4}, true, true},
      {"SELECT COUNT GROUPBY pkt_len", {2}, true, false},
      {"SELECT COUNT GROUPBY srcip, pkt_len / 256", {4, 8}, false, false},
      {"SELECT pkt_uniq, COUNT GROUPBY pkt_uniq", {4, 4, 2, 2, 1, 8}, true,
       false}};
  return kShapes;
}

TEST(KeyLayout, MatchesPlanKey) {
  for (const KeyShape& shape : key_shapes()) {
    SCOPED_TRACE(shape.source);
    const CompiledProgram p = compile_source(shape.source);
    const SwitchQueryPlan& plan = p.switch_plans.at(0);
    const KeyLayout& layout = plan.key_layout;
    ASSERT_EQ(plan.key.size(), shape.widths.size());
    EXPECT_EQ(layout.plain, shape.plain);
    EXPECT_EQ(layout.wire_direct, shape.wire_direct);
    int total = 0;
    for (std::size_t i = 0; i < plan.key.size(); ++i) {
      EXPECT_EQ(layout.widths[i], shape.widths[i]) << i;
      total += shape.widths[i];
      if (!layout.plain) continue;
      const auto slot = plan.key[i].expr.as_slot_load();
      ASSERT_TRUE(slot.has_value()) << i;
      EXPECT_EQ(layout.fields[i], static_cast<FieldId>(slot->index)) << i;
      const WireFieldSlice want = wire_field_slice(layout.fields[i]);
      EXPECT_EQ(layout.slices[i].offset, want.offset) << i;
      EXPECT_EQ(layout.slices[i].width, want.width) << i;
      if (layout.wire_direct) EXPECT_EQ(want.width, layout.widths[i]) << i;
    }
    EXPECT_EQ(plan.key_bytes(), total);
  }
}

TEST(OnePacker, PrehashedRebuildMatchesExtractKeyBitForBit) {
  // The threaded executor routes by extract_key's raw hash on the caller
  // and rebuilds the key with extract_key_prehashed on the worker: the
  // rebuilt key must carry the same bytes and the same hashes, and the
  // hash must be the bytes' own. perfbench's KeyRouter adapter forwards to
  // extract_key, and has no router for a computed key.
  const auto expect_match = [](const SwitchQueryPlan& plan,
                               const PacketRecord& rec) {
    const kv::Key want = extract_key(plan, rec);
    EXPECT_EQ(want.raw_hash(), kv::Key(want.bytes()).raw_hash());
    const kv::Key got = extract_key_prehashed(plan, rec, want.raw_hash());
    EXPECT_TRUE(got == want);
    EXPECT_EQ(got.raw_hash(), want.raw_hash());
    EXPECT_EQ(got.hash(0x5eedcafe), want.hash(0x5eedcafe));
    const auto router = KeyRouter::make(plan);
    ASSERT_EQ(router.has_value(), plan.key_layout.plain);
    if (router.has_value()) EXPECT_EQ(router->raw_hash(rec), want.raw_hash());
  };
  for (const KeyShape& shape : key_shapes()) {
    SCOPED_TRACE(shape.source);
    const CompiledProgram p = compile_source(shape.source);
    for (std::uint32_t f = 0; f < 200; ++f) {
      const std::uint32_t len = 64 + 7 * f;
      const auto rec =
          trace::RecordBuilder{}.flow_index(f).len(len, len - 54).build();
      expect_match(p.switch_plans[0], rec);
    }
  }

  // pkt_uniq, the one 64-bit field, packs as its integer: ids a double
  // cannot tell apart still give distinct keys.
  const CompiledProgram uniq =
      compile_source("SELECT pkt_uniq, COUNT GROUPBY pkt_uniq");
  const SwitchQueryPlan& uniq_plan = uniq.switch_plans[0];
  constexpr std::uint64_t k53 = std::uint64_t{1} << 53;
  std::vector<kv::Key> keys;
  for (const std::uint64_t id : {k53, k53 + 1, ~std::uint64_t{0}}) {
    const auto rec = trace::RecordBuilder{}.flow_index(7).uniq(id).build();
    expect_match(uniq_plan, rec);
    keys.push_back(extract_key(uniq_plan, rec));
  }
  EXPECT_FALSE(keys[0] == keys[1]);
  EXPECT_FALSE(keys[1] == keys[2]);
}

TEST(OnePacker, NonFiniteComponentsPackLikeTheClamp) {
  // Values below 0 and NaN pack as 0, values past 2^64 saturate: a
  // computed key never reaches an undefined float-to-integer cast.
  EXPECT_EQ(key_component_value(std::nan("")), 0u);
  EXPECT_EQ(key_component_value(-std::numeric_limits<double>::infinity()), 0u);
  EXPECT_EQ(key_component_value(-1.5), 0u);
  EXPECT_EQ(key_component_value(0.0), 0u);
  EXPECT_EQ(key_component_value(42.9), 42u);
  EXPECT_EQ(key_component_value(std::numeric_limits<double>::infinity()),
            18446744073709549568ull);
}

TEST(KeyIdentity, EqualIdentityPacksBitIdenticalKeys) {
  const auto plan = [](const CompiledProgram& p) -> const SwitchQueryPlan& {
    return p.switch_plans.at(0);
  };
  const CompiledProgram five = compile_source("SELECT COUNT GROUPBY 5tuple");
  const CompiledProgram five_filtered = compile_source(
      "SELECT 5tuple, SUM(pkt_len) GROUPBY 5tuple WHERE proto == TCP");
  const CompiledProgram five_chain = compile_source(R"(
R0 = SELECT srcip, dstip, srcport, dstport, proto, pkt_len FROM T WHERE pkt_len > 100
R1 = SELECT COUNT FROM R0 GROUPBY 5tuple
)");
  const CompiledProgram len256 =
      compile_source("SELECT COUNT GROUPBY pkt_len / 256");
  const CompiledProgram len256_filtered = compile_source(
      "SELECT SUM(tin) GROUPBY pkt_len / 256 WHERE proto == UDP");
  const CompiledProgram len128 =
      compile_source("SELECT COUNT GROUPBY pkt_len / 128");
  const CompiledProgram src = compile_source("SELECT COUNT GROUPBY srcip");
  const CompiledProgram dst = compile_source("SELECT COUNT GROUPBY dstip");
  const CompiledProgram src_dst =
      compile_source("SELECT COUNT GROUPBY srcip, dstip");
  const CompiledProgram dst_src =
      compile_source("SELECT COUNT GROUPBY dstip, srcip");

  EXPECT_TRUE(same_key(plan(five), plan(five_filtered)));
  EXPECT_TRUE(same_key(plan(five), plan(five_chain)));
  EXPECT_TRUE(same_key(plan(len256), plan(len256_filtered)));
  EXPECT_FALSE(same_key(plan(src), plan(dst)));
  EXPECT_FALSE(same_key(plan(len256), plan(len128)));
  EXPECT_FALSE(same_key(plan(src_dst), plan(dst_src)));
  EXPECT_FALSE(same_key(plan(five), plan(src_dst)));

  // Equal identity packs equal bytes and hashes for every record, on the
  // eager record and on its lazy wire view alike.
  trace::TraceConfig config;
  config.seed = 5;
  config.duration = 10_s;
  config.num_flows = 100;
  config.mean_flow_pkts = 10.0;
  const std::vector<PacketRecord> records = trace::generate_all(config);
  ASSERT_GT(records.size(), 100u);
  const std::pair<const SwitchQueryPlan*, const SwitchQueryPlan*> equal[] = {
      {&plan(five), &plan(five_filtered)},
      {&plan(five), &plan(five_chain)},
      {&plan(len256), &plan(len256_filtered)}};
  for (const PacketRecord& rec : records) {
    const std::vector<std::byte> bytes = wire::serialize(rec.pkt);
    ASSERT_GT(wire::check_frame(bytes), 0u);
    const WireRecordView view{bytes, rec.qid, rec.tin, rec.tout, rec.qsize};
    for (const auto& [a, b] : equal) {
      const kv::Key want = extract_key(*a, rec);
      for (const kv::Key& got : {extract_key(*b, rec), extract_key(*a, view),
                                 extract_key(*b, view)}) {
        EXPECT_TRUE(got == want) << got.to_hex() << " vs " << want.to_hex();
        EXPECT_EQ(got.raw_hash(), want.raw_hash());
      }
    }
  }
}

TEST(ProgramCompiler, StreamSelectCompiles) {
  const CompiledProgram single = compile_source(
      "SELECT srcip, qid FROM T WHERE tout - tin > 1ms");
  EXPECT_TRUE(single.switch_plans.empty());
  ASSERT_EQ(single.stream_selects.size(), 1u);
  const CompiledStreamSelect& sink = single.stream_selects[0];
  EXPECT_EQ(sink.query_index, 0);
  ASSERT_TRUE(sink.filter.has_value());
  ASSERT_EQ(sink.projections.size(), 2u);
  EXPECT_EQ(sink.projections[0].first, "srcip");

  // Only the SELECTs no query consumes stream: A feeds the GROUPBY and B
  // feeds C, so C and D stream, in program order, each composed down to T.
  const CompiledProgram p = compile_source(R"(
A = SELECT srcip, pkt_len FROM T WHERE pkt_len > 100
R1 = SELECT srcip, COUNT FROM A GROUPBY srcip
B = SELECT srcip, pkt_len FROM T WHERE pkt_len > 200
C = SELECT srcip FROM B WHERE pkt_len < 1000
D = SELECT dstip, tcpseq FROM T WHERE proto == TCP
)");
  ASSERT_EQ(p.switch_plans.size(), 1u);
  ASSERT_EQ(p.stream_selects.size(), 2u);
  const CompiledStreamSelect& c = p.stream_selects[0];
  const CompiledStreamSelect& d = p.stream_selects[1];
  EXPECT_EQ(c.query_index, p.analysis->query_index("C"));
  EXPECT_EQ(d.query_index, p.analysis->query_index("D"));
  ASSERT_EQ(c.projections.size(), 1u);
  EXPECT_EQ(c.projections[0].first, "srcip");
  ASSERT_EQ(d.projections.size(), 2u);
  EXPECT_EQ(d.projections[1].first, "tcpseq");

  // C's filter is B's WHERE and its own; D's is its own.
  ASSERT_TRUE(c.filter.has_value());
  ASSERT_TRUE(d.filter.has_value());
  PacketRecord rec;
  rec.pkt.flow.proto = 6;
  for (const auto [len, want] : {std::pair{150, false}, std::pair{500, true},
                                 std::pair{1500, false}}) {
    rec.pkt.pkt_len = static_cast<std::uint32_t>(len);
    EXPECT_EQ(c.filter->eval_bool(record_source(rec)), want) << len;
    EXPECT_TRUE(d.filter->eval_bool(record_source(rec))) << len;
  }
  rec.pkt.flow.proto = 17;
  EXPECT_FALSE(d.filter->eval_bool(record_source(rec)));

  // tcpseq is read by the stream D alone, and still joins the read set.
  EXPECT_FALSE(p.switch_plans[0].used_fields.test(FieldId::kTcpSeq));
  EXPECT_TRUE(p.field_usage.test(FieldId::kTcpSeq));
}

TEST(ProgramCompiler, SubstituteNamesHandlesPrev) {
  const auto binding = lang::parse_expression("tcpseq + 1");
  const std::map<std::string, const lang::Expr*> bindings{
      {"myseq", binding.get()}};
  // "prev$" names are internal (not lexable); build the expression directly.
  const auto expr = lang::make_binary(lang::BinaryOp::kAdd,
                                      lang::make_name("prev$myseq"),
                                      lang::make_name("myseq"));
  const auto out = substitute_names(*expr, bindings);
  EXPECT_EQ(lang::to_string(*out), "prev$tcpseq + 1 + (tcpseq + 1)");
}

}  // namespace
}  // namespace perfq::compiler
