// Sink tests: the Chrome trace-event / Perfetto JSON exporter and the
// per-phase latency decomposition table.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "sim/engine.hpp"
#include "trace/perfetto.hpp"
#include "trace/phases.hpp"
#include "trace/trace.hpp"

namespace trace {
namespace {

// A deterministic stream with known span durations: two "call" spans of
// 2 ms and 4 ms on node 0, one 1 ms "frame.tx"-bracketed span on node 1,
// plus two instants.
void record_known_stream(sim::Engine& e, Recorder& rec) {
  struct Ctx {
    sim::Engine* e;
    Recorder* rec;
  };
  static Ctx ctx;
  ctx = {&e, &rec};
  auto script = [](Ctx* c) -> sim::Task<> {
    const TraceId t = c->rec->new_trace();
    SpanId s = c->rec->begin_span(0, "runtime", "call", t);
    co_await c->e->sleep(sim::msec(2));
    c->rec->end_span(0, s);
    s = c->rec->begin_span(0, "runtime", "call", t);
    co_await c->e->sleep(sim::msec(4));
    c->rec->end_span(0, s);
    s = c->rec->begin_span(1, "wire", "frame.hold", t);
    co_await c->e->sleep(sim::msec(1));
    c->rec->end_span(1, s);
    c->rec->instant(1, "wire", "frame.tx", t, 7, 100);
    c->rec->instant(0, "engine", "note", t);
  };
  e.spawn("script", script(&ctx));
  e.run();
}

TEST(Perfetto, ExportsCompleteEventsAndMetadata) {
  sim::Engine e;
  Recorder rec(e);
  record_known_stream(e, rec);

  std::ostringstream os;
  write_chrome_trace(rec, os);
  const std::string out = os.str();

  // Paired spans export as complete ("X") events with microsecond times.
  EXPECT_NE(out.find("\"ph\":\"X\""), std::string::npos);
  // Instants export as "i" events.
  EXPECT_NE(out.find("\"ph\":\"i\""), std::string::npos);
  // Process/thread naming metadata.
  EXPECT_NE(out.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(out.find("\"name\":\"call\""), std::string::npos);
  EXPECT_NE(out.find("\"name\":\"frame.tx\""), std::string::npos);
  // A 4 ms span is 4000 us.
  EXPECT_NE(out.find("\"dur\":4000"), std::string::npos);
  // The JSON-array flavor of the trace-event format.
  EXPECT_EQ(out.front(), '[');
  EXPECT_EQ(out.back(), '\n');
}

TEST(Perfetto, WritesFile) {
  sim::Engine e;
  Recorder rec(e);
  record_known_stream(e, rec);
  const std::string path = ::testing::TempDir() + "relynx_sinks_test.json";
  ASSERT_TRUE(write_chrome_trace_file(rec, path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("\"ph\":\"X\""), std::string::npos);
}

TEST(PhaseTable, AggregatesPairedSpansByLabel) {
  sim::Engine e;
  Recorder rec(e);
  record_known_stream(e, rec);

  PhaseTable table(rec);
  EXPECT_EQ(table.count("call"), 2u);
  EXPECT_DOUBLE_EQ(table.total_ms("call"), 6.0);
  EXPECT_DOUBLE_EQ(table.mean_ms("call"), 3.0);
  EXPECT_EQ(table.count("frame.hold"), 1u);
  EXPECT_DOUBLE_EQ(table.total_ms("frame.hold"), 1.0);
  // Instants contribute no phase rows.
  EXPECT_EQ(table.count("frame.tx"), 0u);
  ASSERT_EQ(table.rows().size(), 2u);
  EXPECT_EQ(table.rows()[0].label, "call");  // first-seen order
}

TEST(PhaseTable, FiltersByTraceId) {
  sim::Engine e;
  Recorder rec(e);
  struct Ctx {
    sim::Engine* e;
    Recorder* rec;
  };
  static Ctx ctx;
  ctx = {&e, &rec};
  auto script = [](Ctx* c) -> sim::Task<> {
    const TraceId t1 = c->rec->new_trace();
    const TraceId t2 = c->rec->new_trace();
    SpanId s = c->rec->begin_span(0, "runtime", "call", t1);
    co_await c->e->sleep(sim::msec(2));
    c->rec->end_span(0, s);
    s = c->rec->begin_span(0, "runtime", "call", t2);
    co_await c->e->sleep(sim::msec(8));
    c->rec->end_span(0, s);
  };
  e.spawn("script", script(&ctx));
  e.run();

  PhaseTable all(rec);
  EXPECT_EQ(all.count("call"), 2u);
  EXPECT_DOUBLE_EQ(all.total_ms("call"), 10.0);

  PhaseTable only_first(rec, 1);
  EXPECT_EQ(only_first.count("call"), 1u);
  EXPECT_DOUBLE_EQ(only_first.total_ms("call"), 2.0);
}

TEST(PhaseTable, EmptyRecorderYieldsNoRows) {
  sim::Engine e;
  Recorder rec(e);
  PhaseTable table(rec);
  EXPECT_TRUE(table.rows().empty());
  EXPECT_EQ(table.count("call"), 0u);
  EXPECT_DOUBLE_EQ(table.mean_ms("call"), 0.0);
}

}  // namespace
}  // namespace trace
