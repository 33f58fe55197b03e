// Tests for the trace-span layer: spans must be dropped when tracing is
// off, recorded and exported as well-formed Chrome trace-event JSON when
// on (covering SpMSpV phases and BFS iterations), and the per-thread ring
// must overwrite the oldest events instead of growing. Well-formedness is
// checked with the DOM parser (obs/json_value.hpp), whose rejection of
// malformed input is pinned here too.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "bfs/tile_bfs.hpp"
#include "core/tile_spmspv.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/vector_gen.hpp"
#include "obs/json_value.hpp"
#include "obs/trace.hpp"

namespace tilespmspv {
namespace {

std::string export_trace() {
  std::ostringstream os;
  obs::trace_write_chrome_json(os);
  return os.str();
}

bool parses_as_json(const std::string& s) {
  obs::JsonValue v;
  return obs::json_parse_value(s, &v);
}

// The well-formedness checks below are only as strong as the parser's
// rejections: a whole value must be consumed, and truncation must fail.
TEST(ObsTraceJson, ParserRejectsTrailingGarbageAndTruncation) {
  EXPECT_TRUE(parses_as_json(R"({"traceEvents":[{"ph":"X"}]})"));
  EXPECT_FALSE(parses_as_json(R"({"traceEvents":[]} garbage)"));
  EXPECT_FALSE(parses_as_json(R"({"traceEvents":[]}})"));
  EXPECT_FALSE(parses_as_json(R"({"traceEvents":[{"ph":"X"})"));
  EXPECT_FALSE(parses_as_json(R"({"traceEvents":)"));
}

class ObsTraceTest : public ::testing::Test {
 protected:
  void TearDown() override {
    obs::trace_disable();
    obs::trace_clear();
  }
};

TEST_F(ObsTraceTest, DisabledByDefaultRecordsNothing) {
  ASSERT_FALSE(obs::trace_enabled());
  { obs::TraceSpan span("test/noop", "test"); }
  EXPECT_EQ(obs::trace_event_count(), 0u);
  const std::string json = export_trace();
  EXPECT_TRUE(parses_as_json(json)) << json;
  EXPECT_NE(json.find("traceEvents"), std::string::npos);
}

#ifndef TILESPMSPV_NO_COUNTERS

TEST_F(ObsTraceTest, RecordsKernelAndBfsSpans) {
  Csr<value_t> a =
      Csr<value_t>::from_coo(gen_erdos_renyi(600, 600, 0.02, 1801));
  obs::trace_enable();
  TileMatrix<value_t> tiled = TileMatrix<value_t>::from_csr(a, 16, 2);
  TileVector<value_t> xt =
      TileVector<value_t>::from_sparse(gen_sparse_vector(600, 0.05, 1), 16);
  (void)tile_spmspv(tiled, xt);
  TileBfs bfs(a);
  (void)bfs.run(0);
  obs::trace_disable();

  EXPECT_GT(obs::trace_event_count(), 0u);
  const std::string json = export_trace();
  EXPECT_TRUE(parses_as_json(json));
  EXPECT_NE(json.find("convert/tile_matrix"), std::string::npos);
  EXPECT_NE(json.find("spmspv/phase1_tiled"), std::string::npos);
  EXPECT_NE(json.find("spmspv/phase3_gather"), std::string::npos);
  EXPECT_NE(json.find("bfs/preprocess"), std::string::npos);
  EXPECT_NE(json.find("bfs/iteration"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("displayTimeUnit"), std::string::npos);
}

TEST_F(ObsTraceTest, EveryBfsIterationGetsASpan) {
  Csr<value_t> a =
      Csr<value_t>::from_coo(gen_erdos_renyi(800, 800, 0.01, 1802));
  TileBfs bfs(a);
  obs::trace_enable();
  const BfsResult r = bfs.run(0);
  obs::trace_disable();
  const std::string json = export_trace();
  std::size_t spans = 0;
  for (std::size_t p = json.find("bfs/iteration"); p != std::string::npos;
       p = json.find("bfs/iteration", p + 1)) {
    ++spans;
  }
  EXPECT_EQ(spans, r.iterations.size());
}

TEST_F(ObsTraceTest, RingOverwritesOldestEvents) {
  obs::trace_enable(/*events_per_thread=*/4);
  for (int i = 0; i < 10; ++i) {
    obs::TraceSpan span("test/ring", "test");
  }
  obs::trace_disable();
  // Single recording thread: at most 4 buffered events survive.
  EXPECT_EQ(obs::trace_event_count(), 4u);
  EXPECT_TRUE(parses_as_json(export_trace()));
}

TEST_F(ObsTraceTest, ClearDropsBufferedEvents) {
  obs::trace_enable();
  { obs::TraceSpan span("test/cleared", "test"); }
  ASSERT_GT(obs::trace_event_count(), 0u);
  obs::trace_clear();
  EXPECT_EQ(obs::trace_event_count(), 0u);
  EXPECT_EQ(export_trace().find("test/cleared"), std::string::npos);
}

TEST_F(ObsTraceTest, WritesLoadableFile) {
  const std::string path =
      ::testing::TempDir() + "tilespmspv_test_trace.json";
  obs::trace_enable();
  { obs::TraceSpan span("test/file", "test", "detail-string"); }
  obs::trace_disable();
  ASSERT_TRUE(obs::trace_write_chrome_json_file(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_TRUE(parses_as_json(buf.str()));
  EXPECT_NE(buf.str().find("test/file"), std::string::npos);
  EXPECT_NE(buf.str().find("detail-string"), std::string::npos);
  std::remove(path.c_str());
}

#else  // TILESPMSPV_NO_COUNTERS

TEST_F(ObsTraceTest, StubsStayInertAndEmitEmptyTrace) {
  obs::trace_enable();
  { obs::TraceSpan span("test/stub", "test"); }
  EXPECT_FALSE(obs::trace_enabled());
  EXPECT_EQ(obs::trace_event_count(), 0u);
  const std::string json = export_trace();
  EXPECT_TRUE(parses_as_json(json));
  EXPECT_EQ(json.find("test/stub"), std::string::npos);
}

#endif  // TILESPMSPV_NO_COUNTERS

}  // namespace
}  // namespace tilespmspv
