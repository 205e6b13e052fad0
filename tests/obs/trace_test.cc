#include "obs/trace.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "common/json.h"

namespace proclus::obs {
namespace {

using proclus::json::JsonValue;

TEST(JsonEscapeTest, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb"), "a\\nb");
  EXPECT_EQ(JsonEscape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(TraceSpanTest, RecordsCompleteEventWithArgs) {
  TraceRecorder recorder;
  {
    TraceSpan span(&recorder, "greedy", "driver");
    span.AddArg(TraceArg::Int("pool_size", 40));
    span.AddArg(TraceArg::Double("cost", 1.5));
    span.AddArg(TraceArg::Str("phase", "greedy"));
  }
  const auto events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "greedy");
  EXPECT_EQ(events[0].category, "driver");
  EXPECT_EQ(events[0].phase, 'X');
  EXPECT_GE(events[0].dur_us, 0.0);
  ASSERT_EQ(events[0].args.size(), 3u);
  EXPECT_EQ(events[0].args[0].name, "pool_size");
  EXPECT_EQ(events[0].args[0].int_value, 40);
}

TEST(TraceSpanTest, NullRecorderIsInert) {
  TraceSpan span(nullptr, "noop", "test");
  EXPECT_FALSE(span.active());
  span.AddArg(TraceArg::Int("ignored", 1));
  span.End();  // must not crash
}

TEST(TraceSpanTest, DisabledRecorderRecordsNothing) {
  TraceRecorder recorder;
  recorder.set_enabled(false);
  {
    TraceSpan span(&recorder, "skipped", "test");
    EXPECT_FALSE(span.active());
  }
  recorder.AddInstant("also-skipped", "test");
  EXPECT_EQ(recorder.event_count(), 0);
}

TEST(TraceSpanTest, EndIsIdempotent) {
  TraceRecorder recorder;
  TraceSpan span(&recorder, "once", "test");
  span.End();
  span.End();
  EXPECT_EQ(recorder.event_count(), 1);
}

TEST(TraceRecorderTest, ThreadsGetDistinctTids) {
  TraceRecorder recorder;
  recorder.AddInstant("main", "test");
  std::thread other([&] { recorder.AddInstant("worker", "test"); });
  other.join();
  const auto events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_NE(events[0].tid, events[1].tid);
}

TEST(TraceRecorderTest, SyntheticTracksAreSeparateFromThreads) {
  TraceRecorder recorder;
  const int track = recorder.RegisterTrack("device:sim");
  recorder.AddInstant("host", "test");
  recorder.AddCompleteOnTrack(track, "kernel", "kernel", 0.0, 5.0);
  const auto events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_NE(events[0].tid, events[1].tid);
  EXPECT_EQ(events[1].tid, track);
}

TEST(TraceRecorderTest, ConcurrentRecordingIsSafeAndComplete) {
  TraceRecorder recorder;
  constexpr int kThreads = 8;
  constexpr int kEventsPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder] {
      for (int i = 0; i < kEventsPerThread; ++i) {
        TraceSpan span(&recorder, "work", "test");
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(recorder.event_count(), kThreads * kEventsPerThread);
}

// The golden schema check: WriteJson output must be valid JSON in the Chrome
// trace_event "catapult" shape that chrome://tracing / Perfetto load.
TEST(TraceRecorderTest, WriteJsonEmitsChromeTraceSchema) {
  TraceRecorder recorder;
  const int track = recorder.RegisterTrack("device:sim-gtx1660ti");
  {
    TraceSpan span(&recorder, "iterative", "driver");
    span.AddArg(TraceArg::Int("iterations", 3));
  }
  recorder.AddCompleteOnTrack(track, "assign_kernel", "kernel", 10.0, 2.5,
                              {TraceArg::Double("modeled_ms", 0.0025),
                               TraceArg::Str("note", "quote\" test")});
  recorder.AddInstant("job.submitted", "service");

  std::ostringstream out;
  recorder.WriteJson(out);

  JsonValue root;
  std::string error;
  ASSERT_TRUE(proclus::json::Parse(out.str(), &root, &error)) << error;
  ASSERT_TRUE(root.is_object());

  const JsonValue* display = root.Find("displayTimeUnit");
  ASSERT_NE(display, nullptr);
  EXPECT_EQ(display->string_value, "ms");

  const JsonValue* events = root.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  int complete = 0, instant = 0, metadata = 0;
  bool saw_track_name = false;
  for (const JsonValue& event : events->array_value) {
    ASSERT_TRUE(event.is_object());
    const JsonValue* ph = event.Find("ph");
    ASSERT_NE(ph, nullptr);
    ASSERT_NE(event.Find("pid"), nullptr);
    ASSERT_NE(event.Find("tid"), nullptr);
    ASSERT_NE(event.Find("name"), nullptr);
    if (ph->string_value == "X") {
      ++complete;
      ASSERT_NE(event.Find("ts"), nullptr);
      ASSERT_NE(event.Find("dur"), nullptr);
    } else if (ph->string_value == "i") {
      ++instant;
      ASSERT_NE(event.Find("ts"), nullptr);
    } else if (ph->string_value == "M") {
      ++metadata;
      const JsonValue* args = event.Find("args");
      if (args != nullptr) {
        const JsonValue* name = args->Find("name");
        if (name != nullptr &&
            name->string_value == "device:sim-gtx1660ti") {
          saw_track_name = true;
        }
      }
    }
  }
  EXPECT_EQ(complete, 2);
  EXPECT_EQ(instant, 1);
  EXPECT_GE(metadata, 1);
  EXPECT_TRUE(saw_track_name);

  // The escaped-quote arg must round-trip through the JSON.
  bool saw_note = false;
  for (const JsonValue& event : events->array_value) {
    const JsonValue* args = event.Find("args");
    if (args == nullptr) continue;
    const JsonValue* note = args->Find("note");
    if (note != nullptr) {
      EXPECT_EQ(note->string_value, "quote\" test");
      saw_note = true;
    }
  }
  EXPECT_TRUE(saw_note);
}

TEST(TraceRecorderTest, WriteFileRoundTrips) {
  TraceRecorder recorder;
  recorder.AddInstant("marker", "test");
  const std::string path =
      ::testing::TempDir() + "/proclus_trace_roundtrip.json";
  ASSERT_TRUE(recorder.WriteFile(path).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::stringstream buffer;
  buffer << in.rdbuf();
  JsonValue root;
  std::string error;
  EXPECT_TRUE(proclus::json::Parse(buffer.str(), &root, &error)) << error;
}

TEST(TraceRecorderTest, WriteFileReportsIoError) {
  TraceRecorder recorder;
  EXPECT_FALSE(recorder.WriteFile("/nonexistent-dir/trace.json").ok());
}

}  // namespace
}  // namespace proclus::obs
