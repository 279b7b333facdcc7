// net::WireCodec — lossless delta-frame roundtrips over adversarial fp64
// contents, hardened-decoder negatives (truncation / bit flips, in the
// util::records style: corrupt input must throw, never crash or read out
// of bounds), stream-state semantics (keyframes, repeats, reset_agent,
// capture/restore), and the quantize mode's twin-run determinism.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "net/codec.hpp"
#include "net/message.hpp"
#include "util/rng.hpp"

namespace {

using pfdrl::net::CodecOptions;
using pfdrl::net::Message;
using pfdrl::net::MessageKind;
using pfdrl::net::WireCodec;

void expect_bitwise(const std::vector<double>& got,
                    const std::vector<double>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  ASSERT_EQ(0, std::memcmp(got.data(), want.data(),
                           want.size() * sizeof(double)))
      << what;
}

/// Roundtrip `values` against `prev` through the stateless frame layer
/// and require bitwise recovery.
void roundtrip(const std::vector<double>& values,
               const std::vector<double>& prev, const char* what) {
  std::vector<std::uint8_t> frame;
  const std::size_t coded = WireCodec::encode_frame(values, prev, frame);
  ASSERT_GT(coded, 0u) << what;
  ASSERT_LE(coded, WireCodec::max_frame_bytes(values.size())) << what;
  std::vector<double> decoded;
  WireCodec::decode_frame(std::span(frame.data(), coded), prev, values.size(),
                          decoded);
  expect_bitwise(decoded, values, what);
}

TEST(NetCodec, RoundtripsAdversarialValues) {
  const double denorm = std::numeric_limits<double>::denorm_min();
  const double qnan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> nasty = {0.0,     -0.0,   denorm, -denorm,
                                     qnan,    -qnan,  inf,    -inf,
                                     1.0,     -1.0,   1e-300, 1e300,
                                     5e-324,  -5e-324};
  roundtrip(nasty, {}, "nasty keyframe");
  roundtrip(nasty, nasty, "nasty repeat");
  std::vector<double> shifted(nasty.rbegin(), nasty.rend());
  roundtrip(shifted, nasty, "nasty delta");
  // NaN payload bits must survive exactly (the XOR path never interprets
  // the values as numbers).
  std::vector<std::uint8_t> frame;
  const std::size_t coded = WireCodec::encode_frame(nasty, {}, frame);
  std::vector<double> decoded;
  WireCodec::decode_frame(std::span(frame.data(), coded), {}, nasty.size(),
                          decoded);
  EXPECT_TRUE(std::isnan(decoded[4]));
}

TEST(NetCodec, RoundtripsRampsAndRandomWalks) {
  pfdrl::util::Rng rng(20260809);
  std::vector<double> ramp(512);
  for (std::size_t i = 0; i < ramp.size(); ++i) {
    ramp[i] = -3.0 + 0.01 * static_cast<double>(i);
  }
  roundtrip(ramp, {}, "monotone ramp keyframe");

  std::vector<double> prev = ramp;
  std::vector<double> cur = ramp;
  for (int step = 0; step < 8; ++step) {
    for (double& v : cur) v += 1e-9 * rng.normal();
    roundtrip(cur, prev, "random walk step");
    std::copy(cur.begin(), cur.end(), prev.begin());  // same length
  }
  // Small-delta walks must actually compress (that is the whole point).
  std::vector<std::uint8_t> frame;
  const std::size_t coded = WireCodec::encode_frame(cur, prev, frame);
  EXPECT_LT(coded, cur.size() * sizeof(double) / 2);
}

TEST(NetCodec, RoundtripsEveryPrevSizeMismatch) {
  // prev of the wrong size means keyframe, same as empty prev.
  const std::vector<double> values = {1.5, -2.25, 0.0, 1e-12};
  const std::vector<double> stale = {9.0, 9.0};
  std::vector<std::uint8_t> a;
  std::vector<std::uint8_t> b;
  const std::size_t ca = WireCodec::encode_frame(values, {}, a);
  const std::size_t cb = WireCodec::encode_frame(values, stale, b);
  ASSERT_EQ(ca, cb);
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(), ca));
}

TEST(NetCodec, RepeatAndRawFrames) {
  // Exact retransmission collapses to the one-byte repeat marker.
  const std::vector<double> values = {1.0, 2.0, 3.0};
  std::vector<std::uint8_t> frame;
  std::size_t coded = WireCodec::encode_frame(values, values, frame);
  ASSERT_EQ(coded, 1u);
  EXPECT_EQ(frame[0], WireCodec::kRepeat);
  std::vector<double> decoded;
  WireCodec::decode_frame(std::span(frame.data(), coded), values,
                          values.size(), decoded);
  expect_bitwise(decoded, values, "repeat frame");

  // Incompressible deltas (every significant byte set) take the raw
  // escape and never expand past 1 + 8n.
  pfdrl::util::Rng rng(7);
  std::vector<double> noise(64);
  for (double& v : noise) v = rng.uniform(-1e9, 1e9);
  coded = WireCodec::encode_frame(noise, {}, frame);
  EXPECT_EQ(frame[0], WireCodec::kRaw);
  EXPECT_EQ(coded, WireCodec::max_frame_bytes(noise.size()));
  WireCodec::decode_frame(std::span(frame.data(), coded), {}, noise.size(),
                          decoded);
  expect_bitwise(decoded, noise, "raw escape");
}

TEST(NetCodec, DecoderRejectsTruncationAndGarbage) {
  std::vector<double> prev(33);
  for (std::size_t i = 0; i < prev.size(); ++i) {
    prev[i] = 0.125 * static_cast<double>(i);
  }
  std::vector<double> values = prev;
  for (double& v : values) v += 1e-12;  // small deltas -> packed frame
  std::vector<std::uint8_t> frame;
  const std::size_t coded = WireCodec::encode_frame(values, prev, frame);
  ASSERT_EQ(frame[0], WireCodec::kPacked);
  std::vector<double> decoded;

  // Every proper prefix must throw, including the empty frame.
  for (std::size_t cut = 0; cut < coded; ++cut) {
    EXPECT_THROW(WireCodec::decode_frame(std::span(frame.data(), cut), prev,
                                         values.size(), decoded),
                 std::runtime_error)
        << "cut=" << cut;
  }
  // Trailing garbage must throw too — a frame is exactly sized.
  std::vector<std::uint8_t> padded(frame.begin(), frame.begin() + coded);
  padded.push_back(0xAB);
  EXPECT_THROW(WireCodec::decode_frame(padded, prev, values.size(), decoded),
               std::runtime_error);
  // Unknown flag byte.
  std::vector<std::uint8_t> bad(frame.begin(), frame.begin() + coded);
  bad[0] = 0x7F;
  EXPECT_THROW(WireCodec::decode_frame(bad, prev, values.size(), decoded),
               std::runtime_error);
}

TEST(NetCodec, DecoderSurvivesBitFlips) {
  // A flipped byte anywhere in the frame either throws (structural
  // damage) or decodes cleanly to different values — it must never read
  // out of bounds or crash. (The ASan stress job runs the same sweep
  // under -fsanitize=address.)
  std::vector<double> prev(48);
  for (std::size_t i = 0; i < prev.size(); ++i) {
    prev[i] = std::sin(static_cast<double>(i)) * 1e-3;
  }
  std::vector<double> values = prev;
  for (double& v : values) v += 1e-15;  // small deltas -> packed frame
  std::vector<std::uint8_t> frame;
  const std::size_t coded = WireCodec::encode_frame(values, prev, frame);
  ASSERT_EQ(frame[0], WireCodec::kPacked);
  std::vector<double> decoded;
  std::size_t throws = 0;
  for (std::size_t pos = 0; pos < coded; ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> mut(frame.begin(), frame.begin() + coded);
      mut[pos] = static_cast<std::uint8_t>(mut[pos] ^ (1u << bit));
      try {
        WireCodec::decode_frame(mut, prev, values.size(), decoded);
        ASSERT_EQ(decoded.size(), values.size());
      } catch (const std::runtime_error&) {
        ++throws;
      }
    }
  }
  // Length-nibble damage is detectable, so a healthy share must throw.
  EXPECT_GT(throws, 0u);
}

TEST(NetCodec, StatefulEncodeKeysStreamsAndStampsFrames) {
  WireCodec codec;
  const std::vector<double> params = {0.5, 0.25, -0.125, 8.0};

  Message msg;
  msg.sender = 3;
  msg.kind = MessageKind::kForecastParams;
  msg.device_type = 1;
  msg.payload.assign(params.begin(), params.end());
  codec.encode(msg);
  ASSERT_GT(msg.coded_bytes, 0u);
  const std::uint64_t keyframe = msg.coded_bytes;
  // Lossless: the payload is untouched by the default codec.
  expect_bitwise(std::vector<double>(msg.payload.span().begin(),
                                     msg.payload.span().end()),
                 params, "payload after encode");

  // Re-encode of an already-coded message is a no-op (relay semantics).
  codec.encode(msg);
  EXPECT_EQ(msg.coded_bytes, keyframe);

  // A fresh message with identical params on the same stream is a repeat.
  Message again = msg;
  again.coded_bytes = 0;
  codec.encode(again);
  EXPECT_EQ(again.coded_bytes, 1u);

  // Different stream key (other device type) gets its own keyframe.
  Message other = msg;
  other.coded_bytes = 0;
  other.device_type = 2;
  codec.encode(other);
  EXPECT_EQ(other.coded_bytes, keyframe);

  // reset_agent drops the sender's streams: next frame is a keyframe.
  codec.reset_agent(3);
  Message after = msg;
  after.coded_bytes = 0;
  codec.encode(after);
  EXPECT_EQ(after.coded_bytes, keyframe);

  const auto stats = codec.stats();
  EXPECT_EQ(stats.frames, 4u);
  EXPECT_EQ(stats.repeat_frames, 1u);
  EXPECT_EQ(stats.raw_bytes, 4u * params.size() * sizeof(double));
  EXPECT_GE(stats.ratio(), 1.0);
}

TEST(NetCodec, CaptureRestoreResumesTheFrameSequence) {
  const auto send = [](WireCodec& codec, double scale) {
    Message msg;
    msg.sender = 11;
    msg.kind = MessageKind::kDrlBaseParams;
    std::vector<double> params(32);
    for (std::size_t i = 0; i < params.size(); ++i) {
      params[i] = scale * (static_cast<double>(i) + 0.5);
    }
    msg.payload.assign(params.begin(), params.end());
    codec.encode(msg);
    return msg.coded_bytes;
  };

  WireCodec uninterrupted;
  send(uninterrupted, 1.0);
  send(uninterrupted, 1.0 + 1e-12);

  WireCodec crashed;
  send(crashed, 1.0);
  const auto streams = crashed.capture_streams();
  ASSERT_EQ(streams.size(), 1u);
  EXPECT_EQ(streams[0].sender, 11u);

  WireCodec resumed;
  resumed.restore_streams(streams);
  // The resumed codec continues the delta chain: same frame size as the
  // uninterrupted second round, far below a keyframe.
  const std::uint64_t resumed_frame = send(resumed, 1.0 + 1e-12);
  WireCodec fresh;
  const std::uint64_t fresh_frame = send(fresh, 1.0 + 1e-12);
  EXPECT_EQ(resumed_frame, uninterrupted.stats().coded_bytes -
                               crashed.stats().coded_bytes);
  EXPECT_LT(resumed_frame, fresh_frame);

  // Restoring an empty capture simply forces keyframes.
  WireCodec blank;
  blank.restore_streams({});
  EXPECT_EQ(send(blank, 1.0 + 1e-12), fresh_frame);
}

TEST(NetCodec, QuantizeModeIsDeterministicWithErrorFeedback) {
  const auto run = [](std::size_t rounds) {
    WireCodec codec(CodecOptions{.quantize = true});
    pfdrl::util::Rng rng(99);
    std::vector<double> params(64);
    for (double& v : params) v = rng.uniform(-1.0, 1.0);
    std::vector<std::vector<double>> delivered;
    std::uint64_t coded_total = 0;
    for (std::size_t r = 0; r < rounds; ++r) {
      for (double& v : params) v += 1e-3 * rng.normal();
      Message msg;
      msg.sender = 5;
      msg.kind = MessageKind::kForecastParams;
      msg.payload.assign(params.begin(), params.end());
      codec.encode(msg);
      coded_total += msg.coded_bytes;
      delivered.emplace_back(msg.payload.span().begin(),
                             msg.payload.span().end());
      // Quantization is lossy: receivers observe the dequantized values.
      EXPECT_NE(0, std::memcmp(delivered.back().data(), params.data(),
                               params.size() * sizeof(double)));
    }
    return std::make_pair(delivered, coded_total);
  };
  const auto [a, a_bytes] = run(6);
  const auto [b, b_bytes] = run(6);
  // Twin identically seeded runs deliver bitwise identical payloads.
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t r = 0; r < a.size(); ++r) {
    expect_bitwise(a[r], b[r], "quantized twin-run payload");
  }
  EXPECT_EQ(a_bytes, b_bytes);
  // int8 frames are ~8x smaller than the raw payload stream.
  EXPECT_LT(a_bytes, 6u * 64u * sizeof(double) / 4);
}

}  // namespace
