// net::WireCodec — lossless delta-frame roundtrips over adversarial fp64
// contents, hardened-decoder negatives (truncation / bit flips, in the
// util::records style: corrupt input must throw, never crash or read out
// of bounds), the word-at-a-time packed decoder against a bytewise
// reference, stream-state semantics (keyframes, repeats, reset_agent,
// capture/restore), concurrent encodes on distinct streams, and the
// quantize mode's twin-run determinism.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/codec.hpp"
#include "net/message.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using pfdrl::net::CodecOptions;
using pfdrl::net::Message;
using pfdrl::net::MessageKind;
using pfdrl::net::WireCodec;

void expect_bitwise(const std::vector<double>& got,
                    const std::vector<double>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  if (want.empty()) return;  // memcmp needs non-null pointers
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

// Reference copy of the bytewise kPacked decoder the word-at-a-time one
// replaced: per value, bounds-check, then copy exactly `sig` bytes.
void reference_decode_packed(std::span<const std::uint8_t> frame,
                             std::span<const double> prev, std::size_t count,
                             std::vector<double>& out) {
  if (frame.empty() || frame[0] != WireCodec::kPacked) {
    throw std::runtime_error("reference: not a packed frame");
  }
  const bool have_prev = prev.size() == count && count > 0;
  const std::span<const std::uint8_t> body = frame.subspan(1);
  out.resize(count);
  const std::size_t nibble_bytes = (count + 1) / 2;
  if (body.size() < nibble_bytes) {
    throw std::runtime_error("reference: truncated nibble table");
  }
  const std::uint8_t* nibbles = body.data();
  const std::uint8_t* cursor = nibbles + nibble_bytes;
  const std::uint8_t* const end = body.data() + body.size();
  for (std::size_t i = 0; i < count; ++i) {
    const unsigned sig = (nibbles[i >> 1] >> ((i & 1u) * 4u)) & 0xFu;
    if (sig > sizeof(std::uint64_t)) {
      throw std::runtime_error("reference: bad significant-byte count");
    }
    if (static_cast<std::size_t>(end - cursor) < sig) {
      throw std::runtime_error("reference: truncated packed frame");
    }
    std::uint64_t x = 0;
    std::memcpy(&x, cursor, sig);
    cursor += sig;
    std::uint64_t p = 0;
    if (have_prev) std::memcpy(&p, &prev[i], sizeof(p));
    const std::uint64_t bits = x ^ p;
    std::memcpy(&out[i], &bits, sizeof(bits));
  }
  if (cursor != end) {
    throw std::runtime_error("reference: trailing bytes in packed frame");
  }
  if ((count & 1u) != 0 && (nibbles[count >> 1] >> 4u) != 0) {
    throw std::runtime_error("reference: nonzero nibble padding");
  }
}

/// A hand-built kPacked frame: nibble table of `sigs`, then `sig` random
/// bytes per value.
std::vector<std::uint8_t> packed_frame(const std::vector<unsigned>& sigs,
                                       pfdrl::util::Rng& rng) {
  const std::size_t count = sigs.size();
  std::vector<std::uint8_t> frame(1 + (count + 1) / 2, 0);
  frame[0] = WireCodec::kPacked;
  for (std::size_t i = 0; i < count; ++i) {
    frame[1 + i / 2] |= static_cast<std::uint8_t>(sigs[i] << ((i & 1u) * 4u));
  }
  for (const unsigned sig : sigs) {
    for (unsigned b = 0; b < sig; ++b) {
      frame.push_back(static_cast<std::uint8_t>(rng.next() & 0xFFu));
    }
  }
  return frame;
}

/// Significant-byte patterns for `count` values: uniform 0..8, all 8s,
/// all 0s, and random bodies whose last 9 values (where the decoder
/// leaves its word-at-a-time loop) are 8s, 0s, or alternate 0/8.
std::vector<std::vector<unsigned>> sig_patterns(std::size_t count,
                                                pfdrl::util::Rng& rng) {
  std::vector<std::vector<unsigned>> out;
  const auto random_sigs = [&] {
    std::vector<unsigned> sigs(count);
    for (unsigned& s : sigs) s = static_cast<unsigned>(rng.next() % 9);
    return sigs;
  };
  out.push_back(random_sigs());
  out.emplace_back(count, 8u);
  out.emplace_back(count, 0u);
  for (int tail = 0; tail < 3; ++tail) {
    std::vector<unsigned> sigs = random_sigs();
    for (std::size_t k = 0; k < std::min<std::size_t>(9, count); ++k) {
      const std::size_t i = count - 1 - k;
      sigs[i] = tail == 0 ? 8u : tail == 1 ? 0u : (k % 2 == 0 ? 8u : 0u);
    }
    out.push_back(std::move(sigs));
  }
  return out;
}

std::vector<std::size_t> decoder_counts() {
  std::vector<std::size_t> counts;
  for (std::size_t n = 0; n <= 40; ++n) counts.push_back(n);
  counts.push_back(2817);  // a BP forecaster's parameter count
  return counts;
}

TEST(NetCodec, PackedDecoderMatchesBytewiseReference) {
  pfdrl::util::Rng rng(20261020);
  for (const std::size_t count : decoder_counts()) {
    std::vector<double> prev(count);
    for (double& v : prev) v = rng.uniform(-2.0, 2.0);
    for (const auto& sigs : sig_patterns(count, rng)) {
      const std::vector<std::uint8_t> frame = packed_frame(sigs, rng);
      // With and without delta state (keyframe: XOR against zero bits).
      for (const bool keyframe : {false, true}) {
        const std::span<const double> p =
            keyframe ? std::span<const double>() : std::span(prev);
        std::vector<double> want;
        std::vector<double> got;
        reference_decode_packed(frame, p, count, want);
        WireCodec::decode_frame(frame, p, count, got);
        expect_bitwise(got, want,
                       ("count=" + std::to_string(count)).c_str());
      }
    }
  }
}

TEST(NetCodec, PackedDecoderRejectsEveryMalformedVariant) {
  pfdrl::util::Rng rng(20261021);
  std::vector<double> decoded;
  for (const std::size_t count : decoder_counts()) {
    const std::vector<double> prev(count, 0.5);
    for (const auto& sigs : sig_patterns(count, rng)) {
      const std::vector<std::uint8_t> frame = packed_frame(sigs, rng);
      const std::string what = "count=" + std::to_string(count);
      // One byte short, and one byte (zero or not) too long.
      const std::vector<std::uint8_t> cut(frame.begin(), frame.end() - 1);
      EXPECT_THROW(WireCodec::decode_frame(cut, prev, count, decoded),
                   std::runtime_error)
          << what << " truncated";
      for (const std::uint8_t extra : {0x00, 0xFF}) {
        std::vector<std::uint8_t> longer = frame;
        longer.push_back(extra);
        EXPECT_THROW(WireCodec::decode_frame(longer, prev, count, decoded),
                     std::runtime_error)
            << what << " extended";
      }
      // Every nibble position with every out-of-range count (9..15).
      for (std::size_t i = 0; i < count; ++i) {
        const unsigned shift = (i & 1u) * 4u;
        for (unsigned bad = 9; bad <= 15; ++bad) {
          std::vector<std::uint8_t> mut = frame;
          std::uint8_t& byte = mut[1 + i / 2];
          byte = static_cast<std::uint8_t>((byte & ~(0xFu << shift)) |
                                           (bad << shift));
          EXPECT_THROW(WireCodec::decode_frame(mut, prev, count, decoded),
                       std::runtime_error)
              << what << " nibble " << i << " = " << bad;
        }
      }
      // Every nonzero padding nibble of an odd count.
      if (count % 2 == 1) {
        for (unsigned pad = 1; pad <= 15; ++pad) {
          std::vector<std::uint8_t> mut = frame;
          mut[1 + count / 2] |= static_cast<std::uint8_t>(pad << 4u);
          EXPECT_THROW(WireCodec::decode_frame(mut, prev, count, decoded),
                       std::runtime_error)
              << what << " padding " << pad;
        }
      }
    }
  }
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

TEST(NetCodec, ConcurrentDistinctStreamsMatchSerial) {
  // K senders x D device types, R rounds of drifting payloads: a
  // keyframe, converging deltas, and an exact repeat. The pooled run
  // encodes every sender's messages as one batch, a task per sender each
  // round (as the exchange round's encode fan-out does); the serial run
  // encodes the same messages one at a time, in order. Frames, stats and
  // stream state must agree.
  constexpr std::size_t kSenders = 16;
  constexpr std::size_t kDevices = 2;
  constexpr std::size_t kRounds = 8;
  constexpr std::size_t kLen = 300;
  const auto payload = [&](std::size_t k, std::size_t d, std::size_t r) {
    std::vector<double> v(kLen);
    const std::size_t step = r == kRounds - 1 ? r - 1 : r;  // last repeats
    for (std::size_t i = 0; i < kLen; ++i) {
      v[i] = std::sin(static_cast<double>(k * 131 + d * 17 + i)) +
             std::pow(10.0, -static_cast<double>(2 * step)) *
                 std::cos(static_cast<double>(i + step));
    }
    return v;
  };
  const auto encode = [&](WireCodec& codec, std::size_t k, std::size_t r,
                          bool batch, std::vector<std::uint64_t>& coded) {
    std::vector<Message> msgs(kDevices);
    std::vector<Message*> ptrs;
    for (std::size_t d = 0; d < kDevices; ++d) {
      const std::vector<double> v = payload(k, d, r);
      Message& msg = msgs[d];
      msg.sender = static_cast<pfdrl::net::AgentId>(k);
      msg.kind = MessageKind::kForecastParams;
      msg.device_type = static_cast<std::uint32_t>(d);
      msg.round = r;
      msg.payload.assign(v.begin(), v.end());
      if (batch) {
        ptrs.push_back(&msg);
      } else {
        codec.encode(msg);
      }
    }
    if (batch) codec.encode(ptrs);
    for (std::size_t d = 0; d < kDevices; ++d) {
      coded[(r * kSenders + k) * kDevices + d] = msgs[d].coded_bytes;
    }
  };

  WireCodec serial;
  std::vector<std::uint64_t> serial_coded(kRounds * kSenders * kDevices);
  for (std::size_t r = 0; r < kRounds; ++r) {
    for (std::size_t k = 0; k < kSenders; ++k) {
      encode(serial, k, r, /*batch=*/false, serial_coded);
    }
  }
  const auto want_stats = serial.stats();
  const auto want_streams = serial.capture_streams();
  ASSERT_EQ(want_streams.size(), kSenders * kDevices);
  EXPECT_GT(want_stats.repeat_frames, 0u);

  for (int rep = 0; rep < 4; ++rep) {
    WireCodec pooled;
    std::vector<std::uint64_t> pooled_coded(serial_coded.size());
    for (std::size_t r = 0; r < kRounds; ++r) {
      pfdrl::util::ThreadPool::global().parallel_for(
          0, kSenders, [&](std::size_t k) {
            encode(pooled, k, r, /*batch=*/true, pooled_coded);
          });
    }
    EXPECT_EQ(pooled_coded, serial_coded) << "rep " << rep;
    const auto got = pooled.stats();
    EXPECT_EQ(got.frames, want_stats.frames);
    EXPECT_EQ(got.repeat_frames, want_stats.repeat_frames);
    EXPECT_EQ(got.raw_escapes, want_stats.raw_escapes);
    EXPECT_EQ(got.raw_bytes, want_stats.raw_bytes);
    EXPECT_EQ(got.coded_bytes, want_stats.coded_bytes);
    const auto streams = pooled.capture_streams();
    ASSERT_EQ(streams.size(), want_streams.size());
    for (std::size_t s = 0; s < streams.size(); ++s) {
      EXPECT_EQ(streams[s].sender, want_streams[s].sender);
      EXPECT_EQ(streams[s].kind, want_streams[s].kind);
      EXPECT_EQ(streams[s].device_type, want_streams[s].device_type);
      expect_bitwise(streams[s].prev, want_streams[s].prev, "stream prev");
      expect_bitwise(streams[s].err, want_streams[s].err, "stream err");
    }
  }
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
