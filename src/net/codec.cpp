#include "net/codec.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstring>
#include <stdexcept>

namespace pfdrl::net {

namespace {

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t bits_of(double v) noexcept {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

double double_of(std::uint64_t b) noexcept {
  double v;
  std::memcpy(&v, &b, sizeof(v));
  return v;
}

}  // namespace

std::size_t WireCodec::encode_frame(std::span<const double> values,
                                    std::span<const double> prev,
                                    std::vector<std::uint8_t>& out) {
  const std::size_t n = values.size();
  const bool have_prev = prev.size() == n && n > 0;
  if (have_prev &&
      std::memcmp(values.data(), prev.data(), n * sizeof(double)) == 0) {
    out.assign(1, static_cast<std::uint8_t>(kRepeat));
    return 1;
  }

  const std::size_t nibble_bytes = (n + 1) / 2;
  // Worst case (every residual 8 bytes) plus one word of store slack for
  // the branch-free writer below.
  out.resize(1 + nibble_bytes + n * sizeof(double) + sizeof(std::uint64_t));
  out[0] = static_cast<std::uint8_t>(kPacked);
  std::uint8_t* nibbles = out.data() + 1;
  std::memset(nibbles, 0, nibble_bytes);
  std::uint8_t* cursor = nibbles + nibble_bytes;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t x =
        bits_of(values[i]) ^ (have_prev ? bits_of(prev[i]) : std::uint64_t{0});
    // Significant little-endian byte count: 0 for x == 0, else
    // ceil((64 - clz) / 8); (71 - clz) / 8 computes both branch-free.
    const unsigned sig =
        (71u - static_cast<unsigned>(std::countl_zero(x))) / 8u;
    nibbles[i >> 1] |=
        static_cast<std::uint8_t>(sig << ((i & 1u) * 4u));
    std::memcpy(cursor, &x, sizeof(x));  // full-word store, advance by sig
    cursor += sig;
  }
  std::size_t size = static_cast<std::size_t>(cursor - out.data());
  if (size >= 1 + n * sizeof(double)) {
    // The delta would expand (keyframe of incompressible bits) — escape
    // to a raw literal so coded never exceeds raw by more than the flag.
    out[0] = static_cast<std::uint8_t>(kRaw);
    if (n > 0) {
      std::memcpy(out.data() + 1, values.data(), n * sizeof(double));
    }
    size = 1 + n * sizeof(double);
  }
  out.resize(size);
  return size;
}

void WireCodec::decode_frame(std::span<const std::uint8_t> frame,
                             std::span<const double> prev, std::size_t count,
                             std::vector<double>& out) {
  if (frame.empty()) throw std::runtime_error("codec: empty frame");
  const bool have_prev = prev.size() == count && count > 0;
  const std::uint8_t flag = frame[0];
  const std::span<const std::uint8_t> body = frame.subspan(1);
  out.resize(count);
  switch (flag) {
    case kRepeat: {
      if (!body.empty()) {
        throw std::runtime_error("codec: repeat frame carries payload bytes");
      }
      if (!have_prev) {
        throw std::runtime_error("codec: repeat frame without stream state");
      }
      std::copy(prev.begin(), prev.end(), out.begin());
      return;
    }
    case kRaw: {
      if (body.size() != count * sizeof(double)) {
        throw std::runtime_error("codec: raw frame size mismatch");
      }
      if (count > 0) std::memcpy(out.data(), body.data(), body.size());
      return;
    }
    case kPacked: {
      const std::size_t nibble_bytes = (count + 1) / 2;
      if (body.size() < nibble_bytes) {
        throw std::runtime_error("codec: truncated nibble table");
      }
      const std::uint8_t* nibbles = body.data();
      // Validate the whole nibble table before decoding anything: every
      // count is <= 8, the padding nibble is zero, and the counts sum to
      // exactly the bytes that follow the table. After this the decode
      // loops below need no bounds checks.
      std::size_t total = 0;
      unsigned bad = 0;
      for (std::size_t b = 0; b < nibble_bytes; ++b) {
        const unsigned lo = nibbles[b] & 0xFu;
        const unsigned hi = nibbles[b] >> 4u;
        bad |= static_cast<unsigned>(lo > 8u) | static_cast<unsigned>(hi > 8u);
        total += lo + hi;
      }
      if (bad != 0) {
        throw std::runtime_error("codec: bad significant-byte count");
      }
      if ((count & 1u) != 0 && (nibbles[count >> 1] >> 4u) != 0) {
        throw std::runtime_error("codec: nonzero nibble padding");
      }
      const std::size_t data_bytes = body.size() - nibble_bytes;
      if (total > data_bytes) {
        throw std::runtime_error("codec: truncated packed frame");
      }
      if (total < data_bytes) {
        throw std::runtime_error("codec: trailing bytes in packed frame");
      }
      // Word-at-a-time: while a full 8-byte load stays inside the frame,
      // load a word and mask it to the value's `sig` low bytes; the last
      // few values take the bytewise path so nothing reads past the end.
      // Masking the low bytes keeps the first `sig` bytes in memory only
      // on a little-endian host, the byte order the format is defined in.
      static_assert(std::endian::native == std::endian::little);
      static constexpr std::uint64_t kSigMask[9] = {
          0x0ULL,
          0xFFULL,
          0xFFFFULL,
          0xFFFFFFULL,
          0xFFFFFFFFULL,
          0xFFFFFFFFFFULL,
          0xFFFFFFFFFFFFULL,
          0xFFFFFFFFFFFFFFULL,
          0xFFFFFFFFFFFFFFFFULL};
      const std::uint8_t* cursor = nibbles + nibble_bytes;
      const std::uint8_t* const end = body.data() + body.size();
      double* dst = out.data();
      std::size_t i = 0;
      for (; i < count && end - cursor >= 8; ++i) {
        const unsigned sig = (nibbles[i >> 1] >> ((i & 1u) * 4u)) & 0xFu;
        std::uint64_t x;
        std::memcpy(&x, cursor, sizeof(x));
        x &= kSigMask[sig];
        cursor += sig;
        const std::uint64_t p = have_prev ? bits_of(prev[i]) : std::uint64_t{0};
        dst[i] = double_of(x ^ p);
      }
      for (; i < count; ++i) {
        const unsigned sig = (nibbles[i >> 1] >> ((i & 1u) * 4u)) & 0xFu;
        std::uint64_t x = 0;
        std::memcpy(&x, cursor, sig);
        cursor += sig;
        const std::uint64_t p = have_prev ? bits_of(prev[i]) : std::uint64_t{0};
        dst[i] = double_of(x ^ p);
      }
      return;
    }
    case kQuant: {
      if (body.size() != sizeof(double) + count) {
        throw std::runtime_error("codec: quant frame size mismatch");
      }
      double scale = 0.0;
      std::memcpy(&scale, body.data(), sizeof(scale));
      if (!std::isfinite(scale) || scale < 0.0) {
        throw std::runtime_error("codec: bad quant scale");
      }
      const auto* q =
          reinterpret_cast<const std::int8_t*>(body.data() + sizeof(double));
      for (std::size_t i = 0; i < count; ++i) {
        out[i] = scale * static_cast<double>(q[i]);
      }
      return;
    }
    default:
      throw std::runtime_error("codec: unknown frame flag");
  }
}

std::size_t WireCodec::encode_quant(Stream& stream,
                                    std::vector<double>& values,
                                    std::vector<std::uint8_t>& out) {
  const std::size_t n = values.size();
  if (stream.err.size() != n) stream.err.assign(n, 0.0);
  double max_abs = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double t = values[i] + stream.err[i];
    const double a = std::abs(t);
    if (std::isfinite(a) && a > max_abs) max_abs = a;
  }
  const double scale = max_abs > 0.0 ? max_abs / 127.0 : 0.0;
  out.resize(1 + sizeof(double) + n);
  out[0] = static_cast<std::uint8_t>(kQuant);
  std::memcpy(out.data() + 1, &scale, sizeof(scale));
  auto* q = reinterpret_cast<std::int8_t*>(out.data() + 1 + sizeof(double));
  for (std::size_t i = 0; i < n; ++i) {
    const double t = values[i] + stream.err[i];
    long qi = 0;
    if (scale > 0.0 && std::isfinite(t)) {
      qi = std::lround(t / scale);
      qi = std::clamp(qi, -127L, 127L);
    }
    q[i] = static_cast<std::int8_t>(qi);
    const double deq = scale * static_cast<double>(qi);
    // Error feedback: the residual rides into the next round's frame, so
    // the time-averaged quantization drift is unbiased. Non-finite
    // inputs carry no residual (they quantize to 0 by definition).
    stream.err[i] = std::isfinite(t) ? t - deq : 0.0;
    values[i] = deq;
  }
  return out.size();
}

void WireCodec::encode(Message& msg) {
  Message* const one = &msg;
  encode(std::span<Message* const>(&one, 1));
}

void WireCodec::encode(std::span<Message* const> msgs) {
  // Resolve every stream under one lock; std::map nodes never move, so
  // the pointers stay valid while other threads insert. Already-coded
  // messages (relays, duplicates) keep their frame and get no stream.
  thread_local std::vector<Stream*> streams;
  streams.assign(msgs.size(), nullptr);
  {
    std::lock_guard lock(mutex_);
    for (std::size_t k = 0; k < msgs.size(); ++k) {
      const Message& m = *msgs[k];
      if (m.coded_bytes != 0) continue;
      streams[k] = &streams_[Key{m.sender, static_cast<std::uint8_t>(m.kind),
                                 m.device_type}];
    }
  }
  CodecStats delta;
  for (std::size_t k = 0; k < msgs.size(); ++k) {
    if (streams[k] != nullptr) encode_on(*streams[k], *msgs[k], delta);
  }
  std::lock_guard lock(mutex_);
  stats_ += delta;
}

void WireCodec::encode_on(Stream& stream, Message& msg, CodecStats& stats) {
  // Per-thread scratch: concurrent encoders on distinct streams never
  // share a buffer, and a thread's buffers keep their capacity, so a
  // steady-state encode allocates nothing here.
  thread_local std::vector<std::uint8_t> frame;
  thread_local std::vector<double> verify;
  const std::size_t n = msg.payload.size();
  std::size_t coded = 0;
  if (options_.quantize) {
    const std::span<const double> in = msg.payload.span();
    std::vector<double> delivered(in.begin(), in.end());
    const std::uint64_t t0 = now_ns();
    coded = encode_quant(stream, delivered, frame);
    const std::uint64_t t1 = now_ns();
    stats.encode_ns += t1 - t0;
    decode_frame(std::span<const std::uint8_t>(frame.data(), coded), {}, n,
                 verify);
    stats.decode_ns += now_ns() - t1;
    if (verify.size() != delivered.size() ||
        (n > 0 && std::memcmp(verify.data(), delivered.data(),
                              n * sizeof(double)) != 0)) {
      throw std::logic_error("codec: quant frame round-trip mismatch");
    }
    msg.payload.assign(delivered.begin(), delivered.end());
  } else {
    const std::span<const double> values = msg.payload.span();
    const std::uint64_t t0 = now_ns();
    coded = encode_frame(values, stream.prev, frame);
    const std::uint64_t t1 = now_ns();
    stats.encode_ns += t1 - t0;
    // Verify-on-encode: the decoder runs against the same previous frame
    // the encoder delta'd against, on every message of every run.
    decode_frame(std::span<const std::uint8_t>(frame.data(), coded),
                 stream.prev, n, verify);
    stats.decode_ns += now_ns() - t1;
    if (verify.size() != n ||
        (n > 0 &&
         std::memcmp(verify.data(), values.data(), n * sizeof(double)) != 0)) {
      throw std::logic_error("codec: lossless round-trip mismatch");
    }
    if (frame[0] != kRepeat) {
      stream.prev.assign(values.begin(), values.end());
    }
  }
  msg.coded_bytes = coded;
  ++stats.frames;
  if (frame[0] == kRepeat) ++stats.repeat_frames;
  if (frame[0] == kRaw) ++stats.raw_escapes;
  stats.raw_bytes += n * sizeof(double);
  stats.coded_bytes += coded;
}

void WireCodec::reset_agent(AgentId sender) {
  std::lock_guard lock(mutex_);
  std::erase_if(streams_, [sender](const auto& kv) {
    return std::get<0>(kv.first) == sender;
  });
}

void WireCodec::reset_streams() {
  std::lock_guard lock(mutex_);
  streams_.clear();
}

CodecStats WireCodec::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

void WireCodec::reset_stats() {
  std::lock_guard lock(mutex_);
  stats_ = CodecStats{};
}

std::vector<CodecStreamSnapshot> WireCodec::capture_streams() const {
  std::lock_guard lock(mutex_);
  std::vector<CodecStreamSnapshot> out;
  out.reserve(streams_.size());
  for (const auto& [key, stream] : streams_) {
    CodecStreamSnapshot snap;
    snap.sender = std::get<0>(key);
    snap.kind = std::get<1>(key);
    snap.device_type = std::get<2>(key);
    snap.prev = stream.prev;
    snap.err = stream.err;
    out.push_back(std::move(snap));
  }
  return out;  // map order: sorted by key, so serialization is stable
}

void WireCodec::restore_streams(
    const std::vector<CodecStreamSnapshot>& streams) {
  std::lock_guard lock(mutex_);
  streams_.clear();
  for (const auto& snap : streams) {
    Stream& stream = streams_[Key{snap.sender, snap.kind, snap.device_type}];
    stream.prev = snap.prev;
    stream.err = snap.err;
  }
}

}  // namespace pfdrl::net
