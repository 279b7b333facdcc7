// Wire codec for parameter payloads — the bytes-per-round hot path of
// federated training (docs/wire.md).
//
// Successive broadcasts of one model differ in a few low mantissa bits
// once training converges, so the codec keeps one *stream* per
// (sender, message kind, device type) holding the previous round's
// frame, XORs the new fp64 vector against it (Gorilla/FPC-style), and
// packs the sparse-leading-zero residuals with a branch-free
// nibble-length scheme: a 4-bit significant-byte count per value, then
// the significant little-endian bytes. The transform is **lossless** —
// decoded parameters are bitwise identical to what the sender encoded,
// so every golden test passes unmodified with the codec on. Frames that
// would expand (first round, incompressible deltas) fall back to a raw
// escape, and an exact retransmission collapses to a one-byte repeat
// frame.
//
// An opt-in lossy mode (--wire-quant) int8-quantizes each frame with a
// per-stream error-feedback accumulator: the quantization residual is
// carried into the next round's frame, so the time-averaged drift is
// unbiased. Delivered payloads are the dequantized values — receivers
// on one bus all observe the same doubles, and twin identically seeded
// runs stay bitwise equal to each other (but not to an unquantized
// run, so the mode is excluded from the bitwise goldens).
//
// Every encode immediately decodes its own frame and verifies the
// round-trip bitwise (throwing on any mismatch), so the decoder is
// exercised on every message of every run, not just in tests. See
// docs/wire.md for the stream-state contract a multi-process deployment
// must add (per-receiver mirrors, keyframe on resync).
//
// Concurrency: encodes on *distinct* streams may run concurrently. The
// codec mutex guards only the stream-map lookup and the stats fold (once
// per encode call, so a batch pays them once); the frame and verify
// scratch is per thread. At most one encoder may run per stream at a
// time, and reset_agent/reset_streams/restore_streams must not overlap
// an encode of a stream they drop — fl::ParamExchange encodes one batch
// per disjoint range of senders, after the round's crash resets.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <tuple>
#include <vector>

#include "net/message.hpp"

namespace pfdrl::net {

struct CodecOptions {
  /// Lossy int8 quantization with per-stream error feedback. Default off
  /// — the lossless delta/XOR path is always active when a codec is
  /// attached to a bus.
  bool quantize = false;
};

struct CodecStats {
  /// Frames encoded (one per coded message).
  std::uint64_t frames = 0;
  /// Frames that collapsed to the one-byte repeat marker.
  std::uint64_t repeat_frames = 0;
  /// Frames that fell back to the raw escape (delta would have expanded).
  std::uint64_t raw_escapes = 0;
  /// Payload bytes before coding (8 * values).
  std::uint64_t raw_bytes = 0;
  /// Frame bytes after coding.
  std::uint64_t coded_bytes = 0;
  /// Wall nanoseconds spent encoding (packing only, verify excluded),
  /// summed over every encoding thread — CPU time, not elapsed time.
  std::uint64_t encode_ns = 0;
  /// Wall nanoseconds spent in the verify decodes, summed the same way.
  std::uint64_t decode_ns = 0;

  CodecStats& operator+=(const CodecStats& o) noexcept {
    frames += o.frames;
    repeat_frames += o.repeat_frames;
    raw_escapes += o.raw_escapes;
    raw_bytes += o.raw_bytes;
    coded_bytes += o.coded_bytes;
    encode_ns += o.encode_ns;
    decode_ns += o.decode_ns;
    return *this;
  }

  /// Compression ratio raw/coded; 1.0 before any frame.
  [[nodiscard]] double ratio() const noexcept {
    return coded_bytes > 0
               ? static_cast<double>(raw_bytes) / static_cast<double>(coded_bytes)
               : 1.0;
  }
};

/// One stream's resumable state, captured into sim::RunSnapshot so a
/// crash-resumed run encodes the same frame sequence (and byte counts)
/// as the uninterrupted one.
struct CodecStreamSnapshot {
  std::uint64_t sender = 0;
  std::uint8_t kind = 0;
  std::uint32_t device_type = 0;
  std::vector<double> prev;  ///< previous frame's values (bitwise)
  std::vector<double> err;   ///< quant error-feedback accumulator
};

class WireCodec {
 public:
  /// Frame type tag — the first byte of every coded frame.
  enum Flag : std::uint8_t {
    kPacked = 0,  ///< nibble-length packed XOR delta vs `prev`
    kRaw = 1,     ///< raw escape: 8n literal bytes
    kRepeat = 2,  ///< bitwise retransmission of `prev`
    kQuant = 3,   ///< int8 quantized: 8-byte scale + n bytes
  };

  explicit WireCodec(CodecOptions options = {}) : options_(options) {}

  /// Encode msg.payload on the stream keyed by (sender, kind,
  /// device_type) and stamp msg.coded_bytes with the frame size. In
  /// quantize mode the payload is replaced with the dequantized values
  /// every receiver observes. No-op if the message is already coded
  /// (relays and duplicates keep the original frame size). Verifies the
  /// frame round-trips bitwise; throws std::logic_error if not. Safe to
  /// call concurrently for messages on distinct streams.
  void encode(Message& msg);
  /// encode() over a batch, in order: one stream-lookup pass and one
  /// stats fold per call, so concurrent batches on disjoint streams meet
  /// on the codec mutex twice per batch instead of twice per message.
  void encode(std::span<Message* const> msgs);

  /// Drop every stream owned by `sender` — called when the residence
  /// crashes or warm-restarts, because its receivers' mirrors are stale;
  /// the next frame is a keyframe (delta vs zero).
  void reset_agent(AgentId sender);
  /// Drop all stream state (streams only; stats survive).
  void reset_streams();

  [[nodiscard]] CodecStats stats() const;
  void reset_stats();

  [[nodiscard]] bool quantize() const noexcept { return options_.quantize; }

  /// Stream state snapshot/restore (sim::RunSnapshot) — sorted by key,
  /// so serialization is deterministic.
  [[nodiscard]] std::vector<CodecStreamSnapshot> capture_streams() const;
  void restore_streams(const std::vector<CodecStreamSnapshot>& streams);

  // --- stateless frame layer (benches and tests drive this directly) ---

  /// Encode `values` as a delta frame against `prev` (empty or
  /// size-mismatched `prev` means keyframe: delta vs zero bits).
  /// Appends nothing; `out` is overwritten. Returns the frame size.
  static std::size_t encode_frame(std::span<const double> values,
                                  std::span<const double> prev,
                                  std::vector<std::uint8_t>& out);

  /// Decode a frame produced by encode_frame back into `count` doubles.
  /// `prev` must be the same previous-frame contents the encoder saw.
  /// Throws std::runtime_error on truncated, trailing-garbage or
  /// malformed input; never reads out of bounds. A packed frame's nibble
  /// table is validated whole before any value is decoded.
  static void decode_frame(std::span<const std::uint8_t> frame,
                           std::span<const double> prev, std::size_t count,
                           std::vector<double>& out);

  /// Worst-case frame size for `count` doubles (the raw escape).
  [[nodiscard]] static constexpr std::size_t max_frame_bytes(
      std::size_t count) noexcept {
    return 1 + count * sizeof(double);
  }

 private:
  struct Stream {
    std::vector<double> prev;
    std::vector<double> err;
  };
  using Key = std::tuple<std::uint64_t, std::uint8_t, std::uint32_t>;

  /// Encode one uncoded message on `stream` into the calling thread's
  /// scratch, verify it, stamp msg.coded_bytes and add to `stats`.
  void encode_on(Stream& stream, Message& msg, CodecStats& stats);
  /// Quantize `values` (plus carried error) into the stream's int8 frame
  /// and overwrite `values` with the dequantized result. Returns the
  /// frame size. Updates stream.err.
  std::size_t encode_quant(Stream& stream, std::vector<double>& values,
                           std::vector<std::uint8_t>& out);

  CodecOptions options_;
  /// Guards streams_' shape (lookup/insert/erase) and stats_; a Stream's
  /// contents belong to the one encoder running on it.
  mutable std::mutex mutex_;
  std::map<Key, Stream> streams_;  // node-based: a Stream never moves
  CodecStats stats_;
};

}  // namespace pfdrl::net
