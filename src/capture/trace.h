// Capture traces, their classic pcap file form, and per-device traffic
// splitting.
//
// A Trace is an ordered sequence of captured frames as seen on the gateway's
// monitored interfaces. On disk and on the wire (POST /ingest) a trace is a
// classic libpcap capture (LINKTYPE_ETHERNET, microsecond timestamps), the
// format tcpdump and Wireshark exchange; this file holds its one encoder and
// its one decoder. The gateway fingerprints *per device*, so the splitter
// groups frames by source MAC while preserving arrival order.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "net/frame.h"

namespace sentinel::capture {

/// Why an untrusted capture failed to parse. One enumerator per malformed-
/// input class seen during fuzz bring-up, so callers (and tests) can react
/// to the specific failure instead of matching exception strings.
enum class TraceErrorKind {
  kTruncatedHeader,      ///< global pcap header shorter than 24 bytes
  kBadMagic,             ///< not the classic pcap magic in either byte order
  kUnsupportedLinkType,  ///< link type other than LINKTYPE_ETHERNET
  kTruncatedRecord,      ///< record header or payload cut short
  kOversizedRecord,      ///< incl_len above the 65535 snap length
};

/// Human-readable name of a TraceErrorKind ("truncated_record", ...).
std::string ToString(TraceErrorKind kind);

/// Typed parse error for a capture. `record_index` is the index of the
/// record being parsed when the failure hit (0 while still inside the
/// global header).
struct TraceError {
  TraceErrorKind kind = TraceErrorKind::kBadMagic;
  std::size_t record_index = 0;
  std::string detail;

  [[nodiscard]] std::string ToString() const;
};

/// Ordered capture of raw frames (what tcpdump on the gateway records).
class Trace {
 public:
  Trace() = default;
  explicit Trace(std::vector<net::Frame> frames) : frames_(std::move(frames)) {}

  void Append(net::Frame frame) { frames_.push_back(std::move(frame)); }
  void Append(const Trace& other) {
    frames_.insert(frames_.end(), other.frames_.begin(), other.frames_.end());
  }

  [[nodiscard]] const std::vector<net::Frame>& frames() const {
    return frames_;
  }
  [[nodiscard]] std::size_t size() const { return frames_.size(); }
  [[nodiscard]] bool empty() const { return frames_.empty(); }

  /// Stable-sorts frames by capture timestamp (captures merged from two
  /// interfaces may interleave out of order).
  void SortByTime();

  /// Parses every frame; frames that fail to parse are skipped (a real
  /// monitor drops malformed frames rather than aborting the capture).
  /// Returns packets in trace order.
  [[nodiscard]] std::vector<net::ParsedPacket> Parse() const;

  /// Parses a classic pcap byte image (either byte order) into a Trace.
  /// All-or-nothing: on malformed input `error` is filled and nullopt is
  /// returned — never a partially-filled Trace (truncated hostile captures
  /// must not masquerade as short legitimate ones). `error` may be nullptr
  /// when the caller only needs the success/failure bit. Never throws.
  [[nodiscard]] static std::optional<Trace> FromPcap(
      std::span<const std::uint8_t> data, TraceError* error = nullptr);

 private:
  std::vector<net::Frame> frames_;
};

/// Encodes `frames` as a classic pcap image (little-endian headers).
std::vector<std::uint8_t> EncodePcap(const std::vector<net::Frame>& frames);

/// Writes `frames` as a classic pcap file. Throws std::runtime_error on I/O
/// failure.
void WritePcapFile(const std::string& path,
                   const std::vector<net::Frame>& frames);

/// Reads a pcap file written here, by tcpdump or by Wireshark, and parses
/// it like Trace::FromPcap. I/O failures (missing file, unreadable) throw
/// std::runtime_error; malformed content reports a typed TraceError.
[[nodiscard]] std::optional<Trace> ReadPcapFile(const std::string& path,
                                                TraceError* error = nullptr);

/// Streaming pcap writer: opens the file and writes the global header on
/// construction, appends one record per Append() and flushes each record —
/// the long-running capture path of a gateway that logs everything it
/// monitors (a crash loses at most the frame being written).
class PcapFileSink {
 public:
  /// Throws std::runtime_error when the file cannot be opened.
  explicit PcapFileSink(const std::string& path);
  ~PcapFileSink();

  PcapFileSink(const PcapFileSink&) = delete;
  PcapFileSink& operator=(const PcapFileSink&) = delete;

  /// Appends one frame. Throws std::runtime_error on I/O failure.
  void Append(const net::Frame& frame);

  [[nodiscard]] std::uint64_t frames_written() const {
    return frames_written_;
  }

 private:
  std::FILE* file_ = nullptr;
  std::uint64_t frames_written_ = 0;
};

/// Splits a parsed capture by source MAC, preserving per-device order.
std::map<net::MacAddress, std::vector<net::ParsedPacket>> SplitBySourceMac(
    const std::vector<net::ParsedPacket>& packets);

/// Bounded capture buffer: keeps the most recent `capacity` frames,
/// overwriting the oldest. Gateways run with finite memory; the ring is
/// what backs "show me the last N frames of this device" style forensics
/// after an incident.
class RingTrace {
 public:
  explicit RingTrace(std::size_t capacity);

  void Append(net::Frame frame);
  /// Frames in arrival order (oldest first). Size <= capacity.
  [[nodiscard]] std::vector<net::Frame> Snapshot() const;
  /// Most recent frames from `mac` (up to `limit`), oldest first.
  [[nodiscard]] std::vector<net::Frame> SnapshotFor(
      const net::MacAddress& mac, std::size_t limit) const;

  [[nodiscard]] std::size_t size() const {
    return full_ ? buffer_.size() : head_;
  }
  [[nodiscard]] std::size_t capacity() const { return buffer_.size(); }
  [[nodiscard]] std::uint64_t total_appended() const {
    return total_appended_;
  }

 private:
  std::vector<net::Frame> buffer_;
  std::size_t head_ = 0;  // next write slot
  bool full_ = false;
  std::uint64_t total_appended_ = 0;
};

}  // namespace sentinel::capture
