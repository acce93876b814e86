#include "capture/trace.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "net/byte_io.h"
#include "util/check.h"

namespace sentinel::capture {

std::string ToString(TraceErrorKind kind) {
  switch (kind) {
    case TraceErrorKind::kTruncatedHeader:
      return "truncated_header";
    case TraceErrorKind::kBadMagic:
      return "bad_magic";
    case TraceErrorKind::kUnsupportedLinkType:
      return "unsupported_link_type";
    case TraceErrorKind::kTruncatedRecord:
      return "truncated_record";
    case TraceErrorKind::kOversizedRecord:
      return "oversized_record";
  }
  return "unknown";
}

std::string TraceError::ToString() const {
  return capture::ToString(kind) + " at record " +
         std::to_string(record_index) + (detail.empty() ? "" : ": " + detail);
}

namespace {

// Classic pcap framing.
constexpr std::uint32_t kPcapMagic = 0xa1b2c3d4;  // microsecond timestamps
constexpr std::uint32_t kPcapMagicSwapped = 0xd4c3b2a1;
constexpr std::uint32_t kLinkTypeEthernet = 1;
constexpr std::uint32_t kSnapLen = 65535;
constexpr std::size_t kGlobalHeaderBytes = 24;
constexpr std::size_t kRecordHeaderBytes = 16;

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

std::optional<Trace> Fail(TraceError* error, TraceErrorKind kind,
                          std::size_t record_index, std::string detail) {
  if (error != nullptr)
    *error = TraceError{kind, record_index, std::move(detail)};
  return std::nullopt;
}

/// The global header, little-endian as is conventional on x86 writers.
void WriteGlobalHeader(net::ByteWriter& w) {
  w.WriteU32Le(kPcapMagic);
  w.WriteU16Le(2);  // version major
  w.WriteU16Le(4);  // version minor
  w.WriteU32Le(0);  // thiszone
  w.WriteU32Le(0);  // sigfigs
  w.WriteU32Le(kSnapLen);
  w.WriteU32Le(kLinkTypeEthernet);
}

void WriteRecord(net::ByteWriter& w, const net::Frame& frame) {
  const std::uint64_t usec = frame.timestamp_ns / 1000;
  w.WriteU32Le(static_cast<std::uint32_t>(usec / 1000000));
  w.WriteU32Le(static_cast<std::uint32_t>(usec % 1000000));
  w.WriteU32Le(static_cast<std::uint32_t>(frame.bytes.size()));  // incl_len
  w.WriteU32Le(static_cast<std::uint32_t>(frame.bytes.size()));  // orig_len
  w.WriteBytes(frame.bytes);
}

}  // namespace

std::optional<Trace> Trace::FromPcap(std::span<const std::uint8_t> data,
                                     TraceError* error) {
  if (data.size() < kGlobalHeaderBytes)
    return Fail(error, TraceErrorKind::kTruncatedHeader, 0,
                "global header needs " + std::to_string(kGlobalHeaderBytes) +
                    " bytes, have " + std::to_string(data.size()));
  net::ByteReader r(data);
  const std::uint32_t magic = r.ReadU32Le();
  bool swapped = false;
  if (magic == kPcapMagicSwapped) {
    swapped = true;
  } else if (magic != kPcapMagic) {
    return Fail(error, TraceErrorKind::kBadMagic, 0,
                "magic 0x" + [magic] {
                  char buf[9];
                  std::snprintf(buf, sizeof(buf), "%08x", magic);
                  return std::string(buf);
                }());
  }
  auto u32 = [&] { return swapped ? r.ReadU32() : r.ReadU32Le(); };

  r.Skip(2 + 2 + 4 + 4);  // version major/minor, thiszone, sigfigs
  u32();                  // snaplen (writers disagree; records re-checked)
  const std::uint32_t link_type = u32();
  if (link_type != kLinkTypeEthernet)
    return Fail(error, TraceErrorKind::kUnsupportedLinkType, 0,
                "link type " + std::to_string(link_type));

  std::vector<net::Frame> frames;
  std::size_t record = 0;
  while (r.remaining() > 0) {
    if (r.remaining() < kRecordHeaderBytes)
      return Fail(error, TraceErrorKind::kTruncatedRecord, record,
                  "record header needs " +
                      std::to_string(kRecordHeaderBytes) + " bytes, have " +
                      std::to_string(r.remaining()));
    const std::uint32_t ts_sec = u32();
    const std::uint32_t ts_usec = u32();
    const std::uint32_t incl_len = u32();
    u32();  // orig_len
    if (incl_len > kSnapLen)
      return Fail(error, TraceErrorKind::kOversizedRecord, record,
                  "incl_len " + std::to_string(incl_len) + " exceeds snap " +
                      std::to_string(kSnapLen));
    if (r.remaining() < incl_len)
      return Fail(error, TraceErrorKind::kTruncatedRecord, record,
                  "payload needs " + std::to_string(incl_len) +
                      " bytes, have " + std::to_string(r.remaining()));
    const auto bytes = r.ReadBytes(incl_len);
    net::Frame f;
    f.timestamp_ns = (std::uint64_t{ts_sec} * 1000000 + ts_usec) * 1000;
    f.bytes.assign(bytes.begin(), bytes.end());
    frames.push_back(std::move(f));
    ++record;
  }
  SENTINEL_DCHECK(r.AtEnd()) << "pcap walk left " << r.remaining()
                             << " unconsumed bytes";
  return Trace(std::move(frames));
}

std::vector<std::uint8_t> EncodePcap(const std::vector<net::Frame>& frames) {
  net::ByteWriter w(kGlobalHeaderBytes + frames.size() * 96);
  WriteGlobalHeader(w);
  for (const net::Frame& frame : frames) WriteRecord(w, frame);
  return std::move(w).Take();
}

void WritePcapFile(const std::string& path,
                   const std::vector<net::Frame>& frames) {
  const auto data = EncodePcap(frames);
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (!f) throw std::runtime_error("cannot open " + path + " for writing");
  if (std::fwrite(data.data(), 1, data.size(), f.get()) != data.size())
    throw std::runtime_error("short write to " + path);
}

std::optional<Trace> ReadPcapFile(const std::string& path, TraceError* error) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) throw std::runtime_error("cannot open " + path + " for reading");
  std::vector<std::uint8_t> data;
  std::uint8_t buf[65536];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f.get())) > 0)
    data.insert(data.end(), buf, buf + n);
  if (std::ferror(f.get()) != 0)
    throw std::runtime_error("read error on " + path);
  return Trace::FromPcap(data, error);
}

PcapFileSink::PcapFileSink(const std::string& path)
    : file_(std::fopen(path.c_str(), "wb")) {
  if (file_ == nullptr)
    throw std::runtime_error("cannot open " + path + " for writing");
  net::ByteWriter w(kGlobalHeaderBytes);
  WriteGlobalHeader(w);
  const auto header = w.bytes();
  if (std::fwrite(header.data(), 1, header.size(), file_) != header.size()) {
    std::fclose(file_);
    file_ = nullptr;
    throw std::runtime_error("short write of pcap header to " + path);
  }
}

PcapFileSink::~PcapFileSink() {
  if (file_ != nullptr) std::fclose(file_);
}

void PcapFileSink::Append(const net::Frame& frame) {
  net::ByteWriter w(kRecordHeaderBytes + frame.bytes.size());
  WriteRecord(w, frame);
  const auto record = w.bytes();
  if (std::fwrite(record.data(), 1, record.size(), file_) != record.size())
    throw std::runtime_error("short write of pcap record");
  std::fflush(file_);
  ++frames_written_;
}

void Trace::SortByTime() {
  std::stable_sort(frames_.begin(), frames_.end(),
                   [](const net::Frame& a, const net::Frame& b) {
                     return a.timestamp_ns < b.timestamp_ns;
                   });
}

std::vector<net::ParsedPacket> Trace::Parse() const {
  std::vector<net::ParsedPacket> out;
  out.reserve(frames_.size());
  for (const net::Frame& f : frames_) {
    try {
      out.push_back(net::ParseFrame(f));
    } catch (const net::CodecError&) {
      // Malformed frame: skip, as a live monitor would.
    }
  }
  return out;
}

RingTrace::RingTrace(std::size_t capacity) : buffer_(std::max<std::size_t>(1, capacity)) {}

void RingTrace::Append(net::Frame frame) {
  buffer_[head_] = std::move(frame);
  head_ = (head_ + 1) % buffer_.size();
  if (head_ == 0) full_ = true;
  ++total_appended_;
}

std::vector<net::Frame> RingTrace::Snapshot() const {
  std::vector<net::Frame> out;
  out.reserve(size());
  if (full_) {
    for (std::size_t i = head_; i < buffer_.size(); ++i)
      out.push_back(buffer_[i]);
  }
  for (std::size_t i = 0; i < head_; ++i) out.push_back(buffer_[i]);
  return out;
}

std::vector<net::Frame> RingTrace::SnapshotFor(const net::MacAddress& mac,
                                               std::size_t limit) const {
  std::vector<net::Frame> matched;
  for (const auto& frame : Snapshot()) {
    try {
      if (net::ParseFrame(frame).src_mac == mac) matched.push_back(frame);
    } catch (const net::CodecError&) {
    }
  }
  if (matched.size() > limit)
    matched.erase(matched.begin(),
                  matched.end() - static_cast<std::ptrdiff_t>(limit));
  return matched;
}

std::map<net::MacAddress, std::vector<net::ParsedPacket>> SplitBySourceMac(
    const std::vector<net::ParsedPacket>& packets) {
  std::map<net::MacAddress, std::vector<net::ParsedPacket>> out;
  for (const auto& p : packets) out[p.src_mac].push_back(p);
  return out;
}

}  // namespace sentinel::capture
