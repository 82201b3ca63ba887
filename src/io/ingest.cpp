#include "io/ingest.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

#include "trafficgen/pcap_io.hpp"

namespace iguard::io {

namespace {

constexpr std::size_t kMaxDetailBytes = 160;

/// One unsigned integer field of a CSV row, scanned and accumulated in a
/// single pass with exactly std::from_chars' whole-field rules: at least one
/// ASCII digit, nothing else, value <= T's max. The field ends at a ','
/// (consumed) or at `end`; the caller has checked the row's comma count, so
/// only the last field can reach `end`.
template <typename T>
bool scan_uint(const char*& p, const char* end, T& out) {
  const char* const first = p;
  std::uint64_t v = 0;
  for (; p != end; ++p) {
    const unsigned d = static_cast<unsigned char>(*p) - unsigned{'0'};
    if (d > 9) break;
    v = v * 10 + d;
    if (v > std::numeric_limits<T>::max()) return false;
  }
  if (p == first) return false;
  out = static_cast<T>(v);
  return p == end || *p++ == ',';
}

std::string clip(std::string s) {
  if (s.size() > kMaxDetailBytes) s.resize(kMaxDetailBytes);
  return s;
}

}  // namespace

std::string_view category_name(IngestErrorCategory c) {
  switch (c) {
    case IngestErrorCategory::kTruncated: return "truncated";
    case IngestErrorCategory::kBadField: return "bad_field";
    case IngestErrorCategory::kRangeViolation: return "range_violation";
    case IngestErrorCategory::kUnsupported: return "unsupported";
    case IngestErrorCategory::kOversized: return "oversized";
    case IngestErrorCategory::kBudget: return "budget";
    case IngestErrorCategory::kContainer: return "container";
  }
  return "unknown";
}

void QuarantineRing::push(IngestErrorCategory cat, std::uint64_t record_index,
                          std::string detail, std::string_view raw) {
  IngestError e;
  e.category = cat;
  e.record_index = record_index;
  e.detail = clip(std::move(detail));
  e.snippet.assign(raw.substr(0, snippet_bytes_));
  if (capacity_ == 0) {
    ++evicted_;
    return;
  }
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(e));
    return;
  }
  ring_[start_] = std::move(e);
  start_ = (start_ + 1) % capacity_;
  ++evicted_;
}

void QuarantineRing::reset(std::size_t capacity, std::size_t snippet_bytes) {
  capacity_ = capacity;
  snippet_bytes_ = snippet_bytes;
  ring_.clear();
  start_ = 0;
  evicted_ = 0;
}

bool IngestStats::conserved() const {
  std::uint64_t by_cat = 0;
  for (const auto n : by_category) by_cat += n;
  return offered == accepted + quarantined && quarantined == by_cat;
}

std::string trace_to_csv(const traffic::Trace& trace) {
  std::string out;
  out.reserve(trace.size() * 64 + 80);
  out.append(kTraceCsvHeader);
  out.push_back('\n');
  char row[192];
  for (const auto& p : trace.packets) {
    // %.17g round-trips every finite double bit-exactly.
    const int n = std::snprintf(row, sizeof(row), "%.17g,%u,%u,%u,%u,%u,%u,%u,%u,%u,%u\n",
                                p.ts, p.ft.src_ip, p.ft.dst_ip, unsigned{p.ft.src_port},
                                unsigned{p.ft.dst_port}, unsigned{p.ft.proto},
                                unsigned{p.length}, unsigned{p.ttl},
                                static_cast<unsigned>(p.flags), p.malicious ? 1u : 0u,
                                p.flow_id);
    out.append(row, static_cast<std::size_t>(n));
  }
  return out;
}

TraceReader::TraceReader(TraceReaderConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.metrics != nullptr && cfg_.metrics->enabled()) {
    const std::string& p = cfg_.metrics_prefix;
    obs_.offered = cfg_.metrics->counter(p + ".offered");
    obs_.accepted = cfg_.metrics->counter(p + ".accepted");
    obs_.quarantined = cfg_.metrics->counter(p + ".quarantined");
    obs_.clamped = cfg_.metrics->counter(p + ".timestamps_clamped");
    for (std::size_t i = 0; i < kIngestCategories; ++i) {
      obs_.by_category[i] = cfg_.metrics->counter(
          p + ".quarantine." +
          std::string(category_name(static_cast<IngestErrorCategory>(i))));
    }
  }
}

void TraceReader::count(IngestResult& r, IngestErrorCategory cat, std::uint64_t index,
                        std::string detail, std::string_view raw) const {
  ++r.stats.quarantined;
  ++r.stats.by_category[static_cast<std::size_t>(cat)];
  r.quarantine.push(cat, index, std::move(detail), raw);
}

void TraceReader::finish(IngestResult& r) const {
  obs_.offered.inc(r.stats.offered);
  obs_.accepted.inc(r.stats.accepted);
  obs_.quarantined.inc(r.stats.quarantined);
  obs_.clamped.inc(r.stats.timestamps_clamped);
  for (std::size_t i = 0; i < kIngestCategories; ++i) {
    obs_.by_category[i].inc(r.stats.by_category[i]);
  }
}

namespace {

/// Shared timestamp sanitiser: clamp negatives to zero and regressions to
/// the running maximum (the same floor to_us() applies downstream), or
/// report a violation in strict mode. Returns false when the packet must be
/// quarantined instead of accepted.
bool sanitise_ts(double& ts, double& prev_ts, bool clamp, IngestStats& stats,
                 std::string* why) {
  double v = ts;
  if (v < 0.0) {
    if (!clamp) {
      if (why != nullptr) *why = "ts: negative timestamp in strict mode";
      return false;
    }
    v = 0.0;
  }
  if (v < prev_ts) {
    if (!clamp) {
      if (why != nullptr) *why = "ts: timestamp regression in strict mode";
      return false;
    }
    v = prev_ts;
  }
  if (v != ts) {
    ts = v;
    ++stats.timestamps_clamped;
  }
  prev_ts = v;
  return true;
}

}  // namespace

void TraceReader::read_csv(std::string_view bytes, IngestResult& r) const {
  // Header line first: its absence is container damage, counted as one
  // offered+quarantined record so conservation covers the probe itself.
  std::size_t pos = 0;
  {
    std::size_t eol = bytes.find('\n');
    std::string_view header = bytes.substr(0, eol == std::string_view::npos ? bytes.size() : eol);
    if (!header.empty() && header.back() == '\r') header.remove_suffix(1);
    if (header != kTraceCsvHeader) {
      ++r.stats.offered;
      count(r, IngestErrorCategory::kContainer, 0, "csv: missing or malformed header",
            header);
      r.container_ok = false;
      r.container_error = "csv: missing or malformed header";
      return;
    }
    pos = eol == std::string_view::npos ? bytes.size() : eol + 1;
  }

  double prev_ts = 0.0;
  while (pos < bytes.size()) {
    std::size_t eol = bytes.find('\n', pos);
    if (eol == std::string_view::npos) eol = bytes.size();
    std::string_view row = bytes.substr(pos, eol - pos);
    pos = eol + 1;
    if (!row.empty() && row.back() == '\r') row.remove_suffix(1);
    if (row.empty()) continue;  // blank separator lines are not records

    ++r.stats.offered;
    const std::uint64_t idx = r.stats.offered - 1;

    if (row.size() > cfg_.limits.max_record_bytes) {
      count(r, IngestErrorCategory::kOversized, idx, "csv: row exceeds max_record_bytes",
            row);
      continue;
    }
    if (cfg_.limits.max_records != 0 && r.stats.accepted >= cfg_.limits.max_records) {
      count(r, IngestErrorCategory::kBudget, idx, "csv: max_records budget exhausted", row);
      continue;
    }

    // Field count first, so a row with the wrong shape reports it before
    // any field error: exactly 10 commas, i.e. 11 fields.
    const auto commas = std::count(row.begin(), row.end(), ',');
    if (commas > 10) {
      count(r, IngestErrorCategory::kBadField, idx, "csv: more than 11 fields", row);
      continue;
    }
    if (commas < 10) {
      count(r, IngestErrorCategory::kTruncated, idx,
            "csv: " + std::to_string(commas + 1) + " of 11 fields", row);
      continue;
    }

    // Then one scan: ts up to the first comma, and the ten integer fields,
    // each ending at a comma and the last at the row's end.
    const char* p = row.data();
    const char* const end = row.data() + row.size();
    traffic::Packet pkt;
    const auto ts = std::from_chars(p, end, pkt.ts);
    if (ts.ec != std::errc{} || *ts.ptr != ',' || !std::isfinite(pkt.ts)) {
      count(r, IngestErrorCategory::kBadField, idx, "csv: ts is not a finite number", row);
      continue;
    }
    p = ts.ptr + 1;
    std::uint8_t flags = 0, malicious = 0;
    if (!scan_uint(p, end, pkt.ft.src_ip) || !scan_uint(p, end, pkt.ft.dst_ip) ||
        !scan_uint(p, end, pkt.ft.src_port) || !scan_uint(p, end, pkt.ft.dst_port) ||
        !scan_uint(p, end, pkt.ft.proto) || !scan_uint(p, end, pkt.length) ||
        !scan_uint(p, end, pkt.ttl) || !scan_uint(p, end, flags) ||
        !scan_uint(p, end, malicious) || !scan_uint(p, end, pkt.flow_id)) {
      count(r, IngestErrorCategory::kBadField, idx,
            "csv: numeric field failed strict parse or overflowed its width", row);
      continue;
    }
    if (pkt.ft.proto != traffic::kProtoTcp && pkt.ft.proto != traffic::kProtoUdp &&
        pkt.ft.proto != traffic::kProtoIcmp) {
      count(r, IngestErrorCategory::kUnsupported, idx,
            "csv: proto " + std::to_string(unsigned{pkt.ft.proto}) + " not in {1,6,17}", row);
      continue;
    }
    if (flags > 5) {
      count(r, IngestErrorCategory::kRangeViolation, idx,
            "csv: flags ordinal " + std::to_string(unsigned{flags}) + " > 5", row);
      continue;
    }
    if (malicious > 1) {
      count(r, IngestErrorCategory::kRangeViolation, idx, "csv: malicious must be 0/1", row);
      continue;
    }
    pkt.flags = static_cast<traffic::TcpFlag>(flags);
    pkt.malicious = malicious != 0;

    std::string why;
    if (!sanitise_ts(pkt.ts, prev_ts, cfg_.clamp_timestamps, r.stats, &why)) {
      count(r, IngestErrorCategory::kRangeViolation, idx, "csv: " + why, row);
      continue;
    }
    ++r.stats.accepted;
    r.trace.packets.push_back(pkt);
  }
}

void TraceReader::read_pcap(std::string_view bytes, IngestResult& r) const {
  const auto container_fail = [&](const std::string& msg) {
    ++r.stats.offered;
    count(r, IngestErrorCategory::kContainer, 0, msg, bytes.substr(0, 24));
    r.container_ok = false;
    r.container_error = msg;
  };

  if (bytes.size() < traffic::kPcapGlobalHeaderLen) {
    container_fail("pcap: truncated global header");
    return;
  }
  const auto rd32 = [&](std::size_t off) {
    std::uint32_t v;
    std::memcpy(&v, bytes.data() + off, sizeof(v));
    return v;
  };
  if (rd32(0) != traffic::kPcapMagicLE) {
    container_fail("pcap: unsupported magic/endianness");
    return;
  }
  if (rd32(20) != traffic::kPcapLinkEthernet) {
    container_fail("pcap: not Ethernet link type");
    return;
  }

  double prev_ts = 0.0;
  std::size_t pos = traffic::kPcapGlobalHeaderLen;
  while (pos < bytes.size()) {
    ++r.stats.offered;
    const std::uint64_t idx = r.stats.offered - 1;
    if (bytes.size() - pos < traffic::kPcapRecordHeaderLen) {
      count(r, IngestErrorCategory::kTruncated, idx, "pcap: truncated record header",
            bytes.substr(pos));
      break;
    }
    const std::uint32_t ts_sec = rd32(pos);
    const std::uint32_t ts_usec = rd32(pos + 4);
    const std::uint32_t incl = rd32(pos + 8);
    const std::uint32_t orig = rd32(pos + 12);
    pos += traffic::kPcapRecordHeaderLen;

    if (incl > cfg_.limits.max_record_bytes) {
      // The frame length itself is untrustworthy: skipping `incl` bytes
      // would let a forged length teleport the cursor, so stop framing.
      count(r, IngestErrorCategory::kOversized, idx,
            "pcap: incl_len " + std::to_string(incl) + " exceeds max_record_bytes",
            bytes.substr(pos - traffic::kPcapRecordHeaderLen, 32));
      break;
    }
    if (bytes.size() - pos < incl) {
      count(r, IngestErrorCategory::kTruncated, idx, "pcap: truncated record body",
            bytes.substr(pos));
      break;
    }
    const std::string_view frame = bytes.substr(pos, incl);
    pos += incl;

    if (cfg_.limits.max_records != 0 && r.stats.accepted >= cfg_.limits.max_records) {
      count(r, IngestErrorCategory::kBudget, idx, "pcap: max_records budget exhausted",
            frame);
      continue;
    }

    traffic::Packet p;
    const auto status = traffic::parse_pcap_record(ts_sec, ts_usec, orig, frame, p);
    switch (status) {
      case traffic::PcapRecordStatus::kOk:
        break;
      case traffic::PcapRecordStatus::kTruncated:
        count(r, IngestErrorCategory::kTruncated, idx, "pcap: frame below header stack",
              frame);
        continue;
      case traffic::PcapRecordStatus::kNotIpv4:
        count(r, IngestErrorCategory::kUnsupported, idx, "pcap: not IPv4", frame);
        continue;
      case traffic::PcapRecordStatus::kBadIpv4Header:
        count(r, IngestErrorCategory::kBadField, idx, "pcap: bad IPv4 header", frame);
        continue;
      case traffic::PcapRecordStatus::kUnsupportedProto:
        count(r, IngestErrorCategory::kUnsupported, idx, "pcap: proto not in {1,6,17}",
              frame);
        continue;
      case traffic::PcapRecordStatus::kBadLength:
        count(r, IngestErrorCategory::kRangeViolation, idx, "pcap: unrecoverable length",
              frame);
        continue;
      case traffic::PcapRecordStatus::kBadTimestamp:
        count(r, IngestErrorCategory::kRangeViolation, idx, "pcap: ts_usec > 999999",
              frame);
        continue;
    }

    std::string why;
    if (!sanitise_ts(p.ts, prev_ts, cfg_.clamp_timestamps, r.stats, &why)) {
      count(r, IngestErrorCategory::kRangeViolation, idx, "pcap: " + why, frame);
      continue;
    }
    ++r.stats.accepted;
    r.trace.packets.push_back(p);
  }
}

void TraceReader::reset(IngestResult& r) const {
  r.trace.packets.clear();
  r.stats = {};
  r.quarantine.reset(cfg_.limits.quarantine_capacity, cfg_.limits.quarantine_snippet_bytes);
  r.container_ok = true;
  r.container_error.clear();
}

void TraceReader::read_buffer(std::string_view bytes, IngestResult& out) const {
  reset(out);
  TraceFormat fmt = cfg_.format;
  if (fmt == TraceFormat::kAuto) {
    std::uint32_t magic = 0;
    if (bytes.size() >= sizeof(magic)) std::memcpy(&magic, bytes.data(), sizeof(magic));
    fmt = magic == traffic::kPcapMagicLE ? TraceFormat::kPcap : TraceFormat::kCsv;
  }
  if (fmt == TraceFormat::kPcap) {
    read_pcap(bytes, out);
  } else {
    read_csv(bytes, out);
  }
  finish(out);
}

IngestResult TraceReader::read_buffer(std::string_view bytes) const {
  IngestResult r;
  read_buffer(bytes, r);
  return r;
}

IngestResult TraceReader::read_file(const std::string& path) const {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    IngestResult r;
    reset(r);
    ++r.stats.offered;
    count(r, IngestErrorCategory::kContainer, 0, "cannot open " + path, {});
    r.container_ok = false;
    r.container_error = "cannot open " + path;
    finish(r);
    return r;
  }
  std::ostringstream ss;
  ss << f.rdbuf();
  const std::string bytes = ss.str();
  return read_buffer(bytes);
}

std::string_view packet_violation(const traffic::Packet& p) {
  if (!std::isfinite(p.ts)) return "ts is not finite";
  if (p.ft.proto != traffic::kProtoTcp && p.ft.proto != traffic::kProtoUdp &&
      p.ft.proto != traffic::kProtoIcmp) {
    return "proto not in {1,6,17}";
  }
  if (static_cast<std::uint8_t>(p.flags) > 5) return "flags ordinal > 5";
  return {};
}

IngestResult ingest_trace(const traffic::Trace& trace, const TraceReaderConfig& cfg) {
  TraceReader reader(cfg);
  IngestResult r;
  r.quarantine = QuarantineRing(cfg.limits.quarantine_capacity,
                                cfg.limits.quarantine_snippet_bytes);
  r.trace.packets.reserve(trace.size());

  double prev_ts = 0.0;
  char row[192];
  const auto snippet_of = [&](const traffic::Packet& p) {
    const int n = std::snprintf(row, sizeof(row), "%.17g,%u,%u,%u,%u,%u,%u,%u,%u,%u,%u",
                                p.ts, p.ft.src_ip, p.ft.dst_ip, unsigned{p.ft.src_port},
                                unsigned{p.ft.dst_port}, unsigned{p.ft.proto},
                                unsigned{p.length}, unsigned{p.ttl},
                                static_cast<unsigned>(p.flags), p.malicious ? 1u : 0u,
                                p.flow_id);
    return std::string_view(row, static_cast<std::size_t>(n));
  };
  struct CountHelper {
    IngestResult& r;
    void operator()(IngestErrorCategory cat, std::uint64_t idx, std::string detail,
                    std::string_view raw) {
      ++r.stats.quarantined;
      ++r.stats.by_category[static_cast<std::size_t>(cat)];
      r.quarantine.push(cat, idx, std::move(detail), raw);
    }
  } count{r};

  for (const auto& src : trace.packets) {
    ++r.stats.offered;
    const std::uint64_t idx = r.stats.offered - 1;
    if (cfg.limits.max_records != 0 && r.stats.accepted >= cfg.limits.max_records) {
      count(IngestErrorCategory::kBudget, idx, "trace: max_records budget exhausted",
            snippet_of(src));
      continue;
    }
    const std::string_view bad = packet_violation(src);
    if (!bad.empty()) {
      const auto cat = bad.substr(0, 5) == "proto" ? IngestErrorCategory::kUnsupported
                                                   : IngestErrorCategory::kRangeViolation;
      count(cat, idx, "trace: " + std::string(bad), snippet_of(src));
      continue;
    }
    traffic::Packet p = src;
    std::string why;
    if (!sanitise_ts(p.ts, prev_ts, cfg.clamp_timestamps, r.stats, &why)) {
      count(IngestErrorCategory::kRangeViolation, idx, "trace: " + why, snippet_of(src));
      continue;
    }
    ++r.stats.accepted;
    r.trace.packets.push_back(p);
  }

  // Route the totals into the reader's metrics (registered by its ctor).
  if (cfg.metrics != nullptr && cfg.metrics->enabled()) {
    const std::string& pfx = cfg.metrics_prefix;
    cfg.metrics->counter(pfx + ".offered").inc(r.stats.offered);
    cfg.metrics->counter(pfx + ".accepted").inc(r.stats.accepted);
    cfg.metrics->counter(pfx + ".quarantined").inc(r.stats.quarantined);
    cfg.metrics->counter(pfx + ".timestamps_clamped").inc(r.stats.timestamps_clamped);
    for (std::size_t i = 0; i < kIngestCategories; ++i) {
      cfg.metrics
          ->counter(pfx + ".quarantine." +
                    std::string(category_name(static_cast<IngestErrorCategory>(i))))
          .inc(r.stats.by_category[i]);
    }
  }
  return r;
}

void encode_digest(const switchsim::Digest& d, std::string& out) {
  const auto be32 = [&](std::uint32_t v) {
    out.push_back(static_cast<char>(v >> 24));
    out.push_back(static_cast<char>(v >> 16));
    out.push_back(static_cast<char>(v >> 8));
    out.push_back(static_cast<char>(v));
  };
  const auto be16 = [&](std::uint16_t v) {
    out.push_back(static_cast<char>(v >> 8));
    out.push_back(static_cast<char>(v));
  };
  be32(d.ft.src_ip);
  be32(d.ft.dst_ip);
  be16(d.ft.src_port);
  be16(d.ft.dst_port);
  out.push_back(static_cast<char>(d.ft.proto));
  out.push_back(static_cast<char>(d.label != 0 ? 1 : 0));
}

std::string encode_digest(const switchsim::Digest& d) {
  std::string out;
  out.reserve(switchsim::Digest::kBytes);
  encode_digest(d, out);
  return out;
}

bool decode_digest(std::string_view bytes, switchsim::Digest& out) {
  if (bytes.size() != switchsim::Digest::kBytes) return false;
  const auto* d = reinterpret_cast<const unsigned char*>(bytes.data());
  const auto rd32 = [&](std::size_t off) {
    return static_cast<std::uint32_t>(d[off]) << 24 | static_cast<std::uint32_t>(d[off + 1]) << 16 |
           static_cast<std::uint32_t>(d[off + 2]) << 8 | static_cast<std::uint32_t>(d[off + 3]);
  };
  const auto rd16 = [&](std::size_t off) {
    return static_cast<std::uint16_t>(d[off] << 8 | d[off + 1]);
  };
  const std::uint8_t proto = d[12];
  if (proto != traffic::kProtoTcp && proto != traffic::kProtoUdp &&
      proto != traffic::kProtoIcmp) {
    return false;
  }
  const std::uint8_t label = d[13];
  if (label > 1) return false;
  out.ft.src_ip = rd32(0);
  out.ft.dst_ip = rd32(4);
  out.ft.src_port = rd16(8);
  out.ft.dst_port = rd16(10);
  out.ft.proto = proto;
  out.label = label;
  return true;
}

std::vector<switchsim::Digest> decode_digest_stream(std::string_view bytes,
                                                    DigestDecodeStats& stats) {
  std::vector<switchsim::Digest> out;
  constexpr std::size_t kRec = switchsim::Digest::kBytes;
  out.reserve(bytes.size() / kRec);
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    ++stats.offered;
    if (bytes.size() - pos < kRec) {
      ++stats.rejected;  // trailing fragment
      break;
    }
    switchsim::Digest d;
    if (decode_digest(bytes.substr(pos, kRec), d)) {
      ++stats.decoded;
      out.push_back(d);
    } else {
      ++stats.rejected;
    }
    pos += kRec;
  }
  return out;
}

}  // namespace iguard::io
