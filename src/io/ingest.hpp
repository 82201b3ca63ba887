// Hardened ingest boundary (DESIGN.md §4g): every byte stream that claims to
// be a trace — CSV rows, pcap captures, digest wire records — crosses this
// layer before it reaches a pipeline. The contract is the inverse of the
// legacy loaders': malformed input NEVER throws and NEVER silently
// disappears. Each offered record is either accepted into the output trace
// or quarantined with a category, a bounded raw-byte snippet, and a counter,
// so `offered == accepted + quarantined` holds for every input, including
// adversarial garbage (the fuzz targets in fuzz/ abort if it ever does not).
//
// Timestamps are sanitised the same way the flow engine's to_us() clamp
// works (switchsim/flow_state.hpp): negative stamps clamp to zero and
// regressions clamp to the running maximum, each counted — so a hardened
// trace is monotone by construction and downstream epoch logic never sees
// time run backwards.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "switchsim/tables.hpp"
#include "trafficgen/packet.hpp"

namespace iguard::io {

/// Why a record was quarantined. Categories are coarse on purpose: they are
/// shed/alert dimensions, not a parser diagnostic (the detail string carries
/// the specifics).
enum class IngestErrorCategory : std::uint8_t {
  kTruncated = 0,    // record shorter than its format's minimum
  kBadField,         // a field failed to parse (non-numeric, wrong count)
  kRangeViolation,   // parsed fine but outside the schema's bounds
  kUnsupported,      // well-formed but outside the supported subset
  kOversized,        // record larger than IngestLimits::max_record_bytes
  kBudget,           // record beyond IngestLimits::max_records
  kContainer,        // stream-level damage (bad magic, truncated header)
};
inline constexpr std::size_t kIngestCategories = 7;

/// Stable lowercase name ("truncated", "bad_field", ...) — used as the
/// metrics key suffix and in quarantine dumps.
std::string_view category_name(IngestErrorCategory c);

/// One quarantined record.
struct IngestError {
  IngestErrorCategory category = IngestErrorCategory::kBadField;
  std::uint64_t record_index = 0;  // 0-based offered-record index
  std::string detail;              // what failed, bounded length
  std::string snippet;             // first N raw bytes of the record
};

/// Bounded ring of the most recent quarantined records: pushes beyond the
/// capacity evict the oldest entry (counted), so a garbage flood costs O(1)
/// memory — the per-category counters in IngestStats keep the totals.
class QuarantineRing {
 public:
  QuarantineRing() = default;
  explicit QuarantineRing(std::size_t capacity, std::size_t snippet_bytes)
      : capacity_(capacity), snippet_bytes_(snippet_bytes) {}

  void push(IngestErrorCategory cat, std::uint64_t record_index, std::string detail,
            std::string_view raw);
  /// Empty the ring and zero the eviction count under new bounds; the
  /// entries' storage is kept for reuse.
  void reset(std::size_t capacity, std::size_t snippet_bytes);

  std::size_t size() const { return ring_.size(); }
  std::size_t capacity() const { return capacity_; }
  std::uint64_t evicted() const { return evicted_; }
  /// Oldest-first access.
  const IngestError& operator[](std::size_t i) const {
    return ring_[(start_ + i) % ring_.size()];
  }

 private:
  std::size_t capacity_ = 64;
  std::size_t snippet_bytes_ = 64;
  std::vector<IngestError> ring_;
  std::size_t start_ = 0;  // index of the oldest entry once the ring wrapped
  std::uint64_t evicted_ = 0;
};

/// Per-component memory/volume budgets. Exceeding a budget degrades
/// gracefully: the excess is counted (kOversized / kBudget / ring eviction),
/// never allocated.
struct IngestLimits {
  std::size_t max_record_bytes = 1 << 20;  // one CSV row / pcap frame
  std::uint64_t max_records = 0;           // accepted-record cap; 0 = unlimited
  std::size_t quarantine_capacity = 64;
  std::size_t quarantine_snippet_bytes = 64;
};

/// Per-read accounting. `conserved()` is the identity every gate audits.
struct IngestStats {
  std::uint64_t offered = 0;      // records seen (well-formed or not)
  std::uint64_t accepted = 0;     // packets emitted into the trace
  std::uint64_t quarantined = 0;  // sum over by_category
  std::array<std::uint64_t, kIngestCategories> by_category{};
  std::uint64_t timestamps_clamped = 0;  // negative or non-monotone stamps fixed

  bool conserved() const;
  bool operator==(const IngestStats&) const = default;
};

enum class TraceFormat : std::uint8_t {
  kAuto = 0,  // pcap magic -> pcap, otherwise CSV
  kCsv,
  kPcap,
};

struct TraceReaderConfig {
  TraceFormat format = TraceFormat::kAuto;
  IngestLimits limits;
  /// Monotone-clamp timestamps (count each fix). When false, out-of-order
  /// stamps are quarantined as kRangeViolation instead — strict mode for
  /// sources that promise sorted input.
  bool clamp_timestamps = true;
  /// Optional caller-owned registry: offered/accepted/quarantined/clamped
  /// counters plus one counter per category under "<prefix>.".
  obs::Registry* metrics = nullptr;
  std::string metrics_prefix = "ingest";
};

/// Everything one read produced. The trace holds only accepted packets, in
/// offered order with sanitised timestamps.
struct IngestResult {
  traffic::Trace trace;
  IngestStats stats;
  QuarantineRing quarantine;
  /// False when the container itself was unusable (bad pcap magic, truncated
  /// global header): no records could even be framed. Still not an
  /// exception — stats.by_category[kContainer] counts it.
  bool container_ok = true;
  std::string container_error;
};

/// CSV schema (one packet per row, header required):
///   ts,src_ip,dst_ip,src_port,dst_port,proto,length,ttl,flags,malicious,flow_id
/// ts is seconds (printed %.17g so a write/read round-trip is bit-exact);
/// proto must be 1/6/17; flags is the TcpFlag ordinal (0..5); malicious is
/// 0/1. Parsing is std::from_chars-strict: leading '+', whitespace padding,
/// hex, or trailing junk in any field quarantines the row.
inline constexpr std::string_view kTraceCsvHeader =
    "ts,src_ip,dst_ip,src_port,dst_port,proto,length,ttl,flags,malicious,flow_id";

/// Serialise a trace in the schema above (the inverse of TraceReader's CSV
/// path for any trace that itself satisfies the schema bounds).
std::string trace_to_csv(const traffic::Trace& trace);

/// Strict, non-throwing reader for untrusted trace bytes. Construction
/// registers metrics (when attached); the read methods are safe to call on
/// arbitrary bytes and report via IngestResult only.
class TraceReader {
 public:
  explicit TraceReader(TraceReaderConfig cfg = {});

  /// Auto-detects pcap vs CSV unless cfg.format pins one.
  IngestResult read_buffer(std::string_view bytes) const;
  /// The same read into a caller-owned result: `out` is reset first (stats,
  /// quarantine, container state) but keeps its capacity, so a caller that
  /// reads batch after batch into one result stops allocating once the
  /// trace buffer has grown to its largest batch.
  void read_buffer(std::string_view bytes, IngestResult& out) const;
  /// An unreadable file is a container error (kContainer), not an exception.
  IngestResult read_file(const std::string& path) const;

  const TraceReaderConfig& config() const { return cfg_; }

 private:
  void reset(IngestResult& r) const;
  void read_csv(std::string_view bytes, IngestResult& r) const;
  void read_pcap(std::string_view bytes, IngestResult& r) const;
  void count(IngestResult& r, IngestErrorCategory cat, std::uint64_t index,
             std::string detail, std::string_view raw) const;
  void finish(IngestResult& r) const;

  TraceReaderConfig cfg_;
  struct Obs {
    obs::Counter offered, accepted, quarantined, clamped;
    std::array<obs::Counter, kIngestCategories> by_category;
  };
  mutable Obs obs_;
};

/// The same boundary for traces that already live in memory (generators,
/// testbed assets): every packet is checked against the schema bounds and
/// timestamps are sanitised, with identical accounting. A valid, time-sorted
/// trace passes through byte-identical — which is what lets TestbedLab route
/// its replay input here without perturbing any published artifact.
IngestResult ingest_trace(const traffic::Trace& trace, const TraceReaderConfig& cfg = {});

/// First violated schema bound of an in-memory packet, or empty view if the
/// packet is clean. (Timestamp ordering is the trace's property, not the
/// packet's, so it is not checked here.)
std::string_view packet_violation(const traffic::Packet& p);

// ---------------------------------------------------------------------------
// Digest wire codec. The control channel's 14-byte record (switchsim
// Digest::kBytes): src_ip, dst_ip big-endian, ports big-endian, proto,
// label — exactly the five-tuple + 1-bit label of App. B.2.

void encode_digest(const switchsim::Digest& d, std::string& out);
std::string encode_digest(const switchsim::Digest& d);

/// Strict decode of exactly Digest::kBytes bytes: false on short input,
/// proto outside {1,6,17}, or label outside {0,1}.
bool decode_digest(std::string_view bytes, switchsim::Digest& out);

struct DigestDecodeStats {
  std::uint64_t offered = 0;   // whole records framed (a trailing fragment counts)
  std::uint64_t decoded = 0;
  std::uint64_t rejected = 0;  // bad proto/label, or the trailing fragment

  bool conserved() const { return offered == decoded + rejected; }
};

/// Frame a byte stream into consecutive 14-byte records and decode each.
/// Bad records are skipped with accounting; a trailing partial record is one
/// rejected offer. Never throws.
std::vector<switchsim::Digest> decode_digest_stream(std::string_view bytes,
                                                    DigestDecodeStats& stats);

}  // namespace iguard::io
