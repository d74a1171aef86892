/// End-to-end load benchmark for the Hyper-Q stack.
///
/// Stands up the in-process stack (object store -> CDW -> HyperQServer) and
/// drives it the way a legacy client does: EtlClient import scripts for the
/// batch workloads and one StreamClient session for the streaming one. Each
/// client waits for every reply (closed loop). The timed loop repeats whole
/// jobs until --seconds have passed, checks every job's output, and prints
/// the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
///
/// The per-layer numbers come from a single-threaded replay of the same
/// generated inputs through each layer's public entry point, with the
/// benchmark's own spans around every call (no tracing inside src/), plus a
/// few counters read from public accessors after the timed run.
///
///   e2e_bench --workload batch_load|batch_dirty|stream_upsert --seed N
///             --seconds S --trace 0|1 [--size full|tiny] --work-dir DIR
///             [--trace-dir DIR] [--git-sha SHA]
///
/// The last stdout line is one JSON object:
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
/// Exit code 0 only when every output check passed.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "cdw/cdw_server.h"
#include "cloudstore/bulk_loader.h"
#include "cloudstore/object_store.h"
#include "common/logging.h"
#include "common/random.h"
#include "etlscript/etl_client.h"
#include "hyperq/data_converter.h"
#include "hyperq/error_handler.h"
#include "hyperq/file_writer.h"
#include "hyperq/server.h"
#include "legacy/parcel.h"
#include "legacy/row_format.h"
#include "sql/parser.h"
#include "sql/transpiler.h"
#include "stream/stream_client.h"
#include "types/date.h"
#include "workload/dataset.h"

using namespace hyperq;
namespace fs = std::filesystem;

namespace {

// ---------------------------------------------------------------------------
// Small utilities
// ---------------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto tv = [](const timeval& t) { return static_cast<double>(t.tv_sec) + t.tv_usec / 1e6; };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank percentile (q in (0, 1]).
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

uint64_t Fnv1a(std::string_view s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Order-independent row checksum: each row's text hash is mixed and summed.
uint64_t RowDigest(std::string_view row_text) {
  uint64_t z = Fnv1a(row_text) + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// A target cell as the generator wrote it (strings bare, dates ISO, NULL empty).
std::string CellText(const types::Value& v) {
  if (v.is_null()) return "";
  if (v.is_string()) return v.string_value();
  if (v.is_date()) return types::FormatDateIso(v.date_days());
  return v.ToString();
}

std::string RowText(const cdw::Table& table, size_t row) {
  std::string text;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    if (c != 0) text += '|';
    text += CellText(table.At(row, c));
  }
  return text;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

size_t CpuCount() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002 + i, &regs[i * 4], &regs[i * 4 + 1], &regs[i * 4 + 2],
                  &regs[i * 4 + 3]);
    }
    std::string model(reinterpret_cast<const char*>(regs), sizeof(regs));
    model.erase(std::find(model.begin(), model.end(), '\0'), model.end());
    while (!model.empty() && model.back() == ' ') model.pop_back();
    while (!model.empty() && model.front() == ' ') model.erase(model.begin());
    return model;
  }
#endif
  return "unknown";
}

/// The run's private work directory, removed at exit (normal return or Die).
std::string g_work_dir;

void RemoveWorkDir() {
  std::error_code ec;
  if (!g_work_dir.empty()) fs::remove_all(g_work_dir, ec);
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "e2e_bench: %s\n", what.c_str());
  std::exit(2);
}

template <typename T>
T Must(common::Result<T> r, const std::string& what) {
  if (!r.ok()) Die(what + ": " + r.status().ToString());
  return std::move(r).ValueOrDie();
}

void Must(const common::Status& s, const std::string& what) {
  if (!s.ok()) Die(what + ": " + s.ToString());
}

// ---------------------------------------------------------------------------
// Spans: name, start, end, parent, run id. Kept in memory, written at exit.
// ---------------------------------------------------------------------------

class SpanLog {
 public:
  struct Span {
    std::string name;
    std::string run_id;
    Clock::time_point start;
    Clock::time_point end;
    int parent = -1;
  };

  /// Opens a span under the innermost open one. Returns -1 when disabled.
  int Begin(std::string_view name) {
    if (!enabled_) return -1;
    Span span;
    span.name = std::string(name);
    span.run_id = run_id_;
    span.parent = open_.empty() ? -1 : open_.back();
    span.start = Clock::now();
    spans_.push_back(std::move(span));
    open_.push_back(static_cast<int>(spans_.size() - 1));
    return open_.back();
  }
  void End(int id) {
    if (id < 0) return;
    spans_[static_cast<size_t>(id)].end = Clock::now();
    open_.pop_back();
  }

  void set_enabled(bool on) { enabled_ = on; }
  void set_run_id(std::string id) { run_id_ = std::move(id); }

  /// Self time per span name (duration minus direct children) over spans of
  /// one run id.
  std::map<std::string, double> SelfSeconds(const std::string& run_id) const {
    std::map<std::string, double> self;
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.run_id == run_id && s.parent >= 0) {
        child[static_cast<size_t>(s.parent)] +=
            std::chrono::duration<double>(s.end - s.start).count();
      }
    }
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].run_id != run_id) continue;
      self[spans_[i].name] +=
          std::chrono::duration<double>(spans_[i].end - spans_[i].start).count() - child[i];
    }
    return self;
  }

  bool Write(const std::string& path, const std::string& env_json) const {
    std::ofstream out(path, std::ios::trunc);
    out << env_json << "\n";
    Clock::time_point origin = spans_.empty() ? Clock::now() : spans_.front().start;
    auto ns = [&](Clock::time_point t) {
      return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin).count();
    };
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\": " << i << ", \"name\": " << JsonString(s.name)
          << ", \"run\": " << JsonString(s.run_id) << ", \"parent\": " << s.parent
          << ", \"start_ns\": " << ns(s.start) << ", \"end_ns\": " << ns(s.end) << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  bool enabled_ = false;
  std::string run_id_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class Scope {
 public:
  Scope(SpanLog* log, std::string_view name) : log_(log), id_(log->Begin(name)) {}
  ~Scope() { log_->End(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

// The replay's layer spans, in pipeline order. Each becomes "<name>_s".
const char* const kRootSpan = "replay";
const char* const kLayers[] = {"legacy.decode",     "hyperq.convert", "hyperq.file_write",
                               "hyperq.stage_read", "cloudstore.put", "cdw.copy",
                               "hyperq.apply",      "cdw.prune"};
const char* const kAcquisitionLayers[] = {"legacy.decode",     "hyperq.convert",
                                          "hyperq.file_write", "hyperq.stage_read",
                                          "cloudstore.put",    "cdw.copy"};

// ---------------------------------------------------------------------------
// Options and pinned settings
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool tiny = false;
  std::string work_dir;
  std::string trace_dir;
  std::string git_sha = "unknown";
};

struct Settings {
  // batch workloads
  uint64_t rows = 0;
  size_t row_bytes = 500;
  double bad_date_fraction = 0;
  double duplicate_fraction = 0;
  int sessions = 1;
  size_t chunk_rows = 1000;
  uint64_t credit_pool = 64;
  // stream workload
  int batch_rows = 0;
  int batches = 0;
  uint64_t preload_rows = 0;
  // Set-up is repeated at least min_setups times and until setup_budget_s
  // has passed (at most 200 times); setup_s is the median.
  int min_setups = 5;
  double setup_budget_s = 2.0;
};

Settings SettingsFor(const Args& args) {
  Settings s;
  const int sessions = static_cast<int>(std::min<size_t>(4, CpuCount()));
  if (args.workload == "batch_load") {
    s.rows = args.tiny ? 2000 : 100000;
    s.sessions = sessions;
    s.chunk_rows = args.tiny ? 100 : 1000;
    // Fewer credits than chunks, so back-pressure can engage.
    s.credit_pool = args.tiny ? 4 : 32;
  } else if (args.workload == "batch_dirty") {
    s.rows = args.tiny ? 600 : 3000;
    s.bad_date_fraction = 0.01;
    s.duplicate_fraction = 0.005;
    s.sessions = 1;  // fixed row numbering -> the statement count repeats exactly
    s.chunk_rows = 1000;
  } else if (args.workload == "stream_upsert") {
    // MERGE cost grows with batch x target, so a session of 100 commits
    // takes about a second and a run holds a few dozen sessions.
    s.batch_rows = 10;
    s.batches = args.tiny ? 12 : 100;
    // Preloaded far beyond one session's 20% new keys (batches * rows / 5),
    // so the target stays within ~10% of its preloaded size.
    s.preload_rows = args.tiny ? 300 : 2000;
    s.sessions = 1;
  }
  if (args.tiny) {
    s.min_setups = 2;
    s.setup_budget_s = 0;
  }
  return s;
}

core::HyperQOptions NodeOptions(const Settings& s, const std::string& work_dir) {
  core::HyperQOptions options;
  options.enable_observability = false;
  options.staging_format = cdw::StagingFormat::kCsv;
  options.credit_pool_size = s.credit_pool;
  options.local_staging_dir = work_dir + "/staging";
  return options;
}

cloud::ObjectStoreOptions StoreOptions() {
  cloud::ObjectStoreOptions options;
  options.per_request_latency_micros = 0;
  options.upload_bandwidth_bps = 0;
  return options;
}

cdw::CdwServerOptions CdwOptions() {
  cdw::CdwServerOptions options;
  options.statement_startup_micros = 0;
  options.copy_startup_micros = 0;
  return options;
}

std::string EnvJson(const Args& args, const Settings& s) {
  const core::HyperQOptions node = NodeOptions(s, "");
  std::string j = "{\"env\": {";
  j += "\"nproc\": " + std::to_string(CpuCount());
  j += ", \"cpu_model\": " + JsonString(CpuModel());
  j += ", \"compiler\": " + JsonString(HQ_BENCH_COMPILER);
  j += ", \"build_type\": " + JsonString(HQ_BENCH_BUILD_TYPE);
  j += ", \"git_sha\": " + JsonString(args.git_sha);
  j += ", \"workload\": " + JsonString(args.workload);
  j += ", \"seed\": " + std::to_string(args.seed);
  j += ", \"seconds\": " + JsonNumber(args.seconds);
  j += ", \"trace\": " + std::to_string(args.trace);
  j += ", \"size\": " + JsonString(args.tiny ? "tiny" : "full");
  j += ", \"settings\": {\"simulated_costs\": \"zero\", \"observability\": false";
  j += ", \"staging_format\": \"csv\", \"sessions\": " + std::to_string(s.sessions);
  j += ", \"converter_workers\": " + std::to_string(node.converter_workers);
  j += ", \"file_writers\": " + std::to_string(node.file_writers);
  j += ", \"credit_pool\": " + std::to_string(s.credit_pool);
  if (s.rows != 0) {
    j += ", \"rows\": " + std::to_string(s.rows);
    j += ", \"row_bytes\": " + std::to_string(s.row_bytes);
    j += ", \"chunk_rows\": " + std::to_string(s.chunk_rows);
    j += ", \"bad_date_fraction\": " + JsonNumber(s.bad_date_fraction);
    j += ", \"duplicate_fraction\": " + JsonNumber(s.duplicate_fraction);
  } else {
    j += ", \"batch_rows\": " + std::to_string(s.batch_rows);
    j += ", \"batches\": " + std::to_string(s.batches);
    j += ", \"preload_rows\": " + std::to_string(s.preload_rows);
  }
  j += ", \"min_setups\": " + std::to_string(s.min_setups) + "}}}";
  return j;
}

// ---------------------------------------------------------------------------
// The in-process stack
// ---------------------------------------------------------------------------

struct Stack {
  explicit Stack(const core::HyperQOptions& options)
      : store(StoreOptions()), cdw(&store, CdwOptions()), node(&cdw, &store, options) {
    node.Start();
  }
  ~Stack() { node.Stop(); }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  std::function<common::Result<std::shared_ptr<net::Transport>>(const std::string&)>
  Connector() {
    return [this](const std::string&) -> common::Result<std::shared_ptr<net::Transport>> {
      auto t = node.Connect();
      if (!t) return common::Status::IOError("node down");
      return t;
    };
  }

  cloud::ObjectStore store;
  cdw::CdwServer cdw;
  core::HyperQServer node;
};

/// Vartext chunk parcels exactly as the clients encode them (one record per
/// line, fields split on '|', empty field = NULL).
std::vector<legacy::Parcel> EncodeChunks(const std::vector<std::string>& lines, size_t chunk_rows) {
  std::vector<legacy::Parcel> parcels;
  common::ByteBuffer payload;
  uint32_t rows = 0;
  auto flush = [&] {
    if (rows == 0) return;
    legacy::DataChunkBody chunk;
    chunk.chunk_seq = parcels.size();
    chunk.row_count = rows;
    chunk.payload = std::move(payload.vector());
    parcels.push_back(chunk.Encode());
    payload = common::ByteBuffer();
    rows = 0;
  };
  for (const std::string& line : lines) {
    legacy::VartextRecord record;
    size_t start = 0;
    for (size_t i = 0; i <= line.size(); ++i) {
      if (i == line.size() || line[i] == '|') {
        legacy::VartextField field;
        field.text = line.substr(start, i - start);
        field.null = field.text.empty();
        record.push_back(std::move(field));
        start = i + 1;
      }
    }
    Must(legacy::EncodeVartextRecord(record, '|', &payload), "encode vartext");
    if (++rows >= chunk_rows) flush();
  }
  flush();
  return parcels;
}

// ---------------------------------------------------------------------------
// Outcome of a run
// ---------------------------------------------------------------------------

struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  /// Counts `units` attempted units (jobs, or a stream session's commits) as failed.
  void Fail(const std::string& what, uint64_t units = 1) {
    failed += units;
    std::fprintf(stderr, "e2e_bench: check failed: %s\n", what.c_str());
  }
};

/// One replay's measurements (spans optional).
struct Replay {
  double wall_s = 0;
  uint64_t files = 0;
  uint64_t rows_staged = 0;
  uint64_t bytes_staged = 0;
  uint64_t dml_statements = 0;
};

/// Shared replay state: a fresh object store + CDW (no Hyper-Q node — the
/// replay calls each layer's entry point directly, single-threaded).
struct ReplayStack {
  ReplayStack() : store(StoreOptions()), cdw(&store, CdwOptions()) {}
  cloud::ObjectStore store;
  cdw::CdwServer cdw;
};

void RecreateTable(cdw::CdwServer* cdw, const std::string& name, const types::Schema& schema) {
  Must(cdw->catalog()->DropTable(name, true), "drop " + name);
  Must(cdw->catalog()->CreateTable(name, schema).status(), "create " + name);
}

/// Upload prep + PutBatch + COPY, as the import and stream jobs do it.
uint64_t StageUploadCopy(ReplayStack* rs, SpanLog* spans,
                         const std::vector<core::FinalizedFile>& files,
                         const std::string& remote_prefix, const std::string& staging_table) {
  std::vector<std::vector<uint8_t>> payloads;
  std::vector<std::pair<std::string, common::Slice>> batch;
  {
    Scope span(spans, "hyperq.stage_read");
    payloads.reserve(files.size());
    for (const auto& f : files) {
      payloads.push_back(Must(cloud::ReadFileBytes(f.path), "read staging file"));
      batch.emplace_back(remote_prefix + fs::path(f.path).filename().string(),
                         common::Slice(payloads.back()));
    }
  }
  if (!batch.empty()) {
    Scope span(spans, "cloudstore.put");
    Must(rs->store.PutBatch(batch), "PutBatch");
  }
  for (const auto& f : files) std::remove(f.path.c_str());
  cdw::CopyOptions copy;
  copy.format = cdw::CopyFormat::kCsv;
  Scope span(spans, "cdw.copy");
  return Must(rs->cdw.CopyInto(staging_table, remote_prefix, copy), "CopyInto");
}

/// decode -> convert -> file write over `parcels`; returns the finalized files.
std::vector<core::FinalizedFile> DecodeConvertWrite(const std::vector<legacy::Parcel>& parcels,
                                                    const core::DataConverter& converter,
                                                    core::FileWriter* writer, uint64_t* next_row,
                                                    SpanLog* spans, Replay* out) {
  std::vector<core::FinalizedFile> finalized;
  for (size_t i = 0; i < parcels.size(); ++i) {
    core::ConversionInput input;
    {
      Scope span(spans, "legacy.decode");
      input.chunk = Must(legacy::DataChunkBody::Decode(parcels[i]), "DataChunkBody::Decode");
    }
    input.order_index = i;
    input.first_row_number = *next_row;
    *next_row += input.chunk.row_count;
    core::ConvertedChunk converted;
    {
      Scope span(spans, "hyperq.convert");
      converted = Must(converter.Convert(input), "DataConverter::Convert");
    }
    if (!converted.errors.empty()) Die("replay: unexpected conversion errors");
    out->rows_staged += converted.rows_out;
    out->bytes_staged += converted.csv.size();
    Scope span(spans, "hyperq.file_write");
    Must(writer->Append(converted.csv.AsSlice(), &finalized), "FileWriter::Append");
  }
  {
    Scope span(spans, "hyperq.file_write");
    Must(writer->Finish(&finalized), "FileWriter::Finish");
  }
  out->files += finalized.size();
  return finalized;
}

core::FileWriterOptions WriterOptions(const std::string& dir) {
  core::FileWriterOptions options;
  options.directory = dir;
  options.file_size_threshold = core::HyperQOptions().file_size_threshold;
  options.file_extension = std::string(cdw::StagingFileExtension(cdw::StagingFormat::kCsv));
  return options;
}

core::AdaptiveOptions ApplyOptions() {
  core::HyperQOptions defaults;
  core::AdaptiveOptions options;
  options.max_errors = defaults.max_errors;
  options.max_retries = defaults.max_retries;
  options.enforce_uniqueness = defaults.enforce_uniqueness;
  options.io_retry = defaults.io_retry;
  return options;
}

// ---------------------------------------------------------------------------
// Batch workloads (batch_load, batch_dirty)
// ---------------------------------------------------------------------------

const char* const kBatchTarget = "BENCH.TARGET";

struct BatchInputs {
  std::unique_ptr<workload::CustomerDataset> dataset;
  std::string data_file;
  std::string script;
  std::vector<legacy::Parcel> parcels;  // replay input, same chunking as the client
  // Reference model: rows applied in row order; a bad date goes to ET, a key
  // already in the target goes to UV, anything else lands.
  uint64_t expect_target = 0;
  uint64_t expect_et = 0;
  uint64_t expect_uv = 0;
  uint64_t expect_checksum = 0;
};

/// Replaces field `index` of a '|'-delimited line.
void SetField(std::string* line, size_t index, const std::string& value) {
  size_t start = 0;
  for (size_t i = 0; i < index; ++i) start = line->find('|', start) + 1;
  size_t end = line->find('|', start);
  line->replace(start, end == std::string::npos ? std::string::npos : end - start, value);
}

std::string KeyOf(const std::string& line) { return line.substr(0, line.find('|')); }

/// Turns exactly `bad` rows into malformed dates and `dups` rows into
/// duplicates of an earlier clean row, one dirty row per equal stratum of the
/// input at a seeded offset. The generator's own per-row coin flips would
/// make the error count, and with it the bisection work, vary by ~20% from
/// seed to seed.
void InjectErrors(std::vector<std::string>* lines, uint64_t bad, uint64_t dups,
                  common::Random* rng) {
  const uint64_t total = bad + dups;
  if (total == 0) return;
  const uint64_t stratum = lines->size() / total;
  std::vector<bool> dirty(lines->size(), false);
  std::vector<uint64_t> dup_rows;
  for (uint64_t e = 0; e < total; ++e) {
    const uint64_t row = e * stratum + rng->NextBounded(stratum);
    dirty[row] = true;
    // Duplicates are interleaved evenly among the bad dates.
    if ((e + 1) * dups / total > e * dups / total) {
      dup_rows.push_back(row);
    } else {
      SetField(&(*lines)[row], 2, "xx" + rng->NextAlnum(8));
    }
  }
  for (uint64_t row : dup_rows) {
    if (row == 0) Die("duplicate injected at the first row");
    uint64_t source = rng->NextBounded(row);
    while (dirty[source]) {
      if (source == 0) Die("no clean row before an injected duplicate");
      --source;
    }
    SetField(&(*lines)[row], 0, KeyOf((*lines)[source]));
  }
}

BatchInputs MakeBatchInputs(const Args& args, const Settings& s) {
  BatchInputs in;
  workload::DatasetSpec spec;  // clean rows; errors are injected below
  spec.rows = s.rows;
  spec.row_bytes = s.row_bytes;
  spec.seed = args.seed;
  in.dataset = std::make_unique<workload::CustomerDataset>(spec);

  std::vector<std::string> lines;
  lines.reserve(s.rows);
  for (uint64_t i = 0; i < s.rows; ++i) lines.push_back(in.dataset->MakeLine(i));
  const uint64_t bad = std::llround(static_cast<double>(s.rows) * s.bad_date_fraction);
  const uint64_t dups = std::llround(static_cast<double>(s.rows) * s.duplicate_fraction);
  common::Random rng(args.seed * 0x9E3779B97F4A7C15ULL + 0xD1B7);
  InjectErrors(&lines, bad, dups, &rng);

  common::ByteBuffer file;
  file.reserve(s.rows * (s.row_bytes + 2));
  std::set<std::string> keys;
  for (const std::string& line : lines) {
    file.AppendString(line);
    file.AppendByte('\n');
    size_t k = line.find('|');
    size_t d = line.find('|', k + 1);
    size_t e = line.find('|', d + 1);
    std::string_view date = std::string_view(line).substr(d + 1, e - d - 1);
    if (!types::ParseDate(date, "YYYY-MM-DD").ok()) {
      ++in.expect_et;
    } else if (!keys.insert(line.substr(0, k)).second) {
      ++in.expect_uv;
    } else {
      ++in.expect_target;
      in.expect_checksum += RowDigest(line);
    }
  }
  if (in.expect_et != bad || in.expect_uv != dups) Die("reference model disagrees with injection");
  in.data_file = args.work_dir + "/input.txt";
  Must(cloud::WriteFileBytes(in.data_file, file.AsSlice()), "write input file");

  std::string script = ".set chunk_rows " + std::to_string(s.chunk_rows) + ";\n";
  script += in.dataset->MakeImportScript("hq", kBatchTarget, in.data_file, s.sessions);
  in.script = std::move(script);
  in.parcels = EncodeChunks(lines, s.chunk_rows);
  return in;
}

void CreateBatchTarget(cdw::CdwServer* cdw, const workload::CustomerDataset& dataset) {
  Must(cdw->catalog()->DropTable(kBatchTarget, true), "drop target");
  std::string ddl = Must(sql::TranspileSqlText(dataset.MakeTargetDdl(kBatchTarget)), "DDL");
  Must(cdw->ExecuteSql(ddl).status(), "create target");
}

/// Checks target/ET/UV contents against the reference model; "" when they match.
std::string CheckBatchTables(cdw::CdwServer* cdw, const BatchInputs& in) {
  auto target = cdw->catalog()->GetTable(kBatchTarget);
  auto et = cdw->catalog()->GetTable(std::string(kBatchTarget) + "_ET");
  auto uv = cdw->catalog()->GetTable(std::string(kBatchTarget) + "_UV");
  if (!target.ok() || !et.ok() || !uv.ok()) return "target or error table missing";
  const cdw::Table& t = **target;
  uint64_t checksum = 0;
  for (size_t r = 0; r < t.num_rows(); ++r) checksum += RowDigest(RowText(t, r));
  if (t.num_rows() != in.expect_target || checksum != in.expect_checksum ||
      (*et)->num_rows() != in.expect_et || (*uv)->num_rows() != in.expect_uv) {
    return "target " + std::to_string(t.num_rows()) + "/" + std::to_string(in.expect_target) +
           " rows, checksum " + (checksum == in.expect_checksum ? "ok" : "MISMATCH") + ", ET " +
           std::to_string((*et)->num_rows()) + "/" + std::to_string(in.expect_et) + ", UV " +
           std::to_string((*uv)->num_rows()) + "/" + std::to_string(in.expect_uv);
  }
  return "";
}

struct BatchJob {
  bool ok = false;
  double wall_s = 0;
  double commit_s = 0;
  double cpu_s = 0;
  std::string job_id;
};

BatchJob RunBatchJob(Stack* stack, const BatchInputs& in, const std::string& work_dir,
                     Outcome* outcome) {
  // Fresh target; drop the previous job's staged objects (never read again).
  CreateBatchTarget(&stack->cdw, *in.dataset);
  stack->store.DeletePrefix("");

  etlscript::EtlClientOptions options;
  options.connector = stack->Connector();
  options.working_dir = work_dir;
  etlscript::EtlClient client(options);

  BatchJob job;
  ++outcome->attempted;
  const double cpu0 = CpuSeconds();
  const auto t0 = Clock::now();
  auto run = client.RunScript(in.script);
  job.wall_s = SecondsSince(t0);
  job.cpu_s = CpuSeconds() - cpu0;
  if (!run.ok() || run->imports.size() != 1) {
    outcome->Fail("import job: " + (run.ok() ? std::string("no import") : run.status().ToString()));
    return job;
  }
  const etlscript::ImportJobSummary& summary = run->imports[0];
  job.job_id = summary.job_id;
  job.commit_s = summary.application_seconds;
  if (summary.report.rows_inserted != in.expect_target ||
      summary.report.et_errors != in.expect_et || summary.report.uv_errors != in.expect_uv) {
    outcome->Fail("job report: inserted " + std::to_string(summary.report.rows_inserted) +
                  ", et " + std::to_string(summary.report.et_errors) + ", uv " +
                  std::to_string(summary.report.uv_errors));
    return job;
  }
  if (std::string err = CheckBatchTables(&stack->cdw, in); !err.empty()) {
    outcome->Fail("import job: " + err);
    return job;
  }
  job.ok = true;
  return job;
}

/// Single-threaded replay of one import job through each layer.
Replay ReplayBatch(const BatchInputs& in, const std::string& dir, SpanLog* spans,
                   Outcome* outcome) {
  ReplayStack rs;
  const types::Schema layout = in.dataset->MakeLayout();
  const std::string staging = "HQ_STG_REPLAY";
  CreateBatchTarget(&rs.cdw, *in.dataset);
  RecreateTable(&rs.cdw, staging, Must(core::MakeStagingSchema(layout), "staging schema"));
  RecreateTable(&rs.cdw, std::string(kBatchTarget) + "_ET", core::MakeEtErrorSchema());
  RecreateTable(&rs.cdw, std::string(kBatchTarget) + "_UV", core::MakeUvErrorSchema(layout));
  core::DataConverter converter = Must(
      core::DataConverter::Create(layout, legacy::DataFormat::kVartext, '|'), "converter");
  sql::StatementPtr dml =
      Must(sql::ParseStatement(in.dataset->MakeInsertDml(kBatchTarget)), "parse DML");
  fs::remove_all(dir);
  core::FileWriter writer(WriterOptions(dir), "part_w0");

  Replay out;
  const auto t0 = Clock::now();
  {
    Scope root(spans, kRootSpan);
    uint64_t next_row = 1;
    auto files = DecodeConvertWrite(in.parcels, converter, &writer, &next_row, spans, &out);
    uint64_t copied = StageUploadCopy(&rs, spans, files, "staging/replay/", staging);
    if (copied != out.rows_staged) outcome->Fail("replay COPY row count");
    core::AdaptiveDmlApplier applier(&rs.cdw, dml.get(), layout, staging, kBatchTarget,
                                     std::string(kBatchTarget) + "_ET",
                                     std::string(kBatchTarget) + "_UV", ApplyOptions());
    Scope span(spans, "hyperq.apply");
    core::DmlApplyResult result = Must(applier.Apply(1, next_row - 1), "Apply");
    out.dml_statements = result.statements_issued;
  }
  out.wall_s = SecondsSince(t0);
  ++outcome->attempted;
  if (std::string err = CheckBatchTables(&rs.cdw, in); !err.empty()) {
    outcome->Fail("replay: " + err);
  }
  fs::remove_all(dir);
  return out;
}

// ---------------------------------------------------------------------------
// Streaming upsert workload
// ---------------------------------------------------------------------------

const char* const kStreamTarget = "PROD.CUSTOMER";

types::Schema StreamLayout() {
  types::Schema layout;
  layout.AddField(types::Field("CUST_ID", types::TypeDesc::Varchar(10)));
  layout.AddField(types::Field("CUST_NAME", types::TypeDesc::Varchar(20)));
  layout.AddField(types::Field("JOIN_DATE", types::TypeDesc::Varchar(10)));
  return layout;
}

types::Schema StreamTargetSchema() {
  types::Schema target;
  target.AddField(types::Field("CUST_ID", types::TypeDesc::Varchar(10), false));
  target.AddField(types::Field("CUST_NAME", types::TypeDesc::Varchar(20)));
  target.AddField(types::Field("JOIN_DATE", types::TypeDesc::Date()));
  return target;
}

const char* const kUpsertDml =
    "update PROD.CUSTOMER set CUST_NAME = trim(:CUST_NAME), "
    "JOIN_DATE = cast(:JOIN_DATE as DATE format 'YYYY-MM-DD') "
    "where CUST_ID = :CUST_ID "
    "else insert values (trim(:CUST_ID), trim(:CUST_NAME), "
    "cast(:JOIN_DATE as DATE format 'YYYY-MM-DD'))";

struct StreamInputs {
  std::vector<types::Row> preload;
  std::vector<std::vector<std::string>> batches;          // client lines per micro-batch
  std::vector<std::vector<legacy::Parcel>> parcels;       // replay input, one chunk per batch
  std::map<std::string, std::string> reference;           // key -> "name|date", last writer wins
};

StreamInputs MakeStreamInputs(const Args& args, const Settings& s) {
  StreamInputs in;
  common::Random rng(args.seed * 0x2545F4914F6CDD1DULL + 0x5157);
  const types::DateDays epoch = types::DaysFromYmd(2000, 1, 1).ValueOrDie();
  auto key = [](uint64_t i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "C%08llu", static_cast<unsigned long long>(i));
    return std::string(buf);
  };
  std::vector<std::string> keys;
  for (uint64_t i = 0; i < s.preload_rows; ++i) {
    std::string k = key(i);
    std::string name = rng.NextAlnum(12);
    types::DateDays days = epoch + static_cast<int32_t>(rng.NextBounded(8400));
    in.reference[k] = name + "|" + types::FormatDateIso(days);
    in.preload.push_back(
        {types::Value::String(k), types::Value::String(name), types::Value::Date(days)});
    keys.push_back(std::move(k));
  }
  const int inserts = std::max(1, s.batch_rows / 5);
  const int updates = s.batch_rows - inserts;
  for (int b = 0; b < s.batches; ++b) {
    std::set<size_t> picked;
    while (static_cast<int>(picked.size()) < updates) picked.insert(rng.NextBounded(keys.size()));
    std::vector<std::string> batch_keys;
    for (size_t idx : picked) batch_keys.push_back(keys[idx]);
    for (int n = 0; n < inserts; ++n) {
      keys.push_back(key(keys.size()));
      batch_keys.push_back(keys.back());
    }
    // Shuffle so updates and inserts interleave within the batch.
    for (size_t i = batch_keys.size(); i > 1; --i) {
      std::swap(batch_keys[i - 1], batch_keys[rng.NextBounded(i)]);
    }
    std::vector<std::string> lines;
    for (const std::string& k : batch_keys) {
      std::string value = rng.NextAlnum(12) + "|" +
                          types::FormatDateIso(epoch + static_cast<int32_t>(rng.NextBounded(8400)));
      in.reference[k] = value;
      lines.push_back(k + "|" + value);
    }
    in.parcels.push_back(EncodeChunks(lines, lines.size()));
    in.batches.push_back(std::move(lines));
  }
  return in;
}

void ResetStreamTarget(cdw::CdwServer* cdw, const StreamInputs& in) {
  Must(cdw->catalog()->DropTable(kStreamTarget, true), "drop stream target");
  auto table = Must(cdw->catalog()->CreateTable(kStreamTarget, StreamTargetSchema(), {"CUST_ID"},
                                                true),
                    "create stream target");
  Must(table->AppendRows(in.preload), "preload stream target");
}

/// Compares the target with the last-writer-wins reference; "" when equal.
std::string CheckStreamTarget(cdw::CdwServer* cdw, const StreamInputs& in) {
  auto target = cdw->catalog()->GetTable(kStreamTarget);
  if (!target.ok()) return "stream target missing";
  const cdw::Table& t = **target;
  uint64_t mismatched = 0;
  std::set<std::string> seen;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    std::string k = CellText(t.At(r, 0));
    auto it = in.reference.find(k);
    if (it == in.reference.end() || !seen.insert(k).second ||
        it->second != CellText(t.At(r, 1)) + "|" + CellText(t.At(r, 2))) {
      ++mismatched;
    }
  }
  if (mismatched != 0 || t.num_rows() != in.reference.size()) {
    return "stream target has " + std::to_string(t.num_rows()) + " rows (want " +
           std::to_string(in.reference.size()) + "), " + std::to_string(mismatched) +
           " differ from the last-writer-wins reference";
  }
  return "";
}

struct StreamSession {
  bool ok = false;
  double wall_s = 0;
  double cpu_s = 0;
  double send_s = 0;
  std::vector<double> commit_s;
};

StreamSession RunStreamSession(Stack* stack, const StreamInputs& in, int n, Outcome* outcome) {
  ResetStreamTarget(&stack->cdw, in);
  stack->store.DeletePrefix("");

  stream::StreamClientOptions options;
  options.connector = stack->Connector();
  stream::StreamClient client(std::move(options));
  legacy::BeginStreamBody begin;
  begin.job_id = "upsert_" + std::to_string(n);
  begin.target_table = kStreamTarget;
  begin.format = legacy::DataFormat::kVartext;
  begin.delimiter = '|';
  begin.layout = StreamLayout();
  begin.dml_label = "Upsert";
  begin.dml_sql = kUpsertDml;

  // The unit of work is a commit; any failure fails all of the session's.
  StreamSession session;
  outcome->attempted += in.batches.size();
  auto fail = [&](const std::string& what) {
    outcome->Fail("stream session: " + what, in.batches.size());
    return session;
  };
  const double cpu0 = CpuSeconds();
  const auto t0 = Clock::now();
  if (common::Status begun = client.Begin(begin); !begun.ok()) {
    return fail("Begin: " + begun.ToString());
  }
  for (size_t b = 0; b < in.batches.size(); ++b) {
    const auto send0 = Clock::now();
    common::Status sent = client.SendLines(in.batches[b]);
    session.send_s += SecondsSince(send0);
    if (!sent.ok()) return fail("SendLines: " + sent.ToString());
    const auto commit0 = Clock::now();
    auto committed = client.Commit(b + 1);
    session.commit_s.push_back(SecondsSince(commit0));
    if (!committed.ok()) {
      return fail("commit " + std::to_string(b + 1) + ": " + committed.status().ToString());
    }
    if (committed->rows_in_batch != in.batches[b].size()) {
      return fail("commit " + std::to_string(b + 1) + " applied " +
                  std::to_string(committed->rows_in_batch) + " rows");
    }
  }
  auto report = client.End();
  session.wall_s = SecondsSince(t0);
  session.cpu_s = CpuSeconds() - cpu0;
  if (!report.ok()) return fail("End: " + report.status().ToString());
  if (common::Status off = client.Logoff(); !off.ok()) return fail("Logoff: " + off.ToString());
  if (std::string err = CheckStreamTarget(&stack->cdw, in); !err.empty()) return fail(err);
  session.ok = true;
  return session;
}

/// Single-threaded replay of one streaming session: per micro-batch
/// decode -> convert -> write -> upload -> COPY -> apply -> prune.
Replay ReplayStream(const StreamInputs& in, const std::string& dir, SpanLog* spans,
                    Outcome* outcome) {
  ReplayStack rs;
  const types::Schema layout = StreamLayout();
  const std::string staging = "HQ_STRM_REPLAY";
  ResetStreamTarget(&rs.cdw, in);
  RecreateTable(&rs.cdw, staging, Must(core::MakeStagingSchema(layout), "staging schema"));
  RecreateTable(&rs.cdw, std::string(kStreamTarget) + "_ET", core::MakeEtErrorSchema());
  RecreateTable(&rs.cdw, std::string(kStreamTarget) + "_UV", core::MakeUvErrorSchema(layout));
  core::DataConverter converter = Must(
      core::DataConverter::Create(layout, legacy::DataFormat::kVartext, '|'), "converter");
  sql::StatementPtr dml = Must(sql::ParseStatement(kUpsertDml), "parse upsert DML");
  fs::remove_all(dir);

  Replay out;
  const auto t0 = Clock::now();
  {
    Scope root(spans, kRootSpan);
    uint64_t next_row = 1;
    for (size_t b = 0; b < in.parcels.size(); ++b) {
      const uint64_t first_row = next_row;
      core::FileWriter writer(WriterOptions(dir), "b" + std::to_string(b));
      auto files = DecodeConvertWrite(in.parcels[b], converter, &writer, &next_row, spans, &out);
      char prefix[48];
      std::snprintf(prefix, sizeof(prefix), "stream/replay/%08zu/", b);
      uint64_t copied = StageUploadCopy(&rs, spans, files, prefix, staging);
      if (copied != next_row - first_row) outcome->Fail("replay COPY row count");
      {
        core::AdaptiveDmlApplier applier(&rs.cdw, dml.get(), layout, staging, kStreamTarget,
                                         std::string(kStreamTarget) + "_ET",
                                         std::string(kStreamTarget) + "_UV", ApplyOptions());
        Scope span(spans, "hyperq.apply");
        core::DmlApplyResult result = Must(applier.Apply(first_row, next_row - 1), "Apply");
        out.dml_statements += result.statements_issued;
      }
      Scope span(spans, "cdw.prune");
      Must(rs.cdw.ExecuteSql("DELETE FROM " + staging + " WHERE HQ_ROWNUM <= " +
                             std::to_string(next_row - 1))
               .status(),
           "prune staging");
    }
  }
  out.wall_s = SecondsSince(t0);
  ++outcome->attempted;
  if (std::string err = CheckStreamTarget(&rs.cdw, in); !err.empty()) {
    outcome->Fail("replay: " + err);
  }
  fs::remove_all(dir);
  return out;
}

// ---------------------------------------------------------------------------
// Main: set-up, timed loop, traced replay, report
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

[[noreturn]] void Usage() {
  std::fprintf(stderr,
               "usage: e2e_bench --workload batch_load|batch_dirty|stream_upsert --seed N "
               "--seconds S --trace 0|1 --work-dir DIR [--size full|tiny] [--trace-dir DIR] "
               "[--git-sha SHA]\n");
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Usage();
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Usage();
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0)) Usage();
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage();
      args.trace = value == "1" ? 1 : 0;
    } else if (flag == "--size") {
      if (value != "full" && value != "tiny") Usage();
      args.tiny = value == "tiny";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--trace-dir") {
      args.trace_dir = value;
    } else if (flag == "--git-sha") {
      args.git_sha = value;
    } else {
      Usage();
    }
  }
  if (args.workload != "batch_load" && args.workload != "batch_dirty" &&
      args.workload != "stream_upsert") {
    Usage();
  }
  if (args.work_dir.empty()) Usage();
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  common::SetLogLevel(common::LogLevel::kError);
  Args args = ParseArgs(argc, argv);
  g_work_dir = fs::absolute(args.work_dir + "/run-" + std::to_string(::getpid())).string();
  fs::remove_all(g_work_dir);
  fs::create_directories(g_work_dir);
  std::atexit(RemoveWorkDir);
  args.work_dir = g_work_dir;
  const Settings s = SettingsFor(args);
  const bool stream_workload = args.workload == "stream_upsert";
  const std::string env = EnvJson(args, s);
  std::printf("%s\n", env.c_str());

  // ---- Set-up, repeated; the last one is kept for the timed loop. ----------
  std::vector<double> setup_s;
  std::optional<BatchInputs> batch_in;
  std::optional<StreamInputs> stream_in;
  std::unique_ptr<Stack> stack;
  double setup_total = 0;
  for (int rep = 0; rep < s.min_setups || (setup_total < s.setup_budget_s && rep < 200); ++rep) {
    stack.reset();
    batch_in.reset();
    stream_in.reset();
    const auto t0 = Clock::now();
    if (stream_workload) {
      stream_in.emplace(MakeStreamInputs(args, s));
    } else {
      batch_in.emplace(MakeBatchInputs(args, s));
    }
    stack = std::make_unique<Stack>(NodeOptions(s, args.work_dir));
    if (stream_workload) {
      ResetStreamTarget(&stack->cdw, *stream_in);
    } else {
      CreateBatchTarget(&stack->cdw, *batch_in->dataset);
    }
    setup_s.push_back(SecondsSince(t0));
    setup_total += setup_s.back();
  }

  // ---- Timed closed loop: whole jobs until the deadline. -------------------
  Outcome outcome;
  std::vector<double> rows_per_s, cpu_s, send_s;
  // Commit latency: batch jobs give one ApplyDml round trip each; a stream
  // session gives one p50 and one p90 over its own commits, and the run
  // reports the median session, which one noisy session cannot move.
  std::vector<double> commit_s, session_p50_s, session_p90_s;
  std::vector<double> acquisition_s, application_s, dml_statements;
  const uint64_t rows_per_job = stream_workload
                                    ? static_cast<uint64_t>(s.batches) * s.batch_rows
                                    : s.rows;
  const cloud::ObjectStoreStats store0 = stack->store.stats();
  const uint64_t statements0 = stack->cdw.statements_executed();
  const uint64_t blocked0 = stack->node.credit_manager()->stats().blocked_acquisitions;
  int jobs = 0;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  do {
    if (stream_workload) {
      StreamSession session = RunStreamSession(stack.get(), *stream_in, jobs, &outcome);
      if (session.ok) {
        rows_per_s.push_back(static_cast<double>(rows_per_job) / session.wall_s);
        cpu_s.push_back(session.cpu_s);
        send_s.push_back(session.send_s);
        session_p50_s.push_back(Percentile(session.commit_s, 0.50));
        session_p90_s.push_back(Percentile(session.commit_s, 0.90));
      }
    } else {
      BatchJob job = RunBatchJob(stack.get(), *batch_in, args.work_dir, &outcome);
      if (job.ok) {
        rows_per_s.push_back(static_cast<double>(rows_per_job) / job.wall_s);
        cpu_s.push_back(job.cpu_s);
        commit_s.push_back(job.commit_s);
        auto timings = stack->node.JobTimings(job.job_id);
        auto dml = stack->node.JobDmlResult(job.job_id);
        if (timings.ok() && dml.ok()) {
          acquisition_s.push_back(timings->acquisition_seconds);
          application_s.push_back(timings->application_seconds);
          dml_statements.push_back(static_cast<double>(dml->statements_issued));
        } else {
          outcome.Fail("job accessors for " + job.job_id);
        }
      }
    }
    ++jobs;
    // A failed job means a defect, not noise: stop instead of spinning on it.
    if (outcome.failed != 0) break;
    std::printf("job %d: %.1f rows/s, cpu %.3f s\n", jobs, rows_per_s.back(), cpu_s.back());
  } while (Clock::now() < deadline);
  const cloud::ObjectStoreStats store1 = stack->store.stats();
  const uint64_t statements1 = stack->cdw.statements_executed();
  const uint64_t blocked1 = stack->node.credit_manager()->stats().blocked_acquisitions;
  stack.reset();

  std::vector<Metric> metrics;
  const double per_job = 1.0 / jobs;
  if (args.trace == 0) {
    metrics.push_back({"rows_per_s", Median(rows_per_s), "rows/s"});
    const double p50 = stream_workload ? Median(session_p50_s) : Percentile(commit_s, 0.50);
    const double p90 = stream_workload ? Median(session_p90_s) : Percentile(commit_s, 0.90);
    metrics.push_back({"commit_p50_ms", p50 * 1e3, "ms"});
    metrics.push_back({"commit_p90_ms", p90 * 1e3, "ms"});
    metrics.push_back({"ok_share",
                       1.0 - static_cast<double>(outcome.failed) /
                                 static_cast<double>(std::max<uint64_t>(1, outcome.attempted)),
                       "ratio"});
    metrics.push_back({"setup_s", Median(setup_s), "s"});
    metrics.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
    metrics.push_back({"cpu_s", Median(cpu_s), "s"});
  } else {
    // ---- Traced replay: warm-up, then spans off, then spans on. ------------
    // The warm-up pays the first pass's page faults, so the off/on pair
    // compares like with like.
    SpanLog spans;
    const std::string dir = args.work_dir + "/replay";
    auto replay = [&] {
      return stream_workload ? ReplayStream(*stream_in, dir, &spans, &outcome)
                             : ReplayBatch(*batch_in, dir, &spans, &outcome);
    };
    replay();
    const Replay off = replay();
    const std::string run_id = args.workload + "-seed" + std::to_string(args.seed) + "-pid" +
                               std::to_string(::getpid());
    spans.set_run_id(run_id);
    spans.set_enabled(true);
    const Replay r = replay();
    std::map<std::string, double> self = spans.SelfSeconds(run_id);
    double attributed = 0;
    for (const char* layer : kLayers) attributed += self[layer];
    double replay_acquisition = 0;
    for (const char* layer : kAcquisitionLayers) replay_acquisition += self[layer];
    const double dml_per_job =
        stream_workload ? static_cast<double>(r.dml_statements) : Median(dml_statements);

    for (const char* layer : kLayers) {
      metrics.push_back({std::string(layer) + "_s", self[layer], "s"});
    }
    metrics.push_back({"hyperq.staging_bytes_per_row",
                       static_cast<double>(r.bytes_staged) / std::max<uint64_t>(1, r.rows_staged),
                       "B"});
    metrics.push_back({"hyperq.files", static_cast<double>(r.files), "count"});
    metrics.push_back({"cloudstore.put_requests",
                       static_cast<double>(store1.put_requests - store0.put_requests) * per_job,
                       "count"});
    metrics.push_back({"cloudstore.bytes_uploaded",
                       static_cast<double>(store1.bytes_uploaded - store0.bytes_uploaded) * per_job,
                       "B"});
    metrics.push_back({"hyperq.acquisition_s",
                       stream_workload ? replay_acquisition : Median(acquisition_s), "s"});
    metrics.push_back({"hyperq.application_s",
                       stream_workload ? self["hyperq.apply"] + self["cdw.prune"]
                                       : Median(application_s),
                       "s"});
    metrics.push_back({"cdw.statements", static_cast<double>(statements1 - statements0) * per_job,
                       "count"});
    metrics.push_back({"hyperq.dml_statements", dml_per_job, "count"});
    metrics.push_back({"hyperq.rows_per_statement",
                       dml_per_job > 0 ? static_cast<double>(rows_per_job) / dml_per_job : 0,
                       "rows"});
    metrics.push_back({"hyperq.credit_blocked", static_cast<double>(blocked1 - blocked0) * per_job,
                       "count"});
    metrics.push_back({"stream.send_s", Median(send_s), "s"});
    metrics.push_back({"trace.unattributed_share",
                       r.wall_s > 0 ? (r.wall_s - attributed) / r.wall_s : 0, "ratio"});
    metrics.push_back({"trace.overhead_share",
                       off.wall_s > 0 ? (r.wall_s - off.wall_s) / off.wall_s : 0, "ratio"});

    if (!args.trace_dir.empty()) {
      std::error_code ec;
      fs::create_directories(args.trace_dir, ec);
      const std::string path = args.trace_dir + "/spans-" + args.workload + "-seed" +
                               std::to_string(args.seed) + "-pid" + std::to_string(::getpid()) +
                               ".jsonl";
      if (!spans.Write(path, env)) {
        std::fprintf(stderr, "e2e_bench: cannot write %s\n", path.c_str());
      }
    }
  }

  // ---- Report ---------------------------------------------------------------
  std::printf("jobs %d, attempted %llu, failed %llu\n", jobs,
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed));
  for (const Metric& m : metrics) {
    std::printf("%-30s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const bool correct = outcome.failed == 0 && !rows_per_s.empty();
  std::string result = "{\"correct\": " + std::string(correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(outcome.attempted) +
                       ", \"failed\": " + std::to_string(outcome.failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) result += ", ";
    result += JsonString(metrics[i].name) + ": {\"value\": " + JsonNumber(metrics[i].value) +
              ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  result += "}}";
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
