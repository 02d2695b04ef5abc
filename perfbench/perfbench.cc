// perfbench: one repetition of one benchmark workload, driven through the
// public kern::Kernel syscall surface in one host process.
//
//   perfbench --workload varmail|untar|readhot|untar-fuse --seed N
//             [--trace 0|1] [--spans PATH] [--oracle]
//
// The benchmark owns its generators: every input derives from --seed and
// the simulator sees only the syscalls issued here. Clients are SimThreads
// scheduled by sim::run_workloads, closed loop (a client issues its next op
// only when the last one returned). After the measured interval the outputs
// are checked, the file system is unmounted cleanly and fsck'd. The result
// is one JSON object on stdout; run.py aggregates repetitions into metrics.
//
// --trace 1 records one span per syscall (op, virtual and host start/end,
// the workload-op id as parent) and diffs Kernel::dump_stats() between the
// measurement epoch and the end. Spans only read clocks, so a traced run's
// virtual results equal the untraced run's exactly.
//
// --oracle is the untimed durability check: the workload runs with crash
// tracking on, the device loses its volatile cache, the file system is
// remounted (journal recovery), and every file whose fsync returned Ok
// must hold its acknowledged bytes (varmail's acked mails, readhot's file;
// untar fsyncs nothing); then fsck must pass.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/rng.h"
#include "sim/runner.h"
#include "workloads/macro.h"
#include "workloads/testbed.h"
#include "xv6fs/fsck.h"

namespace {

using namespace bsim;
using Clock = std::chrono::steady_clock;

const Clock::time_point g_process_start = Clock::now();

std::int64_t host_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now() - g_process_start)
      .count();
}

// ---- workload sizes ----
constexpr std::uint64_t kDeviceBlocks = 524'288;  // 2 GiB
constexpr int kVarmailClients = 16;
constexpr std::uint64_t kMailFiles = 1000;
constexpr std::uint64_t kMailMean = 16 << 10;
constexpr std::uint64_t kMailAppend = 16 << 10;
constexpr std::uint64_t kVarmailOps = 4000;
constexpr double kUntarScale = 0.25;
constexpr int kReadhotClients = 4;
constexpr std::uint64_t kHotBytes = 256ULL << 20;
constexpr std::uint64_t kHotMeanRead = 4 << 10;
constexpr std::uint64_t kHotMaxRead = 64 << 10;
constexpr std::uint64_t kReadhotOps = 400'000;
constexpr std::size_t kChunk = 1 << 20;  // largest single write/read
constexpr std::uint64_t kWindows = 50;   // host-time windows per run

// ---- file contents ----
// Byte `off` of the file with content key `k` is pat[base(k) + off % kPeriod]
// where pat repeats with period kPeriod, so any slice of up to kPeriod bytes
// is one contiguous view of the pattern buffer.
constexpr std::size_t kPeriod = kChunk;
constexpr std::size_t kBases = 1 << 16;

class Pattern {
 public:
  explicit Pattern(std::uint64_t seed) : pat_(kBases + 2 * kPeriod) {
    sim::Rng rng(seed ^ 0x70617474ULL);
    for (std::size_t i = 0; i < kPeriod; i += 8) {
      const std::uint64_t w = rng.next();
      std::memcpy(&pat_[i], &w, 8);
    }
    for (std::size_t i = kPeriod; i < pat_.size(); ++i) {
      pat_[i] = pat_[i % kPeriod];
    }
  }

  /// Bytes [off, off + len) of file `key`; len <= kPeriod.
  [[nodiscard]] std::span<const std::byte> slice(std::uint64_t key,
                                                 std::uint64_t off,
                                                 std::size_t len) const {
    const std::size_t base = (key * 0x9E3779B97F4A7C15ULL >> 40) % kBases;
    return {&pat_[base + off % kPeriod], len};
  }

  [[nodiscard]] bool matches(std::uint64_t key, std::uint64_t off,
                             std::span<const std::byte> got) const {
    for (std::size_t done = 0; done < got.size(); done += kPeriod) {
      const std::size_t n = std::min(kPeriod, got.size() - done);
      if (std::memcmp(got.data() + done, slice(key, off + done, n).data(),
                      n) != 0) {
        return false;
      }
    }
    return true;
  }

 private:
  std::vector<std::byte> pat_;
};

/// FNV-1a over 8-byte words (a tail shorter than a word is zero-padded).
std::uint64_t checksum(std::uint64_t h, std::span<const std::byte> data) {
  for (std::size_t i = 0; i < data.size(); i += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, data.data() + i, std::min<std::size_t>(8, data.size() - i));
    h = (h ^ w) * 0x100000001b3ULL;
  }
  return h;
}
constexpr std::uint64_t kChecksumInit = 0xcbf29ce484222325ULL;

// ---- syscall spans ----
enum Op : std::uint8_t {
  kOpen, kCreat, kRead, kWrite, kFsync, kClose, kUnlink, kMkdir, kNumOps
};
constexpr const char* kOpNames[kNumOps] = {
    "open", "creat", "read", "write", "fsync", "close", "unlink", "mkdir"};

struct Span {
  std::uint64_t op_id;
  sim::Nanos v0, v1;
  std::int64_t h0, h1;
  Op op;
};

bool ok_of(kern::Err e) { return e == kern::Err::Ok; }
template <class T>
bool ok_of(const kern::Result<T>& r) {
  return r.ok();
}

/// Per-run measurement state: op samples, syscall spans, and the two
/// stats snapshots that bracket the measured interval.
struct Harness {
  Harness(wl::TestBed& b, bool t) : bed(b), trace(t) {}

  /// Issue one syscall. Within the measured interval its errors and fsync
  /// latency are counted, and with tracing on it is recorded as a span.
  template <class F>
  auto sys(Op op, F&& call) {
    const sim::Nanos v0 = sim::now();
    const std::int64_t h0 = trace && measuring ? host_ns() : 0;
    auto r = call();
    if (!measuring) return r;
    if (trace) spans.push_back({op_id, v0, sim::now(), h0, host_ns(), op});
    if (!ok_of(r)) errors += 1;
    if (op == kFsync) fsync_lat.push_back(sim::now() - v0);
    return r;
  }

  /// Run one workload op as one latency sample. The first op opens the
  /// measured interval.
  template <class F>
  std::int64_t op(F&& body) {
    if (!measuring) begin();
    else if (op_id % window_ops == 0) marks.push_back(host_ns());
    op_id += 1;
    const sim::Nanos v0 = sim::now();
    const bool ok = body();
    lat.push_back(sim::now() - v0);
    (ok ? ok_ops : failed_ops) += 1;
    return 0;
  }

  /// Split the measured interval into about kWindows windows of equal op
  /// counts, so repetitions can be compared window by window.
  void expect_ops(std::uint64_t n) {
    window_ops = std::max<std::uint64_t>(1, n / kWindows);
  }

  void note_written(std::uint64_t n) {
    if (measuring) user_bytes += n;
  }

  /// The untimed stats snapshot, as one line of JSON.
  std::string snapshot() {
    std::string s = bed.kernel().dump_stats();
    std::replace(s.begin(), s.end(), '\n', ' ');
    return s;
  }

  /// Open the measured interval (at the first workload op).
  void begin() {
    if (trace) stats_epoch = snapshot();
    measuring = true;
    host_t0 = host_ns();
    marks.push_back(host_t0);
  }

  /// Close the measured interval (after run_workloads returns).
  void end() {
    host_t1 = host_ns();
    marks.push_back(host_t1);
    measuring = false;
    if (trace) stats_end = snapshot();
  }

  wl::TestBed& bed;
  bool trace = false;
  bool measuring = false;
  std::uint64_t op_id = 0;
  std::uint64_t ok_ops = 0;
  std::uint64_t failed_ops = 0;
  std::uint64_t errors = 0;
  std::uint64_t user_bytes = 0;
  std::int64_t host_t0 = 0;
  std::int64_t host_t1 = 0;
  std::uint64_t window_ops = 1;
  std::vector<std::int64_t> marks;  // host time at each window boundary
  std::vector<sim::Nanos> lat;
  std::vector<sim::Nanos> fsync_lat;
  std::vector<Span> spans;
  std::string stats_epoch;
  std::string stats_end;
};

/// State shared by a run's clients and its checks.
struct Bench {
  Bench(wl::TestBed& b, bool trace, std::uint64_t s)
      : bed(b), k(b.kernel()), h(b, trace), pat(s), seed(s) {}
  wl::TestBed& bed;
  kern::Kernel& k;
  Harness h;
  Pattern pat;
  std::uint64_t seed;
  std::vector<std::string> problems;  // failed output checks

  void problem(std::string what) {
    if (problems.size() < 20) problems.push_back(std::move(what));
    else if (problems.size() == 20) problems.push_back("...");
  }

  /// Write `len` bytes of file `key` from offset `off` through `fd` in
  /// chunks of at most kChunk; true when every write completed in full.
  bool write_content(kern::Process& p, int fd, std::uint64_t key,
                     std::uint64_t off, std::uint64_t len, bool positional) {
    while (len > 0) {
      const std::size_t n = std::min<std::uint64_t>(len, kChunk);
      const auto data = pat.slice(key, off, n);
      const auto r = h.sys(kWrite, [&] {
        return positional ? k.pwrite(p, fd, data, off) : k.write(p, fd, data);
      });
      if (!r.ok() || r.value() != n) return false;
      h.note_written(n);
      off += n;
      len -= n;
    }
    return true;
  }

  /// Read `len` bytes at `off` and compare with file `key`'s pattern.
  bool read_matches(kern::Process& p, int fd, std::uint64_t key,
                    std::uint64_t off, std::uint64_t len,
                    std::vector<std::byte>& buf) {
    buf.resize(std::max<std::size_t>(buf.size(), len));
    const auto r = h.sys(kRead, [&] {
      return k.pread(p, fd, std::span(buf.data(), len), off);
    });
    return r.ok() && r.value() == len &&
           pat.matches(key, off, std::span(buf.data(), len));
  }

  /// Untimed check of one file's size and content (outside the measured
  /// interval); reports a problem on mismatch.
  bool check_file(kern::Process& p, const std::string& path,
                  std::uint64_t key, std::uint64_t size) {
    const auto st = k.stat(p, path);
    if (!st.ok() || st.value().size != size) {
      problem(path + ": " +
              (st.ok() ? "size " + std::to_string(st.value().size) +
                             " != " + std::to_string(size)
                       : std::string("stat ") + kern::err_name(st.error())));
      return false;
    }
    const auto fd = k.open(p, path, kern::kORdOnly);
    if (!fd.ok()) {
      problem(path + ": open failed");
      return false;
    }
    std::vector<std::byte> buf(kChunk);
    std::uint64_t want = kChecksumInit;
    std::uint64_t got = kChecksumInit;
    bool ok = true;
    for (std::uint64_t off = 0; ok && off < size; off += kChunk) {
      const std::size_t n = std::min<std::uint64_t>(size - off, kChunk);
      const auto r = k.pread(p, fd.value(), std::span(buf.data(), n), off);
      ok = r.ok() && r.value() == n;
      if (ok) {
        got = checksum(got, std::span(buf.data(), n));
        want = checksum(want, pat.slice(key, off, n));
      }
    }
    (void)k.close(p, fd.value());
    if (!ok || got != want) {
      problem(path + ": content checksum mismatch");
      return false;
    }
    return true;
  }
};

// ---- varmail ----
struct MailFile {
  bool exists = false;
  std::uint64_t key = 0;
  std::uint64_t size = 0;
  // Last acknowledged (fsync returned Ok) contents, for the oracle.
  bool acked = false;
  bool acked_live = false;  // not unlinked since the ack
  std::uint64_t acked_key = 0;
  std::uint64_t acked_size = 0;
};

struct MailSet {
  std::vector<MailFile> files = std::vector<MailFile>(kMailFiles);
  std::uint64_t next_key = 1;

  static std::string path(std::uint64_t i) {
    return "/mnt/vm/m" + std::to_string(i);
  }
  void ack(std::uint64_t i) {
    MailFile& f = files[i];
    f.acked = f.acked_live = true;
    f.acked_key = f.key;
    f.acked_size = f.size;
  }
};

/// filebench varmail: one op = delete; create + append + fsync + close;
/// open + read whole + append + fsync + close.
class VarmailClient final : public sim::Workload {
 public:
  VarmailClient(Bench& b, MailSet& m, int id)
      : b_(b), m_(m), id_(id), rng_(b.seed * 0x2545F4914F6CDD1DULL + id) {}

  void setup() override {
    proc_ = b_.k.new_process();
    if (id_ != 0) return;
    // Pre-populate the mail set, then make it durable.
    auto& p = *proc_;
    if (!ok_of(b_.k.mkdir(p, "/mnt/vm"))) throw std::runtime_error("mkdir");
    sim::Rng prep(b_.seed ^ 0x6d61696cULL);
    for (std::uint64_t i = 0; i < kMailFiles; ++i) {
      MailFile& f = m_.files[i];
      const auto fd = b_.k.open(p, MailSet::path(i),
                                kern::kOCreat | kern::kOWrOnly);
      f.key = m_.next_key++;
      f.size = prep.size_around(kMailMean, 4 * kMailMean);
      if (!fd.ok() ||
          !b_.write_content(p, fd.value(), f.key, 0, f.size, false) ||
          !ok_of(b_.k.close(p, fd.value()))) {
        throw std::runtime_error("varmail pre-populate failed");
      }
      f.exists = true;
    }
    if (!ok_of(b_.k.sync(p))) throw std::runtime_error("sync");
    for (std::uint64_t i = 0; i < kMailFiles; ++i) m_.ack(i);
  }

  std::int64_t step() override {
    return b_.h.op([&] { return iteration(); });
  }

 private:
  std::optional<std::uint64_t> pick(bool existing) {
    for (int tries = 0; tries < 64; ++tries) {
      const std::uint64_t i = rng_.below(kMailFiles);
      if (m_.files[i].exists == existing) return i;
    }
    for (std::uint64_t i = 0; i < kMailFiles; ++i) {
      if (m_.files[i].exists == existing) return i;
    }
    return std::nullopt;
  }

  bool finish(int fd, bool ok) {
    const bool closed = ok_of(b_.h.sys(kClose, [&] {
      return b_.k.close(*proc_, fd);
    }));
    return ok && closed;
  }

  bool iteration() {
    auto& k = b_.k;
    auto& p = *proc_;
    // 1. delete a mail
    if (const auto i = pick(true)) {
      if (!ok_of(b_.h.sys(kUnlink, [&] {
            return k.unlink(p, MailSet::path(*i));
          }))) {
        return false;
      }
      m_.files[*i].exists = false;
      m_.files[*i].acked_live = false;
    }
    // 2. deliver a new mail: create, append, fsync, close
    if (const auto i = pick(false)) {
      const auto fd = b_.h.sys(kCreat, [&] {
        return k.open(p, MailSet::path(*i), kern::kOCreat | kern::kOWrOnly);
      });
      if (!fd.ok()) return false;
      MailFile& f = m_.files[*i];
      f.exists = true;
      f.key = m_.next_key++;
      f.size = rng_.size_around(kMailMean, 4 * kMailMean);
      const bool ok =
          b_.write_content(p, fd.value(), f.key, 0, f.size, false) &&
          ok_of(b_.h.sys(kFsync, [&] { return k.fsync(p, fd.value()); }));
      if (ok) m_.ack(*i);
      if (!finish(fd.value(), ok)) return false;
    }
    // 3. read a mail whole and append a reply: open, read, append, fsync
    if (const auto j = pick(true)) {
      const auto fd = b_.h.sys(kOpen, [&] {
        return k.open(p, MailSet::path(*j), kern::kORdWr);
      });
      if (!fd.ok()) return false;
      MailFile& f = m_.files[*j];
      const std::uint64_t add = rng_.range(1, kMailAppend);
      bool ok = b_.read_matches(p, fd.value(), f.key, 0, f.size, buf_) &&
                b_.write_content(p, fd.value(), f.key, f.size, add, true);
      if (ok) f.size += add;
      ok = ok &&
           ok_of(b_.h.sys(kFsync, [&] { return k.fsync(p, fd.value()); }));
      if (ok) m_.ack(*j);
      if (!finish(fd.value(), ok)) return false;
    }
    return true;
  }

  Bench& b_;
  MailSet& m_;
  int id_;
  sim::Rng rng_;
  std::unique_ptr<kern::Process> proc_;
  std::vector<std::byte> buf_;
};

void check_varmail(Bench& b, const MailSet& m, kern::Process& p) {
  for (std::uint64_t i = 0; i < kMailFiles; ++i) {
    const MailFile& f = m.files[i];
    if (f.exists) {
      (void)b.check_file(p, MailSet::path(i), f.key, f.size);
    } else if (b.k.stat(p, MailSet::path(i)).ok()) {
      b.problem(MailSet::path(i) + ": deleted mail still exists");
    }
  }
}

/// After crash + recovery: acknowledged mails hold their acked bytes; a
/// mail unlinked after its ack may be gone, but if present it holds them.
void check_durability(Bench& b, const MailSet& m, kern::Process& p) {
  for (std::uint64_t i = 0; i < kMailFiles; ++i) {
    const MailFile& f = m.files[i];
    if (!f.acked) continue;
    if (!f.acked_live && !b.k.stat(p, MailSet::path(i)).ok()) continue;
    (void)b.check_file(p, MailSet::path(i), f.acked_key, f.acked_size);
  }
}

// ---- untar ----
/// Replays a source-tree manifest: mkdir, or create + write + close.
class UntarClient final : public sim::Workload {
 public:
  UntarClient(Bench& b, const std::vector<wl::UntarEntry>& manifest)
      : b_(b), manifest_(manifest) {}

  void setup() override { proc_ = b_.k.new_process(); }

  std::int64_t step() override {
    if (next_ >= manifest_.size()) return -1;
    const std::uint64_t i = next_++;
    return b_.h.op([&] { return entry(i); });
  }

 private:
  bool entry(std::uint64_t i) {
    const wl::UntarEntry& e = manifest_[i];
    auto& k = b_.k;
    auto& p = *proc_;
    if (e.is_dir) {
      return ok_of(b_.h.sys(kMkdir, [&] { return k.mkdir(p, e.path); }));
    }
    const auto fd = b_.h.sys(kCreat, [&] {
      return k.open(p, e.path, kern::kOCreat | kern::kOWrOnly);
    });
    if (!fd.ok()) return false;
    const bool ok = b_.write_content(p, fd.value(), i, 0, e.size, false);
    const bool closed =
        ok_of(b_.h.sys(kClose, [&] { return k.close(p, fd.value()); }));
    return ok && closed;
  }

  Bench& b_;
  const std::vector<wl::UntarEntry>& manifest_;
  std::size_t next_ = 0;
  std::unique_ptr<kern::Process> proc_;
};

void check_untar(Bench& b, const std::vector<wl::UntarEntry>& manifest,
                 kern::Process& p) {
  for (std::uint64_t i = 0; i < manifest.size(); ++i) {
    const wl::UntarEntry& e = manifest[i];
    if (e.is_dir) {
      const auto st = b.k.stat(p, e.path);
      if (!st.ok() || st.value().type != kern::FileType::Directory) {
        b.problem(e.path + ": directory missing");
      }
    } else {
      (void)b.check_file(p, e.path, i, e.size);
    }
  }
}

// ---- readhot ----
constexpr std::uint64_t kHotKey = 7;
const char* const kHotPath = "/mnt/hot";

/// Random preads (mean 4 KiB) of a prewarmed file, every byte checked.
class ReadhotClient final : public sim::Workload {
 public:
  ReadhotClient(Bench& b, int id)
      : b_(b), id_(id), rng_(b.seed * 0x9E3779B97F4A7C15ULL + id) {}

  void setup() override {
    proc_ = b_.k.new_process();
    auto& k = b_.k;
    auto& p = *proc_;
    if (id_ == 0) {
      // Create the file, make it durable, then read it once so every page
      // is resident and clean.
      const auto fd = k.open(p, kHotPath, kern::kOCreat | kern::kOWrOnly);
      if (!fd.ok() ||
          !b_.write_content(p, fd.value(), kHotKey, 0, kHotBytes, false) ||
          !ok_of(k.fsync(p, fd.value())) || !ok_of(k.close(p, fd.value()))) {
        throw std::runtime_error("readhot file creation failed");
      }
    }
    const auto fd = k.open(p, kHotPath, kern::kORdOnly);
    if (!fd.ok()) throw std::runtime_error("readhot open failed");
    fd_ = fd.value();
    if (id_ == 0) {
      for (std::uint64_t off = 0; off < kHotBytes; off += kChunk) {
        if (!b_.read_matches(p, fd_, kHotKey, off, kChunk, buf_)) {
          throw std::runtime_error("readhot prewarm mismatch");
        }
      }
    }
  }

  /// Release the descriptor before the untimed checks unmount.
  void close_file() { (void)b_.k.close(*proc_, fd_); }

  std::int64_t step() override {
    return b_.h.op([&] {
      const std::uint64_t len = rng_.size_around(kHotMeanRead, kHotMaxRead);
      const std::uint64_t off = rng_.below(kHotBytes - len + 1);
      return b_.read_matches(*proc_, fd_, kHotKey, off, len, buf_);
    });
  }

 private:
  Bench& b_;
  int id_;
  sim::Rng rng_;
  std::unique_ptr<kern::Process> proc_;
  int fd_ = -1;
  std::vector<std::byte> buf_;
};

// ---- result ----
/// Nearest-rank percentile, or nothing when fewer than 10 samples lie
/// beyond it (the estimate would rest on too few tail samples).
std::optional<sim::Nanos> percentile(std::vector<sim::Nanos> v, int pct) {
  const std::size_t n = v.size();
  const std::size_t rank = (static_cast<std::size_t>(pct) * n + 99) / 100;
  if (n == 0 || rank == 0 || n - rank < 10) return std::nullopt;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   v.end());
  return v[rank - 1];
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string opt_num(std::optional<sim::Nanos> v) {
  return v ? std::to_string(*v) : "null";
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  return out + '"';
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;
  bool oracle = false;
  std::string spans_path;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--oracle") {
      a.oracle = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value: " + flag);
    const std::string val = argv[++i];
    if (flag == "--workload") a.workload = val;
    else if (flag == "--seed") a.seed = std::stoull(val);
    else if (flag == "--trace") a.trace = val == "1";
    else if (flag == "--spans") a.spans_path = val;
    else throw std::invalid_argument("unknown flag: " + flag);
  }
  if (a.workload != "varmail" && a.workload != "untar" &&
      a.workload != "readhot" && a.workload != "untar-fuse") {
    throw std::invalid_argument("unknown workload: " + a.workload);
  }
  return a;
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path, std::ios::trunc);
  out << "op_id,op,virt_start_ns,virt_end_ns,host_start_ns,host_end_ns\n";
  for (const Span& s : spans) {
    out << s.op_id << ',' << kOpNames[s.op] << ',' << s.v0 << ',' << s.v1
        << ',' << s.h0 << ',' << s.h1 << '\n';
  }
  if (!out) throw std::runtime_error("cannot write spans to " + path);
}

/// Per-op aggregates of the spans, plus the host time they cover.
std::string vfs_json(const Harness& h, std::int64_t* span_host_ns) {
  std::vector<std::vector<sim::Nanos>> virt(kNumOps);
  std::vector<std::int64_t> host(kNumOps, 0);
  *span_host_ns = 0;
  for (const Span& s : h.spans) {
    virt[s.op].push_back(s.v1 - s.v0);
    host[s.op] += s.h1 - s.h0;
    *span_host_ns += s.h1 - s.h0;
  }
  std::string out = "{";
  for (int op = 0; op < kNumOps; ++op) {
    sim::Nanos sum = 0;
    for (const sim::Nanos v : virt[op]) sum += v;
    if (op > 0) out += ", ";
    out += quoted(kOpNames[op]) + ": {\"calls\": " +
           std::to_string(virt[op].size()) +
           ", \"virt_ns_sum\": " + std::to_string(sum) +
           ", \"virt_p99_ns\": " + opt_num(percentile(virt[op], 99)) +
           ", \"host_ns_sum\": " + std::to_string(host[op]) + "}";
  }
  return out + "}";
}

int run(const Args& a) {
  wl::BedOptions opts;
  opts.fs = a.workload == "untar-fuse" ? "xv6_fuse" : "xv6_bento";
  opts.device_blocks = kDeviceBlocks;
  wl::TestBed bed(opts);
  Bench b(bed, a.trace, a.seed);
  if (a.oracle) bed.device().enable_crash_tracking();

  MailSet mail;
  std::vector<wl::UntarEntry> manifest;
  std::vector<std::unique_ptr<sim::Workload>> clients;
  std::vector<ReadhotClient*> readers;
  sim::RunnerOptions ropts;
  ropts.horizon = 1'000'000 * sim::kSecond;  // runs are op-bound
  if (a.workload == "varmail") {
    for (int i = 0; i < kVarmailClients; ++i) {
      clients.push_back(std::make_unique<VarmailClient>(b, mail, i));
    }
    ropts.max_ops = kVarmailOps;
    b.h.expect_ops(kVarmailOps);
  } else if (a.workload == "readhot") {
    for (int i = 0; i < kReadhotClients; ++i) {
      auto c = std::make_unique<ReadhotClient>(b, i);
      readers.push_back(c.get());
      clients.push_back(std::move(c));
    }
    ropts.max_ops = kReadhotOps;
    b.h.expect_ops(kReadhotOps);
  } else {
    manifest = wl::linux_tree_manifest(kUntarScale, a.seed);
    b.h.expect_ops(manifest.size());
    clients.push_back(std::make_unique<UntarClient>(b, manifest));
  }

  const sim::RunStats rs = sim::run_workloads(clients, ropts);
  b.h.end();

  // Untimed checks, on a clock past every client's.
  sim::SimThread checker(-2);
  checker.wait_until(2 * ropts.horizon);
  sim::ScopedThread in(checker);
  for (ReadhotClient* r : readers) r->close_file();
  auto proc = b.k.new_process();
  if (a.oracle) {
    // Lose the volatile cache, keep the old mount from touching the
    // surviving image while it unmounts, then revive and remount.
    sim::Rng crash_rng(a.seed);
    bed.device().crash(0.0, crash_rng);
    bed.device().power_off();
    (void)b.k.umount("/mnt");
    bed.device().crash(0.0, crash_rng);
    if (!ok_of(b.k.mount(opts.fs, "ssd0", "/mnt"))) {
      b.problem("remount after crash failed");
    } else if (a.workload == "varmail") {
      check_durability(b, mail, *proc);
    } else if (a.workload == "readhot") {
      (void)b.check_file(*proc, kHotPath, kHotKey, kHotBytes);
    }
  } else if (a.workload == "varmail") {
    check_varmail(b, mail, *proc);
  } else if (a.workload == "readhot") {
    (void)b.check_file(*proc, kHotPath, kHotKey, kHotBytes);
  } else {
    check_untar(b, manifest, *proc);
  }
  if (!ok_of(b.k.umount("/mnt"))) b.problem("clean unmount failed");
  const xv6::FsckReport fsck = xv6::fsck(bed.device());
  if (!fsck.ok) b.problem("fsck: " + fsck.summary());

  std::int64_t span_host_ns = 0;
  const std::string vfs = vfs_json(b.h, &span_host_ns);
  if (a.trace && !a.spans_path.empty()) write_spans(a.spans_path, b.h.spans);
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);

  const Harness& h = b.h;
  std::string out = "{";
  out += "\"workload\": " + quoted(a.workload);
  out += ", \"seed\": " + std::to_string(a.seed);
  out += ", \"trace\": " + std::string(a.trace ? "true" : "false");
  out += ", \"oracle\": " + std::string(a.oracle ? "true" : "false");
  out += ", \"setup_s\": " + num(static_cast<double>(h.host_t0) / 1e9);
  out += ", \"host_ns\": " + std::to_string(h.host_t1 - h.host_t0);
  out += ", \"window_ns\": [";
  for (std::size_t i = 1; i < h.marks.size(); ++i) {
    out += (i > 1 ? ", " : "") + std::to_string(h.marks[i] - h.marks[i - 1]);
  }
  out += "]";
  out += ", \"ops_ok\": " + std::to_string(h.ok_ops);
  out += ", \"ops_failed\": " + std::to_string(h.failed_ops);
  out += ", \"virt_elapsed_ns\": " + std::to_string(rs.elapsed);
  out += ", \"lat_n\": " + std::to_string(h.lat.size());
  out += ", \"p50_ns\": " + opt_num(percentile(h.lat, 50));
  out += ", \"p99_ns\": " + opt_num(percentile(h.lat, 99));
  out += ", \"fsync_n\": " + std::to_string(h.fsync_lat.size());
  out += ", \"fsync_p99_ns\": " + opt_num(percentile(h.fsync_lat, 99));
  out += ", \"syscall_errors\": " + std::to_string(h.errors);
  out += ", \"user_bytes\": " + std::to_string(h.user_bytes);
  out += ", \"peak_rss_kb\": " + std::to_string(ru.ru_maxrss);
  out += ", \"problems\": [";
  for (std::size_t i = 0; i < b.problems.size(); ++i) {
    out += (i ? ", " : "") + quoted(b.problems[i]);
  }
  out += "]";
  if (a.trace) {
    out += ", \"spans\": " + std::to_string(h.spans.size());
    out += ", \"span_host_ns\": " + std::to_string(span_host_ns);
    out += ", \"vfs\": " + vfs;
    out += ", \"stats_epoch\": " + h.stats_epoch;
    out += ", \"stats_end\": " + h.stats_end;
  }
  out += "}";
  std::printf("%s\n", out.c_str());
  return b.problems.empty() && h.failed_ops == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
