// Closed-loop benchmark of the sealed H-ORAM service.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--corrupt-shadow] [--trace-out <file>]
//
// One process drives horam::service (client_builder, sealing on) with a
// fixed set of sessions. Each session keeps exactly one request
// outstanding and admits its next one as soon as its ticket is ready.
// Every read is checked against a shadow copy of the store, and every
// shard's backend is audited with check_consistency() at the end.
//
// --trace 0 prints the end-to-end metrics. Virtual-time metrics cover a
// fixed number of scheduling rounds after warm-up, so they are a pure
// function of the workload seed; host-time metrics cover the whole
// measured window, which runs for at least --seconds, and are scaled by
// a calibration kernel timed between rounds (see `calibration`).
//
// --trace 1 runs the same workload twice over half that virtual window:
// once through the service, once through a machine assembled
// from public parts with a timing decorator around every shard's store.
// The two must agree on every virtual latency and every device,
// controller, router and backend counter, or the run fails. The traced
// run prints the per-layer metrics and writes its spans as Chrome
// trace-event JSON.
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, metrics. The exit code is 0 only when every check
// passed.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "horam.h"
#include "tracing.h"
#include "workload.h"

namespace perfbench {
namespace {

using horam::sim::sim_time;

constexpr int kSetupRepeats = 5;
/// p99.9 needs ten samples beyond it.
constexpr std::uint64_t kMinTailSamples = 10000;
constexpr int kCodecRepeats = 7;
constexpr std::size_t kCodecRecords = 2048;

// ------------------------------------------------------------- machines

horam::client_builder make_builder(const workload& w) {
  horam::client_builder b;
  b.blocks(w.blocks)
      .cache_ratio(kCacheRatio)
      .payload_bytes(kPayloadBytes)
      .backend(w.backend)
      .storage_profile(w.profile)
      .shards(w.shards)
      .coalescing(w.coalescing)
      .map_on_storage(w.map_on_storage)
      .seal(true)
      .seed(kMachineSeed)
      .filler([](horam::oram::block_id id, std::span<std::uint8_t> out) {
        fill_payload(id, 0, out);
      });
  if (w.threads > 0) {
    b.threads(w.threads);
  }
  if (w.shuffle_slice_budget > 0) {
    b.shuffle(horam::shuffle_policy::incremental)
        .shuffle_slice_budget(w.shuffle_slice_budget);
  }
  return b;
}

/// The machine under test: the facade's service and one session per
/// closed-loop client.
class service_machine {
 public:
  service_machine(horam::service svc, std::uint32_t sessions)
      : svc_(std::move(svc)), tickets_(sessions) {
    for (std::uint32_t s = 0; s < sessions; ++s) {
      sessions_.push_back(svc_.open_session());
    }
  }

  void submit(std::uint32_t s, horam::request&& req) {
    tickets_[s] = req.op == horam::oram::op_kind::write
                      ? sessions_[s].async_write(req.id, req.write_data)
                      : sessions_[s].async_read(req.id);
  }
  bool step() { return svc_.step(); }
  [[nodiscard]] bool ready(std::uint32_t s) const {
    return tickets_[s].ready();
  }
  const horam::ticket_result& result(std::uint32_t s) {
    return tickets_[s].result();
  }
  void reset_stats() { svc_.reset_stats(); }
  [[nodiscard]] horam::engine& eng() { return svc_.underlying().eng(); }
  [[nodiscard]] std::uint64_t trusted_bytes() const {
    return svc_.underlying().control_memory_bytes();
  }

 private:
  horam::service svc_;
  std::vector<horam::session> sessions_;
  std::vector<horam::ticket> tickets_;
};

/// The same machine assembled from public parts: an engine whose shard
/// factory wraps make_backend's store in timed_backend, pumped by a
/// tenant_scheduler whose every step is timed.
class traced_machine {
 public:
  traced_machine(const horam::horam_config& config, const workload& w)
      : cpu_(horam::sim::cpu_aesni()), done_(w.sessions, false),
        results_(w.sessions) {
    for (std::uint32_t s = 0; s < config.shard_count; ++s) {
      lanes_.push_back(std::make_unique<lane_record>());
    }
    const horam::backend_kind kind = w.backend;
    const horam::engine::shard_factory factory =
        [this, kind](std::uint32_t shard_index,
                     const horam::horam_config& shard_config,
                     horam::sim::block_device& storage,
                     horam::sim::block_device& memory,
                     const horam::sim::cpu_model& cpu,
                     horam::util::random_source& rng,
                     horam::oram::access_trace* trace,
                     std::span<const horam::oram::block_id> shard_blocks) {
          const std::function<void(horam::oram::block_id,
                                   std::span<std::uint8_t>)>
              filler = [shard_blocks](horam::oram::block_id local,
                                      std::span<std::uint8_t> out) {
                fill_payload(
                    shard_blocks.empty() ? local : shard_blocks[local], 0,
                    out);
              };
          return std::make_unique<timed_backend>(
              horam::make_backend(
                  kind, shard_config, storage, cpu, rng, trace, &filler,
                  shard_config.map_on_storage ? &storage : &memory),
              *lanes_[shard_index], clock_);
        };
    horam::engine::options opts;
    opts.storage_profile = horam::storage_profile_by_name(w.profile);
    opts.memory_profile = horam::sim::dram_ddr4();
    opts.seed = kMachineSeed;
    eng_ = std::make_unique<horam::engine>(config, cpu_, factory, opts);
    sched_ = std::make_unique<horam::tenant_scheduler>(
        *eng_, horam::make_fairness_policy(horam::fairness_kind::round_robin));
    for (std::uint32_t s = 0; s < w.sessions; ++s) {
      (void)sched_->add_tenant();
    }
    workers_ = std::max<std::uint32_t>(1, eng_->worker_threads());
  }
  traced_machine(const traced_machine&) = delete;
  traced_machine& operator=(const traced_machine&) = delete;

  void submit(std::uint32_t s, horam::request&& req) {
    done_[s] = false;
    (void)sched_->enqueue(s, std::move(req));
  }

  bool step() {
    const std::uint64_t round = ++round_;
    clock_.round.store(round, std::memory_order_relaxed);
    std::vector<std::int64_t> before(lanes_.size());
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      before[i] = lane_ns(i);
    }
    round_record rec{.round = round,
                     .host_start_ns = host_ns(host_clock::now(), clock_.origin),
                     .virt_start = eng_->now()};
    const bool worked = sched_->step(
        [this, &rec](std::uint32_t tenant, std::uint64_t /*seq*/,
                     horam::request_result&& result, sim_time latency) {
          horam::ticket_result& slot = results_[tenant];
          slot.payload = std::move(result.read_data);
          slot.latency = latency;
          done_[tenant] = true;
          ++rec.completions;
        });
    rec.host_end_ns = host_ns(host_clock::now(), clock_.origin);
    rec.virt_end = eng_->now();

    // Lanes of one worker run back to back; workers overlap. The step's
    // critical path through the stores is the busiest worker's share.
    std::vector<std::int64_t> per_worker(workers_, 0);
    std::int64_t backend = 0;
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      const std::int64_t delta = lane_ns(i) - before[i];
      per_worker[i % workers_] += delta;
      backend += delta;
    }
    const std::int64_t step_ns = rec.host_end_ns - rec.host_start_ns;
    totals_.step_ns += step_ns;
    totals_.backend_ns += backend;
    totals_.above_backend_ns +=
        step_ns - *std::max_element(per_worker.begin(), per_worker.end());
    if (rounds_.size() < kSpanLimit) {
      rounds_.push_back(rec);
    }
    return worked;
  }

  [[nodiscard]] bool ready(std::uint32_t s) const { return done_[s]; }
  const horam::ticket_result& result(std::uint32_t s) {
    return results_[s];
  }
  void reset_stats() {
    sched_->reset_stats();
    eng_->reset_stats();
    totals_ = {};
    for (const std::unique_ptr<lane_record>& lane : lanes_) {
      lane->load_ns = 0;
      lane->shuffle_ns = 0;
    }
  }
  [[nodiscard]] horam::engine& eng() { return *eng_; }
  [[nodiscard]] std::uint64_t trusted_bytes() const {
    return eng_->control_memory_bytes();
  }

  struct host_totals {
    std::int64_t step_ns = 0;
    std::int64_t backend_ns = 0;
    std::int64_t above_backend_ns = 0;
  };
  [[nodiscard]] const host_totals& totals() const { return totals_; }
  /// One lane_record field summed over the shards.
  [[nodiscard]] std::int64_t lane_total(
      std::int64_t lane_record::*field) const {
    std::int64_t total = 0;
    for (const std::unique_ptr<lane_record>& lane : lanes_) {
      total += (*lane).*field;
    }
    return total;
  }

  void write_trace(const std::filesystem::path& path) const {
    std::vector<lane_record*> lanes;
    for (const std::unique_ptr<lane_record>& lane : lanes_) {
      lanes.push_back(lane.get());
    }
    std::ofstream out(path);
    write_chrome_trace(out, rounds_, lanes);
  }

 private:
  [[nodiscard]] std::int64_t lane_ns(std::size_t i) const {
    return lanes_[i]->load_ns + lanes_[i]->shuffle_ns;
  }

  horam::sim::cpu_model cpu_;
  trace_clock clock_;
  std::vector<std::unique_ptr<lane_record>> lanes_;
  std::vector<round_record> rounds_;
  host_totals totals_;
  std::uint64_t round_ = 0;
  std::uint32_t workers_ = 1;
  std::vector<bool> done_;
  std::vector<horam::ticket_result> results_;
  // Declared last: the engine joins its workers before the lane records
  // and the clock they write to are destroyed.
  std::unique_ptr<horam::engine> eng_;
  std::unique_ptr<horam::tenant_scheduler> sched_;
};

// ---------------------------------------------------- host calibration

/// Host times are reported as they would read on a CPU that runs one
/// reference block in this many ns (the 4-vCPU virtual machine the
/// bounds in BENCHMARK.json were set on).
constexpr double kReferenceNs = 150.0;
/// Blocks per calibration sample (a few ms) and the host time between
/// samples.
constexpr int kReferenceBlocks = 20000;
constexpr std::chrono::milliseconds kSampleEvery{500};

/// Shared virtual machines drift in CPU speed by 20-30% over minutes, and
/// every host time drifts with them. So the benchmark times a fixed kernel
/// between rounds — the ChaCha20 double round, the arithmetic the codec's
/// cost is made of, coded here so that no library change can move it —
/// and scales host times to kReferenceNs per block by the median sample.
class calibration {
 public:
  void sample() {
    std::array<std::uint32_t, 16> state{};
    for (std::uint32_t i = 0; i < 16; ++i) {
      state[i] = 0x61707865u * (i + 1);
    }
    const auto rotl = [](std::uint32_t v, int c) {
      return (v << c) | (v >> (32 - c));
    };
    const auto quarter = [&rotl](std::array<std::uint32_t, 16>& x, int a,
                                 int b, int c, int d) {
      x[a] += x[b], x[d] = rotl(x[d] ^ x[a], 16);
      x[c] += x[d], x[b] = rotl(x[b] ^ x[c], 12);
      x[a] += x[b], x[d] = rotl(x[d] ^ x[a], 8);
      x[c] += x[d], x[b] = rotl(x[b] ^ x[c], 7);
    };
    const host_clock::time_point t0 = host_clock::now();
    for (int block = 0; block < kReferenceBlocks; ++block) {
      std::array<std::uint32_t, 16> x = state;
      x[12] = static_cast<std::uint32_t>(block);
      for (int round = 0; round < 10; ++round) {
        quarter(x, 0, 4, 8, 12), quarter(x, 1, 5, 9, 13);
        quarter(x, 2, 6, 10, 14), quarter(x, 3, 7, 11, 15);
        quarter(x, 0, 5, 10, 15), quarter(x, 1, 6, 11, 12);
        quarter(x, 2, 7, 8, 13), quarter(x, 3, 4, 9, 14);
      }
      for (std::size_t i = 0; i < 16; ++i) {
        sink_ ^= x[i] + state[i];
      }
    }
    const std::int64_t ns = host_ns(host_clock::now(), t0);
    samples_.push_back(static_cast<double>(ns) / kReferenceBlocks);
    spent_ += static_cast<double>(ns) * 1e-9;
    last_ = host_clock::now();
  }
  /// Samples when kSampleEvery has passed since the last sample.
  void maybe_sample() {
    if (host_clock::now() - last_ >= kSampleEvery) {
      sample();
    }
  }
  /// Median measured ns per reference block.
  [[nodiscard]] double ns_per_block() const;
  /// Factor that turns a measured host time into reference time.
  [[nodiscard]] double time_scale() const {
    return kReferenceNs / ns_per_block();
  }
  /// Host seconds spent sampling (excluded from the host window).
  [[nodiscard]] double seconds_spent() const { return spent_; }
  /// The kernel's folded output; the run line prints it, so the kernel
  /// cannot be optimized away.
  [[nodiscard]] std::uint32_t checksum() const { return sink_; }

 private:
  std::vector<double> samples_;
  double spent_ = 0.0;
  std::uint32_t sink_ = 0;
  host_clock::time_point last_ = host_clock::now();
};

// ------------------------------------------------------ closed-loop run

/// Every counter the library keeps for the machine, flattened: the
/// traced and untraced runs must produce identical vectors.
std::vector<std::int64_t> fingerprint(const horam::engine& e) {
  std::vector<std::int64_t> v;
  const auto put = [&v](auto x) { v.push_back(static_cast<std::int64_t>(x)); };
  const auto io = [&put](const horam::sim::io_stats& s) {
    put(s.read_ops), put(s.write_ops), put(s.sequential_read_ops);
    put(s.sequential_write_ops), put(s.bytes_read), put(s.bytes_written);
    put(s.round_trips), put(s.busy_time);
  };
  const auto ctrl = [&put](const horam::controller_stats& c) {
    put(c.requests), put(c.hits), put(c.misses), put(c.cycles);
    put(c.real_loads), put(c.dummy_loads), put(c.dummy_path_accesses);
    put(c.periods), put(c.shuffle_slices), put(c.access_time);
    put(c.shuffle_time), put(c.total_time), put(c.io_busy);
    put(c.memory_busy), put(c.cpu_busy), put(c.io_load_time);
    put(c.shuffle_stall_time), put(c.shuffle_device_read_ops);
    put(c.shuffle_device_write_ops), put(c.shuffle_device_read_bytes);
    put(c.shuffle_device_write_bytes), put(c.shuffle_device_round_trips);
    put(c.request_latency.count()), put(c.request_latency.max());
    for (const double q : {0.5, 0.9, 0.99, 0.999}) {
      put(c.request_latency.quantile(q));
    }
  };
  for (std::uint32_t i = 0; i < e.shard_count(); ++i) {
    io(e.shard_storage(i).stats());
    io(e.shard_memory(i).stats());
    ctrl(e.shard(i).stats());
    const horam::backend_stats& b = e.shard(i).backend().stats();
    put(b.real_loads), put(b.dummy_loads), put(b.prefetched_blocks);
    put(b.masking_reads), put(b.exhausted_dummy_loads);
    put(b.partitions_shuffled), put(b.append_segments);
    put(b.overflow_blocks);
  }
  const horam::engine_stats& r = e.router_stats();
  put(r.rounds), put(r.real_requests), put(r.pad_requests), put(r.pad_hits);
  put(r.pad_misses), put(r.physical_accesses), put(r.coalesced_requests);
  put(e.now());
  return v;
}

horam::backend_stats backend_totals(const horam::engine& e) {
  horam::backend_stats total;
  for (std::uint32_t i = 0; i < e.shard_count(); ++i) {
    const horam::backend_stats& s = e.shard(i).backend().stats();
    total.real_loads += s.real_loads;
    total.dummy_loads += s.dummy_loads;
    total.prefetched_blocks += s.prefetched_blocks;
  }
  return total;
}

struct run_record {
  // Correctness over every completed request (warm-up included).
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Virtual window: the `window_steps` rounds after warm-up.
  std::uint64_t virt_completed = 0;
  sim_time virt_elapsed = 0;
  std::vector<sim_time> virt_latencies;
  std::uint64_t trusted_peak = 0;
  std::vector<std::int64_t> counters;
  /// Backend counters (cumulative since construction) at window open.
  horam::backend_stats backend_at_open;
  // Host window: warm-up end to the end of the run.
  double host_seconds = 0.0;
  std::uint64_t host_completed = 0;
  std::vector<double> host_latency_us;
};

/// Runs the closed loop on `m`: `w.warmup_steps` scheduling rounds of
/// warm-up, then the measured window, which lasts until `window_steps`
/// rounds have completed and at least `min_seconds` of host time have
/// passed since it opened. `cal` samples the host's speed between rounds;
/// its time is left out of the host window. The virtual window is those
/// rounds exactly: counted in rounds rather than completions, it holds
/// the same shuffle and merge events for every workload seed.
template <class Machine>
run_record drive(Machine& m, const workload& w, std::uint64_t seed,
                 std::uint64_t window_steps, double min_seconds,
                 bool corrupt_shadow, calibration& cal) {
  struct inflight {
    bool write = false;
    std::uint64_t id = 0;
    /// The version written, or for reads the shadow's read floor.
    std::uint64_t version = 0;
    host_clock::time_point admitted;
  };
  run_record rec;
  streams gen(w, seed);
  shadow store(w.blocks);
  std::vector<inflight> slots(w.sessions);
  std::vector<std::uint8_t> data(kPayloadBytes);
  bool window_open = false;
  bool snapshot_taken = false;
  bool corrupt_pending = corrupt_shadow;
  std::uint64_t steps = 0;
  host_clock::time_point window_start;
  double calibrated_before_window = 0.0;
  sim_time virt_open = 0;
  std::vector<std::uint32_t> finished;

  const auto admit = [&](std::uint32_t s) {
    const draw d = gen.next(s);
    inflight& slot = slots[s];
    slot.write = d.write;
    slot.id = d.id;
    horam::request req;
    req.id = d.id;
    if (d.write) {
      req.op = horam::oram::op_kind::write;
      slot.version = store.admit_write(d.id);
      fill_payload(d.id, slot.version, data);
      req.write_data = data;
    } else {
      if (corrupt_pending && window_open) {
        store.corrupt(d.id);
        corrupt_pending = false;
      }
      slot.version = store.read_floor(d.id);
    }
    slot.admitted = host_clock::now();
    m.submit(s, std::move(req));
  };

  // A request that throws (admission checks, a failed step) ends the
  // run: it counts as attempted and failed, and so fails the benchmark.
  try {
    for (std::uint32_t s = 0; s < w.sessions; ++s) {
      admit(s);
    }
    while (true) {
      if (!m.step()) {
        throw std::runtime_error("service idle with requests outstanding");
      }
      ++steps;
      const host_clock::time_point stepped = host_clock::now();
      finished.clear();
      for (std::uint32_t s = 0; s < w.sessions; ++s) {
        if (!m.ready(s)) {
          continue;
        }
        finished.push_back(s);
        const horam::ticket_result& r = m.result(s);
        const inflight& slot = slots[s];
        ++rec.attempted;
        if (slot.write) {
          store.complete_write(slot.id, slot.version);
        } else if (!store.check_read(slot.id, slot.version, r.payload)) {
          ++rec.failed;
        }
        if (window_open) {
          ++rec.host_completed;
          const std::chrono::duration<double, std::micro> waited =
              stepped - slot.admitted;
          rec.host_latency_us.push_back(waited.count());
          if (!snapshot_taken) {
            rec.virt_latencies.push_back(r.latency);
          }
        }
      }
      // Between completion and admission, so no host latency covers it.
      cal.maybe_sample();
      for (const std::uint32_t s : finished) {
        admit(s);
      }
      if (!window_open) {
        if (steps == w.warmup_steps) {
          m.reset_stats();
          window_open = true;
          window_start = host_clock::now();
          calibrated_before_window = cal.seconds_spent();
          virt_open = m.eng().now();
          rec.backend_at_open = backend_totals(m.eng());
        }
        continue;
      }
      if (!snapshot_taken) {
        rec.trusted_peak = std::max(rec.trusted_peak, m.trusted_bytes());
        if (steps == w.warmup_steps + window_steps) {
          snapshot_taken = true;
          rec.virt_completed = rec.virt_latencies.size();
          rec.virt_elapsed = m.eng().now() - virt_open;
          rec.counters = fingerprint(m.eng());
        }
      }
      const double elapsed =
          std::chrono::duration<double>(host_clock::now() - window_start)
              .count() -
          (cal.seconds_spent() - calibrated_before_window);
      if (snapshot_taken && elapsed >= min_seconds) {
        rec.host_seconds = elapsed;
        break;
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: run stopped: " << e.what() << "\n";
    ++rec.attempted;
    ++rec.failed;
  }
  // Deep audit of every shard's store between rounds.
  for (std::uint32_t i = 0; i < m.eng().shard_count(); ++i) {
    try {
      m.eng().shard(i).backend().check_consistency();
    } catch (const std::exception& e) {
      std::cerr << "perfbench: shard " << i
                << " failed check_consistency: " << e.what() << "\n";
      ++rec.failed;
    }
  }
  return rec;
}

// -------------------------------------------------------------- metrics

/// Mid-quantile (Parzen): linear interpolation of the sample's
/// mid-distribution function, which places each distinct value at the
/// midpoint of its cumulative share. On continuous samples this is the
/// interpolated order statistic. On the virtual clock, where many
/// requests tie on one cost quantum, it moves smoothly with the shares
/// instead of jumping from quantum to quantum.
template <class T>
double quantile(std::vector<T> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  double prev_value = 0.0;
  double prev_mid = -1.0;
  for (std::size_t i = 0; i < values.size();) {
    std::size_t j = i;
    while (j < values.size() && values[j] == values[i]) {
      ++j;
    }
    const auto value = static_cast<double>(values[i]);
    const double mid = static_cast<double>(i + j) / (2.0 * n);
    if (q <= mid) {
      return prev_mid < 0.0 ? value
                            : prev_value + (q - prev_mid) / (mid - prev_mid) *
                                               (value - prev_value);
    }
    prev_value = value;
    prev_mid = mid;
    i = j;
  }
  return prev_value;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double calibration::ns_per_block() const { return median(samples_); }

struct metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string number(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::vector<metric> end_to_end(const workload& w, const run_record& rec,
                               const std::vector<double>& setup_s,
                               const horam::engine& e, double time_scale) {
  std::uint64_t physical = 0;
  for (std::uint32_t i = 0; i < e.shard_count(); ++i) {
    physical += e.shard(i).backend().physical_bytes();
  }
  const double us = 1e-3;  // ns -> us
  return {
      {"setup_s", median(setup_s) * time_scale, "s"},
      {"host_rps", ratio(static_cast<double>(rec.host_completed),
                         rec.host_seconds * time_scale),
       "req/s"},
      {"host_latency_p50_us",
       quantile(rec.host_latency_us, 0.50) * time_scale, "us"},
      {"host_latency_p99_us",
       quantile(rec.host_latency_us, 0.99) * time_scale, "us"},
      {"virt_rps", ratio(static_cast<double>(rec.virt_completed),
                         static_cast<double>(rec.virt_elapsed) * 1e-9),
       "req/s"},
      {"virt_latency_p50_us", quantile(rec.virt_latencies, 0.50) * us, "us"},
      {"virt_latency_p99_us", quantile(rec.virt_latencies, 0.99) * us, "us"},
      {"virt_latency_p999_us", quantile(rec.virt_latencies, 0.999) * us,
       "us"},
      {"trusted_bytes_peak", static_cast<double>(rec.trusted_peak), "B"},
      {"peak_rss_mb", peak_rss_mib(), "MiB"},
      {"storage_amplification",
       ratio(static_cast<double>(physical),
             static_cast<double>(w.blocks * kPayloadBytes)),
       "ratio"},
      {"verified_share",
       1.0 - ratio(static_cast<double>(rec.failed),
                   static_cast<double>(rec.attempted)),
       "share"},
  };
}

/// Host time of the codec on one record of the workload's size, sealing
/// on, timed in isolation: median over repeats of the mean over a
/// batch. Every record must decode back to its own id; a mismatch counts
/// as a failure.
struct codec_timing {
  double encode_ns = 0.0;
  double decode_ns = 0.0;
  std::uint64_t failed = 0;
};

codec_timing time_codec() {
  horam::oram::block_codec codec(kPayloadBytes, true, kMachineSeed);
  const std::size_t size = codec.record_bytes();
  std::vector<std::uint8_t> payload(kPayloadBytes);
  std::vector<std::uint8_t> records(size * kCodecRecords);
  std::vector<double> enc;
  std::vector<double> dec;
  codec_timing out;
  for (int rep = 0; rep < kCodecRepeats; ++rep) {
    const host_clock::time_point t0 = host_clock::now();
    for (std::size_t i = 0; i < kCodecRecords; ++i) {
      codec.encode(i, payload, std::span(records).subspan(i * size, size));
    }
    const host_clock::time_point t1 = host_clock::now();
    for (std::size_t i = 0; i < kCodecRecords; ++i) {
      if (codec.decode(std::span(records).subspan(i * size, size),
                       payload) != i) {
        ++out.failed;
      }
    }
    const host_clock::time_point t2 = host_clock::now();
    const auto count = static_cast<double>(kCodecRecords);
    enc.push_back(static_cast<double>(host_ns(t1, t0)) / count);
    dec.push_back(static_cast<double>(host_ns(t2, t1)) / count);
  }
  out.encode_ns = median(enc);
  out.decode_ns = median(dec);
  return out;
}

std::vector<metric> per_layer(traced_machine& m, const run_record& traced,
                              const run_record& untraced,
                              const codec_timing& codec) {
  const horam::engine& e = m.eng();
  const horam::controller_stats& c = e.stats();
  const horam::engine_stats& r = e.router_stats();
  const double reqs = static_cast<double>(traced.virt_completed);
  const horam::backend_stats now = backend_totals(e);
  const double real_loads = static_cast<double>(
      now.real_loads - traced.backend_at_open.real_loads);
  const double dummy_loads = static_cast<double>(
      now.dummy_loads - traced.backend_at_open.dummy_loads);
  const double prefetched = static_cast<double>(
      now.prefetched_blocks - traced.backend_at_open.prefetched_blocks);
  double backend_trusted = 0.0;
  horam::sim::io_stats storage;
  horam::sim::io_stats memory;
  const auto add = [](horam::sim::io_stats& into,
                      const horam::sim::io_stats& from) {
    into.read_ops += from.read_ops;
    into.write_ops += from.write_ops;
    into.bytes_read += from.bytes_read;
    into.bytes_written += from.bytes_written;
    into.round_trips += from.round_trips;
    into.busy_time += from.busy_time;
  };
  for (std::uint32_t i = 0; i < e.shard_count(); ++i) {
    backend_trusted +=
        static_cast<double>(e.shard(i).backend().control_memory_bytes());
    add(storage, e.shard_storage(i).stats());
    add(memory, e.shard_memory(i).stats());
  }
  const auto per_req = [reqs](double v) { return ratio(v, reqs); };
  const auto d = [](auto v) { return static_cast<double>(v); };
  const traced_machine::host_totals& host = m.totals();
  const double periods = d(c.periods);
  const double load_ns = d(m.lane_total(&lane_record::load_ns));
  const double shuffle_ns = d(m.lane_total(&lane_record::shuffle_ns));
  const double record_bytes = d(horam::oram::block_codec(
                                    kPayloadBytes, true, kMachineSeed)
                                    .record_bytes());
  const double untraced_rps =
      ratio(d(untraced.host_completed), untraced.host_seconds);
  const double traced_rps = ratio(d(traced.host_completed),
                                  traced.host_seconds);
  return {
      {"tenant.step_host_us_per_req", per_req(d(host.step_ns) * 1e-3),
       "us/req"},
      {"engine.pad_share",
       ratio(d(r.pad_requests), d(r.pad_requests + r.physical_accesses)),
       "share"},
      {"engine.rounds_per_req", per_req(d(r.rounds)), "1/req"},
      {"coalesce.ios_per_req", r.ios_per_logical_request(), "ratio"},
      {"runtime.lane_overlap", ratio(d(host.backend_ns), d(host.step_ns)),
       "ratio"},
      {"controller.above_backend_host_us_per_req",
       per_req(d(host.above_backend_ns) * 1e-3), "us/req"},
      {"controller.hit_rate", ratio(d(c.hits), d(c.requests)), "share"},
      {"controller.avg_c", c.average_c(), "req/cycle"},
      {"controller.dummy_load_share", ratio(d(c.dummy_loads), d(c.cycles)),
       "share"},
      {"controller.service_p50_virt_us", d(c.request_latency.p50()) * 1e-3,
       "us"},
      {"controller.service_p99_virt_us", d(c.request_latency.p99()) * 1e-3,
       "us"},
      {"controller.memory_busy_virt_us_per_req",
       per_req(d(c.memory_busy) * 1e-3), "us/req"},
      {"controller.cpu_busy_virt_us_per_req", per_req(d(c.cpu_busy) * 1e-3),
       "us/req"},
      {"backend.load_host_us_per_req", per_req(load_ns * 1e-3), "us/req"},
      {"backend.real_loads_per_req", per_req(real_loads), "1/req"},
      {"backend.dummy_loads_per_req", per_req(dummy_loads), "1/req"},
      {"backend.prefetch_share", ratio(prefetched, dummy_loads), "share"},
      {"backend.trusted_bytes", backend_trusted, "B"},
      {"shuffle.periods", periods, "count"},
      {"shuffle.host_ms_per_period", ratio(shuffle_ns * 1e-6, periods), "ms"},
      {"shuffle.virt_ms_per_period", ratio(d(c.shuffle_time) * 1e-6, periods),
       "ms"},
      {"shuffle.stall_virt_ms", d(c.shuffle_stall_time) * 1e-6, "ms"},
      {"codec.encode_ns_per_record", codec.encode_ns, "ns"},
      {"codec.decode_ns_per_record", codec.decode_ns, "ns"},
      {"codec.records_per_req",
       per_req(ratio(d(storage.total_bytes() + memory.total_bytes()),
                     record_bytes)),
       "1/req"},
      {"device.storage.ops_per_req", per_req(d(storage.total_ops())),
       "1/req"},
      {"device.storage.bytes_per_req", per_req(d(storage.total_bytes())),
       "B/req"},
      {"device.storage.online_round_trips_per_req",
       per_req(d(storage.round_trips - c.shuffle_device_round_trips)),
       "1/req"},
      {"device.storage.busy_virt_us_per_req",
       per_req(d(storage.busy_time) * 1e-3), "us/req"},
      {"device.storage.shuffle_ops_share",
       ratio(d(c.shuffle_device_read_ops + c.shuffle_device_write_ops),
             d(storage.total_ops())),
       "share"},
      {"device.memory.ops_per_req", per_req(d(memory.total_ops())), "1/req"},
      {"device.memory.bytes_per_req", per_req(d(memory.total_bytes())),
       "B/req"},
      {"trace.overhead_share", ratio(untraced_rps - traced_rps, untraced_rps),
       "share"},
  };
}

// ----------------------------------------------------------------- main

struct options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  bool corrupt_shadow = false;
  std::filesystem::path trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <name> --seed <n> --seconds "
               "<s> --trace <0|1> [--corrupt-shadow] [--trace-out <file>]\n"
               "workloads:";
  for (const workload& w : workloads()) {
    std::cerr << " " << w.name;
  }
  std::cerr << "\n";
  std::exit(2);
}

options parse(int argc, char** argv) {
  options o;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--corrupt-shadow") {
      o.corrupt_shadow = true;
      continue;
    }
    if (i + 1 >= argc) {
      usage("missing value for " + std::string(arg));
    }
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        o.workload = value;
      } else if (arg == "--seed") {
        o.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value);
      } else if (arg == "--trace") {
        o.trace = std::stoi(value);
      } else if (arg == "--trace-out") {
        o.trace_out = value;
      } else {
        usage("unknown argument " + std::string(arg));
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + std::string(arg) + ": " + value);
    }
  }
  if (o.trace != 0 && o.trace != 1) {
    usage("--trace must be 0 or 1");
  }
  if (!(o.seconds >= 0.0)) {
    usage("--seconds must be non-negative");
  }
  return o;
}

void print_run_info(const workload& w, const options& o,
                    const horam::horam_config& config, const run_record& rec,
                    const calibration& cal) {
  std::cout << "{\"run\":{\"workload\":" << json_string(w.name)
            << ",\"why\":" << json_string(w.why)
            << ",\"workload_seed\":" << o.seed
            << ",\"machine_seed\":" << kMachineSeed
            << ",\"trace\":" << o.trace
            << ",\"backend\":" << json_string(horam::backend_name(w.backend))
            << ",\"profile\":" << json_string(w.profile)
            << ",\"blocks\":" << config.block_count
            << ",\"memory_blocks\":" << config.memory_blocks
            << ",\"payload_bytes\":" << config.payload_bytes
            << ",\"seal\":" << (config.seal ? "true" : "false")
            << ",\"shards\":" << config.shard_count
            << ",\"worker_threads\":" << w.threads
            << ",\"coalescing\":" << (config.coalescing ? "true" : "false")
            << ",\"map_on_storage\":"
            << (config.map_on_storage ? "true" : "false")
            << ",\"sessions\":" << w.sessions
            << ",\"write_share\":" << number(w.write_share)
            << ",\"warmup_steps\":" << w.warmup_steps
            << ",\"window_steps\":" << w.window_steps
            << ",\"virt_samples\":" << rec.virt_completed
            << ",\"host_samples\":" << rec.host_completed
            << ",\"host_seconds\":" << number(rec.host_seconds)
            << ",\"host_rps_unscaled\":"
            << number(ratio(static_cast<double>(rec.host_completed),
                            rec.host_seconds))
            << ",\"reference_ns_per_block\":" << number(cal.ns_per_block())
            << ",\"host_time_scale\":" << number(cal.time_scale())
            << ",\"reference_checksum\":" << cal.checksum()
            << ",\"nproc\":" << std::thread::hardware_concurrency();
  if (o.trace == 1) {
    std::cout << ",\"chrome_trace\":" << json_string(o.trace_out.string());
  }
  std::cout << "}}\n";
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<metric>& metrics) {
  std::cout << "{\"correct\":" << (correct ? "true" : "false")
            << ",\"attempted\":" << attempted << ",\"failed\":" << failed
            << ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i == 0 ? "" : ",") << json_string(metrics[i].name)
              << ":{\"value\":" << number(metrics[i].value)
              << ",\"unit\":" << json_string(metrics[i].unit) << "}";
  }
  std::cout << "}}" << std::endl;
}

int run(const options& o) {
  const workload* found = nullptr;
  for (const workload& w : workloads()) {
    if (w.name == o.workload) {
      found = &w;
    }
  }
  if (found == nullptr) {
    usage("unknown workload '" + o.workload + "'");
  }
  const workload& w = *found;
  horam::horam_config config;
  horam::client_builder builder = make_builder(w);
  builder.config_tweak([&config](horam::horam_config& c) { config = c; });

  if (o.trace == 0) {
    // Set-up is timed several times and reported as the median; the
    // last machine built is the one measured.
    calibration cal;
    std::vector<double> setup_s;
    std::optional<horam::service> svc;
    for (int i = 0; i < kSetupRepeats; ++i) {
      svc.reset();
      cal.sample();
      const host_clock::time_point t0 = host_clock::now();
      svc.emplace(builder.build_service());
      setup_s.push_back(
          std::chrono::duration<double>(host_clock::now() - t0).count());
    }
    service_machine m(std::move(*svc), w.sessions);
    svc.reset();
    run_record rec = drive(m, w, o.seed, w.window_steps, o.seconds,
                           o.corrupt_shadow, cal);
    if (rec.virt_completed < kMinTailSamples) {
      std::cerr << "perfbench: the virtual window completed only "
                << rec.virt_completed << " requests; p99.9 needs "
                << kMinTailSamples << "\n";
      ++rec.failed;
    }
    print_run_info(w, o, config, rec, cal);
    print_result(rec.failed == 0, rec.attempted, rec.failed,
                 end_to_end(w, rec, setup_s, m.eng(), cal.time_scale()));
    return rec.failed == 0 ? 0 : 1;
  }

  // Traced run: the untraced machine first, over the virtual window
  // only, as the reference the traced machine must reproduce exactly.
  calibration cal;
  cal.sample();
  run_record untraced;
  {
    service_machine m(builder.build_service(), w.sessions);
    untraced = drive(m, w, o.seed, w.window_steps / 2, 0.0,
                     o.corrupt_shadow, cal);
  }
  traced_machine m(config, w);
  const run_record traced = drive(m, w, o.seed, w.window_steps / 2, 0.0,
                                 o.corrupt_shadow, cal);
  std::uint64_t failed = untraced.failed + traced.failed;
  if (traced.counters != untraced.counters ||
      traced.virt_latencies != untraced.virt_latencies ||
      traced.virt_elapsed != untraced.virt_elapsed) {
    std::cerr << "perfbench: the traced machine diverged from the service "
                 "(virtual latencies or device/controller counters differ)\n";
    ++failed;
  }
  const codec_timing codec = time_codec();
  failed += codec.failed;
  if (!o.trace_out.empty()) {
    if (o.trace_out.has_parent_path()) {
      std::filesystem::create_directories(o.trace_out.parent_path());
    }
    m.write_trace(o.trace_out);
  }
  print_run_info(w, o, config, traced, cal);
  print_result(failed == 0, untraced.attempted + traced.attempted, failed,
               per_layer(m, traced, untraced, codec));
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::options o = perfbench::parse(argc, argv);
  try {
    return perfbench::run(o);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
