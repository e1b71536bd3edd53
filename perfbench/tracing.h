// Host-time spans for the traced run, recorded from outside the library.
//
// timed_backend decorates the oram_backend a shard_factory builds: every
// call into the store (load_block, dummy_load, shuffle_period,
// begin_shuffle and each step of the shuffle_job it returns) is timed
// with std::chrono::steady_clock and logged as a span of the current
// round. Each shard gets its own lane_record, written only by the thread
// that runs that shard's lane, and read by the coordinator between
// rounds — race-free under the threaded runtime, whose rounds hand lanes
// over through the engine's mailboxes.
#ifndef HORAM_PERFBENCH_TRACING_H
#define HORAM_PERFBENCH_TRACING_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "horam.h"

namespace perfbench {

using host_clock = std::chrono::steady_clock;

inline std::int64_t host_ns(host_clock::time_point t,
                            host_clock::time_point origin) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin)
      .count();
}

/// Spans kept in memory per track; beyond this the counters still run
/// but the export is truncated (a bounded file for any run length).
inline constexpr std::size_t kSpanLimit = 400000;

struct span {
  std::string_view name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// The tenant-scheduler step (round) the span belongs to; the step's
  /// own span is its parent.
  std::uint64_t round = 0;
};

/// Host time of one shard's store calls, plus their spans.
struct lane_record {
  std::int64_t load_ns = 0;
  std::int64_t shuffle_ns = 0;
  std::vector<span> spans;
};

/// Shared by every decorator of one traced machine: the time origin and
/// the current round, set by the coordinator between rounds.
struct trace_clock {
  host_clock::time_point origin = host_clock::now();
  std::atomic<std::uint64_t> round{0};
};

class span_timer {
 public:
  span_timer(lane_record& rec, const trace_clock& clock,
             std::string_view name, std::int64_t& total)
      : rec_(rec), clock_(clock), name_(name), total_(total),
        start_(host_clock::now()) {}
  span_timer(const span_timer&) = delete;
  span_timer& operator=(const span_timer&) = delete;
  ~span_timer() {
    const host_clock::time_point end = host_clock::now();
    total_ += host_ns(end, start_);
    if (rec_.spans.size() < kSpanLimit) {
      rec_.spans.push_back({name_, host_ns(start_, clock_.origin),
                            host_ns(end, clock_.origin),
                            clock_.round.load(std::memory_order_relaxed)});
    }
  }

 private:
  lane_record& rec_;
  const trace_clock& clock_;
  std::string_view name_;
  std::int64_t& total_;
  host_clock::time_point start_;
};

class timed_job final : public horam::shuffle_job {
 public:
  timed_job(std::unique_ptr<horam::shuffle_job> inner, lane_record& rec,
            const trace_clock& clock)
      : inner_(std::move(inner)), rec_(rec), clock_(clock) {}

  horam::shuffle_cost step(horam::sim::sim_time device_budget) override {
    const span_timer t(rec_, clock_, "shuffle_job.step", rec_.shuffle_ns);
    return inner_->step(device_budget);
  }
  [[nodiscard]] bool done() const noexcept override { return inner_->done(); }
  [[nodiscard]] bool holds(horam::oram::block_id id) const override {
    return inner_->holds(id);
  }
  [[nodiscard]] std::vector<std::uint8_t>* staged(
      horam::oram::block_id id) override {
    return inner_->staged(id);
  }
  void finish(std::vector<horam::oram::evicted_block>& overflow_out)
      override {
    const span_timer t(rec_, clock_, "shuffle_job.finish", rec_.shuffle_ns);
    inner_->finish(overflow_out);
  }

 private:
  std::unique_ptr<horam::shuffle_job> inner_;
  lane_record& rec_;
  const trace_clock& clock_;
};

/// Transparent timing decorator: forwards every call unchanged, so the
/// simulated machine behind it is bit-for-bit the undecorated one.
class timed_backend final : public horam::oram_backend {
 public:
  timed_backend(std::unique_ptr<horam::oram_backend> inner, lane_record& rec,
                const trace_clock& clock)
      : inner_(std::move(inner)), rec_(rec), clock_(clock) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_->name();
  }
  [[nodiscard]] bool in_storage(horam::oram::block_id id) const override {
    return inner_->in_storage(id);
  }
  load_result load_block(horam::oram::block_id id) override {
    const span_timer t(rec_, clock_, "backend.load_block", rec_.load_ns);
    return inner_->load_block(id);
  }
  load_result dummy_load() override {
    const span_timer t(rec_, clock_, "backend.dummy_load", rec_.load_ns);
    return inner_->dummy_load();
  }
  horam::shuffle_cost shuffle_period(
      std::vector<horam::oram::evicted_block> evicted,
      std::uint64_t period_index,
      std::vector<horam::oram::evicted_block>& overflow_out) override {
    const span_timer t(rec_, clock_, "backend.shuffle_period",
                       rec_.shuffle_ns);
    return inner_->shuffle_period(std::move(evicted), period_index,
                                  overflow_out);
  }
  [[nodiscard]] std::unique_ptr<horam::shuffle_job> begin_shuffle(
      std::vector<horam::oram::evicted_block> evicted,
      std::uint64_t period_index) override {
    const span_timer t(rec_, clock_, "backend.begin_shuffle",
                       rec_.shuffle_ns);
    return std::make_unique<timed_job>(
        inner_->begin_shuffle(std::move(evicted), period_index), rec_,
        clock_);
  }
  [[nodiscard]] const horam::backend_stats& stats() const noexcept override {
    return inner_->stats();
  }
  [[nodiscard]] std::uint64_t physical_bytes() const override {
    return inner_->physical_bytes();
  }
  [[nodiscard]] std::uint64_t control_memory_bytes() const override {
    return inner_->control_memory_bytes();
  }
  void check_consistency() const override { inner_->check_consistency(); }

 private:
  std::unique_ptr<horam::oram_backend> inner_;
  lane_record& rec_;
  const trace_clock& clock_;
};

/// One tenant-scheduler step as seen from the coordinator: its host
/// interval and its virtual-time interval on the engine's clock.
struct round_record {
  std::uint64_t round = 0;
  std::int64_t host_start_ns = 0;
  std::int64_t host_end_ns = 0;
  horam::sim::sim_time virt_start = 0;
  horam::sim::sim_time virt_end = 0;
  std::uint64_t completions = 0;
};

/// Writes Chrome trace-event JSON (opens in Perfetto and
/// chrome://tracing). Process 1 holds host time: the coordinator's step
/// spans on thread 0 and each shard's store calls on thread 1 + shard.
/// Process 2 holds virtual time: one span per round on the engine's
/// clock. Every span carries its round, so a slow virtual round leads
/// straight to the host spans that served it.
inline void write_chrome_trace(std::ostream& out,
                               const std::vector<round_record>& rounds,
                               const std::vector<lane_record*>& lanes) {
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  bool first = true;
  const auto event = [&](std::string_view body) {
    out << (first ? "" : ",\n") << body;
    first = false;
  };
  const auto meta = [&](int pid, int tid, std::string_view kind,
                        const std::string& name) {
    event("{\"ph\":\"M\",\"pid\":" + std::to_string(pid) +
          ",\"tid\":" + std::to_string(tid) + ",\"name\":\"" +
          std::string(kind) + "\",\"args\":{\"name\":\"" + name + "\"}}");
  };
  const auto us = [](double ns) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.3f", ns / 1e3);
    return std::string(buf);
  };
  const auto complete = [&](int pid, int tid, std::string_view name,
                            double start_ns, double end_ns,
                            const std::string& args) {
    event("{\"ph\":\"X\",\"pid\":" + std::to_string(pid) +
          ",\"tid\":" + std::to_string(tid) + ",\"name\":\"" +
          std::string(name) + "\",\"ts\":" + us(start_ns) +
          ",\"dur\":" + us(end_ns - start_ns) + ",\"args\":{" + args + "}}");
  };

  meta(1, 0, "process_name", "host time");
  meta(1, 0, "thread_name", "tenant.step (coordinator)");
  for (std::size_t s = 0; s < lanes.size(); ++s) {
    meta(1, static_cast<int>(s + 1), "thread_name",
         "shard " + std::to_string(s) + " backend");
  }
  meta(2, 0, "process_name", "virtual time");
  meta(2, 0, "thread_name", "engine rounds");

  for (const round_record& r : rounds) {
    const std::string args = "\"round\":" + std::to_string(r.round) +
                             ",\"completions\":" +
                             std::to_string(r.completions);
    complete(1, 0, "tenant.step", static_cast<double>(r.host_start_ns),
             static_cast<double>(r.host_end_ns), args);
    complete(2, 0, "round", static_cast<double>(r.virt_start),
             static_cast<double>(r.virt_end), args);
  }
  for (std::size_t s = 0; s < lanes.size(); ++s) {
    for (const span& sp : lanes[s]->spans) {
      complete(1, static_cast<int>(s + 1), sp.name,
               static_cast<double>(sp.start_ns),
               static_cast<double>(sp.end_ns),
               "\"round\":" + std::to_string(sp.round) +
                   ",\"parent\":\"tenant.step\"");
    }
  }
  out << "\n]}\n";
}

}  // namespace perfbench

#endif  // HORAM_PERFBENCH_TRACING_H
