// Load generator for the kv-* workloads: one thread drives every
// connection, sends each request at its scheduled time (open loop) or as
// soon as a pipeline slot frees (closed loop), and checks every reply
// against a model of what the server must return.
//
// Timing rules (see NOTES.md "Generator"):
//   * arrivals are a seeded Poisson process at the offered rate, split
//     evenly over the connections;
//   * the thread never sleeps or blocks: it spins between reply polls,
//     so a due request leaves within one loop turn (a few microseconds);
//   * a request's latency runs from its scheduled time to its reply, so
//     a stall anywhere is charged to every request it delays;
//   * how late the generator itself sent a request is reported as send
//     lag, separately from latency;
//   * a warm-up window is sent and checked but not timed.

#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <vector>

#include "common.h"

namespace perfbench {

// Request classes, in reply-statistics order.
enum OpKind : uint8_t { kGet = 0, kMget, kLowerBound, kPut, kDel, kNumOpKinds };

// Every workload drives kConns connections at pipeline depth kDepth
// (in-flight requests per connection).
constexpr int kConns = 2;
constexpr int kDepth = 32;

// Of the reads, this share is sent as 8-key MGETs and this share as
// LOWER_BOUNDs; the rest are GETs.
constexpr double kMgetFrac = 0.05;
constexpr double kLbFrac = 0.05;

// The traffic mix of one workload.
struct TrafficMix {
  double write_frac = 0.0;  // share of requests that are PUT/DEL
  double hot_frac = 0.0;    // share of keys drawn from the hottest 1%
};

// What the server must return. Every connection owns the keys whose
// index is congruent to its number modulo the connection count and is
// the only writer of them, so its own reads have one exact answer: its
// latest write. Reads of another connection's keys must return a value
// that was written for that key, no older than the last write the
// owner saw acknowledged when the read was sent.
class KvModel {
 public:
  KvModel(const KeyUniverse* keys, bool writable);

  const KeyUniverse& keys() const { return *keys_; }
  bool writable() const { return writable_; }
  int Owner(uint64_t i) const { return static_cast<int>(i % kConns); }

  bool live(uint64_t i) const { return writable_ ? live_[i] != 0 : true; }
  uint32_t version(uint64_t i) const { return writable_ ? version_[i] : 0; }
  uint32_t acked(uint64_t i) const { return writable_ ? acked_[i] : 0; }
  bool ever_deleted(uint64_t i) const {
    return writable_ && ever_deleted_[i] != 0;
  }
  uint64_t live_keys() const { return live_count_; }

  // Versions increase across the whole run, so a reply's version orders
  // it against every write of its key.
  uint32_t NextVersion() { return ++last_version_; }
  // A write was sent (the owner's requests execute in order).
  void SentPut(uint64_t i, uint32_t version);
  void SentDel(uint64_t i);
  // The owner read the write's reply.
  void AckedPut(uint64_t i, uint32_t version);

 private:
  const KeyUniverse* keys_;
  bool writable_;
  uint64_t live_count_;
  uint32_t last_version_ = 0;
  std::vector<uint32_t> version_;
  std::vector<uint32_t> acked_;
  std::vector<uint8_t> live_;
  std::vector<uint8_t> ever_deleted_;
};

struct LoadSpec {
  uint16_t port = 0;
  // The server's worker threads: each round moves the generator and
  // these to the next pair of CPUs (see CpuCycler).
  std::vector<pid_t> server_threads;
  // Offered requests per second over all connections; 0 runs a closed
  // loop that keeps every pipeline full (the saturated rate).
  double rate = 10000;
  double warmup_s = 0.5;
  double measure_s = 5.0;
  double round_s = 0.5;    // timed window is cut into rounds this long
  uint64_t seed = 1;
  TrafficMix mix;
  // Keys of the reads sent in the timed window are recorded, up to this
  // many, for the in-process ledger to replay.
  size_t record_keys = 0;
};

struct LoadResult {
  uint64_t attempted = 0;  // requests due in the timed window
  uint64_t wrong = 0;      // reply did not match the model
  uint64_t errors = 0;     // non-OK status or transport failure
  uint64_t lost = 0;       // never answered
  uint64_t failed() const { return wrong + errors + lost; }

  double window_s = 0;
  Rounds rounds;                         // the timed window, cut in rounds
  std::vector<double> latency_us;        // every request, from due time
  std::vector<uint64_t> due_ns;          // due time of each latency sample
  std::vector<uint64_t> done_ns;         // reply time of each sample
  std::vector<double> write_latency_us;  // PUT and DEL only
  std::vector<double> lag_us;            // send time minus due time
  uint64_t flushes = 0;                  // KvClient::Flush calls (timed)
  std::vector<double> gaps_ms;           // generator loop turns > 1 ms apart
  // Which side limits a saturated run: the generator's loop turns in the
  // timed window and the time spent in turns that neither sent nor read
  // anything (it was waiting on the server), and the CPU seconds of the
  // generator thread and of the whole process (the rest is the server's).
  uint64_t turns = 0;
  uint64_t idle_ns = 0;
  double generator_cpu_s = 0;
  double process_cpu_s = 0;
  uint64_t op_count[kNumOpKinds] = {};
  std::vector<uint64_t> read_keys;       // recorded read keys (GET/MGET)
  std::vector<uint64_t> lb_keys;         // recorded LOWER_BOUND probes
};

// Runs warm-up then the timed window against 127.0.0.1:spec.port and
// drains every reply (replies still missing 2 s later count as lost).
// `model` is updated as writes are sent and acknowledged.
LoadResult RunLoad(const LoadSpec& spec, KvModel* model);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
