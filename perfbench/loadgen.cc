#include "loadgen.h"

#include <time.h>

#include <cmath>
#include <deque>
#include <memory>

#include "net/client.h"
#include "util/rng.h"

namespace perfbench {

using simdtree::Rng;
using simdtree::net::KvClient;
using simdtree::net::Response;

KvModel::KvModel(const KeyUniverse* keys, bool writable)
    : keys_(keys), writable_(writable),
      live_count_(keys->size()) {
  if (writable_) {
    version_.assign(keys->size(), 0);
    acked_.assign(keys->size(), 0);
    live_.assign(keys->size(), 1);
    ever_deleted_.assign(keys->size(), 0);
  }
}

void KvModel::SentPut(uint64_t i, uint32_t version) {
  if (!live_[i]) ++live_count_;
  live_[i] = 1;
  version_[i] = version;
}

void KvModel::SentDel(uint64_t i) {
  if (live_[i]) --live_count_;
  live_[i] = 0;
  ever_deleted_[i] = 1;
}

void KvModel::AckedPut(uint64_t i, uint32_t version) {
  if (version > acked_[i]) acked_[i] = version;
}

namespace {

constexpr int kMgetKeys = 8;
constexpr uint64_t kGapNs = 1'000'000;
constexpr uint64_t kDrainNs = 2'000'000'000;

// Expected answer for one key of a read. Own keys: found iff `live`,
// then exactly `version`. Other connections' keys: `version` is the
// lowest acceptable version (the owner's last acknowledged write).
struct Expect {
  uint64_t index = 0;
  uint32_t version = 0;
  bool own = false;
  bool live = true;
};

struct InFlight {
  uint64_t due_ns = 0;
  OpKind kind = kGet;
  uint8_t nkeys = 0;
  bool timed = false;
  uint64_t probe = 0;        // LOWER_BOUND probe value
  uint32_t put_version = 0;  // PUT: version written
  Expect e[kMgetKeys];
};

class Checker {
 public:
  explicit Checker(const KvModel* model) : m_(model), u_(model->keys()) {}

  Expect ExpectFor(uint64_t i, int conn) const {
    Expect e;
    e.index = i;
    e.own = m_->Owner(i) == conn;
    e.live = m_->live(i);
    e.version = e.own ? m_->version(i) : m_->acked(i);
    return e;
  }

  bool Read(const Expect& e, bool found, uint64_t value) const {
    const uint64_t key = u_.Key(e.index);
    if (e.own) {
      if (!e.live) return !found;
      return found && value == u_.Value(key, e.version);
    }
    if (!found) return m_->ever_deleted(e.index);
    const uint64_t v = KeyUniverse::VersionOf(value);
    return (value & ((uint64_t{1} << KeyUniverse::kDigestBits) - 1)) ==
               u_.Digest(key) &&
           v >= e.version && v <= m_->version(e.index);
  }

  // LOWER_BOUND: the smallest stored key >= probe. On a read-only model
  // the answer is exact; with writers, any key skipped over must be one
  // that has been deleted at some point, and the key found is checked
  // like a read of that key.
  bool LowerBound(const InFlight& f, const Response& r) const {
    const uint64_t want = u_.LowerBoundIndex(f.probe);
    if (!m_->writable()) {
      if (want >= u_.size()) return !r.found;
      const uint64_t key = u_.Key(want);
      return r.found && r.key == key && r.value == u_.Value(key, 0);
    }
    const uint64_t got = r.found ? u_.IndexOf(r.key) : u_.size();
    if (r.found && (got >= u_.size() || got < want)) return false;
    for (uint64_t i = want; i < got; ++i) {
      if (!m_->ever_deleted(i)) return false;
      if (i - want > 64) break;
    }
    if (!r.found) return true;
    // The probe key itself has the answer fixed at send time; a later
    // key may have been rewritten since, so any written version passes.
    Expect e;
    e.index = got;
    if (got == want && want == f.e[0].index) e = f.e[0];
    return Read(e, true, r.value);
  }

 private:
  const KvModel* m_;
  const KeyUniverse& u_;
};

struct Conn {
  KvClient client;
  Rng rng;
  double next_due = 0;
  std::deque<InFlight> inflight;
  std::deque<uint64_t> deleted;  // own keys deleted, oldest first
  bool dead = false;
  explicit Conn(uint64_t seed) : rng(seed) {}
};

uint64_t DrawIndex(Rng& rng, uint64_t n, double hot_frac) {
  if (hot_frac > 0 && n >= 100 && rng.NextDouble() < hot_frac) {
    // The hot 1% is spread over the key space (every 100th key), so it
    // lands on every shard rather than on one.
    return rng.NextBounded(n / 100) * 100 + 37;
  }
  return rng.NextBounded(n);
}

uint64_t OwnIndex(uint64_t i, int conn, uint64_t n) {
  i = i - i % kConns + static_cast<uint64_t>(conn);
  return i < n ? i : i - kConns;
}

double CpuSeconds(clockid_t clock) {
  timespec ts;
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

LoadResult RunLoad(const LoadSpec& spec, KvModel* model) {
  LoadResult res;
  const KeyUniverse& u = model->keys();
  const uint64_t n = u.size();
  Checker check(model);
  std::vector<std::unique_ptr<Conn>> conns;
  for (int c = 0; c < kConns; ++c) {
    conns.push_back(std::make_unique<Conn>(Mix64(spec.seed * 131 + c)));
    if (!conns.back()->client.Connect("127.0.0.1", spec.port)) {
      std::fprintf(stderr, "connect: %s\n",
                   conns.back()->client.error().c_str());
      res.errors = 1;
      res.attempted = 1;
      return res;
    }
  }
  const bool closed = spec.rate <= 0;
  const double gap_ns = closed ? 0 : 1e9 * kConns / spec.rate;
  auto next_gap = [&](Conn& c) {
    return -gap_ns * std::log(1.0 - c.rng.NextDouble());
  };
  const uint64_t t0 = NowNs();
  const uint64_t timed_from = t0 + static_cast<uint64_t>(spec.warmup_s * 1e9);
  const uint64_t end = timed_from + static_cast<uint64_t>(spec.measure_s * 1e9);
  res.rounds.from_ns = timed_from;
  res.rounds.to_ns = end;
  res.rounds.round_ns = static_cast<uint64_t>(spec.round_s * 1e9);
  const uint64_t drain_deadline = end + kDrainNs;
  res.window_s = spec.measure_s;
  for (auto& c : conns) c->next_due = static_cast<double>(t0) + next_gap(*c);

  auto build = [&](Conn& c, int ci, InFlight* f) {
    Rng& rng = c.rng;
    const TrafficMix& mix = spec.mix;
    if (mix.write_frac > 0 && rng.NextDouble() < mix.write_frac) {
      // Writes: half delete a live key, half re-PUT the oldest deleted
      // one (a drawn key that is already deleted is re-PUT at once), so
      // the live count stays flat. Only own keys are written, and a PUT
      // never lands on a live key: the served index does not overwrite
      // yet (NOTES.md "KV contract"), which the contract probe measures.
      const double r = rng.NextDouble();
      uint64_t i = OwnIndex(DrawIndex(rng, n, mix.hot_frac), ci, n);
      while (!c.deleted.empty() && model->live(c.deleted.front())) {
        c.deleted.pop_front();
      }
      bool del = model->live(i);
      if (del && r < 0.5 && !c.deleted.empty()) {
        i = c.deleted.front();
        c.deleted.pop_front();
        del = false;
      }
      f->e[0] = check.ExpectFor(i, ci);
      f->nkeys = 1;
      if (del) {
        f->kind = kDel;
        c.client.EnqueueDel(u.Key(i));
        model->SentDel(i);
        c.deleted.push_back(i);
      } else {
        f->kind = kPut;
        f->put_version = model->NextVersion();
        c.client.EnqueuePut(u.Key(i), u.Value(u.Key(i), f->put_version));
        model->SentPut(i, f->put_version);
      }
      return;
    }
    const double r = rng.NextDouble();
    if (r < kMgetFrac) {
      f->kind = kMget;
      f->nkeys = kMgetKeys;
      uint64_t keys[kMgetKeys];
      for (int k = 0; k < kMgetKeys; ++k) {
        const uint64_t i = DrawIndex(rng, n, mix.hot_frac);
        f->e[k] = check.ExpectFor(i, ci);
        keys[k] = u.Key(i);
      }
      c.client.EnqueueMget(keys, kMgetKeys);
    } else if (r < kMgetFrac + kLbFrac) {
      f->kind = kLowerBound;
      f->nkeys = 1;
      if (model->writable()) {
        // Probe a stored key, so the owner's model decides the answer.
        const uint64_t i = DrawIndex(rng, n, mix.hot_frac);
        f->e[0] = check.ExpectFor(i, ci);
        f->probe = u.Key(i);
      } else {
        f->probe = rng.NextBounded(u.Key(n - 1) + 1);
      }
      c.client.EnqueueLowerBound(f->probe);
    } else {
      f->kind = kGet;
      f->nkeys = 1;
      const uint64_t i = DrawIndex(rng, n, mix.hot_frac);
      f->e[0] = check.ExpectFor(i, ci);
      c.client.EnqueueGet(u.Key(i));
    }
  };

  auto handle = [&](Conn& c, const Response& r, uint64_t now) {
    InFlight f = c.inflight.front();
    c.inflight.pop_front();
    bool ok = r.status == simdtree::net::kStatusOk;
    if (!ok) ++res.errors;
    bool right = true;
    if (ok) {
      switch (f.kind) {
        case kGet:
          right = r.opcode == simdtree::net::kOpGet &&
                  check.Read(f.e[0], r.found, r.value);
          break;
        case kMget:
          right = r.opcode == simdtree::net::kOpMget &&
                  r.entries.size() == kMgetKeys;
          for (int k = 0; right && k < kMgetKeys; ++k) {
            right = check.Read(f.e[k], r.entries[k].found,
                               r.entries[k].value);
          }
          break;
        case kLowerBound:
          right = r.opcode == simdtree::net::kOpLowerBound &&
                  check.LowerBound(f, r);
          break;
        case kPut:
          right = r.opcode == simdtree::net::kOpPut;
          model->AckedPut(f.e[0].index, f.put_version);
          break;
        case kDel:
          // DEL reports whether it erased: exactly when the key was live.
          right = r.opcode == simdtree::net::kOpDel && r.found == f.e[0].live;
          break;
        default:
          break;
      }
      if (!right) ++res.wrong;
    }
    if (f.timed) {
      const double lat = static_cast<double>(now - f.due_ns) * 1e-3;
      res.latency_us.push_back(lat);
      res.due_ns.push_back(f.due_ns);
      res.done_ns.push_back(now);
      if (f.kind == kPut || f.kind == kDel) res.write_latency_us.push_back(lat);
    }
  };

  CpuCycler cpus(spec.server_threads);
  Response resp;
  uint64_t prev_turn = t0;
  bool cpu_started = false, cpu_stopped = false;
  while (true) {
    const uint64_t now = NowNs();
    const bool in_window = now >= timed_from && now < end;
    // A loop turn never blocks, so a long gap between turns is time the
    // generator thread was not running at all.
    if (now - prev_turn > kGapNs && in_window) {
      res.gaps_ms.push_back(static_cast<double>(now - prev_turn) * 1e-6);
    }
    prev_turn = now;
    cpus.Round(res.rounds.Of(now));
    if (!cpu_started && now >= timed_from) {
      res.generator_cpu_s -= CpuSeconds(CLOCK_THREAD_CPUTIME_ID);
      res.process_cpu_s -= CpuSeconds(CLOCK_PROCESS_CPUTIME_ID);
      cpu_started = true;
    }
    if (cpu_started && !cpu_stopped && now >= end) {
      res.generator_cpu_s += CpuSeconds(CLOCK_THREAD_CPUTIME_ID);
      res.process_cpu_s += CpuSeconds(CLOCK_PROCESS_CPUTIME_ID);
      cpu_stopped = true;
    }
    bool busy = false;
    bool worked = false;
    for (int ci = 0; ci < kConns; ++ci) {
      Conn& c = *conns[ci];
      if (c.dead) continue;
      size_t enq = 0;
      // Open loop: every arrival that is due, up to the pipeline cap.
      // Closed loop: refill the pipeline until the window ends.
      auto due = [&] {
        if (c.inflight.size() >= static_cast<size_t>(kDepth)) return false;
        if (closed) return now < end;
        return c.next_due < static_cast<double>(end) &&
               c.next_due <= static_cast<double>(now);
      };
      while (due()) {
        InFlight f;
        f.due_ns = closed ? now : static_cast<uint64_t>(c.next_due);
        f.timed = f.due_ns >= timed_from;
        build(c, ci, &f);
        ++res.attempted;
        ++res.op_count[f.kind];
        if (f.timed && res.read_keys.size() < spec.record_keys) {
          if (f.kind == kGet || f.kind == kMget) {
            for (int k = 0; k < f.nkeys; ++k) {
              res.read_keys.push_back(u.Key(f.e[k].index));
            }
          } else if (f.kind == kLowerBound) {
            res.lb_keys.push_back(f.probe);
          }
        }
        c.inflight.push_back(f);
        if (!closed) c.next_due += next_gap(c);
        ++enq;
      }
      if (enq > 0) {
        worked = true;
        if (!c.client.Flush()) {
          c.dead = true;
          continue;
        }
        const uint64_t sent = NowNs();
        bool timed_flush = false;
        for (size_t k = c.inflight.size() - enq; k < c.inflight.size(); ++k) {
          const InFlight& f = c.inflight[k];
          if (f.timed) {
            res.lag_us.push_back(static_cast<double>(sent - f.due_ns) * 1e-3);
            timed_flush = true;
          }
        }
        if (timed_flush) ++res.flushes;
      }
      while (!c.inflight.empty() && c.client.ReadReply(&resp, 0)) {
        handle(c, resp, NowNs());
        worked = true;
      }
      if (!c.client.connected()) c.dead = true;
      const bool more = closed ? now < end : c.next_due < static_cast<double>(end);
      if (more || !c.inflight.empty()) busy = busy || !c.dead;
    }
    if (in_window) {
      ++res.turns;
      if (!worked) res.idle_ns += NowNs() - now;
    }
    if (!busy || now > drain_deadline) break;
  }
  for (auto& cp : conns) {
    Conn& c = *cp;
    res.lost += c.inflight.size();
    // Requests due in the window that never left count as lost too.
    while (!closed && c.next_due < static_cast<double>(end)) {
      ++res.attempted;
      ++res.lost;
      c.next_due += next_gap(c);
    }
  }
  return res;
}

}  // namespace perfbench
