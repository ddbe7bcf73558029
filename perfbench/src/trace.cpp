#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {
namespace {

thread_local ThreadTrace* t_trace = nullptr;

/// Spans kept per thread for the trace file (the statistics use all).
constexpr std::size_t kLoggedSpans = 8192;

}  // namespace

const char* span_name(Span s) noexcept {
  switch (s) {
    case Span::open: return "core.open";
    case Span::send: return "core.send";
    case Span::recv: return "core.recv";
    case Span::any: return "core.any";
    case Span::lock: return "sync.lock";
    case Span::wait: return "sync.wait";
    case Span::park: return "sync.park";
    case Span::kCount: break;
  }
  return "?";
}

ThreadTrace::ThreadTrace(int id) : tid(id) { log.reserve(kLoggedSpans); }

void Tracer::attach(int tid) {
  auto t = std::make_unique<ThreadTrace>(tid);
  t_trace = t.get();
  const std::lock_guard<std::mutex> lk(mu_);
  threads_.push_back(std::move(t));
}

void Tracer::detach() noexcept { t_trace = nullptr; }

void Tracer::begin(Span s, std::uint64_t msg) {
  ThreadTrace* t = t_trace;
  if (t == nullptr) return;
  if (t->depth == static_cast<int>(t->stack.size())) {
    ++t->overflow;
    return;
  }
  const std::uint64_t parent = t->depth > 0 ? t->stack[t->depth - 1].id : 0;
  // A root span names the message; nested seam spans inherit it.
  if (t->depth == 0) t->msg = msg;
  const std::uint64_t id =
      (static_cast<std::uint64_t>(t->tid) << 48) | t->next_id++;
  t->stack[t->depth++] = {s, id, parent, now_ns(), 0};
}

void Tracer::end() {
  const std::uint64_t stop = now_ns();
  ThreadTrace* t = t_trace;
  if (t == nullptr || t->depth == 0) return;
  if (t->overflow > 0) {
    --t->overflow;
    return;
  }
  const ThreadTrace::Frame f = t->stack[--t->depth];
  const std::uint64_t dur = stop - f.start;
  if (t->depth > 0) t->stack[t->depth - 1].child_ns += dur;
  const int sl = slot();
  SpanStats& st = t->spans[sl][static_cast<std::size_t>(f.name)];
  ++st.calls;
  st.total_ns += dur;
  st.dur.add(dur);
  st.self.add(dur > f.child_ns ? dur - f.child_ns : 0);
  if (sl == kSlotWindow && t->log.size() < kLoggedSpans) {
    t->log.push_back({f.id, f.parent, t->msg, f.start, stop, f.name});
  }
}

void Tracer::count(Count c, std::uint64_t n) {
  ThreadTrace* t = t_trace;
  if (t == nullptr) return;
  t->counts[slot()][static_cast<std::size_t>(c)] += n;
}

std::uint64_t Tracer::calls(Span s, int sl) const {
  const std::lock_guard<std::mutex> lk(mu_);
  std::uint64_t n = 0;
  for (const auto& t : threads_) n += t->spans[sl][static_cast<int>(s)].calls;
  return n;
}

std::uint64_t Tracer::total_ns(Span s, int sl) const {
  const std::lock_guard<std::mutex> lk(mu_);
  std::uint64_t n = 0;
  for (const auto& t : threads_) {
    n += t->spans[sl][static_cast<int>(s)].total_ns;
  }
  return n;
}

std::uint64_t Tracer::counted(Count c, int sl) const {
  const std::lock_guard<std::mutex> lk(mu_);
  std::uint64_t n = 0;
  for (const auto& t : threads_) n += t->counts[sl][static_cast<int>(c)];
  return n;
}

double Tracer::quantile_ns(Span s, int sl, double q, bool self) const {
  const std::lock_guard<std::mutex> lk(mu_);
  std::vector<const Reservoir*> parts;
  for (const auto& t : threads_) {
    const SpanStats& st = t->spans[sl][static_cast<int>(s)];
    parts.push_back(self ? &st.self : &st.dur);
  }
  return quantile(parts, q);
}

void Tracer::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  const std::lock_guard<std::mutex> lk(mu_);
  std::uint64_t t0 = ~std::uint64_t{0};
  for (const auto& t : threads_) {
    for (const SpanRecord& r : t->log) t0 = std::min(t0, r.start);
  }
  std::fputs("{\"traceEvents\":[\n", f);
  bool first = true;
  for (const auto& t : threads_) {
    for (const SpanRecord& r : t->log) {
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                   "\"parent\":%llu,\"msg\":%llu}}",
                   first ? "" : ",\n", span_name(r.name), t->tid,
                   static_cast<double>(r.start - t0) * 1e-3,
                   static_cast<double>(r.end - r.start) * 1e-3,
                   static_cast<unsigned long long>(r.id),
                   static_cast<unsigned long long>(r.parent),
                   static_cast<unsigned long long>(r.msg));
      first = false;
    }
  }
  std::fputs("\n]}\n", f);
  std::fclose(f);
}

// --- TracingPlatform -------------------------------------------------------

void TracingPlatform::lock_robust(mpf::sync::SpinLock& cell,
                                  mpf::RobustOp& op) {
  tracer_.begin(Span::lock, 0);
  inner_.lock_robust(cell, op);
  tracer_.end();
}

void TracingPlatform::wait(mpf::sync::SpinLock& m, mpf::sync::EventCount& c,
                           mpf::RobustOp* op) {
  tracer_.begin(Span::wait, 0);
  inner_.wait(m, c, op);
  tracer_.end();
}

bool TracingPlatform::wait_for(mpf::sync::SpinLock& m,
                               mpf::sync::EventCount& c,
                               std::uint64_t timeout_ns, mpf::RobustOp* op) {
  tracer_.begin(Span::wait, 0);
  const bool notified = inner_.wait_for(m, c, timeout_ns, op);
  tracer_.end();
  return notified;
}

void TracingPlatform::notify_all(mpf::sync::EventCount& c) {
  tracer_.count(Count::notify);
  inner_.notify_all(c);
}

bool TracingPlatform::park(mpf::sync::WaitNode& node, std::uint32_t expected,
                           std::uint64_t deadline_ns, std::uint64_t spin_ns) {
  tracer_.begin(Span::park, 0);
  const bool woken = inner_.park(node, expected, deadline_ns, spin_ns);
  tracer_.end();
  return woken;
}

void TracingPlatform::unpark(mpf::sync::WaitNode& node) {
  tracer_.count(Count::unpark);
  inner_.unpark(node);
}

void TracingPlatform::charge_copy(std::size_t bytes, std::size_t nblocks) {
  tracer_.count(Count::copy_calls);
  tracer_.count(Count::copy_bytes, bytes);
  tracer_.count(Count::copy_blocks, nblocks);
  inner_.charge_copy(bytes, nblocks);
}

void TracingPlatform::charge_copy_nodes(std::size_t bytes,
                                        std::size_t nblocks,
                                        std::uint32_t read_node,
                                        std::uint32_t write_node,
                                        std::uint32_t exec_node) {
  tracer_.count(Count::copy_calls);
  tracer_.count(Count::copy_bytes, bytes);
  tracer_.count(Count::copy_blocks, nblocks);
  inner_.charge_copy_nodes(bytes, nblocks, read_node, write_node, exec_node);
}

}  // namespace perfbench
