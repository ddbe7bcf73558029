// C ABI over a single process-wide facility.
#include "mpf/compat/mpf.h"

#include <memory>
#include <mutex>
#include <vector>

#include "mpf/core/facility.hpp"
#include "mpf/shm/region.hpp"
#include "view_handle.hpp"

namespace {

struct GlobalFacility {
  std::unique_ptr<mpf::shm::AnonSharedRegion> region;
  mpf::Facility facility;
};

std::mutex g_mu;
std::unique_ptr<GlobalFacility> g_state;

int status_code(mpf::Status s) {
  return s == mpf::Status::ok ? 0 : -static_cast<int>(s);
}

mpf::Facility* facility() {
  return g_state ? &g_state->facility : nullptr;
}

}  // namespace

extern "C" {

int mpf_init(int max_lnvcs, int max_processes) {
  if (max_lnvcs <= 0 || max_processes <= 0) return MPF_EINVAL;
  std::lock_guard<std::mutex> lk(g_mu);
  if (g_state) return MPF_EALREADY;
  try {
    mpf::Config config;
    config.max_lnvcs = static_cast<std::uint32_t>(max_lnvcs);
    config.max_processes = static_cast<std::uint32_t>(max_processes);
    auto state = std::make_unique<GlobalFacility>();
    state->region = std::make_unique<mpf::shm::AnonSharedRegion>(
        config.derived_arena_bytes());
    state->facility = mpf::Facility::create(config, *state->region);
    g_state = std::move(state);
    return 0;
  } catch (...) {
    return MPF_EINVAL;
  }
}

int mpf_shutdown(void) {
  std::lock_guard<std::mutex> lk(g_mu);
  if (!g_state) return MPF_ENOTINIT;
  g_state.reset();
  return 0;
}

int mpf_open_send(int process_id, const char* lnvc_name) {
  mpf::Facility* f = facility();
  if (f == nullptr) return MPF_ENOTINIT;
  if (process_id < 0 || lnvc_name == nullptr) return MPF_EINVAL;
  mpf::LnvcId id = mpf::kInvalidLnvc;
  const mpf::Status s =
      f->open_send(static_cast<mpf::ProcessId>(process_id), lnvc_name, &id);
  return s == mpf::Status::ok ? static_cast<int>(id) : status_code(s);
}

int mpf_open_receive(int process_id, const char* lnvc_name, int protocol) {
  mpf::Facility* f = facility();
  if (f == nullptr) return MPF_ENOTINIT;
  if (process_id < 0 || lnvc_name == nullptr ||
      (protocol != MPF_FCFS && protocol != MPF_BROADCAST)) {
    return MPF_EINVAL;
  }
  mpf::LnvcId id = mpf::kInvalidLnvc;
  const mpf::Status s = f->open_receive(
      static_cast<mpf::ProcessId>(process_id), lnvc_name,
      protocol == MPF_FCFS ? mpf::Protocol::fcfs : mpf::Protocol::broadcast,
      &id);
  return s == mpf::Status::ok ? static_cast<int>(id) : status_code(s);
}

int mpf_close_send(int process_id, int lnvc_id) {
  mpf::Facility* f = facility();
  if (f == nullptr) return MPF_ENOTINIT;
  if (process_id < 0) return MPF_EINVAL;
  return status_code(
      f->close_send(static_cast<mpf::ProcessId>(process_id), lnvc_id));
}

int mpf_close_receive(int process_id, int lnvc_id) {
  mpf::Facility* f = facility();
  if (f == nullptr) return MPF_ENOTINIT;
  if (process_id < 0) return MPF_EINVAL;
  return status_code(
      f->close_receive(static_cast<mpf::ProcessId>(process_id), lnvc_id));
}

int mpf_message_send(int process_id, int lnvc_id, const char* send_buffer,
                     int buffer_length) {
  mpf::Facility* f = facility();
  if (f == nullptr) return MPF_ENOTINIT;
  if (process_id < 0 || buffer_length < 0) return MPF_EINVAL;
  return status_code(f->send(static_cast<mpf::ProcessId>(process_id),
                             lnvc_id, send_buffer,
                             static_cast<std::size_t>(buffer_length)));
}

int mpf_message_send_timed(int process_id, int lnvc_id,
                           const char* send_buffer, int buffer_length,
                           unsigned long long timeout_ns) {
  mpf::Facility* f = facility();
  if (f == nullptr) return MPF_ENOTINIT;
  if (process_id < 0 || buffer_length < 0) return MPF_EINVAL;
  return status_code(f->send(static_cast<mpf::ProcessId>(process_id),
                             lnvc_id, send_buffer,
                             static_cast<std::size_t>(buffer_length),
                             static_cast<std::uint64_t>(timeout_ns)));
}

int mpf_message_receive(int process_id, int lnvc_id, char* receive_buffer,
                        int* buffer_length) {
  mpf::Facility* f = facility();
  if (f == nullptr) return MPF_ENOTINIT;
  if (process_id < 0 || buffer_length == nullptr || *buffer_length < 0) {
    return MPF_EINVAL;
  }
  std::size_t len = 0;
  const mpf::Status s = f->receive(
      static_cast<mpf::ProcessId>(process_id), lnvc_id, receive_buffer,
      static_cast<std::size_t>(*buffer_length), &len);
  if (s == mpf::Status::ok || s == mpf::Status::truncated) {
    *buffer_length = static_cast<int>(len);
  }
  return status_code(s);
}

int mpf_message_sendv(int process_id, int lnvc_id, const mpf_iovec* iov,
                      int iov_count) {
  mpf::Facility* f = facility();
  if (f == nullptr) return MPF_ENOTINIT;
  if (process_id < 0 || iov_count < 0 || (iov == nullptr && iov_count > 0)) {
    return MPF_EINVAL;
  }
  // mpf_iovec and ConstBuffer share layout (pointer, then size_t length),
  // but reinterpreting across the C boundary is UB; build the spans.
  std::vector<mpf::ConstBuffer> spans(static_cast<std::size_t>(iov_count));
  for (int i = 0; i < iov_count; ++i) {
    spans[static_cast<std::size_t>(i)] = {iov[i].data, iov[i].len};
  }
  return status_code(f->send_v(static_cast<mpf::ProcessId>(process_id),
                               lnvc_id, spans));
}

int mpf_message_view(int process_id, int lnvc_id, mpf_view** out_view) {
  mpf::Facility* f = facility();
  if (f == nullptr) return MPF_ENOTINIT;
  if (process_id < 0 || out_view == nullptr) return MPF_EINVAL;
  *out_view = nullptr;
  auto view = std::make_unique<mpf_view>();
  const mpf::Status s = f->receive_view(
      static_cast<mpf::ProcessId>(process_id), lnvc_id, &view->v);
  if (s != mpf::Status::ok) return status_code(s);
  *out_view = view.release();
  return 0;
}

long mpf_view_length(const mpf_view* view) {
  if (view == nullptr || !view->v.valid()) return MPF_EINVAL;
  return static_cast<long>(view->v.length);
}

int mpf_view_spans(const mpf_view* view, mpf_iovec* spans, int max_spans) {
  mpf::Facility* f = facility();
  if (f == nullptr) return MPF_ENOTINIT;
  if (view == nullptr || !view->v.valid() || max_spans < 0 ||
      (spans == nullptr && max_spans > 0)) {
    return MPF_EINVAL;
  }
  const auto total = static_cast<int>(view->v.spans.size());
  const int n = max_spans < total ? max_spans : total;
  /* The view record carries arena-relative offsets; materialize each span
   * against the calling process's mapping of the region here. */
  for (int i = 0; i < n; ++i) {
    const mpf::ConstBuffer b =
        f->resolve(view->v.spans[static_cast<std::size_t>(i)]);
    spans[i].data = b.data;
    spans[i].len = b.len;
  }
  return total;
}

int mpf_view_release(int process_id, mpf_view* view) {
  mpf::Facility* f = facility();
  if (f == nullptr) return MPF_ENOTINIT;
  if (process_id < 0 || view == nullptr) return MPF_EINVAL;
  const mpf::Status s =
      f->release_view(static_cast<mpf::ProcessId>(process_id), &view->v);
  /* A stale or already-released view comes back invalid_argument; the
   * facility no longer tracks it, so keeping the heap wrapper alive only
   * leaks it.  Free the wrapper on any terminal outcome: the caller must
   * treat the handle as consumed whenever this returns 0 or MPF_EINVAL. */
  if (s == mpf::Status::ok || s == mpf::Status::invalid_argument) {
    delete view;
  }
  return status_code(s);
}

int mpf_pollset_create(int process_id) {
  mpf::Facility* f = facility();
  if (f == nullptr) return MPF_ENOTINIT;
  if (process_id < 0) return MPF_EINVAL;
  mpf::PollSetId id = mpf::kInvalidPollSet;
  const mpf::Status s =
      f->pollset_create(static_cast<mpf::ProcessId>(process_id), &id);
  return s == mpf::Status::ok ? static_cast<int>(id) : status_code(s);
}

int mpf_pollset_destroy(int process_id, int pollset_id) {
  mpf::Facility* f = facility();
  if (f == nullptr) return MPF_ENOTINIT;
  if (process_id < 0) return MPF_EINVAL;
  return status_code(f->pollset_destroy(
      static_cast<mpf::ProcessId>(process_id), pollset_id));
}

int mpf_pollset_add(int process_id, int pollset_id, int lnvc_id) {
  mpf::Facility* f = facility();
  if (f == nullptr) return MPF_ENOTINIT;
  if (process_id < 0) return MPF_EINVAL;
  return status_code(f->pollset_add(static_cast<mpf::ProcessId>(process_id),
                                    pollset_id, lnvc_id));
}

int mpf_pollset_remove(int process_id, int pollset_id, int lnvc_id) {
  mpf::Facility* f = facility();
  if (f == nullptr) return MPF_ENOTINIT;
  if (process_id < 0) return MPF_EINVAL;
  return status_code(f->pollset_remove(
      static_cast<mpf::ProcessId>(process_id), pollset_id, lnvc_id));
}

int mpf_pollset_wait(int process_id, int pollset_id,
                     unsigned long long timeout_ns) {
  mpf::Facility* f = facility();
  if (f == nullptr) return MPF_ENOTINIT;
  if (process_id < 0) return MPF_EINVAL;
  mpf::LnvcId ready = mpf::kInvalidLnvc;
  const mpf::Status s =
      f->pollset_wait(static_cast<mpf::ProcessId>(process_id), pollset_id,
                      &ready, static_cast<std::uint64_t>(timeout_ns));
  return s == mpf::Status::ok ? static_cast<int>(ready) : status_code(s);
}

int mpf_send_pulse(int process_id, int lnvc_id, unsigned int code) {
  mpf::Facility* f = facility();
  if (f == nullptr) return MPF_ENOTINIT;
  if (process_id < 0) return MPF_EINVAL;
  return status_code(f->send_pulse(static_cast<mpf::ProcessId>(process_id),
                                   lnvc_id,
                                   static_cast<std::uint32_t>(code)));
}

int mpf_receive_pulse(int process_id, int lnvc_id, unsigned int* out_code,
                      unsigned int* out_count) {
  mpf::Facility* f = facility();
  if (f == nullptr) return MPF_ENOTINIT;
  if (process_id < 0) return MPF_EINVAL;
  std::uint32_t code = 0;
  std::uint32_t count = 0;
  const mpf::Status s = f->receive_pulse(
      static_cast<mpf::ProcessId>(process_id), lnvc_id, &code, &count);
  if (s != mpf::Status::ok) return status_code(s);
  if (count == 0) return 0;
  if (out_code != nullptr) *out_code = code;
  if (out_count != nullptr) *out_count = count;
  return 1;
}

int mpf_reap(int reaper_id, int dead_id) {
  mpf::Facility* f = facility();
  if (f == nullptr) return MPF_ENOTINIT;
  if (reaper_id < 0 || dead_id < 0) return MPF_EINVAL;
  return status_code(f->reap(static_cast<mpf::ProcessId>(reaper_id),
                             static_cast<mpf::ProcessId>(dead_id)));
}

int mpf_check_receive(int process_id, int lnvc_id) {
  mpf::Facility* f = facility();
  if (f == nullptr) return MPF_ENOTINIT;
  if (process_id < 0) return MPF_EINVAL;
  bool has = false;
  const mpf::Status s =
      f->check(static_cast<mpf::ProcessId>(process_id), lnvc_id, &has);
  return s == mpf::Status::ok ? (has ? 1 : 0) : status_code(s);
}

}  // extern "C"
