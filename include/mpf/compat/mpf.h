/*
 * MPF compatibility interface — the eight primitives of the paper, as C
 * function calls (paper §2):
 *
 *   init (maxLNVC's, max_processes)
 *   open_send (process_id, lnvc_name)
 *   open_receive (process_id, lnvc_name, protocol)
 *   close_send (process_id, lnvc_id)
 *   close_receive (process_id, lnvc_id)
 *   message_send (process_id, lnvc_id, send_buffer, buffer_length)
 *   message_receive (process_id, lnvc_id, receive_buffer, buffer_length)
 *   check_receive (process_id, lnvc_id)
 *
 * The functions operate on one process-wide facility backed by an
 * anonymous shared mapping, so a program may mpf_init() and then fork()
 * workers — exactly the paper's "group of Unix processes" model — or use
 * threads.  Define MPF_PAPER_NAMES before including this header to get the
 * paper's unprefixed spellings as macros.
 *
 * Conventions: open calls return the LNVC id (>= 0) or a negative error
 * code; other calls return 0 on success or a negative error code;
 * mpf_check_receive returns 1 when a message appears available, 0 when
 * not, negative on error.  Negative codes are -(int)mpf::Status values.
 */
#ifndef MPF_COMPAT_MPF_H_
#define MPF_COMPAT_MPF_H_

#include <stddef.h>

#ifdef __cplusplus
extern "C" {
#endif

#define MPF_FCFS 1
#define MPF_BROADCAST 2

/* Error returns (negatives of mpf::Status). */
#define MPF_EINVAL -1
#define MPF_ETABLEFULL -2
#define MPF_ENOLNVC -3
#define MPF_ENOTCONN -4
#define MPF_EALREADY -5
#define MPF_EPROTOCOL -6
#define MPF_ENOBLOCKS -7
#define MPF_ETRUNC -8
#define MPF_ECLOSED -9
#define MPF_ETIMEDOUT -10
#define MPF_EPEERFAILED -11 /* blocked call abandoned: peer process died */
#define MPF_EORPHANED -12   /* receive on an LNVC whose last sender died */
#define MPF_EAGAIN -13      /* admission control rejected the send */
#define MPF_EBUSY -14       /* poll set already has a waiter */
#define MPF_ENOTINIT -100

/* Initialize the facility; sizes the shared region from the two maxima
 * (paper: "used to estimate the amount of shared memory necessary"). */
int mpf_init(int max_lnvcs, int max_processes);
/* Tear the facility down (frees the shared region).  Not in the paper;
 * provided so tests can cycle facilities. */
int mpf_shutdown(void);

int mpf_open_send(int process_id, const char* lnvc_name);
int mpf_open_receive(int process_id, const char* lnvc_name, int protocol);
int mpf_close_send(int process_id, int lnvc_id);
int mpf_close_receive(int process_id, int lnvc_id);
int mpf_message_send(int process_id, int lnvc_id, const char* send_buffer,
                     int buffer_length);
/* Every timeout_ns below follows one rule: MPF_NO_TIMEOUT waits forever,
 * 0 polls (acts on what is ready now, else MPF_ETIMEDOUT without
 * sleeping), and any other value gives up with MPF_ETIMEDOUT after that
 * many nanoseconds. */
#define MPF_NO_TIMEOUT (~0ULL)

/* Send with a timeout.  When the LNVC's admission quota (or the buffer
 * pool) keeps the message out for timeout_ns, returns MPF_ETIMEDOUT;
 * under a fail-fast admission policy an over-quota send returns
 * MPF_EAGAIN immediately. */
int mpf_message_send_timed(int process_id, int lnvc_id,
                           const char* send_buffer, int buffer_length,
                           unsigned long long timeout_ns);
/* buffer_length: in = capacity of receive_buffer, out = bytes transferred. */
int mpf_message_receive(int process_id, int lnvc_id, char* receive_buffer,
                        int* buffer_length);
int mpf_check_receive(int process_id, int lnvc_id);

/* One span of a scatter-gather send or a zero-copy view.  Layout matches
 * struct iovec (pointer first, then length). */
typedef struct mpf_iovec {
  const void* data;
  size_t len;
} mpf_iovec;

/* Scatter-gather send: the spans are concatenated into one message (same
 * semantics as mpf_message_send of the concatenation). */
int mpf_message_sendv(int process_id, int lnvc_id, const mpf_iovec* iov,
                      int iov_count);

/* Zero-copy receive.  mpf_message_view blocks like mpf_message_receive but
 * pins the message in shared memory instead of copying it out.  The handle
 * records arena-relative offsets, so it stays meaningful no matter where a
 * process mapped the region; mpf_view_spans is the materialize step that
 * turns those offsets into pointers valid in the CALLING process's mapping.
 * Pointers from one process's mpf_view_spans must not be handed to another
 * process — each must call mpf_view_spans itself.  The materialized spans
 * stay valid until mpf_view_release.  A process may hold a small fixed
 * number of views at once (MPF_ETABLEFULL beyond that); a view held when
 * its holder dies is reclaimed by mpf_reap. */
typedef struct mpf_view mpf_view; /* opaque handle */

int mpf_message_view(int process_id, int lnvc_id, mpf_view** out_view);
/* Total message length in bytes, or a negative error code. */
long mpf_view_length(const mpf_view* view);
/* Materialize up to max_spans span descriptors against this process's
 * mapping into `spans`; returns the total span count of the view (call
 * with max_spans = 0 to size a buffer). */
int mpf_view_spans(const mpf_view* view, mpf_iovec* spans, int max_spans);
/* Unpin and free the handle.  The view must belong to `process_id`. */
int mpf_view_release(int process_id, mpf_view* view);

/* Poll sets: epoll-like wait objects over many receive circuits.  Senders
 * on member circuits wake the set exactly once per arming via a lock-free
 * ready push, so one server can wait on thousands of circuits without the
 * O(n) rotation scan of a receive-any loop.  A circuit belongs to at most
 * one poll set; membership requires a receive connection.  Waits are
 * level-triggered (an undrained circuit is returned again) and single-
 * waiter (MPF_EBUSY otherwise).  A poll set whose owner dies is destroyed
 * by mpf_reap. */

/* Create an empty poll set owned by process_id; returns its id (>= 0) or
 * a negative error code. */
int mpf_pollset_create(int process_id);
/* Destroy a poll set: detaches every member and wakes any waiter (which
 * returns MPF_ECLOSED). */
int mpf_pollset_destroy(int process_id, int pollset_id);
int mpf_pollset_add(int process_id, int pollset_id, int lnvc_id);
int mpf_pollset_remove(int process_id, int pollset_id, int lnvc_id);
/* Wait for a member circuit to become ready (deliverable message or
 * pending pulse); returns its LNVC id (>= 0), MPF_ETIMEDOUT when nothing
 * became ready within timeout_ns, or a negative error code. */
int mpf_pollset_wait(int process_id, int pollset_id,
                     unsigned long long timeout_ns);

/* Pulses: tiny no-reply notifications carrying just a 32-bit code, riding
 * fixed per-circuit slots (no buffer-pool traffic).  Repeats of a pending
 * code coalesce into a count; a bounded number of distinct codes may be
 * pending at once (MPF_ETABLEFULL beyond that).  A pulse wakes receivers
 * and poll sets exactly like a message send. */
int mpf_send_pulse(int process_id, int lnvc_id, unsigned int code);
/* Drain one pending pulse (lowest slot): returns 1 and fills *out_code /
 * *out_count (how many sends coalesced, >= 1) when one was pending, 0 when
 * none, negative on error.  Non-blocking. */
int mpf_receive_pulse(int process_id, int lnvc_id, unsigned int* out_code,
                      unsigned int* out_count);

/* Recovery sweep for a dead participant (e.g. a fork()ed worker that was
 * SIGKILLed): closes its connections, reclaims its blocks, and wakes any
 * peer blocked on it.  `reaper_id` is the surviving process running the
 * sweep.  Returns 0, or MPF_EINVAL if dead_id is out of range or alive. */
int mpf_reap(int reaper_id, int dead_id);

#ifdef __cplusplus
}
#endif

#ifdef MPF_PAPER_NAMES
#define init mpf_init
#define open_send mpf_open_send
#define open_receive mpf_open_receive
#define close_send mpf_close_send
#define close_receive mpf_close_receive
#define message_send mpf_message_send
#define message_receive mpf_message_receive
#define check_receive mpf_check_receive
#endif

#endif /* MPF_COMPAT_MPF_H_ */
