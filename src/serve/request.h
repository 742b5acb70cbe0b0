/**
 * @file
 * Client-facing request types of the serving runtime: submission
 * options (priority, deadline) and the ticket a client blocks on for
 * its result plus a per-request report (queue/service latency,
 * batches spanned, deadline outcome, noise budget of the result).
 */

#ifndef HEAP_SERVE_REQUEST_H
#define HEAP_SERVE_REQUEST_H

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <stdexcept>

#include "ckks/context.h"
#include "common/check.h"

namespace heap::serve {

/** Final per-request accounting; forward-declared for the hook. */
struct RequestReport;

/** The pod-side request that settles a ticket (serve/pod.h). */
template <typename ResultT> struct TicketedRequest;

/**
 * Retryable pod-level failure: an injected chaos fault or a pod
 * crash, as opposed to a UserError (which would fail identically on
 * every replica). The cluster's failover layer re-submits requests
 * that fail with a PodError to the next healthy pod; one reaching a
 * client means every candidate was exhausted.
 */
class PodError : public std::runtime_error {
  public:
    using std::runtime_error::runtime_error;
};

/** Per-request scheduling knobs. */
struct SubmitOptions {
    /** Larger runs sooner; ties break earliest-deadline-first, then
     *  arrival order. */
    int priority = 0;
    /** Soft completion deadline relative to submission, in
     *  milliseconds. Missing it is *accounted*, never dropped: FHE
     *  results stay correct, the miss shows up in the report and the
     *  service counters. */
    std::optional<double> deadlineMs;
    /** Owning tenant (0 = untenanted). Purely bookkeeping at the
     *  service level; the cluster layer stamps it. */
    uint64_t tenantId = 0;
    /** Weighted-fair virtual-service tag (lower = served sooner,
     *  ahead of priority); see ItemQueue::addRequest. The cluster
     *  layer stamps it from the TenantRegistry; direct service users
     *  leave it 0 and get the classic priority/EDF order. */
    double fairRank = 0.0;
    /**
     * Completion hook, invoked exactly once after the ticket settles
     * (fulfil or fail), with `ok` = false on failure. Runs on a
     * service worker thread and MAY hold the service lock: the hook
     * must not call back into the service (the cluster layer uses it
     * for tenant and load bookkeeping only).
     */
    std::function<void(const RequestReport&, bool ok)> onDone = {};
};

/** Final per-request accounting, valid once the ticket is done. */
struct RequestReport {
    uint64_t id = 0;
    double queueMs = 0;   ///< submission -> first batch dispatched
    double totalMs = 0;   ///< submission -> result ready
    bool deadlineMissed = false;
    size_t batches = 0;   ///< blind-rotate batches this request rode
    /** Completion sequence number (service-wide, 1-based): request k
     *  finished k-th. */
    uint64_t completionSeq = 0;
    /** Pod index that produced the result, for cluster-served
     *  requests; -1 when the request was served by a bare pod (no
     *  cluster in front of it). */
    int servedPod = -1;
    /** Dispatch attempts the request took: 1 = no failover; > 1 means
     *  a pod failed it retryably and the cluster re-submitted. */
    uint32_t attempts = 1;
    /** Remaining noise budget (bits to predicted decryption failure)
     *  of the returned ciphertext; infinity when untracked. */
    double budgetBits = 0;
    /** Predicted precision log2(scale/sigma) of the returned
     *  ciphertext; infinity when untracked. */
    double precisionBits = 0;
};

/**
 * Completion handle for one submitted request, parameterized on the
 * result the serving class returns: a refreshed ckks::Ciphertext for
 * bootstrap requests (BootstrapTicket), a folded rlwe::Ciphertext
 * answer for encrypted-lookup requests (PirTicket, serve/pir_service.h).
 * Created by submit(); settled exactly once, by the pod request that
 * carries it (TicketedRequest).
 */
template <typename ResultT> class ResultTicket {
  public:
    /** Blocks until the request completes; returns the result or
     *  rethrows the failure. The result may be consumed once: a
     *  second wait() on a fulfilled ticket throws a UserError instead
     *  of dereferencing the moved-out result (a failed ticket
     *  rethrows its error on every call). */
    ResultT
    wait()
    {
        std::unique_lock<std::mutex> lock(m_);
        cv_.wait(lock, [&] { return done_; });
        if (error_) {
            std::rethrow_exception(error_);
        }
        HEAP_CHECK(result_.has_value(),
                   "ResultTicket::wait() called twice: the result "
                   "was already consumed by an earlier wait()");
        ResultT out = std::move(*result_);
        result_.reset();
        return out;
    }

    bool
    ready() const
    {
        std::lock_guard<std::mutex> lock(m_);
        return done_;
    }

    /** The per-request report; valid once ready() (also on failure,
     *  with timing fields filled). */
    RequestReport
    report() const
    {
        std::lock_guard<std::mutex> lock(m_);
        return report_;
    }

    /** The failure, once ready(); nullptr on success (or before
     *  completion). Lets the cluster classify a failed attempt
     *  without consuming it via wait(). */
    std::exception_ptr
    error() const
    {
        std::lock_guard<std::mutex> lock(m_);
        return error_;
    }

  private:
    friend struct TicketedRequest<ResultT>;

    void
    fulfil(ResultT&& out, const RequestReport& report)
    {
        {
            std::lock_guard<std::mutex> lock(m_);
            result_ = std::move(out);
            report_ = report;
            done_ = true;
        }
        cv_.notify_all();
    }

    void
    fail(std::exception_ptr error, const RequestReport& report)
    {
        {
            std::lock_guard<std::mutex> lock(m_);
            error_ = std::move(error);
            report_ = report;
            done_ = true;
        }
        cv_.notify_all();
    }

    mutable std::mutex m_;
    std::condition_variable cv_;
    bool done_ = false;
    std::optional<ResultT> result_;
    std::exception_ptr error_;
    RequestReport report_;
};

/** Bootstrap requests resolve to a refreshed CKKS ciphertext. */
using BootstrapTicket = ResultTicket<ckks::Ciphertext>;

/** Encrypted-lookup (PIR) requests resolve to one RLWE answer. */
using PirTicket = ResultTicket<rlwe::Ciphertext>;

} // namespace heap::serve

#endif // HEAP_SERVE_REQUEST_H
