/// \file api.h
/// The OpenMP Runtime API for Profiling (ORA) — C ABI.
///
/// This header is the sanctioned interface from the Sun Microsystems white
/// paper "An OpenMP Runtime API for Profiling" (Itzkowitz, Mazurov, Copty,
/// Lin, 2007) that the paper implements. It is deliberately C-compatible:
/// the whole point of ORA is that a *collector* (a profiling tool built with
/// no knowledge of the OpenMP runtime's internals) discovers the single
/// exported symbol `__omp_collector_api` through the dynamic linker and
/// communicates through the byte-array request format below.
///
/// Nothing in this header references ORCA internals; a third-party tool can
/// compile against it alone.
#ifndef ORCA_COLLECTOR_API_H
#define ORCA_COLLECTOR_API_H

#ifdef __cplusplus
extern "C" {
#endif

/// Request kinds a collector may send to the runtime (white paper Sec. 3).
typedef enum {
  OMP_REQ_START = 0,         /**< begin tracking states / accept requests   */
  OMP_REQ_REGISTER = 1,      /**< register a callback for an event          */
  OMP_REQ_UNREGISTER = 2,    /**< remove the callback for an event          */
  OMP_REQ_STATE = 3,         /**< query calling thread's current state      */
  OMP_REQ_CURRENT_PRID = 4,  /**< query current parallel region id          */
  OMP_REQ_PARENT_PRID = 5,   /**< query parent parallel region id           */
  OMP_REQ_STOP = 6,          /**< stop all event generation and tracking    */
  OMP_REQ_PAUSE = 7,         /**< temporarily suppress event callbacks      */
  OMP_REQ_RESUME = 8,        /**< re-enable event callbacks after PAUSE     */
  OMP_REQ_LAST,

  /* --- ORCA extension requests ----------------------------------------- */
  /* Numbered well past the sanctioned kinds so a future revision of the
     white paper cannot collide. A strictly conforming runtime answers
     unknown kinds with OMP_ERRCODE_UNKNOWN, which is also what ORCA
     returns for these when the corresponding subsystem is absent.         */
  ORCA_REQ_EVENT_STATS = 16, /**< query asynchronous event-delivery stats;
                                  reply payload is one orca_event_stats     */
  ORCA_REQ_TELEMETRY_SNAPSHOT = 17, /**< query the runtime's self-telemetry
                                  aggregates; reply payload is one
                                  orca_telemetry_snapshot                   */
  ORCA_REQ_RESILIENCE_STATS = 18 /**< query the resilience layer's counters
                                  (quarantined callbacks, crash-dump arming,
                                  signal-path queries, fork events); reply
                                  payload is one orca_resilience_stats      */
} OMP_COLLECTORAPI_REQUEST;

/// Error codes returned per-request in `r_errcode`.
typedef enum {
  OMP_ERRCODE_OK = 0,
  OMP_ERRCODE_ERROR = 1,             /**< generic failure                   */
  OMP_ERRCODE_UNKNOWN = 2,           /**< unrecognized request kind         */
  OMP_ERRCODE_UNSUPPORTED = 3,       /**< recognized but not implemented    */
  OMP_ERRCODE_SEQUENCE_ERR = 4,      /**< request out of sequence (e.g. two
                                          STARTs without a STOP, or a region
                                          id query outside a region)        */
  OMP_ERRCODE_OBSOLETE = 5,          /**< request no longer meaningful      */
  OMP_ERRCODE_THREAD_ERR = 6,        /**< calling thread unknown to the rt  */
  OMP_ERRCODE_MEM_TOO_SMALL = 7      /**< mem[] cannot hold the reply       */
} OMP_COLLECTORAPI_EC;

/// Events a collector can register for. FORK and JOIN are mandatory for a
/// conforming runtime; the rest are optional ("to support tracing").
typedef enum {
  OMP_EVENT_FORK = 1,
  OMP_EVENT_JOIN = 2,
  OMP_EVENT_THR_BEGIN_IDLE = 3,
  OMP_EVENT_THR_END_IDLE = 4,
  OMP_EVENT_THR_BEGIN_IBAR = 5,   /**< implicit barrier */
  OMP_EVENT_THR_END_IBAR = 6,
  OMP_EVENT_THR_BEGIN_EBAR = 7,   /**< explicit barrier */
  OMP_EVENT_THR_END_EBAR = 8,
  OMP_EVENT_THR_BEGIN_LKWT = 9,   /**< user-lock wait */
  OMP_EVENT_THR_END_LKWT = 10,
  OMP_EVENT_THR_BEGIN_CTWT = 11,  /**< critical-section wait */
  OMP_EVENT_THR_END_CTWT = 12,
  OMP_EVENT_THR_BEGIN_ODWT = 13,  /**< ordered-section wait */
  OMP_EVENT_THR_END_ODWT = 14,
  OMP_EVENT_THR_BEGIN_MASTER = 15,
  OMP_EVENT_THR_END_MASTER = 16,
  OMP_EVENT_THR_BEGIN_SINGLE = 17,
  OMP_EVENT_THR_END_SINGLE = 18,
  OMP_EVENT_THR_BEGIN_ORDERED = 19,
  OMP_EVENT_THR_END_ORDERED = 20,
  OMP_EVENT_THR_BEGIN_ATWT = 21,  /**< atomic wait (optional; OpenUH did not
                                       implement it, ORCA does behind a
                                       config flag)                        */
  OMP_EVENT_THR_END_ATWT = 22,
  OMP_EVENT_LAST,

  /* --- ORCA extensions beyond the sanctioned interface ----------------- */
  /* The ICPP'09 paper's future work: "More work will be needed to extend
     the interface to handle the constructs in the recent OpenMP 3.0
     standard." ORCA implements explicit tasks and reports them through
     these extension events. A strictly conforming ORA collector will see
     their registration refused (OMP_ERRCODE_UNSUPPORTED) on runtimes
     configured without tasking.                                           */
  /* 23 is OMP_EVENT_LAST, the sanctioned interface's sentinel — never an
     event. Extensions start after it.                                     */
  ORCA_EVENT_TASK_BEGIN = 24,   /**< a deferred task starts executing      */
  ORCA_EVENT_TASK_END = 25,     /**< a deferred task finished              */
  ORCA_EVENT_EXT_LAST
} OMP_COLLECTORAPI_EVENT;

/// Thread states the runtime tracks (white paper Sec. 4). Wait states carry
/// a wait id (barrier id / lock id / ...) returned after the state value in
/// the reply payload of OMP_REQ_STATE.
typedef enum {
  THR_OVHD_STATE = 1,    /**< runtime overhead: preparing fork, scheduling  */
  THR_WORK_STATE = 2,    /**< useful work inside a parallel region          */
  THR_IBAR_STATE = 3,    /**< in implicit barrier */
  THR_EBAR_STATE = 4,    /**< in explicit barrier */
  THR_IDLE_STATE = 5,    /**< slave idle between parallel regions           */
  THR_SERIAL_STATE = 6,  /**< master executing serial code                  */
  THR_REDUC_STATE = 7,   /**< performing a reduction                        */
  THR_LKWT_STATE = 8,    /**< waiting for a user lock                       */
  THR_CTWT_STATE = 9,    /**< waiting to enter a critical region            */
  THR_ODWT_STATE = 10,   /**< waiting to enter an ordered section           */
  THR_ATWT_STATE = 11,   /**< waiting on an atomic operation                */
  THR_LAST_STATE
} OMP_COLLECTOR_API_THR_STATE;

/// Event callback signature. The runtime passes the event kind; everything
/// else (timestamps, callstacks, region ids) the collector queries itself.
typedef void (*OMP_COLLECTORAPI_CALLBACK)(OMP_COLLECTORAPI_EVENT event);

/// Reply payload of ORCA_REQ_EVENT_STATS: aggregate counters of the
/// asynchronous event-delivery subsystem, summed over every per-thread
/// ring. `submitted == delivered + overwritten` once delivery has been
/// flushed (PAUSE/STOP do that); `dropped` counts events shed by the
/// drop_newest backpressure policy. All counters are zero (with active == 0)
/// on a runtime configured for synchronous delivery — overhead vs. fidelity
/// is observable either way, never silent.
typedef struct orca_event_stats {
  unsigned long long submitted;    /**< records accepted into rings         */
  unsigned long long delivered;    /**< records whose callback completed    */
  unsigned long long dropped;      /**< pushes rejected (drop_newest)       */
  unsigned long long overwritten;  /**< records evicted (overwrite_oldest)  */
  unsigned long long ring_capacity;/**< per-ring capacity in records        */
  int active;                      /**< 1 while the drainer thread runs     */
} orca_event_stats;

/// Reply payload of ORCA_REQ_TELEMETRY_SNAPSHOT: aggregate self-telemetry
/// of the runtime's own internals (fork/join, barriers, tasking, the async
/// delivery engine, and the epoch-published callback table), summed over
/// every thread's telemetry shard. Answered with OMP_ERRCODE_UNSUPPORTED
/// on a runtime whose configuration never armed telemetry (ORCA_TELEMETRY
/// unset or "off") — a collector can distinguish "no telemetry" from
/// "telemetry says zero".
typedef struct orca_telemetry_snapshot {
  unsigned long long armed_mask;        /**< bit 0 timeline, bit 1 metrics  */
  unsigned long long threads_tracked;   /**< telemetry thread slots created */
  unsigned long long timeline_records;  /**< records currently held         */
  unsigned long long timeline_dropped;  /**< records lost to ring wraparound*/
  unsigned long long forks;             /**< parallel regions forked        */
  unsigned long long joins;             /**< parallel regions joined        */
  unsigned long long barrier_waits;     /**< barrier episodes recorded      */
  unsigned long long barrier_wait_ns;   /**< total ns spent in barriers     */
  unsigned long long tasks_executed;    /**< deferred tasks completed       */
  unsigned long long task_queue_depth_hwm;  /**< deepest task queue seen    */
  unsigned long long ring_enqueue_stalls;   /**< blocked full-ring pushes   */
  unsigned long long ring_occupancy_hwm;    /**< fullest event ring seen    */
  unsigned long long callback_failures;     /**< async callbacks that threw */
  unsigned long long generations_published; /**< callback-table publishes   */
  unsigned long long generations_retired;   /**< generations freed          */
  unsigned long long retire_latency_ns_max; /**< worst grace-period latency */
} orca_telemetry_snapshot;

/// Reply payload of ORCA_REQ_RESILIENCE_STATS: counters of the resilience
/// layer guarding the profile against hostile conditions — stuck collector
/// callbacks, signal-context queries, process fork(), and application
/// crashes. Unlike the other extension queries this one is answered on the
/// async-signal-safe fast path, so a sampling collector may issue it from
/// a SIGPROF handler (docs/RESILIENCE.md).
typedef struct orca_resilience_stats {
  unsigned long long quarantined_collectors; /**< callbacks retired by the
                                                  watchdog for exceeding the
                                                  deadline                  */
  unsigned long long crash_dump_armed;       /**< 1 when SIGSEGV/SIGBUS/
                                                  SIGABRT postmortem handlers
                                                  are installed             */
  unsigned long long signal_queries_served;  /**< API calls answered entirely
                                                  on the lock-free fast path */
  unsigned long long fork_events;            /**< child-side fork() episodes
                                                  the atfork handlers saw    */
} orca_resilience_stats;

/// One request record inside the byte array handed to the API. Records are
/// laid out back-to-back; the array is terminated by a record with sz == 0.
///
/// REGISTER/UNREGISTER payload (mem):
///   [OMP_COLLECTORAPI_EVENT event][OMP_COLLECTORAPI_CALLBACK cb]   (REGISTER)
///   [OMP_COLLECTORAPI_EVENT event]                                 (UNREGISTER)
/// STATE reply payload (mem):
///   [OMP_COLLECTOR_API_THR_STATE state][unsigned long wait_id?]
///   (wait_id present only for wait states; r_sz says how much was written)
/// CURRENT_PRID / PARENT_PRID reply payload (mem):
///   [unsigned long region_id]
typedef struct omp_collector_message {
  int sz;                          /**< total record size incl. header+mem  */
  OMP_COLLECTORAPI_REQUEST r_req;  /**< request kind                        */
  OMP_COLLECTORAPI_EC r_errcode;   /**< OUT: per-request status             */
  int r_sz;                        /**< OUT: bytes of reply data in mem[]   */
  char mem[1];                     /**< payload (flexible; sz governs size) */
} omp_collector_message;

/// The single entry point the runtime exports. `arg` points to one or more
/// `omp_collector_message` records, terminated by sz == 0. Returns 0 when
/// every record was processed (individual records carry their own error
/// codes), non-zero when the argument itself was malformed.
int __omp_collector_api(void* arg);

/// Alias used in the ICPP'09 paper text ("int omp_collector_api(void *arg)").
int omp_collector_api(void* arg);

#ifdef __cplusplus
}  // extern "C"
#endif

#endif  // ORCA_COLLECTOR_API_H
