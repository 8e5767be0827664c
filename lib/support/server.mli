(** Compile-as-a-service transport, robust by construction: a
    Unix-domain socket plus an optional TCP listener, both speaking the
    {!Frame} (NF1) framed protocol with per-connection pipelining —
    many in-flight requests tagged by frame id on one socket, responses
    written in completion order.

    The server owns everything about {e serving}: the sockets, one
    reader thread per connection, a bounded work queue (admission
    control) shared by live requests and background jobs, [jobs]
    worker domains with crash supervision, per-request wall-clock
    deadlines layered on {!Guard} fuel, graceful drain, and status
    counters. What a request {e means} is the {!handler}'s
    business (the compile handler is [Nascent_harness.Service]); the
    server understands only the envelope:

    - ["id"]: echoed verbatim into the response;
    - ["op": "status"]: answered inline by the reader thread, so
      observability survives a full queue and busy workers;
    - ["deadline_ms"]: per-request wall budget override ([<= 0] means
      unbounded); the clock starts at admission, so queue wait counts.

    Server-generated responses: [{"code": "overloaded",
    "retryable": true}] (queue full), [{"code": "shutting-down",
    "retryable": true}] (draining), [{"code": "deadline"}] (wall budget
    or fuel exhausted — the worker is freed either way),
    [{"code": "internal"}] (handler exception; the worker survives),
    [{"code": "bad-request"}] (unparseable frame payload),
    [{"code": "proto-mismatch"}] (a peer whose first bytes are not an
    NF1 hello — newline JSON, garbage, another protocol version: one
    clear line, then close, counted as [proto_rejects]),
    [{"code": "frame-error"}] (torn/garbage frame, retryable;
    oversized frame, not retryable — terminal for its connection only,
    sent as a frame with id 0), [{"code": "io-timeout",
    "retryable": true}] (a frame left incomplete past [io_deadline_s] —
    the slow-loris bound; also frame id 0).

    Network failure domain: a slow-loris peer cannot wedge a reader or
    leak a connection record ([io_deadline_s], counted [io_timeouts]);
    a connected-but-silent client with no response owed is reaped
    after [idle_timeout_s] (counted [idle_closed]); a peer that stops
    draining responses trips the kernel send timeout instead of
    parking a worker; frame decode errors after the hello close only
    their own connection (counted [frame_errors]). *)

type handler = {
  handle : Json.t -> Json.t;
      (** request object -> response object; must not block forever
          between ambient ticks (optimizer fixpoints tick). The server
          adds ["id"]. Exceptions become ["internal"] responses. *)
  status_extra : unit -> (string * Json.t) list;
      (** extra fields appended to ["op": "status"] responses (breaker
          states, cache counters, ...). Called from reader threads:
          must be thread-safe and fast. *)
}

type config = {
  socket_path : string;
  tcp : (string * int) option;
      (** additional TCP listener ([host, port]; empty or ["*"] host
          binds every interface, port [0] picks an ephemeral port —
          see {!tcp_port}) *)
  jobs : int;  (** worker domains (clamped to >= 1) *)
  queue_depth : int;
      (** admission bound on queued requests, counted per lane: live
          requests, and background jobs queued or running *)
  default_deadline_s : float option;  (** default per-request budget *)
  request_fuel : int option;  (** per-request {!Guard} fuel budget *)
  journal : Journal.t option;
      (** write-ahead log: every admitted request is recorded (fsync'd)
          before a worker touches it and marked done after its response
          is written; {!run} replays admitted-but-unfinished entries
          through the handler before binding the socket, so a [kill -9]
          loses zero admitted work. [None] disables journaling. *)
  restarts : int;
      (** supervisor restart count, echoed as the ["restarts"] status
          field — informational only *)
  idle_timeout_s : float option;
      (** reap a connected-but-silent client (no partial input, no
          response owed) after this long without a byte; [None]
          disables the reaper *)
  io_deadline_s : float option;
      (** slow-loris bound: a frame that stays incomplete this long
          closes its connection; also the kernel send-timeout for
          response writes. [None] disables both. *)
  max_frame_bytes : int;  (** frame payload cap *)
}

val default_config : socket_path:string -> config
(** 2 jobs, depth 64, 30s deadline, 50M fuel, no journal, no TCP, no
    idle reaper, 10s I/O deadline, 4 MiB frames. *)

type t

val create : config -> handler -> t

val tcp_port : t -> int option
(** The TCP listener's bound port, available once {!run} has bound it
    (before the UDS socket file appears — poll for the file, then read
    this). [None] when no TCP listener is configured or not yet
    bound. *)

val run : t -> unit
(** Serve until {!stop}. With a journal configured, first replays every
    admitted-but-unfinished entry through the handler (idempotent:
    compiles are memo-backed), each under its own fresh deadline/fuel
    budget; the socket binds only after replay, so the socket appearing
    is the ready signal. Then binds (replacing any stale socket file),
    accepts in the calling thread, and on {!stop} drains — sheds new
    work, finishes and answers {e every} admitted request, joins
    workers and readers, removes the socket file. {!stop} during the
    replay stops between entries (the rest stay pending for the next
    start) and returns without serving.

    Memory watchdog (see {!Guard.set_mem_budget}): past the shed
    fraction of the budget new admissions are refused with
    [{"code": "overloaded", "retryable": true}]; a request whose
    ticking crosses the full budget is aborted with
    [{"code": "mem-pressure", "retryable": true}] instead of letting
    the OS OOM-kill the daemon. *)

val after_response : (unit -> unit) -> unit
(** Called from a handler serving a live request: run [f] on the same
    worker once that request's response is written, so follow-up work
    (a tier upgrade's submission) cannot delay the answer. Outside a
    live request — background runs, journal replay, a handler called
    directly — [f] runs at once. An exception from [f] is counted as an
    internal error. *)

val submit_background : t -> Json.t -> bool
(** Submit handler work to the {e background lane}: no client, no
    response — the compile service's tier-upgrade jobs. Background
    and live jobs share one queue and one admission path; a background
    job runs only when no live request is queued, on at most
    [max 1 (jobs - 1)] workers at once (one worker stays on live
    traffic), never under memory pressure, each run under a fresh
    default deadline/fuel budget — so it can never starve admission
    or live traffic. The handler sees the request with two envelope
    additions: ["lane": "bg"] and ["bg_attempt": n]
    (0-based run counter).

    Scheduling protocol: a handler response carrying
    ["retry_after_s": d] re-enqueues the job after [d] seconds
    (bounded attempts); any other response is terminal. A run that
    raises (deadline, fuel, memory, a handler bug) is retried with
    deterministic exponential backoff and dropped after the attempt
    cap — upgrade-path faults are contained to the lane.

    With a journal configured the job is journaled (fsync'd) before it
    becomes runnable and marked done only by a terminal run, so a
    [kill -9] mid-upgrade replays it — {!run} re-enqueues pending
    background entries on this lane instead of running them before the
    socket binds (replay never starves admission), and a supervised
    restart therefore resumes the upgrade queue from journaled state.

    Returns [false] — journaling nothing — when the server is draining
    or the lane is at capacity ([queue_depth]) or the heap is past the
    shed fraction of the memory budget: the caller keeps serving its
    floor entry and a later request may resubmit. *)

val stop : t -> unit
(** Request a graceful drain. Lock-free (a flag and a self-pipe
    write): safe to call from a signal handler or any thread.
    Idempotent. *)

val stopping : t -> bool
val uptime_s : t -> float

(** Client side of the protocol — shared by [nascentc client], the
    chaos rung, the tier bar, perfbench and the tests. *)
module Client : sig
  type address = Uds of string | Tcp of string * int

  val parse_address : string -> address
  (** ["host:port"] (no slash, numeric suffix) is TCP; anything else is
      a Unix socket path. *)

  val address_to_string : address -> string

  exception Handshake of string
  (** The server rejected (or garbled) the NF1 hello: a protocol
      mismatch, not a transient. *)

  type connection

  val connect_addr : ?recv_timeout_s:float -> address -> connection
  (** Connect to either socket and perform the NF1 hello handshake
      before returning (raises {!Handshake} on a protocol mismatch,
      [Unix.Unix_error] as [Unix.connect] does). [recv_timeout_s]
      bounds the handshake and every later wait for response bytes:
      expiry raises
      [Unix_error (ETIMEDOUT, _, _)] instead of hanging forever on a
      stalled peer. *)

  val close : connection -> unit

  val with_conn : string -> (connection -> 'a) -> 'a
  (** {!with_addr} on a string address ({!parse_address}). *)

  val with_addr : ?recv_timeout_s:float -> address -> (connection -> 'a) -> 'a

  val pipeline_send : connection -> Json.t -> int
  (** Send a request tagged with a fresh frame id (returned) without
      waiting — many may be in flight. *)

  val pipeline_recv :
    connection ->
    ( (int * Json.t) option,
      [ `Garbled of string | `Frame of Frame.error ] )
    result
  (** The next response, in server completion order (match it to a
      {!pipeline_send} tag; id [0] is the server's terminal error for
      the connection). [Ok None] on EOF. *)

  val exchange :
    connection ->
    Json.t ->
    ( Json.t,
      [ `Garbled of string | `Closed | `Frame of Frame.error ] )
    result
  (** One request/response exchange with the failure modes kept
      distinct: [`Closed] (EOF before a complete response — retryable),
      [`Garbled] (a response arrived but does not parse — a protocol
      bug), [`Frame] (a response frame failed to decode). A frame with
      id [0] — the server's terminal error for the connection — is the
      answer. Unix errors propagate. *)

  val request : connection -> Json.t -> (Json.t, string) result
  (** {!exchange} with errors rendered as strings. *)

  val request_retry :
    ?policy:Retry.policy ->
    ?sleep:(float -> unit) ->
    ?max_elapsed_s:float ->
    ?recv_timeout_s:float ->
    seed:int ->
    string ->
    Json.t ->
    (Json.t, string) result
  (** One-shot exchange on a fresh connection — the string address is
      parsed with {!parse_address}, so both ["/path/sock"] and
      ["host:port"] work — with {!Retry} backoff (deterministic jitter
      from [seed]). Retryable: connection refusals, responses marked
      [retryable] (a torn request frame among them), a connection torn
      down mid-exchange
      (EPIPE/ECONNRESET/EOF before a response), a receive that
      outwaits [recv_timeout_s], and a CRC-torn response frame —
      racing a draining or restarting daemon (or a hostile network) is
      safe because requests are idempotent (compiles are memoized,
      status is read-only). Fatal: a response that arrives but fails
      to parse, and a {!Handshake} protocol mismatch. Every attempt
      re-resolves and re-connects the address, so the schedule rides
      through a supervised restart; [?max_elapsed_s] caps the total
      wait (see {!Retry.run}). *)
end
