(* The compile service's robustness contract, end to end over a real
   Unix-domain socket: admission control, per-request deadlines,
   handler-crash isolation, the per-scheme circuit breaker, and the
   zero-loss SIGTERM drain (driven here via Server.stop, which is
   exactly what nascentd's signal handler calls).

   Each test boots an in-process server (Server.run on a Thread, real
   worker domains) on a fresh socket and talks to it through the same
   Client module nascentc and the chaos rung use. *)

module Server = Nascent_support.Server
module Client = Server.Client
module Json = Nascent_support.Json
module Frame = Nascent_support.Frame
module Retry = Nascent_support.Retry
module Guard = Nascent_support.Guard
module Service = Nascent_harness.Service
module Mutate = Nascent_ir.Mutate
module Config = Nascent_core.Config
module Optimizer = Nascent_core.Optimizer
module B = Nascent_benchmarks.Suite

(* These tests race clients against draining/hung-up servers: broken
   pipes must surface as EPIPE, not kill the test binary. *)
let () = try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ()

let sock_counter = ref 0

let fresh_socket () =
  incr sock_counter;
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "nascent-test-%d-%d.sock" (Unix.getpid ()) !sock_counter)

let wait_for_socket path =
  let rec go n =
    if n <= 0 then Alcotest.fail "server socket never appeared"
    else if Sys.file_exists path then ()
    else begin
      Unix.sleepf 0.01;
      go (n - 1)
    end
  in
  go 500

(* Boot a server, run [f path server], then drain it — every test ends
   with the graceful-stop path, so a drain regression fails loudly
   everywhere. *)
let with_server ?(tune = fun c -> c) handler f =
  let path = fresh_socket () in
  let cfg = tune (Server.default_config ~socket_path:path) in
  let srv = Server.create cfg handler in
  let runner = Thread.create (fun () -> Server.run srv) () in
  wait_for_socket path;
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      Thread.join runner;
      try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path srv)

let with_service ?tune ?breaker_threshold ?breaker_cooldown_s f =
  let svc =
    Service.create ?breaker_threshold ?breaker_cooldown_s ()
  in
  with_server ?tune (Service.handler svc) f

(* Same, with the service's upgrade path wired to the server's
   background lane — the daemon's (nascentd's) configuration, where
   tiered compilation is active. *)
let with_tiered_service ?tune ?breaker_threshold ?breaker_cooldown_s f =
  let svc = Service.create ?breaker_threshold ?breaker_cooldown_s () in
  with_server ?tune (Service.handler svc) (fun path srv ->
      Service.set_upgrade_submit svc (Server.submit_background srv);
      f path srv)

(* --- response plumbing -------------------------------------------------- *)

let request_exn conn req =
  match Client.request conn req with
  | Ok resp -> resp
  | Error msg -> Alcotest.failf "request failed: %s" msg

let sfield resp name =
  match Json.str_member name resp with
  | Some s -> s
  | None -> Alcotest.failf "response lacks string field %S: %s" name (Json.to_string resp)

let ifield resp name =
  match Json.int_member name resp with
  | Some n -> n
  | None -> Alcotest.failf "response lacks int field %S: %s" name (Json.to_string resp)

let bfield resp name =
  match Json.bool_member name resp with
  | Some b -> b
  | None -> Alcotest.failf "response lacks bool field %S: %s" name (Json.to_string resp)

let incidents resp =
  match Json.member "incidents" resp with
  | Some (Json.List l) -> l
  | _ -> Alcotest.failf "response lacks incidents list: %s" (Json.to_string resp)

let compile_req ?(id = Json.Int 0) ?(scheme = "LLS") ?fault ?deadline_ms
    ?(run = false) ?oracle ?tier benchmark =
  Json.Obj
    ([
       ("id", id);
       ("op", Json.Str "compile");
       ("benchmark", Json.Str benchmark);
       ("scheme", Json.Str scheme);
       ("run", Json.Bool run);
     ]
    @ (match oracle with None -> [] | Some b -> [ ("oracle", Json.Bool b) ])
    @ (match fault with None -> [] | Some f -> [ ("fault", Json.Str f) ])
    @ (match tier with None -> [] | Some t -> [ ("tier", Json.Str t) ])
    @
    match deadline_ms with
    | None -> []
    | Some ms -> [ ("deadline_ms", Json.Int ms) ])

let status_req = Json.Obj [ ("id", Json.Str "st"); ("op", Json.Str "status") ]

(* The next pipelined response, whatever its tag. *)
let recv_exn conn =
  match Client.pipeline_recv conn with
  | Ok (Some (_, resp)) -> resp
  | Ok None -> Alcotest.fail "connection closed before a response arrived"
  | Error _ -> Alcotest.fail "undecodable response"

let parse_exn s =
  match Json.parse s with
  | Ok j -> j
  | Error e -> Alcotest.failf "unparseable JSON %S: %s" s e

(* --- raw NF1 plumbing (a hand-rolled client, for hostile sends) -------- *)

let raw_connect addr =
  let sa =
    match addr with
    | Client.Uds p -> Unix.ADDR_UNIX p
    | Client.Tcp (_, port) -> Unix.ADDR_INET (Unix.inet_addr_loopback, port)
  in
  let fd = Unix.socket (Unix.domain_of_sockaddr sa) Unix.SOCK_STREAM 0 in
  (try Unix.connect fd sa
   with e ->
     Unix.close fd;
     raise e);
  fd

let send_raw fd s =
  Frame.write_all ~write:(fun b off len -> Unix.write fd b off len) s

let read_one_frame fd dec =
  Frame.read_frame ~read:(fun b off len -> Unix.read fd b off len) dec

(* perform the hello handshake on a raw socket; return the decoder
   (which may already hold buffered bytes past the ack) *)
let raw_handshake fd =
  send_raw fd (Frame.encode ~id:0 (Json.to_string (Frame.hello ())));
  let dec = Frame.decoder () in
  (match read_one_frame fd dec with
  | Ok (Some f) -> (
      match Frame.check_hello (parse_exn f.Frame.payload) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "bad hello ack: %s" e)
  | Ok None -> Alcotest.fail "EOF during handshake"
  | Error e -> Alcotest.failf "handshake decode error: %a" Frame.pp_error e);
  dec

(* --- basic request/response --------------------------------------------- *)

let test_compile_ok () =
  with_service @@ fun path _ ->
  Client.with_conn path @@ fun conn ->
  let resp = request_exn conn (compile_req ~id:(Json.Int 42) ~run:true "vortex") in
  Alcotest.(check string) "status" "ok" (sfield resp "status");
  Alcotest.(check int) "code" 0 (ifield resp "code");
  Alcotest.(check int) "id echoed" 42 (ifield resp "id");
  Alcotest.(check string) "scheme used as requested" "LLS" (sfield resp "scheme_used");
  Alcotest.(check bool) "not a fallback" false (bfield resp "fallback");
  Alcotest.(check int) "no incidents" 0 (List.length (incidents resp));
  Alcotest.(check bool) "optimizer removed checks" true
    (ifield resp "checks_after" < ifield resp "checks_before");
  (match Json.member "run" resp with
  | Some run ->
      Alcotest.(check bool) "run reported checks" true (ifield run "checks" >= 0)
  | None -> Alcotest.fail "run outcome missing despite run:true");
  (* same request again: served from the result cache *)
  let again = request_exn conn (compile_req ~id:(Json.Int 43) ~run:true "vortex") in
  Alcotest.(check bool) "second compile cached" true (bfield again "cached")

(* The --oracle axis end to end: a clean compile returns the
   translation-validation certificate; an unsound deletion (the fault
   class no pass rule can see) refuses it, degrades the response, and
   surfaces a "validate" incident. *)
let test_compile_oracle_certificate () =
  with_service @@ fun path _ ->
  Client.with_conn path @@ fun conn ->
  let resp = request_exn conn (compile_req ~id:(Json.Int 1) ~oracle:true "trfd") in
  Alcotest.(check string) "status ok" "ok" (sfield resp "status");
  Alcotest.(check bool) "oracle echoed" true (bfield resp "oracle");
  Alcotest.(check bool) "certificate granted" true (bfield resp "validated");
  let plain = request_exn conn (compile_req ~id:(Json.Int 2) "trfd") in
  Alcotest.(check bool) "no certificate without oracle" true
    (Json.member "validated" plain = Some Json.Null);
  let bad =
    request_exn conn
      (compile_req ~id:(Json.Int 3) ~scheme:"NI" ~oracle:true
         ~fault:"unsound-eliminate:1" "trfd")
  in
  Alcotest.(check string) "refused certificate degrades" "degraded"
    (sfield bad "status");
  Alcotest.(check int) "degraded exit code" 4 (ifield bad "code");
  Alcotest.(check bool) "fault applied" true (ifield bad "faults_injected" > 0);
  Alcotest.(check bool) "certificate refused" false (bfield bad "validated");
  Alcotest.(check bool) "validation incident surfaced" true
    (List.exists
       (fun i -> Json.str_member "pass" i = Some "validate")
       (incidents bad))

let test_status_shape () =
  with_service @@ fun path _ ->
  Client.with_conn path @@ fun conn ->
  ignore (request_exn conn (compile_req "simple"));
  let st = request_exn conn status_req in
  Alcotest.(check string) "status ok" "ok" (sfield st "status");
  Alcotest.(check string) "id echoed" "st" (sfield st "id");
  Alcotest.(check bool) "uptime present" true
    (Json.float_member "uptime_s" st <> None);
  Alcotest.(check bool) "not draining" false (bfield st "draining");
  Alcotest.(check int) "served the compile" 1 (ifield st "served");
  Alcotest.(check int) "no worker restarts" 0 (ifield st "worker_restarts");
  Alcotest.(check int) "service counted it" 1 (ifield st "compiles");
  List.iter
    (fun f ->
      if Json.member f st = None then
        Alcotest.failf "status lacks field %S: %s" f (Json.to_string st))
    [
      "jobs"; "queue_depth"; "queue_capacity"; "inflight"; "shed"; "timeouts";
      "internal_errors"; "bad_requests"; "connections"; "breakers"; "cache";
      "degraded"; "fallbacks"; "incidents_total"; "breaker_trips";
    ]

let test_bad_inputs () =
  with_service @@ fun path _ ->
  (* unparseable frame payload *)
  (let fd = raw_connect (Client.Uds path) in
   Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
   let dec = raw_handshake fd in
   send_raw fd (Frame.encode ~id:1 "this is not json");
   match read_one_frame fd dec with
   | Ok (Some f) ->
       Alcotest.(check int) "answer tagged with the request frame" 1 f.Frame.id;
       Alcotest.(check string) "bad-request" "bad-request"
         (sfield (parse_exn f.Frame.payload) "code")
   | _ -> Alcotest.fail "no response to a bad payload");
  Client.with_conn path @@ fun conn ->
  (* unknown op *)
  let resp = request_exn conn (Json.Obj [ ("op", Json.Str "frobnicate") ]) in
  Alcotest.(check string) "bad-op" "bad-op" (sfield resp "code");
  (* compile of garbage source: structured error, not a crash *)
  let resp =
    request_exn conn
      (Json.Obj
         [ ("op", Json.Str "compile"); ("source", Json.Str "program ) garbage (") ])
  in
  Alcotest.(check string) "error status" "error" (sfield resp "status");
  Alcotest.(check string) "invalid-program" "invalid-program" (sfield resp "code");
  (* unknown scheme name *)
  let resp = request_exn conn (compile_req ~scheme:"ZZZ" "simple") in
  Alcotest.(check string) "bad scheme rejected" "bad-request" (sfield resp "code");
  (* the daemon shrugged all of that off *)
  let st = request_exn conn status_req in
  Alcotest.(check int) "bad payload counted" 1 (ifield st "bad_requests");
  Alcotest.(check int) "no worker restarts" 0 (ifield st "worker_restarts")

(* --- worker-crash isolation --------------------------------------------- *)

let test_handler_exception_isolated () =
  let handler =
    {
      Server.handle =
        (fun req ->
          if Json.member "boom" req <> None then failwith "kaboom"
          else Json.Obj [ ("status", Json.Str "ok") ]);
      status_extra = (fun () -> []);
    }
  in
  with_server ~tune:(fun c -> { c with Server.jobs = 1 }) handler @@ fun path _ ->
  Client.with_conn path @@ fun conn ->
  let boom =
    request_exn conn (Json.Obj [ ("id", Json.Int 1); ("boom", Json.Bool true) ])
  in
  Alcotest.(check string) "answered as internal error" "internal" (sfield boom "code");
  Alcotest.(check bool) "exception text surfaced" true
    (let d = sfield boom "detail" in
     String.length d >= 6
     && List.exists
          (fun i -> String.sub d i 6 = "kaboom")
          (List.init (String.length d - 5) Fun.id));
  (* the SAME worker (jobs=1) keeps serving *)
  let ok = request_exn conn (Json.Obj [ ("id", Json.Int 2) ]) in
  Alcotest.(check string) "worker survived" "ok" (sfield ok "status");
  let st = request_exn conn status_req in
  Alcotest.(check int) "counted as internal error" 1 (ifield st "internal_errors");
  Alcotest.(check int) "no restart needed (caught in process)" 0
    (ifield st "worker_restarts")

(* --- deadlines ----------------------------------------------------------- *)

let test_deadline_cuts_hung_request () =
  with_service @@ fun path _ ->
  Client.with_conn path @@ fun conn ->
  let resp =
    request_exn conn
      (Json.Obj
         [ ("id", Json.Int 9); ("op", Json.Str "burn"); ("deadline_ms", Json.Int 150) ])
  in
  Alcotest.(check string) "deadline response" "deadline" (sfield resp "code");
  Alcotest.(check int) "id echoed" 9 (ifield resp "id");
  (* the worker was freed: an ordinary compile still goes through *)
  let ok = request_exn conn (compile_req "simple") in
  Alcotest.(check string) "worker free after timeout" "ok" (sfield ok "status");
  let st = request_exn conn status_req in
  Alcotest.(check int) "timeout counted" 1 (ifield st "timeouts")

(* A request whose deadline expires while it is still QUEUED is
   answered without burning a worker on it. *)
let test_deadline_counts_queue_wait () =
  let gate = Mutex.create () in
  let cond = Condition.create () in
  let open_gate = ref false in
  let release () =
    Mutex.lock gate;
    open_gate := true;
    Condition.broadcast cond;
    Mutex.unlock gate
  in
  let handler =
    {
      Server.handle =
        (fun req ->
          (if Json.member "block" req <> None then begin
             Mutex.lock gate;
             while not !open_gate do
               Condition.wait cond gate
             done;
             Mutex.unlock gate
           end);
          Json.Obj [ ("status", Json.Str "ok") ]);
      status_extra = (fun () -> []);
    }
  in
  with_server ~tune:(fun c -> { c with Server.jobs = 1 }) handler @@ fun path _ ->
  Fun.protect ~finally:release @@ fun () ->
  Client.with_conn path @@ fun conn ->
  (* occupy the only worker... *)
  ignore
    (Client.pipeline_send conn
       (Json.Obj [ ("id", Json.Int 1); ("block", Json.Bool true) ]));
  (* ...queue a request with a deadline shorter than the block... *)
  ignore
    (Client.pipeline_send conn
       (Json.Obj [ ("id", Json.Int 2); ("deadline_ms", Json.Int 100) ]));
  Unix.sleepf 0.3;
  (* ...and only then release the worker. *)
  release ();
  let r1 = recv_exn conn in
  let r2 = recv_exn conn in
  let find id =
    if ifield r1 "id" = id then r1
    else if ifield r2 "id" = id then r2
    else Alcotest.failf "no response with id %d" id
  in
  Alcotest.(check string) "blocked request served" "ok" (sfield (find 1) "status");
  Alcotest.(check string) "queued-past-deadline answered with deadline" "deadline"
    (sfield (find 2) "code")

(* --- admission control ---------------------------------------------------- *)

let test_overload_sheds_with_retryable () =
  let gate = Mutex.create () in
  let cond = Condition.create () in
  let open_gate = ref false in
  let release () =
    Mutex.lock gate;
    open_gate := true;
    Condition.broadcast cond;
    Mutex.unlock gate
  in
  let handler =
    {
      Server.handle =
        (fun _ ->
          Mutex.lock gate;
          while not !open_gate do
            Condition.wait cond gate
          done;
          Mutex.unlock gate;
          Json.Obj [ ("status", Json.Str "ok") ]);
      status_extra = (fun () -> []);
    }
  in
  with_server
    ~tune:(fun c -> { c with Server.jobs = 1; queue_depth = 2 })
    handler
  @@ fun path _ ->
  Fun.protect ~finally:release @@ fun () ->
  Client.with_conn path @@ fun conn ->
  Client.with_conn path @@ fun stconn ->
  (* one in flight (wait until the worker picked it up)... *)
  let send id = ignore (Client.pipeline_send conn (Json.Obj [ ("id", Json.Int id) ])) in
  send 1;
  let rec wait_inflight n =
    if n = 0 then Alcotest.fail "request never went in flight";
    let st = request_exn stconn status_req in
    if ifield st "inflight" <> 1 then begin
      Unix.sleepf 0.01;
      wait_inflight (n - 1)
    end
  in
  wait_inflight 500;
  (* ...two filling the queue to capacity... *)
  send 2;
  send 3;
  let rec wait_queued n =
    if n = 0 then Alcotest.fail "queue never filled";
    let st = request_exn stconn status_req in
    if ifield st "queue_depth" <> 2 then begin
      Unix.sleepf 0.01;
      wait_queued (n - 1)
    end
  in
  wait_queued 500;
  (* ...and one over: shed immediately, retryable. *)
  send 4;
  let shed = recv_exn conn in
  Alcotest.(check int) "the overflow request was the one shed" 4 (ifield shed "id");
  Alcotest.(check string) "overloaded" "overloaded" (sfield shed "code");
  Alcotest.(check bool) "marked retryable" true (bfield shed "retryable");
  (* status stayed answerable throughout (it already did, above); now
     drain the admitted three *)
  release ();
  let answered =
    List.init 3 (fun _ -> ifield (recv_exn conn) "id")
  in
  Alcotest.(check (list int)) "admitted requests all served" [ 1; 2; 3 ]
    (List.sort compare answered);
  let st = request_exn stconn status_req in
  Alcotest.(check int) "shed counted" 1 (ifield st "shed")

(* The client side of the same story: request_retry backs off against
   retryable shedding and succeeds once capacity frees up. *)
let test_client_retries_through_overload () =
  let busy = Atomic.make 3 in
  let handler =
    {
      Server.handle =
        (fun _ ->
          if Atomic.fetch_and_add busy (-1) > 0 then
            Json.Obj
              [
                ("status", Json.Str "error");
                ("code", Json.Str "overloaded");
                ("retryable", Json.Bool true);
                ("detail", Json.Str "simulated overload");
              ]
          else Json.Obj [ ("status", Json.Str "ok") ]);
      status_extra = (fun () -> []);
    }
  in
  with_server handler @@ fun path _ ->
  let slept = ref [] in
  let policy = { Retry.default with Retry.base_delay_s = 0.001; max_delay_s = 0.002 } in
  (match
     Client.request_retry ~policy
       ~sleep:(fun s -> slept := s :: !slept)
       ~seed:7 path
       (Json.Obj [ ("op", Json.Str "noop") ])
   with
  | Ok resp -> Alcotest.(check string) "eventually ok" "ok" (sfield resp "status")
  | Error msg -> Alcotest.failf "retries should have succeeded: %s" msg);
  Alcotest.(check int) "three backoffs before success" 3 (List.length !slept);
  (* and a hard cap: against a permanently-shedding server it gives up *)
  Atomic.set busy max_int;
  match
    Client.request_retry
      ~policy:{ policy with Retry.max_attempts = 2 }
      ~sleep:ignore ~seed:8 path
      (Json.Obj [ ("op", Json.Str "noop") ])
  with
  | Ok _ -> Alcotest.fail "expected exhaustion"
  | Error msg ->
      Alcotest.(check bool) "reports the attempt count" true
        (String.length msg > 0 && msg.[0] = 'g' (* "gave up after ..." *))

(* A daemon that hangs up mid-exchange (draining, restarting) is a
   RETRYABLE failure — requests are idempotent — not an exit-7 fatal.
   Simulated with a raw listener that accepts and immediately closes:
   every attempt ends in EPIPE/ECONNRESET or EOF-before-response, and
   the client must burn through all its attempts rather than give up
   on the first. *)
let test_retry_classifies_midexchange_close () =
  let path = fresh_socket () in
  let attempts = 3 in
  let lfd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  Unix.bind lfd (ADDR_UNIX path);
  Unix.listen lfd 8;
  let hangup_server =
    Thread.create
      (fun () ->
        for _ = 1 to attempts do
          let cfd, _ = Unix.accept lfd in
          Unix.close cfd
        done)
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Thread.join hangup_server;
      Unix.close lfd;
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let policy = { Retry.default with Retry.max_attempts = attempts } in
      match
        Client.request_retry ~policy ~sleep:ignore ~seed:3 path
          (compile_req "simple")
      with
      | Ok _ -> Alcotest.fail "no response should ever arrive"
      | Error msg ->
          (* a fatal classification would read "gave up after 1" *)
          let expected = Printf.sprintf "gave up after %d attempt(s)" attempts in
          Alcotest.(check bool)
            (Printf.sprintf "all %d attempts used (got: %s)" attempts msg)
            true
            (String.length msg >= String.length expected
            && String.sub msg 0 (String.length expected) = expected))

(* --- circuit breaker ------------------------------------------------------ *)

let test_breaker_trips_and_recovers () =
  with_service ~breaker_threshold:2 ~breaker_cooldown_s:0.4 @@ fun path _ ->
  Client.with_conn path @@ fun conn ->
  let faulty ?deadline_ms id =
    request_exn conn
      (compile_req ~id:(Json.Int id) ~scheme:"CS" ~fault:"drop-check:7" ?deadline_ms
         "vortex")
  in
  (* two consecutive incident-bearing compiles trip the CS breaker *)
  let r1 = faulty 1 in
  Alcotest.(check string) "first fault degrades" "degraded" (sfield r1 "status");
  Alcotest.(check string) "still compiled at CS" "CS" (sfield r1 "scheme_used");
  Alcotest.(check bool) "incidents attached" true (incidents r1 <> []);
  let r2 = faulty 2 in
  Alcotest.(check string) "breaker open after threshold" "open" (sfield r2 "breaker");
  (* tripped: requests for CS are routed to the NI floor *)
  let r3 = faulty 3 in
  Alcotest.(check bool) "fallback engaged" true (bfield r3 "fallback");
  Alcotest.(check string) "compiled at the NI floor" "NI" (sfield r3 "scheme_used");
  Alcotest.(check string) "fallback is degraded" "degraded" (sfield r3 "status");
  Alcotest.(check bool) "fallback response carries an incident" true
    (incidents r3 <> []);
  (* cooldown, then a healthy probe closes the breaker *)
  Unix.sleepf 0.6;
  let probe =
    request_exn conn (compile_req ~id:(Json.Int 4) ~scheme:"CS" "vortex")
  in
  Alcotest.(check bool) "probe ran at the real scheme" false (bfield probe "fallback");
  Alcotest.(check string) "probe compiled at CS" "CS" (sfield probe "scheme_used");
  Alcotest.(check string) "probe success closes the breaker" "closed"
    (sfield probe "breaker");
  let after =
    request_exn conn (compile_req ~id:(Json.Int 5) ~scheme:"CS" "vortex")
  in
  Alcotest.(check string) "recovered: CS served normally" "ok" (sfield after "status");
  let st = request_exn conn status_req in
  Alcotest.(check int) "trip counted" 1 (ifield st "breaker_trips");
  Alcotest.(check bool) "fallbacks counted" true (ifield st "fallbacks" >= 1)

(* --- the acceptance run: 100 concurrent requests under fault load -------- *)

let test_hundred_concurrent_faulted_requests () =
  with_service
    ~tune:(fun c -> { c with Server.jobs = 4; queue_depth = 128 })
    ~breaker_threshold:3 ~breaker_cooldown_s:0.05
  @@ fun path _ ->
  let n_threads = 10 and per_thread = 10 in
  let results : (int * Json.t) list Array.t = Array.make n_threads [] in
  let mk_request t i =
    let id = (t * per_thread) + i in
    match id mod 5 with
    | 0 -> compile_req ~id:(Json.Int id) ~scheme:"CS" ~fault:"drop-check:7" "vortex"
    | 1 -> compile_req ~id:(Json.Int id) ~scheme:"SE" ~fault:"unsafe-insert:3" "simple"
    | 2 -> compile_req ~id:(Json.Int id) ~scheme:"LLS" ~run:true "trfd"
    | 3 -> compile_req ~id:(Json.Int id) ~scheme:"ALL" ~fault:"break-edge:5" "qcd"
    | _ -> compile_req ~id:(Json.Int id) ~scheme:"LI" "mdg"
  in
  let client t =
    Client.with_conn path @@ fun conn ->
    for i = 0 to per_thread - 1 do
      let id = (t * per_thread) + i in
      let resp = request_exn conn (mk_request t i) in
      results.(t) <- (id, resp) :: results.(t)
    done
  in
  let threads = List.init n_threads (fun t -> Thread.create client t) in
  List.iter Thread.join threads;
  let all = Array.to_list results |> List.concat in
  Alcotest.(check int) "every request answered" (n_threads * per_thread)
    (List.length all);
  List.iter
    (fun (id, resp) ->
      Alcotest.(check int) "response id matches request" id (ifield resp "id");
      (match sfield resp "status" with
      | "ok" -> ()
      | "degraded" ->
          (* the acceptance criterion: degradation is never silent *)
          if incidents resp = [] then
            Alcotest.failf "degraded response %d carries no incident: %s" id
              (Json.to_string resp)
      | other -> Alcotest.failf "request %d failed outright (%s): %s" id other
                   (Json.to_string resp));
      match Json.member "run" resp with
      | Some run ->
          Alcotest.(check (option string)) "no interpreter trap" None
            (Json.str_member "trap" run)
      | None -> ())
    all;
  (* injected faults actually exercised the degradation path... *)
  let degraded =
    List.length (List.filter (fun (_, r) -> sfield r "status" = "degraded") all)
  in
  Alcotest.(check bool) "fault classes produced degraded responses" true (degraded > 0);
  (* ...and the daemon survived the whole barrage *)
  Client.with_conn path @@ fun conn ->
  let st = request_exn conn status_req in
  Alcotest.(check int) "zero worker restarts" 0 (ifield st "worker_restarts");
  Alcotest.(check int) "zero internal errors" 0 (ifield st "internal_errors");
  Alcotest.(check int) "all 100 served" 100 (ifield st "served");
  Alcotest.(check bool) "incidents were recorded" true (ifield st "incidents_total" > 0)

(* --- tiered compilation --------------------------------------------------- *)

let ofield resp name =
  match Json.member name resp with
  | Some (Json.Obj _ as o) -> o
  | _ -> Alcotest.failf "response lacks object field %S: %s" name (Json.to_string resp)

let rec poll_until ?(n = 600) what f =
  if n = 0 then Alcotest.failf "timed out waiting for %s" what
  else if not (f ()) then begin
    Unix.sleepf 0.01;
    poll_until ~n:(n - 1) what f
  end

(* The tier lifecycle end to end, over every benchmark: a cold miss
   answers instantly from the NI floor, the background lane compiles
   the requested scheme, and the hot-swap promotes the cache entry so
   the next requests see the optimized artifact — with every stage
   visible in status. Across the swap the two artifacts must be
   observably identical (same interpreter trap and error). Two
   workers, the daemon default, so each upgrade compiles beside a
   worker serving live requests. The floor's latency bar (at most 2x a
   warm NI hit) is timed apart from the suite, by tools/tier_bar. *)
let test_tier_floor_then_optimized () =
  with_tiered_service ~tune:(fun c -> { c with Server.jobs = 2 }) @@ fun path _ ->
  Client.with_conn path @@ fun conn ->
  let names = List.map (fun (b : B.benchmark) -> b.B.name) B.all in
  let schemes = [ "LLS"; "CS"; "SE"; "LI"; "ALL" ] in
  let run_of where resp =
    match Json.member "run" resp with
    | Some r -> (Json.str_member "trap" r, Json.str_member "error" r)
    | None -> Alcotest.failf "%s: run outcome missing from a tier response" where
  in
  let cells = List.concat_map (fun n -> List.map (fun s -> (n, s)) schemes) names in
  List.iter
    (fun (n, scheme) ->
      let where = n ^ " " ^ scheme in
      let cold = request_exn conn (compile_req ~scheme ~run:true n) in
      Alcotest.(check string) (where ^ ": cold miss serves the floor tier") "floor"
        (sfield cold "tier");
      Alcotest.(check string) (where ^ ": floor artifact is the NI compile") "NI"
        (sfield cold "scheme_used");
      Alcotest.(check string) (where ^ ": requested scheme echoed") scheme
        (sfield cold "scheme_requested");
      Alcotest.(check string) (where ^ ": floor response is healthy") "ok"
        (sfield cold "status");
      Alcotest.(check bool) (where ^ ": floor is not a breaker fallback") false
        (bfield cold "fallback");
      let last = ref cold in
      poll_until (where ^ ": background upgrade to the optimized tier") (fun () ->
          last := request_exn conn (compile_req ~scheme ~run:true n);
          sfield !last "tier" = "optimized");
      let opt = !last in
      Alcotest.(check string) (where ^ ": optimized artifact at the requested scheme")
        scheme (sfield opt "scheme_used");
      Alcotest.(check bool) (where ^ ": hot-swapped entry served from cache") true
        (bfield opt "cached");
      Alcotest.(check string) (where ^ ": upgrade kept the response healthy") "ok"
        (sfield opt "status");
      if scheme = "LLS" then
        Alcotest.(check bool) (where ^ ": the upgrade actually optimized") true
          (ifield opt "checks_after" < ifield cold "checks_after");
      (* the differential across the swap: same trap and error *)
      Alcotest.(check (pair (option string) (option string)))
        (where ^ ": the floor runs clean") (None, None) (run_of where cold);
      Alcotest.(check (pair (option string) (option string)))
        (where ^ ": floor and optimized runs observably identical")
        (run_of where cold) (run_of where opt);
      (* promotion sticks: warm requests stay on the optimized tier *)
      for _ = 1 to 2 do
        Alcotest.(check string) (where ^ ": warm request stays optimized") "optimized"
          (sfield (request_exn conn (compile_req ~scheme ~run:true n)) "tier")
      done)
    cells;
  let n = List.length cells in
  let st = request_exn conn status_req in
  let tiers = ofield st "tiers"
  and ups = ofield st "upgrades"
  and cache = ofield st "cache" in
  Alcotest.(check bool) "floor responses counted" true (ifield tiers "floor" >= n);
  Alcotest.(check bool) "optimized responses counted" true
    (ifield tiers "optimized" >= 3 * n);
  Alcotest.(check int) "one upgrade submitted per cell" n (ifield ups "submitted");
  Alcotest.(check int) "one upgrade done per cell" n (ifield ups "done");
  Alcotest.(check int) "no upgrade pending" 0 (ifield ups "pending");
  Alcotest.(check int) "no upgrade failed" 0 (ifield ups "failed");
  Alcotest.(check int) "each promotion was one atomic swap" n (ifield cache "swaps");
  Alcotest.(check int) "the background lane ran them" n (ifield st "bg_done");
  Alcotest.(check int) "the lane is drained" 0 (ifield st "bg_pending")

(* The per-request escape hatch and the always-sync cases: "tier":
   "sync" compiles the requested scheme inline even on a wired server,
   NI requests never upgrade (they ARE the floor), and an unknown tier
   spelling is a structured bad-request. *)
let test_tier_sync_optout () =
  with_tiered_service @@ fun path _ ->
  Client.with_conn path @@ fun conn ->
  let r = request_exn conn (compile_req ~tier:"sync" "trfd") in
  Alcotest.(check string) "sync compiles the requested scheme inline" "LLS"
    (sfield r "scheme_used");
  Alcotest.(check string) "sync response is already the optimized tier" "optimized"
    (sfield r "tier");
  Alcotest.(check bool) "cold sync compile, not a floor cache hit" false
    (bfield r "cached");
  let ni = request_exn conn (compile_req ~scheme:"NI" "trfd") in
  Alcotest.(check string) "NI is served synchronously in auto mode" "NI"
    (sfield ni "scheme_used");
  Alcotest.(check string) "the floor itself has nothing to upgrade to" "optimized"
    (sfield ni "tier");
  let st = request_exn conn status_req in
  Alcotest.(check int) "no upgrade was ever submitted" 0
    (ifield (ofield st "upgrades") "submitted");
  Alcotest.(check int) "nothing on the background lane" 0 (ifield st "bg_pending");
  let bad = request_exn conn (compile_req ~tier:"turbo" "trfd") in
  Alcotest.(check string) "unknown tier mode rejected" "bad-request" (sfield bad "code")

(* A service with no background lane wired (every embedded/test use
   before the daemon wires one) keeps the exact pre-tier semantics:
   requests compile synchronously at the requested scheme. *)
let test_tier_unwired_stays_sync () =
  with_service @@ fun path _ ->
  Client.with_conn path @@ fun conn ->
  let r = request_exn conn (compile_req ~scheme:"ALL" "simple") in
  Alcotest.(check string) "unwired service compiles inline" "ALL"
    (sfield r "scheme_used");
  Alcotest.(check string) "and serves the optimized tier directly" "optimized"
    (sfield r "tier");
  let st = request_exn conn status_req in
  Alcotest.(check int) "no upgrade submitted without a lane" 0
    (ifield (ofield st "upgrades") "submitted")

(* Fault containment across every Mutate class, through the background
   upgrade path: the floor response reaches the client untouched by the
   upgrade's failure, the failure feeds the scheme's breaker (which
   trips at the threshold), and no upgrade incident ever rides a floor
   response — the upgrade path is its own failure domain. *)

(* A scheme whose pipeline runs the pass the class targets (the same
   mapping test_fault.ml and the CLI smoke matrix use), restricted to
   non-NI schemes: NI requests are synchronous by construction, so the
   upgrade path is only reachable above the floor. Unsound_eliminate
   compiles with the oracle on — the translation validator is the only
   net that catches it, and its refusal must fail the upgrade. *)
let upgrade_scheme_for = function
  | Mutate.Drop_check | Mutate.Weaken_check -> Config.CS
  | Mutate.Unsafe_insert -> Config.SE
  | Mutate.Break_edge | Mutate.Hang_fixpoint | Mutate.Unsound_eliminate -> Config.LLS

(* (benchmark, seed) pairs where the class actually injects at the
   upgrade scheme — a seed that never applies would let the upgrade
   succeed, reset the breaker's consecutive-failure count and prove
   nothing. Probed through the optimizer directly. *)
let applicable_pairs cls ~scheme ~oracle ~wanted =
  let applies seed (b : B.benchmark) =
    let config = Config.make ~scheme ~fault:{ Mutate.cls; seed } ~oracle () in
    let _, stats = Optimizer.optimize ~config (Util.ir_of_source b.B.source) in
    stats.Optimizer.faults_injected > 0
  in
  let rec collect acc = function
    | [] -> List.rev acc
    | _ when List.length acc >= wanted -> List.rev acc
    | (seed, b) :: rest ->
        collect (if applies seed b then (b.B.name, seed) :: acc else acc) rest
  in
  let candidates =
    List.concat_map (fun seed -> List.map (fun b -> (seed, b)) B.all) [ 1; 7; 42 ]
  in
  let pairs = collect [] candidates in
  if List.length pairs < wanted then
    Alcotest.failf "%s: only %d applicable (benchmark, seed) pairs found"
      (Mutate.cls_name cls) (List.length pairs)
  else pairs

let test_upgrade_fault_containment_every_class () =
  List.iter
    (fun cls ->
      let scheme = upgrade_scheme_for cls in
      let sname = Config.scheme_name scheme in
      let oracle = cls = Mutate.Unsound_eliminate in
      let threshold = 2 in
      let pairs = applicable_pairs cls ~scheme ~oracle ~wanted:threshold in
      let fault_str seed = Printf.sprintf "%s:%d" (Mutate.cls_name cls) seed in
      (* a long cooldown pins the breaker open once tripped *)
      with_tiered_service ~breaker_threshold:threshold ~breaker_cooldown_s:60.0
      @@ fun path _ ->
      Client.with_conn path @@ fun conn ->
      List.iter
        (fun (bench, seed) ->
          let r =
            request_exn conn
              (compile_req ~scheme:sname ~fault:(fault_str seed)
                 ~oracle bench)
          in
          let where = Fmt.str "%s %s:%d on %s" sname (Mutate.cls_name cls) seed bench in
          (* the floor answers — possibly degraded by its OWN NI-level
             incidents (a hang or unsound deletion can apply at NI too),
             but never an error and never a breaker/upgrade incident *)
          Alcotest.(check string) (where ^ ": floor tier served") "floor"
            (sfield r "tier");
          Alcotest.(check string) (where ^ ": floor artifact is NI") "NI"
            (sfield r "scheme_used");
          Alcotest.(check bool) (where ^ ": never an outright error") true
            (sfield r "status" <> "error");
          Alcotest.(check bool) (where ^ ": breaker still closed on arrival") false
            (bfield r "fallback");
          Alcotest.(check bool)
            (where ^ ": no upgrade-domain incident escapes to the floor client")
            false
            (List.exists
               (fun i -> Json.str_member "pass" i = Some "service")
               (incidents r));
          (* let this upgrade reach its terminal failure before the
             next request, so the breaker counts strictly consecutive
             failures *)
          poll_until (where ^ ": upgrade drained") (fun () ->
              let st = request_exn conn status_req in
              ifield (ofield st "upgrades") "pending" = 0))
        pairs;
      let st = request_exn conn status_req in
      let ups = ofield st "upgrades" in
      Alcotest.(check int)
        (Mutate.cls_name cls ^ ": every faulted upgrade failed terminally")
        threshold (ifield ups "failed");
      Alcotest.(check int)
        (Mutate.cls_name cls ^ ": no corrupt artifact was ever hot-swapped")
        0 (ifield ups "done");
      Alcotest.(check int) (Mutate.cls_name cls ^ ": breaker tripped once") 1
        (ifield st "breaker_trips");
      (* the tripped breaker now explains the floor: re-requesting the
         first key serves the kept floor as an explicit fallback *)
      let bench, seed = List.hd pairs in
      let again =
        request_exn conn
          (compile_req ~scheme:sname ~fault:(fault_str seed)
             ~oracle bench)
      in
      Alcotest.(check string) (Mutate.cls_name cls ^ ": floor kept after the trip")
        "floor" (sfield again "tier");
      Alcotest.(check string) (Mutate.cls_name cls ^ ": breaker reported open") "open"
        (sfield again "breaker");
      Alcotest.(check bool) (Mutate.cls_name cls ^ ": fallback now explicit") true
        (bfield again "fallback");
      Alcotest.(check bool)
        (Mutate.cls_name cls ^ ": the fallback explains itself with an incident")
        true
        (List.exists
           (fun i -> Json.str_member "pass" i = Some "service")
           (incidents again)))
    Mutate.all_classes

(* --- graceful drain -------------------------------------------------------- *)

let test_drain_loses_nothing () =
  let handler =
    {
      Server.handle =
        (fun req ->
          Unix.sleepf 0.05;
          Json.Obj
            [
              ("status", Json.Str "ok");
              ("echo", Option.value ~default:Json.Null (Json.member "id" req));
            ]);
      status_extra = (fun () -> []);
    }
  in
  with_server ~tune:(fun c -> { c with Server.jobs = 2 }) handler @@ fun path srv ->
  let n = 10 in
  let conn = Client.connect_addr (Client.Uds path) in
  Fun.protect ~finally:(fun () -> Client.close conn) @@ fun () ->
  for i = 0 to n - 1 do
    ignore (Client.pipeline_send conn (Json.Obj [ ("id", Json.Int i) ]))
  done;
  (* wait until every request is admitted (queued, running or done),
     then pull the plug mid-flight *)
  Client.with_conn path (fun stconn ->
      let rec wait k =
        if k = 0 then Alcotest.fail "requests never all admitted";
        let st = request_exn stconn status_req in
        if ifield st "queue_depth" + ifield st "inflight" + ifield st "served" < n
        then begin
          Unix.sleepf 0.01;
          wait (k - 1)
        end
      in
      wait 1000);
  Server.stop srv;
  (* a request sent AFTER stop is shed, not silently dropped *)
  (try ignore (Client.pipeline_send conn (Json.Obj [ ("id", Json.Str "late") ]))
   with Unix.Unix_error _ -> () (* connection may already be shut down *));
  let rec collect acc =
    if List.length acc >= n then acc
    else
      match Client.pipeline_recv conn with
      | Ok None -> acc
      | Error _ -> Alcotest.fail "undecodable drain response"
      | Ok (Some (_, resp)) ->
          if Json.member "echo" resp <> None then collect (ifield resp "id" :: acc)
          else (
            (* the late request's shed notice *)
            Alcotest.(check string) "late request shed" "shutting-down"
              (sfield resp "code");
            collect acc)
  in
  let served = collect [] in
  Alcotest.(check (list int)) "zero in-flight loss across drain"
    (List.init n Fun.id) (List.sort compare served);
  Alcotest.(check bool) "socket file removed after drain" true
    (not (Sys.file_exists path))

(* One connection per request is nascentc's connection discipline: the
   server must release each one (fd, conn record, reader thread) once
   the client hangs up and its responses are out — a long-running
   daemon may not hold resources proportional to lifetime traffic. *)
let test_connection_resources_released () =
  with_service @@ fun path _ ->
  let churn = 8 in
  for i = 1 to churn do
    Client.with_conn path @@ fun conn ->
    ignore (request_exn conn (compile_req ~id:(Json.Int i) "simple"))
  done;
  Client.with_conn path @@ fun stconn ->
  (* EOF is noticed asynchronously by the reader threads: poll *)
  let rec poll n =
    let st = request_exn stconn status_req in
    if ifield st "open_connections" <= 1 then st
    else if n = 0 then
      Alcotest.failf "connections never released: %d still open after churn"
        (ifield st "open_connections")
    else begin
      Unix.sleepf 0.02;
      poll (n - 1)
    end
  in
  let st = poll 250 in
  Alcotest.(check int) "every churned connection was accepted" (churn + 1)
    (ifield st "connections");
  Alcotest.(check int) "none of the served requests were lost" churn
    (ifield st "served")

(* --- memory watchdog ---------------------------------------------------- *)

let test_mem_pressure_sheds_admission () =
  Fun.protect ~finally:(fun () -> Guard.set_mem_budget ~bytes:None ())
  @@ fun () ->
  with_service @@ fun path _ ->
  Client.with_conn path @@ fun conn ->
  (* a 1-byte budget: any heap is over it, so admission must shed *)
  Guard.set_mem_budget ~bytes:(Some 1) ();
  let shed = request_exn conn (compile_req "vortex") in
  Alcotest.(check string) "shed, not served" "error" (sfield shed "status");
  Alcotest.(check string) "shed as overloaded" "overloaded" (sfield shed "code");
  Alcotest.(check bool) "shed is retryable" true (bfield shed "retryable");
  (* pressure relieved: the same request is admitted and served — and
     status (answered off the admission path) stays reachable throughout *)
  Guard.set_mem_budget ~bytes:None ();
  let ok = request_exn conn (compile_req "vortex") in
  Alcotest.(check string) "served once pressure clears" "ok" (sfield ok "status");
  let st = request_exn conn status_req in
  Alcotest.(check int) "shed admissions counted" 1 (ifield st "mem_shed");
  Alcotest.(check int) "no request was aborted" 0 (ifield st "mem_aborts")

let test_mem_abort_is_retryable () =
  (* a handler that trips the watchdog mid-request: the server must
     answer mem-pressure/retryable and count the abort, not die *)
  let handler =
    {
      Server.handle =
        (fun req ->
          match Json.str_member "mode" req with
          | Some "boom" -> raise (Guard.Mem_exceeded "major heap over budget")
          | _ -> Json.Obj [ ("status", Json.Str "ok") ]);
      status_extra = (fun () -> []);
    }
  in
  with_server handler @@ fun path _ ->
  Client.with_conn path @@ fun conn ->
  let boom =
    request_exn conn
      (Json.Obj [ ("id", Json.Int 1); ("op", Json.Str "x"); ("mode", Json.Str "boom") ])
  in
  Alcotest.(check string) "aborted request errors" "error" (sfield boom "status");
  Alcotest.(check string) "abort code is mem-pressure" "mem-pressure"
    (sfield boom "code");
  Alcotest.(check bool) "abort is retryable" true (bfield boom "retryable");
  (* the worker survives the abort *)
  let ok =
    request_exn conn (Json.Obj [ ("id", Json.Int 2); ("op", Json.Str "x") ])
  in
  Alcotest.(check string) "worker serves the next request" "ok" (sfield ok "status");
  let st = request_exn conn status_req in
  Alcotest.(check int) "abort counted" 1 (ifield st "mem_aborts");
  Alcotest.(check int) "nothing shed at admission" 0 (ifield st "mem_shed")

(* --- background lane scheduling ------------------------------------------ *)

(* One worker always stays on live traffic: with jobs = 2 at most one
   background job runs, so a live request submitted behind a
   background backlog is answered while that job is still blocked. A
   submission under memory pressure is refused (the caller keeps its
   floor and resubmits later), and queued background work is deferred
   until the pressure clears. *)
let test_bg_lane_reserves_live_worker () =
  Fun.protect ~finally:(fun () -> Guard.set_mem_budget ~bytes:None ())
  @@ fun () ->
  let gate = Mutex.create () in
  let cond = Condition.create () in
  let open_gate = ref false in
  let release () =
    Mutex.lock gate;
    open_gate := true;
    Condition.broadcast cond;
    Mutex.unlock gate
  in
  let handler =
    {
      Server.handle =
        (fun req ->
          (if Json.str_member "lane" req = Some "bg" then begin
             Mutex.lock gate;
             while not !open_gate do
               Condition.wait cond gate
             done;
             Mutex.unlock gate
           end);
          Json.Obj [ ("status", Json.Str "ok") ]);
      status_extra = (fun () -> []);
    }
  in
  with_server ~tune:(fun c -> { c with Server.jobs = 2 }) handler @@ fun path srv ->
  Fun.protect ~finally:release @@ fun () ->
  Client.with_conn path @@ fun conn ->
  let status () = request_exn conn status_req in
  let wait_status what pred =
    poll_until what (fun () -> pred (status ()))
  in
  List.iter
    (fun k ->
      Alcotest.(check bool) "background job admitted" true
        (Server.submit_background srv (Json.Obj [ ("k", Json.Int k) ])))
    [ 1; 2; 3 ];
  wait_status "one background job in flight" (fun st ->
      ifield st "bg_inflight" = 1 && ifield st "bg_pending" = 2);
  Unix.sleepf 0.1;
  Alcotest.(check int) "the second worker does not take background work" 1
    (ifield (status ()) "bg_inflight");
  let live = request_exn conn (Json.Obj [ ("id", Json.Int 7); ("op", Json.Str "x") ]) in
  Alcotest.(check string) "live request served" "ok" (sfield live "status");
  Alcotest.(check bool) "answered before the background job finished" false
    (Mutex.protect gate (fun () -> !open_gate));
  Guard.set_mem_budget ~bytes:(Some 1) ();
  Alcotest.(check bool) "submission under memory pressure refused" false
    (Server.submit_background srv (Json.Obj [ ("k", Json.Int 4) ]));
  release ();
  wait_status "the running background job finished" (fun st ->
      ifield st "bg_done" = 1);
  Unix.sleepf 0.2;
  let st = status () in
  Alcotest.(check int) "queued background work deferred" 2 (ifield st "bg_pending");
  Alcotest.(check int) "nothing started under pressure" 0 (ifield st "bg_inflight");
  Guard.set_mem_budget ~bytes:None ();
  wait_status "deferred background work ran" (fun st ->
      ifield st "bg_done" = 3 && ifield st "bg_pending" = 0)

(* Work a handler hands to [Server.after_response] runs only once its
   response is written: the client holds its answer while that work is
   still blocked (one worker, so nothing else could have answered).
   Outside a live request the work runs at once. *)
let test_after_response_runs_after_write () =
  let gate = Mutex.create () and cond = Condition.create () in
  let open_gate = ref false and ran = ref 0 in
  let release () =
    Mutex.protect gate (fun () ->
        open_gate := true;
        Condition.broadcast cond)
  in
  let handler =
    {
      Server.handle =
        (fun _ ->
          Server.after_response (fun () ->
              Mutex.protect gate (fun () ->
                  while not !open_gate do
                    Condition.wait cond gate
                  done;
                  incr ran));
          Json.Obj [ ("status", Json.Str "ok") ]);
      status_extra = (fun () -> []);
    }
  in
  (with_server ~tune:(fun c -> { c with Server.jobs = 1 }) handler @@ fun path _ ->
   Fun.protect ~finally:release @@ fun () ->
   Client.with_addr ~recv_timeout_s:10.0 (Client.Uds path) @@ fun conn ->
   let resp = request_exn conn (Json.Obj [ ("id", Json.Int 1); ("op", Json.Str "x") ]) in
   Alcotest.(check string) "answered" "ok" (sfield resp "status");
   Alcotest.(check int) "deferred work still waiting" 0
     (Mutex.protect gate (fun () -> !ran));
   release ();
   poll_until "deferred work ran" (fun () -> Mutex.protect gate (fun () -> !ran = 1)));
  ignore (handler.Server.handle Json.Null);
  Alcotest.(check int) "outside a request it runs at once" 2 !ran

let suite =
  [
    Util.tc "compile request round-trips" test_compile_ok;
    Util.tc "oracle certificate round-trips" test_compile_oracle_certificate;
    Util.tc "status reports the full picture" test_status_shape;
    Util.tc "bad inputs get structured errors" test_bad_inputs;
    Util.tc "handler exception is isolated" test_handler_exception_isolated;
    Util.tc "deadline frees a hung worker" test_deadline_cuts_hung_request;
    Util.tc "deadline counts queue wait" test_deadline_counts_queue_wait;
    Util.tc "overload sheds retryably" test_overload_sheds_with_retryable;
    Util.tc "client retries through overload" test_client_retries_through_overload;
    Util.tc "mid-exchange close is retryable" test_retry_classifies_midexchange_close;
    Util.tc "connection resources released" test_connection_resources_released;
    Util.tc "breaker trips and recovers" test_breaker_trips_and_recovers;
    Util.tc "tier: floor then optimized" test_tier_floor_then_optimized;
    Util.tc "tier: sync opt-out and NI floor" test_tier_sync_optout;
    Util.tc "tier: unwired service stays sync" test_tier_unwired_stays_sync;
    Util.tc "tier: upgrade faults contained per class"
      test_upgrade_fault_containment_every_class;
    Util.tc "100 concurrent faulted requests" test_hundred_concurrent_faulted_requests;
    Util.tc "drain loses nothing" test_drain_loses_nothing;
    Util.tc "mem pressure sheds admission" test_mem_pressure_sheds_admission;
    Util.tc "mem abort is retryable" test_mem_abort_is_retryable;
    Util.tc "bg lane keeps one worker live" test_bg_lane_reserves_live_worker;
    Util.tc "after_response runs after the write" test_after_response_runs_after_write;
  ]
