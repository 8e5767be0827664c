(* Chaos rung: kill -9 a shard under open-loop load, with zero failed
   client requests allowed.

   Drives a running shard router on its TCP address: two open-loop
   warm-up phases (40 and 80 rps, 1 s each), then a 2 s phase at 40 rps
   that kill -9s the victim shard process one second in. Health
   ejection plus ring failover must hide the dead shard from every
   client: the rung exits 1 if any request of the chaos phase fails.
   tools/ci.sh runs it against its shard smoke's router and shard s1.

   Open loop: arrivals follow a fixed schedule whatever the completions,
   so a stalled service cannot throttle its own load. Four pipelined
   connections share the schedule round-robin.

   Usage: chaos_rung.exe HOST:PORT VICTIM_PID *)

module Json = Nascent_support.Json
module Client = Nascent_support.Server.Client
module Mclock = Nascent_support.Mclock
module B = Nascent_benchmarks.Suite

let workers = 4

(* The stream cycles the (benchmark x scheme) matrix, so the leading
   edge of a run is all cold-cache misses: the shards answer them from
   the NI floor while upgrades compile on their background lanes. *)
let cells =
  List.concat_map
    (fun b -> List.map (fun s -> (b.B.name, s)) [ "NI"; "LLS"; "CS"; "ALL" ])
    B.all
  |> Array.of_list

let request_of i =
  let b, s = cells.(i mod Array.length cells) in
  Json.Obj
    [
      ("id", Json.Str (Printf.sprintf "load-%d" i));
      ("op", Json.Str "compile");
      ("benchmark", Json.Str b);
      ("scheme", Json.Str s);
      ("tier", Json.Str "auto");
    ]

(* One open-loop phase; returns (requests, failed requests). Worker [w]
   sends schedule slots w, w+workers, ... and its receiver thread owns
   a fixed quota of completions, so there is no handoff race with the
   sender: blocking in pipeline_recv with the quota unmet is waiting
   for a response that is owed. A connection that dies fails every
   response still owed on it. *)
let run_phase ~addr ~rate ~duration ~kill_at =
  let total = max workers (int_of_float (rate *. duration)) in
  let t0 = Mclock.counter () in
  Option.iter
    (fun (after_s, pid) ->
      ignore
        (Thread.create
           (fun () ->
             Thread.delay after_s;
             try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
           ()))
    kill_at;
  let worker w =
    let quota = if total <= w then 0 else ((total - 1 - w) / workers) + 1 in
    let conn = Client.connect_addr ~recv_timeout_s:60.0 addr in
    let lock = Mutex.create () in
    let received = ref 0 and errors = ref 0 in
    let fail_rest () =
      Mutex.protect lock (fun () ->
          errors := !errors + (quota - !received);
          received := quota)
    in
    let receiver =
      Thread.create
        (fun () ->
          let rec loop () =
            if Mutex.protect lock (fun () -> !received < quota) then
              match Client.pipeline_recv conn with
              | Ok (Some (_, resp)) ->
                  Mutex.protect lock (fun () ->
                      incr received;
                      if Json.str_member "status" resp = Some "error" then incr errors);
                  loop ()
              | Ok None | Error _ -> fail_rest ()
              | exception Unix.Unix_error (Unix.ETIMEDOUT, _, _) -> fail_rest ()
          in
          loop ())
        ()
    in
    let i = ref w in
    while !i < total do
      let sched = float_of_int !i /. rate in
      let now = Mclock.elapsed_s t0 in
      if sched > now then Thread.delay (sched -. now);
      (try ignore (Client.pipeline_send conn (request_of !i))
       with _ ->
         (* a dead connection still consumes its quota slot *)
         Mutex.protect lock (fun () ->
             incr received;
             incr errors));
      i := !i + workers
    done;
    Thread.join receiver;
    (try Client.close conn with _ -> ());
    !errors
  in
  let errors = Array.make workers 0 in
  List.init workers (fun w -> Thread.create (fun () -> errors.(w) <- worker w) ())
  |> List.iter Thread.join;
  (total, Array.fold_left ( + ) 0 errors)

let () =
  let addr, victim =
    match Sys.argv with
    | [| _; addr; pid |] -> (Client.parse_address addr, int_of_string pid)
    | _ ->
        prerr_endline "usage: chaos_rung HOST:PORT VICTIM_PID";
        exit 2
  in
  (* a dead peer must show up as a failed request, not kill the rung *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  List.iter
    (fun rate ->
      let sent, errors = run_phase ~addr ~rate ~duration:1.0 ~kill_at:None in
      Printf.printf "warm-up %.0f rps: %d request(s), %d error(s)\n%!" rate sent errors)
    [ 40.0; 80.0 ];
  let sent, errors = run_phase ~addr ~rate:40.0 ~duration:2.0 ~kill_at:(Some (1.0, victim)) in
  Printf.printf "chaos (kill -9 pid %d at 1.0s of 2.0s, 40 rps): %d request(s), %d error(s)\n%!"
    victim sent errors;
  if errors > 0 then begin
    prerr_endline "FAIL: chaos rung had failed client requests";
    exit 1
  end
