(* The compile service's request handler: what a request MEANS, layered
   on Nascent_support.Server's transport (which owns sockets, admission
   control, deadlines and drain).

   Operations:
   - "compile": lower + optimize (+ optionally interpret) one program —
     a MiniF source string or a built-in benchmark name — under a
     requested (scheme, kind, impl, verify, oracle, fault) configuration
     — "oracle": true additionally runs the Fourier-Motzkin elimination
     sweep and the per-compile translation validator, whose verdict is
     returned as "validated" (a refused certificate degrades the
     response and feeds the breaker like a rolled-back pass).
     Results are served through a content-addressed Memo cache (same
     key discipline as the experiment harness: source + full
     Config.cache_key), so a warm daemon answers repeated requests
     without re-optimizing.
   - "burn": spin on the ambient tick until a budget fires — the
     deterministic stand-in for a hung compile, used by the CI smoke
     and the tests to exercise the deadline path end to end.

   Graceful degradation: a per-scheme circuit breaker. Every compile at
   the requested scheme records success (no incidents) or failure (at
   least one rolled-back pass); after [breaker_threshold] consecutive
   failures the scheme trips and requests for it are routed to the
   always-safe NI floor — still a correct, fully checked compile, per
   the fail-safe pipeline's contract — until a cooldown probe at the
   real scheme succeeds. A compile aborted by its deadline or fuel
   budget records a failure too (so a lost probe cannot wedge the
   breaker half-open); invalid-program errors record nothing — they
   are the input's fault. Fallback compiles never feed the breaker:
   they say nothing about the failing scheme's health. NI itself is
   the floor and bypasses the breaker entirely. *)

module B = Nascent_benchmarks.Suite
module Ir = Nascent_ir
module Core = Nascent_core
module Config = Core.Config
module Universe = Nascent_checks.Universe
module Run = Nascent_interp.Run
module Json = Nascent_support.Json
module Server = Nascent_support.Server
module Breaker = Nascent_support.Breaker
module Memo = Nascent_support.Memo
module Guard = Nascent_support.Guard
module Mclock = Nascent_support.Mclock
module Retry = Nascent_support.Retry

(* Everything deterministic about a compile, in cacheable form. *)
type compiled = {
  r_incidents : (string * string * string) list; (* pass, cause, detail *)
  r_faults_injected : int;
  r_checks_before : int;
  r_checks_after : int;
  r_validated : bool option;
      (* [--oracle] requests: did the per-compile translation validator
         certify every reference check site? [None] = not requested *)
  r_run : run_outcome option;
  r_floor : bool;
      (* tiered compilation: this cell holds the NI floor artifact
         standing in for the requested scheme until the background
         upgrade hot-swaps the optimized form into its place *)
}

and run_outcome = {
  ro_checks : int;
  ro_instrs : int;
  ro_trap : string option;
  ro_error : string option;
}

type t = {
  breaker : Breaker.t;
  clock : Mclock.counter; (* breaker time base: uptime seconds *)
  cache : compiled Memo.t;
  cooldown_s : float; (* the breaker's cooldown, for upgrade deferral *)
  lock : Mutex.t; (* guards the counters + tables below *)
  mutable compiles : int;
  mutable degraded : int; (* responses carrying incidents *)
  mutable fallbacks : int; (* breaker-routed to the NI floor *)
  mutable incidents_total : int;
  mutable floor_served : int; (* tier:"floor" compile responses *)
  mutable optimized_served : int; (* tier:"optimized" compile responses *)
  mutable upgrades_submitted : int;
  mutable upgrades_done : int; (* hot-swapped to the optimized tier *)
  mutable upgrades_failed : int; (* degraded upgrade compile: floor kept *)
  mutable upgrades_dropped : int; (* gave up (breaker / budget retries) *)
  upgrading : (string, float) Hashtbl.t;
      (* cache keys with an upgrade in flight -> enqueue uptime;
         dedups submissions and feeds the oldest-pending-age gauge *)
  mutable submit_bg : (Json.t -> bool) option;
      (* the server's background lane, wired after both exist
         (Server.create needs the handler, the handler needs [t]) *)
  state_path : string option; (* snapshot file for restart survival *)
  shard_name : string option;
      (* identity behind a shard router, echoed as the "shard" status
         field so one status sweep tells which daemon answered *)
}

(* v3: compiled cells gained [r_floor] (tiered compilation).
   v2: compiled cells gained [r_validated] (the --oracle certificate). *)
let cache_version = "service-v3"

let counted t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* --- state snapshot ----------------------------------------------------

   Breaker states and service counters survive a daemon restart: a
   scheme that was tripped keeps being routed to the NI floor by its
   successor until a cooldown probe (clock restarted at load) succeeds.
   The snapshot is a small JSON file written atomically after every
   handled compile; written-then-renamed means a kill -9 leaves either
   the previous snapshot or the new one, never a torn file — and a
   snapshot that is missing or fails to parse just means starting
   fresh, which is always safe (breakers re-learn). *)

let snapshot_json t =
  let ( compiles,
        degraded,
        fallbacks,
        incidents_total,
        floor_served,
        optimized_served,
        upgrades_submitted,
        upgrades_done,
        upgrades_failed,
        upgrades_dropped ) =
    counted t (fun () ->
        ( t.compiles,
          t.degraded,
          t.fallbacks,
          t.incidents_total,
          t.floor_served,
          t.optimized_served,
          t.upgrades_submitted,
          t.upgrades_done,
          t.upgrades_failed,
          t.upgrades_dropped ))
  in
  Json.Obj
    [
      ("version", Json.Int 2);
      ("compiles", Json.Int compiles);
      ("degraded", Json.Int degraded);
      ("fallbacks", Json.Int fallbacks);
      ("incidents_total", Json.Int incidents_total);
      ("floor_served", Json.Int floor_served);
      ("optimized_served", Json.Int optimized_served);
      ("upgrades_submitted", Json.Int upgrades_submitted);
      ("upgrades_done", Json.Int upgrades_done);
      ("upgrades_failed", Json.Int upgrades_failed);
      ("upgrades_dropped", Json.Int upgrades_dropped);
      ( "breakers",
        Json.List
          (List.map
             (fun (key, st, failures) ->
               Json.Obj
                 [
                   ("scheme", Json.Str key);
                   ("state", Json.Str (Breaker.state_name st));
                   ("failures", Json.Int failures);
                 ])
             (Breaker.snapshot t.breaker)) );
    ]

let save_state t =
  match t.state_path with
  | None -> ()
  | Some path -> (
      try Guard.write_atomic ~path (Json.to_string (snapshot_json t) ^ "\n")
      with Sys_error _ | Unix.Unix_error _ -> ())

let load_state t path =
  match
    if Sys.file_exists path then
      try Some (In_channel.with_open_bin path In_channel.input_all)
      with Sys_error _ -> None
    else None
  with
  | None -> ()
  | Some raw -> (
      match Json.parse raw with
      | Error _ -> () (* torn or foreign file: start fresh *)
      | Ok j ->
          let geti name =
            match Json.member name j with Some (Json.Int n) when n >= 0 -> n | _ -> 0
          in
          counted t (fun () ->
              t.compiles <- geti "compiles";
              t.degraded <- geti "degraded";
              t.fallbacks <- geti "fallbacks";
              t.incidents_total <- geti "incidents_total";
              t.floor_served <- geti "floor_served";
              t.optimized_served <- geti "optimized_served";
              t.upgrades_submitted <- geti "upgrades_submitted";
              t.upgrades_done <- geti "upgrades_done";
              t.upgrades_failed <- geti "upgrades_failed";
              t.upgrades_dropped <- geti "upgrades_dropped");
          let entries =
            match Json.member "breakers" j with
            | Some (Json.List l) ->
                List.filter_map
                  (fun b ->
                    match
                      ( Json.str_member "scheme" b,
                        Option.bind (Json.str_member "state" b) Breaker.state_of_name,
                        Json.member "failures" b )
                    with
                    | Some key, Some st, Some (Json.Int f) -> Some (key, st, f)
                    | _ -> None)
                  l
            | _ -> []
          in
          Breaker.restore t.breaker ~now:(Mclock.elapsed_s t.clock) entries)

let create ?(breaker_threshold = 3) ?(breaker_cooldown_s = 2.0) ?state_path
    ?cache_dir ?shard_name () =
  let t =
    {
      breaker = Breaker.create ~threshold:breaker_threshold ~cooldown_s:breaker_cooldown_s ();
      clock = Mclock.counter ();
      cache = Memo.create ?disk_dir:cache_dir ~name:"service" ();
      cooldown_s = breaker_cooldown_s;
      lock = Mutex.create ();
      compiles = 0;
      degraded = 0;
      fallbacks = 0;
      incidents_total = 0;
      floor_served = 0;
      optimized_served = 0;
      upgrades_submitted = 0;
      upgrades_done = 0;
      upgrades_failed = 0;
      upgrades_dropped = 0;
      upgrading = Hashtbl.create 16;
      submit_bg = None;
      state_path;
      shard_name;
    }
  in
  Option.iter (load_state t) state_path;
  t

(* Late binding for the background lane: Server.create needs the
   handler, the handler needs the service, and the service's tier
   upgrades need the server — wired by the daemon after both exist.
   Without it (tests, bench targets that want pure synchronous
   behaviour) tiering is off: every compile runs at its requested
   scheme, exactly the pre-tier semantics. *)
let set_upgrade_submit t f = t.submit_bg <- Some f

exception Bad_request of string

(* --- request parsing --------------------------------------------------- *)

let parse_scheme req =
  match Json.str_member "scheme" req with
  | None -> Config.LLS
  | Some s -> (
      match Config.scheme_of_name s with
      | Some sc -> sc
      | None -> raise (Bad_request ("unknown scheme " ^ s)))

let parse_kind req =
  match Json.str_member "kind" req with
  | None -> Config.PRX
  | Some ("prx" | "PRX") -> Config.PRX
  | Some ("inx" | "INX") -> Config.INX
  | Some s -> raise (Bad_request ("unknown check kind " ^ s))

let parse_impl req =
  match Json.str_member "impl" req with
  | None -> Universe.All_implications
  | Some "all" -> Universe.All_implications
  | Some "none" -> Universe.No_implications
  | Some "cross" -> Universe.Cross_family_only
  | Some s -> raise (Bad_request ("unknown implication mode " ^ s))

let parse_fault req =
  match Json.str_member "fault" req with
  | None | Some "none" -> None
  | Some s -> (
      match Ir.Mutate.parse_request s with
      | Ok (Ir.Mutate.Single spec) -> Some spec
      | Ok Ir.Mutate.Smoke -> raise (Bad_request "fault \"smoke\" is CLI-only")
      | Error e -> raise (Bad_request e))

let parse_source req =
  match (Json.str_member "source" req, Json.str_member "benchmark" req) with
  | Some src, None -> ("<request>", src)
  | None, Some name -> (
      match B.find name with
      | Some b -> (name, b.B.source)
      | None -> raise (Bad_request ("no such built-in benchmark: " ^ name)))
  | Some _, Some _ -> raise (Bad_request "give either \"source\" or \"benchmark\", not both")
  | None, None -> raise (Bad_request "compile request needs \"source\" or \"benchmark\"")

(* --- compile ----------------------------------------------------------- *)

let cell_key ~src ~config ~want_run =
  Memo.key
    [ cache_version; src; Config.cache_key config; (if want_run then "run" else "norun") ]

(* The pure compile: lower, optimize, optionally interpret. No memo —
   the tier-upgrade path computes through this directly and hot-swaps
   the result over the floor cell it must not consult. *)
let compute_cell ~src ~config ~want_run =
  let ir = Ir.Lower.of_source src in
  let opt, stats = Core.Optimizer.optimize ~config ir in
  let r_run =
    if want_run then
      let o = Run.run opt in
      Some
        {
          ro_checks = o.Run.checks;
          ro_instrs = o.Run.instrs;
          ro_trap = o.Run.trap;
          ro_error = o.Run.error;
        }
    else None
  in
  {
    r_incidents =
      List.map
        (fun (i : Core.Optimizer.incident) ->
          ( i.Core.Optimizer.inc_pass,
            Core.Optimizer.cause_name i.Core.Optimizer.inc_cause,
            i.Core.Optimizer.inc_detail ))
        stats.Core.Optimizer.incidents;
    r_faults_injected = stats.Core.Optimizer.faults_injected;
    r_checks_before = stats.Core.Optimizer.static_checks_before;
    r_checks_after = stats.Core.Optimizer.static_checks_after;
    r_validated = Core.Optimizer.validated stats;
    r_run;
    r_floor = false;
  }

let compile_cell t ~src ~config ~want_run =
  let key = cell_key ~src ~config ~want_run in
  let computed = ref false in
  let cell =
    Memo.find_or_compute t.cache ~key @@ fun () ->
    computed := true;
    compute_cell ~src ~config ~want_run
  in
  (cell, not !computed)

let svc_error ~code detail =
  Json.Obj
    [
      ("status", Json.Str "error");
      ("code", Json.Str code);
      ("retryable", Json.Bool false);
      ("detail", Json.Str detail);
    ]

let tier_mode req =
  match Json.str_member "tier" req with
  | None | Some "auto" -> `Auto
  | Some "sync" -> `Sync
  | Some s -> raise (Bad_request ("unknown tier mode " ^ s ^ " (want auto|sync)"))

(* Dedup horizon for in-flight upgrades: an [upgrading] entry this old
   is presumed lost (its background job crashed terminally before the
   handler could clean up) and a fresh submission replaces it. *)
let upgrade_stale_s = 120.0

(* The protocol spelling [parse_impl] accepts (Universe.mode_name is
   the human/report one). *)
let impl_wire = function
  | Universe.All_implications -> "all"
  | Universe.No_implications -> "none"
  | Universe.Cross_family_only -> "cross"

(* Enqueue the background upgrade for a floor cell, at most one in
   flight per cache key. The payload round-trips through the same
   request parsers, so the background job re-derives exactly the cell
   the live request served the floor for. The submission itself waits
   until the floor response is written. A refused submission (drain,
   lane at capacity, memory pressure) just forgets the reservation:
   the floor keeps serving and a later cold request resubmits. *)
let maybe_submit_upgrade t ~key ~name ~src ~scheme ~kind ~impl ~verify ~oracle
    ~fault ~want_run =
  match t.submit_bg with
  | None -> ()
  | Some submit ->
      let now = Mclock.elapsed_s t.clock in
      let fresh =
        counted t (fun () ->
            let stale =
              match Hashtbl.find_opt t.upgrading key with
              | None -> true
              | Some since -> now -. since > upgrade_stale_s
            in
            if stale then begin
              Hashtbl.replace t.upgrading key now;
              t.upgrades_submitted <- t.upgrades_submitted + 1;
              true
            end
            else false)
      in
      if fresh then begin
        let payload =
          Json.Obj
            ([ ("op", Json.Str "upgrade") ]
            @ (if name = "<request>" then [ ("source", Json.Str src) ]
               else [ ("benchmark", Json.Str name) ])
            @ [
                ("scheme", Json.Str (Config.scheme_name scheme));
                ("kind", Json.Str (Config.kind_name kind));
                ("impl", Json.Str (impl_wire impl));
                ("verify", Json.Bool verify);
                ("oracle", Json.Bool oracle);
                ("fault", Json.Str (Config.fault_name fault));
                ("run", Json.Bool want_run);
              ])
        in
        (* Submitted once the floor response is written: on a
           multi-worker daemon the upgrade would otherwise start
           compiling on another worker while this answer is still on
           its way, and slow it down. *)
        Server.after_response (fun () ->
            let admitted = try submit payload with _ -> false in
            if not admitted then counted t (fun () -> Hashtbl.remove t.upgrading key))
      end

let handle_compile t req =
  let name, src = parse_source req in
  let scheme = parse_scheme req in
  let kind = parse_kind req in
  let impl = parse_impl req in
  let verify = Option.value ~default:true (Json.bool_member "verify" req) in
  let oracle = Option.value ~default:false (Json.bool_member "oracle" req) in
  let fault = parse_fault req in
  let want_run = Option.value ~default:false (Json.bool_member "run" req) in
  let mode = tier_mode req in
  let sname = Config.scheme_name scheme in
  let now () = Mclock.elapsed_s t.clock in
  let t0 = Mclock.counter () in
  (* Shared response assembly + accounting for both tiers and modes. *)
  let respond ~used_scheme ~tier ~fallback ~cached (cell : compiled) =
    let ok = cell.r_incidents = [] && cell.r_validated <> Some false in
    counted t (fun () ->
        t.compiles <- t.compiles + 1;
        if tier = "floor" then t.floor_served <- t.floor_served + 1
        else t.optimized_served <- t.optimized_served + 1;
        if fallback then t.fallbacks <- t.fallbacks + 1;
        if not ok then t.degraded <- t.degraded + 1;
        t.incidents_total <-
          t.incidents_total
          + List.length cell.r_incidents
          + (if cell.r_validated = Some false then 1 else 0));
    save_state t;
    let degraded = (not ok) || fallback in
    let validated_json =
      match cell.r_validated with None -> Json.Null | Some b -> Json.Bool b
    in
    Json.Obj
      ([
         ("status", Json.Str (if degraded then "degraded" else "ok"));
         ("code", Json.Int (if degraded then 4 else 0));
         ("op", Json.Str "compile");
         ("program", Json.Str name);
         ("scheme_requested", Json.Str sname);
         ("scheme_used", Json.Str (Config.scheme_name used_scheme));
         ("tier", Json.Str tier);
         ("kind", Json.Str (Config.kind_name kind));
         ("impl", Json.Str (Universe.mode_name impl));
         ("verify", Json.Bool verify);
         ("oracle", Json.Bool oracle);
         ("validated", validated_json);
         ("fault", Json.Str (Config.fault_name fault));
         ("breaker", Json.Str (Breaker.state_name (Breaker.state t.breaker sname)));
         ("fallback", Json.Bool fallback);
         ("checks_before", Json.Int cell.r_checks_before);
         ("checks_after", Json.Int cell.r_checks_after);
         ("faults_injected", Json.Int cell.r_faults_injected);
         (* every degraded response carries at least one incident: a
            breaker fallback explains itself as a service-level record *)
         ( "incidents",
           Json.List
             ((if fallback then
                 [
                   Json.Obj
                     [
                       ("pass", Json.Str "service");
                       ("cause", Json.Str "breaker");
                       ( "detail",
                         Json.Str
                           (Printf.sprintf
                              "scheme %s breaker open; compiled at the NI floor"
                              sname) );
                     ];
                 ]
               else [])
             @ (if cell.r_validated = Some false then
                  [
                    Json.Obj
                      [
                        ("pass", Json.Str "validate");
                        ("cause", Json.Str "validation");
                        ( "detail",
                          Json.Str
                            "translation validation refused the certificate: some \
                             reference check site is no longer provably covered" );
                      ];
                  ]
                else [])
             @ List.map
                 (fun (pass, cause, detail) ->
                   Json.Obj
                     [
                       ("pass", Json.Str pass);
                       ("cause", Json.Str cause);
                       ("detail", Json.Str detail);
                     ])
                 cell.r_incidents) );
         ("cached", Json.Bool cached);
         ("elapsed_ms", Json.Float (1000.0 *. Mclock.elapsed_s t0));
       ]
      @
      match cell.r_run with
      | None -> []
      | Some ro ->
          [
            ( "run",
              Json.Obj
                [
                  ("checks", Json.Int ro.ro_checks);
                  ("instrs", Json.Int ro.ro_instrs);
                  ( "trap",
                    match ro.ro_trap with None -> Json.Null | Some s -> Json.Str s );
                  ( "error",
                    match ro.ro_error with None -> Json.Null | Some s -> Json.Str s );
                ] );
          ])
  in
  if mode = `Sync || scheme = Config.NI || Option.is_none t.submit_bg then begin
    (* Synchronous mode: compile the requested scheme on the live
       request — the pre-tier semantics, still pinned by the CLI smoke,
       the latency bench and the breaker tests. NI requests are always
       synchronous (the floor cannot be upgraded), and so is every
       request when no background lane is wired (tests, bench targets
       that embed the handler without a server). *)
    (* The NI floor bypasses the breaker: it IS the fallback. *)
    let decision =
      if scheme = Config.NI then `Allow else Breaker.decide t.breaker ~now:(now ()) sname
    in
    let fallback = decision = `Fallback in
    let used_scheme = if fallback then Config.NI else scheme in
    let config = Config.make ~scheme:used_scheme ~kind ~impl ~verify ~oracle ?fault () in
    (* Only compiles at the REQUESTED scheme feed its breaker. *)
    let record_attempt ok =
      if (not fallback) && scheme <> Config.NI then
        Breaker.record t.breaker ~now:(now ()) sname ~ok
    in
    let cell, cached =
      match compile_cell t ~src ~config ~want_run with
      | result -> result
      | exception ((Failure _ | Ir.Lower.Lower_error _ | Ir.Verify.Invalid_ir _) as e)
        ->
          (* the program's fault, not the scheme's: never feeds the breaker *)
          raise e
      | exception e ->
          (* A deadline, fuel exhaustion or internal error aborted the
             attempt before it could produce incidents. The breaker must
             still hear about it — in particular a `Probe that dies here
             would otherwise leave the key half-open with no recorded
             outcome. *)
          record_attempt false;
          save_state t;
          raise e
    in
    (* A refused translation-validation certificate is a scheme failure
       exactly like a rolled-back pass: the optimizer produced output it
       could not prove safe, so the breaker hears about it. *)
    let ok = cell.r_incidents = [] && cell.r_validated <> Some false in
    record_attempt ok;
    respond ~used_scheme
      ~tier:(if fallback then "floor" else "optimized")
      ~fallback ~cached cell
  end
  else begin
    (* Tiered path (the daemon's default): answer from the request's
       cell if it is already optimized; otherwise serve the NI floor —
       computed through the ordinary NI cell, so a prewarmed floor is a
       cache hit — and enqueue the background upgrade that will
       hot-swap the optimized artifact into this key. The live request
       never compiles at the requested scheme and never feeds its
       breaker; upgrade outcomes do that from the background lane. *)
    let config_req = Config.make ~scheme ~kind ~impl ~verify ~oracle ?fault () in
    let key_req = cell_key ~src ~config:config_req ~want_run in
    let computed = ref false in
    let cell =
      Memo.find_or_compute t.cache ~key:key_req (fun () ->
          computed := true;
          let config_ni =
            Config.make ~scheme:Config.NI ~kind ~impl ~verify ~oracle ?fault ()
          in
          let fc, _ = compile_cell t ~src ~config:config_ni ~want_run in
          { fc with r_floor = true })
    in
    if cell.r_floor then
      maybe_submit_upgrade t ~key:key_req ~name ~src ~scheme ~kind ~impl ~verify
        ~oracle ~fault ~want_run;
    (* An open breaker explains a floor that will not upgrade soon; a
       cached optimized artifact is proven work and serves regardless. *)
    let fallback =
      cell.r_floor && Breaker.state t.breaker sname <> Breaker.Closed
    in
    respond
      ~used_scheme:(if cell.r_floor then Config.NI else scheme)
      ~tier:(if cell.r_floor then "floor" else "optimized")
      ~fallback ~cached:(not !computed) cell
  end

(* The background lane retries on our ["retry_after_s"] responses and on
   exceptions; cap the total runs per job here too so a breaker that
   stays open cannot keep a job circulating forever. *)
let upgrade_max_attempts = 6

let upgrade_backoff =
  {
    Retry.default with
    max_attempts = upgrade_max_attempts;
    base_delay_s = 0.05;
    max_delay_s = 2.0;
  }

(* Background half of the tier lifecycle: compile the requested scheme
   off the live path and hot-swap the optimized artifact over the floor
   entry. This is the ONLY place tiered traffic feeds a scheme's
   breaker — a contained failure domain: a budget abort or a degraded
   result here records against the scheme and backs off (or gives up),
   while the floor entry keeps serving untouched. *)
let handle_upgrade t req =
  let name, src = parse_source req in
  let scheme = parse_scheme req in
  let kind = parse_kind req in
  let impl = parse_impl req in
  let verify = Option.value ~default:true (Json.bool_member "verify" req) in
  let oracle = Option.value ~default:false (Json.bool_member "oracle" req) in
  let fault = parse_fault req in
  let want_run = Option.value ~default:false (Json.bool_member "run" req) in
  let attempt = Option.value ~default:0 (Json.int_member "bg_attempt" req) in
  let sname = Config.scheme_name scheme in
  let now () = Mclock.elapsed_s t.clock in
  let config_req = Config.make ~scheme ~kind ~impl ~verify ~oracle ?fault () in
  let key = cell_key ~src ~config:config_req ~want_run in
  (* Terminal outcome: the job leaves the pending set. *)
  let finish outcome extra =
    counted t (fun () -> Hashtbl.remove t.upgrading key);
    save_state t;
    Json.Obj
      ([
         ("op", Json.Str "upgrade");
         ("upgrade", Json.Str outcome);
         ("program", Json.Str name);
         ("scheme", Json.Str sname);
       ]
      @ extra)
  in
  let drop reason =
    counted t (fun () -> t.upgrades_dropped <- t.upgrades_dropped + 1);
    finish "dropped" [ ("reason", Json.Str reason) ]
  in
  (* Non-terminal: keep the pending reservation, ask the lane to retry. *)
  let defer after =
    Json.Obj
      [
        ("op", Json.Str "upgrade");
        ("upgrade", Json.Str "deferred");
        ("program", Json.Str name);
        ("scheme", Json.Str sname);
        ("retry_after_s", Json.Float after);
      ]
  in
  if scheme = Config.NI then finish "noop" []
  else
    match Memo.find_opt t.cache ~key with
    | Some c when not c.r_floor ->
        (* already optimized — a replayed duplicate or a racing
           submission got here first; nothing to do *)
        finish "noop" []
    | _ -> (
        match Breaker.decide t.breaker ~now:(now ()) sname with
        | `Fallback ->
            if attempt + 1 >= upgrade_max_attempts then
              drop (Printf.sprintf "scheme %s breaker open" sname)
            else defer (Float.max 0.05 t.cooldown_s)
        | `Allow | `Probe -> (
            match compute_cell ~src ~config:config_req ~want_run with
            | exception
                ((Failure _ | Ir.Lower.Lower_error _ | Ir.Verify.Invalid_ir _) as e)
              ->
                (* the program's fault, not the scheme's (and the floor
                   compiled the same source): never feeds the breaker *)
                drop (Printexc.to_string e)
            | exception e ->
                (* A deadline, fuel, memory abort or internal error: the
                   breaker must hear about it (a `Probe dying here would
                   otherwise wedge the key half-open), then retry with
                   backoff — transient pressure may clear. *)
                Breaker.record t.breaker ~now:(now ()) sname ~ok:false;
                if attempt + 1 >= upgrade_max_attempts then
                  drop (Printexc.to_string e)
                else begin
                  save_state t;
                  defer
                    (Retry.delay_s upgrade_backoff ~seed:(Hashtbl.hash key)
                       ~attempt:(attempt + 1))
                end
            | cell ->
                let ok = cell.r_incidents = [] && cell.r_validated <> Some false in
                Breaker.record t.breaker ~now:(now ()) sname ~ok;
                counted t (fun () ->
                    t.incidents_total <-
                      t.incidents_total
                      + List.length cell.r_incidents
                      + (if cell.r_validated = Some false then 1 else 0));
                if ok then begin
                  (* hot-swap: the floor entry is promoted in place; a
                     racing reader sees floor or optimized, never a gap *)
                  Memo.replace t.cache ~key cell;
                  counted t (fun () -> t.upgrades_done <- t.upgrades_done + 1);
                  finish "done"
                    [
                      ("checks_after", Json.Int cell.r_checks_after);
                      ("cache_key", Json.Str key);
                    ]
                end
                else begin
                  (* A degraded artifact never replaces a clean floor:
                     the tier contract is "fast but unoptimized", not
                     "optimized but incident-laden" — and compiles are
                     deterministic, so a retry cannot change the
                     outcome. Terminal; the breaker heard the failure. *)
                  counted t (fun () ->
                      t.upgrades_failed <- t.upgrades_failed + 1);
                  finish "failed"
                    [
                      ("incidents", Json.Int (List.length cell.r_incidents));
                      ( "validated",
                        match cell.r_validated with
                        | None -> Json.Null
                        | Some b -> Json.Bool b );
                    ]
                end))

(* Deterministic stand-in for a hung compile: spins on the ambient tick
   until the request's deadline or fuel budget fires (the server maps
   either to a "deadline" response). Its own local budget bounds even a
   server configured with no deadline and no request fuel. *)
let handle_burn () =
  Guard.with_fuel (Guard.fuel ~what:"burn" ~budget:200_000_000) (fun () ->
      let rec spin () =
        Guard.tick_ambient ();
        spin ()
      in
      spin ())

let handle t req =
  match Json.str_member "op" req with
  | Some "compile" -> (
      try handle_compile t req with
      | Bad_request msg -> svc_error ~code:"bad-request" msg
      | Failure msg | Ir.Lower.Lower_error msg -> svc_error ~code:"invalid-program" msg
      | Ir.Verify.Invalid_ir msg -> svc_error ~code:"invalid-program" msg)
  | Some "upgrade" -> (
      try handle_upgrade t req with
      | Bad_request msg -> svc_error ~code:"bad-request" msg
      | Failure msg | Ir.Lower.Lower_error msg -> svc_error ~code:"invalid-program" msg
      | Ir.Verify.Invalid_ir msg -> svc_error ~code:"invalid-program" msg)
  | Some "burn" -> handle_burn ()
  | Some op -> svc_error ~code:"bad-op" ("unknown op " ^ op)
  | None -> svc_error ~code:"bad-op" "request has no \"op\" field"

let status_extra t () =
  let ( compiles,
        degraded,
        fallbacks,
        incidents_total,
        floor_served,
        optimized_served,
        up_submitted,
        up_done,
        up_failed,
        up_dropped,
        up_pending,
        up_oldest ) =
    counted t (fun () ->
        let now = Mclock.elapsed_s t.clock in
        let pending = Hashtbl.length t.upgrading in
        let oldest =
          Hashtbl.fold
            (fun _ since acc -> Float.max acc (now -. since))
            t.upgrading 0.0
        in
        ( t.compiles,
          t.degraded,
          t.fallbacks,
          t.incidents_total,
          t.floor_served,
          t.optimized_served,
          t.upgrades_submitted,
          t.upgrades_done,
          t.upgrades_failed,
          t.upgrades_dropped,
          pending,
          oldest ))
  in
  let cache = Memo.stats t.cache in
  (match t.shard_name with
  | None -> []
  | Some n -> [ ("shard", Json.Str n) ])
  @ [
    ("compiles", Json.Int compiles);
    ("degraded", Json.Int degraded);
    ("fallbacks", Json.Int fallbacks);
    ("incidents_total", Json.Int incidents_total);
    ( "tiers",
      Json.Obj
        [
          ("floor", Json.Int floor_served);
          ("optimized", Json.Int optimized_served);
        ] );
    ( "upgrades",
      Json.Obj
        [
          ("submitted", Json.Int up_submitted);
          ("pending", Json.Int up_pending);
          ("oldest_pending_age_s", Json.Float up_oldest);
          ("done", Json.Int up_done);
          ("failed", Json.Int up_failed);
          ("dropped", Json.Int up_dropped);
        ] );
    ("breaker_trips", Json.Int (Breaker.trips t.breaker));
    ( "breakers",
      Json.List
        (List.map
           (fun (key, st, failures) ->
             Json.Obj
               [
                 ("scheme", Json.Str key);
                 ("state", Json.Str (Breaker.state_name st));
                 ("consecutive_failures", Json.Int failures);
               ])
           (Breaker.snapshot t.breaker)) );
    ( "cache",
      Json.Obj
        [
          ("hits", Json.Int cache.Memo.hits);
          ("disk_hits", Json.Int cache.Memo.disk_hits);
          ("misses", Json.Int cache.Memo.misses);
          ("quarantined", Json.Int cache.Memo.quarantined);
          ("swaps", Json.Int cache.Memo.swaps);
        ] );
  ]

let handler t : Server.handler =
  { Server.handle = handle t; status_extra = status_extra t }
