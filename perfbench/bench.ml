(* The repository benchmark: four workloads over the range-check
   optimizer and its compile service, one JSON result line.

     bench.exe --workload W --seed N --seconds S --trace 0|1
               --nascentd PATH --rundir DIR

   compile-plain / compile-oracle run the compiler in-process in a
   closed loop; serve-hot / serve-cold drive `nascentd --router` in
   front of two shard daemons over NF1 TCP with an open-loop generator.
   --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
   ledger (see Metrics and README.md). Every run checks every output
   against an in-process reference; a mismatch is printed and counted
   as a failed operation. run.py builds this program and the daemon and
   is the entry point. *)

module Json = Nascent_support.Json
module Mclock = Nascent_support.Mclock
module Server = Nascent_support.Server
module Client = Server.Client
module Journal = Nascent_support.Journal
module Router = Nascent_support.Router
module Frame = Nascent_support.Frame
module Service = Nascent_harness.Service
module Config = Nascent_core.Config
module Optimizer = Nascent_core.Optimizer
module Lower = Nascent_ir.Lower
module Frontend = Nascent_frontend.Frontend
module Run = Nascent_interp.Run
module B = Nascent_benchmarks.Suite
module Stats = Perfbench_stats.Stats
module Metrics = Perfbench_stats.Metrics

(* --- command line --------------------------------------------------- *)

type workload = Compile_plain | Compile_oracle | Serve_hot | Serve_cold

let workloads =
  [
    ("compile-plain", Compile_plain);
    ("compile-oracle", Compile_oracle);
    ("serve-hot", Serve_hot);
    ("serve-cold", Serve_cold);
  ]

type args = {
  workload : workload;
  wname : string;
  seed : int;
  seconds : float;
  trace : bool;
  nascentd : string;
  rundir : string;
  spans_out : string option;  (** traced runs write their spans here *)
}

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

let parse_args () =
  let tbl = Hashtbl.create 8 in
  let rec go = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        Hashtbl.replace tbl (String.sub k 2 (String.length k - 2)) v;
        go rest
    | [] -> ()
    | k :: _ -> die "unexpected argument %s" k
  in
  go (List.tl (Array.to_list Sys.argv));
  let get k = match Hashtbl.find_opt tbl k with Some v -> v | None -> die "missing --%s" k in
  let int k =
    match int_of_string_opt (get k) with Some n -> n | None -> die "--%s: not an integer" k
  in
  let wname = get "workload" in
  let workload =
    match List.assoc_opt wname workloads with Some w -> w | None -> die "unknown workload %s" wname
  in
  let seconds = int "seconds" in
  if seconds < 1 then die "--seconds must be >= 1";
  {
    workload;
    wname;
    seed = int "seed";
    seconds = float_of_int seconds;
    trace = (match get "trace" with "0" -> false | "1" -> true | _ -> die "--trace is 0 or 1");
    nascentd = get "nascentd";
    rundir = get "rundir";
    spans_out = Hashtbl.find_opt tbl "spans";
  }

(* --- results -------------------------------------------------------- *)

let values : (string, float) Hashtbl.t = Hashtbl.create 64
let put name v = Hashtbl.replace values name v
let notes : (string, string) Hashtbl.t = Hashtbl.create 8
let note name s = Hashtbl.replace notes name s
let attempted = ref 0
let failed = ref 0
let mismatches = ref 0

(* A wrong output: printed (the first few in full) and counted. *)
let mismatch ?(count = 1) fmt =
  Printf.ksprintf
    (fun s ->
      failed := !failed + count;
      incr mismatches;
      if !mismatches <= 20 then Printf.printf "MISMATCH: %s\n%!" s)
    fmt

let emit a =
  let names = if a.trace then Metrics.per_layer else Metrics.end_to_end in
  Printf.printf "\n%s seed=%d seconds=%.0f trace=%d\n" a.wname a.seed a.seconds
    (if a.trace then 1 else 0);
  let metrics =
    List.map
      (fun (name, unit) ->
        let v =
          match Hashtbl.find_opt values name with
          | Some v when Float.is_finite v -> v
          | Some _ -> failwith ("non-finite metric " ^ name)
          | None -> failwith ("metric never measured: " ^ name)
        in
        Printf.printf "  %-28s %16.6g %-6s %s\n" name v unit
          (Option.value ~default:"" (Hashtbl.find_opt notes name));
        (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str unit) ]))
      names
  in
  Printf.printf "  %-28s %16.6g %-6s (%d failed of %d attempted)\n" "error_ratio"
    (float_of_int !failed /. float_of_int (max 1 !attempted))
    "ratio" !failed !attempted;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (!failed = 0 && !attempted > 0));
            ("attempted", Json.Int !attempted);
            ("failed", Json.Int !failed);
            ("metrics", Json.Obj metrics);
          ]))

(* --- small helpers -------------------------------------------------- *)

let clock = Mclock.counter ()
let now () = Mclock.elapsed_s clock

let timed f =
  let t = Mclock.counter () in
  let r = f () in
  (r, 1000.0 *. Mclock.elapsed_s t)

let median_list l = Stats.median (Array.of_list l)

let permutation rng n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* A growable float sample buffer. *)
type samples = { mutable data : float array; mutable len : int }

let samples () = { data = Array.make 1024 0.0; len = 0 }

let push s x =
  if s.len = Array.length s.data then begin
    let d = Array.make (2 * s.len) 0.0 in
    Array.blit s.data 0 d 0 s.len;
    s.data <- d
  end;
  s.data.(s.len) <- x;
  s.len <- s.len + 1

let contents s = Array.sub s.data 0 s.len

(* Spans recorded by traced runs, kept in memory and written out by
   [write_spans] when the run ends. *)
let span_log : Stats.span list ref = ref []
let span_count = ref 0

let span name parent start stop =
  let id = !span_count in
  incr span_count;
  span_log := { Stats.id; name; parent; start; stop } :: !span_log;
  id

let write_spans path =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun (s : Stats.span) ->
          Printf.fprintf oc
            "{\"id\":%d,\"name\":%S,\"parent\":%s,\"start_s\":%.9f,\"dur_ms\":%.6f}\n"
            s.Stats.id s.Stats.name
            (match s.Stats.parent with Some p -> string_of_int p | None -> "null")
            s.Stats.start (1000.0 *. (s.Stats.stop -. s.Stats.start)))
        (List.rev !span_log))

(* Every reported tail: the median of the tails of consecutive windows
   of [tail_window] samples (Stats.windowed_tail). *)
let tail_window = 100

(* Compile times come in rounds that each compile every cell once, and
   cells differ widely in cost, so a window that cuts a round holds a
   seed-dependent mix of cells. Their windows hold whole rounds
   instead: the fewest that reach [tail_window] samples. *)
let round_window cells = cells * ((tail_window + cells - 1) / cells)

let tail_of ?(window = tail_window) name a =
  match Stats.windowed_tail ~window a with
  | Some w ->
      note name
        (Printf.sprintf "(median of %d window(s), p%.2f of %d samples each)" w.Stats.windows
           w.Stats.w_pct w.Stats.per_window);
      w.Stats.w_value
  | None -> failwith (Printf.sprintf "%s: only %d samples, no tail" name (Array.length a))

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

(* VmHWM (peak resident set) of a process, in MB. *)
let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  try
    In_channel.with_open_text path (fun ic ->
        let rec go () =
          match In_channel.input_line ic with
          | None -> 0.0
          | Some l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
              Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
                  float_of_int kb /. 1024.0)
          | Some _ -> go ()
        in
        go ())
  with Sys_error _ -> 0.0

(* --- host speed ------------------------------------------------------ *)

(* The benchmark shares a few cores of a host whose speed drifts: in
   spells of seconds to minutes the same compile takes up to 1.6 times
   as long, and no statistic within one run can remove a spell that
   lasts the whole run. So every timed piece of work runs between two
   probes: a fixed piece of allocating OCaml code (map inserts, hash
   table updates, a list sort, scattered array updates) that is part of
   the benchmark and never changes with the program. A timing is
   reported at reference speed: multiplied by [ref_ms] over the mean of
   its two probes. On the host the benchmark was defined on, the probe
   took 6.1-6.4 ms in quiet spells and tracked the compiler's slow
   spells closely; with it, 35 s medians of compile throughput moved
   3% where the raw ones moved 18%. *)
module Host = struct
  module IM = Map.Make (Int)

  let ref_ms = 6.0
  let seen = ref []

  let probe_ms () =
    let t = Mclock.counter () in
    let x = ref 12345 in
    let next () =
      x := ((!x * 1103515245) + 12345) land 0x3fffffff;
      !x
    in
    let m = ref IM.empty in
    for _ = 1 to 7500 do
      m := IM.add (next () land 0xffff) (next ()) !m
    done;
    let h = Hashtbl.create 16 in
    for i = 1 to 7500 do
      Hashtbl.replace h (string_of_int (next () land 0xfff)) i
    done;
    let sorted = List.sort compare (List.init 7500 (fun _ -> next ())) in
    let a = Array.init 4096 (fun _ -> Array.make 8 0) in
    for _ = 1 to 50000 do
      let i = next () land 4095 in
      a.(i).(i land 7) <- a.(i).(i land 7) + 1
    done;
    ignore
      (Sys.opaque_identity (IM.cardinal !m + Hashtbl.length h + List.length sorted + a.(0).(0)));
    let ms = 1000.0 *. Mclock.elapsed_s t in
    seen := ms :: !seen;
    ms

  (* The factor that brings a timing between probes [before] and
     [after] to reference speed. *)
  let factor ~before ~after = ref_ms /. (0.5 *. (before +. after))

  let note_speed name =
    note name
      (Printf.sprintf "(at reference speed: probe median %.2f ms of %d, reference %.1f ms)"
         (median_list !seen) (List.length !seen) ref_ms)
end

(* --- compiling: the cells, the reference, the gate ------------------- *)

type cell = { bench : B.benchmark; config : Config.t }

let cell_name c = Format.asprintf "%s %a" c.bench.B.name Config.pp c.config

let matrix ~schemes ~oracle =
  List.concat_map
    (fun bench ->
      List.concat_map
        (fun scheme ->
          List.map
            (fun kind -> { bench; config = Config.make ~scheme ~kind ~oracle () })
            [ Config.PRX; Config.INX ])
        schemes)
    B.all

let compile_cells = function
  | Compile_oracle -> matrix ~schemes:[ Config.LLS; Config.ALL ] ~oracle:true
  | _ -> matrix ~schemes:Config.extended_schemes ~oracle:false

(* The compile unit every workload times: what Service and nascentc
   do for one cell. *)
let compile c =
  let ir = Lower.of_source c.bench.B.source in
  Optimizer.optimize ~config:c.config ir

(* The naive lowered program's observable behaviour, per benchmark: the
   reference every optimized program must reproduce. *)
let naive_reference () =
  List.map (fun b -> (b.B.name, Run.run (Lower.of_source b.B.source))) B.all

(* The correctness gate for one compiled cell: same prints, trap and
   error as the naive program, no rolled-back pass, and a certificate
   when the oracle ran. [weight] is how many timed operations the cell
   stands for. Returns the interpreter outcome and its time. *)
let gate ~naive ~weight c (prog, (st : Optimizer.stats)) =
  let o, ms = timed (fun () -> Run.run prog) in
  let r = List.assoc c.bench.B.name naive in
  let bad why = mismatch ~count:weight "%s: %s" (cell_name c) why in
  if o.Run.printed <> r.Run.printed then bad "prints differ from the naive program";
  if o.Run.trap <> r.Run.trap then bad "trap differs from the naive program";
  if o.Run.error <> r.Run.error then bad "runtime error differs from the naive program";
  if o.Run.fuel_exhausted then bad "ran out of interpreter fuel";
  if st.Optimizer.incidents <> [] then
    bad (Printf.sprintf "%d rolled-back pass(es)" (List.length st.Optimizer.incidents));
  if c.config.Config.oracle && Optimizer.validated st <> Some true then
    bad "oracle compile carries no validation certificate";
  (o, ms)

(* Static counters and the interpreter's dynamic counts over the
   distinct compiled programs, plus the correctness gate for each. *)
let check_programs ~naive ~weights cells results =
  let dyn_checks = ref 0 and dyn_instrs = ref 0 and guards = ref 0 in
  let run_ms = ref 0.0 in
  let after = ref 0 and deleted = ref 0 and hoisted = ref 0 in
  let oracle_deleted = ref 0 and incidents = ref 0 and certified = ref 0 in
  Array.iteri
    (fun i c ->
      let ((_, st) as r) = results.(i) in
      let o, ms = gate ~naive ~weight:weights.(i) c r in
      dyn_checks := !dyn_checks + o.Run.checks;
      dyn_instrs := !dyn_instrs + o.Run.instrs;
      guards := !guards + o.Run.cond_guards;
      run_ms := !run_ms +. ms;
      after := !after + st.Optimizer.static_checks_after;
      deleted := !deleted + st.Optimizer.redundant_deleted;
      hoisted := !hoisted + st.Optimizer.hoisted_invariant + st.Optimizer.hoisted_linear;
      List.iter
        (fun (p : Optimizer.pass_stat) ->
          if p.Optimizer.pass = "oracle-elim" then
            oracle_deleted :=
              !oracle_deleted + p.Optimizer.pass_checks_before - p.Optimizer.pass_checks_after)
        st.Optimizer.passes;
      incidents := !incidents + List.length st.Optimizer.incidents;
      if Optimizer.validated st = Some true then incr certified)
    cells;
  let n = float_of_int (Array.length cells) in
  put "dyn_checks" (float_of_int !dyn_checks);
  put "dyn_instrs" (float_of_int !dyn_instrs);
  put "interp.run_ms" (!run_ms /. n);
  put "interp.cond_guards" (float_of_int !guards);
  put "core.static_checks_after" (float_of_int !after);
  put "core.redundant_deleted" (float_of_int !deleted);
  put "core.hoisted" (float_of_int !hoisted);
  put "core.oracle_deleted" (float_of_int !oracle_deleted);
  put "core.incidents" (float_of_int !incidents);
  put "ir.validate.certified" (float_of_int !certified)

(* Closed-loop compile rounds: every round compiles each cell once, in a
   seeded order; rounds repeat until [budget_s] is spent (at least
   one). The compiles run in segments of about [segment_s], each
   between two host-speed probes, and every compile time is also kept
   scaled by its segment's speed factor (Host). *)
type rounds = {
  raw : float array;  (** ms per compile, in measured order *)
  scaled : float array;  (** the same at reference host speed *)
  per_round : float array;  (** compiles/s per round, at reference speed *)
  counts : int array;  (** how often each cell ran *)
  last : (Nascent_ir.Program.t * Optimizer.stats) array;  (** each cell's last result *)
}

let segment_s = 0.04

let compile_rounds ~rng ~budget_s cells =
  let n = Array.length cells in
  let raw = samples () and scaled = samples () in
  let per_round = samples () in
  let counts = Array.make n 0 in
  let last = Array.make n None in
  (* start every timed loop from a compacted heap, so garbage left by
     earlier phases is not collected on this loop's clock *)
  Gc.compact ();
  let before = ref (Host.probe_ms ()) in
  let t0 = now () in
  while per_round.len = 0 || now () -. t0 < budget_s do
    let round_s = ref 0.0 in
    let seg = ref [] and seg_t0 = ref (now ()) in
    let close_segment () =
      let after = Host.probe_ms () in
      let f = Host.factor ~before:!before ~after in
      List.iter
        (fun ms ->
          push raw ms;
          push scaled (ms *. f);
          round_s := !round_s +. (ms *. f /. 1000.0))
        (List.rev !seg);
      seg := [];
      before := after;
      seg_t0 := now ()
    in
    Array.iter
      (fun i ->
        let r, ms = timed (fun () -> compile cells.(i)) in
        seg := ms :: !seg;
        counts.(i) <- counts.(i) + 1;
        last.(i) <- Some r;
        if now () -. !seg_t0 >= segment_s then close_segment ())
      (permutation rng n);
    if !seg <> [] then close_segment ();
    push per_round (float_of_int n /. !round_s)
  done;
  {
    raw = contents raw;
    scaled = contents scaled;
    per_round = contents per_round;
    counts;
    last = Array.map Option.get last;
  }

(* The same rounds with a span around every layer call: frontend, ir
   lowering and core.optimize, whose children are the optimizer's own
   per-pass records. Returns the per-compile times, the spans and the
   summed outer step time. *)
let traced_rounds ~rng ~budget_s cells =
  let n = Array.length cells in
  let times = samples () in
  let first = !span_count in
  let total = ref 0.0 in
  let t0 = now () in
  while now () -. t0 < budget_s || times.len = 0 do
    Array.iter
      (fun i ->
        let c = cells.(i) in
        let s0 = now () in
        let _, env = Frontend.analyze_exn c.bench.B.source in
        let s1 = now () in
        let ir = Lower.lower_program env in
        let s2 = now () in
        let _, st = Optimizer.optimize ~config:c.config ir in
        let s3 = now () in
        let root = span "compile" None s0 s3 in
        ignore (span "frontend" (Some root) s0 s1);
        ignore (span "ir.lower" (Some root) s1 s2);
        let opt = span "core.optimize" (Some root) s2 s3 in
        let at = ref s2 in
        List.iter
          (fun (p : Optimizer.pass_stat) ->
            let d = p.Optimizer.pass_time_s in
            ignore (span ("core.pass." ^ p.Optimizer.pass) (Some opt) !at (!at +. d));
            at := !at +. d)
          st.Optimizer.passes;
        let s4 = now () in
        total := !total +. (s4 -. s0);
        push times (1000.0 *. (s3 -. s0)))
      (permutation rng n)
  done;
  let spans = List.filter (fun (s : Stats.span) -> s.Stats.id >= first) !span_log in
  (contents times, spans, !total)

(* Per-layer means per compile from traced spans, the self-time
   residual, and the verify cost: each cell compiled with the verifier
   on and off, interleaved. *)
let layer_ledger ~rng ~budget_s ~verify_budget_s cells =
  let times, spans, total = traced_rounds ~rng ~budget_s cells in
  let n = float_of_int (Array.length times) in
  let selves = Stats.self_times spans in
  let self name = Option.value ~default:0.0 (List.assoc_opt name selves) in
  let inclusive name =
    List.fold_left
      (fun a (s : Stats.span) ->
        if s.Stats.name = name then a +. (s.Stats.stop -. s.Stats.start) else a)
      0.0 spans
  in
  let per_compile x = 1000.0 *. x /. n in
  put "frontend.ms" (per_compile (self "frontend"));
  put "ir.lower.ms" (per_compile (self "ir.lower"));
  put "core.optimize.ms" (per_compile (inclusive "core.optimize"));
  put "core.other.ms" (per_compile (self "core.optimize"));
  List.iter
    (fun p -> put ("core.pass." ^ p ^ ".ms") (per_compile (self ("core.pass." ^ p))))
    Metrics.passes;
  (* layers: every span but the per-compile root; the root's own time
     and the loop's bookkeeping are what no layer accounts for *)
  let layers = List.filter (fun (name, _) -> name <> "compile") selves in
  let residual = Stats.residual ~total layers in
  (* verify on minus off, same cell, back to back *)
  let diffs = samples () in
  let t0 = now () in
  while now () -. t0 < verify_budget_s || diffs.len = 0 do
    Array.iter
      (fun i ->
        let c = cells.(i) in
        let off = { c with config = { c.config with Config.verify = false } } in
        let _, on_ms = timed (fun () -> compile c) in
        let _, off_ms = timed (fun () -> compile off) in
        push diffs (on_ms -. off_ms))
      (permutation rng (Array.length cells))
  done;
  put "ir.verify.ms" (Stats.mean (contents diffs));
  (times, per_compile residual, residual /. total)

(* --- open-loop workload shape ---------------------------------------- *)

(* Per-workload fixed offered rates (requests/s), well below capacity
   even when the host runs slow; the ladder max_rps is taken from
   ([step] apart, the two fixed rates included: 3% for the compile
   workloads, whose rungs are replays and cost nothing, 12% for the
   serve workloads, whose rungs are live probes); and the latency limit
   the ladder's tail must meet. *)
type shape = { low : float; high : float; ladder : float array; limit_ms : float }

let make_shape ~low ~high ~limit_ms ~from ~upto ~step =
  let rec steps r acc = if r > upto then acc else steps (r *. step) (r :: acc) in
  let ladder = List.sort_uniq compare (low :: high :: steps from []) in
  { low; high; limit_ms; ladder = Array.of_list ladder }

let shape = function
  | Compile_plain -> make_shape ~low:30. ~high:90. ~limit_ms:50. ~from:25. ~upto:1600. ~step:1.03
  | Compile_oracle -> make_shape ~low:2. ~high:4. ~limit_ms:500. ~from:1. ~upto:80. ~step:1.03
  | Serve_hot -> make_shape ~low:400. ~high:1000. ~limit_ms:50. ~from:100. ~upto:4000. ~step:1.12
  | Serve_cold -> make_shape ~low:40. ~high:120. ~limit_ms:100. ~from:12.5 ~upto:1000. ~step:1.12

(* The open-loop metrics of a compile workload: the measured compile
   times replayed through one FIFO worker at each fixed rate. *)
let replay_metrics sh ~window times =
  let at rate = Stats.replay ~window ~rate times in
  let lat_low, _ = at sh.low in
  let lat_high, _ = at sh.high in
  put "p50_ms_low" (Stats.median lat_low);
  put "tail_ms_low" (tail_of ~window "tail_ms_low" lat_low);
  put "p50_ms_high" (Stats.median lat_high);
  put "tail_ms_high" (tail_of ~window "tail_ms_high" lat_high);
  let best =
    Array.fold_left
      (fun acc rate ->
        let _, r = at rate in
        if Stats.rung_ok ~limit_ms:sh.limit_ms r then Some r else acc)
      None sh.ladder
  in
  match best with
  | Some r ->
      put "max_rps" r.Stats.achieved;
      note "max_rps" (Printf.sprintf "(rung %.0f/s, queue replay)" r.Stats.offered)
  | None ->
      put "max_rps" 0.0;
      note "max_rps" "(no rung met the limit)"

(* --- compile workloads ------------------------------------------------ *)

let setup_reps = 3

let run_compile a =
  let cells = Array.of_list (compile_cells a.workload) in
  let rng = Random.State.make [| a.seed |] in
  (* Set-up: the naive reference runs and one warm compile of every
     cell, repeated, each between two host-speed probes; setup_s is the
     median at reference speed. *)
  let naive = ref [] in
  let setups =
    List.init setup_reps (fun _ ->
        let before = Host.probe_ms () in
        let (), ms =
          timed (fun () ->
              naive := naive_reference ();
              Array.iter (fun c -> ignore (compile c)) cells)
        in
        ms /. 1000.0 *. Host.factor ~before ~after:(Host.probe_ms ()))
  in
  put "setup_s" (median_list setups);
  let naive = !naive in
  if not a.trace then begin
    let r = compile_rounds ~rng ~budget_s:a.seconds cells in
    attempted := !attempted + Array.length r.scaled;
    put "compile_per_s" (Stats.median r.per_round);
    Host.note_speed "compile_per_s";
    put "compile_p50_ms" (Stats.median r.scaled);
    let window = round_window (Array.length cells) in
    put "compile_tail_ms" (tail_of ~window "compile_tail_ms" r.scaled);
    check_programs ~naive ~weights:r.counts cells r.last;
    (* before the replays, whose latency arrays are benchmark garbage *)
    put "peak_rss_mb" (vm_hwm_mb "self");
    replay_metrics (shape a.workload) ~window r.scaled
  end
  else begin
    (* untraced, then traced: the p50 difference is the tracing cost *)
    let plain = compile_rounds ~rng ~budget_s:(0.35 *. a.seconds) cells in
    let traced, residual_ms, residual_share =
      layer_ledger ~rng ~budget_s:(0.35 *. a.seconds) ~verify_budget_s:(0.3 *. a.seconds) cells
    in
    attempted := !attempted + Array.length plain.raw;
    (* both sides unscaled: the spans are host time *)
    put "trace.overhead_ms" (Stats.median traced -. Stats.median plain.raw);
    put "trace.residual_ms" residual_ms;
    put "trace.residual_share" residual_share;
    check_programs ~naive ~weights:plain.counts cells plain.last
  end

(* --- serve workloads: processes and hygiene ---------------------------- *)

let children : int list ref = ref []

let spawn a ~log argv =
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644 in
  let pid =
    Unix.create_process a.nascentd (Array.of_list (a.nascentd :: argv)) Unix.stdin fd fd
  in
  Unix.close fd;
  children := pid :: !children;
  pid

(* SIGTERM (graceful drain), then SIGKILL whatever is left after a
   grace period; always reaps. *)
let stop_pids pids =
  List.iter (fun pid -> try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ()) pids;
  let deadline = now () +. 5.0 in
  let rec reap pid =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline ->
        Unix.sleepf 0.02;
        reap pid
    | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap pid
    | exception Unix.Unix_error _ -> ()
  in
  List.iter reap pids;
  children := List.filter (fun p -> not (List.mem p pids)) !children

let wait_file path =
  let deadline = now () +. 30.0 in
  while not (Sys.file_exists path) do
    if now () > deadline then failwith ("daemon never bound " ^ path);
    Unix.sleepf 0.001
  done

let status sock =
  match Client.request_retry ~seed:1 sock (Json.Obj [ ("op", Json.Str "status") ]) with
  | Ok st -> st
  | Error e -> failwith ("status " ^ sock ^ ": " ^ e)

let tcp_of sock =
  match Json.int_member "tcp_port" (status sock) with
  | Some p -> Client.Tcp ("127.0.0.1", p)
  | None -> failwith ("no tcp_port from " ^ sock)

type daemon = { name : string; pid : int; sock : string; tcp : Client.address }

type topology = { dir : string; shards : daemon list; router : daemon }

(* Two shard daemons, each with its own journal directory (and so its
   own state file), behind a router; every path is unique to [dir]. *)
let start_topology a dir =
  Unix.mkdir dir 0o755;
  let shard i =
    let name = Printf.sprintf "s%d" i in
    let sock = Filename.concat dir (name ^ ".sock") in
    let pid =
      spawn a ~log:(Filename.concat dir (name ^ ".log"))
        [ "--socket"; sock; "--tcp"; "127.0.0.1:0"; "--shard-name"; name;
          "--journal-dir"; Filename.concat dir ("j" ^ name) ]
    in
    (name, pid, sock)
  in
  let raw = List.init 2 shard in
  let rsock = Filename.concat dir "r.sock" in
  List.iter (fun (_, _, sock) -> wait_file sock) raw;
  let rpid =
    spawn a ~log:(Filename.concat dir "r.log")
      ([ "--router"; "--socket"; rsock; "--tcp"; "127.0.0.1:0" ]
      @ List.concat_map (fun (name, _, sock) -> [ "--shard"; name ^ "=" ^ sock ]) raw)
  in
  wait_file rsock;
  let shards = List.map (fun (name, pid, sock) -> { name; pid; sock; tcp = tcp_of sock }) raw in
  { dir; shards; router = { name = "router"; pid = rpid; sock = rsock; tcp = tcp_of rsock } }

let stop_topology t =
  stop_pids (t.router.pid :: List.map (fun d -> d.pid) t.shards);
  rm_rf t.dir

(* --- serve workloads: the request stream -------------------------------- *)

let serve_schemes = [ "NI"; "LLS"; "CS"; "ALL" ]

(* The 40 built-in cells: benchmark x {NI, LLS, CS, ALL}. *)
let serve_cells =
  Array.of_list
    (List.concat_map (fun b -> List.map (fun s -> (b, s)) serve_schemes) B.all)

(* A synchronous compile of a built-in cell: how set-up prewarms. *)
let sync_request (b, s) =
  Json.Obj
    [ ("op", Json.Str "compile"); ("benchmark", Json.Str b.B.name); ("scheme", Json.Str s);
      ("tier", Json.Str "sync") ]

type stream = { reqs : Json.t array; cell : int array; req_bytes : int array }

(* [n] requests in seeded rounds over the 40 cells (every round visits
   each cell once; the order depends on the seed alone, so streams with
   different tags visit the same cells in the same order). Hot requests
   name the built-in program; cold ones carry its source behind a
   comment line unique to (seed, tag, i), so the compile work is the
   same but every memo key is new. *)
let make_stream ~cold ~seed ~tag n =
  let rng = Random.State.make [| seed |] in
  let k = Array.length serve_cells in
  let order = ref [||] in
  let cell =
    Array.init n (fun i ->
        if i mod k = 0 then order := permutation rng k;
        !order.(i mod k))
  in
  let reqs =
    Array.mapi
      (fun i c ->
        let b, s = serve_cells.(c) in
        let program =
          if cold then
            ("source", Json.Str (Printf.sprintf "! perfbench %d %s %d\n%s" seed tag i b.B.source))
          else ("benchmark", Json.Str b.B.name)
        in
        Json.Obj [ ("op", Json.Str "compile"); program; ("scheme", Json.Str s) ])
      cell
  in
  let req_bytes = Array.map (fun r -> String.length (Json.to_string r)) reqs in
  { reqs; cell; req_bytes }

let sub_stream st off len =
  let sub a = Array.sub a off len in
  { reqs = sub st.reqs; cell = sub st.cell; req_bytes = sub st.req_bytes }

(* What a response claims, kept for the gate. *)
type answer = {
  a_ok : bool;
  a_refused : bool;  (** a retryable refusal: shed under overload *)
  a_tier : string;
  a_scheme : string;
  a_checks : int;
  a_bytes : int;
}

let no_answer =
  { a_ok = false; a_refused = false; a_tier = "-"; a_scheme = "-"; a_checks = -1; a_bytes = 0 }

let answer_of resp =
  {
    a_ok = Json.str_member "status" resp = Some "ok";
    a_refused = Json.bool_member "retryable" resp = Some true;
    a_tier = Option.value ~default:"-" (Json.str_member "tier" resp);
    a_scheme = Option.value ~default:"-" (Json.str_member "scheme_used" resp);
    a_checks = Option.value ~default:(-1) (Json.int_member "checks_after" resp);
    a_bytes = String.length (Json.to_string resp);
  }

(* --- serve workloads: the load generator --------------------------------

   One connection and two threads, so the generator fits a two-core
   host: this thread sends on a fixed schedule, a receiver thread
   matches responses to their frame ids. Latency runs from the scheduled send time, so a
   late generator cannot hide queueing; how late it ran is kept too. *)
type phase = {
  lat : float array;  (** ms, scheduled send to response; infinity if none *)
  lag : float array;  (** ms, actual minus scheduled send *)
  answers : answer array;
  rung : Stats.rung;
  p_stream : stream;
  mutable over_capacity : bool;
      (** a max_rps rung that failed the rule: its retryable refusals
          are the overload the probe looked for, not wrong answers *)
}

let open_loop ?(trace = false) ~addr ~rate ~duration stream =
  let n = max 1 (int_of_float (rate *. duration)) in
  if n > Array.length stream.reqs then invalid_arg "open_loop: stream too short";
  Gc.compact ();
  let conn = Client.connect_addr ~recv_timeout_s:20.0 addr in
  let sched = Array.init n (fun i -> float_of_int i /. rate) in
  let lat = Array.make n infinity in
  let lag = Array.make n 0.0 in
  let answers = Array.make n no_answer in
  (* traced: when each send returned and each response was decoded *)
  let sent_at = Array.make (if trace then n else 0) 0.0 in
  let done_at = Array.make (if trace then n else 0) 0.0 in
  let received = Atomic.make 0 in
  let t0 = Mclock.counter () in
  let first = ref (-1) in
  let receiver () =
    let rec loop () =
      if Atomic.get received < n then
        match Client.pipeline_recv conn with
        | Ok (Some (fid, resp)) ->
            let i = fid - !first in
            if i >= 0 && i < n then begin
              let t = Mclock.elapsed_s t0 in
              lat.(i) <- 1000.0 *. (t -. sched.(i));
              answers.(i) <- answer_of resp;
              if trace then done_at.(i) <- t
            end;
            Atomic.incr received;
            loop ()
        | Ok None | Error _ | (exception _) -> Atomic.set received n
    in
    loop ()
  in
  let rx = ref None in
  let backlog_mid = ref 0 and backlog_end = ref 0 in
  for i = 0 to n - 1 do
    let wait = sched.(i) -. Mclock.elapsed_s t0 in
    if wait > 0.0 then Thread.delay wait;
    lag.(i) <- 1000.0 *. (Mclock.elapsed_s t0 -. sched.(i));
    (match Client.pipeline_send conn stream.reqs.(i) with
    | fid -> if i = 0 then first := fid
    | exception _ -> Atomic.incr received);
    if trace then sent_at.(i) <- Mclock.elapsed_s t0;
    if i = 0 then rx := Some (Thread.create receiver ());
    if i = n / 2 then backlog_mid := i + 1 - Atomic.get received;
    if i = n - 1 then backlog_end := n - Atomic.get received
  done;
  Option.iter Thread.join !rx;
  let elapsed = Mclock.elapsed_s t0 in
  (try Client.close conn with _ -> ());
  (* request i: root span from its scheduled time to its response, the
     generator's lateness and the send as children; the rest of the
     root is the service's *)
  if trace then
    for i = 0 to n - 1 do
      if done_at.(i) > 0.0 then begin
        let root = span "request" None sched.(i) done_at.(i) in
        let start = sched.(i) +. (lag.(i) /. 1000.0) in
        ignore (span "loadgen.lag" (Some root) sched.(i) start);
        ignore (span "frame.send" (Some root) start sent_at.(i))
      end
    done;
  let errors = Array.fold_left (fun a x -> if x.a_ok then a else a + 1) 0 answers in
  let ok_lat = Array.of_list (List.filter Float.is_finite (Array.to_list lat)) in
  let rung =
    {
      Stats.offered = rate;
      achieved = float_of_int (n - errors) /. elapsed;
      tail_ms =
        (match Stats.windowed_tail ~window:tail_window ok_lat with
        | Some t -> t.Stats.w_value
        | None -> infinity);
      errors;
      sent = n;
      backlog_mid = !backlog_mid;
      backlog_end = !backlog_end;
    }
  in
  { lat; lag; answers; rung; p_stream = stream; over_capacity = false }

let ok_latencies p =
  Array.of_list
    (List.filteri (fun i x -> Float.is_finite x && p.answers.(i).a_ok) (Array.to_list p.lat))

(* --- serve workloads: reference and gate -------------------------------- *)

(* The in-process reference for every served cell: compiled in seeded
   rounds like the compile workloads, the last result per cell giving
   the reference program and static check count. *)
let serve_reference_cells =
  Array.map
    (fun (b, s) ->
      { bench = b; config = Config.make ~scheme:(Option.get (Config.scheme_of_name s)) () })
    serve_cells

type reference = {
  r_times : samples;
  r_rounds : samples;
  mutable r_last : (Nascent_ir.Program.t * Optimizer.stats) array;
}

let reference_rounds rf ~rng ~budget_s =
  let r = compile_rounds ~rng ~budget_s serve_reference_cells in
  Array.iter (push rf.r_times) r.scaled;
  Array.iter (push rf.r_rounds) r.per_round;
  rf.r_last <- r.last

let cell_index bname sname =
  let rec go i =
    if i = Array.length serve_cells then -1
    else
      let b, s = serve_cells.(i) in
      if b.B.name = bname && s = sname then i else go (i + 1)
  in
  go 0

(* Every response: status ok, a tier, and the static check count of the
   in-process reference for the scheme the response says it used (the
   NI floor for tier "floor"). Returns the distinct reference cells
   that were served. *)
let gate_answers ~ref_checks phases =
  let served = Hashtbl.create 64 in
  List.iter
    (fun p ->
      Array.iteri
        (fun i ans ->
          let b, s = serve_cells.(p.p_stream.cell.(i)) in
          let where = Printf.sprintf "%s %s request %d" b.B.name s i in
          if p.over_capacity && ans.a_refused then ()
          else if (incr attempted; not ans.a_ok) then mismatch "%s: no ok response" where
          else
            let expect_scheme = if ans.a_tier = "floor" then "NI" else s in
            let ci = cell_index b.B.name ans.a_scheme in
            if ans.a_scheme <> expect_scheme || ci < 0 then
              mismatch "%s: tier %s served scheme %s" where ans.a_tier ans.a_scheme
            else if ans.a_checks <> ref_checks.(ci) then
              mismatch "%s: checks_after %d, reference %d" where ans.a_checks ref_checks.(ci)
            else Hashtbl.replace served ci ())
        p.answers)
    phases;
  Hashtbl.fold (fun k () acc -> k :: acc) served [] |> List.sort compare |> Array.of_list

(* --- serve workloads: status counters ------------------------------------ *)

let counter path st =
  let rec go j = function
    | [] -> Option.value ~default:0.0 (Json.to_float j)
    | k :: rest -> ( match Json.member k j with Some v -> go v rest | None -> 0.0)
  in
  go st path

type snapshot = { shard_st : Json.t list; router_st : Json.t }

let snapshot t =
  { shard_st = List.map (fun d -> status d.sock) t.shards; router_st = status t.router.sock }

(* Wait (at most 5 s) until no shard has queued, running or background
   work left. *)
let wait_idle t =
  let busy () =
    List.exists
      (fun d ->
        let st = status d.sock in
        List.exists
          (fun k -> counter [ k ] st > 0.0)
          [ "queue_depth"; "inflight"; "bg_pending"; "bg_inflight" ])
      t.shards
  in
  let deadline = now () +. 5.0 in
  while busy () && now () < deadline do
    Unix.sleepf 0.01
  done

let shard_sum path s = List.fold_left (fun a st -> a +. counter path st) 0.0 s.shard_st

let status_deltas ~before ~after =
  let d path = shard_sum path after -. shard_sum path before in
  let ratio a b = if a +. b > 0.0 then a /. (a +. b) else 0.0 in
  put "memo.hit_ratio" (ratio (d [ "cache"; "hits" ]) (d [ "cache"; "misses" ]));
  put "service.floor_ratio" (ratio (d [ "tiers"; "floor" ]) (d [ "tiers"; "optimized" ]));
  put "server.bg_pending_end" (shard_sum [ "bg_pending" ] after);
  put "server.shed"
    (d [ "shed" ] +. counter [ "shed" ] after.router_st -. counter [ "shed" ] before.router_st);
  put "router.failovers"
    (counter [ "router"; "failovers" ] after.router_st
    -. counter [ "router"; "failovers" ] before.router_st)

(* --- serve workloads: the traced ledger ----------------------------------- *)

(* Closed loop, one request in flight, alternating via the router and
   straight to the shard Router.route picks: the pair isolates the hop. *)
let paired_hop t ~cold ~seed n =
  let router =
    Router.create ~shards:(List.map (fun d -> { Router.name = d.name; address = d.tcp }) t.shards) ()
  in
  let via = make_stream ~cold ~seed ~tag:"via" n in
  let direct = make_stream ~cold ~seed ~tag:"direct" n in
  let rconn = Client.connect_addr ~recv_timeout_s:20.0 t.router.tcp in
  let via_ms = samples () and direct_ms = samples () in
  List.iter
    (fun d ->
      let dconn = Client.connect_addr ~recv_timeout_s:20.0 d.tcp in
      for i = 0 to n - 1 do
        let target = List.hd (Router.route router (Router.shard_key direct.reqs.(i))) in
        if target.Router.name = d.name then begin
          let exchange conn req =
            match timed (fun () -> Client.request conn req) with
            | Ok r, ms when Json.str_member "status" r = Some "ok" -> Some ms
            | Ok r, _ -> mismatch "hop probe: %s" (Json.to_string r); None
            | Error e, _ -> mismatch "hop probe: %s" e; None
          in
          incr attempted;
          incr attempted;
          Option.iter (push via_ms) (exchange rconn via.reqs.(i));
          Option.iter (push direct_ms) (exchange dconn direct.reqs.(i))
        end
      done;
      Client.close dconn)
    t.shards;
  Client.close rconn;
  (Stats.median (contents via_ms), Stats.median (contents direct_ms))

(* The compile service's handler in-process, on the same streams: hits
   after a synchronous prewarm, misses on fresh sources. The upgrade
   lane is a stub that accepts and drops, as the daemon's live path
   only enqueues. *)
let handler_ms a ~seed n =
  let svc = Service.create ~state_path:(Filename.concat a.rundir "svc-state.json") () in
  Service.set_upgrade_submit svc (fun _ -> true);
  let h = (Service.handler svc).Server.handle in
  Array.iter (fun c -> ignore (h (sync_request c))) serve_cells;
  let time stream =
    Stats.median
      (Array.map
         (fun req ->
           let r, ms = timed (fun () -> h req) in
           if Json.str_member "status" r <> Some "ok" then
             mismatch "in-process handler: %s" (Json.to_string r);
           ms)
         stream.reqs)
  in
  let hit = time (make_stream ~cold:false ~seed ~tag:"handler-hit" n) in
  let miss = time (make_stream ~cold:true ~seed ~tag:"handler-miss" n) in
  (hit, miss)

(* Journal.append + mark_done with fsync on, same payloads, same
   filesystem as the shards' journals. *)
let journal_ms a stream =
  let dir = Filename.concat a.rundir "journal-probe" in
  match Journal.openj ~dir () with
  | Error e -> failwith ("journal probe: " ^ e)
  | Ok j ->
      let ms =
        Array.map
          (fun req ->
            snd (timed (fun () -> Journal.mark_done j (Journal.append j (Json.to_string req)))))
          stream.reqs
      in
      Journal.close j;
      rm_rf dir;
      Stats.median ms

(* NF1 encode + decode of one request and its response, both ends'
   share of the frame layer. *)
let codec_ms stream answers =
  let n = Array.length answers in
  Stats.median
    (Array.init n (fun i ->
         let resp = String.make (max 1 answers.(i).a_bytes) 'x' in
         snd
           (timed (fun () ->
                let dec = Frame.decoder () in
                List.iter
                  (fun payload ->
                    let f = Frame.encode ~id:i payload in
                    Frame.feed dec f ~off:0 ~len:(String.length f);
                    ignore (Frame.next dec))
                  [ Json.to_string stream.reqs.(i); resp ];
                ignore (Json.parse (Json.to_string stream.reqs.(i)))))))

(* --- serve workloads ------------------------------------------------------- *)

let run_serve ?(compile_ledger = true) a =
  let cold = a.workload = Serve_cold in
  let sh = shape a.workload in
  let rng = Random.State.make [| a.seed |] in
  (* prewarm: every cell compiled synchronously, so the hot stream only
     ever hits the memo *)
  let prewarm t =
    let conn = Client.connect_addr ~recv_timeout_s:30.0 t.router.tcp in
    Array.iter
      (fun c ->
        match Client.request conn (sync_request c) with
        | Ok r when Json.str_member "status" r = Some "ok" -> ()
        | Ok r -> failwith ("prewarm: " ^ Json.to_string r)
        | Error e -> failwith ("prewarm: " ^ e))
      serve_cells;
    Client.close conn
  in
  (* set-up: spawn to ready (plus the prewarm for serve-hot), repeated
     on fresh directories; the last topology is the one measured *)
  let topo = ref None in
  let setups =
    List.init setup_reps (fun k ->
        Option.iter stop_topology !topo;
        let t, ms =
          timed (fun () ->
              let t = start_topology a (Filename.concat a.rundir (Printf.sprintf "t%d" k)) in
              if not cold then prewarm t;
              t)
        in
        topo := Some t;
        ms /. 1000.0)
  in
  let t = Option.get !topo in
  put "setup_s" (median_list setups);
  let stream tag n = make_stream ~cold ~seed:a.seed ~tag n in
  let before = snapshot t in
  let phases = ref [] in
  let run_phase ?trace ~rate ~duration st =
    let p = open_loop ?trace ~addr:t.router.tcp ~rate ~duration st in
    phases := p :: !phases;
    p
  in
  (* A fixed rate is measured in [slices] short open-loop slices spread
     over the whole run, alternating with the other rate (and the
     max_rps probes), so every metric samples the same mix of the
     host's fast and slow spells. Slice [j] sends the [j]-th piece of
     one stream. *)
  let slices = 6 in
  let sliced tag ~rate ~total_s =
    let per = max 1 (int_of_float (rate *. total_s /. float_of_int slices)) in
    let st = stream tag (per * slices) in
    fun ?trace j ->
      run_phase ?trace ~rate ~duration:(float_of_int per /. rate) (sub_stream st (j * per) per)
  in
  let joined ps = Array.concat (List.rev_map ok_latencies ps) in
  let rf = { r_times = samples (); r_rounds = samples (); r_last = [||] } in
  let s = a.seconds in
  if not a.trace then begin
    let low = sliced "low" ~rate:sh.low ~total_s:(0.175 *. s) in
    let high = sliced "high" ~rate:sh.high ~total_s:(0.175 *. s) in
    (* max_rps: bisection over the ladder, one step after each pair of
       slices; a fixed rate whose first slice met the rule seeds it *)
    let len = Array.length sh.ladder in
    let ok p = Stats.rung_ok ~limit_ms:sh.limit_ms p.rung in
    let index r =
      let rec go i = if sh.ladder.(i) = r then i else go (i + 1) in
      go 0
    in
    let results = Hashtbl.create 8 in
    let probe_s = 0.05 *. s in
    (* a rung that fails is probed once more before it counts as
       failed, so one stall of the host does not end the search *)
    let probe i =
      let attempt k =
        let p =
          run_phase ~rate:sh.ladder.(i) ~duration:probe_s
            (stream (Printf.sprintf "rung%d.%d" i k) (int_of_float (sh.ladder.(i) *. probe_s) + 1))
        in
        p.over_capacity <- not (ok p);
        if ok p then Hashtbl.replace results i p;
        ok p
      in
      attempt 0 || attempt 1
    in
    let bounds = ref (-1, len) in
    let step () =
      match Stats.bisect_step !bounds probe with
      | Some b -> bounds := b; true
      | None -> false
    in
    let lows = ref [] and highs = ref [] in
    for j = 0 to slices - 1 do
      let l = low j in
      let h = high j in
      (* this workload's compile metrics: reference rounds in slices
         too, each once the shards have gone idle *)
      wait_idle t;
      reference_rounds rf ~rng ~budget_s:(0.2 *. s /. float_of_int slices);
      lows := l :: !lows;
      highs := h :: !highs;
      if j = 0 then begin
        List.iter
          (fun (p, r) ->
            if ok p then begin
              let i = index r in
              Hashtbl.replace results i p;
              bounds := (max (fst !bounds) i, snd !bounds)
            end)
          [ (l, sh.low); (h, sh.high) ]
      end
      else ignore (step ())
    done;
    while step () do () done;
    let lo_l = joined !lows and hi_l = joined !highs in
    put "p50_ms_low" (Stats.median lo_l);
    put "tail_ms_low" (tail_of "tail_ms_low" lo_l);
    put "p50_ms_high" (Stats.median hi_l);
    put "tail_ms_high" (tail_of "tail_ms_high" hi_l);
    match fst !bounds with
    | i when i >= 0 ->
        let p = Hashtbl.find results i in
        put "max_rps" p.rung.Stats.achieved;
        note "max_rps" (Printf.sprintf "(rung %.0f/s, limit %.0f ms)" sh.ladder.(i) sh.limit_ms)
    | _ ->
        put "max_rps" 0.0;
        note "max_rps" "(no rung met the limit)"
  end
  else begin
    (* untraced and traced generator slices alternate at the low rate:
       the traced ones record spans per request around send and
       completion; the p50 difference is the tracing cost *)
    let plain = sliced "plain" ~rate:sh.low ~total_s:(0.2 *. s) in
    let traced = sliced "traced" ~rate:sh.low ~total_s:(0.2 *. s) in
    let ps = ref [] and ts = ref [] in
    for j = 0 to slices - 1 do
      ps := plain j :: !ps;
      ts := traced ~trace:true j :: !ts
    done;
    put "trace.overhead_ms" (Stats.median (joined !ts) -. Stats.median (joined !ps));
    let traced = List.rev !ts in
    put "loadgen.lag_tail_ms"
      (tail_of "loadgen.lag_tail_ms" (Array.concat (List.map (fun p -> p.lag) traced)));
    let bytes p i ans =
      float_of_int (2 * Frame.header_bytes + p.p_stream.req_bytes.(i) + ans.a_bytes)
    in
    put "frame.bytes_per_req"
      (Stats.mean (Array.concat (List.map (fun p -> Array.mapi (bytes p) p.answers) traced)));
    let via, direct = paired_hop t ~cold ~seed:a.seed 120 in
    let hit, miss = handler_ms a ~seed:a.seed 120 in
    let journal = journal_ms a (stream "journal" 120) in
    let codec =
      let p = List.hd traced in
      codec_ms p.p_stream p.answers
    in
    let handle = if cold then miss else hit in
    put "service.handle_ms.hit" hit;
    put "service.handle_ms.miss" miss;
    put "router.hop_ms" (via -. direct);
    put "server.overhead_ms" (direct -. handle);
    put "journal.append_ms" journal;
    put "frame.codec_ms" codec;
    (* self-time accounting of one request via the router *)
    let residual =
      Stats.residual ~total:via
        [ ("service", handle); ("journal", journal); ("frame", codec); ("router", via -. direct) ]
    in
    put "trace.residual_ms" residual;
    put "trace.residual_share" (residual /. via)
  end;
  let after = snapshot t in
  status_deltas ~before ~after;
  put "peak_rss_mb"
    (List.fold_left
       (fun acc d -> acc +. vm_hwm_mb (string_of_int d.pid))
       0.0 (t.router :: t.shards));
  stop_topology t;
  (* the gate: every answer against the reference for its tier, and
     every served reference program through the interpreter *)
  if rf.r_rounds.len = 0 then reference_rounds rf ~rng ~budget_s:0.0;
  let last = rf.r_last in
  let ref_checks = Array.map (fun (_, st) -> st.Optimizer.static_checks_after) last in
  let served = gate_answers ~ref_checks (List.rev !phases) in
  let naive = naive_reference () in
  let sub a = Array.map (fun i -> a.(i)) served in
  attempted := !attempted + Array.length served;
  check_programs ~naive ~weights:(Array.map (fun _ -> 1) served)
    (sub serve_reference_cells) (sub last);
  if not a.trace then begin
    put "compile_per_s" (Stats.median (contents rf.r_rounds));
    Host.note_speed "compile_per_s";
    put "compile_p50_ms" (Stats.median (contents rf.r_times));
    put "compile_tail_ms"
      (tail_of
         ~window:(round_window (Array.length serve_reference_cells))
         "compile_tail_ms" (contents rf.r_times))
  end
  else if compile_ledger then
    ignore
      (layer_ledger ~rng ~budget_s:(0.05 *. a.seconds) ~verify_budget_s:(0.02 *. a.seconds)
         serve_reference_cells)

(* --- main ------------------------------------------------------------------ *)

let () =
  let a = parse_args () in
  let cleanup () =
    stop_pids !children;
    rm_rf a.rundir
  in
  let on_signal _ =
    cleanup ();
    exit 130
  in
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  at_exit cleanup;
  (try Unix.mkdir a.rundir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  (* a layer the workload does not exercise reads 0 *)
  if a.trace then List.iter (fun (name, _) -> put name 0.0) Metrics.per_layer;
  (match a.workload with
  | Compile_plain when a.trace ->
      (* The serve workloads are not bounded workloads (README.md), so
         the traced compile-plain run also carries the serve layers: a
         serve-cold topology on half the budget first, then the compile
         ledger, whose frontend/ir/core/interp figures and tracing
         overhead replace the ones the serve part measured on its
         reference cells. *)
      run_serve ~compile_ledger:false
        { a with workload = Serve_cold; seconds = 0.5 *. a.seconds };
      run_compile a
  | Compile_plain | Compile_oracle -> run_compile a
  | Serve_hot | Serve_cold -> run_serve a);
  if a.trace then Option.iter write_spans a.spans_out;
  emit a
