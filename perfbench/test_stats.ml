(* Unit tests for the benchmark's own arithmetic, on synthetic samples. *)

open Perfbench_stats

let feq = Alcotest.float 1e-9
let seq n = Array.init n (fun i -> float_of_int (i + 1))

let shuffle a =
  let st = Random.State.make [| 7 |] in
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let test_tail_selection () =
  (* 1..1000: the 11th largest is 990, at p99.0, ten samples above it *)
  (match Stats.tail (shuffle (seq 1000)) with
  | Some t ->
      Alcotest.check feq "value" 990.0 t.Stats.value;
      Alcotest.check feq "pct" 99.0 t.Stats.pct;
      Alcotest.(check int) "samples" 1000 t.Stats.samples
  | None -> Alcotest.fail "tail of 1000 samples");
  (* 1..450: p97.78, still ten beyond *)
  (match Stats.tail (seq 450) with
  | Some t ->
      Alcotest.check feq "value" 440.0 t.Stats.value;
      let beyond =
        Array.fold_left (fun a x -> if x > t.Stats.value then a + 1 else a) 0 (seq 450)
      in
      Alcotest.(check int) "ten beyond" 10 beyond
  | None -> Alcotest.fail "tail of 450 samples");
  (* exactly eleven samples: the smallest has ten beyond it *)
  (match Stats.tail (seq 11) with
  | Some t -> Alcotest.check feq "value" 1.0 t.Stats.value
  | None -> Alcotest.fail "tail of 11 samples");
  Alcotest.(check bool) "ten samples have no tail" true (Stats.tail (seq 10) = None)

let test_windowed_tail () =
  (* four windows of 200; one holds a stall of 30 huge samples *)
  let a =
    Array.init 800 (fun i -> if i >= 200 && i < 230 then 1000.0 else float_of_int (i mod 200))
  in
  (match Stats.windowed_tail ~window:200 a with
  | Some w ->
      Alcotest.(check int) "windows" 4 w.Stats.windows;
      Alcotest.(check int) "per window" 200 w.Stats.per_window;
      Alcotest.check feq "pct" 95.0 w.Stats.w_pct;
      (* three clean windows have tail 189; the stalled one 1000 *)
      Alcotest.check feq "stall does not move the median" 189.0 w.Stats.w_value
  | None -> Alcotest.fail "windowed tail");
  (* too few for two windows: one window, the plain tail *)
  (match Stats.windowed_tail ~window:200 (seq 350) with
  | Some w ->
      Alcotest.(check int) "one window" 1 w.Stats.windows;
      Alcotest.check feq "plain tail" 340.0 w.Stats.w_value
  | None -> Alcotest.fail "single window");
  (* 450 samples: two windows, the last absorbs the remainder *)
  (match Stats.windowed_tail ~window:200 (seq 450) with
  | Some w ->
      Alcotest.(check int) "two windows" 2 w.Stats.windows;
      Alcotest.(check int) "the first holds one window's worth" 200 w.Stats.per_window
  | None -> Alcotest.fail "two windows");
  Alcotest.(check bool) "no tail without samples" true
    (Stats.windowed_tail ~window:200 (seq 10) = None)

let test_percentiles () =
  Alcotest.check feq "median odd" 3.0 (Stats.median [| 5.; 1.; 3.; 2.; 4. |]);
  Alcotest.check feq "median even (lower)" 2.0 (Stats.median [| 4.; 1.; 3.; 2. |]);
  Alcotest.check feq "p100" 10.0 (Stats.percentile_sorted (seq 10) 1.0);
  Alcotest.check feq "p0 clamps" 1.0 (Stats.percentile_sorted (seq 10) 0.0)

let rung ?(errors = 0) ?(tail_ms = 5.0) ?(mid = 3) ?(end_ = 3) ?(sent = 400) offered =
  {
    Stats.offered;
    achieved = offered;
    tail_ms;
    errors;
    sent;
    backlog_mid = mid;
    backlog_end = end_;
  }

let test_max_rps_rule () =
  let ok = Stats.rung_ok ~limit_ms:50.0 in
  Alcotest.(check bool) "healthy rung" true (ok (rung 200.));
  Alcotest.(check bool) "tail over the limit" false (ok (rung ~tail_ms:50.5 200.));
  Alcotest.(check bool) "tail at the limit" true (ok (rung ~tail_ms:50.0 200.));
  Alcotest.(check bool) "one error fails" false (ok (rung ~errors:1 200.));
  Alcotest.(check bool) "nothing sent fails" false (ok (rung ~sent:0 200.));
  (* 400 sent: the second half may add at most 10 outstanding *)
  Alcotest.(check bool) "backlog within slack" true (ok (rung ~mid:20 ~end_:30 200.));
  Alcotest.(check bool) "growing backlog" false (ok (rung ~mid:20 ~end_:31 200.));
  Alcotest.(check bool) "shrinking backlog" true (ok (rung ~mid:30 ~end_:2 200.));
  (* small rungs keep a floor of 4 *)
  Alcotest.(check bool) "tiny rung slack" true (ok (rung ~sent:20 ~mid:0 ~end_:4 20.))

let bisect ?(lo = -1) ~len probe =
  let rec go b = match Stats.bisect_step b probe with Some b -> go b | None -> fst b in
  match go (lo, len) with -1 -> None | i -> Some i

let test_bisect () =
  let ladder = [| 50.; 100.; 150.; 200.; 300.; 400.; 600.; 800. |] in
  let capacity = 420.0 in
  let probed = ref [] in
  let probe i =
    probed := i :: !probed;
    ladder.(i) <= capacity
  in
  Alcotest.(check (option int)) "highest passing" (Some 5)
    (bisect ~len:(Array.length ladder) probe);
  Alcotest.(check bool) "logarithmic probes" true (List.length !probed <= 4);
  Alcotest.(check (option int)) "nothing passes" None
    (bisect ~len:(Array.length ladder) (fun _ -> false));
  Alcotest.(check (option int)) "everything passes" (Some 7)
    (bisect ~len:(Array.length ladder) (fun _ -> true));
  (* a known pass narrows the search: it is never re-probed below *)
  probed := [];
  Alcotest.(check (option int)) "seeded lower bound" (Some 5)
    (bisect ~lo:3 ~len:(Array.length ladder) probe);
  Alcotest.(check bool) "no probe at or below lo" true (List.for_all (fun i -> i > 3) !probed)

let test_replay () =
  (* 1 ms jobs at 500 rps: never queue, latency = service time *)
  let lat, r = Stats.replay ~rate:500.0 (Array.make 1000 1.0) in
  Alcotest.check feq "no queueing" 1.0 (Stats.median lat);
  Alcotest.(check bool) "underloaded passes" true (Stats.rung_ok ~limit_ms:10.0 r);
  (* 1 ms jobs at 2000 rps: the queue grows without bound *)
  let lat, r = Stats.replay ~rate:2000.0 (Array.make 1000 1.0) in
  Alcotest.(check bool) "latency grows" true (lat.(999) > lat.(0) +. 400.0);
  Alcotest.(check bool) "overloaded backlog grows" true (Stats.backlog_growing r);
  Alcotest.(check bool) "achieved is capacity" true (abs_float (r.Stats.achieved -. 1000.0) < 1.0)

let test_self_times () =
  let sp id name parent start stop = { Stats.id; name; parent; start; stop } in
  (* root 0..10; frontend 0..2; optimize 2..9 with passes 3..5 and 5..8 *)
  let spans =
    [
      sp 0 "compile" None 0.0 10.0;
      sp 1 "frontend" (Some 0) 0.0 2.0;
      sp 2 "optimize" (Some 0) 2.0 9.0;
      sp 3 "pass.a" (Some 2) 3.0 5.0;
      sp 4 "pass.b" (Some 2) 5.0 8.0;
    ]
  in
  let selves = Stats.self_times spans in
  let get n = List.assoc n selves in
  Alcotest.check feq "root self" 1.0 (get "compile");
  Alcotest.check feq "optimize self" 2.0 (get "optimize");
  Alcotest.check feq "leaf self" 3.0 (get "pass.b");
  Alcotest.check feq "self times sum to the total" 10.0
    (List.fold_left (fun a (_, v) -> a +. v) 0.0 selves);
  (* accounting against an outer measurement: the unspanned tail shows *)
  let layers = List.filter (fun (n, _) -> n <> "compile") selves in
  Alcotest.check feq "residual" 1.0 (Stats.residual ~total:10.0 layers)

let test_names () =
  List.iter
    (fun n -> Alcotest.(check bool) n true (Stats.valid_name n))
    [ "compile_p50_ms"; "core.pass.oracle-elim.ms"; "service.handle_ms.hit"; "9lives" ];
  List.iter
    (fun n -> Alcotest.(check bool) n false (Stats.valid_name n))
    [ ""; "_lead"; ".dot"; "has space"; "slash/x"; "p99%"; String.make 65 'a' ];
  Alcotest.(check bool) "64 chars" true (Stats.valid_name (String.make 64 'a'));
  List.iter
    (fun u -> Alcotest.(check bool) u true (Stats.valid_unit u))
    [ "ms"; "s"; "1/s"; "count"; "%"; "MB" ];
  List.iter
    (fun u -> Alcotest.(check bool) u false (Stats.valid_unit u))
    [ ""; "m s"; String.make 17 'a' ];
  (* every metric the benchmark can emit is well-formed *)
  List.iter
    (fun (n, u) ->
      Alcotest.(check bool) ("emitted " ^ n) true (Stats.valid_name n && Stats.valid_unit u))
    (Metrics.end_to_end @ Metrics.per_layer)

(* BENCHMARK.json names exactly the metrics the benchmark emits, with
   the same units, and keeps its bounds within the contract. *)
let test_benchmark_json () =
  let module Json = Nascent_support.Json in
  let doc =
    match Json.parse (In_channel.with_open_text "../BENCHMARK.json" In_channel.input_all) with
    | Ok j -> j
    | Error e -> Alcotest.fail ("BENCHMARK.json: " ^ e)
  in
  let list k = match Json.member k doc with Some (Json.List l) -> l | _ -> Alcotest.fail k in
  let pairs k =
    List.map
      (fun m -> (Option.get (Json.str_member "name" m), Option.get (Json.str_member "unit" m)))
      (list k)
  in
  let same what a b =
    Alcotest.(check (list (pair string string))) what (List.sort compare a) (List.sort compare b)
  in
  same "end_to_end" Metrics.end_to_end (pairs "end_to_end");
  same "per_layer" Metrics.per_layer (pairs "per_layer");
  let bounds =
    List.map
      (fun m -> (Option.get (Json.str_member "name" m), Option.get (Json.float_member "bound" m)))
      (list "end_to_end")
  in
  List.iter
    (fun (n, b) -> Alcotest.(check bool) (n ^ " bound <= 0.25") true (b > 0.0 && b <= 0.25))
    bounds;
  let largest = List.fold_left (fun a (_, b) -> Float.max a b) 0.0 bounds in
  Alcotest.check feq "setup_s has the largest bound" largest (List.assoc "setup_s" bounds);
  List.iter
    (fun w ->
      let n = Option.get (Json.str_member "name" w) in
      Alcotest.(check bool) ("workload " ^ n) true (Stats.valid_name n))
    (list "workloads")

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "tail selection" `Quick test_tail_selection;
          Alcotest.test_case "windowed tail" `Quick test_windowed_tail;
          Alcotest.test_case "percentiles" `Quick test_percentiles;
          Alcotest.test_case "max_rps rule" `Quick test_max_rps_rule;
          Alcotest.test_case "ladder bisection" `Quick test_bisect;
          Alcotest.test_case "queue replay" `Quick test_replay;
          Alcotest.test_case "self-time accounting" `Quick test_self_times;
          Alcotest.test_case "metric names" `Quick test_names;
          Alcotest.test_case "BENCHMARK.json agrees" `Quick test_benchmark_json;
        ] );
    ]
