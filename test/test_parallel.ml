(* The parallel experiment engine: Pool semantics, the Memo cache, and
   the determinism contract of the table harness.

   The load-bearing property is the differential one: the experiment
   tables must be STRUCTURALLY IDENTICAL whether computed serially
   (jobs=1), on a pool (jobs=4), or replayed from a warm cache — and
   the warm replay must be byte-identical (timing columns included)
   with zero re-optimizations. bench/main.exe check-determinism runs
   the same gate, on the same projection (Experiments.structural), over
   the full suite in CI; this test pins it on a 3-benchmark subset so
   `dune runtest` catches pool/cache bugs without CI. *)

module Pool = Nascent_support.Pool
module Memo = Nascent_support.Memo
module E = Nascent_harness.Experiments
module B = Nascent_benchmarks.Suite
module Config = Nascent_core.Config

let with_pool jobs f =
  let p = Pool.create ~jobs in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> f p)

(* --- Pool: ordering, clamping, iteration ------------------------------ *)

let test_map_preserves_order () =
  let xs = List.init 100 Fun.id in
  with_pool 4 @@ fun p ->
  Alcotest.(check (list int))
    "same as List.map" (List.map (fun x -> x * x) xs)
    (Pool.parallel_map p (fun x -> x * x) xs)

let test_jobs_clamped () =
  with_pool 0 (fun p -> Alcotest.(check int) "low clamp" 1 (Pool.jobs p));
  with_pool 1000 (fun p -> Alcotest.(check int) "high clamp" 64 (Pool.jobs p))

let test_serial_fallback () =
  with_pool 1 @@ fun p ->
  Alcotest.(check (list int))
    "jobs=1 is List.map" [ 2; 4; 6 ]
    (Pool.parallel_map p (fun x -> 2 * x) [ 1; 2; 3 ])

let test_iter_visits_all () =
  let sum = Atomic.make 0 in
  with_pool 4 @@ fun p ->
  Pool.parallel_iter p (fun x -> ignore (Atomic.fetch_and_add sum x)) (List.init 50 succ);
  Alcotest.(check int) "sum 1..50" 1275 (Atomic.get sum)

(* The caller drains its own batch, so a worker may itself submit a
   batch to the same pool without deadlocking. *)
let test_nested_map_no_deadlock () =
  with_pool 3 @@ fun p ->
  let outer =
    Pool.parallel_map p
      (fun i -> Pool.parallel_map p (fun j -> (10 * i) + j) [ 1; 2; 3 ])
      [ 1; 2; 3; 4 ]
  in
  Alcotest.(check (list (list int)))
    "nested result"
    (List.map (fun i -> List.map (fun j -> (10 * i) + j) [ 1; 2; 3 ]) [ 1; 2; 3; 4 ])
    outer

(* --- Pool ≡ List.map, exceptions included (qcheck) --------------------- *)

exception Boom of int

(* Observable behaviour of a map: its results, or the exception it
   raises. [f] raises on x ≡ 3 (mod 7); List.map raises for the FIRST
   such element in list order, and parallel_map must agree no matter
   which domain hits one first. *)
let observe map xs =
  let f x = if x mod 7 = 3 then raise (Boom x) else (2 * x) + 1 in
  match map f xs with ys -> Ok ys | exception Boom v -> Error v

let prop_map_equiv_list_map =
  QCheck.Test.make ~name:"parallel_map ≡ List.map (ordering + exceptions)"
    ~count:30
    QCheck.(pair (int_range 1 6) (list_of_size Gen.(int_range 0 40) small_signed_int))
    (fun (jobs, xs) ->
      with_pool jobs @@ fun p ->
      observe List.map xs = observe (Pool.parallel_map p) xs)

(* --- Memo: counters, disk store, key discipline ------------------------ *)

let test_memo_hit_miss () =
  let m : int Memo.t = Memo.create ~name:"t-hit-miss" () in
  let k = Memo.key [ "a"; "b" ] in
  Alcotest.(check int) "miss computes" 41 (Memo.find_or_compute m ~key:k (fun () -> 41));
  Alcotest.(check int) "hit replays" 41
    (Memo.find_or_compute m ~key:k (fun () -> Alcotest.fail "recomputed on hit"));
  let s = Memo.stats m in
  Alcotest.(check int) "misses" 1 s.Memo.misses;
  Alcotest.(check int) "hits" 1 s.Memo.hits;
  Alcotest.(check int) "no disk" 0 s.Memo.disk_hits

let test_memo_key_injective_on_structure () =
  (* The component list, not its concatenation, is what is digested:
     ["ab"] and ["a"; "b"] must not collide. *)
  Alcotest.(check bool) "split differs" true (Memo.key [ "ab" ] <> Memo.key [ "a"; "b" ]);
  Alcotest.(check bool) "order matters" true (Memo.key [ "a"; "b" ] <> Memo.key [ "b"; "a" ])

let test_memo_disk_roundtrip () =
  let dir = Filename.temp_dir "nascent-memo" "" in
  let k = Memo.key [ "cell" ] in
  let m1 : int Memo.t = Memo.create ~disk_dir:dir ~name:"t-disk" () in
  Alcotest.(check int) "computed once" 7 (Memo.find_or_compute m1 ~key:k (fun () -> 7));
  (* A fresh memo (fresh process, morally) reads the value back from
     disk instead of recomputing. *)
  let m2 : int Memo.t = Memo.create ~disk_dir:dir ~name:"t-disk" () in
  Alcotest.(check int) "served from disk" 7
    (Memo.find_or_compute m2 ~key:k (fun () -> Alcotest.fail "recomputed despite disk store"));
  let s = Memo.stats m2 in
  Alcotest.(check int) "disk hit" 1 s.Memo.disk_hits;
  Alcotest.(check int) "no miss" 0 s.Memo.misses;
  Memo.clear_disk m2;
  let m3 : int Memo.t = Memo.create ~disk_dir:dir ~name:"t-disk" () in
  Alcotest.(check int) "recomputes after clear_disk" 8
    (Memo.find_or_compute m3 ~key:k (fun () -> 8))

(* A corrupt or truncated disk entry must degrade to a recompute (miss)
   and be moved aside to <dir>/quarantine/, never crash the lookup. *)
let test_memo_corrupt_entry_quarantined () =
  let dir = Filename.temp_dir "nascent-memo" "" in
  let k = Memo.key [ "cell" ] in
  let m1 : int Memo.t = Memo.create ~disk_dir:dir ~name:"t-corrupt" () in
  Alcotest.(check int) "computed once" 9 (Memo.find_or_compute m1 ~key:k (fun () -> 9));
  let entry = Filename.concat (Filename.concat dir "t-corrupt") k in
  Alcotest.(check bool) "entry persisted" true (Sys.file_exists entry);
  (* flip bits: valid magic, torn payload *)
  let contents = In_channel.with_open_bin entry In_channel.input_all in
  Out_channel.with_open_bin entry (fun oc ->
      output_string oc (String.sub contents 0 (String.length contents - 3));
      output_string oc "???");
  let m2 : int Memo.t = Memo.create ~disk_dir:dir ~name:"t-corrupt" () in
  Alcotest.(check int) "recomputed, not crashed" 10
    (Memo.find_or_compute m2 ~key:k (fun () -> 10));
  let s = Memo.stats m2 in
  Alcotest.(check int) "counted as miss" 1 s.Memo.misses;
  Alcotest.(check int) "counted as quarantined" 1 s.Memo.quarantined;
  Alcotest.(check int) "not a disk hit" 0 s.Memo.disk_hits;
  Alcotest.(check bool) "moved to quarantine/" true
    (Sys.file_exists (Filename.concat (Filename.concat dir "quarantine") ("t-corrupt." ^ k)));
  (* the recompute re-persisted a good entry: next memo disk-hits *)
  let m3 : int Memo.t = Memo.create ~disk_dir:dir ~name:"t-corrupt" () in
  Alcotest.(check int) "healed entry served from disk" 10
    (Memo.find_or_compute m3 ~key:k (fun () -> Alcotest.fail "recomputed healed entry"));
  Alcotest.(check int) "disk hit after heal" 1 (Memo.stats m3).Memo.disk_hits

let test_memo_truncated_and_garbage_entries () =
  let dir = Filename.temp_dir "nascent-memo" "" in
  let m : int Memo.t = Memo.create ~disk_dir:dir ~name:"t-garbage" () in
  let write key bytes =
    let d = Filename.concat dir "t-garbage" in
    if not (Sys.file_exists d) then Sys.mkdir d 0o755;
    Out_channel.with_open_bin (Filename.concat d key) (fun oc -> output_string oc bytes)
  in
  (* hand-written hostile entries: empty, short, foreign magic, v1-era *)
  List.iteri
    (fun i bytes ->
      let k = Memo.key [ "g"; string_of_int i ] in
      write k bytes;
      Alcotest.(check int)
        (Printf.sprintf "garbage entry %d degrades to recompute" i)
        i
        (Memo.find_or_compute m ~key:k (fun () -> i)))
    [ ""; "NASC"; "totally unrelated bytes"; "NASCENT-MEMO.v1\nstale-format" ];
  let s = Memo.stats m in
  Alcotest.(check int) "all four quarantined" 4 s.Memo.quarantined;
  Alcotest.(check int) "all four missed" 4 s.Memo.misses

let test_config_cache_key_covers_verify () =
  let base = Config.make ~scheme:Config.LLS () in
  Alcotest.(check bool) "verify is part of the key" true
    (Config.cache_key { base with Config.verify = true }
    <> Config.cache_key { base with Config.verify = false });
  Alcotest.(check bool) "kind is part of the key" true
    (Config.cache_key (Config.make ~scheme:Config.LLS ~kind:Config.PRX ())
    <> Config.cache_key (Config.make ~scheme:Config.LLS ~kind:Config.INX ()));
  Alcotest.(check bool) "fault is part of the key" true
    (Config.cache_key (Config.make ())
    <> Config.cache_key
         (Config.make
            ~fault:{ Nascent_ir.Mutate.cls = Nascent_ir.Mutate.Drop_check; seed = 1 }
            ()))

(* --- the determinism contract of the table harness --------------------- *)

let test_tables_deterministic_across_jobs () =
  (* 3-benchmark subset of the full suite, PRX only: enough to exercise
     every scheme and the row-major fan-out, cheap enough for tier 1. *)
  let chars = List.map E.characterize (List.filteri (fun i _ -> i < 3) B.all) in
  let tables () = [ E.table2 ~kinds:[ Config.PRX ] chars; E.table3 ~kinds:[ Config.PRX ] chars; E.extensions chars ] in
  let saved = Pool.default_jobs () in
  Fun.protect ~finally:(fun () -> Pool.set_default_jobs saved) @@ fun () ->
  E.reset_cell_cache ();
  Pool.set_default_jobs 1;
  let serial = tables () in
  let serial_misses = (E.cell_cache_stats ()).Memo.misses in
  Alcotest.(check bool) "serial run computed cells" true (serial_misses > 0);
  E.reset_cell_cache ();
  Pool.set_default_jobs 4;
  let parallel = tables () in
  Alcotest.(check bool) "jobs=1 and jobs=4 structurally equal" true
    (E.structural serial = E.structural parallel);
  (* Warm rerun: byte-identical rows (timings included, replayed from
     the cache) and zero re-optimizations. *)
  let before = (E.cell_cache_stats ()).Memo.misses in
  let warm = tables () in
  let after = (E.cell_cache_stats ()).Memo.misses in
  Alcotest.(check int) "zero re-optimizations on warm cache" 0 (after - before);
  Alcotest.(check bool) "warm rerun byte-identical" true (warm = parallel)

(* --- task_fuel watchdog on the serial path ----------------------------- *)

(* jobs=1 degrades to plain List.map, but the per-task watchdog must
   still be installed there: a pathological task has to fail with
   Fuel_exhausted on every pool size, not only when a worker domain
   runs it. *)
let test_task_fuel_serial_path () =
  with_pool 1 @@ fun p ->
  (match
     Pool.parallel_map ~task_fuel:100 p
       (fun x -> if x = 2 then Nascent_support.Guard.exhaust_ambient () else x)
       [ 1; 2; 3 ]
   with
  | _ -> Alcotest.fail "expected Fuel_exhausted on the serial path"
  | exception Nascent_support.Guard.Fuel_exhausted _ -> ());
  (* well-behaved tasks are unaffected by the watchdog *)
  Alcotest.(check (list int))
    "fueled serial map ≡ List.map" [ 2; 3; 4 ]
    (Pool.parallel_map ~task_fuel:1000 p (fun x -> x + 1) [ 1; 2; 3 ]);
  (* the budget is per task, not shared: each task may spend up to the
     full budget without starving its successors *)
  Alcotest.(check (list int))
    "budget renews per task" [ 90; 90; 90 ]
    (Pool.parallel_map ~task_fuel:100 p
       (fun _ ->
         for _ = 1 to 90 do
           Nascent_support.Guard.tick_ambient ()
         done;
         90)
       [ 1; 2; 3 ])

(* --- quarantine cap ----------------------------------------------------- *)

(* The quarantine is a bounded post-mortem buffer: a flaky disk feeding
   corrupt entries forever must not grow it without bound. Oldest
   entries (by mtime) are evicted first. *)
let test_quarantine_capped_evicts_oldest () =
  let dir = Filename.temp_dir "nascent-quar" "" in
  let m : int Memo.t = Memo.create ~disk_dir:dir ~quarantine_max:3 ~name:"t-cap" () in
  let sub = Filename.concat dir "t-cap" in
  Sys.mkdir sub 0o755;
  let keys =
    List.init 6 (fun i ->
        let k = Memo.key [ "cap"; string_of_int i ] in
        let path = Filename.concat sub k in
        Out_channel.with_open_bin path (fun oc -> output_string oc "corrupt");
        (* distinct, strictly increasing mtimes (rename preserves them,
           so quarantine age is the corruption's age) *)
        let t = 1000000.0 +. float_of_int i in
        Unix.utimes path t t;
        k)
  in
  (* trigger the six quarantines in write order *)
  List.iteri
    (fun i k ->
      Alcotest.(check int)
        (Printf.sprintf "corrupt entry %d degrades to recompute" i)
        i
        (Memo.find_or_compute m ~key:k (fun () -> i)))
    keys;
  Alcotest.(check int) "all six quarantined (counter)" 6 (Memo.stats m).Memo.quarantined;
  let qd = Filename.concat dir "quarantine" in
  let entries = Array.to_list (Sys.readdir qd) in
  Alcotest.(check int) "directory capped at 3" 3 (List.length entries);
  (* survivors are the NEWEST three by mtime: the last three corrupted *)
  let expected =
    List.filteri (fun i _ -> i >= 3) keys |> List.map (fun k -> "t-cap." ^ k)
  in
  Alcotest.(check (slist string compare)) "oldest evicted first" expected entries

let test_quarantine_zero_keeps_nothing () =
  let dir = Filename.temp_dir "nascent-quar0" "" in
  let m : int Memo.t = Memo.create ~disk_dir:dir ~quarantine_max:0 ~name:"t-zero" () in
  let sub = Filename.concat dir "t-zero" in
  Sys.mkdir sub 0o755;
  let k = Memo.key [ "only" ] in
  Out_channel.with_open_bin (Filename.concat sub k) (fun oc ->
      output_string oc "corrupt");
  Alcotest.(check int) "recomputed" 5 (Memo.find_or_compute m ~key:k (fun () -> 5));
  Alcotest.(check int) "counted" 1 (Memo.stats m).Memo.quarantined;
  let qd = Filename.concat dir "quarantine" in
  let kept = match Sys.readdir qd with es -> Array.length es | exception Sys_error _ -> 0 in
  Alcotest.(check int) "nothing retained" 0 kept

let suite =
  [
    Util.tc "map preserves order" test_map_preserves_order;
    Util.tc "jobs clamped" test_jobs_clamped;
    Util.tc "serial fallback" test_serial_fallback;
    Util.tc "iter visits all" test_iter_visits_all;
    Util.tc "nested map no deadlock" test_nested_map_no_deadlock;
    QCheck_alcotest.to_alcotest prop_map_equiv_list_map;
    Util.tc "memo hit/miss counters" test_memo_hit_miss;
    Util.tc "memo key injective on structure" test_memo_key_injective_on_structure;
    Util.tc "memo disk roundtrip" test_memo_disk_roundtrip;
    Util.tc "memo corrupt entry quarantined" test_memo_corrupt_entry_quarantined;
    Util.tc "memo truncated/garbage entries" test_memo_truncated_and_garbage_entries;
    Util.tc "config cache key covers verify" test_config_cache_key_covers_verify;
    Util.tc "task_fuel on the serial path" test_task_fuel_serial_path;
    Util.tc "quarantine capped, oldest evicted" test_quarantine_capped_evicts_oldest;
    Util.tc "quarantine_max=0 keeps nothing" test_quarantine_zero_keeps_nothing;
    Util.tc "tables deterministic across jobs" test_tables_deterministic_across_jobs;
  ]
