(* The IR invariant verifier (Nascent_ir.Verify).

   Acceptance: the verifier, wired between optimizer passes via
   [Config.verify], accepts every (benchmark x scheme x check kind x
   implication mode) optimized output — a rejection rolls the pass
   back and records an incident, so a clean sweep is zero incidents
   across the whole matrix.
   Rejection: seeded corruption of each invariant class (broken CFG,
   malformed check, stale loop metadata, unsafe insertion) must be
   reported. *)

open Util
module Ir = Nascent_ir
module Verify = Ir.Verify
module Core = Nascent_core
module Config = Core.Config
module Universe = Nascent_checks.Universe
module Check = Nascent_checks.Check
module Linexpr = Nascent_checks.Linexpr
module Atom = Nascent_checks.Atom
module B = Nascent_benchmarks.Suite
open Ir.Types

let impls =
  [ Universe.All_implications; Universe.Cross_family_only; Universe.No_implications ]

let kinds = [ Config.PRX; Config.INX ]

(* --- acceptance -------------------------------------------------------- *)

(* The full matrix: every scheme, check kind and implication mode on
   every benchmark, inter-pass verification on. Also checks the final
   output structurally, so the last pass cannot hide anything. *)
let test_matrix_accepted () =
  List.iter
    (fun (b : B.benchmark) ->
      let ir = ir_of_source b.B.source in
      List.iter
        (fun scheme ->
          List.iter
            (fun kind ->
              List.iter
                (fun impl ->
                  let config = Config.make ~scheme ~kind ~impl ~verify:true () in
                  let opt, stats = Core.Optimizer.optimize ~config ir in
                  (* a verifier rejection no longer raises: it rolls
                     the pass back and records an incident, so a clean
                     sweep now means ZERO incidents *)
                  (match stats.Core.Optimizer.incidents with
                  | [] -> ()
                  | is ->
                      Alcotest.failf "%s under %a: %d pass(es) rolled back: %a"
                        b.B.name Config.pp config (List.length is)
                        (Fmt.list Core.Optimizer.pp_incident)
                        is);
                  match Verify.program opt with
                  | [] -> ()
                  | vs ->
                      Alcotest.failf "%s under %a: %a" b.B.name Config.pp config
                        (Fmt.list Verify.pp_violation) vs)
                impls)
            kinds)
        Config.extended_schemes)
    B.all

(* Lowered IR of every benchmark is well-formed before any pass runs. *)
let test_lowered_accepted () =
  List.iter
    (fun (b : B.benchmark) ->
      match Verify.program (ir_of_source b.B.source) with
      | [] -> ()
      | vs ->
          Alcotest.failf "%s lowered: %a" b.B.name (Fmt.list Verify.pp_violation) vs)
    B.all

(* --- rejection: seeded corruption -------------------------------------- *)

let loop_src =
  "program l\ninteger a(1:10), i, s\ns = 0\ndo i = 1, 10\ns = s + a(i)\nenddo\nprint s\nend"

let straight_src = "program s\ninteger a(1:10), k\nk = 3\na(k) = 1\nend"

let has_rule rule vs = List.exists (fun v -> v.Verify.rule = rule) vs

let check_rejected name rule vs =
  Alcotest.(check bool)
    (Fmt.str "%s reports a %s violation" name (Verify.rule_name rule))
    true (has_rule rule vs)

let check_clean name vs =
  match vs with
  | [] -> ()
  | vs -> Alcotest.failf "%s: %a" name (Fmt.list Verify.pp_violation) vs

(* Each seeded corruption returns the violations the verifier reports
   for it: the rejection tests below check their rule, the pinned
   diagnostics test their exact text. *)

(* class 1: CFG corruption — terminator target out of range *)
let dangling_terminator () =
  let f = Ir.Program.main_func (ir_of_source loop_src) in
  check_clean "initially clean" (Verify.func f);
  (Ir.Func.block f f.Ir.Func.entry).term <- Goto 9999;
  Verify.func f

(* class 2: check corruption — an atom the function never interned *)
let ghost_atom () =
  let f = Ir.Program.main_func (ir_of_source loop_src) in
  let ghost = Atom.make ~key:99999 ~name:"ghost" in
  let m =
    {
      chk = Check.make (Linexpr.of_atom ghost) 5;
      src_array = "a";
      src_dim = 0;
      kind = Upper;
    }
  in
  let b = Ir.Func.block f f.Ir.Func.entry in
  b.instrs <- Check m :: b.instrs;
  Verify.func f

(* class 2b: check corruption — dimension beyond the declared rank *)
let bad_dimension () =
  let f = Ir.Program.main_func (ir_of_source loop_src) in
  let corrupted = ref false in
  Ir.Func.iter_blocks
    (fun b ->
      b.instrs <-
        List.map
          (fun i ->
            match i with
            | Check m when not !corrupted ->
                corrupted := true;
                Check { m with src_dim = 7 }
            | i -> i)
          b.instrs)
    f;
  Alcotest.(check bool) "found a check to corrupt" true !corrupted;
  Verify.func f

(* class 3: loop corruption — preheader metadata pointing elsewhere *)
let stale_preheader () =
  let f = Ir.Program.main_func (ir_of_source loop_src) in
  let saw_do = ref false in
  f.Ir.Func.loops <-
    List.map
      (function
        | Ldo d ->
            saw_do := true;
            Ldo { d with d_preheader = d.d_exit }
        | m -> m)
      f.Ir.Func.loops;
  Alcotest.(check bool) "program has a do loop" true !saw_do;
  Verify.func f

(* class 4: unsafe insertion — a check placed above the definition of
   its symbol (the paper's anticipatability safety rule) *)
let unsafe_insertion () =
  let f = Ir.Program.main_func (ir_of_source straight_src) in
  let before = Ir.Transform.copy_func f in
  let entry = Ir.Func.block f f.Ir.Func.entry in
  let meta =
    match
      List.find_opt (function Check _ -> true | _ -> false) entry.instrs
    with
    | Some (Check m) -> m
    | _ -> Alcotest.fail "expected a check in the entry block"
  in
  (* a physically fresh copy of an existing check, hoisted above the
     definition of k it guards *)
  entry.instrs <- Check meta :: entry.instrs;
  Verify.func ~pass:Verify.Code_motion ~before f

let test_rejects_bad_terminator () =
  check_rejected "dangling goto" Verify.Cfg (dangling_terminator ())

let test_rejects_ghost_atom () =
  check_rejected "ghost atom" Verify.Check_form (ghost_atom ())

let test_rejects_bad_dimension () =
  check_rejected "rank overflow" Verify.Check_form (bad_dimension ())

let test_rejects_stale_preheader () =
  check_rejected "stale preheader" Verify.Loop_structure (stale_preheader ())

let test_rejects_unsafe_insertion () =
  check_rejected "check above def" Verify.Insertion (unsafe_insertion ())

(* positive control for class 4: inserting the same check below the
   definition — where the original makes it anticipatable — is fine *)
let test_accepts_safe_insertion () =
  let f = Ir.Program.main_func (ir_of_source straight_src) in
  let before = Ir.Transform.copy_func f in
  let entry = Ir.Func.block f f.Ir.Func.entry in
  (* keep the original cell ([orig]) physically identical so the diff
     sees exactly one insertion *)
  let rec insert_before_check = function
    | (Check m as orig) :: rest -> Check m :: orig :: rest
    | i :: rest -> i :: insert_before_check rest
    | [] -> Alcotest.fail "expected a check in the entry block"
  in
  entry.instrs <- insert_before_check entry.instrs;
  check_clean "safe duplicate accepted"
    (Verify.func ~pass:Verify.Code_motion ~before f)

(* a strengthening that *weakens* (larger constant) must be rejected *)
let weakening () =
  let f = Ir.Program.main_func (ir_of_source loop_src) in
  let before = Ir.Transform.copy_func f in
  let weakened = ref false in
  Ir.Func.iter_blocks
    (fun b ->
      b.instrs <-
        List.map
          (fun i ->
            match i with
            | Check m when (not !weakened) && Check.constant m.chk < 1000 ->
                weakened := true;
                Check
                  {
                    m with
                    chk =
                      Check.make (Check.lhs m.chk) (Check.constant m.chk + 1);
                  }
            | i -> i)
          b.instrs)
    f;
  Alcotest.(check bool) "found a check to weaken" true !weakened;
  Verify.func ~pass:Verify.Strengthen ~before f

let test_rejects_weakening () =
  check_rejected "weakened check" Verify.Insertion (weakening ())

(* hoisting rules: a check inserted outside any preheader, and a
   non-check instruction removed, both reported *)
let bad_hoist () =
  let f = Ir.Program.main_func (ir_of_source loop_src) in
  let before = Ir.Transform.copy_func f in
  let preheaders =
    List.map
      (function Ldo d -> d.d_preheader | Lwhile w -> w.w_preheader)
      f.Ir.Func.loops
  in
  let inserted = ref false and removed = ref false in
  Ir.Func.iter_blocks
    (fun b ->
      if not (List.mem b.bid preheaders) then
        b.instrs <-
          List.concat_map
            (fun i ->
              match i with
              | Check m when not !inserted ->
                  inserted := true;
                  [ Check m; i ]
              | Assign _ when not !removed ->
                  removed := true;
                  []
              | i -> [ i ])
            b.instrs)
    f;
  Alcotest.(check bool) "inserted and removed" true (!inserted && !removed);
  Verify.func ~pass:Verify.Hoist ~before f

(* --- pinned diagnostics ------------------------------------------------ *)

(* Verifier messages reach users through incident records and
   [--stats-json], so their text is pinned: every fault class on three
   benchmarks under CS/SE/ALL (seed 1), plus each seeded corruption
   above, must report exactly what verify_diagnostics.expected records.
   One line per incident or violation; "-" marks a cell with none. The
   file is [diagnostic_lines ()] printed one per line; regenerate it
   only for a deliberate change of message. *)
let diagnostic_lines () =
  let fault_cells =
    List.concat_map
      (fun cls ->
        List.concat_map
          (fun name ->
            let b = List.find (fun (b : B.benchmark) -> b.B.name = name) B.all in
            let ir = ir_of_source b.B.source in
            List.concat_map
              (fun scheme ->
                let config =
                  Config.make ~scheme ~fault:{ Ir.Mutate.cls; seed = 1 } ()
                in
                let _, st = Core.Optimizer.optimize ~config ir in
                let key =
                  Fmt.str "%s %s %s" (Ir.Mutate.cls_name cls) name
                    (Config.scheme_name scheme)
                in
                match st.Core.Optimizer.incidents with
                | [] -> [ key ^ " -" ]
                | is ->
                    List.map
                      (fun (i : Core.Optimizer.incident) ->
                        Fmt.str "%s %s %S" key i.inc_pass i.inc_detail)
                      is)
              [ Config.CS; Config.SE; Config.ALL ])
          [ "vortex"; "trfd"; "arc2d" ])
      Ir.Mutate.all_classes
  in
  let seeded =
    List.concat_map
      (fun (name, corrupt) ->
        match corrupt () with
        | [] -> [ name ^ " -" ]
        | vs ->
            List.map
              (fun v -> Fmt.str "%s %S" name (Fmt.str "%a" Verify.pp_violation v))
              vs)
      [
        ("dangling-terminator", dangling_terminator);
        ("ghost-atom", ghost_atom);
        ("bad-dimension", bad_dimension);
        ("stale-preheader", stale_preheader);
        ("unsafe-insertion", unsafe_insertion);
        ("weakening", weakening);
        ("bad-hoist", bad_hoist);
      ]
  in
  fault_cells @ seeded

let test_pinned_diagnostics () =
  (* [dune runtest] runs in the test directory, [dune exec] at the root *)
  let file = "verify_diagnostics.expected" in
  let file = if Sys.file_exists file then file else Filename.concat "test" file in
  let expected =
    In_channel.with_open_bin file In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (( <> ) "")
  in
  let got = diagnostic_lines () in
  Alcotest.(check int) "diagnostic count" (List.length expected) (List.length got);
  List.iteri
    (fun n (e, g) -> Alcotest.(check string) (Fmt.str "line %d" (n + 1)) e g)
    (List.combine expected got)

(* --- qcheck: corruption never slips through ---------------------------- *)

(* For a random benchmark and corruption class, the verifier reports at
   least one violation. *)
let prop_corruption_rejected =
  QCheck.Test.make ~name:"verifier rejects seeded corruption" ~count:40
    (QCheck.make QCheck.Gen.(pair (int_bound (List.length B.all - 1)) (int_bound 2)))
    (fun (bi, ci) ->
      let b = List.nth B.all bi in
      let f = Ir.Program.main_func (ir_of_source b.B.source) in
      let applied =
        match ci with
        | 0 ->
            (Ir.Func.block f f.Ir.Func.entry).term <- Goto 9999;
            true
        | 1 ->
            let ghost = Atom.make ~key:99999 ~name:"ghost" in
            let m =
              {
                chk = Check.make (Linexpr.of_atom ghost) 1;
                src_array = "<corrupt>";
                src_dim = 0;
                kind = Lower;
              }
            in
            let blk = Ir.Func.block f f.Ir.Func.entry in
            blk.instrs <- Check m :: blk.instrs;
            true
        | _ -> (
            match f.Ir.Func.loops with
            | [] -> false (* nothing to corrupt; vacuously fine *)
            | metas ->
                f.Ir.Func.loops <-
                  List.mapi
                    (fun i meta ->
                      if i > 0 then meta
                      else
                        match meta with
                        | Ldo d -> Ldo { d with d_preheader = d.d_header }
                        | Lwhile w -> Lwhile { w with w_preheader = w.w_header })
                    metas;
                true)
      in
      (not applied) || Verify.func f <> [])

(* --- qcheck: the linear diff equals the quadratic one -------------------- *)

(* The diff the verifier used before it went per-block: membership of
   every instruction tested against the whole other function. Kept as
   the reference model. *)
let reference_diff ~(before : Ir.Func.t) (f : Ir.Func.t) =
  let instrs_of g =
    let acc = ref [] in
    Ir.Func.iter_blocks (fun b -> acc := List.rev_append b.instrs !acc) g;
    !acc
  in
  let old_instrs = instrs_of before in
  let inserted = ref [] in
  Ir.Func.iter_blocks
    (fun b ->
      List.iter
        (fun i -> if not (List.memq i old_instrs) then inserted := (b.bid, i) :: !inserted)
        b.instrs)
    f;
  let new_instrs = instrs_of f in
  let removed = List.filter (fun i -> not (List.memq i new_instrs)) old_instrs in
  (List.rev !inserted, removed)

let bench_funcs =
  lazy
    (Array.of_list
       (List.concat_map
          (fun (b : B.benchmark) -> Ir.Program.funcs_sorted (ir_of_source b.B.source))
          B.all))

(* One random edit of the kinds passes make. Fresh instructions are
   allocated here, so they are physically new. *)
let random_edit rng (f : Ir.Func.t) =
  let pick n = Random.State.int rng n in
  let blk () = Ir.Func.block f (pick (Ir.Func.num_blocks f)) in
  let insert_at (b : block) x =
    let k = pick (List.length b.instrs + 1) in
    b.instrs <- List.filteri (fun j _ -> j < k) b.instrs @ (x :: List.filteri (fun j _ -> j >= k) b.instrs)
  in
  let take (b : block) =
    match b.instrs with
    | [] -> None
    | l ->
        let k = pick (List.length l) in
        b.instrs <- List.filteri (fun j _ -> j <> k) l;
        Some (List.nth l k)
  in
  let fresh_check () =
    match Ir.Func.all_check_metas f with
    | [] -> Print (Cint (pick 100))
    | ms -> Check (List.nth ms (pick (List.length ms)))
  in
  match pick 6 with
  | 0 -> () (* keep every list *)
  | 1 ->
      let b = blk () in
      b.instrs <- List.map Fun.id b.instrs (* an equal list, new cells *)
  | 2 -> ignore (take (blk ()))
  | 3 -> insert_at (blk ()) (fresh_check ())
  | 4 -> Option.iter (insert_at (blk ())) (take (blk ())) (* move *)
  | _ ->
      let moved = take (blk ()) in
      let nb = Ir.Func.new_block f in
      nb.instrs <- Option.to_list moved @ [ fresh_check () ]

let same_diff (ins1, rem1) (ins2, rem2) =
  List.length ins1 = List.length ins2
  && List.for_all2 (fun (b1, i1) (b2, i2) -> b1 = b2 && i1 == i2) ins1 ins2
  && List.length rem1 = List.length rem2
  && List.for_all2 ( == ) rem1 rem2

let prop_diff_matches_reference =
  QCheck.Test.make ~name:"linear diff equals quadratic reference" ~count:300
    (QCheck.make QCheck.Gen.(triple nat (int_bound 6) nat))
    (fun (fi, edits, seed) ->
      let funcs = Lazy.force bench_funcs in
      let f = Ir.Transform.copy_func funcs.(fi mod Array.length funcs) in
      let before = Ir.Transform.copy_func f in
      let rng = Random.State.make [| seed |] in
      for _ = 1 to edits do
        random_edit rng f
      done;
      same_diff (Verify.diff ~before f) (reference_diff ~before f))

let suite =
  [
    tc "matrix: every config accepted" test_matrix_accepted;
    tc "lowered benchmarks accepted" test_lowered_accepted;
    tc "rejects dangling terminator" test_rejects_bad_terminator;
    tc "rejects ghost-atom check" test_rejects_ghost_atom;
    tc "rejects out-of-rank dimension" test_rejects_bad_dimension;
    tc "rejects stale loop preheader" test_rejects_stale_preheader;
    tc "rejects check above its def" test_rejects_unsafe_insertion;
    tc "accepts safe duplicate insertion" test_accepts_safe_insertion;
    tc "rejects weakening strengthen" test_rejects_weakening;
    tc "pinned diagnostics" test_pinned_diagnostics;
    QCheck_alcotest.to_alcotest prop_corruption_rejected;
    QCheck_alcotest.to_alcotest prop_diff_matches_reference;
  ]
