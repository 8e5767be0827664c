(* The Fourier–Motzkin implication oracle (lib/checks/oracle.ml).

   Three angles:
   - soundness: a [true] answer is checked against a brute-force
     enumeration of a finite integer box — if the oracle claims
     [hyps |= goal] then no assignment in the box may satisfy the
     hypotheses and violate the goal;
   - coverage: everything the CIG proves syntactically (within-family
     constant comparison) the oracle proves too, and so is every
     nonnegative linear combination of the hypotheses (the rational
     Farkas certificates FM is complete for);
   - degradation: coefficient overflow and fuel exhaustion answer
     [false] ("unknown"), never raise, never wedge. *)

open Util
module Atom = Nascent_checks.Atom
module Linexpr = Nascent_checks.Linexpr
module Check = Nascent_checks.Check
module Oracle = Nascent_checks.Oracle
module G = QCheck.Gen

let atoms = Array.init 3 (fun k -> Atom.make ~key:k ~name:(Printf.sprintf "v%d" k))
let x = atoms.(0)
let y = atoms.(1)
let z = atoms.(2)

(* --- brute-force reference over a finite box -------------------------- *)

let eval env c =
  List.fold_left
    (fun acc (a, coeff) -> acc + (coeff * env.(Atom.key a)))
    0
    (Linexpr.terms (Check.lhs c))
  <= Check.constant c

(* [-4, 4]^3: 729 assignments, enough to falsify any wrong implication
   the small-coefficient generator below can express. *)
let dom = 4

let forall_env f =
  let ok = ref true in
  for vx = -dom to dom do
    for vy = -dom to dom do
      for vz = -dom to dom do
        if !ok && not (f [| vx; vy; vz |]) then ok := false
      done
    done
  done;
  !ok

let box_implies hyps goal =
  forall_env (fun env -> (not (List.for_all (eval env) hyps)) || eval env goal)

let box_unsat cs = forall_env (fun env -> not (List.for_all (eval env) cs))

(* --- generators ------------------------------------------------------- *)

let mk coeffs k =
  Check.make (Linexpr.of_terms (List.mapi (fun i c -> (atoms.(i), c)) coeffs)) k

let gen_check : Check.t G.t =
  G.map2 mk (G.list_repeat 3 (G.int_range (-3) 3)) (G.int_range (-8) 8)

let pp_check c = Fmt.str "%a" Check.pp c

let print_query (hyps, goal) =
  Printf.sprintf "hyps=[%s] goal=%s"
    (String.concat "; " (List.map pp_check hyps))
    (pp_check goal)

let arb_query =
  QCheck.make ~print:print_query
    (G.pair (G.list_size (G.int_range 0 4) gen_check) gen_check)

(* --- soundness vs the enumerator -------------------------------------- *)

(* The oracle answers over ALL integers, so a [true] must in particular
   hold on the box; a box counterexample would be a refutation bug. *)
let prop_implies_sound =
  QCheck.Test.make ~name:"oracle: implies sound vs brute force" ~count:500
    arb_query (fun (hyps, goal) ->
      (not (Oracle.implies ~hyps goal)) || box_implies hyps goal)

let prop_unsat_sound =
  QCheck.Test.make ~name:"oracle: unsat sound vs brute force" ~count:500
    (QCheck.make
       ~print:(fun cs -> String.concat "; " (List.map pp_check cs))
       (G.list_size (G.int_range 1 5) gen_check))
    (fun cs -> (not (Oracle.unsat cs)) || box_unsat cs)

(* --- order independence -------------------------------------------------- *)

(* The answer is a function of the hypothesis set, not of its spelling
   order: each elimination round keeps families in first-occurrence
   order and picks the cheapest variable with ties going to the lowest
   atom key, so the same set meets the same elimination sequence. *)
let prop_order_independent =
  let gen =
    G.(
      pair (list_size (int_range 0 5) gen_check) gen_check >>= fun (hyps, goal) ->
      pair (shuffle_l hyps) (shuffle_l (goal :: hyps)) >|= fun (perm, system) ->
      (hyps, goal, perm, system))
  in
  let print (hyps, goal, perm, _) =
    Printf.sprintf "%s perm=[%s]" (print_query (hyps, goal))
      (String.concat "; " (List.map pp_check perm))
  in
  QCheck.Test.make ~name:"oracle: answers ignore hypothesis order" ~count:500
    (QCheck.make ~print gen) (fun (hyps, goal, perm, system) ->
      Oracle.implies ~hyps goal = Oracle.implies ~hyps:perm goal
      && Oracle.unsat (goal :: hyps) = Oracle.unsat system)

(* --- coverage: oracle >= CIG ------------------------------------------ *)

(* The CIG's universally sound rule is the within-family constant
   comparison; whatever it proves, the decision procedure must too. *)
let prop_covers_within_family =
  QCheck.Test.make ~name:"oracle: proves every within-family implication"
    ~count:500
    (QCheck.make ~print:print_query
       (G.map3
          (fun coeffs k1 k2 -> ([ mk coeffs k1 ], mk coeffs k2))
          (G.list_repeat 3 (G.int_range (-3) 3))
          (G.int_range (-8) 8) (G.int_range (-8) 8)))
    (fun (hyps, goal) ->
      (not (Check.implies_within_family (List.hd hyps) goal))
      || Oracle.implies ~hyps goal)

(* Rational completeness: any goal that is a nonnegative combination of
   the hypotheses plus nonnegative slack carries a Farkas certificate,
   and Fourier–Motzkin is complete for those. This is exactly the class
   of cross-family implications the CIG cannot see syntactically. *)
let prop_proves_farkas_combinations =
  let gen =
    G.map3
      (fun hyps lambdas slack ->
        let lambdas = List.filteri (fun i _ -> i < List.length hyps) lambdas in
        let lhs =
          List.fold_left2
            (fun acc h l -> Linexpr.add acc (Linexpr.scale l (Check.lhs h)))
            Linexpr.zero hyps lambdas
        in
        let k =
          List.fold_left2 (fun acc h l -> acc + (l * Check.constant h)) 0 hyps lambdas
        in
        (hyps, Check.make lhs (k + slack)))
      (G.list_size (G.int_range 1 3) gen_check)
      (G.list_repeat 3 (G.int_range 0 2))
      (G.int_range 0 5)
  in
  QCheck.Test.make ~name:"oracle: proves nonneg combinations of hyps" ~count:500
    (QCheck.make ~print:print_query gen) (fun (hyps, goal) ->
      Oracle.implies ~hyps goal)

(* --- the validator's entailment memo ------------------------------------ *)

(* A sequence of queries drawn with repeats from a small pool, each
   repeat possibly spelling its hypotheses in reverse order: answered
   through one memo, every answer equals a fresh oracle run on the
   canonical hypothesis list, and the oracle runs once per distinct
   (hypothesis set, goal) key. *)
let prop_memo_exact =
  let gen =
    G.(
      list_size (int_range 1 6) (pair (list_size (int_range 0 4) gen_check) gen_check)
      >>= fun pool ->
      list_size (int_range 1 24) (pair (int_bound (List.length pool - 1)) bool)
      >|= fun seq -> (pool, seq))
  in
  let print (pool, seq) =
    Printf.sprintf "pool=[%s] seq=[%s]"
      (String.concat " | " (List.map print_query pool))
      (String.concat "; "
         (List.map (fun (i, r) -> Printf.sprintf "%d%s" i (if r then "r" else "")) seq))
  in
  QCheck.Test.make ~name:"oracle: memoized entailment equals fresh runs" ~count:300
    (QCheck.make ~print gen) (fun (pool, seq) ->
      let memo = Nascent_ir.Validate.Memo.create () in
      let keys = Hashtbl.create 8 in
      List.for_all
        (fun (i, reversed) ->
          let hyps, goal = List.nth pool i in
          let canon = List.sort_uniq Check.compare hyps in
          Hashtbl.replace keys (List.map pp_check canon, pp_check goal) ();
          let hyps = if reversed then List.rev hyps else hyps in
          Nascent_ir.Validate.Memo.entails memo ~hyps goal
          = Oracle.implies ~hyps:canon goal)
        seq
      && Nascent_ir.Validate.Memo.queries memo = Hashtbl.length keys
      && Nascent_ir.Validate.Memo.queries memo + Nascent_ir.Validate.Memo.hits memo
         = List.length seq)

(* A query cut short by ambient fuel exhaustion inside the oracle leaves
   no entry: the next identical query runs the oracle and gets its real
   answer. Budget 2 lets the memo's own tick pass and exhausts on the
   oracle's first. *)
let test_memo_skips_raised_queries () =
  let module Memo = Nascent_ir.Validate.Memo in
  let module Guard = Nascent_support.Guard in
  let memo = Memo.create () in
  (* x - y <= 0 /\ y <= 5 |- x <= 5: cross-family, so the oracle eliminates *)
  let hyps = [ mk [ 1; -1; 0 ] 0; mk [ 0; 1; 0 ] 5 ] and goal = mk [ 1; 0; 0 ] 5 in
  (match
     Guard.with_fuel (Guard.fuel ~what:"test" ~budget:2) (fun () ->
         Memo.entails memo ~hyps goal)
   with
  | _ -> Alcotest.fail "expected ambient fuel exhaustion"
  | exception Guard.Fuel_exhausted _ -> ());
  Alcotest.(check int) "raised query not stored" 0 (Memo.queries memo);
  Alcotest.(check bool) "proved on retry" true (Memo.entails memo ~hyps goal);
  Alcotest.(check bool) "answered from memo" true (Memo.entails memo ~hyps goal);
  Alcotest.(check (pair int int)) "one run, one hit" (1, 1)
    (Memo.queries memo, Memo.hits memo)

(* --- deterministic cross-family cases --------------------------------- *)

let upper a k = Check.make (Linexpr.of_atom a) k
let le a b = Check.make (Linexpr.sub (Linexpr.of_atom a) (Linexpr.of_atom b)) 0

let test_transitive_chain () =
  (* x <= y, y <= z, z <= 7 |- x <= 7: the preheader-conditional
     reasoning (LLS) that needs two eliminations. *)
  Alcotest.(check bool)
    "x<=y, y<=z, z<=7 |- x<=7" true
    (Oracle.implies ~hyps:[ le x y; le y z; upper z 7 ] (upper x 7));
  Alcotest.(check bool)
    "chain cannot prove x<=6" false
    (Oracle.implies ~hyps:[ le x y; le y z; upper z 7 ] (upper x 6))

let test_gcd_tightening () =
  (* 2x <= 9 |- x <= 4 needs the integer floor; rationally x <= 4.5. *)
  Alcotest.(check bool)
    "2x<=9 |- x<=4" true
    (Oracle.implies ~hyps:[ Check.make (Linexpr.of_atom ~coeff:2 x) 9 ] (upper x 4));
  Alcotest.(check bool)
    "2x<=9 /|- x<=3" false
    (Oracle.implies ~hyps:[ Check.make (Linexpr.of_atom ~coeff:2 x) 9 ] (upper x 3))

let test_scaling () =
  (* x <= 5 |- 2x <= 10: different family, one combination step. *)
  Alcotest.(check bool)
    "x<=5 |- 2x<=10" true
    (Oracle.implies ~hyps:[ upper x 5 ] (Check.make (Linexpr.of_atom ~coeff:2 x) 10))

let test_unsat_detects_empty_interval () =
  (* x <= 3 and -x <= -5 (x >= 5): empty. *)
  Alcotest.(check bool)
    "x<=3, x>=5 unsat" true
    (Oracle.unsat [ upper x 3; Check.make (Linexpr.of_atom ~coeff:(-1) x) (-5) ]);
  Alcotest.(check bool)
    "x<=3, x>=3 sat" false
    (Oracle.unsat [ upper x 3; Check.make (Linexpr.of_atom ~coeff:(-1) x) (-3) ])

(* --- degradation: overflow and fuel are "unknown", not exceptions ----- *)

let test_overflow_is_unknown () =
  (* Eliminating x from [2x + y <= max_int-1] and the negated goal
     [-3x - y <= -1] scales the constant by 3, which overflows; the
     other elimination order projects the system to a satisfiable one.
     Either way the answer is false and no exception may escape. *)
  let h = mk [ 2; 1; 0 ] (max_int - 1) in
  Alcotest.(check bool)
    "overflowing combination is unknown" false
    (Oracle.implies ~hyps:[ h ] (mk [ 3; 1; 0 ] 0));
  (* Negating a min_int-constant goal overflows before elimination. *)
  Alcotest.(check bool)
    "un-negatable goal is unknown" false
    (Oracle.implies ~hyps:[ upper x 0 ] (Check.make (Linexpr.of_atom y) min_int))

(* Wild coefficients and constants: whatever they are, the oracle call
   must return a boolean — Overflow, fuel exhaustion and constraint
   blowup all degrade to "unknown" internally. *)
let prop_huge_inputs_never_raise =
  let gen_wild_int =
    G.oneof
      [
        G.int_range (-3) 3;
        G.oneofl [ max_int; min_int; max_int / 2; min_int / 2; max_int - 1 ];
      ]
  in
  let gen_wild_check =
    G.map2 mk (G.list_repeat 3 gen_wild_int) gen_wild_int
  in
  QCheck.Test.make ~name:"oracle: huge inputs never raise" ~count:300
    (QCheck.make ~print:print_query
       (G.pair (G.list_size (G.int_range 0 4) gen_wild_check) gen_wild_check))
    (fun (hyps, goal) ->
      let (_ : bool) = Oracle.implies ~hyps goal in
      let (_ : bool) = Oracle.unsat (goal :: hyps) in
      true)

let test_fuel_budget_positive () =
  Alcotest.(check bool) "fuel budget positive" true (Oracle.fuel_budget > 0)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_implies_sound;
    QCheck_alcotest.to_alcotest prop_unsat_sound;
    QCheck_alcotest.to_alcotest prop_order_independent;
    QCheck_alcotest.to_alcotest prop_covers_within_family;
    QCheck_alcotest.to_alcotest prop_proves_farkas_combinations;
    QCheck_alcotest.to_alcotest prop_memo_exact;
    tc "oracle: memo skips raised queries" test_memo_skips_raised_queries;
    tc "oracle: transitive chain" test_transitive_chain;
    tc "oracle: gcd tightening" test_gcd_tightening;
    tc "oracle: cross-family scaling" test_scaling;
    tc "oracle: unsat interval" test_unsat_detects_empty_interval;
    tc "oracle: overflow degrades to unknown" test_overflow_is_unknown;
    QCheck_alcotest.to_alcotest prop_huge_inputs_never_raise;
    tc "oracle: fuel budget positive" test_fuel_budget_positive;
  ]
