(* Every metric the benchmark reports, with its unit. BENCHMARK.json
   lists the same names (test_stats.ml checks the two agree); a run with
   --trace 0 prints [end_to_end], a run with --trace 1 prints
   [per_layer]. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
    ("compile_per_s", "1/s");
    ("compile_p50_ms", "ms");
    ("compile_tail_ms", "ms");
    ("dyn_checks", "count");
    ("dyn_instrs", "count");
    ("p50_ms_low", "ms");
    ("tail_ms_low", "ms");
    ("p50_ms_high", "ms");
    ("tail_ms_high", "ms");
    ("max_rps", "1/s");
  ]

(* Optimizer passes reported one by one, in pipeline order. *)
let passes =
  [
    "inx-rewrite";
    "context";
    "strengthen";
    "pre-insert";
    "hoist";
    "eliminate";
    "oracle-elim";
    "fold";
    "validate";
  ]

let per_layer =
  [ ("frontend.ms", "ms"); ("ir.lower.ms", "ms"); ("core.optimize.ms", "ms") ]
  @ List.map (fun p -> ("core.pass." ^ p ^ ".ms", "ms")) passes
  @ [
      ("core.other.ms", "ms");
      ("ir.verify.ms", "ms");
      ("core.static_checks_after", "count");
      ("core.redundant_deleted", "count");
      ("core.hoisted", "count");
      ("core.oracle_deleted", "count");
      ("core.incidents", "count");
      ("ir.validate.certified", "count");
      ("interp.run_ms", "ms");
      ("interp.cond_guards", "count");
      ("service.handle_ms.hit", "ms");
      ("service.handle_ms.miss", "ms");
      ("server.overhead_ms", "ms");
      ("journal.append_ms", "ms");
      ("router.hop_ms", "ms");
      ("frame.codec_ms", "ms");
      ("frame.bytes_per_req", "bytes");
      ("memo.hit_ratio", "ratio");
      ("service.floor_ratio", "ratio");
      ("server.bg_pending_end", "count");
      ("server.shed", "count");
      ("router.failovers", "count");
      ("loadgen.lag_tail_ms", "ms");
      ("trace.overhead_ms", "ms");
      ("trace.residual_ms", "ms");
      ("trace.residual_share", "ratio");
    ]
