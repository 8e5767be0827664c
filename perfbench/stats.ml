(* Pure statistics behind the benchmark's reported numbers: percentile
   and tail selection, the max_rps ladder rule, the single-worker queue
   replay, self-time accounting over spans, and the metric-name charset.
   Everything here is deterministic and unit-tested on synthetic
   samples (test_stats.ml). *)

let sorted a =
  let b = Array.copy a in
  Array.sort compare b;
  b

(* Nearest-rank percentile of an ascending array, [q] in [0, 1]. *)
let percentile_sorted s q =
  let n = Array.length s in
  if n = 0 then invalid_arg "Stats.percentile_sorted: no samples"
  else
    let idx = int_of_float (ceil (q *. float_of_int n)) - 1 in
    s.(max 0 (min (n - 1) idx))

let median a = percentile_sorted (sorted a) 0.5

let mean a =
  if Array.length a = 0 then 0.0
  else Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

(* The tail a run reports: the highest percentile that still has at
   least [beyond] samples above it, i.e. the ([beyond]+1)-th largest
   sample, at percentile 100 * (n - beyond) / n. [None] when there are
   too few samples to leave [beyond] above any of them. *)
type tail = { value : float; pct : float; samples : int }

let tail ?(beyond = 10) a =
  let n = Array.length a in
  if n <= beyond then None
  else
    let s = sorted a in
    Some
      {
        value = s.(n - 1 - beyond);
        pct = 100.0 *. float_of_int (n - beyond) /. float_of_int n;
        samples = n;
      }

(* The tail of a long series, steadied: split the samples, in measured
   order, into consecutive windows of [window] samples (the last window
   absorbs the remainder; one window when there are fewer than two
   windows' worth) and report the median of the windows' tails. Each
   window's tail is the highest percentile with [beyond] samples above
   it, so a single stall of the host moves one window, not the result. *)
type windowed = { w_value : float; w_pct : float; windows : int; per_window : int }

let windowed_tail ?(beyond = 10) ~window a =
  let n = Array.length a in
  let k = max 1 (n / window) in
  let size = if k = 1 then n else window in
  let tails =
    Array.init k (fun j ->
        let len = if j = k - 1 then n - (j * size) else size in
        tail ~beyond (Array.sub a (j * size) len))
  in
  if Array.exists Option.is_none tails then None
  else
    let tails = Array.map Option.get tails in
    let values = Array.map (fun t -> t.value) tails in
    Some
      {
        w_value = median values;
        w_pct = tails.(0).pct;
        windows = k;
        per_window = size;
      }

(* --- max_rps ----------------------------------------------------------

   One open-loop rung at a fixed offered rate. [backlog_mid] and
   [backlog_end] are the requests sent but not yet answered at the
   middle and at the end of the sending window. *)
type rung = {
  offered : float;
  achieved : float;  (** answered requests per second of the rung *)
  tail_ms : float;
  errors : int;
  sent : int;
  backlog_mid : int;
  backlog_end : int;
}

(* A backlog grows when the second half of the window left more
   requests outstanding than the first half did, by more than 5% of the
   requests sent in that half (and never less than 4 requests, so a
   couple of in-flight requests at a low rate are not a trend). *)
let backlog_growing r =
  let half = float_of_int r.sent /. 2.0 in
  let slack = max 4 (int_of_float (ceil (0.05 *. half))) in
  r.backlog_end - r.backlog_mid > slack

let rung_ok ~limit_ms r =
  r.errors = 0 && r.sent > 0 && r.tail_ms <= limit_ms && not (backlog_growing r)

(* Bisection for the highest passing rung of an ascending ladder,
   assuming pass/fail is monotone in the rate. [(lo, hi)] are ladder
   indices of a known pass and a known fail (-1 and the ladder length
   are the sentinels); one step probes the middle rung and narrows
   them, or returns [None] once they are adjacent — [lo] is then the
   answer. Stepping lets the caller interleave other work between
   probes. *)
let bisect_step (lo, hi) probe =
  if hi - lo <= 1 then None
  else
    let mid = (lo + hi) / 2 in
    Some (if probe mid then (mid, hi) else (lo, mid))

(* --- single-worker queue replay ----------------------------------------

   Service times measured back to back in a closed loop, replayed as an
   open loop: request [i] arrives at [i / rate] and one FIFO worker
   serves each for its measured time (Lindley's recursion). Latency is
   completion minus arrival — what one in-process compile worker with
   free transport shows at that offered rate. The rung's tail is
   windowed as in [windowed_tail]. *)
let replay ?(window = 200) ~rate service_ms =
  let n = Array.length service_ms in
  let gap_ms = 1000.0 /. rate in
  let lat = Array.make n 0.0 in
  let finish = Array.make n 0.0 in
  let free_at = ref 0.0 in
  for i = 0 to n - 1 do
    let arrive = float_of_int i *. gap_ms in
    let start = Float.max arrive !free_at in
    free_at := start +. service_ms.(i);
    finish.(i) <- !free_at;
    lat.(i) <- !free_at -. arrive
  done;
  (* outstanding at the arrival of request [k]: arrived minus finished
     ([finish] ascends — one FIFO worker — so count by bisection) *)
  let outstanding k =
    let t = float_of_int k *. gap_ms in
    let rec count lo hi = if lo >= hi then lo else
        let mid = (lo + hi) / 2 in
        if finish.(mid) <= t then count (mid + 1) hi else count lo mid
    in
    k + 1 - count 0 n
  in
  let span_ms = if n = 0 then 0.0 else finish.(n - 1) in
  let rung =
    {
      offered = rate;
      achieved = (if span_ms > 0.0 then 1000.0 *. float_of_int n /. span_ms else 0.0);
      tail_ms = (match windowed_tail ~window lat with Some t -> t.w_value | None -> 0.0);
      errors = 0;
      sent = n;
      backlog_mid = (if n = 0 then 0 else outstanding (n / 2));
      backlog_end = (if n = 0 then 0 else outstanding (n - 1));
    }
  in
  (lat, rung)

(* --- self-time accounting ----------------------------------------------

   A span covers [start, stop) of one named layer call; [parent] names
   the span that caused it (None for a request's root). A layer's self
   time is its duration minus the part its children cover (children of
   one parent never overlap: they are sequential calls). Summing self
   times per layer and adding the residual — the root time no span
   accounts for — gives back the end-to-end total exactly. *)
type span = { id : int; name : string; parent : int option; start : float; stop : float }

let self_times spans =
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      match s.parent with
      | Some p ->
          let prev = Option.value ~default:0.0 (Hashtbl.find_opt child_time p) in
          Hashtbl.replace child_time p (prev +. (s.stop -. s.start))
      | None -> ())
    spans;
  let by_layer = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let own =
        s.stop -. s.start -. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.id)
      in
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt by_layer s.name) in
      Hashtbl.replace by_layer s.name (prev +. own))
    spans;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_layer [] |> List.sort compare

(* [total] is the measured end-to-end time the spans were recorded
   under; the residual is what no layer's self time accounts for. *)
let residual ~total selves = total -. List.fold_left (fun a (_, v) -> a +. v) 0.0 selves

(* --- names ---------------------------------------------------------- *)

let is_alnum c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')

(* A metric or workload name: starts with a letter or digit, at most 64
   letters, digits, '_', '.' and '-'. *)
let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64
  && is_alnum s.[0]
  && String.for_all (fun c -> is_alnum c || c = '_' || c = '.' || c = '-') s

(* A unit: at most 16 letters, digits, '_', '/', '%', '.' and '-'. *)
let valid_unit s =
  let n = String.length s in
  n >= 1 && n <= 16
  && String.for_all
       (fun c -> is_alnum c || c = '_' || c = '/' || c = '%' || c = '.' || c = '-')
       s
