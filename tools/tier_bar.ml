(* Tier latency bar: a cold cache miss answered from the NI floor must
   cost at most twice a warm NI hit, since both are one cache lookup
   plus the round trip.

   Runs the compile service in-process on a daemon-default server (two
   workers, upgrades on the background lane, wired as nascentd wires
   them). For every benchmark x {LLS, CS, SE, LI, ALL} it times four
   warm NI hits and then the cell's cold miss, so both samples see the
   same host load, and waits for the cell's upgrade to land before the
   next one. Exits 1 if a cold miss is not served from the floor or if
   the median cold miss costs more than twice the median warm NI hit.
   Floor/optimized identity is the test suite's job ("tier: floor then
   optimized"); this bar is timed apart from it, on a quiet build.

   Usage: tier_bar.exe *)

module Server = Nascent_support.Server
module Client = Server.Client
module Json = Nascent_support.Json
module Mclock = Nascent_support.Mclock
module Service = Nascent_harness.Service
module B = Nascent_benchmarks.Suite

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("FAIL: " ^ m); exit 1) fmt

let req ~scheme name =
  Json.Obj
    [
      ("op", Json.Str "compile");
      ("benchmark", Json.Str name);
      ("scheme", Json.Str scheme);
      ("run", Json.Bool true);
    ]

let exchange conn r =
  match Client.request conn r with Ok resp -> resp | Error e -> fail "request failed: %s" e

let tier resp = Option.value ~default:"-" (Json.str_member "tier" resp)

let timed conn r =
  let t0 = Mclock.counter () in
  let resp = exchange conn r in
  (Mclock.elapsed_s t0, resp)

let median xs = List.nth (List.sort compare xs) (List.length xs / 2)

(* One cell: four warm NI hits and the cold miss, then the upgrade. *)
let sample conn name scheme =
  let warm = List.init 4 (fun _ -> fst (timed conn (req ~scheme:"NI" name))) in
  let dt, cold = timed conn (req ~scheme name) in
  if tier cold <> "floor" then fail "%s %s: cold miss served tier %s" name scheme (tier cold);
  let t0 = Mclock.counter () in
  while tier (exchange conn (req ~scheme name)) <> "optimized" do
    if Mclock.elapsed_s t0 > 60.0 then fail "%s %s: upgrade did not land in 60 s" name scheme;
    Unix.sleepf 0.005
  done;
  (warm, dt)

let () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "nascent-tier-bar-%d.sock" (Unix.getpid ()))
  in
  let service = Service.create () in
  let srv = Server.create (Server.default_config ~socket_path:path) (Service.handler service) in
  Service.set_upgrade_submit service (Server.submit_background srv);
  let runner = Thread.create (fun () -> Server.run srv) () in
  let t0 = Mclock.counter () in
  while not (Sys.file_exists path) do
    if Mclock.elapsed_s t0 > 5.0 then fail "server socket never appeared";
    Unix.sleepf 0.01
  done;
  let names = List.map (fun (b : B.benchmark) -> b.B.name) B.all in
  let samples =
    Fun.protect ~finally:(fun () -> Server.stop srv; Thread.join runner) @@ fun () ->
    Client.with_conn path @@ fun conn ->
    (* warm the NI floor cells *)
    List.iter (fun n -> ignore (exchange conn (req ~scheme:"NI" n))) names;
    List.concat_map
      (fun n -> List.map (sample conn n) [ "LLS"; "CS"; "SE"; "LI"; "ALL" ])
      names
  in
  let warm_ni = median (List.concat_map fst samples) in
  let cold_floor = median (List.map snd samples) in
  let ratio = cold_floor /. warm_ni in
  Printf.printf "tier bar: cold-miss floor %.3f ms, warm NI hit %.3f ms (%d cells): %.2fx\n%!"
    (1000.0 *. cold_floor) (1000.0 *. warm_ni) (List.length samples) ratio;
  if ratio > 2.0 then fail "cold-miss floor is %.2fx the warm NI hit (bar: 2x)" ratio
